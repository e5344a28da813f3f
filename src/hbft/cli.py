"""Scenario-driven command line: simulate, sweep, validate, list catalogues.

Scenarios are YAML files; the full grammar is documented in the README and
exercised by the bundled files under ``scenarios/``. Commands:

- ``hbft simulate <config>``: one run; writes ``<name>.csv`` (trajectory),
  ``<name>.report.json`` (machine-readable certificates), and
  ``<name>.summary.txt`` (one screen for humans).
- ``hbft sweep <config> --grid <file>``: cartesian parameter grid over a
  base scenario; one run per point plus an aggregate table.
- ``hbft validate <config>``: parse and validate only.
- ``hbft list-potentials`` / ``hbft list-schedules``: print the catalogues.

Exit codes: 0 all requested checks passed; 1 at least one check failed;
2 usage or config error; 3 integration hard error (partial trajectory is
still written). The output directory is ``--out-dir`` if given, else the
config's ``outputs.out_dir``, else ``$HBFT_OUT_DIR``, else ``./hbft_out``.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import csv
import dataclasses
import errno
import functools
import inspect
import itertools
import json
import math
import os
import sys
import warnings
from pathlib import Path
from typing import Optional, get_type_hints

import numpy as np
import yaml

from .diagnostics import (
    COMPLETE_RUNS,
    TAIL_FRACTION,
    CertificationReport,
    CheckRecord,
    _json_safe,
    _norms,
    _record,
    _sqrt_lam_speed,
    _tail_slice,
    barbalat_check,
    check_acceleration_bound,
    check_energy_monotone,
    check_velocity_bound,
    energy_balance_residual,
    sqrt_friction_speed,
    tail_asymptotics,
)
from .dynamics import (
    MechanicalParams,
    PhaseState,
    _reaction_value,
    full_surface_field,
    hbft_field,
)
from .errors import ConfigError, IntegrationError, ScheduleConsistencyError
from .friction import (
    FrictionSchedule,
    builtin_schedules,
    make_schedule,
    verify_friction_hypotheses,
)
from .integrate import IntegratorConfig, StopCondition, Trajectory, integrate
from .potentials import Potential, builtin_potentials, make_potential

OUT_DIR_ENV = "HBFT_OUT_DIR"
# output format -> the suffix of its artifact after the scenario name
_ARTIFACTS = {"csv": ".csv", "report": ".report.json", "summary": ".summary.txt"}
# Rows per block of the trajectory CSV: bounds the memory of a long run's text.
_CSV_BLOCK_ROWS = 1024
# Cells from which a block is formatted by floattext's array passes rather than
# a repr per cell, whose fixed cost they outrun from about this many cells.
_CSV_ARRAY_CELLS = 2048
# Rows from which a trajectory CSV is formatted by two processes: a fork and
# wait take about 1.4 ms with numpy loaded; on 2 CPUs, with floattext
# formatting the blocks, the split writer tied the serial one at 2,048 rows,
# was 10-12% faster at 3,072 and about 20% at 4,096 (dim 1 and 2, medians
# of four rounds on a noisy host).
_CSV_SPLIT_ROWS = 4096
# Values a file's aliases may repeat beyond those it writes out: every reader
# after the loader takes each use in full, and aliases of aliases double per
# level (a 522-byte `diag` of 19 levels took 4 s and 224 MB to validate). This
# many cost about 0.1 s and 5 MB; a `<<` merge or a shared `x0` repeats a few.
_ALIAS_SURPLUS_MAX = 100_000
# list command -> the catalogue it prints
_CATALOGUES = {"list-potentials": builtin_potentials, "list-schedules": builtin_schedules}


# --- config loading with line anchors ---------------------------------------


class _LineLoader(yaml.SafeLoader):
    """SafeLoader that stamps each mapping with its source line."""


def _construct_mapping(loader, node, deep=False):
    # the keys the mapping writes itself: a << merge prepends its pairs, which
    # an explicit key may override
    own = [key_node for key_node, _ in node.value if key_node.tag != "tag:yaml.org,2002:merge"]
    mapping = yaml.SafeLoader.construct_mapping(loader, node, deep=deep)
    for key_node, _ in node.value:
        if not isinstance(key := loader.construct_object(key_node), str):
            raise yaml.constructor.ConstructorError(
                None, None, f"config keys must be strings, got {key!r}", key_node.start_mark)
    seen = set()
    for key_node in own:
        if (key := loader.construct_object(key_node)) in seen or key == "__line__":
            problem = "is reserved" if key == "__line__" else "is repeated in this mapping"
            raise yaml.constructor.ConstructorError(
                None, None, f"config key '{key}' {problem}", key_node.start_mark)
        seen.add(key)
    mapping["__line__"] = node.start_mark.line + 1
    return mapping


_LineLoader.add_constructor(
    yaml.resolver.BaseResolver.DEFAULT_MAPPING_TAG, _construct_mapping
)


def load_config_file(path) -> dict:
    """Parse a YAML config file; mappings carry ``__line__`` markers."""
    path = Path(path)
    try:
        raw = path.read_bytes()
        text = raw.decode()
    except OSError as exc:
        raise ConfigError(f"cannot read config '{path}': {exc}") from None
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise ConfigError(f"{path}:{line}: not valid UTF-8: {exc}") from None
    try:
        data = yaml.load(text, Loader=_LineLoader)
        surplus = _alias_surplus(data)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f"{path}:{mark.line + 1}" if mark is not None else str(path)
        raise ConfigError(f"{where}: not valid YAML: {exc}") from None
    except RecursionError:  # the parser and the walk recurse once per level of nesting
        raise ConfigError(f"{path}: nested deeper than the YAML parser can read") from None
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: config root must be a mapping")
    if surplus > _ALIAS_SURPLUS_MAX:
        raise ConfigError(f"{path}: YAML aliases repeat more than {_ALIAS_SURPLUS_MAX:,} values; "
                          "write the values out")
    return data


def _alias_surplus(data) -> float:
    """How many more values ``data`` holds read as a tree, each alias in full,
    than as built, each list and mapping once; inf for a list that holds itself."""
    sizes, built = {}, []

    def size(node) -> float:
        if not isinstance(node, (dict, list)):
            return 1
        if id(node) not in sizes:
            sizes[id(node)] = math.inf  # until summed: a list that holds itself
            built.append(len(node))
            sizes[id(node)] = 1 + sum(map(size, node.values() if isinstance(node, dict) else node))
        return sizes[id(node)]

    return size(data) - 1 - sum(built)


def strip_line_markers(data):
    """Deep copy with all ``__line__`` markers removed (for merging/pickling)."""
    if isinstance(data, dict):
        return {k: strip_line_markers(v) for k, v in data.items() if k != "__line__"}
    if isinstance(data, list):
        return [strip_line_markers(v) for v in data]
    return data


_MISSING = object()
# kind -> the Python type of its values (a bool is no integer)
_SCALARS = {"string": str, "integer": int, "boolean": bool}
# The kind of each field or parameter type a config key may have.
_KINDS = {str: "string", float: "number", Optional[float]: "number", int: "integer", bool: "boolean"}


class _Node:
    """One mapping section of a config, with line-anchored errors."""

    def __init__(self, data: dict, source: str, path: str = ""):
        self.data = data
        self.source = source
        self.path = path

    def _anchor(self) -> str:
        line = self.data.get("__line__")
        return f"{self.source}:{line}" if line else self.source

    def _loc(self, key: Optional[str] = None) -> str:
        bits = [b for b in (self.path, key) if b]
        return ".".join(bits) or "config"

    def fail(self, message: str, key: Optional[str] = None):
        raise ConfigError(f"{self._anchor()}: {self._loc(key)}: {message}")

    def keys(self) -> list[str]:
        return [k for k in self.data if k != "__line__"]

    def require_known(self, allowed) -> None:
        unknown = sorted(k for k in self.keys() if k not in allowed)
        if unknown:
            self.fail(f"unknown keys {unknown}; allowed keys: {sorted(allowed)}")

    def child(self, key: str, required: bool = True) -> Optional["_Node"]:
        val = self.data.get(key, _MISSING)
        if val is _MISSING or val is None:
            if required:
                self.fail("required section is missing", key)
            return None
        if not isinstance(val, dict):
            self.fail(f"expected a mapping, got {type(val).__name__}", key)
        return _Node(val, self.source, self._loc(key))

    def get(self, key: str, kind: str, default=_MISSING):
        """The value at ``key`` as a ``kind``: "string", "integer", "boolean",
        "number" (a numeric string is one) or "list of numbers". An absent or
        null key gives ``default``, and is an error where there is none."""
        val = self.data.get(key)
        if val is None:
            if default is _MISSING:
                self.fail(f"required {kind} is missing", key)
            return default
        if kind == "number":
            return self._number(val, key)
        if kind == "list of numbers":
            if not isinstance(val, list) or not val:
                self.fail(f"expected a nonempty list of numbers, got {val!r}", key)
            return [self._number(v, key) for v in val]
        cls = _SCALARS[kind]
        if not isinstance(val, cls) or (isinstance(val, bool) and cls is not bool):
            self.fail(f"expected {'an' if kind == 'integer' else 'a'} {kind}, got {val!r}", key)
        return val

    def _number(self, val, key) -> float:
        if isinstance(val, bool):
            self.fail("expected a number, got a boolean", key)
        if isinstance(val, (int, float)):
            return float(val)
        if isinstance(val, str):
            with contextlib.suppress(ValueError):
                return float(val)
        self.fail(f"expected a number, got {val!r}", key)

    def raw(self, key: str, default=None):
        val = self.data.get(key)
        val = default if val is None else val
        return strip_line_markers(val) if isinstance(val, (dict, list)) else val


@functools.cache
def _keys(fn, n_inputs: int = 0) -> dict:
    """Key -> (kind, whether it is required) for the parameters of ``fn``
    after its first ``n_inputs``; a dataclass's parameters are its fields.
    The kind is None for a type no kind reads (a nested section)."""
    hints = get_type_hints(fn)
    params = list(inspect.signature(fn).parameters.values())[n_inputs:]
    return {p.name: (_KINDS.get(hints[p.name]), p.default is p.empty) for p in params}


# --- check registry ----------------------------------------------------------

# check name -> (diagnostic, the run inputs it takes first). The diagnostic's
# remaining parameters are the check's YAML keys: required where it has no
# default, optional where it has one, and then its own default applies. The
# diagnostic is called through its module-level name at run time, so a
# wrapper installed on that name is the one called.
_CHECK_CALLS = {
    "energy_monotone": ("check_energy_monotone", ("traj",)),
    "energy_balance": ("energy_balance_residual", ("traj", "s")),
    "velocity_bound": ("check_velocity_bound", ("traj", "p")),
    "tail_asymptotics": ("tail_asymptotics", ("traj", "s", "p")),
    "barbalat_sqrt_friction_speed": ("barbalat_check", ("f",)),
    "acceleration_bound": ("check_acceleration_bound", ("traj", "p", "s")),
    "friction_bounded": ("_friction_bounded", ("s",)),
}


@functools.wraps(verify_friction_hypotheses)  # its parameters are the check's keys
def _friction_bounded(s: FrictionSchedule, **params) -> CheckRecord:
    rep = verify_friction_hypotheses(s, **params)
    return _record(
        "friction_bounded",
        rep.max_after_t1,
        rep.bound_guess,
        t1_guess=rep.t1_guess,
        continuity_ok=rep.continuity_ok,
        min_value=rep.min_value,
        has_zeros=rep.has_zeros,
        derivative_available=rep.derivative_available,
        max_abs_derivative=rep.max_abs_derivative,
    )


# check name -> its keys, as _keys gives them; horizon defaults to
# integrator.t_max, filled in at parse time.
_CHECK_KEYS = {name: _keys(globals()[fn], len(inputs)) for name, (fn, inputs) in _CHECK_CALLS.items()}
_CHECK_KEYS["friction_bounded"] = {**_CHECK_KEYS["friction_bounded"], "horizon": ("number", False)}
# The name a check's record carries, where it is not the check's name.
_RECORD_NAMES = {"barbalat_sqrt_friction_speed": "barbalat"}

# The allowed range of every check key, tested at parse time: (test, rule).
_AT_LEAST_ZERO = (lambda v: v >= 0, ">= 0")
_ABOVE_ZERO = (lambda v: v > 0, "> 0")
_CHECK_RANGES = {
    **dict.fromkeys(
        ("tol", "threshold", "bound", "tail_threshold", "bound_guess", "t1_guess"), _AT_LEAST_ZERO
    ),
    **dict.fromkeys(("l2_budget", "linf_budget", "dot_budget"), _ABOVE_ZERO),
    "horizon": (lambda v: 0 < v < math.inf, "> 0 and finite"),
    "tail_fraction": (lambda v: 0 < v < 1, "in (0, 1)"),
    "grid_points": (lambda v: v >= 2, ">= 2"),
}


def _run_check(check: dict, traj: Trajectory, p: Potential, s: FrictionSchedule) -> CheckRecord:
    """Run one configured check; a check that raises becomes a failed record,
    and so does a pass on the trajectory of a run that stopped early (see
    ``COMPLETE_RUNS``): it keeps its residual, against a NaN threshold."""
    name = check["name"]
    params = {k: v for k, v in check.items() if k != "name"}
    fn, inputs = _CHECK_CALLS[name]
    run = {"traj": traj, "p": p, "s": s}
    try:
        args = [sqrt_friction_speed(traj) if i == "f" else run[i] for i in inputs]
        record = globals()[fn](*args, **params)
    except (ValueError, RuntimeError, MemoryError) as exc:
        return _record(_RECORD_NAMES.get(name, name), math.nan, 0.0, error=str(exc))
    stopped_early = traj.termination_reason not in COMPLETE_RUNS
    if record.passed and stopped_early and {"traj", "f"} & set(inputs):
        return _record(record.check_name, record.residual, math.nan, **record.details,
                       termination_reason=traj.termination_reason,
                       configured_threshold=record.threshold)
    return record


# --- scenario configuration --------------------------------------------------


@dataclasses.dataclass
class ScenarioConfig:
    """A fully validated scenario: built objects plus the clean raw dict."""

    name: str
    model: str
    potential: Potential
    schedule: FrictionSchedule
    mechanical: Optional[MechanicalParams]
    x0: np.ndarray
    v0: np.ndarray
    integrator: IntegratorConfig
    checks: list[dict]
    out_dir: Optional[str]
    formats: tuple[str, ...]
    raw: dict
    source: str

    def __reduce__(self):
        # The built potential and schedule hold lambdas: a pool child parses again.
        return ScenarioConfig.from_raw, (self.raw, self.source, self.name)

    @staticmethod
    def from_raw(raw: dict, source: str, default_name: str = "scenario") -> "ScenarioConfig":
        root = _Node(raw, source)
        root.require_known(
            {"name", "model", "potential", "schedule", "initial", "mechanical",
             "integrator", "checks", "outputs"}
        )
        name = root.get("name", "string", default_name)
        if name in ("", ".", "..") or "/" in name or "\0" in name:
            root.fail(f"must be a file name (not '', '.' or '..', no '/' or NUL), got {name!r}", "name")
        model = root.get("model", "string", "hbft")
        if model not in ("hbft", "full_surface"):
            root.fail(f"model must be 'hbft' or 'full_surface', got '{model}'", "model")

        pot_node = root.child("potential")
        pot_name, potential = _from_catalogue(pot_node, make_potential)
        _, schedule = _from_catalogue(root.child("schedule"), make_schedule)

        init_node = root.child("initial")
        init_node.require_known({"x0", "v0"})
        x0, v0 = (np.array(init_node.get(key, "list of numbers")) for key in ("x0", "v0"))
        for key, vec in (("x0", x0), ("v0", v0)):
            if vec.size != potential.dim:
                init_node.fail(
                    f"length {vec.size} does not match potential '{pot_name}' dim {potential.dim}", key
                )
            if not np.isfinite(vec).all():
                init_node.fail(f"components must be finite, got {vec.tolist()}", key)

        mech_node = root.child("mechanical", required=False)
        mechanical = None if mech_node is None else _build(mech_node, MechanicalParams)
        if model == "full_surface":
            if mechanical is None:
                root.fail("full_surface model requires a 'mechanical' section (mass, gravity)", "mechanical")
            if potential.hessian_quadform_fn is None:
                pot_node.fail(
                    f"potential '{pot_name}' has no Hessian quadratic form; the full_surface model needs one"
                )

        int_node = root.child("integrator")
        integrator = _parse_integrator(int_node, model)

        checks = _parse_checks(root, potential, integrator.t_max)
        out_node = root.child("outputs", required=False) or _Node({}, source, "outputs")
        out_node.require_known({"out_dir", "formats"})
        out_dir = out_node.get("out_dir", "string", None)
        formats, allowed = out_node.raw("formats", list(_ARTIFACTS)), list(_ARTIFACTS)
        if not isinstance(formats, list) or not formats:
            out_node.fail("expected a nonempty list of formats", "formats")
        if bad := [f for f in formats if f not in allowed]:  # a list: a format may be unhashable
            out_node.fail(f"unknown formats {bad}; allowed: {allowed}", "formats")

        return ScenarioConfig(
            name=name,
            model=model,
            potential=potential,
            schedule=schedule,
            mechanical=mechanical,
            x0=x0,
            v0=v0,
            integrator=integrator,
            checks=checks,
            out_dir=out_dir,
            formats=tuple(formats),
            raw=strip_line_markers(raw),
            source=source,
        )


def _from_catalogue(node: _Node, factory):
    """(name, ``factory(name, **params)``) for a ``{name, params}`` section."""
    node.require_known({"name", "params"})
    name = node.get("name", "string")
    params = node.raw("params") or {}
    if not isinstance(params, dict):
        node.fail("expected a mapping of factory parameters", "params")
    try:
        return name, factory(name, **params)
    except ValueError as exc:
        node.fail(str(exc))
    except MemoryError as exc:
        node.fail(f"{name}: out of memory: {exc}")


def _build(node: _Node, cls, **given):
    """``cls`` built from ``node``, which may hold one key per dataclass field.

    Each key is read as its field's kind; an absent or null key leaves the
    field's default. Fields in ``given`` are passed as given.
    """
    keys = _keys(cls)
    node.require_known(keys)
    kwargs = dict(given)
    for name, (kind, _) in keys.items():
        if name not in given and (value := node.get(name, kind, None)) is not None:
            kwargs[name] = value
    try:
        return cls(**kwargs)
    except ValueError as exc:
        node.fail(str(exc))


def _parse_integrator(node: _Node, model: str) -> IntegratorConfig:
    # Unknown keys here are reported before any fault in the stop section.
    node.require_known(_keys(IntegratorConfig))
    stop_node = node.child("stop", required=False)
    stop = StopCondition() if stop_node is None else _build(stop_node, StopCondition)
    if stop.halt_on_contact_loss and model != "full_surface":
        (stop_node or node).fail(
            "halt_on_contact_loss needs the full_surface model (the reduced model has no reaction force)"
        )
    return _build(node, IntegratorConfig, stop=stop)


def _parse_checks(root: _Node, potential: Potential, t_max: float) -> list[dict]:
    raw_list = root.data.get("checks")
    if raw_list is None:
        return []
    if not isinstance(raw_list, list):
        root.fail("expected a list of check entries", "checks")
    checks: list[dict] = []
    for idx, entry in enumerate(raw_list):
        if not isinstance(entry, dict):
            root.fail(f"entry {idx} must be a mapping with a 'name'", "checks")
        node = _Node(entry, root.source, f"checks[{idx}]")
        cname = node.get("name", "string")
        if cname not in _CHECK_KEYS:
            node.fail(f"unknown check '{cname}'; known checks: {sorted(_CHECK_KEYS)}", "name")
        keys = _CHECK_KEYS[cname]
        node.require_known({"name", *keys})
        params = {}
        # required keys first, each group in sorted order
        for key in sorted(keys, key=lambda k: (not keys[k][1], k)):
            kind, required = keys[key]
            if (value := node.get(key, kind, _MISSING if required else None)) is not None:
                test, rule = _CHECK_RANGES[key]
                if not test(value):
                    node.fail(f"must be {rule}, got {value!r}", key)
                params[key] = value
        if cname == "friction_bounded":
            horizon = params.setdefault("horizon", t_max)
            if "t1_guess" in params and not params["t1_guess"] < horizon:
                node.fail(f"must be < horizon ({horizon!r}), got {params['t1_guess']!r}", "t1_guess")
        checks.append({"name": cname, **params})
    if checks and potential.unbounded_below:
        root.fail(
            f"certification refused: potential '{potential.name}' is unbounded below; "
            "remove the checks list to simulate without certification",
            "checks",
        )
    return checks


# --- artifact writers --------------------------------------------------------


def csv_header(dim: int) -> list[str]:
    return ["t", *(f"x_{i}" for i in range(dim)), *(f"v_{i}" for i in range(dim)),
            "E", "lambda", "grad_norm", "dissipation"]


def write_trajectory_csv(traj: Trajectory, path: Path) -> None:
    """Write the fixed-column trajectory CSV (repr floats, LF line ends).

    Rows go out a block at a time. A block of ``_CSV_ARRAY_CELLS`` cells or
    more is formatted by ``floattext``'s array passes, a smaller one a column
    at a time: ``tolist()`` yields the Python floats ``float()`` of each cell
    would, and a column whose cells all have the same bits gets one ``repr``.
    Both write each cell's ``repr``, and ``csv.writer`` never quotes a float's
    ``repr``, so the bytes are those of one ``csv.writer`` row per sample.
    From ``_CSV_SPLIT_ROWS`` rows on, in a process allowed two CPUs, a forked
    child writes the first half of the rows after the header, through the
    descriptor and offset it shares with this process, while this process
    formats the second half, which it appends once the child has exited.
    Where the child cannot start, this process writes every row; where it
    fails, the file is cut back to the header and this process writes every
    row. A row's text depends on that row alone, so the bytes are the same
    on every path.
    """
    columns = [traj.t, *traj.x.T, *traj.v.T, traj.energy, traj.lam, traj.grad_norm,
               traj.dissipation]
    n = traj.n_samples
    # sched_getaffinity exists only where fork does (Linux and its like)
    two_cpus = hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) >= 2
    half = n // 2 if n >= _CSV_SPLIT_ROWS and two_cpus else 0
    header = ",".join(csv_header(traj.dim)) + "\n"
    with open(path, "w", newline="") as fh:
        fh.write(header)
        pid = None
        if half:
            fh.flush()  # the header, before the child writes after it
            with contextlib.suppress(OSError):  # no fork: write every row here
                pid = _fork_csv_rows(fh.fileno(), columns, half)
        if pid is None:
            _write_csv_rows(fh.write, columns, 0, n)
            return
        blocks = []
        try:
            _write_csv_rows(blocks.append, columns, half, n)
        finally:
            failed = os.waitpid(pid, 0)[1] != 0  # 0 only once it wrote all its rows
        if failed:  # cut back to the header (on a pipe, ftruncate raises EINVAL)
            os.ftruncate(fh.fileno(), len(header))
            os.lseek(fh.fileno(), len(header), os.SEEK_SET)
            _write_csv_rows(fh.write, columns, 0, half)
        fh.writelines(blocks)


def _write_csv_rows(write, columns: list[np.ndarray], start: int, stop: int) -> None:
    for lo in range(start, stop, _CSV_BLOCK_ROWS):
        _write_csv_block(write, [c[lo:min(lo + _CSV_BLOCK_ROWS, stop)] for c in columns])


def _fork_csv_rows(fd: int, columns: list[np.ndarray], stop: int) -> int:
    """Fork a child that writes the CSV rows ``[0, stop)`` to ``fd``, at the
    offset it shares with this process: the child's pid."""
    with warnings.catch_warnings():
        # Python 3.12+ warns of a fork with threads, as numpy's OpenBLAS
        # starts one. The child calls no BLAS routine and takes no lock
        # another thread could hold; glibc's malloc resets its locks at fork.
        warnings.filterwarnings("ignore", r"This process \(pid=\d+\) is multi-threaded, "
                                r"use of fork\(\)", DeprecationWarning)
        pid = os.fork()
    if pid == 0:
        # os._exit ends every path, so no atexit handler, inherited buffer or
        # exception escapes
        status = 1
        try:
            with open(fd, "w", newline="", closefd=False) as fh:
                _write_csv_rows(fh.write, columns, 0, stop)
            status = 0
        finally:
            os._exit(status)
    return pid


def _write_csv_block(write, columns: list[np.ndarray]) -> None:
    block = np.array(columns, dtype=float)
    if block.size >= _CSV_ARRAY_CELLS:
        from . import floattext  # here, so that importing cli does not compile it

        write(floattext.csv_rows(block))
        return
    # bits, not ==: 0.0 == -0.0, but their reprs differ
    same = (block.view(np.uint64) == block[:, :1].view(np.uint64)).all(axis=1)
    cells = [[repr(col[0])] * len(col) if s else list(map(repr, col))
             for col, s in zip(block.tolist(), same)]
    write("\n".join(map(",".join, zip(*cells))))
    write("\n")


def _trajectory_meta(cfg: ScenarioConfig, traj: Trajectory) -> dict:
    tail = _tail_slice(traj.n_samples, TAIL_FRACTION)
    f = _sqrt_lam_speed(traj.lam[tail], traj.v[tail])
    return {
        "scenario": cfg.name,
        "model": cfg.model,
        "potential": cfg.potential.name,
        "schedule": cfg.schedule.name,
        "termination_reason": traj.termination_reason,
        "t_final": traj.t_final,
        "n_samples": traj.n_samples,
        "final_energy": float(traj.energy[-1]),
        "final_x": [float(v) for v in traj.x[-1]],
        "final_speed": _norms(traj.v[-1]),
        "tail_sqrt_friction_speed_sup": float(np.max(f)),
        "tail_grad_norm_sup": float(np.max(traj.grad_norm[tail])),
        "accepted_steps": traj.step_stats.accepted,
        "rejected_steps": traj.step_stats.rejected,
        "smallest_step": traj.step_stats.smallest_step,
        "largest_step": traj.step_stats.largest_step,
    }


def render_summary(meta: dict, report: Optional[CertificationReport],
                   error: Optional[str] = None) -> str:
    """The summary text of a run, from its ``_trajectory_meta``."""
    lines = [
        f"scenario: {meta['scenario']}",
        f"model: {meta['model']}",
        f"potential: {meta['potential']}",
        f"schedule: {meta['schedule']}",
        f"termination: {meta['termination_reason']} at t={meta['t_final']:.6g} "
        f"({meta['n_samples']} samples, {meta['accepted_steps']} accepted / "
        f"{meta['rejected_steps']} rejected steps)",
        f"final energy: {meta['final_energy']:.9g}",
        f"tail sup sqrt(lambda)|v|: {meta['tail_sqrt_friction_speed_sup']:.6g}",
        f"tail sup |grad|: {meta['tail_grad_norm_sup']:.6g}",
    ]
    if error is not None:
        lines.append(f"integration error: {error}")
    if report is not None and report.checks:
        passed = sum(1 for c in report.checks if c.passed)
        lines.append(f"checks: {passed}/{len(report.checks)} passed")
        lines.extend(report.render_lines())
    elif error is None:
        lines.append("checks: none requested")
    if error is not None:
        lines.append("overall: ERROR")
    else:
        ok = report is None or report.all_passed
        lines.append(f"overall: {'PASS' if ok else 'FAIL'}")
    return "\n".join(lines) + "\n"


def _write_report_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


# --- scenario execution ------------------------------------------------------


@dataclasses.dataclass
class ScenarioResult:
    exit_code: int
    trajectory: Optional[Trajectory]
    report: Optional[CertificationReport]
    paths: dict
    error: Optional[str] = None
    meta: Optional[dict] = None  # _trajectory_meta, when a trajectory exists


def _bind_field(cfg: ScenarioConfig):
    p, s = cfg.potential, cfg.schedule
    if cfg.model == "full_surface":
        mp = cfg.mechanical
        field = lambda state: full_surface_field(p, s, mp, state)
        reaction = lambda state: _reaction_value(p, mp, state)
        return field, reaction
    # the documented binding, which integrate steps on floats for builtin potentials
    return functools.partial(hbft_field, p, s), None


def _artifact_paths(cfg: ScenarioConfig, out_dir: Path) -> dict[str, Path]:
    """Format -> path of each requested artifact, in ``_ARTIFACTS`` order."""
    return {fmt: out_dir / f"{cfg.name}{suffix}" for fmt, suffix in _ARTIFACTS.items()
            if fmt in cfg.formats}


def _prepare_outputs(dirs: list[Path], files: list[Path]) -> None:
    """Create the directories a command writes in, having refused first a
    path in ``files`` that is a directory and a path in ``dirs`` that is a
    file or lies under one, so a refused command creates nothing. A file
    that fails for another reason fails when it is written (``_writing``)."""
    for path in files:
        with contextlib.suppress(OSError):  # a name too long, say: left to the write
            if path.is_dir():
                raise ConfigError(f"cannot write '{path}': it is a directory")
    try:
        for path in dirs:  # a parent comes before its children
            if path.exists() and not path.is_dir():
                raise FileExistsError(errno.EEXIST, os.strerror(errno.EEXIST))
        for path in dirs:
            path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory '{path}': {exc.strerror}") from None


@contextlib.contextmanager
def _writing(path: Path):
    """Turn an OSError while writing ``path`` into a config error (exit 2)."""
    try:
        yield path
    except OSError as exc:
        raise ConfigError(f"cannot write '{path}': {exc.strerror}") from None


def run_scenario(cfg: ScenarioConfig, out_dir, quiet: bool = False) -> ScenarioResult:
    """Integrate one scenario, run its checks, and write the artifacts.

    Returns a result whose ``exit_code`` follows the CLI contract: 0 all
    checks passed, 1 a check failed, 3 the integrator raised a hard error or
    the schedule broke its claim mid-run (whatever trajectory prefix exists
    is still written). Raises ConfigError for a path ``_prepare_outputs``
    refuses, before integrating, and for an artifact that cannot be written.
    """
    paths = _artifact_paths(cfg, Path(out_dir))
    _prepare_outputs([Path(out_dir)], list(paths.values()))
    field, reaction = _bind_field(cfg)
    initial = PhaseState(t=0.0, x=cfg.x0.copy(), v=cfg.v0.copy())

    error = report = None
    try:
        traj = integrate(field, cfg.potential, cfg.schedule, initial, cfg.integrator,
                         reaction=reaction)
    except (IntegrationError, ScheduleConsistencyError) as exc:
        # a schedule broken at a kept sample (say t = 0) leaves no trajectory
        traj, error = getattr(exc, "partial", None), str(exc)
    meta = None if traj is None else _trajectory_meta(cfg, traj)
    if error is None:
        # as in integrate, a diverged run's overflows are values to judge, not warnings
        with np.errstate(over="ignore", invalid="ignore"):
            records = [_run_check(check, traj, cfg.potential, cfg.schedule) for check in cfg.checks]
        report = CertificationReport(checks=records, trajectory_meta=meta)
    else:
        error_report = {"scenario": cfg.name, "error": error, "all_passed": False}
        if meta is not None:
            error_report["trajectory"] = _json_safe(meta)

    summary = None if meta is None else render_summary(meta, report, error)
    for fmt, path in paths.items():
        with _writing(path):
            if fmt == "csv" and traj is not None:
                write_trajectory_csv(traj, path)
            elif fmt == "report":
                _write_report_json(path, error_report if report is None else report.to_dict())
            elif fmt == "summary" and summary is not None:
                path.write_text(summary)
    if summary is not None and not quiet:
        print(summary, end="")
    if error is not None:
        # errors are not informational output: always reach stderr
        print(f"integration error: {error}", file=sys.stderr)
        return ScenarioResult(3, traj, None, paths, error=error, meta=meta)
    return ScenarioResult(0 if report.all_passed else 1, traj, report, paths, meta=meta)


# --- sweeps ------------------------------------------------------------------


def _apply_override(raw: dict, dotted: str, value) -> None:
    """Set ``dotted`` in ``raw`` to ``value``, creating absent or null sections;
    a path through any other value that is not a mapping is a ConfigError."""
    *parents, last = dotted.split(".")
    node = raw
    for n, key in enumerate(parents, 1):
        if node.get(key) is None:
            node[key] = {}
        elif not isinstance(node[key], dict):
            raise ConfigError(f"sweep axis '{dotted}': {'.'.join(parents[:n])}: "
                              f"expected a mapping, got {type(node[key]).__name__}")
        node = node[key]
    node[last] = value


def load_sweep_grid(path) -> dict[str, list]:
    """Parse a sweep grid file: mapping ``grid: {dotted.key: [values]}``."""
    node = _Node(load_config_file(path), str(path))
    node.require_known({"grid"})
    grid_node = node.child("grid")
    keys = grid_node.keys()
    if not keys:
        grid_node.fail("grid must contain at least one parameter axis")
    grid: dict[str, list] = {}
    for key in keys:
        vals = grid_node.raw(key)
        if not isinstance(vals, list) or not vals:
            grid_node.fail("each axis needs a nonempty list of values", key)
        grid[key] = vals
    return grid


def sweep_points(base_raw: dict, grid: dict[str, list]) -> list[tuple[dict, dict]]:
    """Cartesian product in sorted-axis order: (overrides, merged raw config)."""
    axes = sorted(grid)
    points = []
    for combo in itertools.product(*(grid[a] for a in axes)):
        overrides = dict(zip(axes, combo))
        merged = copy.deepcopy(base_raw)
        for dotted, value in overrides.items():
            _apply_override(merged, dotted, value)
        points.append((overrides, merged))
    return points


def _sweep_worker(cfg: ScenarioConfig, point: str, overrides: dict, out_dir: Path) -> dict:
    """Run one sweep point; always returns a row dict (never raises)."""
    row = dict(point=point, overrides=overrides, status="ok", termination="", final_energy=math.nan,
               tail_sqrt_friction_speed_sup=math.nan, checks_passed=0, checks_total=0, error="")
    try:
        result = run_scenario(cfg, out_dir, quiet=True)
        meta, report = result.meta, result.report
        row["exit_code"] = result.exit_code
        if meta is not None:
            row.update(termination=meta["termination_reason"], final_energy=meta["final_energy"],
                       tail_sqrt_friction_speed_sup=meta["tail_sqrt_friction_speed_sup"])
        if result.error is not None:
            row["status"] = "integration_error"
            row["error"] = result.error
        elif report is not None:
            row["checks_total"] = len(report.checks)
            row["checks_passed"] = sum(1 for c in report.checks if c.passed)
            if not report.all_passed:
                row["status"] = "check_failure"
    except Exception as exc:  # isolation: a broken point must not kill the sweep
        row.update(status="error", error=f"{type(exc).__name__}: {exc}", exit_code=3)
    return row


# sweep_summary.csv columns after the point and its axes, as the row keys
_SWEEP_COLUMNS = ("status", "termination", "final_energy", "tail_sqrt_friction_speed_sup",
                  "checks_passed", "checks_total", "error")


def run_sweep(base_raw: dict, grid: dict[str, list], out_dir, workers: int = 1,
              quiet: bool = False, source: str = "sweep") -> int:
    """Run every grid point, write per-point artifacts plus aggregate tables.

    Points and every output path are validated up front: a bad axis name, an
    axis through a value that is not a mapping, or a path ``_prepare_outputs``
    refuses raises ConfigError before any point runs. Points run serially or
    on a pool of at most one process per point. Rows are in grid order
    regardless of completion order, so the aggregate files are deterministic.
    Returns the worst exit code across points; a summary file that cannot be
    written raises ConfigError.
    """
    out_dir = Path(out_dir)
    try:
        points = sweep_points(base_raw, grid)
    except ConfigError as exc:
        raise ConfigError(f"{source}: {exc}") from None
    axes = sorted(grid)

    names = [f"point_{idx:03d}" for idx in range(len(points))]
    # Validate before running anything: bad sweep axes fail the whole sweep.
    cfgs = [ScenarioConfig.from_raw(merged, source=f"{source}[{point}]", default_name=point)
            for point, (_, merged) in zip(names, points)]
    dirs = [out_dir / n for n in names]
    summaries = [out_dir / "sweep_summary.csv", out_dir / "sweep_summary.txt"]
    _prepare_outputs([out_dir, *dirs], [*summaries, *(
        path for cfg, d in zip(cfgs, dirs) for path in _artifact_paths(cfg, d).values())])
    jobs = (cfgs, names, [overrides for overrides, _ in points], dirs)
    # a fork pool starts all its processes on the first submit
    workers = min(workers, len(points))
    if workers <= 1:
        rows = list(map(_sweep_worker, *jobs))
    else:
        import concurrent.futures  # only a pooled sweep pays for this import

        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_sweep_worker, *jobs))

    with _writing(summaries[0]) as path, open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["point", *axes, *_SWEEP_COLUMNS])
        for row in rows:
            writer.writerow([row["point"], *(row["overrides"][a] for a in axes),
                             *(row[c] for c in _SWEEP_COLUMNS)])

    text_lines = [f"{'point':<10} {'status':<18} {'termination':<12} "
                  f"{'final_E':>14} {'tail sqrt(lam)|v|':>18}  overrides"]
    for row in rows:
        text_lines.append(
            f"{row['point']:<10} {row['status']:<18} {row['termination']:<12} "
            f"{row['final_energy']:>14.6g} {row['tail_sqrt_friction_speed_sup']:>18.6g}  "
            + ", ".join(f"{a}={row['overrides'][a]}" for a in axes)
        )
    with _writing(summaries[1]) as path:
        path.write_text("\n".join(text_lines) + "\n")
    if not quiet:
        print("\n".join(text_lines))

    return max((row["exit_code"] for row in rows), default=0)


# --- command line ------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hbft",
        description="Simulate and certify heavy-ball dynamics with time-dependent friction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out-dir", help=f"output directory (default: config, then ${OUT_DIR_ENV}, then ./hbft_out)")
    common.add_argument("--quiet", action="store_true", help="suppress stdout summary")

    p_sim = sub.add_parser("simulate", parents=[common], help="run one scenario config")
    p_sim.add_argument("config", help="scenario YAML file")

    p_sweep = sub.add_parser("sweep", parents=[common], help="run a parameter grid over a scenario")
    p_sweep.add_argument("config", help="base scenario YAML file")
    p_sweep.add_argument("--grid", required=True, help="grid YAML file (grid: {dotted.key: [values]})")
    p_sweep.add_argument("--workers", type=int, default=1,
                         help="process pool size (default 1: run serially)")

    p_val = sub.add_parser("validate", help="parse and validate a scenario config")
    p_val.add_argument("config", help="scenario YAML file")

    sub.add_parser("list-potentials", help="list builtin potentials")
    sub.add_parser("list-schedules", help="list builtin friction schedules")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command in _CATALOGUES:
            for name, desc in _CATALOGUES[args.command]():
                print(f"{name:<24} {desc}")
            return 0
        cfg = ScenarioConfig.from_raw(load_config_file(args.config), source=args.config,
                                      default_name=Path(args.config).stem)
        if args.command == "validate":
            print(f"config OK: scenario '{cfg.name}' ({cfg.model}, potential {cfg.potential.name}, "
                  f"schedule {cfg.schedule.name})")
            return 0
        out_dir = Path(args.out_dir or cfg.out_dir or os.environ.get(OUT_DIR_ENV) or "hbft_out")
        if args.command == "simulate":
            return run_scenario(cfg, out_dir, quiet=args.quiet).exit_code
        if args.workers < 1:
            raise ConfigError(f"--workers must be >= 1, got {args.workers}")
        return run_sweep(cfg.raw, load_sweep_grid(args.grid), out_dir, workers=args.workers,
                         quiet=args.quiet, source=args.config)
    except ConfigError as exc:
        # a message may quote the offending value, which a config can make as long as it likes
        message, width = str(exc), 500
        if len(message) > width:
            message = f"{message[:width]}... ({len(message) - width} more characters)"
        print(f"config error: {message}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
