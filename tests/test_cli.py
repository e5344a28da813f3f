"""Scenario runner end to end: config validation with anchored messages,
output files, exit codes, sweeps, and the deliberate refusal."""

from __future__ import annotations

import concurrent.futures
import contextlib
import copy
import csv
import errno
import hashlib
import json
import math
import os
import platform
import signal
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import hbft
from hbft import StepStats, Trajectory
from hbft.cli import (
    _CSV_ARRAY_CELLS,
    _CSV_BLOCK_ROWS,
    _alias_surplus,
    OUT_DIR_ENV,
    ScenarioConfig,
    _run_check,
    csv_header,
    load_config_file,
    load_sweep_grid,
    main,
    run_scenario,
    run_sweep,
    strip_line_markers,
    sweep_points,
    write_trajectory_csv,
)
from hbft.errors import ConfigError
from hbft.friction import FrictionSchedule
from hbft.integrate import _Recorder
from hbft.potentials import gradient_rows

from conftest import REPO_ROOT, SCENARIO_DIR, SWEEP_DIR, bundled_scenario_paths


def run_hbft(*args: str) -> subprocess.CompletedProcess:
    """``python -m hbft <args>`` in a child that imports the hbft under test."""
    paths = [str(Path(hbft.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    return subprocess.run([sys.executable, "-m", "hbft", *args],
                          capture_output=True, text=True, timeout=60, env=env)


def write_yaml(path: Path, payload: dict) -> Path:
    path.write_text(yaml.safe_dump(payload, sort_keys=False))
    return path


@pytest.fixture()
def scenario_file(tmp_path: Path, scenario_raw: dict) -> Path:
    return write_yaml(tmp_path / "unit.yaml", scenario_raw)


# ------------------------------------------------------------- validation


def test_validate_accepts_every_bundled_scenario(capsys):
    for path in bundled_scenario_paths():
        assert main(["validate", str(path)]) == 0
    out = capsys.readouterr().out
    assert "ok" in out.lower()


def test_wrong_dimension_anchored_to_field(tmp_path, scenario_raw, capsys):
    scenario_raw["initial"]["x0"] = [1.0, 2.0]
    path = write_yaml(tmp_path / "bad_dim.yaml", scenario_raw)
    code = main(["validate", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "initial.x0" in err
    assert "bad_dim.yaml" in err


@pytest.mark.parametrize("key, vec", [
    ("x0", [math.inf]), ("v0", [-math.inf]), ("x0", [math.nan]),
    ("x0", ["1e999"]),  # a numeric string the loader coerces to inf
])
def test_non_finite_start_anchored_to_field(tmp_path, scenario_raw, capsys, key, vec):
    scenario_raw["initial"][key] = vec
    path = write_yaml(tmp_path / "bad_start.yaml", scenario_raw)
    assert main(["validate", str(path)]) == 2
    err = capsys.readouterr().err
    assert "bad_start.yaml:" in err and f"initial.{key}" in err and "finite" in err


def test_sweep_point_with_non_finite_start_fails_up_front(tmp_path, scenario_raw, capsys):
    base = write_yaml(tmp_path / "base.yaml", scenario_raw)
    grid = write_yaml(tmp_path / "grid.yaml", {"grid": {"initial.x0": [[1.0], [math.inf]]}})
    out = tmp_path / "out"
    assert main(["sweep", str(base), "--grid", str(grid), "--out-dir", str(out), "--quiet"]) == 2
    assert "initial.x0" in capsys.readouterr().err
    assert not list(out.rglob("*.csv"))


@pytest.mark.parametrize("text, line", [
    ("{1: a, foo: b}\n", 1),  # a root key
    ("name: x\npotential:\n  name: quadratic\n  params: {dim: 1, 2: 3}\n", 4),
    ("name: x\ntrue: 1\n", 2),
], ids=["root", "params", "bool"])
def test_non_string_key_is_a_config_error(tmp_path, capsys, text, line):
    path = tmp_path / "keys.yaml"
    path.write_text(text)
    assert main(["validate", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"keys.yaml:{line}:" in err and "keys must be strings" in err


def test_non_string_grid_axis_is_a_config_error(tmp_path, scenario_raw, capsys):
    base = write_yaml(tmp_path / "base.yaml", scenario_raw)
    grid = tmp_path / "grid.yaml"
    grid.write_text("grid:\n  1: [1.0]\n")
    assert main(["sweep", str(base), "--grid", str(grid), "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "grid.yaml:2:" in err and "keys must be strings" in err


@pytest.mark.parametrize("which", ["config", "grid"])
def test_file_that_is_not_utf8_is_a_config_error(tmp_path, scenario_raw, capsys, which):
    base = write_yaml(tmp_path / "base.yaml", scenario_raw)
    grid = write_yaml(tmp_path / "grid.yaml", {"grid": {"schedule.params.value": [1.0]}})
    bad = base if which == "config" else grid
    bad.write_bytes(bad.read_bytes() + b"# caf\xe9\n")
    n_lines = bad.read_bytes().count(b"\n")
    assert main(["sweep", str(base), "--grid", str(grid), "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"{bad.name}:{n_lines}: not valid UTF-8" in err


def test_unknown_key_rejected(tmp_path, scenario_raw, capsys):
    scenario_raw["integrator"]["stepsize"] = 1e-3
    path = write_yaml(tmp_path / "typo.yaml", scenario_raw)
    assert main(["validate", str(path)]) == 2
    assert "stepsize" in capsys.readouterr().err


def test_yaml_syntax_error_reports_line(tmp_path, capsys):
    path = tmp_path / "broken.yaml"
    path.write_text("name: x\n  bad indent: [\n")
    assert main(["validate", str(path)]) == 2
    err = capsys.readouterr().err
    assert "broken.yaml" in err


@pytest.mark.parametrize("which", ["config", "grid"])
def test_yaml_nested_past_the_parser_recursion_is_a_config_error(tmp_path, scenario_raw, which):
    # the parser recurses once per level: 3,000 levels pass any default recursion limit
    deep = "[" * 3000 + "1" + "]" * 3000
    scenario_raw["potential"]["params"]["dim"] = "DEEP" if which == "config" else 1
    base = tmp_path / "base.yaml"
    base.write_text(yaml.safe_dump(scenario_raw, sort_keys=False).replace("DEEP", deep))
    grid = tmp_path / "grid.yaml"
    grid.write_text(f"grid:\n  potential.params.dim: [{deep if which == 'grid' else 2}]\n")
    proc = run_hbft("sweep", str(base), "--grid", str(grid), "--out-dir", str(tmp_path / "out"))
    bad = base if which == "config" else grid
    assert proc.returncode == 2 and "Traceback" not in proc.stderr
    assert proc.stderr == f"config error: {bad}: nested deeper than the YAML parser can read\n"


_ALIAS_ERROR = "YAML aliases repeat more than 100,000 values; write the values out"


def _alias_chain(depth: int) -> str:
    """A flow list of ``depth`` + 1 anchored lists, each two aliases of the
    one before: the last stands for 2^(depth + 1) numbers."""
    levels = ["&l0 [1, 1]"] + [f"&l{i} [*l{i - 1}, *l{i - 1}]" for i in range(1, depth + 1)]
    return "[" + ", ".join(levels) + "]"


@pytest.mark.parametrize("which", ["config", "grid"])
def test_yaml_aliases_that_repeat_exponentially_are_a_config_error(tmp_path, scenario_raw, which):
    # 40 levels read in full would be 2^42 numbers; 19 took 4 s and 224 MB
    chain = _alias_chain(40)
    scenario_raw["potential"] = {"name": "anisotropic_quadratic",
                                 "params": {"diag": "CHAIN" if which == "config" else [1.0]}}
    base = tmp_path / "base.yaml"
    base.write_text(yaml.safe_dump(scenario_raw, sort_keys=False).replace("CHAIN", chain))
    grid = tmp_path / "grid.yaml"
    grid.write_text(f"grid:\n  potential.params.diag: {chain if which == 'grid' else '[[2.0]]'}\n")
    proc = run_hbft("sweep", str(base), "--grid", str(grid), "--out-dir", str(tmp_path / "out"))
    bad = base if which == "config" else grid
    assert proc.returncode == 2 and "Traceback" not in proc.stderr
    assert proc.stderr == f"config error: {bad}: {_ALIAS_ERROR}\n"


def test_yaml_list_that_holds_itself_is_a_config_error(tmp_path, capsys):
    # its copy without line markers used to recurse until Python gave up
    path = tmp_path / "itself.yaml"
    path.write_text(_pure_damping_with("  stop: {dwell: &d [1.0, *d]}\n"))
    assert main(["validate", str(path)]) == 2
    assert capsys.readouterr().err == f"config error: {path}: {_ALIAS_ERROR}\n"


def test_yaml_aliases_that_repeat_a_few_values_load(tmp_path, capsys):
    path = tmp_path / "shared.yaml"
    path.write_text("name: shared\nmodel: hbft\n"
                    "potential: {name: anisotropic_quadratic, params: {diag: [1.0, 4.0]}}\n"
                    "schedule: {name: constant, params: {value: 1.0}}\n"
                    "initial: {x0: &x0 [1.0, -0.5], v0: *x0}\n"
                    "integrator: {method: rk4, step: 1.0e-2, t_max: 1.0}\n"
                    "checks: [&vb {name: velocity_bound}, {<<: *vb, name: energy_monotone}]\n")
    assert main(["validate", str(path)]) == 0
    raw = strip_line_markers(load_config_file(path))
    assert raw["initial"]["v0"] == [1.0, -0.5] and raw["checks"][1] == {"name": "energy_monotone"}
    # only repeats count: a literal list of any length is read once
    assert _alias_surplus({"diag": [1.0] * 200_000, "__line__": 1}) == 0


def test_numeric_strings_coerced(tmp_path, scenario_raw):
    # pyyaml parses a bare 1e-3 as a string; the loader must still accept it
    scenario_raw["integrator"]["step"] = "1e-3"
    path = write_yaml(tmp_path / "bare_float.yaml", scenario_raw)
    assert main(["validate", str(path)]) == 0


def test_catalogue_params_are_not_coerced(tmp_path, capsys):
    # the factory gets schedule.params as written: a bare 1e-1 is a string
    path = tmp_path / "bare.yaml"
    path.write_text("name: bare\n"
                    "model: hbft\n"
                    "potential: {name: quadratic, params: {dim: 1}}\n"
                    "schedule: {name: constant, params: {value: 1e-1}}\n"
                    "initial: {x0: [1.0], v0: [0.0]}\n"
                    "integrator: {method: rk4, step: 1.0e-2, t_max: 1.0}\n")
    out = tmp_path / "out"
    assert main(["simulate", str(path), "--out-dir", str(out)]) == 2
    stdout, err = capsys.readouterr()
    assert stdout == "" and not out.exists()
    assert err.startswith(f"config error: {path}:4: schedule: bad parameters for schedule "
                          "'constant': ") and err.count("\n") == 1


def test_potential_too_large_to_allocate_is_a_config_error(tmp_path, scenario_raw):
    # quadratic allocates its critical point, np.zeros(dim): 72.8 TiB here
    scenario_raw["potential"]["params"]["dim"] = 10_000_000_000_000
    path = write_yaml(tmp_path / "huge.yaml", scenario_raw)
    proc = run_hbft("validate", str(path))
    assert proc.returncode == 2 and "Traceback" not in proc.stderr
    assert proc.stderr.startswith(f"config error: {path}:4: potential: quadratic: out of memory: ")


@pytest.mark.parametrize("old, new, says", [
    ("params: {dim: 1}", "params: {dim: " + "[" * 400 + "1" + "]" * 400 + "}",
     "potential: flat: dim must be a whole number >= 1, got [[["),
    ("name: flat", "name: " + "a" * 5000, "potential: unknown potential 'aaa"),
], ids=["nested_dim", "long_name"])
def test_config_error_quotes_a_long_value_to_a_fixed_width(tmp_path, capsys, old, new, says):
    path = tmp_path / "long.yaml"
    path.write_text((SCENARIO_DIR / "pure_damping.yaml").read_text().replace(old, new))
    assert main(["validate", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {path}:8: {says}") and err.count("\n") == 1
    assert len(err) <= 600 and err.endswith(" more characters)\n")


def test_unbounded_potential_refused_for_certification(tmp_path, scenario_raw, capsys):
    scenario_raw["potential"] = {"name": "tilted_plane", "params": {"slope": [1.0]}}
    path = write_yaml(tmp_path / "tilted.yaml", scenario_raw)
    assert main(["validate", str(path)]) == 2
    err = capsys.readouterr().err
    assert "certification refused" in err
    assert "unbounded below" in err


def test_unbounded_potential_allowed_without_checks(tmp_path, scenario_raw):
    scenario_raw["potential"] = {"name": "tilted_plane", "params": {"slope": [1.0]}}
    scenario_raw["checks"] = []
    scenario_raw["integrator"]["stop"] = {"divergence_radius": 5.0}
    path = write_yaml(tmp_path / "tilted_ok.yaml", scenario_raw)
    assert main(["validate", str(path)]) == 0


def test_velocity_bound_requires_floor(tmp_path, scenario_raw, capsys):
    scenario_raw["potential"] = {"name": "tilted_plane", "params": {"slope": [1.0]}}
    scenario_raw["checks"] = [{"name": "velocity_bound"}]
    path = write_yaml(tmp_path / "vb.yaml", scenario_raw)
    assert main(["validate", str(path)]) == 2
    assert "certification refused" in capsys.readouterr().err


def test_full_surface_requires_mechanical_section(tmp_path, scenario_raw, capsys):
    scenario_raw["model"] = "full_surface"
    path = write_yaml(tmp_path / "fs.yaml", scenario_raw)
    assert main(["validate", str(path)]) == 2
    assert "mechanical" in capsys.readouterr().err


def test_mechanical_type_error_anchored_once(tmp_path, scenario_raw, capsys):
    scenario_raw["mechanical"] = {"gravity": True}
    path = write_yaml(tmp_path / "mech.yaml", scenario_raw)
    assert main(["validate", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.count("mech.yaml:") == 1
    assert "mechanical.gravity: expected a number, got a boolean" in err


# check -> (required keys, optional keys): the checks grammar of the README
CHECK_GRAMMAR = {
    "energy_monotone": ([], ["tol"]),
    "energy_balance": ([], ["threshold"]),
    "velocity_bound": ([], ["tol"]),
    "tail_asymptotics": ([], ["tail_fraction", "threshold"]),
    "barbalat_sqrt_friction_speed": (
        ["dot_budget", "l2_budget", "linf_budget"], ["tail_fraction", "tail_threshold"]
    ),
    "acceleration_bound": ([], ["bound"]),
    "friction_bounded": ([], ["bound_guess", "grid_points", "horizon", "t1_guess"]),
}


@pytest.mark.parametrize("name", sorted(CHECK_GRAMMAR))
def test_check_grammar(tmp_path, scenario_raw, capsys, name):
    required, optional = CHECK_GRAMMAR[name]
    # t1_guess stays below the horizon (0.5) it is given here
    valid = {key: {"grid_points": 3, "t1_guess": 0.25}.get(key, 0.5) for key in [*required, *optional]}
    minimal = {"name": name, **{key: valid[key] for key in required}}
    variants = {
        "minimal": ([minimal], 0),
        "full": ([{**minimal, **valid}], 0),
        "unknown": ([{**minimal, "no_such_key": 1.0}], 2),
    }
    for key in required:
        variants[f"no_{key}"] = ([{k: v for k, v in minimal.items() if k != key}], 2)
    errors = {}
    for label, (checks, code) in variants.items():
        scenario_raw["checks"] = checks
        path = write_yaml(tmp_path / f"{label}.yaml", scenario_raw)
        assert main(["validate", str(path)]) == code, label
        errors[label] = capsys.readouterr().err
    allowed = sorted(["name", *required, *optional])
    assert f"checks[0]: unknown keys ['no_such_key']; allowed keys: {allowed}\n" in errors["unknown"]
    for key in required:
        assert f"checks[0].{key}: required number is missing\n" in errors[f"no_{key}"]


def test_fractional_grid_points_is_config_error(tmp_path, scenario_raw, capsys):
    scenario_raw["checks"] = [{"name": "friction_bounded", "grid_points": 2.9}]
    path = write_yaml(tmp_path / "grid.yaml", scenario_raw)
    out = tmp_path / "out"
    for argv in (["validate", str(path)], ["simulate", str(path), "--out-dir", str(out)]):
        assert main(argv) == 2
        assert "checks[0].grid_points: expected an integer, got 2.9\n" in capsys.readouterr().err
    assert not out.exists()


# (check, key, out-of-range value, the rule the message states)
OUT_OF_RANGE = [
    ("energy_monotone", "tol", -1.0, ">= 0"),
    ("energy_monotone", "tol", float("nan"), ">= 0"),
    ("energy_balance", "threshold", -1e-9, ">= 0"),
    ("velocity_bound", "tol", -1e-8, ">= 0"),
    ("tail_asymptotics", "threshold", -1.0, ">= 0"),
    ("tail_asymptotics", "tail_fraction", 0.0, "in (0, 1)"),
    ("tail_asymptotics", "tail_fraction", 1.0, "in (0, 1)"),
    ("barbalat_sqrt_friction_speed", "l2_budget", 0.0, "> 0"),
    ("barbalat_sqrt_friction_speed", "linf_budget", -1.5, "> 0"),
    ("barbalat_sqrt_friction_speed", "dot_budget", 0.0, "> 0"),
    ("barbalat_sqrt_friction_speed", "tail_threshold", -1e-5, ">= 0"),
    ("barbalat_sqrt_friction_speed", "tail_fraction", 1.5, "in (0, 1)"),
    ("acceleration_bound", "bound", -10.0, ">= 0"),
    ("friction_bounded", "bound_guess", -1.0, ">= 0"),
    ("friction_bounded", "t1_guess", -0.5, ">= 0"),
    # the horizon defaults to integrator.t_max, 0.5 here
    ("friction_bounded", "t1_guess", 0.5, "< horizon (0.5)"),
    ("friction_bounded", "t1_guess", 5.0, "< horizon (0.5)"),
    ("friction_bounded", "horizon", 0.0, "> 0 and finite"),
    ("friction_bounded", "horizon", math.inf, "> 0 and finite"),
    ("friction_bounded", "grid_points", 1, ">= 2"),
]


@pytest.mark.parametrize("check, key, value, rule", OUT_OF_RANGE)
def test_check_value_out_of_range_is_config_error(tmp_path, scenario_raw, capsys,
                                                  check, key, value, rule):
    budgets = {"l2_budget": 10.0, "linf_budget": 1.5, "dot_budget": 1.5}
    entry = {"name": check, **(budgets if check.startswith("barbalat") else {}), key: value}
    scenario_raw["checks"] = [{"name": "energy_monotone"}, entry]
    path = write_yaml(tmp_path / "range.yaml", scenario_raw)
    assert main(["simulate", str(path), "--out-dir", str(tmp_path / "out")]) == 2
    # the message is anchored at the line of the second checks entry
    line = [n for n, text in enumerate(path.read_text().splitlines(), 1) if "- name: " in text][1]
    assert capsys.readouterr().err == (
        f"config error: {path}:{line}: checks[1].{key}: must be {rule}, got {value!r}\n"
    )


def test_check_values_at_range_edges_are_accepted(tmp_path, scenario_raw):
    scenario_raw["checks"] = [
        {"name": "energy_monotone", "tol": 0.0},
        {"name": "acceleration_bound", "bound": 0},
        {"name": "friction_bounded", "t1_guess": 0.0, "bound_guess": 0.0, "grid_points": 2},
    ]
    path = write_yaml(tmp_path / "edges.yaml", scenario_raw)
    assert main(["validate", str(path)]) == 0


# A valid scenario, one section a line, so each refusal below has a known line.
_SECTIONS = {
    "name": "unit",
    "model": "hbft",
    "potential": "{name: quadratic, params: {dim: 1}}",
    "schedule": "{name: constant, params: {value: 1.0}}",
    "initial": "{x0: [1.0], v0: [0.0]}",
    "integrator": "{method: rk4, step: 1.0e-3, t_max: 0.5}",
    "checks": "[{name: energy_monotone}]",
}


def _scenario_text(**sections) -> str:
    """``_SECTIONS`` with ``sections`` replaced or appended (from line 8); None drops one."""
    merged = {**_SECTIONS, **sections}
    return "".join(f"{key}: {text}\n" for key, text in merged.items() if text is not None)


def _integrator(keys: str) -> str:
    """``_SECTIONS`` with the integrator section ``{keys}``, on line 6."""
    return _scenario_text(integrator=f"{{{keys}}}")


_GRID = "grid: {schedule.params.value: [1.0]}\n"

# refusal -> (config text, grid text or None to only validate, extra sweep flags,
#             the stderr line after "config error: ")
LOADER_REFUSALS = {
    "root_not_a_mapping": ("- 1\n", None, [], "{config}: config root must be a mapping"),
    "missing_section": (_scenario_text(initial=None), None, [],
                        "{config}:1: initial: required section is missing"),
    "section_not_a_mapping": (_scenario_text(integrator="5"), None, [],
                              "{config}:1: integrator: expected a mapping, got int"),
    "x0_scalar": (_scenario_text(initial="{x0: 1.0, v0: [0.0]}"), None, [],
                  "{config}:5: initial.x0: expected a nonempty list of numbers, got 1.0"),
    "x0_empty": (_scenario_text(initial="{x0: [], v0: [0.0]}"), None, [],
                 "{config}:5: initial.x0: expected a nonempty list of numbers, got []"),
    "unknown_model": (_scenario_text(model="foo"), None, [],
                      "{config}:1: model: model must be 'hbft' or 'full_surface', got 'foo'"),
    "no_formats": (_scenario_text(outputs="{formats: []}"), None, [],
                   "{config}:8: outputs.formats: expected a nonempty list of formats"),
    "unknown_format": (_scenario_text(outputs="{formats: [pdf]}"), None, [],
                       "{config}:8: outputs.formats: unknown formats ['pdf']; "
                       "allowed: ['csv', 'report', 'summary']"),
    "params_not_a_mapping": (_scenario_text(potential="{name: quadratic, params: [1]}"), None, [],
                             "{config}:3: potential.params: expected a mapping of factory parameters"),
    "negative_mass": (_scenario_text(mechanical="{mass: -1}"), None, [],
                      "{config}:8: mechanical: mass must be positive and finite, got -1.0"),
    "contact_loss_on_reduced_model": (
        _scenario_text(integrator="{method: rk4, step: 1.0e-3, t_max: 0.5, "
                                  "stop: {halt_on_contact_loss: true}}"), None, [],
        "{config}:6: integrator.stop: halt_on_contact_loss needs the full_surface model "
        "(the reduced model has no reaction force)"),
    "checks_not_a_list": (_scenario_text(checks="5"), None, [],
                          "{config}:1: checks: expected a list of check entries"),
    "check_not_a_mapping": (_scenario_text(checks="[5]"), None, [],
                            "{config}:1: checks: entry 0 must be a mapping with a 'name'"),
    "unknown_check": (_scenario_text(checks="[{name: nope}]"), None, [],
                      f"{{config}}:7: checks[0].name: unknown check 'nope'; "
                      f"known checks: {sorted(CHECK_GRAMMAR)}"),
    "null_required_check_key": (
        _scenario_text(checks="[{name: barbalat_sqrt_friction_speed, l2_budget: ~, "
                              "linf_budget: 1.5, dot_budget: 1.5}]"), None, [],
        "{config}:7: checks[0].l2_budget: required number is missing"),
    "empty_grid": (_scenario_text(), "grid: {}\n", [],
                   "{grid}:1: grid: grid must contain at least one parameter axis"),
    "axis_not_a_list": (_scenario_text(), "grid: {schedule.params.value: 1.0}\n", [],
                        "{grid}:1: grid.schedule.params.value: each axis needs a nonempty list of values"),
    "axis_through_a_list": (_scenario_text(), "grid: {checks.0.tol: [1.0e-3]}\n", [],
                            "{config}: sweep axis 'checks.0.tol': checks: expected a mapping, got list"),
    "axis_through_a_list_of_numbers": (
        _scenario_text(), "grid: {initial.x0.0: [2.0]}\n", [],
        "{config}: sweep axis 'initial.x0.0': initial.x0: expected a mapping, got list"),
    "axis_through_a_number": (
        _scenario_text(), "grid: {integrator.step.size: [1.0]}\n", [],
        "{config}: sweep axis 'integrator.step.size': integrator.step: expected a mapping, got float"),
    "zero_workers": (_scenario_text(), _GRID, ["--workers", "0"], "--workers must be >= 1, got 0"),
    # IntegratorConfig's refusals, anchored at the integrator section
    "rk4_without_step": (_integrator("method: rk4, t_max: 0.5"), None, [],
                         "{config}:6: integrator: rk4 needs a positive fixed step, got None"),
    "zero_abs_tol": (_integrator("method: dopri45, abs_tol: 0, t_max: 0.5"), None, [],
                     "{config}:6: integrator: tolerances must be positive, got abs_tol=0.0, rel_tol=1e-08"),
    "negative_rel_tol": (_integrator("method: dopri45, rel_tol: -1.0e-8, t_max: 0.5"), None, [],
                         "{config}:6: integrator: tolerances must be positive, got abs_tol=1e-08, "
                         "rel_tol=-1e-08"),
    "h_min_above_h_max": (_integrator("method: dopri45, h_min: 0.2, h_max: 0.1, t_max: 0.5"), None, [],
                          "{config}:6: integrator: need 0 < h_min <= h_max, got h_min=0.2, h_max=0.1"),
    "zero_t_max": (_integrator("method: rk4, step: 1.0e-3, t_max: 0"), None, [],
                   "{config}:6: integrator: t_max must be positive and finite, got 0.0"),
    "infinite_t_max": (_integrator("method: rk4, step: 1.0e-3, t_max: .inf"), None, [],
                       "{config}:6: integrator: t_max must be positive and finite, got inf"),
    "zero_sample_stride": (_integrator("method: rk4, step: 1.0e-3, t_max: 0.5, sample_stride: 0"), None, [],
                           "{config}:6: integrator: sample_stride must be >= 1, got 0"),
    "zero_sample_dt": (_integrator("method: rk4, step: 1.0e-3, t_max: 0.5, sample_dt: 0"), None, [],
                       "{config}:6: integrator: sample_dt must be positive, got 0.0"),
    "sample_dt_and_stride": (
        _integrator("method: rk4, step: 1.0e-3, t_max: 0.5, sample_dt: 0.1, sample_stride: 2"), None, [],
        "{config}:6: integrator: sample_dt and sample_stride are mutually exclusive"),
    "zero_max_steps": (_integrator("method: rk4, step: 1.0e-3, t_max: 0.5, max_steps: 0"), None, [],
                       "{config}:6: integrator: max_steps must be >= 1, got 0"),
    # StopCondition's refusals
    "zero_stationarity_tol": (
        _integrator("method: rk4, step: 1.0e-3, t_max: 0.5, stop: {stationarity_tol: 0}"), None, [],
        "{config}:6: integrator.stop: stationarity_tol must be positive, got 0.0"),
    "negative_dwell": (_integrator("method: rk4, step: 1.0e-3, t_max: 0.5, stop: {dwell: -1}"), None, [],
                       "{config}:6: integrator.stop: dwell must be positive, got -1.0"),
    "zero_divergence_radius": (
        _integrator("method: rk4, step: 1.0e-3, t_max: 0.5, stop: {divergence_radius: 0}"), None, [],
        "{config}:6: integrator.stop: divergence_radius must be positive, got 0.0"),
    "list_for_a_number": (_integrator("method: rk4, step: [1], t_max: 0.5"), None, [],
                          "{config}:6: integrator.step: expected a number, got [1]"),
}


@pytest.mark.parametrize("config, grid, flags, message", LOADER_REFUSALS.values(),
                         ids=list(LOADER_REFUSALS))
def test_loader_refusal_is_an_anchored_config_error(tmp_path, capsys, config, grid, flags, message):
    config_path, grid_path = tmp_path / "scenario.yaml", tmp_path / "grid.yaml"
    config_path.write_text(config)
    argv = ["validate", str(config_path)]
    if grid is not None:
        grid_path.write_text(grid)
        argv = ["sweep", str(config_path), "--grid", str(grid_path),
                "--out-dir", str(tmp_path / "out"), "--quiet", *flags]
    assert main(argv) == 2
    expected = message.format(config=config_path, grid=grid_path)
    assert capsys.readouterr().err == f"config error: {expected}\n"
    assert not (tmp_path / "out").exists()


def test_null_optional_check_key_takes_the_default(tmp_path, scenario_raw):
    # as for the integrator, stop and mechanical keys: null means "use the default"
    reports = {}
    for label, entry in {"omitted": {}, "null": {"tol": None}}.items():
        scenario_raw["checks"] = [{"name": "energy_monotone", **entry}]
        path = write_yaml(tmp_path / f"{label}.yaml", scenario_raw)
        assert main(["simulate", str(path), "--out-dir", str(tmp_path / label), "--quiet"]) == 0
        reports[label] = (tmp_path / label / "unit.report.json").read_bytes()
    assert reports["null"] == reports["omitted"]


def test_readme_scenario_block_is_valid():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    start = readme.index("```yaml\n", readme.index("## Scenario files")) + len("```yaml\n")
    block = readme[start:readme.index("```\n", start)]
    cfg = ScenarioConfig.from_raw(yaml.safe_load(block), source="README.md")
    assert [c["name"] for c in cfg.checks] == list(CHECK_GRAMMAR)


# --------------------------------------------------------------- simulate


def test_simulate_writes_all_outputs(tmp_path, scenario_file, capsys):
    out = tmp_path / "out"
    assert main(["simulate", str(scenario_file), "--out-dir", str(out)]) == 0
    assert (out / "unit.csv").exists()
    assert (out / "unit.report.json").exists()
    assert (out / "unit.summary.txt").exists()
    stdout = capsys.readouterr().out
    assert "overall: PASS" in stdout
    report = json.loads((out / "unit.report.json").read_text())
    assert report["all_passed"] is True
    assert report["checks"][0]["check_name"] == "energy_monotone"


def test_simulate_writes_only_the_requested_formats(tmp_path, scenario_raw, capsys):
    scenario_raw["outputs"] = {"formats": ["report"]}
    path = write_yaml(tmp_path / "unit.yaml", scenario_raw)
    out = tmp_path / "out"
    assert main(["simulate", str(path), "--out-dir", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["unit.report.json"]
    assert "overall: PASS" in capsys.readouterr().out


def test_friction_bounded_holds_a_constant_schedule_continuous_over_a_very_long_horizon(tmp_path, scenario_raw):
    scenario_raw["checks"] = [{"name": "friction_bounded", "horizon": 1.0e308, "grid_points": 2}]
    out = tmp_path / "out"
    assert main(["simulate", str(write_yaml(tmp_path / "unit.yaml", scenario_raw)), "--out-dir", str(out),
                 "--quiet"]) == 0
    check = json.loads((out / "unit.report.json").read_text())["checks"][0]
    assert check["details"]["continuity_ok"] is True and check["passed"] is True


def test_simulate_quiet_silences_stdout(tmp_path, scenario_file, capsys):
    out = tmp_path / "out"
    assert main(["simulate", str(scenario_file), "--out-dir", str(out), "--quiet"]) == 0
    assert capsys.readouterr().out == ""


def test_csv_column_contract(tmp_path, scenario_raw):
    scenario_raw["name"] = "dim2"
    scenario_raw["potential"] = {"name": "quadratic", "params": {"dim": 2}}
    scenario_raw["initial"] = {"x0": [1.0, 0.0], "v0": [0.0, 1.0]}
    path = write_yaml(tmp_path / "dim2.yaml", scenario_raw)
    out = tmp_path / "out"
    assert main(["simulate", str(path), "--out-dir", str(out), "--quiet"]) == 0
    with (out / "dim2.csv").open(newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "x_0", "x_1", "v_0", "v_1", "E", "lambda", "grad_norm", "dissipation"]
    assert float(rows[1][0]) == 0.0
    assert all(len(r) == 9 for r in rows[1:])


def _reference_csv(traj: Trajectory, path: Path) -> None:
    """The trajectory CSV written one csv.writer row per sample."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(csv_header(traj.dim))
        for k in range(traj.n_samples):
            row = [repr(float(traj.t[k]))]
            row += [repr(float(val)) for val in traj.x[k]]
            row += [repr(float(val)) for val in traj.v[k]]
            row += [repr(float(col[k])) for col in
                    (traj.energy, traj.lam, traj.grad_norm, traj.dissipation)]
            writer.writerow(row)


_AWKWARD_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -2.5e-310, 1e300, 0.1]


def _rows_for(where: str, dim: int) -> int:
    """A row count that puts a block just below or at the cell count from
    which floattext formats it, or at the block size."""
    line = -(-_CSV_ARRAY_CELLS // (2 * dim + 5))  # rows of the first block at the line
    return {"empty": 0, "one": 1, "below": line - 1, "at": line, "block-1": _CSV_BLOCK_ROWS - 1,
            "block": _CSV_BLOCK_ROWS, "block+1": _CSV_BLOCK_ROWS + 1}[where]


@settings(max_examples=60, deadline=None)
@given(
    dim=st.integers(1, 3),
    where=st.sampled_from(["empty", "one", "below", "at", "block-1", "block", "block+1"]),
    pool=st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1, max_size=20),
    seed=st.integers(0, 2**32 - 1),
    kinds=st.tuples(*[st.sampled_from(["float64", "same", "float32", "int"])] * 4),
)
def test_csv_matches_per_row_csv_writer(tmp_path_factory, dim, where, pool, seed, kinds):
    # every cell drawn from hypothesis floats plus the awkward ones; E, lambda,
    # grad_norm and dissipation may hold one value, float32 or int cells
    rng = np.random.default_rng(seed)
    rows = _rows_for(where, dim)
    draw = lambda *shape: rng.choice(np.array(pool + _AWKWARD_FLOATS), size=shape)  # noqa: E731
    columns = []
    for kind in kinds:
        col = draw(rows)
        if kind == "same":
            col = np.full(rows, col[0] if rows else 0.0)
        elif kind == "float32":
            with np.errstate(over="ignore"):
                col = col.astype(np.float32)
        elif kind == "int":
            col = rng.integers(-(2**53), 2**53, rows)
        columns.append(col)
    energy, lam, grad_norm, dissipation = columns
    traj = Trajectory(
        t=draw(rows), x=draw(rows, dim), v=draw(rows, dim), energy=energy, lam=lam,
        grad_norm=grad_norm, dissipation=dissipation, termination_reason="t_max",
        step_stats=StepStats(accepted=rows, rejected=0, smallest_step=0.1, largest_step=0.1),
    )
    out = tmp_path_factory.mktemp("csv")
    write_trajectory_csv(traj, out / "fast.csv")
    _reference_csv(traj, out / "reference.csv")
    assert (out / "fast.csv").read_bytes() == (out / "reference.csv").read_bytes()


@pytest.mark.parametrize("rows", [_CSV_BLOCK_ROWS - 1, _CSV_BLOCK_ROWS + 1, 2 * _CSV_BLOCK_ROWS])
@pytest.mark.parametrize("same", [math.nan, -0.0, 0.0, math.inf, -math.inf, 5e-324])
def test_csv_matches_per_row_csv_writer_on_block_constant_columns(tmp_path, rows, same):
    # columns constant over a block, or nearly: each must keep the bytes of
    # one csv.writer row per sample
    k = np.arange(rows)
    const = np.full(rows, same)
    but_last = np.where((k == rows - 1) | (k % _CSV_BLOCK_ROWS == _CSV_BLOCK_ROWS - 1), 1.5, same)
    first_block_only = np.where(k < _CSV_BLOCK_ROWS, same, 0.1 * k)
    signed_zeros = np.where(k % 3 == 0, -0.0, 0.0)
    traj = Trajectory(
        t=(k / 3).astype(np.float32),
        x=np.column_stack([const, signed_zeros]),
        v=np.column_stack([but_last, first_block_only]),
        energy=k // 7,  # an int column
        lam=const,
        grad_norm=np.full(rows, same, dtype=np.float32),
        dissipation=np.ones(rows, dtype=int),
        termination_reason="t_max",
        step_stats=StepStats(accepted=rows, rejected=0, smallest_step=0.1, largest_step=0.1),
    )
    write_trajectory_csv(traj, tmp_path / "fast.csv")
    _reference_csv(traj, tmp_path / "reference.csv")
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


# --- the trajectory CSV formatted on two processes ----------------------------------

_SPLIT_ROWS = 64  # the split threshold these tests set


def _split_traj(rows: int, dim: int = 1, same: float = 0.0, odd_one: int = 0,
                seed: int = 0) -> Trajectory:
    """Rows of varied floats with NaN and +-inf cells; lambda is ``same`` on
    every row but ``odd_one``, where it is -0.0."""
    rng = np.random.default_rng(seed)
    draw = lambda *shape: rng.choice(np.array(_AWKWARD_FLOATS + [2.5, 1 / 3]), size=shape)  # noqa: E731
    lam = np.full(rows, same)
    lam[odd_one:odd_one + 1] = -0.0
    return Trajectory(
        t=np.arange(rows) * 0.1, x=draw(rows, dim), v=draw(rows, dim), energy=draw(rows),
        lam=lam, grad_norm=draw(rows), dissipation=draw(rows), termination_reason="t_max",
        step_stats=StepStats(accepted=rows, rejected=0, smallest_step=0.1, largest_step=0.1),
    )


def _serial_csv(traj: Trajectory, path: Path) -> bytes:
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hbft.cli, "_CSV_SPLIT_ROWS", traj.n_samples + 1)
        write_trajectory_csv(traj, path)
    return path.read_bytes()


def _allow_two_cpus(mp: pytest.MonkeyPatch) -> list[int]:
    """Split from _SPLIT_ROWS rows on, whatever CPUs this host allows; the
    list receives the pid of each child forked."""
    mp.setattr(hbft.cli, "_CSV_SPLIT_ROWS", _SPLIT_ROWS)
    mp.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    forks, fork = [], os.fork

    def counting_fork():
        pid = fork()
        forks.append(pid)
        return pid

    mp.setattr(os, "fork", counting_fork)
    return forks


def _assert_no_child_left() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@contextlib.contextmanager
def _deadline(seconds: int):
    """Fail, instead of hanging, if the block takes longer than ``seconds``."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@settings(max_examples=30, deadline=None)
@given(
    rows=st.one_of(st.sampled_from([_SPLIT_ROWS - 1, _SPLIT_ROWS, _SPLIT_ROWS + 1]),
                   st.integers(_SPLIT_ROWS, 3 * _CSV_BLOCK_ROWS).map(lambda r: r | 1)),
    dim=st.integers(1, 2),
    same=st.sampled_from([0.0, 1.5, math.nan, math.inf, -math.inf]),
    where=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_split_csv_has_the_bytes_of_the_serial_one(tmp_path_factory, rows, dim, same, where,
                                                    seed):
    traj = _split_traj(rows, dim, same, min(int(where * rows), rows - 1), seed)
    out = tmp_path_factory.mktemp("split")
    with pytest.MonkeyPatch.context() as mp:
        forks = _allow_two_cpus(mp)
        write_trajectory_csv(traj, out / "split.csv")
    assert len(forks) == (rows >= _SPLIT_ROWS)
    assert (out / "split.csv").read_bytes() == _serial_csv(traj, out / "serial.csv")
    _assert_no_child_left()


def test_split_csv_falls_back_when_fork_fails(tmp_path, monkeypatch):
    traj = _split_traj(3 * _SPLIT_ROWS)
    _allow_two_cpus(monkeypatch)
    fds = os.listdir("/dev/fd")

    def no_fork():
        raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))

    monkeypatch.setattr(os, "fork", no_fork)
    write_trajectory_csv(traj, tmp_path / "split.csv")
    assert os.listdir("/dev/fd") == fds  # the pipe is closed
    _assert_no_child_left()
    monkeypatch.undo()
    assert (tmp_path / "split.csv").read_bytes() == _serial_csv(traj, tmp_path / "serial.csv")


def test_split_csv_falls_back_when_the_child_fails(tmp_path, monkeypatch):
    traj = _split_traj(9 * _CSV_BLOCK_ROWS + 3, dim=2)
    forks = _allow_two_cpus(monkeypatch)
    parent, write_block = os.getpid(), hbft.cli._write_csv_block

    def dying_in_the_child(fh, columns):
        if os.getpid() != parent:
            os._exit(3)
        write_block(fh, columns)

    monkeypatch.setattr(hbft.cli, "_write_csv_block", dying_in_the_child)
    fds = os.listdir("/dev/fd")
    with _deadline(60):
        write_trajectory_csv(traj, tmp_path / "split.csv")
    assert len(forks) == 1 and os.listdir("/dev/fd") == fds
    _assert_no_child_left()
    monkeypatch.undo()
    assert (tmp_path / "split.csv").read_bytes() == _serial_csv(traj, tmp_path / "serial.csv")


def test_split_csv_whose_parent_write_fails_is_a_config_error(tmp_path, scenario_raw,
                                                              monkeypatch, capsys):
    # 3,001 rows: the child's half outgrows a pipe's buffer, so it blocks
    # until the parent closes its end
    scenario_raw["integrator"]["t_max"] = 3.0
    path = write_yaml(tmp_path / "unit.yaml", scenario_raw)
    forks = _allow_two_cpus(monkeypatch)
    parent = os.getpid()

    def full_disk_in_the_parent(fh, columns):
        if os.getpid() == parent:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return write_block(fh, columns)

    write_block = hbft.cli._write_csv_block
    monkeypatch.setattr(hbft.cli, "_write_csv_block", full_disk_in_the_parent)
    out = tmp_path / "out"
    with _deadline(60):
        assert main(["simulate", str(path), "--out-dir", str(out), "--quiet"]) == 2
    assert capsys.readouterr().err == f"config error: cannot write '{out / 'unit.csv'}': " \
        f"{os.strerror(errno.ENOSPC)}\n"
    assert len(forks) == 1
    _assert_no_child_left()


def test_split_csv_streams_into_a_named_pipe(tmp_path, monkeypatch):
    # a pipe has no position: the split writer must not ask it for one
    traj = _split_traj(3 * _SPLIT_ROWS)
    forks = _allow_two_cpus(monkeypatch)
    fifo = tmp_path / "pipe.csv"
    os.mkfifo(fifo)
    with _deadline(60), concurrent.futures.ThreadPoolExecutor(1) as pool:
        read = pool.submit(fifo.read_bytes)
        write_trajectory_csv(traj, fifo)
        got = read.result()
    assert len(forks) == 1
    _assert_no_child_left()
    monkeypatch.undo()
    assert got == _serial_csv(traj, tmp_path / "serial.csv")


def test_csv_on_one_cpu_never_forks(tmp_path, monkeypatch):
    traj = _split_traj(3 * _SPLIT_ROWS)
    forks = _allow_two_cpus(monkeypatch)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    write_trajectory_csv(traj, tmp_path / "serial.csv")
    assert forks == []


def test_split_csv_lets_no_warning_escape(tmp_path, monkeypatch):
    # From Python 3.12 a fork in a process with threads warns, and numpy starts
    # one. os.fork does not raise that warning under an "error" filter, so
    # every warning is recorded instead.
    traj = _split_traj(3 * _SPLIT_ROWS)
    forks = _allow_two_cpus(monkeypatch)
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        write_trajectory_csv(traj, tmp_path / "split.csv")
    assert [str(w.message) for w in seen] == [] and len(forks) == 1
    _assert_no_child_left()
    monkeypatch.undo()
    assert (tmp_path / "split.csv").read_bytes() == _serial_csv(traj, tmp_path / "serial.csv")


def test_check_failure_exits_one(tmp_path, scenario_raw, capsys):
    # unbounded friction growth against a finite cap must fail the run
    scenario_raw["name"] = "growth"
    scenario_raw["schedule"] = {"name": "linear_growth", "params": {"rate": 1.0}}
    scenario_raw["integrator"]["t_max"] = 2.0
    scenario_raw["checks"] = [
        {"name": "friction_bounded", "bound_guess": 1.0, "horizon": 2.0},
    ]
    path = write_yaml(tmp_path / "growth.yaml", scenario_raw)
    out = tmp_path / "out"
    assert main(["simulate", str(path), "--out-dir", str(out)]) == 1
    assert "overall: FAIL" in capsys.readouterr().out
    report = json.loads((out / "growth.report.json").read_text())
    assert report["all_passed"] is False


def test_speeds_whose_squares_overflow_are_reported_finite_and_silent(tmp_path, scenario_raw,
                                                                      capsys):
    # |v| = 1e160 is finite though |v|^2 is not: the norms fall back to hypot
    # per row instead of reading inf, and no overflow warning reaches stderr
    scenario_raw.update(
        name="fast", potential={"name": "flat", "params": {"dim": 2}},
        initial={"x0": [0.0, 0.0], "v0": [1.0e160, 0.0]},
        integrator={"method": "rk4", "step": 1e-2, "t_max": 1.0,
                    "stop": {"divergence_radius": 1.0e300}},
        checks=[{"name": "tail_asymptotics"}],
    )
    path = write_yaml(tmp_path / "fast.yaml", scenario_raw)
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        assert main(["simulate", str(path), "--out-dir", str(out), "--quiet"]) == 1
    assert [str(w.message) for w in seen] == [] and capsys.readouterr().err == ""
    with (out / "fast.csv").open(newline="") as fh:
        rows = [list(map(float, row)) for row in list(csv.reader(fh))[1:]]
    x, v = [math.hypot(*r[1:3]) for r in rows], [math.hypot(*r[3:5]) for r in rows]
    tail = v[-21:]  # the last fifth of 101 samples; lambda = 1
    report = json.loads((out / "fast.report.json").read_text())
    meta, (check,) = report["trajectory"], report["checks"]
    assert meta["final_speed"] == v[-1]
    assert meta["tail_sqrt_friction_speed_sup"] == check["residual"] == max(tail)
    assert check["details"]["sup_speed"] == max(v) == 1.0e160
    assert check["details"]["sup_position_norm"] == max(x)
    assert check["passed"] is False


def test_integration_failure_exits_three_with_partial(tmp_path, scenario_raw, capsys):
    scenario_raw["name"] = "starved"
    scenario_raw["integrator"]["max_steps"] = 10
    path = write_yaml(tmp_path / "starved.yaml", scenario_raw)
    out = tmp_path / "out"
    assert main(["simulate", str(path), "--out-dir", str(out), "--quiet"]) == 3
    # partial trajectory and an error report are still written
    assert (out / "starved.csv").exists()
    report = json.loads((out / "starved.report.json").read_text())
    assert set(report) == {"all_passed", "error", "scenario", "trajectory"}
    assert report["all_passed"] is False
    assert report["trajectory"]["termination_reason"] == "aborted"
    summary = (out / "starved.summary.txt").read_text()
    assert f"integration error: {report['error']}\n" in summary
    assert summary.endswith("overall: ERROR\n")
    assert "step budget exhausted" in capsys.readouterr().err


def _schedule_breaks_claim(raw: dict) -> dict:
    # a valid config whose schedule overflows to inf mid-run (lambda(2.0) = 2e308)
    raw["name"] = "infrate"
    raw["schedule"] = {"name": "linear_growth", "params": {"rate": 1.0e308}}
    raw["initial"] = {"x0": [0.0], "v0": [0.0]}
    raw["integrator"] = {"method": "rk4", "step": 0.5, "t_max": 5.0, "stop": {"dwell": 100.0}}
    raw["checks"] = []
    return raw


def test_schedule_breaking_its_claim_exits_three(tmp_path, scenario_raw):
    path = write_yaml(tmp_path / "infrate.yaml", _schedule_breaks_claim(scenario_raw))
    assert run_hbft("validate", str(path)).returncode == 0
    out = tmp_path / "out"
    proc = run_hbft("simulate", str(path), "--out-dir", str(out), "--quiet")
    assert proc.returncode == 3
    message = "schedule 'linear_growth(rate=1e+308)' claims nonnegativity but produced inf at t=2.0"
    assert proc.stderr == f"integration error: {message}\n"
    # the samples kept before the failure are written, as for an integrator abort
    report = json.loads((out / "infrate.report.json").read_text())
    assert set(report) == {"all_passed", "error", "scenario", "trajectory"}
    assert report["all_passed"] is False and report["error"] == message
    assert report["trajectory"]["termination_reason"] == "aborted"
    assert report["trajectory"]["t_final"] == 1.5
    rows = (out / "infrate.csv").read_text().splitlines()
    assert [r.split(",")[0] for r in rows[1:]] == ["0.0", "0.5", "1.0", "1.5"]
    assert rows[-1].split(",")[4] == "1.5e+308"  # lambda
    summary = (out / "infrate.summary.txt").read_text()
    assert f"integration error: {message}\n" in summary and summary.endswith("overall: ERROR\n")


def test_schedule_broken_at_a_kept_sample_leaves_no_trajectory(tmp_path, scenario_raw):
    # λ(0) breaks the claim: the partial would hold that sample, so none is built
    cfg = ScenarioConfig.from_raw(scenario_raw, source="test")
    cfg.schedule = FrictionSchedule(name="nan_at_0", lam=lambda t: math.nan if t == 0.0 else 1.0)
    out = tmp_path / "out"
    result = run_scenario(cfg, out, quiet=True)
    assert result.exit_code == 3 and result.trajectory is None
    message = "schedule 'nan_at_0' claims nonnegativity but produced nan at t=0.0"
    report = json.loads((out / "unit.report.json").read_text())
    assert report == {"all_passed": False, "error": message, "scenario": "unit"}
    assert sorted(p.name for p in out.iterdir()) == ["unit.report.json"]


def test_dopri45_step_underflow_exits_three_with_partial(tmp_path, scenario_raw, capsys):
    # tolerances no step above h_min can meet: the first rejection underflows
    scenario_raw["name"] = "underflow"
    scenario_raw["integrator"] = {"method": "dopri45", "abs_tol": 1e-16, "rel_tol": 1e-16,
                                  "h_min": 0.1, "h_max": 0.5, "t_max": 5.0}
    path = write_yaml(tmp_path / "underflow.yaml", scenario_raw)
    out = tmp_path / "out"
    assert main(["simulate", str(path), "--out-dir", str(out), "--quiet"]) == 3
    assert "adaptive step underflow: needed step below h_min=0.1 at t=0.0" in capsys.readouterr().err
    report = json.loads((out / "underflow.report.json").read_text())
    assert report["trajectory"]["termination_reason"] == "aborted"
    assert report["trajectory"]["n_samples"] == 1
    rows = (out / "underflow.csv").read_text().splitlines()
    assert rows[1:] == ["0.0,1.0,0.0,0.5,1.0,1.0,0.0"]


def test_raising_check_becomes_a_failed_record(tmp_path, scenario_file, monkeypatch):
    def broken(traj, tol=0.0):
        raise RuntimeError("broken check")

    # checks are called through their module-level names
    monkeypatch.setattr(hbft.cli, "check_energy_monotone", broken)
    out = tmp_path / "out"
    assert main(["simulate", str(scenario_file), "--out-dir", str(out), "--quiet"]) == 1
    (record,) = json.loads((out / "unit.report.json").read_text())["checks"]
    assert record["check_name"] == "energy_monotone" and record["passed"] is False
    assert record["residual"] == "NaN"
    assert record["details"]["error"] == "broken check"


def test_check_too_large_to_allocate_becomes_a_failed_record(tmp_path, scenario_raw):
    # the friction_bounded surrogates sample λ on a grid of grid_points: 72.8 TiB here
    scenario_raw["checks"].append({"name": "friction_bounded", "grid_points": 10_000_000_000_000})
    path = write_yaml(tmp_path / "huge.yaml", scenario_raw)
    out = tmp_path / "out"
    proc = run_hbft("simulate", str(path), "--out-dir", str(out), "--quiet")
    assert proc.returncode == 1 and proc.stderr == ""
    assert sorted(f.name for f in out.iterdir()) == ["unit.csv", "unit.report.json", "unit.summary.txt"]
    energy, bounded = json.loads((out / "unit.report.json").read_text())["checks"]
    assert energy["passed"] is True
    assert bounded["check_name"] == "friction_bounded" and bounded["passed"] is False
    assert bounded["details"]["error"].startswith("Unable to allocate ")


def test_raising_barbalat_check_keeps_its_record_name(tmp_path, scenario_raw):
    # diverged at t=0: one sample, on which the check raises
    scenario_raw["name"] = "diverged"
    scenario_raw["potential"] = {"name": "double_well"}
    scenario_raw["initial"]["x0"] = [1.0e110]
    scenario_raw["checks"] = [{"name": "barbalat_sqrt_friction_speed", "l2_budget": 10.0,
                               "linf_budget": 1.5, "dot_budget": 1.5}]
    path = write_yaml(tmp_path / "diverged.yaml", scenario_raw)
    out = tmp_path / "out"
    assert main(["simulate", str(path), "--out-dir", str(out), "--quiet"]) == 1
    (record,) = json.loads((out / "diverged.report.json").read_text())["checks"]
    # the name barbalat_check gives the record when it runs
    assert record["check_name"] == "barbalat" and record["passed"] is False
    assert record["details"]["error"] == "barbalat check needs at least 2 samples"
    summary = (out / "diverged.summary.txt").read_text()
    assert "[FAIL] barbalat                 residual=nan threshold=0\n" in summary


def test_a_run_that_stops_early_passes_no_check_on_its_trajectory(tmp_path, capsys):
    # two samples, inside every bound: the checks would pass on them
    raw = strip_line_markers(load_config_file(SCENARIO_DIR / "pure_damping.yaml"))
    raw["integrator"].update(step=2.0e-3, stop={"divergence_radius": 1.0e-3})
    raw["checks"].append({"name": "friction_bounded", "bound_guess": 2.0})
    path = write_yaml(tmp_path / "early.yaml", raw)
    out = tmp_path / "out"
    assert main(["simulate", str(path), "--out-dir", str(out)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert "termination: diverged at t=0.002 (2 samples, 1 accepted / 0 rejected steps)" in lines
    assert [line[:6] for line in lines if line.startswith("[")] == ["[FAIL]"] * 4 + ["[PASS]"]
    assert lines[-1] == "overall: FAIL"
    report = json.loads((out / "pure_damping.report.json").read_text())
    by_name = {c["check_name"]: c for c in report["checks"]}
    balance = by_name["energy_balance"]
    assert balance["threshold"] == "NaN" and 0.0 < balance["residual"] < 1.0e-6
    assert balance["details"]["termination_reason"] == "diverged"
    assert balance["details"]["configured_threshold"] == 1.0e-6
    # the schedule alone decides friction_bounded, however the run ended
    assert by_name["friction_bounded"]["passed"] is True
    assert "termination_reason" not in by_name["friction_bounded"]["details"]


def test_overflowing_run_ends_diverged_without_traceback(tmp_path, scenario_raw):
    # The first RK4 stage overflows; the run must end as diverged at the
    # last finite state, through the normal report path.
    scenario_raw["name"] = "overflow"
    scenario_raw["potential"]["params"]["scale"] = 1.0e300
    scenario_raw["initial"]["x0"] = [1.0e10]
    scenario_raw["integrator"].update(step=1.0, t_max=10.0)
    # the acceleration check evaluates the overflowing gradient again
    scenario_raw["checks"] = [{"name": "energy_monotone"}, {"name": "acceleration_bound"}]
    path = write_yaml(tmp_path / "overflow.yaml", scenario_raw)
    out = tmp_path / "out"
    proc = run_hbft("simulate", str(path), "--out-dir", str(out), "--quiet")
    assert proc.stderr == ""
    # the energy is infinite from the first sample: nothing is certified
    assert proc.returncode == 1
    report = json.loads((out / "overflow.report.json").read_text())
    assert report["trajectory"]["termination_reason"] == "diverged"


def test_a_start_whose_square_overflows_runs_inside_the_radius(tmp_path, scenario_raw):
    # |x0| = 1e160 lies far inside the radius, although |x0|², and with it
    # numpy's norm, overflows; the report gives |x| itself
    scenario_raw["name"] = "far"
    scenario_raw["potential"] = {"name": "flat", "params": {"dim": 2}}
    scenario_raw["initial"] = {"x0": [1.0e160, 0.0], "v0": [0.0, 0.0]}
    scenario_raw["integrator"]["stop"] = {"divergence_radius": 1.0e300}
    scenario_raw["checks"].append({"name": "tail_asymptotics"})
    path = write_yaml(tmp_path / "far.yaml", scenario_raw)
    out = tmp_path / "out"
    assert main(["simulate", str(path), "--out-dir", str(out), "--quiet"]) == 0
    report = json.loads((out / "far.report.json").read_text())
    assert report["trajectory"]["termination_reason"] == "t_max"
    assert report["checks"][1]["details"]["sup_position_norm"] == 1.0e160


def test_barbalat_with_a_zero_tail_threshold_runs_without_traceback(tmp_path):
    raw = strip_line_markers(load_config_file(SCENARIO_DIR / "damped_harmonic_tail.yaml"))
    raw["integrator"]["t_max"] = 5.0
    for check in raw["checks"]:
        if check["name"] == "barbalat_sqrt_friction_speed":
            check["tail_threshold"] = 0.0
    path = write_yaml(tmp_path / "tail0.yaml", raw)
    out = tmp_path / "out"
    assert main(["simulate", str(path), "--out-dir", str(out), "--quiet"]) == 1
    report = json.loads((out / "damped_harmonic_tail.report.json").read_text())
    (record,) = [c for c in report["checks"] if c["check_name"] == "barbalat"]
    assert record["passed"] is False and record["residual"] == "Infinity"
    assert record["details"]["conclusion_status"] == "violated"


def test_power_decay_whose_power_overflows_runs_without_traceback(tmp_path, scenario_raw):
    # (1 + t)^1000 overflows a float from t = 0.995 on; lambda is 0.0 there
    scenario_raw["name"] = "steep"
    scenario_raw["schedule"] = {"name": "power_decay",
                                "params": {"initial": 1.0, "exponent": 1000.0}}
    scenario_raw["integrator"] = {"method": "rk4", "step": 1.0e-2, "t_max": 10.0}
    path = write_yaml(tmp_path / "steep.yaml", scenario_raw)
    out = tmp_path / "out"
    proc = run_hbft("simulate", str(path), "--out-dir", str(out), "--quiet")
    assert (proc.returncode, proc.stderr) == (0, "")
    report = json.loads((out / "steep.report.json").read_text())
    assert report["trajectory"]["termination_reason"] == "t_max"
    assert (out / "steep.csv").read_text().splitlines()[-1].split(",")[4] == "0.0"  # lambda


def test_oscillating_with_a_non_finite_phase_exits_three(tmp_path, scenario_raw):
    # omega * t overflows to inf at t = 1.8: lambda is NaN there, which breaks the claim
    scenario_raw["name"] = "fast"
    scenario_raw["schedule"] = {"name": "oscillating", "params": {
        "base": 2.0, "amplitude": 1.0, "angular_frequency": 1.0e308}}
    scenario_raw["integrator"] = {"method": "rk4", "step": 1.0e-2, "t_max": 10.0}
    path = write_yaml(tmp_path / "fast.yaml", scenario_raw)
    out = tmp_path / "out"
    proc = run_hbft("simulate", str(path), "--out-dir", str(out), "--quiet")
    message = ("schedule 'oscillating(base=2, amplitude=1, angular_frequency=1e+308)' "
               "claims nonnegativity but produced nan at t=1.8")
    assert (proc.returncode, proc.stderr) == (3, f"integration error: {message}\n")
    report = json.loads((out / "fast.report.json").read_text())
    assert report["error"] == message and report["trajectory"]["termination_reason"] == "aborted"
    assert report["trajectory"]["t_final"] == 1.79
    assert (out / "fast.csv").read_text().splitlines()[-1].startswith("1.79,")
    assert (out / "fast.summary.txt").read_text().endswith("overall: ERROR\n")


def test_contact_loss_halts_full_surface_run(tmp_path):
    raw = {
        "name": "launch",
        "model": "full_surface",
        "potential": {"name": "double_well"},
        "schedule": {"name": "constant", "params": {"value": 0.0}},
        "mechanical": {"mass": 1.0, "gravity": 1.0},
        "initial": {"x0": [-1.5], "v0": [3.0]},
        "integrator": {
            "method": "rk4",
            "step": 1e-3,
            "t_max": 5.0,
            "stop": {"halt_on_contact_loss": True},
        },
        "checks": [],
    }
    path = write_yaml(tmp_path / "launch.yaml", raw)
    out = tmp_path / "out"
    assert main(["simulate", str(path), "--out-dir", str(out), "--quiet"]) == 0
    report = json.loads((out / "launch.report.json").read_text())
    assert report["trajectory"]["termination_reason"] == "contact_lost"


def test_out_dir_env_var_honored(tmp_path, scenario_file, monkeypatch):
    target = tmp_path / "from_env"
    monkeypatch.setenv(OUT_DIR_ENV, str(target))
    assert main(["simulate", str(scenario_file), "--quiet"]) == 0
    assert (target / "unit.csv").exists()


@pytest.mark.parametrize("under", ["", "sub"], ids=["a_file", "under_a_file"])
@pytest.mark.parametrize("command", ["simulate", "sweep"])
def test_unusable_out_dir_is_a_config_error(tmp_path, scenario_file, capsys, command, under):
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory\n")
    target = blocker / under if under else blocker
    argv = [command, str(scenario_file), "--out-dir", str(target)]
    if command == "sweep":
        grid = write_yaml(tmp_path / "grid.yaml", {"grid": {"schedule.params.value": [1.0]}})
        argv += ["--grid", str(grid)]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""  # refused before anything ran
    assert err.startswith(f"config error: cannot create output directory '{target}': ")
    assert err.count("\n") == 1
    assert blocker.read_text() == "not a directory\n"


@pytest.mark.parametrize("artifact", ["unit.csv", "unit.report.json", "unit.summary.txt"])
def test_directory_at_an_artifact_path_is_a_config_error(tmp_path, scenario_file, capsys,
                                                         artifact):
    out_dir = tmp_path / "out"
    (out_dir / artifact).mkdir(parents=True)
    assert main(["simulate", str(scenario_file), "--out-dir", str(out_dir)]) == 2
    out, err = capsys.readouterr()
    assert out == ""  # refused before anything ran
    assert err == f"config error: cannot write '{out_dir / artifact}': it is a directory\n"
    assert [p.name for p in out_dir.iterdir()] == [artifact]


def test_directory_at_an_unrequested_artifact_path_is_left_alone(tmp_path, scenario_raw):
    scenario_raw["outputs"] = {"formats": ["report"]}
    out_dir = tmp_path / "out"
    (out_dir / "unit.csv").mkdir(parents=True)
    cfg_path = write_yaml(tmp_path / "unit.yaml", scenario_raw)
    assert main(["simulate", str(cfg_path), "--out-dir", str(out_dir), "--quiet"]) == 0
    assert sorted(p.name for p in out_dir.iterdir()) == ["unit.csv", "unit.report.json"]


def test_directory_at_a_sweep_point_artifact_path_fails_before_any_point_runs(
        tmp_path, scenario_raw, capsys):
    base_path = write_yaml(tmp_path / "base.yaml", _sweep_base(scenario_raw))
    grid_path = write_yaml(tmp_path / "grid.yaml", {"grid": {"schedule.params.value": [0.5, 1.5]}})
    out = tmp_path / "out"
    blocker = out / "point_001" / "unit.report.json"
    blocker.mkdir(parents=True)
    code = main(["sweep", str(base_path), "--grid", str(grid_path), "--out-dir", str(out)])
    assert code == 2
    stdout, err = capsys.readouterr()
    assert stdout == ""  # refused before any point ran
    assert err == f"config error: cannot write '{blocker}': it is a directory\n"
    assert sorted(p.name for p in out.iterdir()) == ["point_001"]
    assert [p.name for p in (out / "point_001").iterdir()] == ["unit.report.json"]


def _sweep_argv(tmp_path: Path, scenario_raw: dict, out: Path) -> list[str]:
    base = write_yaml(tmp_path / "base.yaml", _sweep_base(scenario_raw))
    grid = write_yaml(tmp_path / "grid.yaml", {"grid": {"schedule.params.value": [0.5, 1.5]}})
    return ["sweep", str(base), "--grid", str(grid), "--out-dir", str(out)]


@pytest.mark.parametrize("summary", ["sweep_summary.csv", "sweep_summary.txt"])
def test_directory_at_a_sweep_summary_path_fails_before_any_point_runs(tmp_path, scenario_raw,
                                                                      capsys, summary):
    out = tmp_path / "out"
    (out / summary).mkdir(parents=True)
    assert main(_sweep_argv(tmp_path, scenario_raw, out)) == 2
    stdout, err = capsys.readouterr()
    assert stdout == ""  # refused before any point ran
    assert err == f"config error: cannot write '{out / summary}': it is a directory\n"
    assert [p.name for p in out.iterdir()] == [summary]


def test_file_at_a_sweep_point_directory_fails_before_any_point_runs(tmp_path, scenario_raw,
                                                                    capsys):
    out = tmp_path / "out"
    out.mkdir()
    (out / "point_001").write_text("a file\n")
    assert main(_sweep_argv(tmp_path, scenario_raw, out)) == 2
    stdout, err = capsys.readouterr()
    assert stdout == ""  # refused before any point ran
    assert err == (f"config error: cannot create output directory '{out / 'point_001'}': "
                   f"{os.strerror(errno.EEXIST)}\n")
    assert [p.name for p in out.iterdir()] == ["point_001"]
    assert (out / "point_001").read_text() == "a file\n"


@pytest.mark.parametrize("name", ["sub/run", "../escaped", "", ".", "..", "nul\0byte"],
                         ids=["slash", "parent", "empty", "dot", "dotdot", "nul"])
def test_name_that_is_not_a_file_name_is_refused(tmp_path, scenario_raw, capsys, name):
    scenario_raw["name"] = name
    path = write_yaml(tmp_path / "named.yaml", scenario_raw)
    out = tmp_path / "work" / "out"
    for argv in (["validate", str(path)], ["simulate", str(path), "--out-dir", str(out)]):
        assert main(argv) == 2
        stdout, err = capsys.readouterr()
        assert stdout == ""
        assert err.startswith(f"config error: {path}:1: name: must be a file name ")
        assert err.endswith(f", got {name!r}\n")
    # nothing written, inside the output directory or next to it
    assert [p.name for p in tmp_path.rglob("*")] == ["named.yaml"]


def test_grid_axis_naming_a_path_fails_before_any_point_runs(tmp_path, scenario_raw, capsys):
    base = write_yaml(tmp_path / "base.yaml", _sweep_base(scenario_raw))
    grid = write_yaml(tmp_path / "grid.yaml", {"grid": {"name": ["a/b"]}})
    out = tmp_path / "out"
    assert main(["sweep", str(base), "--grid", str(grid), "--out-dir", str(out)]) == 2
    stdout, err = capsys.readouterr()
    assert stdout == ""
    assert err.startswith(f"config error: {base}[point_000]: name: must be a file name ")
    assert not out.exists()


def test_run_scenario_refuses_a_directory_at_an_artifact_path_before_integrating(
        tmp_path, scenario_raw, monkeypatch):
    calls = []
    monkeypatch.setattr(hbft.cli, "integrate", lambda *args, **kwargs: calls.append(args))
    cfg = ScenarioConfig.from_raw(scenario_raw, source="unit")
    (tmp_path / "unit.summary.txt").mkdir()
    with pytest.raises(ConfigError, match="it is a directory"):
        run_scenario(cfg, tmp_path, quiet=True)
    assert calls == []


def test_scenario_result_paths_are_the_requested_artifacts(tmp_path, scenario_raw):
    scenario_raw["outputs"] = {"formats": ["summary", "csv"]}
    cfg = ScenarioConfig.from_raw(scenario_raw, source="unit")
    result = run_scenario(cfg, tmp_path, quiet=True)
    assert list(result.paths.items()) == [("csv", tmp_path / "unit.csv"),
                                          ("summary", tmp_path / "unit.summary.txt")]


def test_format_that_is_not_a_name_is_a_config_error(tmp_path, scenario_raw, capsys):
    scenario_raw["outputs"] = {"formats": [["csv"]]}
    path = write_yaml(tmp_path / "unit.yaml", scenario_raw)
    assert main(["validate", str(path)]) == 2
    assert "outputs.formats: unknown formats [['csv']]" in capsys.readouterr().err


def test_rerun_into_the_same_out_dir_writes_the_same_bytes(tmp_path, scenario_file, scenario_raw):
    def files(root: Path) -> dict:
        return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}

    out = tmp_path / "out"
    for argv in (["simulate", str(scenario_file), "--out-dir", str(out / "sim")],
                 _sweep_argv(tmp_path, scenario_raw, out / "sweep")):
        assert main([*argv, "--quiet"]) == 0
        first = files(out)
        assert main([*argv, "--quiet"]) == 0
        assert files(out) == first


def test_artifact_that_cannot_be_opened_is_a_config_error(tmp_path, scenario_file, capsys):
    out = tmp_path / "out"
    out.mkdir()
    link = out / "unit.csv"
    link.symlink_to(tmp_path / "missing" / "x.csv")
    assert main(["simulate", str(scenario_file), "--out-dir", str(out)]) == 2
    stdout, err = capsys.readouterr()
    assert stdout == ""
    assert err == f"config error: cannot write '{link}': {os.strerror(errno.ENOENT)}\n"


def test_name_too_long_for_the_file_system_is_a_config_error(tmp_path, scenario_raw, capsys):
    scenario_raw["name"] = "n" * 300
    path = write_yaml(tmp_path / "long.yaml", scenario_raw)
    out = tmp_path / "out"
    assert main(["validate", str(path)]) == 0  # a file name; too long only for this file system
    capsys.readouterr()
    assert main(["simulate", str(path), "--out-dir", str(out)]) == 2
    stdout, err = capsys.readouterr()
    assert stdout == ""
    assert err == (f"config error: cannot write '{out / ('n' * 300 + '.csv')}': "
                   f"{os.strerror(errno.ENAMETOOLONG)}\n")


def test_sweep_point_whose_artifact_cannot_be_written_is_an_error_row(tmp_path, scenario_raw):
    out = tmp_path / "out"
    (out / "point_000").mkdir(parents=True)
    link = out / "point_000" / "unit.csv"
    link.symlink_to(tmp_path / "missing" / "x.csv")
    grid = {"schedule.params.value": [0.5, 1.5]}
    assert run_sweep(_sweep_base(scenario_raw), grid, out, quiet=True, source="t") == 3
    rows = list(csv.DictReader((out / "sweep_summary.csv").open()))
    assert [r["status"] for r in rows] == ["error", "ok"]
    assert rows[0]["error"] == f"ConfigError: cannot write '{link}': {os.strerror(errno.ENOENT)}"


def test_sweep_summary_that_cannot_be_written_is_a_config_error(tmp_path, scenario_raw, capsys):
    out = tmp_path / "out"
    out.mkdir()
    link = out / "sweep_summary.txt"
    link.symlink_to(tmp_path / "missing" / "x.txt")
    assert main([*_sweep_argv(tmp_path, scenario_raw, out), "--quiet"]) == 2
    assert capsys.readouterr().err == (f"config error: cannot write '{link}': "
                                       f"{os.strerror(errno.ENOENT)}\n")
    assert (out / "point_001" / "unit.csv").exists()  # the points ran first


def test_runs_are_byte_deterministic(tmp_path, scenario_file):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", str(scenario_file), "--out-dir", str(out_a), "--quiet"]) == 0
    assert main(["simulate", str(scenario_file), "--out-dir", str(out_b), "--quiet"]) == 0
    assert (out_a / "unit.csv").read_bytes() == (out_b / "unit.csv").read_bytes()
    assert (out_a / "unit.report.json").read_bytes() == (out_b / "unit.report.json").read_bytes()


# ------------------------------------------------------------------ sweep


def _sweep_base(scenario_raw: dict) -> dict:
    raw = copy.deepcopy(scenario_raw)
    raw["integrator"]["t_max"] = 1.0
    return raw


def test_sweep_isolates_check_failures(tmp_path, scenario_raw):
    base = _sweep_base(scenario_raw)
    base["checks"] = [{"name": "friction_bounded", "bound_guess": 0.5, "horizon": 1.0}]
    grid = {"schedule.params.value": [0.1, 1.0]}
    code = run_sweep(base, grid, out_dir=tmp_path / "sweep", quiet=True, source="test")
    assert code == 1  # worst point wins
    rows = list(csv.DictReader((tmp_path / "sweep" / "sweep_summary.csv").open()))
    assert [r["status"] for r in rows] == ["ok", "check_failure"]
    assert (tmp_path / "sweep" / "point_000" / "unit.csv").exists()
    assert (tmp_path / "sweep" / "point_001" / "unit.csv").exists()


def test_sweep_isolates_integration_errors(tmp_path, scenario_raw):
    base = _sweep_base(scenario_raw)
    grid = {"integrator.max_steps": [10, 100000]}
    code = run_sweep(base, grid, out_dir=tmp_path / "sweep", quiet=True, source="test")
    assert code == 3
    rows = list(csv.DictReader((tmp_path / "sweep" / "sweep_summary.csv").open()))
    assert [r["status"] for r in rows] == ["integration_error", "ok"]
    # the failed point still leaves a partial trajectory behind
    assert (tmp_path / "sweep" / "point_000" / "unit.csv").exists()


def test_sweep_point_whose_schedule_breaks_its_claim_is_an_integration_error(tmp_path,
                                                                           scenario_raw):
    base = _schedule_breaks_claim(scenario_raw)
    grid = {"schedule.params.rate": [1.0, 1.0e308]}
    code = run_sweep(base, grid, out_dir=tmp_path / "sweep", quiet=True, source="test")
    assert code == 3
    rows = list(csv.DictReader((tmp_path / "sweep" / "sweep_summary.csv").open()))
    assert [r["status"] for r in rows] == ["ok", "integration_error"]
    assert rows[1]["error"].endswith("produced inf at t=2.0")
    assert rows[1]["termination"] == "aborted" and rows[1]["final_energy"] == "0.0"


def test_sweep_summary_writes_numpy_float_overrides_as_numbers(tmp_path, scenario_raw):
    grid = {"schedule.params.value": [np.float64(0.2), 1.0]}
    assert run_sweep(_sweep_base(scenario_raw), grid, out_dir=tmp_path / "s", quiet=True,
                     source="t") == 0
    rows = list(csv.reader((tmp_path / "s" / "sweep_summary.csv").open()))
    assert [r[1] for r in rows] == ["schedule.params.value", "0.2", "1.0"]


def test_sweep_unknown_axis_fails_whole_sweep(tmp_path, scenario_raw):
    base = _sweep_base(scenario_raw)
    with pytest.raises(ConfigError, match="no_such"):
        run_sweep(base, {"integrator.no_such": [1, 2]}, out_dir=tmp_path / "s", quiet=True, source="test")


def test_sweep_points_are_sorted_products(scenario_raw):
    grid = {"schedule.params.value": [1.0, 2.0], "integrator.step": [1e-3, 2e-3]}
    pts = sweep_points(scenario_raw, grid)
    assert len(pts) == 4
    overrides = [o for o, _ in pts]
    assert overrides[0] == {"integrator.step": 1e-3, "schedule.params.value": 1.0}
    assert overrides[-1] == {"integrator.step": 2e-3, "schedule.params.value": 2.0}


def test_sweep_parallel_matches_serial(tmp_path, scenario_raw):
    base = _sweep_base(scenario_raw)
    grid = {"schedule.params.value": [0.5, 1.0, 2.0]}
    assert run_sweep(base, grid, out_dir=tmp_path / "serial", quiet=True, source="t") == 0
    assert run_sweep(base, grid, out_dir=tmp_path / "par", workers=2, quiet=True, source="t") == 0

    def files(root: Path) -> dict:
        return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}

    serial = files(tmp_path / "serial")
    # two aggregate tables, then a CSV, a report and a summary per point
    assert len(serial) == 2 + 3 * 3
    assert files(tmp_path / "par") == serial


def test_sweep_pool_is_no_larger_than_the_grid(tmp_path, scenario_raw, monkeypatch):
    sizes = []

    class SerialPool:
        """Records the pool size asked for and maps in process: no process starts."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    base = _sweep_base(scenario_raw)
    grid = {"schedule.params.value": [0.5, 1.0, 2.0]}
    assert run_sweep(base, grid, out_dir=tmp_path / "a", workers=64, quiet=True, source="t") == 0
    assert run_sweep(base, {"schedule.params.value": [1.0]}, out_dir=tmp_path / "b", workers=64,
                     quiet=True, source="t") == 0
    # a one-point grid runs serially
    assert sizes == [3]


def test_serial_sweep_parses_each_point_once(tmp_path, scenario_raw, monkeypatch):
    parse, parsed = ScenarioConfig.from_raw, []

    def counting_parse(raw, source, default_name="scenario"):
        parsed.append(default_name)
        return parse(raw, source, default_name)

    monkeypatch.setattr(ScenarioConfig, "from_raw", staticmethod(counting_parse))
    grid = {"schedule.params.value": [0.5, 1.0, 2.0]}
    assert run_sweep(_sweep_base(scenario_raw), grid, out_dir=tmp_path / "s", quiet=True,
                     source="t") == 0
    assert parsed == ["point_000", "point_001", "point_002"]


def test_sweep_axis_creates_a_section_the_base_lacks(tmp_path, scenario_raw):
    base = _sweep_base(scenario_raw)
    assert "stop" not in base["integrator"]
    grid = {"integrator.stop.divergence_radius": [0.5, 1e6]}
    # |x0| = 1 is past the first radius, so that run ends diverged, failing its check
    assert run_sweep(base, grid, out_dir=tmp_path / "s", quiet=True, source="t") == 1
    rows = list(csv.DictReader((tmp_path / "s" / "sweep_summary.csv").open()))
    assert [(r["termination"], r["status"]) for r in rows] == [("diverged", "check_failure"), ("t_max", "ok")]


def test_sweep_axis_fills_a_null_section(scenario_raw):
    scenario_raw["integrator"]["stop"] = None
    [(_, merged)] = sweep_points(scenario_raw, {"integrator.stop.dwell": [2.0]})
    assert merged["integrator"]["stop"] == {"dwell": 2.0}


def test_sweep_cli_subcommand(tmp_path, scenario_raw):
    base_path = write_yaml(tmp_path / "base.yaml", _sweep_base(scenario_raw))
    grid_path = write_yaml(tmp_path / "grid.yaml", {"grid": {"schedule.params.value": [0.5, 1.5]}})
    out = tmp_path / "out"
    code = main(["sweep", str(base_path), "--grid", str(grid_path), "--out-dir", str(out), "--quiet"])
    assert code == 0
    text = (out / "sweep_summary.txt").read_text()
    assert "point_000" in text and "point_001" in text


def _recorded_reference() -> dict:
    """perfbench/reference.json, which holds the sha256 of every bundled
    artifact. Other Python or numpy builds may round a last bit differently, so
    its digests, and the sweep's below, bind only the versions it names."""
    reference = json.loads((REPO_ROOT / "perfbench" / "reference.json").read_text())
    recorded = reference["recorded"]
    if (platform.python_version(), np.__version__) != (recorded["python"], recorded["numpy"]):
        pytest.skip(f"digests recorded on Python {recorded['python']}, numpy {recorded['numpy']}")
    return reference


def test_bundled_artifacts_have_their_recorded_digests(bundle_runs):
    reference = _recorded_reference()
    assert sorted(bundle_runs) == sorted(reference["bundle"])
    checked = 0
    for name, run in bundle_runs.items():
        for file_name, digest in reference["bundle"][name]["digests"].items():
            assert hashlib.sha256((run.out_dir / file_name).read_bytes()).hexdigest() == digest, \
                file_name
            checked += 1
    assert checked == 3 * len(bundle_runs)


# sha256 of every file the bundled sweep writes, serial and pooled alike
_SWEEP_DIGESTS = {
    "point_000/damped_harmonic_settle.csv":
        "821be188f5dd70b3b9415dec6eb2a9b922252e69ba8e2b6893d10305c6c26ee8",
    "point_000/damped_harmonic_settle.report.json":
        "c492d25b021da73d75e9225237204051bd2af264113d3909561743abe7b2adf1",
    "point_000/damped_harmonic_settle.summary.txt":
        "c731ae68edbf1be3a67d0eea849d50fbd9158ba6110a4f2f688ad9d899452f73",
    "point_001/damped_harmonic_settle.csv":
        "673003861607cc6c24cbbf74e2200708f33e93ebf6db32fa4ab4f966ced78ccf",
    "point_001/damped_harmonic_settle.report.json":
        "3d2094bf193a1eed71aac597437813f8876f43045dae96506d7a771a50d9018f",
    "point_001/damped_harmonic_settle.summary.txt":
        "c9a18c7bd57ded44c6653e34cf55ecb8d213a9a3e009a1ec33313d1a58df47b3",
    "point_002/damped_harmonic_settle.csv":
        "71106e469a35ec52b6586cc4ea2ebe33432567619a708da0b83dec1b11e89eeb",
    "point_002/damped_harmonic_settle.report.json":
        "062bf894c4e7eeed203099270dd04d9ccd580a461fa7dbac4971cb6f731f6fb2",
    "point_002/damped_harmonic_settle.summary.txt":
        "2cf0aca6918e4eee940424dbaae28b8b142f00e2683882ba460d091c581930e8",
    "sweep_summary.csv":
        "18c368828812afaa4da674dfdbf790346f7f0eaf7538bd3f4431ce425bba94b8",
    "sweep_summary.txt":
        "e144fec69457552ea8fa3089a5a0e95ae8aa6e48e9dc8d244ca3243582346333",
}


@pytest.mark.parametrize("workers", [1, 2])
def test_bundled_sweep_has_its_recorded_digests(tmp_path, workers):
    _recorded_reference()
    sweeps, out = REPO_ROOT / "scenarios" / "sweeps", tmp_path / "sweep"
    assert main(["sweep", str(sweeps / "damped_harmonic_settle.yaml"), "--grid",
                 str(sweeps / "constant_damping_grid.yaml"), "--workers", str(workers),
                 "--out-dir", str(out), "--quiet"]) == 0
    written = {path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
               for path in sorted(out.rglob("*")) if path.is_file()}
    assert written == _SWEEP_DIGESTS


# --- the bundled verdicts on an independent integrator ------------------------------


def _dop853_run(run) -> Trajectory:
    """The run's samples recomputed by scipy's DOP853 at rtol = atol = 1e-12,
    with the run's termination and step stats, as integrate would build them."""
    integ = pytest.importorskip("scipy.integrate")
    cfg, traj = run.cfg, run.result.trajectory
    p, s, dim = cfg.potential, cfg.schedule, cfg.potential.dim

    def rhs(t, y):
        x, v = y[:dim], y[dim:]
        return np.concatenate([v, -s.lam(t) * v - p.gradient_fn(x)])

    sol = integ.solve_ivp(rhs, (0.0, traj.t_final), np.concatenate([cfg.x0, cfg.v0]),
                          method="DOP853", t_eval=traj.t, rtol=1e-12, atol=1e-12)
    assert sol.success and sol.t.tobytes() == traj.t.tobytes()
    rec = _Recorder(p, s)
    x, v = sol.y[:dim].T.copy(), sol.y[dim:].T.copy()
    for buf, column in ((rec.t, sol.t), (rec.x, x), (rec.v, v), (rec.g, gradient_rows(p, x))):
        buf.extend(column.ravel().tolist())
    return rec.build(traj.termination_reason, traj.step_stats)


# Checks whose residual lies within a factor of 2 of their threshold on the
# DOP853 samples (residual / threshold in [0.5, 2]): the verdicts nearest to
# flipping. Every other residual is more than 2x away from its threshold.
_CLOSE_CALLS = {
    ("damped_harmonic", "acceleration_bound"),  # 1.0 / 2.0
    ("damped_harmonic_tail", "acceleration_bound"),  # 1.0 / 2.0
    ("damped_harmonic_tail", "barbalat"),  # 0.666 / 1.0
    ("oscillating_friction", "friction_bounded"),  # 3.0 / 3.5
    ("pure_damping", "acceleration_bound"),  # 1.0 / 1.5
    ("rosenbrock_descent", "acceleration_bound"),  # 7.34 / 10.0
}


def test_bundled_verdicts_survive_an_independent_integrator(bundle_runs):
    close, n_verdicts = set(), 0
    for name, run in bundle_runs.items():
        oracle = _dop853_run(run)
        cfg = run.cfg
        with np.errstate(over="ignore", invalid="ignore"):
            records = [_run_check(check, oracle, cfg.potential, cfg.schedule) for check in cfg.checks]
        for got, want in zip(records, run.result.report.checks, strict=True):
            assert (got.check_name, got.passed) == (want.check_name, want.passed), name
            n_verdicts += 1
            if 0.5 <= got.residual / got.threshold <= 2.0:
                close.add((name, got.check_name))
    assert n_verdicts == 35 and close == _CLOSE_CALLS


def test_bundled_sweep_grid_loads():
    grid = load_sweep_grid(SWEEP_DIR / "constant_damping_grid.yaml")
    assert grid == {"schedule.params.value": [0.1, 1.0, 10.0]}
    base = load_config_file(SWEEP_DIR / "damped_harmonic_settle.yaml")
    cfg = ScenarioConfig.from_raw(base, source="bundled")
    assert cfg.name == "damped_harmonic_settle"


def test_bundled_sweep_settles_at_every_damping(tmp_path):
    # two decades of damping: underdamped ringing, critical-ish, overdamped
    # creep; each point must still reach the stationarity stop on its own
    base = load_config_file(SWEEP_DIR / "damped_harmonic_settle.yaml")
    grid = load_sweep_grid(SWEEP_DIR / "constant_damping_grid.yaml")
    code = run_sweep(base, grid, out_dir=tmp_path / "sweep", quiet=True, source="bundled")
    assert code == 0
    rows = list(csv.DictReader((tmp_path / "sweep" / "sweep_summary.csv").open()))
    assert len(rows) == 3
    assert all(r["status"] == "ok" for r in rows)
    assert all(r["termination"] == "stationary" for r in rows)
    # settled means the tail certificate signal sits at the stationarity scale
    assert all(float(r["tail_sqrt_friction_speed_sup"]) < 1e-2 for r in rows)


# ------------------------------------------------------------------ misc


def test_list_subcommands(capsys):
    assert main(["list-potentials"]) == 0
    out = capsys.readouterr().out
    assert "quadratic" in out and "rosenbrock" in out
    assert main(["list-schedules"]) == 0
    assert "power_decay" in capsys.readouterr().out


def test_console_entry_point_runs():
    proc = run_hbft("list-potentials")
    assert proc.returncode == 0
    assert "double_well" in proc.stdout


def test_seed_flag_is_a_usage_error(scenario_file):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", str(scenario_file), "--seed", "1"])
    assert exc.value.code == 2


def test_missing_file_is_config_error(capsys):
    assert main(["simulate", "/nonexistent/nowhere.yaml"]) == 2
    assert "nowhere.yaml" in capsys.readouterr().err


def _pure_damping_with(extra: str, after: str = "  t_max: 5.0\n") -> str:
    text = (SCENARIO_DIR / "pure_damping.yaml").read_text()
    assert after in text
    return text.replace(after, after + extra, 1)


@pytest.mark.parametrize("extra, key, offset", [
    ("  stop:\n    dwell: 1.0\n  stop:\n    dwell: 2.0\n", "stop", 3),
    ("  step: 2.0e-3\n", "step", 1),
    ("  __line__: 7\n", "__line__", 1),
], ids=["block", "scalar", "reserved"])
def test_repeated_or_reserved_key_is_a_config_error(tmp_path, capsys, extra, key, offset):
    # two stop blocks used to load as the second alone, and a __line__ key
    # was overwritten by the line marker
    text = _pure_damping_with(extra)
    line = text[: text.index(extra)].count("\n") + offset
    path = tmp_path / "keys.yaml"
    path.write_text(text)
    assert main(["validate", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"keys.yaml:{line}:" in err and f"config key '{key}'" in err


def test_repeated_grid_axis_is_a_config_error(tmp_path, scenario_raw, capsys):
    base = write_yaml(tmp_path / "base.yaml", scenario_raw)
    grid = tmp_path / "grid.yaml"
    grid.write_text("grid:\n  schedule.params.value: [1.0]\n  schedule.params.value: [2.0]\n")
    assert main(["sweep", str(base), "--grid", str(grid), "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "grid.yaml:3:" in err and "is repeated" in err


def test_a_key_may_override_a_merged_one(tmp_path, capsys):
    # YAML's << merge: the explicit step replaces the merged one
    text = _pure_damping_with("  <<: {step: 5.0e-3, t_max: 5.0}\n", after="integrator:\n")
    path = tmp_path / "merge.yaml"
    path.write_text(text.replace("  t_max: 5.0\n", "", 1))
    assert main(["validate", str(path)]) == 0
    integrator = strip_line_markers(load_config_file(path))["integrator"]
    assert integrator == {"method": "rk4", "step": 1.0e-3, "t_max": 5.0}
