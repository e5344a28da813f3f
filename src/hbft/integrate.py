"""Time integration of the phase-space fields with stop conditions.

Two steppers are provided, each an explicit Runge-Kutta method given by its
Butcher tableau in ``_TABLEAUX``:

- ``rk4``: the classical fixed-step fourth-order Runge-Kutta scheme.
- ``dopri45``: the Dormand-Prince 5(4) embedded pair with standard
  proportional step control (safety 0.9, growth clamped to [0.2, 5]).

The driver :func:`integrate` owns everything around the stepper: elapsed
time is accumulated with Kahan compensation so 10⁵-step runs do not smear
the grid, stop conditions are evaluated after every accepted step, and the
returned :class:`Trajectory` stores the sampled columns in the exact order
the CSV writer emits them.

Termination reasons:

- ``t_max``: the horizon was reached.
- ``stationary``: |v| and |∇Φ(x)| both stayed below ``stationarity_tol``
  for at least ``dwell`` time units.
- ``diverged``: |x| exceeded ``divergence_radius``, or a step produced
  non-finite numbers (the non-finite state itself is not recorded; the last
  finite state ends the trajectory). A field that raises
  :class:`~hbft.errors.DivergenceError` counts as a non-finite step. rk4
  stops at the first one; dopri45 rejects and shrinks the step, and stops
  only when the step is already at ``h_min``.
- ``contact_lost``: the supplied reaction-force callable went non-positive
  and ``halt_on_contact_loss`` was set.

Each stop rule takes its |·| as ``math.hypot`` of the components: the
Euclidean norm without overflow or underflow of the squares, so a size that is
a float compares as itself. The trajectory's |∇Φ| column stays numpy's dot
per row.

Inputs are validated once, at the :func:`integrate` boundary. The stage
states handed to the field are built unchecked from float arithmetic on
validated arrays, and finiteness is tested once per attempted step, on its
result.

Kernels. Every run steps in one generated loop (:func:`_kernel_source`,
compiled on first use), which holds the stop rules, the clock, the sampling
and dopri45's step control in one frame. Its stage block is one of three.
:func:`_on_floats` picks it. When ``field`` is ``functools.partial(hbft_field,
p, s)`` for the ``p`` and ``s`` passed in, ``p`` has a float gradient form
(every builtin potential at dim 1 and 2) and no reaction is given, the stages
are written out on Python floats for dim 1 or dim 2 from the method's
tableau, with the reference core's operations in the same order, so the
trajectory is the same byte for byte. λ is read through the schedule's
``checked``, which owns the claim check, at every stage, or once per declared
piece (``jumps``). Where the float gradient form raises (x ** k overflowing,
sin(inf)), or a step reaches a jump, the reference core :func:`_core`, one
loop over the tableau, takes that step through ``field``, and :func:`gradient`
the gradient at its end. Any other field, a custom potential, dim ≥ 3 and the
full surface model step (x, v) as one (2, dim) array, rows x and v, and the
stage block is the reference core, which calls ``field`` at each stage; it
returns (ẋ, v̇) as two (dim,) sequences. Every variant starts from that array
(the float ones unpack it) and appends x, v and ∇Φ to the recorder's flat
buffers as Python floats; the recorder builds every other column in one pass
at the end, Φ through the potential's column form where it has one.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import linecache
import math
import sys
from array import array
from bisect import bisect_right
from typing import Callable, NamedTuple, Optional

import numpy as np

from .dynamics import PhaseState, hbft_field
from .errors import DivergenceError, IntegrationError, ScheduleConsistencyError
from .friction import FrictionSchedule, lambda_values
from .potentials import Potential, Vector, gradient, row_dots, value

FieldFn = Callable[[PhaseState], tuple[Vector, Vector]]


@dataclasses.dataclass(frozen=True)
class StopCondition:
    """When to end a run before the horizon.

    Attributes:
        stationarity_tol: |v| and |∇Φ(x)| must both stay strictly below this
            to count as stationary.
        dwell: How long (in simulated time) stationarity must persist before
            the run stops; guards against transits through slow regions.
        divergence_radius: |x| beyond this ends the run as diverged.
        halt_on_contact_loss: Stop when the reaction force is ≤ 0. Needs a
            reaction callable, so it only makes sense for the surface model.
    """

    stationarity_tol: float = 1e-9
    dwell: float = 1.0
    divergence_radius: float = 1e6
    halt_on_contact_loss: bool = False

    def __post_init__(self):
        if not (self.stationarity_tol > 0):
            raise ValueError(f"stationarity_tol must be positive, got {self.stationarity_tol}")
        if not (self.dwell > 0):
            raise ValueError(f"dwell must be positive, got {self.dwell}")
        if not (self.divergence_radius > 0):
            raise ValueError(f"divergence_radius must be positive, got {self.divergence_radius}")


@dataclasses.dataclass(frozen=True)
class IntegratorConfig:
    """Stepper choice, accuracy knobs, horizon, and sampling policy.

    ``sample_stride`` keeps every k-th accepted step; ``sample_dt`` instead
    keeps the first accepted step at or after each multiple of the sampling
    interval. The initial and final states are always kept. The two sampling
    policies are mutually exclusive.

    Both steppers are explicit, so strongly damped runs need small steps:
    keep λ·h ≲ 1 (the adaptive controller enforces this on its own by
    rejecting steps, at the cost of many evaluations).
    """

    method: str = "dopri45"
    step: Optional[float] = None
    abs_tol: float = 1e-8
    rel_tol: float = 1e-8
    h_min: float = 1e-12
    h_max: float = 0.1
    t_max: float = 10.0
    sample_stride: int = 1
    sample_dt: Optional[float] = None
    max_steps: int = 5_000_000
    stop: StopCondition = dataclasses.field(default_factory=StopCondition)

    def __post_init__(self):
        if self.method not in _TABLEAUX:
            raise ValueError(f"method must be 'rk4' or 'dopri45', got '{self.method}'")
        if _TABLEAUX[self.method].e is None:
            if self.step is None or not (self.step > 0):
                raise ValueError(f"{self.method} needs a positive fixed step, got {self.step}")
        else:
            if not (self.abs_tol > 0 and self.rel_tol > 0):
                raise ValueError(
                    f"tolerances must be positive, got abs_tol={self.abs_tol}, rel_tol={self.rel_tol}"
                )
            if not (0 < self.h_min <= self.h_max):
                raise ValueError(f"need 0 < h_min <= h_max, got h_min={self.h_min}, h_max={self.h_max}")
        if not (self.t_max > 0 and math.isfinite(self.t_max)):
            raise ValueError(f"t_max must be positive and finite, got {self.t_max}")
        if self.sample_stride < 1:
            raise ValueError(f"sample_stride must be >= 1, got {self.sample_stride}")
        if self.sample_dt is not None and not (self.sample_dt > 0):
            raise ValueError(f"sample_dt must be positive, got {self.sample_dt}")
        if self.sample_dt is not None and self.sample_stride != 1:
            raise ValueError("sample_dt and sample_stride are mutually exclusive")
        if self.max_steps < 1:
            raise ValueError(f"max_steps must be >= 1, got {self.max_steps}")


@dataclasses.dataclass(frozen=True)
class StepStats:
    """Bookkeeping for one run: step counts and the step-size range used."""

    accepted: int
    rejected: int
    smallest_step: float
    largest_step: float


@dataclasses.dataclass
class Trajectory:
    """Sampled run of one model: column arrays plus termination metadata.

    Columns are aligned: row k holds time ``t[k]``, position ``x[k]``
    (shape (dim,)), velocity ``v[k]``, energy E = ½|v|² + Φ(x), the friction
    value λ(t), |∇Φ(x)|, and the dissipation rate −λ(t)|v|².
    """

    t: np.ndarray
    x: np.ndarray
    v: np.ndarray
    energy: np.ndarray
    lam: np.ndarray
    grad_norm: np.ndarray
    dissipation: np.ndarray
    termination_reason: str
    step_stats: StepStats

    @property
    def n_samples(self) -> int:
        return self.t.size

    @property
    def dim(self) -> int:
        return self.x.shape[1]

    @property
    def t_final(self) -> float:
        return float(self.t[-1])

    def speeds(self) -> np.ndarray:
        """|v| per sample."""
        return np.linalg.norm(self.v, axis=1)


# --- steppers ---------------------------------------------------------------
#
# A method is its Butcher tableau. _core steps the array kernel's (2, dim)
# float array, rows x and v, by any entry of _TABLEAUX, through the caller's
# field on stage states built unchecked; the float kernels write their stages
# out from the same entry.


_stage = PhaseState._trusted
_INF = math.inf
_OUT_OF_STEPS = "step budget exhausted: {0.max_steps} steps before reaching t_max={0.t_max}"
_UNDERFLOW = "adaptive step underflow: needed step below h_min={0.h_min} at t={1}"


class _Tableau(NamedTuple):
    """An explicit Runge-Kutta method. A's rows, B and E hold their (j, w)
    entries with w != 0, in order. A step is y + (h / divisor)·Σ b_j k_j;
    E, given for an adaptive method, weighs the 5th- minus the 4th-order
    step, so h·Σ e_j k_j estimates its local error."""

    a: tuple
    c: tuple
    b: tuple
    divisor: float
    e: Optional[tuple]


def _tableau(a: tuple, c: tuple, b: tuple, divisor: float, e: Optional[tuple] = None) -> _Tableau:
    def entries(row: tuple) -> tuple:
        return tuple((j, w) for j, w in enumerate(row) if w != 0.0)

    return _Tableau(tuple(map(entries, a)), c, entries(b), divisor, None if e is None else entries(e))


_DP_B = (35.0 / 384.0, 0.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0, 11.0 / 84.0)
_TABLEAUX = {
    "rk4": _tableau(a=((), (0.5,), (0.0, 0.5), (0.0, 0.0, 1.0)), c=(0.0, 0.5, 0.5, 1.0),
                    b=(1.0, 2.0, 2.0, 1.0), divisor=6.0),
    # Dormand-Prince 5(4): the 7th stage is the slope at y5 (its row of A is B)
    "dopri45": _tableau(
        a=(
            (), (1.0 / 5.0,), (3.0 / 40.0, 9.0 / 40.0),
            (44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0),
            (19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0),
            (9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0, 49.0 / 176.0, -5103.0 / 18656.0),
            _DP_B,
        ),
        c=(0.0, 1.0 / 5.0, 3.0 / 10.0, 4.0 / 5.0, 8.0 / 9.0, 1.0, 1.0), b=_DP_B, divisor=1.0,
        e=(71.0 / 57600.0, 0.0, -71.0 / 16695.0, 71.0 / 1920.0, -17253.0 / 339200.0, 22.0 / 525.0, -1.0 / 40.0),
    ),
}


def _finite(a) -> bool:
    """Whether every entry of ``a`` (an array, or a tuple of arrays of one
    shape) is finite."""
    # tolist() + all() skips the reduction machinery of ndarray.all(), which
    # costs more than the test itself on the short arrays stepped here.
    return all(np.isfinite(a).ravel().tolist())


def _slope(field: FieldFn, t: float, y):
    """The field at (t, y) as one array of y's shape: rows ẋ and v̇."""
    return np.array(field(_stage(t, y[0], y[1]))).reshape(y.shape)


def _weighted(weights: tuple, ks: list):
    """Σ w·ks[j] over the (j, w) entries of ``weights``, left to right from
    the first term, a weight of 1.0 leaving its term bare: the sum the float
    kernels spell out."""
    acc = None
    for j, w in weights:
        term = ks[j] if w == 1.0 else w * ks[j]
        acc = term if acc is None else acc + term
    return acc


def _core(tableau: _Tableau, field: FieldFn, t: float, y, h: float):
    """One step of ``tableau`` from (t, y): y1, or (y1, err) if it is adaptive."""
    a, c, b, divisor, e = tableau
    k: list = []
    for row, ci in zip(a, c):
        yi = y
        for j, aij in row:
            yi = yi + (h * aij) * k[j]
        k.append(_slope(field, t + ci * h, yi))
    y1 = y + (h / divisor) * _weighted(b, k)
    return y1 if e is None else (y1, h * _weighted(e, k))


def _error_ratio(y, y1, err, atol: float, rtol: float) -> float:
    scale = atol + rtol * np.maximum(np.abs(y), np.abs(y1))
    return float(np.sqrt(np.mean((err / scale).ravel() ** 2)))


def _initial_step(f: FieldFn, t: float, y, cfg: IntegratorConfig) -> float:
    scale = cfg.abs_tol + cfg.rel_tol * np.abs(y)
    d0 = float(np.sqrt(np.mean((y / scale).ravel() ** 2)))
    d1 = float(np.sqrt(np.mean((_slope(f, t, y) / scale).ravel() ** 2)))
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    return min(max(h0, cfg.h_min), cfg.h_max, cfg.t_max)


# --- recording --------------------------------------------------------------


class _Recorder:
    """Holds t and the components of x, v and ∇Φ per sample, as the Python
    floats the kernel appends, and builds the columns.

    Energy, λ, |∇Φ| and dissipation are built as whole columns: Φ through the
    potential's column form where it has one (else ``value`` per row), λ
    through ``lambda_values``, and |v|² and |∇Φ|² as numpy's dot per row.
    """

    def __init__(self, p: Potential, s: FrictionSchedule):
        self.p, self.s = p, s
        self.t, self.x, self.v, self.g = array("d"), array("d"), array("d"), array("d")

    def build(self, reason: str, stats: StepStats) -> Trajectory:
        n = len(self.t)
        t = np.array(self.t)
        x, v, g = (np.array(buf).reshape(n, -1) for buf in (self.x, self.v, self.g))
        column = self.p.column_value_fn
        phi = column(x) if column is not None else np.array([value(self.p, xk) for xk in x])
        # |v|² as dynamics.energy takes it, and |∇Φ|²: numpy's dot per row
        vv = row_dots(v, v)
        lam = lambda_values(self.s, t)
        return Trajectory(
            t=t,
            x=x,
            v=v,
            energy=0.5 * vv + phi,
            lam=lam,
            grad_norm=np.sqrt(row_dots(g, g)),
            # + 0.0 turns -0.0 at v = 0 into 0.0, as dynamics.dissipation_rate
            dissipation=-lam * vv + 0.0,
            termination_reason=reason,
            step_stats=stats,
        )

    def finish(self, reason: str, stats: StepStats, t: float, x, v, g) -> Trajectory:
        """The run, ended by the sample (t, x, v, g) unless t is the last one."""
        if self.t[-1] != t:
            self.t.append(t)
            self.x.extend(x)
            self.v.extend(v)
            self.g.extend(g)
        return self.build(reason, stats)

    def abort(self, message: str, stats: StepStats) -> IntegrationError:
        return IntegrationError(message, partial=self.build("aborted", stats))

    def attach(self, exc: ScheduleConsistencyError, stats: StepStats) -> None:
        """Give ``exc`` the run so far, unless λ is broken at a sample too."""
        with contextlib.suppress(ScheduleConsistencyError):
            exc.partial = self.build("aborted", stats)


def _next_tick(t: float, sample_dt: float, eps_t: float) -> float:
    """The first tick k·sample_dt above t + eps_t, in one step: below the float
    spacing of t it rounds to at most t + eps_t, and every step is sampled.
    The min keeps the quotient of a subnormal sample_dt finite."""
    return (math.floor(min((t + eps_t) / sample_dt, sys.float_info.max)) + 1) * sample_dt


def _stats(accepted: int, rejected: int, h_small: float, h_big: float) -> StepStats:
    return StepStats(accepted, rejected, *((h_small, h_big) if accepted else (0.0, 0.0)))


# --- the kernel -----------------------------------------------------------------
#
# One loop per (dim, method), generated: it holds the step budget, the Kahan
# clock, the stop rules, the sampling and dopri45's step control in one frame;
# its stage block and state names are the variant's. The float variants (dim 1
# and 2) write the stages out per component from the method's tableau, _core's
# expression tree operation by operation, so the doubles are _core's, and call
# nothing per step but λ, once per declared piece, and ∇Φ. Only tableau
# constants become literals, through repr, which round-trips. The array variant
# (dim 0) steps the (2, dim) array through _core. Every variant takes (rec,
# cfg, field, reaction, y), y the (2, dim) start.

_KERNEL = """\
def kernel(rec, cfg, field, reaction, y):
    isfinite, sqrt, hypot = math.isfinite, math.sqrt, math.hypot
    p, tableau = rec.p, _TABLEAUX[{method!r}]
    lam_of, form = rec.s.checked, p.float_gradient_fn
    stop = cfg.stop
    tol, dwell, radius = stop.stationarity_tol, stop.dwell, stop.divergence_radius
    halt = stop.halt_on_contact_loss
    t_max, max_steps, sample_dt, stride = cfg.t_max, cfg.max_steps, cfg.sample_dt, cfg.sample_stride
    atol, rtol, h_min, h_max = cfg.abs_tol, cfg.rel_tol, cfg.h_min, cfg.h_max
    eps_t = 1e-12 * max(1.0, t_max)
    put_t, put_x, put_v, put_g = rec.t.append, rec.x.append, rec.v.append, rec.g.append
{unpack}
    h = {h}
    t, t_comp, next_sample, accepted, rejected, h_small, h_big = 0.0, 0.0, sample_dt, 0, 0, _INF, {h_big}
{first}
    below_since = 0.0 if hypot({vs}) < tol and hypot({gs}) < tol else None
    while (remaining := t_max - t) > eps_t:
        if {spent} >= max_steps:
            raise rec.abort(_OUT_OF_STEPS.format(cfg), _stats(accepted, rejected, h_small, h_big))
        hs = h if h < remaining else remaining
        try:
{stages}
        except DivergenceError:
            {diverged}
        except ScheduleConsistencyError as exc:
            rec.attach(exc, _stats(accepted, rejected, h_small, h_big))
            raise
        else:
{check}{control}
        dt = hs - t_comp
        t_next = t + dt
        t, t_comp = t_next, (t_next - t) - dt
        {advance}
        accepted += 1
{h_range}
{grad}
        if hypot({xs}) > radius:
            return rec.finish("diverged", {end}){contact}
        if hypot({vs}) < tol and hypot({gs}) < tol:
            if below_since is None:
                below_since = t
            if t - below_since >= dwell:
                return rec.finish("stationary", {end})
        else:
            below_since = None
        if sample_dt is not None:
            if t < next_sample - eps_t:
                continue
            next_sample = _next_tick(t, sample_dt, eps_t)
        elif accepted % stride:
            continue
{record}
    return rec.finish("t_max", {end})
"""

# dopri45's branch after the stages: shrink or grow by the error ratio, which
# the float variants take as numpy's mean of squares on at most 4 entries
# (q * q summed left to right).
_DOPRI_CONTROL = """
        if finite:
{ratio}
        elif hs <= h_min:
            return rec.finish("diverged", {end})
        else:
            ratio = _INF
        if ratio > 1.0:
            rejected += 1
            h = hs * (0.2 if not isfinite(ratio) else max(0.2, 0.9 * ratio ** -0.2))
            if h < h_min:
                raise rec.abort(_UNDERFLOW.format(cfg, t), _stats(accepted, rejected, h_small, h_big))
            continue
        h = min(h_max, hs * (5.0 if ratio == 0.0 else min(5.0, max(0.2, 0.9 * ratio ** -0.2))))"""


def _array_parts(adaptive: bool) -> dict:
    """The array variant's parts: the state is the (2, dim) array y, rows x
    and v, and the stage block is the reference core."""
    return dict(
        unpack=["x, v = y"], X="x.tolist()", V="v.tolist()", G="g.tolist()", grad=["g = gradient(p, x)"],
        stages=["result = _core(tableau, field, t, y, hs)"], finite="_finite(result)",
        ratio=["ratio = _error_ratio(y, *result, atol, rtol)"],
        advance="x, v = y = result[0]" if adaptive else "x, v = y = result",
        xs="*x.tolist()", vs="*v.tolist()", gs="*g.tolist()",
        record=["put_t(t)"] + [f"rec.{p}.extend({p}.tolist())" for p in "xvg"],
    )


def _float_parts(dim: int, tableau: _Tableau, pieces: bool) -> dict:
    """The float variant's parts for ``dim`` 1 or 2: a float per component,
    and the stages written out from ``tableau``, the core as their fallback."""
    comps, rows, times, adaptive = "ab"[:dim], tableau.a, tableau.c, tableau.e is not None
    pairs = [(p, c) for p in "xv" for c in comps]
    # hs * a and t + c * hs once per step each; hs * 1.0 is hs
    coeff = {a: f"c{n}" for n, a in enumerate(dict.fromkeys(a for row in rows for _, a in row))}
    clock = {c: f"tc{n}" for n, c in enumerate(dict.fromkeys(times[1:]))}
    coeff[1.0], clock[0.0] = "hs", "t"

    def each(fmt: str) -> str:
        return ", ".join(fmt.format(c) for c in comps)

    def k(j: int, p: str, c: str) -> str:  # component c of stage j's ẋ (p = "x") or v̇
        return (f"v{c}" if j == 0 else f"V{j}{c}") if p == "x" else f"K{j}{c}"

    def dot(weights: tuple, p: str, c: str) -> str:
        return " + ".join(k(j, p, c) if w == 1.0 else f"{w!r} * {k(j, p, c)}" for j, w in weights)

    stages = [f"{name} = hs * {a!r}" for a, name in coeff.items() if a != 1.0]
    stages += [f"{name} = t + {'' if c == 1.0 else f'{c!r} * '}hs" for c, name in clock.items() if c and not pieces]
    for i, row in enumerate(rows):
        stages += [f"{p.upper()}{i}{c} = {p}{c}" + "".join(f" + {coeff[a]} * {k(j, p, c)}" for j, a in row)
                   for c in (comps if i else ()) for p in "xv"]
        lam, grad = "lam" if pieces else f"lam_of({clock[times[i]]})", f"form({each(f'X{i}{{}}')})" if i else "ga"
        if dim == 1:  # λ before ∇Φ, as in hbft_field
            stages.append(f"K{i}a = -{lam} * {k(i, 'x', 'a')} - {grad}")
        else:
            stages += ([] if pieces else [f"lam = {lam}"]) + ([f"Ga, Gb = {grad}"] if i else [])
            stages += [f"K{i}{c} = -lam * {k(i, 'x', c)} - {'G' if i else 'g'}{c}" for c in comps]

    x, v, g = each("x{}"), each("v{}"), each("g{}")
    X, V = f"({x},)", f"({v},)"
    new, errs = [f"n{p}{c}" for p, c in pairs], [f"e{p}{c}" for p, c in pairs] if adaptive else []
    record = ["put_t(t)"] + [f"put_{p}({p}{c})" for p in "xvg" for c in comps]
    stages += [f"w = hs / {tableau.divisor!r}"]
    stages += [f"n{p}{c} = {p}{c} + w * ({dot(tableau.b, p, c)})" for p, c in pairs]
    stages += [f"{e} = hs * ({dot(tableau.e, p, c)})" for e, (p, c) in zip(errs, pairs)]
    ratio = [f"q{n} = e{p}{c} / (atol + rtol * max(abs({p}{c}), abs(n{p}{c})))" for n, (p, c) in enumerate(pairs)]
    squares = " + ".join(f"q{n} * q{n}" for n in range(len(pairs)))
    ratio.append(f"ratio = sqrt((0.0 + {squares}) / {len(pairs)})")
    core = f"{', '.join(new + errs)} = np.array(_core(tableau, field, t, np.array(({X}, {V})), hs)).ravel().tolist()"
    stages = ["try:", *("    " + row for row in stages), "except (OverflowError, ValueError):", "    " + core]
    if pieces:  # λ is lam until lam_to; a step that reaches lam_to takes the core, which reads λ per stage
        stages = ["if t >= lam_to:", "    lam, lam_to = lam_of(t), ends[bisect_right(ends, t)]",
                  "if t + hs < lam_to:", *("    " + row for row in stages), "else:", "    " + core]
    return dict(
        unpack=[f"{x}, {v} = y.ravel().tolist()"] + ["lam_to, ends = 0.0, (*rec.s.jumps, _INF)"] * pieces,
        X=X, V=V, G=f"({g},)",
        grad=["try:", f"    {g} = form({x})",
              "except (OverflowError, ValueError):", f"    {g}, = gradient(p, {X}).tolist()"],
        stages=stages,
        finite=" and ".join(f"isfinite({name})" for name in new + errs), ratio=ratio,
        advance=f"{x}, {v} = {', '.join(new)}", xs=x, vs=v, gs=g, record=record,
    )


def _kernel_source(dim: int, method: str, pieces: bool) -> str:
    """The text of the kernel for ``method``: on floats for ``dim`` 1 or 2, on
    the (2, dim) array for ``dim`` 0; ``pieces`` reads λ once per declared piece."""
    adaptive = _TABLEAUX[method].e is not None

    def lines(indent: int, *rows: str) -> str:
        return "\n".join(" " * indent + row for row in rows)

    part = _float_parts(dim, _TABLEAUX[method], pieces) if dim else _array_parts(adaptive)
    end = "_stats(accepted, rejected, h_small, h_big), t, {X}, {V}, {G}".format_map(part)
    diverged = f'return rec.finish("diverged", {end})'
    contact = ["if halt and reaction(_stage(t, x, v)) <= 0.0:",
               f'    return rec.finish("contact_lost", {end})']
    if adaptive:
        step = dict(
            check=lines(12, f"finite = {part['finite']}"), diverged="finite = False",
            control=_DOPRI_CONTROL.format(ratio=lines(12, *part["ratio"]), end=end),
            h_range=lines(8, "if hs < h_small:", "    h_small = hs", "if hs > h_big:", "    h_big = hs"),
            h="_initial_step(field, 0.0, y, cfg)",
            h_big="0.0", spent="accepted + rejected",
        )
    else:
        # remaining only shrinks, so the first step is the longest and the last the shortest
        step = dict(
            check=lines(12, f"if not ({part['finite']}):", "    " + diverged), diverged=diverged,
            control="", h_range=lines(8, "h_small = hs"), h="float(cfg.step)", h_big="min(h, t_max)",
            spent="accepted",
        )
    return _KERNEL.format_map(part | step | dict(
        method=method, end=end, unpack=lines(4, *part["unpack"], *part["grad"]), grad=lines(8, *part["grad"]),
        stages=lines(12, *part["stages"]), first=lines(4, *part["record"]),
        # dopri45 steps below t's spacing leave t as it was: record it once
        record=lines(8, *["if rec.t[-1] == t:", "    continue"] * adaptive, *part["record"]),
        contact="" if dim else "\n" + lines(8, *contact),
    ))


def _on_floats(field, p: Potential, s: FrictionSchedule, reaction) -> bool:
    """Whether a float kernel runs: ``field`` is the documented binding of the
    reduced model to ``p`` and ``s``, and ``p`` has a float gradient form."""
    return (
        reaction is None
        and type(field) is functools.partial
        and field.func is hbft_field
        and len(field.args) == 2
        and field.args[0] is p
        and field.args[1] is s
        and not field.keywords
        and p.float_gradient_fn is not None
        and p.dim <= 2
    )


@functools.cache
def _kernel(dim: int, method: str, pieces: bool) -> Callable:
    """The kernel for ``dim`` (0 for the array variant), ``method`` and
    ``pieces``, compiled on first use."""
    variant = (f"dim {dim}" + ", pieces" * pieces) if dim else "arrays"
    source, name = _kernel_source(dim, method, pieces), f"<hbft {method} kernel, {variant}>"
    linecache.cache[name] = (len(source), None, source.splitlines(True), name)  # for tracebacks
    scope = dict(globals())
    exec(compile(source, name, "exec"), scope)
    return scope["kernel"]


@np.errstate(over="ignore", invalid="ignore")
def integrate(
    field: FieldFn,
    p: Potential,
    s: FrictionSchedule,
    initial: PhaseState,
    cfg: IntegratorConfig,
    reaction: Optional[Callable[[PhaseState], float]] = None,
) -> Trajectory:
    """Run one model from ``initial`` until a stop condition or the horizon.

    Args:
        field: Phase-space right-hand side, state ↦ (ẋ, v̇). Bind the model
            (and its potential/schedule/mechanics) before calling, e.g.
            ``functools.partial(hbft_field, p, s)``, whose stages the
            kernel writes out on floats (see the module docstring).
        p: Potential; used for the energy / gradient-norm columns and the
            stationarity stop condition.
        s: Schedule; used for the λ / dissipation columns.
        initial: Starting state; its time must be 0.
        cfg: Stepper, horizon, and sampling configuration.
        reaction: State ↦ reaction force, required when
            ``cfg.stop.halt_on_contact_loss`` is set.

    The inputs are validated here; the generated kernel then runs the whole
    loop, with the stage block :func:`_on_floats` picks.

    Returns:
        The sampled trajectory. The initial and final states are always
        among the samples.

    Floating-point overflow and invalid operations raise no numpy warnings
    here: a run that overflows ends ``diverged``, which reports it.

    Raises:
        IntegrationError: when the adaptive stepper underflows ``h_min`` or
            the step budget is exhausted; the partial trajectory is attached
            to the exception with termination_reason "aborted".
        ScheduleConsistencyError: when λ breaks the schedule's claim; the
            partial trajectory is attached likewise, unless λ is broken at
            one of its samples too.
        ValueError: for a nonzero initial time, a dimension mismatch with
            the potential, or a missing reaction callable.
    """
    if initial.t != 0.0:
        raise ValueError(f"initial state must start at t=0, got t={initial.t}")
    if initial.dim != p.dim:
        raise ValueError(
            f"initial state has dim {initial.dim} but potential '{p.name}' has dim {p.dim}"
        )
    if not initial.is_finite():
        raise ValueError("initial state has non-finite components")
    if cfg.stop.halt_on_contact_loss and reaction is None:
        raise ValueError("halt_on_contact_loss requires a reaction callable")

    floats = _on_floats(field, p, s, reaction)
    return _kernel(p.dim if floats else 0, cfg.method, floats and s.jumps is not None)(
        _Recorder(p, s), cfg, field, reaction, np.array((initial.x, initial.v))  # rows x and v
    )
