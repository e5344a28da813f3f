"""Time integration of the phase-space fields with stop conditions.

Two steppers are provided:

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

Inputs are validated once, at the :func:`integrate` boundary. The stage
states handed to the field are built unchecked from float arithmetic on
validated arrays, and finiteness is tested once per attempted step, on its
result.

Fast path. When ``field`` is ``functools.partial(hbft_field, p, s)`` for the
``p`` and ``s`` passed in, ``p`` has a float gradient form (every builtin
potential at dim 1 and 2) and no reaction is given, the steppers run on
Python floats (dim 1) or float pairs (dim 2) instead of numpy arrays, with the
same arithmetic operation by operation, so the trajectory is the same byte for
byte. Each stage calls the float form, which never raises; the gradient at the
end of a step is reused as the next step's first stage, and λ is read through
the schedule's ``checked``, which owns the claim check: this module holds none.
Any other field, a custom potential, dim ≥ 3 and the full surface model take
the generic array path. rk4 at dim 1 runs in :func:`_rk4_floats`, one frame
per step; every other case shares the loop in :func:`integrate`. The recorder
keeps the components of x, v and ∇Φ in flat buffers and builds every other
column in one pass at the end, Φ through the potential's column form where it
has one.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import math
import sys
from array import array
from typing import Callable, Optional

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
        if self.method not in ("rk4", "dopri45"):
            raise ValueError(f"method must be 'rk4' or 'dopri45', got '{self.method}'")
        if self.method == "rk4":
            if self.step is None or not (self.step > 0):
                raise ValueError(f"rk4 needs a positive fixed step, got {self.step}")
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
# The cores step any state type with +, - and scalar *: (dim,) float arrays on
# the generic path, floats on the dim-1 kernel. d(t, x, v, g) is the field,
# (ẋ, v̇) at (t, x, v); the kernel takes g = ∇Φ(x) when it is known.


_stage = PhaseState._trusted
_INF = math.inf
_OUT_OF_STEPS = "step budget exhausted: {0.max_steps} steps before reaching t_max={0.t_max}"


def _norm(a: Vector) -> float:
    """|a| for a 1-d float array: the dot product and square root that
    ``np.linalg.norm`` computes, without its dispatch."""
    return math.sqrt(a.dot(a))


def _finite(*arrays: Vector) -> bool:
    # tolist() + all() skips the reduction machinery of ndarray.all(), which
    # costs more than the test itself on the short vectors stepped here.
    return all(all(np.isfinite(a).tolist()) for a in arrays)


def _rk4_core(d, t: float, x, v, h: float, g):
    k1x, k1v = d(t, x, v, g)
    k2x, k2v = d(t + 0.5 * h, x + 0.5 * h * k1x, v + 0.5 * h * k1v)
    k3x, k3v = d(t + 0.5 * h, x + 0.5 * h * k2x, v + 0.5 * h * k2v)
    k4x, k4v = d(t + h, x + h * k3x, v + h * k3v)
    x1 = x + (h / 6.0) * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
    v1 = v + (h / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
    return x1, v1


def _nonzero(row: tuple) -> tuple:
    return tuple((j, a) for j, a in enumerate(row) if a != 0.0)


# Dormand-Prince 5(4) tableau, each row as its (j, a) entries with a != 0, in
# order. _DP_E is the difference between the 5th- and 4th-order weights; its
# dot with the stages estimates the local error.
_DP_C = (0.0, 1.0 / 5.0, 3.0 / 10.0, 4.0 / 5.0, 8.0 / 9.0, 1.0, 1.0)
_DP_A = tuple(map(_nonzero, (
    (),
    (1.0 / 5.0,),
    (3.0 / 40.0, 9.0 / 40.0),
    (44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0),
    (19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0),
    (9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0, 49.0 / 176.0, -5103.0 / 18656.0),
    (35.0 / 384.0, 0.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0, 11.0 / 84.0),
)))
_DP_B5 = _DP_A[6]  # the 5th-order weights are the last row of A (b7 = 0)
_DP_E = _nonzero((
    71.0 / 57600.0,
    0.0,
    -71.0 / 16695.0,
    71.0 / 1920.0,
    -17253.0 / 339200.0,
    22.0 / 525.0,
    -1.0 / 40.0,
))


def _weighted(weights: tuple, ks: list):
    """Σ w·ks[j] over the (j, w) entries of ``weights``."""
    # Left to right from 0.0, never sum(): from Python 3.12 sum() of floats is
    # compensated and would round differently from the array path.
    acc = 0.0
    for j, w in weights:
        acc = acc + w * ks[j]
    return acc


def _dopri_core(d, t: float, x, v, h: float, g):
    """One Dormand-Prince attempt: (x5, v5, err_x, err_v)."""
    kx: list = []
    kv: list = []
    for i, row in enumerate(_DP_A):
        xi, vi = x, v
        for j, a in row:
            xi = xi + (h * a) * kx[j]
            vi = vi + (h * a) * kv[j]
        dx, dv = d(t + _DP_C[i] * h, xi, vi, g if i == 0 else None)
        kx.append(dx)
        kv.append(dv)
    return (
        x + h * _weighted(_DP_B5, kx),
        v + h * _weighted(_DP_B5, kv),
        h * _weighted(_DP_E, kx),
        h * _weighted(_DP_E, kv),
    )


def _error_ratio(
    x: Vector, v: Vector, x1: Vector, v1: Vector, ex: Vector, ev: Vector, atol: float, rtol: float
) -> float:
    y0 = np.concatenate([x, v])
    y1 = np.concatenate([x1, v1])
    err = np.concatenate([ex, ev])
    scale = atol + rtol * np.maximum(np.abs(y0), np.abs(y1))
    return float(np.sqrt(np.mean((err / scale) ** 2)))


def _initial_step(f: FieldFn, t: float, x: Vector, v: Vector, cfg: IntegratorConfig) -> float:
    dx, dv = f(_stage(t, x, v))
    y = np.concatenate([x, v])
    dy = np.concatenate([dx, dv])
    scale = cfg.abs_tol + cfg.rel_tol * np.abs(y)
    d0 = float(np.sqrt(np.mean((y / scale) ** 2)))
    d1 = float(np.sqrt(np.mean((dy / scale) ** 2)))
    if d0 < 1e-5 or d1 < 1e-5:
        h0 = 1e-6
    else:
        h0 = 0.01 * d0 / d1
    return min(max(h0, cfg.h_min), cfg.h_max, cfg.t_max)


# --- state representations --------------------------------------------------
#
# integrate's loop sees the state through one of these: the two steppers, ∇Φ,
# the size of a state against a threshold, the finiteness test, the dopri
# error ratio and how a state is appended to the recorder's buffers.


class _Arrays:
    """The generic path: (dim,) arrays through the caller's field."""

    finite, error_ratio = staticmethod(_finite), staticmethod(_error_ratio)
    load = staticmethod(np.copy)

    def __init__(self, field: FieldFn, p: Potential):
        self.field, self.grad = field, functools.partial(gradient, p)

    def rk4(self, t: float, x, v, h: float, g):
        return _rk4_core(self.d, t, x, v, h, g)

    def dopri(self, t: float, x, v, h: float, g):
        return _dopri_core(self.d, t, x, v, h, g)

    def d(self, t, x, v, g=None):
        return self.field(_stage(t, x, v))

    @staticmethod
    def size(a: Vector, r: float) -> float:
        return _norm(a)  # only ever compared with r (see _Pairs.size)

    @staticmethod
    def put(buf: array, a: Vector) -> None:
        buf.fromlist(a.tolist())  # array.extend would take a numpy scalar per entry


class _Floats:
    """The float kernel for dim 1: the reduced model on Python floats.

    It repeats the generic path's operations for ``functools.partial(
    hbft_field, p, s)`` on floats, so it gives the same bytes: dopri45 runs
    the shared core on the field ``d``, and rk4 runs in :func:`_rk4_floats`.
    Each stage reads its one λ through ``s.checked``, as ``lambda_at`` does
    (stage times are finite and never negative). ∇Φ is the potential's float
    form itself.
    """

    put, dopri = staticmethod(array.append), _Arrays.dopri

    def __init__(self, p: Potential, s: FrictionSchedule):
        self.lam_of, self.grad = s.checked, p.float_gradient_fn

    def d(self, t, x, v, g=None):
        return v, -self.lam_of(t) * v - (self.grad(x) if g is None else g)

    @staticmethod
    def parts(a: float) -> tuple:
        return (a,)

    @staticmethod
    def size(a: float, r: float) -> float:
        # a*a, not abs(a): they differ where a*a overflows or underflows
        return math.sqrt(a * a)

    @staticmethod
    def finite(*states: float) -> bool:
        return all(map(math.isfinite, states))

    def error_ratio(self, x, v, x1, v1, ex, ev, atol: float, rtol: float) -> float:
        parts = self.parts
        y0, y1 = parts(x) + parts(v), parts(x1) + parts(v1)
        total = 0.0
        for e, a, b in zip(parts(ex) + parts(ev), y0, y1):
            q = e / (atol + rtol * max(abs(a), abs(b)))
            # numpy's mean of arr**2 on at most 4 entries: q*q summed left to right
            total = total + q * q
        return math.sqrt(total / len(y0))

    @staticmethod
    def load(a: Vector) -> float:
        return a.tolist()[0]


# Where a0*a0 + a1*a1 neither overflows nor loses precision to subnormals.
_NORMAL_MIN, _NORMAL_MAX = sys.float_info.min, sys.float_info.max


class _Pairs(_Floats):
    """The float kernel for dim 2, on (a, b) tuples.

    Its steppers are the shared cores written out per component: the same
    operations in the same order, without an object per operation. A step
    makes no numpy call unless a size lies within rounding of a threshold
    or the form falls back to numpy.
    """

    put = staticmethod(array.extend)

    def __init__(self, p: Potential, s: FrictionSchedule):
        self.lam_of, self.form, self._row = s.checked, p.float_gradient_fn, np.empty(2)

    def rk4(self, t: float, x: tuple, v: tuple, h: float, g: tuple) -> tuple:
        lam_of, form, c = self.lam_of, self.form, 0.5 * h
        (xa, xb), (va, vb), (ga, gb) = x, v, g
        lam = lam_of(t)
        k1a, k1b = -lam * va - ga, -lam * vb - gb
        x2a, x2b, v2a, v2b = xa + c * va, xb + c * vb, va + c * k1a, vb + c * k1b
        lam = lam_of(t + c)
        ga, gb = form(x2a, x2b)
        k2a, k2b = -lam * v2a - ga, -lam * v2b - gb
        x3a, x3b, v3a, v3b = xa + c * v2a, xb + c * v2b, va + c * k2a, vb + c * k2b
        lam = lam_of(t + c)
        ga, gb = form(x3a, x3b)
        k3a, k3b = -lam * v3a - ga, -lam * v3b - gb
        x4a, x4b, v4a, v4b = xa + h * v3a, xb + h * v3b, va + h * k3a, vb + h * k3b
        lam = lam_of(t + h)
        ga, gb = form(x4a, x4b)
        k4a, k4b = -lam * v4a - ga, -lam * v4b - gb
        w = h / 6.0
        return (
            (xa + w * (va + 2.0 * v2a + 2.0 * v3a + v4a), xb + w * (vb + 2.0 * v2b + 2.0 * v3b + v4b)),
            (va + w * (k1a + 2.0 * k2a + 2.0 * k3a + k4a), vb + w * (k1b + 2.0 * k2b + 2.0 * k3b + k4b)),
        )

    def dopri(self, t: float, x: tuple, v: tuple, h: float, g: tuple) -> tuple:
        lam_of, form = self.lam_of, self.form
        (xa0, xb0), (va0, vb0) = x, v
        kxa: list = []
        kxb: list = []
        kva: list = []
        kvb: list = []
        for i, row in enumerate(_DP_A):
            xa, xb, va, vb = xa0, xb0, va0, vb0
            for j, a in row:
                c = h * a
                xa, xb = xa + c * kxa[j], xb + c * kxb[j]
                va, vb = va + c * kva[j], vb + c * kvb[j]
            lam = lam_of(t + _DP_C[i] * h)
            ga, gb = g if i == 0 else form(xa, xb)
            kxa.append(va)
            kxb.append(vb)
            kva.append(-lam * va - ga)
            kvb.append(-lam * vb - gb)
        return (
            (xa0 + h * _weighted(_DP_B5, kxa), xb0 + h * _weighted(_DP_B5, kxb)),
            (va0 + h * _weighted(_DP_B5, kva), vb0 + h * _weighted(_DP_B5, kvb)),
            (h * _weighted(_DP_E, kxa), h * _weighted(_DP_E, kxb)),
            (h * _weighted(_DP_E, kva), h * _weighted(_DP_E, kvb)),
        )

    def grad(self, x: tuple) -> tuple:
        return self.form(*x)

    @staticmethod
    def parts(a: tuple) -> tuple:
        return a

    def size(self, a: tuple, r: float) -> float:
        """|a| for comparing with r: through numpy's dot near r, else without.

        a0*a0 + a1*a1 differs from numpy's dot (on 3,530 of 50,000 random
        rows) by a few ulps at most in the normal range, so outside 1e-14
        (about 45 ulps) of r*r it lies on the same side of r.
        """
        a0, a1 = a
        q = a0 * a0 + a1 * a1
        r2 = r * r
        if _NORMAL_MIN < q < _NORMAL_MAX and abs(q - r2) > 1e-14 * r2:
            return math.sqrt(q)
        row = self._row
        row[0], row[1] = a0, a1
        return math.sqrt(row.dot(row))

    @staticmethod
    def finite(x: tuple, v: tuple, ex: tuple = (0.0, 0.0), ev: tuple = (0.0, 0.0)) -> bool:
        (xa, xb), (va, vb), (ea, eb), (fa, fb), ok = x, v, ex, ev, math.isfinite
        return ok(xa) and ok(xb) and ok(va) and ok(vb) and ok(ea) and ok(eb) and ok(fa) and ok(fb)

    @staticmethod
    def load(a: Vector) -> tuple:
        return tuple(a.tolist())


def _representation(field, p: Potential, s: FrictionSchedule, reaction):
    """The float kernel when ``field`` is the documented binding of the reduced
    model to ``p`` and ``s`` and ``p`` has a float gradient form; else arrays."""
    if (
        reaction is None
        and type(field) is functools.partial
        and field.func is hbft_field
        and len(field.args) == 2
        and field.args[0] is p
        and field.args[1] is s
        and not field.keywords
        and p.float_gradient_fn is not None
        and p.dim <= 2
    ):
        return (_Floats if p.dim == 1 else _Pairs)(p, s)
    return _Arrays(field, p)


class _Recorder:
    """Accumulates t and the components of x, v and ∇Φ (through the path's
    ``put``) per sample, and builds the columns.

    Energy, λ, |∇Φ| and dissipation are built as whole columns: Φ through the
    potential's column form where it has one (else ``value`` per row), λ
    through ``lambda_values``, and |v|² and |∇Φ|² as numpy's dot per row.
    """

    def __init__(self, p: Potential, s: FrictionSchedule, put: Callable):
        self.p, self.s, self.put = p, s, put
        self.t, self.x, self.v, self.g = array("d"), array("d"), array("d"), array("d")

    def record(self, t: float, x, v, g) -> None:
        if self.t and self.t[-1] == t:
            return
        self.t.append(t)
        put = self.put
        put(self.x, x)
        put(self.v, v)
        put(self.g, g)

    def build(self, reason: str, stats: StepStats) -> Trajectory:
        n = len(self.t)
        t = np.array(self.t)
        x, v, g = (np.array(buf).reshape(n, -1) for buf in (self.x, self.v, self.g))
        column = self.p.column_value_fn
        phi = column(x) if column is not None else np.array([value(self.p, xk) for xk in x])
        # |v|² as dynamics.energy takes it and |∇Φ| as _norm: numpy's dot per row
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
        self.record(t, x, v, g)
        return self.build(reason, stats)

    def abort(self, message: str, stats: StepStats) -> IntegrationError:
        return IntegrationError(message, partial=self.build("aborted", stats))

    def attach(self, exc: ScheduleConsistencyError, stats: StepStats) -> None:
        """Give ``exc`` the run so far, unless λ is broken at a sample too."""
        with contextlib.suppress(ScheduleConsistencyError):
            exc.partial = self.build("aborted", stats)


def _stats(accepted: int, rejected: int, h_small: float, h_big: float) -> StepStats:
    return StepStats(accepted, rejected, *((h_small, h_big) if accepted else (0.0, 0.0)))


def _rk4_floats(model: _Floats, rec: _Recorder, cfg: IntegratorConfig, x: float, v: float,
                g: float, below_since: Optional[float]) -> Trajectory:
    """integrate's loop around ``_rk4_core`` on ``_Floats.d``, the same operations
    in the same order, in one frame: no call per step but λ and ∇Φ. Samples go
    straight to the buffers, as t grows on every step (only the last may repeat)."""
    lam_of, grad, isfinite, sqrt = model.lam_of, model.grad, math.isfinite, math.sqrt
    tol, dwell, radius = cfg.stop.stationarity_tol, cfg.stop.dwell, cfg.stop.divergence_radius
    t_max, max_steps, sample_dt, stride = cfg.t_max, cfg.max_steps, cfg.sample_dt, cfg.sample_stride
    eps_t = 1e-12 * max(1.0, t_max)
    put_t, put_x, put_v, put_g = rec.t.append, rec.x.append, rec.v.append, rec.g.append
    h = float(cfg.step)
    # remaining only shrinks, so the first step is the longest and the last the shortest
    t, t_comp, next_sample, accepted, h_small, h_big = 0.0, 0.0, sample_dt, 0, _INF, min(h, t_max)
    while (remaining := t_max - t) > eps_t:
        if accepted >= max_steps:
            raise rec.abort(_OUT_OF_STEPS.format(cfg), _stats(accepted, 0, h_small, h_big))
        hs = h if h < remaining else remaining
        c, tc, th = 0.5 * hs, t + 0.5 * hs, t + hs
        try:
            k1 = -lam_of(t) * v - g
            x2, v2 = x + c * v, v + c * k1
            k2 = -lam_of(tc) * v2 - grad(x2)
            x3, v3 = x + c * v2, v + c * k2
            k3 = -lam_of(tc) * v3 - grad(x3)
            x4, v4 = x + hs * v3, v + hs * k3
            k4 = -lam_of(th) * v4 - grad(x4)
        except DivergenceError:
            return rec.finish("diverged", _stats(accepted, 0, h_small, h_big), t, x, v, g)
        except ScheduleConsistencyError as exc:
            rec.attach(exc, _stats(accepted, 0, h_small, h_big))
            raise
        w = hs / 6.0
        x1, v1 = x + w * (v + 2.0 * v2 + 2.0 * v3 + v4), v + w * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not (isfinite(x1) and isfinite(v1)):
            return rec.finish("diverged", _stats(accepted, 0, h_small, h_big), t, x, v, g)
        y = hs - t_comp
        t_next = t + y
        t, t_comp = t_next, (t_next - t) - y
        x, v = x1, v1
        accepted, h_small = accepted + 1, hs
        g = grad(x)
        # sizes as _Floats.size takes them
        if sqrt(x * x) > radius:
            return rec.finish("diverged", _stats(accepted, 0, h_small, h_big), t, x, v, g)
        if sqrt(v * v) < tol and sqrt(g * g) < tol:
            if below_since is None:
                below_since = t
            if t - below_since >= dwell:
                return rec.finish("stationary", _stats(accepted, 0, h_small, h_big), t, x, v, g)
        else:
            below_since = None
        if sample_dt is not None:
            if t < next_sample - eps_t:
                continue
            while next_sample <= t + eps_t:
                next_sample += sample_dt
        elif accepted % stride:
            continue
        put_t(t)
        put_x(x)
        put_v(v)
        put_g(g)
    return rec.finish("t_max", _stats(accepted, 0, h_small, h_big), t, x, v, g)


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
            ``functools.partial(hbft_field, p, s)``, which takes the fast
            path described in the module docstring.
        p: Potential; used for the energy / gradient-norm columns and the
            stationarity stop condition.
        s: Schedule; used for the λ / dissipation columns.
        initial: Starting state; its time must be 0.
        cfg: Stepper, horizon, and sampling configuration.
        reaction: State ↦ reaction force, required when
            ``cfg.stop.halt_on_contact_loss`` is set.

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

    model = _representation(field, p, s, reaction)
    rec = _Recorder(p, s, model.put)
    record, grad, size, is_finite = rec.record, model.grad, model.size, model.finite
    stop = cfg.stop
    tol, dwell, radius = stop.stationarity_tol, stop.dwell, stop.divergence_radius
    halt, t_max, max_steps = stop.halt_on_contact_loss, cfg.t_max, cfg.max_steps
    sample_dt, sample_stride = cfg.sample_dt, cfg.sample_stride
    eps_t = 1e-12 * max(1.0, t_max)

    t, t_comp = 0.0, 0.0
    x, v = model.load(initial.x), model.load(initial.v)
    g = grad(x)
    record(t, x, v, g)

    accepted, rejected, h_small, h_big = 0, 0, math.inf, 0.0

    # Stationarity dwell clock; may start at t=0.
    below_since: Optional[float] = None
    if size(v, tol) < tol and size(g, tol) < tol:
        below_since = 0.0

    adaptive = cfg.method == "dopri45"
    if not adaptive and type(model) is _Floats:
        return _rk4_floats(model, rec, cfg, x, v, g, below_since)
    next_sample = sample_dt
    step = model.dopri if adaptive else model.rk4
    h = _initial_step(field, t, initial.x, initial.v, cfg) if adaptive else float(cfg.step)

    while (remaining := t_max - t) > eps_t:
        if accepted + rejected >= max_steps:
            raise rec.abort(_OUT_OF_STEPS.format(cfg), _stats(accepted, rejected, h_small, h_big))

        h_try = h if h < remaining else remaining
        try:
            result = step(t, x, v, h_try, g)
        except DivergenceError:
            finite = False
        except ScheduleConsistencyError as exc:
            rec.attach(exc, _stats(accepted, rejected, h_small, h_big))
            raise
        else:
            finite = is_finite(*result)
        if adaptive:
            ratio = model.error_ratio(x, v, *result, cfg.abs_tol, cfg.rel_tol) if finite else math.inf
            if not finite and h_try <= cfg.h_min:
                # Cannot shrink further; treat as divergence at the last good state.
                return rec.finish("diverged", _stats(accepted, rejected, h_small, h_big), t, x, v, g)
            if ratio > 1.0:
                rejected += 1
                shrink = 0.2 if not math.isfinite(ratio) else max(0.2, 0.9 * ratio ** -0.2)
                h = h_try * shrink
                if h < cfg.h_min:
                    raise rec.abort(
                        f"adaptive step underflow: needed step below h_min={cfg.h_min} at t={t}",
                        _stats(accepted, rejected, h_small, h_big),
                    )
                continue
            grow = 5.0 if ratio == 0.0 else min(5.0, max(0.2, 0.9 * ratio ** -0.2))
            h = min(cfg.h_max, h_try * grow)
        elif not finite:
            return rec.finish("diverged", _stats(accepted, rejected, h_small, h_big), t, x, v, g)

        # Kahan-compensated t += h_try, so 10⁵-step runs do not smear the grid
        y = h_try - t_comp
        t_next = t + y
        t, t_comp = t_next, (t_next - t) - y
        x, v = result[0], result[1]
        accepted += 1
        if h_try < h_small:
            h_small = h_try
        if h_try > h_big:
            h_big = h_try

        g = grad(x)

        if size(x, radius) > radius:
            return rec.finish("diverged", _stats(accepted, rejected, h_small, h_big), t, x, v, g)

        if halt and reaction(_stage(t, x, v)) <= 0.0:
            return rec.finish("contact_lost", _stats(accepted, rejected, h_small, h_big), t, x, v, g)

        if size(v, tol) < tol and size(g, tol) < tol:
            if below_since is None:
                below_since = t
            if t - below_since >= dwell:
                return rec.finish("stationary", _stats(accepted, rejected, h_small, h_big), t, x, v, g)
        else:
            below_since = None

        if sample_dt is not None:
            if t >= next_sample - eps_t:
                record(t, x, v, g)
                while next_sample <= t + eps_t:
                    next_sample += sample_dt
        elif accepted % sample_stride == 0:
            record(t, x, v, g)
    return rec.finish("t_max", _stats(accepted, rejected, h_small, h_big), t, x, v, g)
