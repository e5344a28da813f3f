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
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, Optional

import numpy as np

from .dynamics import PhaseState
from .errors import DivergenceError, IntegrationError
from .friction import FrictionSchedule, lambda_at
from .potentials import Potential, Vector, gradient, value

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


_stage = PhaseState._trusted


def _norm(a: Vector) -> float:
    """|a| for a 1-d float array: the dot product and square root that
    ``np.linalg.norm`` computes, without its dispatch."""
    return math.sqrt(a.dot(a))


def _finite(*arrays: Vector) -> bool:
    # tolist() + all() skips the reduction machinery of ndarray.all(), which
    # costs more than the test itself on the short vectors stepped here.
    return all(all(np.isfinite(a).tolist()) for a in arrays)


def _rk4_core(f: FieldFn, t: float, x: Vector, v: Vector, h: float) -> tuple[Vector, Vector]:
    k1x, k1v = f(_stage(t, x, v))
    k2x, k2v = f(_stage(t + 0.5 * h, x + 0.5 * h * k1x, v + 0.5 * h * k1v))
    k3x, k3v = f(_stage(t + 0.5 * h, x + 0.5 * h * k2x, v + 0.5 * h * k2v))
    k4x, k4v = f(_stage(t + h, x + h * k3x, v + h * k3v))
    x1 = x + (h / 6.0) * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
    v1 = v + (h / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
    return x1, v1


# Dormand-Prince 5(4) tableau. _DP_E is the difference between the 5th- and
# 4th-order weights; its dot with the stages estimates the local error.
_DP_C = (0.0, 1.0 / 5.0, 3.0 / 10.0, 4.0 / 5.0, 8.0 / 9.0, 1.0, 1.0)
_DP_A = (
    (),
    (1.0 / 5.0,),
    (3.0 / 40.0, 9.0 / 40.0),
    (44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0),
    (19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0),
    (9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0, 49.0 / 176.0, -5103.0 / 18656.0),
    (35.0 / 384.0, 0.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0, 11.0 / 84.0),
)
_DP_B5 = (35.0 / 384.0, 0.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0, 11.0 / 84.0, 0.0)
_DP_E = (
    71.0 / 57600.0,
    0.0,
    -71.0 / 16695.0,
    71.0 / 1920.0,
    -17253.0 / 339200.0,
    22.0 / 525.0,
    -1.0 / 40.0,
)


def _dopri_core(
    f: FieldFn, t: float, x: Vector, v: Vector, h: float
) -> tuple[Vector, Vector, Vector, Vector]:
    """One Dormand-Prince attempt: (x5, v5, err_x, err_v)."""
    kx: list[Vector] = []
    kv: list[Vector] = []
    for i in range(7):
        xi, vi = x, v
        for j, a in enumerate(_DP_A[i]):
            if a != 0.0:
                xi = xi + (h * a) * kx[j]
                vi = vi + (h * a) * kv[j]
        dx, dv = f(_stage(t + _DP_C[i] * h, xi, vi))
        kx.append(dx)
        kv.append(dv)
    x5 = x + h * sum(b * k for b, k in zip(_DP_B5, kx) if b != 0.0)
    v5 = v + h * sum(b * k for b, k in zip(_DP_B5, kv) if b != 0.0)
    err_x = h * sum(e * k for e, k in zip(_DP_E, kx) if e != 0.0)
    err_v = h * sum(e * k for e, k in zip(_DP_E, kv) if e != 0.0)
    return x5, v5, err_x, err_v


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


def _kahan_add(total: float, comp: float, inc: float) -> tuple[float, float]:
    y = inc - comp
    t = total + y
    return t, (t - total) - y


class _Recorder:
    """Accumulates sample rows and materializes the column arrays."""

    def __init__(self, p: Potential, s: FrictionSchedule):
        self.p = p
        self.s = s
        self.rows_t: list[float] = []
        self.rows_x: list[Vector] = []
        self.rows_v: list[Vector] = []
        self.rows_e: list[float] = []
        self.rows_lam: list[float] = []
        self.rows_gn: list[float] = []
        self.rows_dis: list[float] = []

    def record(self, state: PhaseState, grad_norm: float) -> None:
        if self.rows_t and self.rows_t[-1] == state.t:
            return
        self.rows_t.append(state.t)
        # No copies: integrate makes new x and v arrays each step and never
        # writes into them.
        self.rows_x.append(state.x)
        self.rows_v.append(state.v)
        # The arithmetic of dynamics.energy and dynamics.dissipation_rate,
        # with λ(t) and |v|² evaluated once.
        lam = lambda_at(self.s, state.t)
        vv = float(state.v @ state.v)
        self.rows_e.append(0.5 * vv + value(self.p, state.x))
        self.rows_lam.append(lam)
        self.rows_gn.append(grad_norm)
        self.rows_dis.append(-lam * vv + 0.0)

    def build(self, reason: str, stats: StepStats) -> Trajectory:
        return Trajectory(
            t=np.array(self.rows_t),
            x=np.array(self.rows_x),
            v=np.array(self.rows_v),
            energy=np.array(self.rows_e),
            lam=np.array(self.rows_lam),
            grad_norm=np.array(self.rows_gn),
            dissipation=np.array(self.rows_dis),
            termination_reason=reason,
            step_stats=stats,
        )


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
            ``functools.partial(hbft_field, p, s)``.
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

    rec = _Recorder(p, s)
    stop = cfg.stop
    eps_t = 1e-12 * max(1.0, cfg.t_max)

    t, t_comp = 0.0, 0.0
    x, v = initial.x.copy(), initial.v.copy()
    gn = _norm(gradient(p, x))
    rec.record(_stage(t, x, v), gn)

    accepted = 0
    rejected = 0
    h_small = math.inf
    h_big = 0.0

    # Stationarity dwell clock; may start at t=0.
    below_since: Optional[float] = None
    if _norm(v) < stop.stationarity_tol and gn < stop.stationarity_tol:
        below_since = 0.0

    next_sample = cfg.sample_dt if cfg.sample_dt is not None else None
    adaptive = cfg.method == "dopri45"
    h = _initial_step(field, t, x, v, cfg) if adaptive else float(cfg.step)

    def build_stats() -> StepStats:
        return StepStats(
            accepted=accepted,
            rejected=rejected,
            smallest_step=0.0 if accepted == 0 else h_small,
            largest_step=h_big,
        )

    def abort(message: str) -> IntegrationError:
        partial = rec.build("aborted", build_stats())
        return IntegrationError(message, partial=partial)

    while True:
        remaining = cfg.t_max - t
        if remaining <= eps_t:
            rec.record(_stage(t, x, v), gn)
            return rec.build("t_max", build_stats())
        if accepted + rejected >= cfg.max_steps:
            raise abort(
                f"step budget exhausted: {cfg.max_steps} steps before reaching t_max={cfg.t_max}"
            )

        h_try = min(h, remaining)
        if adaptive:
            try:
                x1, v1, ex, ev = _dopri_core(field, t, x, v, h_try)
            except DivergenceError:
                finite = False
            else:
                finite = _finite(x1, v1, ex, ev)
            ratio = (
                _error_ratio(x, v, x1, v1, ex, ev, cfg.abs_tol, cfg.rel_tol) if finite else math.inf
            )
            if not finite and h_try <= cfg.h_min:
                # Cannot shrink further; treat as divergence at the last good state.
                rec.record(_stage(t, x, v), gn)
                return rec.build("diverged", build_stats())
            if ratio > 1.0:
                rejected += 1
                shrink = 0.2 if not math.isfinite(ratio) else max(0.2, 0.9 * ratio ** -0.2)
                h = h_try * shrink
                if h < cfg.h_min:
                    raise abort(
                        f"adaptive step underflow: needed step below h_min={cfg.h_min} at t={t}"
                    )
                continue
            grow = 5.0 if ratio == 0.0 else min(5.0, max(0.2, 0.9 * ratio ** -0.2))
            h = min(cfg.h_max, h_try * grow)
        else:
            try:
                x1, v1 = _rk4_core(field, t, x, v, h_try)
            except DivergenceError:
                finite = False
            else:
                finite = _finite(x1, v1)
            if not finite:
                rec.record(_stage(t, x, v), gn)
                return rec.build("diverged", build_stats())

        t, t_comp = _kahan_add(t, t_comp, h_try)
        x, v = x1, v1
        accepted += 1
        h_small = min(h_small, h_try)
        h_big = max(h_big, h_try)

        gn = _norm(gradient(p, x))
        state = _stage(t, x, v)

        if _norm(x) > stop.divergence_radius:
            rec.record(state, gn)
            return rec.build("diverged", build_stats())

        if stop.halt_on_contact_loss and reaction(state) <= 0.0:
            rec.record(state, gn)
            return rec.build("contact_lost", build_stats())

        if _norm(v) < stop.stationarity_tol and gn < stop.stationarity_tol:
            if below_since is None:
                below_since = t
            if t - below_since >= stop.dwell:
                rec.record(state, gn)
                return rec.build("stationary", build_stats())
        else:
            below_since = None

        if cfg.sample_dt is not None:
            if t >= next_sample - eps_t:
                rec.record(state, gn)
                while next_sample <= t + eps_t:
                    next_sample += cfg.sample_dt
        elif accepted % cfg.sample_stride == 0:
            rec.record(state, gn)
