"""Time-dependent friction schedules λ(t) and their sampled checks.

A schedule is a scalar function of time t ≥ 0 with optional derivative.
The structural assumptions the rest of the package cares about are
continuity and an eventual upper bound (λ(t) ≤ M for all t ≥ t₁); both are
certified here as grid surrogates, never as proofs.

Builtin catalogue (see :func:`builtin_schedules` / :func:`make_schedule`):

- ``constant``: λ ≡ value, one piece (it declares ``jumps=()``).
- ``power_decay``: λ(t) = initial / (1 + t)^exponent.
- ``oscillating``: λ(t) = base + amplitude · sin(ω t), base ≥ amplitude ≥ 0.
- ``step``: piecewise constant, declared jumps at the given times, no derivative.
- ``linear_growth``: λ(t) = rate · t, unbounded (fails the eventual bound).
"""

from __future__ import annotations

import bisect
import dataclasses
import math
from itertools import repeat
from typing import Callable, Optional

import numpy as np

from .errors import CapabilityError, ScheduleConsistencyError

_INF, _NAN = math.inf, math.nan


@dataclasses.dataclass(frozen=True, eq=False)
class FrictionSchedule:
    """A scalar damping coefficient as a function of time.

    Attributes:
        name: Human-readable identifier for reports and errors.
        lam: t ↦ λ(t).
        lam_dot: t ↦ dλ/dt, or None when the schedule has no derivative
            (piecewise-constant schedules). Several asymptotic guarantees
            have a differentiability premise; without ``lam_dot`` those
            checks report premise_unverified instead of a verdict.
        claims_nonnegative: The schedule promises λ(t) ≥ 0; a negative
            evaluation then raises ScheduleConsistencyError.
        jumps: A promise like ``claims_nonnegative``: λ is constant on [0, j₁),
            [j₁, j₂), …, [jₙ, ∞) for these positive, finite, increasing times,
            so the integrator reads λ once per piece. None promises nothing.
        lam_column: λ over a 1-d array of times t ≥ 0, (N,) → (N,), or None.
            It must give the doubles ``lam`` gives at each time, or decline
            with None; numpy's warnings may be left to the caller. With it,
            :func:`lambda_values` takes a schedule without ``jumps`` in one
            pass instead of one ``lam`` call per sample.

    ``checked`` is derived, not a field: t ↦ float(lam(t)), raising
    ScheduleConsistencyError for a value outside [0, ∞) when the schedule
    claims nonnegativity. It is built once, here, and every consumer reads λ
    through it. Builtins whose values lie in the claim by construction set it
    to ``lam`` itself, so their values are never re-checked.
    """

    name: str
    lam: Callable[[float], float] = dataclasses.field(repr=False)
    lam_dot: Optional[Callable[[float], float]] = dataclasses.field(default=None, repr=False)
    claims_nonnegative: bool = True
    jumps: Optional[tuple[float, ...]] = None
    lam_column: Optional[Callable[[np.ndarray], Optional[np.ndarray]]] = dataclasses.field(
        default=None, repr=False
    )

    def __post_init__(self):
        lam, name, claims = self.lam, self.name, self.claims_nonnegative
        jumps = None if self.jumps is None else tuple(map(float, self.jumps))
        if jumps is not None and not all(a < b for a, b in zip((0.0, *jumps), (*jumps, _INF))):
            raise ValueError(f"schedule '{name}': jumps must be positive, finite and increasing, got {jumps}")
        object.__setattr__(self, "jumps", jumps)

        def checked(t):
            val = float(lam(t))
            if val >= 0.0 and val < _INF or not claims:
                return val
            raise ScheduleConsistencyError(
                f"schedule '{name}' claims nonnegativity but produced {val} at t={t}"
            )

        object.__setattr__(self, "checked", checked)


def lambda_at(s: FrictionSchedule, t: float) -> float:
    """Evaluate λ(t) for t ≥ 0, through ``s.checked`` at ``float(t)``, so a
    numpy float64 t gives the value its Python float does.

    Raises:
        ValueError: for a t that is not >= 0, NaN included (the dynamics
            run on [0, ∞)).
        ScheduleConsistencyError: if the value is negative or non-finite
            although the schedule claims nonnegativity.
    """
    if not t >= 0:
        raise ValueError(f"schedule '{s.name}' evaluated at t={t} < 0")
    return float(s.checked(float(t)))


def lambda_values(s: FrictionSchedule, t) -> np.ndarray:
    """λ at every time of the 1-d array ``t``, as :func:`lambda_at` gives it.

    Up to the first time that is not >= 0, λ is read three ways. Where
    ``s.jumps`` declares the pieces, ``s.checked`` is called once at the
    first sample of each run of consecutive samples in one piece, whose value
    the run repeats. Else ``s.lam_column`` takes every sample at once, under
    ``np.errstate(all="ignore")``, if the schedule has one. Where it declines
    or a value fails the claim, and on every other schedule, ``s.checked`` is
    called once per sample, in order. So the floats are the same and so are
    the errors: the one :func:`lambda_at` raises at the first sample where it
    would raise.
    """
    ts = np.asarray(t, dtype=float)
    refused = np.flatnonzero(~(ts >= 0))
    n = int(refused[0]) if refused.size else ts.size
    read, vals = ts[:n], None
    if s.jumps is not None:  # the piece of each sample, as the kernel's bisect_right finds it
        first = np.flatnonzero(np.diff(np.searchsorted(s.jumps, read, side="right"), prepend=-1))
        read = read[first]
    elif s.lam_column is not None:
        with np.errstate(all="ignore"):
            vals = s.lam_column(read)
        if vals is not None and s.claims_nonnegative and not ((vals >= 0.0) & (vals < _INF)).all():
            vals = None  # so the loop below raises where checked does
    if vals is None:
        vals = np.fromiter(map(s.checked, read.tolist()), float, read.size)
    if refused.size:
        raise ValueError(f"schedule '{s.name}' evaluated at t={float(ts[n])} < 0")
    return vals if s.jumps is None else np.repeat(vals, np.diff(first, append=n))


def lambda_dot_at(s: FrictionSchedule, t: float) -> float:
    """Evaluate dλ/dt at t ≥ 0, at ``float(t)`` as :func:`lambda_at` does.

    Raises:
        CapabilityError: if the schedule carries no derivative.
        ValueError: for a t that is not >= 0, NaN included.
    """
    if s.lam_dot is None:
        raise CapabilityError(f"schedule '{s.name}' has no derivative")
    if not t >= 0:
        raise ValueError(f"schedule '{s.name}' derivative evaluated at t={t} < 0")
    return float(s.lam_dot(float(t)))


@dataclasses.dataclass(frozen=True)
class FrictionHypothesesReport:
    """Grid evidence for continuity and the eventual bound of a schedule.

    ``continuity_ok`` certifies a surrogate only: the largest grid increment
    must stay below 10 times the larger of the increments adjacent to it,
    plus a floor of 1e-12 · (1 + max |λ|). That tracks smooth schedules whose
    slope varies over orders of magnitude and still flags isolated jumps,
    whose neighbors are flat.
    """

    schedule_name: str
    horizon: float
    grid_points: int
    max_increment: float
    continuity_threshold: float
    continuity_ok: bool
    max_after_t1: float
    eventually_bounded: bool
    bound_guess: float
    t1_guess: float
    min_value: float
    has_zeros: bool
    derivative_available: bool
    max_abs_derivative: Optional[float]
    derivative_bounded: Optional[bool]

    @property
    def satisfied(self) -> bool:
        return self.continuity_ok and self.eventually_bounded


def verify_friction_hypotheses(
    s: FrictionSchedule,
    horizon: float,
    grid_points: int = 1000,
    bound_guess: float = 10.0,
    t1_guess: float = 0.0,
) -> FrictionHypothesesReport:
    """Check continuity and the eventual bound of λ on a uniform grid.

    Args:
        s: Schedule under test.
        horizon: End of the sampled window [0, horizon].
        grid_points: Number of grid samples (≥ 2).
        bound_guess: Candidate M for the eventual bound λ(t) ≤ M.
        t1_guess: Candidate onset t₁ of the bound; must lie below horizon.

    Returns:
        A report; ``satisfied`` is True when both surrogates hold.
    """
    if horizon <= t1_guess:
        raise ValueError(f"horizon {horizon} must exceed t1_guess {t1_guess}")
    if horizon <= 0:
        raise ValueError(f"horizon must be positive, got {horizon}")
    if grid_points < 2:
        raise ValueError(f"grid_points must be >= 2, got {grid_points}")
    ts = np.linspace(0.0, horizon, grid_points)
    vals = lambda_values(s, ts)

    inc = np.abs(np.diff(vals))
    k = int(np.argmax(inc))
    max_inc = float(inc[k])
    neighbors = [float(inc[j]) for j in (k - 1, k + 1) if 0 <= j < inc.size]
    threshold = 10.0 * max(neighbors, default=0.0) + 1e-12 * (1.0 + float(np.max(np.abs(vals))))

    after = vals[ts >= t1_guess]
    max_after = float(np.max(after))

    deriv_max: Optional[float] = None
    deriv_bounded: Optional[bool] = None
    if s.lam_dot is not None:
        # the grid starts at t = 0, so lambda_dot_at's checks cannot fail here
        deriv_max = float(np.max(np.abs([float(s.lam_dot(t)) for t in ts.tolist()])))  # keeps a NaN
        deriv_bounded = math.isfinite(deriv_max)

    min_value = float(np.min(vals))
    return FrictionHypothesesReport(
        schedule_name=s.name,
        horizon=horizon,
        grid_points=grid_points,
        max_increment=max_inc,
        continuity_threshold=threshold,
        continuity_ok=max_inc <= threshold,
        max_after_t1=max_after,
        eventually_bounded=max_after <= bound_guess,
        bound_guess=bound_guess,
        t1_guess=t1_guess,
        min_value=min_value,
        has_zeros=min_value <= 0.0,
        derivative_available=s.lam_dot is not None,
        max_abs_derivative=deriv_max,
        derivative_bounded=deriv_bounded,
    )


# --- builtin catalogue -----------------------------------------------------


def _in_claim(s: FrictionSchedule) -> FrictionSchedule:
    """``s`` with ``checked`` set to ``lam``: for a builtin whose every value
    lies in [0, ∞) by construction, so there is nothing to check."""
    object.__setattr__(s, "checked", s.lam)
    return s


def constant(value: float = 1.0) -> FrictionSchedule:
    """λ ≡ value with value ≥ 0."""
    if not (value >= 0 and math.isfinite(value)):
        raise ValueError(f"constant: value must be >= 0 and finite, got {value}")
    v = float(value)
    return _in_claim(FrictionSchedule(
        name=f"constant({v:g})",
        lam=lambda t: v,
        lam_dot=lambda t: 0.0,
        jumps=(),
    ))


def _one_plus(t: float) -> tuple[float, float]:
    """(hi, lo): 1 + t as a float and that float's rounding error, exactly."""
    hi = 1.0 + t
    b = hi - 1.0
    return hi, (1.0 - (hi - b)) + (t - b)


def _power_quotient(c: float, t: float, k: float) -> tuple[float, int]:
    """(m, e) with m · 2^e = c / (1 + t)^k to a few ulps, for c, t ≥ 0 and k > 0.

    1 + t is split into its float and that float's rounding error, so a large
    k does not magnify the rounding, and the power is taken an eighth at a
    time, so nothing overflows where the quotient, times up to k, is normal.
    """
    if t == _INF:
        return 0.0, 0
    hi, lo = _one_plus(t)
    try:
        q = hi ** (k / 8) * math.exp(k / 8 * math.log1p(lo / hi))
    except OverflowError:  # so the quotient is below every normal float
        return 0.0, 0
    (mq, eq), (mc, ec) = math.frexp(q), math.frexp(c)
    return mc / mq**8, ec - 8 * eq


def power_decay(initial: float = 1.0, exponent: float = 1.0) -> FrictionSchedule:
    """λ(t) = initial / (1 + t)^exponent, a vanishing-damping schedule.

    λ lies in [0, initial] for every t ≥ 0. λ and λ' are taken through
    ``_power_quotient`` where (1 + t)^exponent, or exponent · initial,
    overflows a float, and where an exponent above 1 would magnify the
    rounding of 1 + t past half an ulp: to a few ulps where they are normal
    floats, and 0.0 and -0.0 where they underflow. :func:`lambda_at`
    and :func:`lambda_dot_at` pass a Python float; called directly on a
    numpy float64 t, whose power does not raise on overflow, ``lam`` and
    ``lam_dot`` give numpy's 0.0 and -0.0 there. With an exponent of at most
    1, (1 + t)^exponent never overflows, and ``lam_column`` takes λ as ``lam``
    does: IEEE 1 + t and division in numpy, the power by the builtin ``pow``
    of each float.
    """
    if not (initial >= 0 and math.isfinite(initial)):
        raise ValueError(f"power_decay: initial must be >= 0 and finite, got {initial}")
    if not (exponent > 0 and math.isfinite(exponent)):
        raise ValueError(f"power_decay: exponent must be positive and finite, got {exponent}")
    lam0, alpha = float(initial), float(exponent)

    def split(t):
        return math.ldexp(*_power_quotient(lam0, t, alpha))

    def split_dot(t):
        (m, e), (d, f) = _power_quotient(lam0, t, alpha), math.frexp(alpha / (1.0 + t))
        try:
            return -math.ldexp(m * d, e + f)
        except OverflowError:
            return -_INF

    def lam(t):
        try:
            return lam0 / (1.0 + t) ** alpha
        except OverflowError:
            return split(t)

    def lam_dot(t):
        try:
            if (val := -alpha * lam0 / (1.0 + t) ** (alpha + 1.0)) > -_INF:
                return val
        except OverflowError:
            pass
        return split_dot(t)

    def magnified(t):  # alpha · |lo| / hi > 2⁻⁵³, which only an alpha above 1 allows
        hi, lo = _one_plus(t)
        return alpha * abs(lo) > 2.0**-53 * hi

    def lam_column(t):
        return lam0 / np.fromiter(map(pow, (1.0 + t).tolist(), repeat(alpha)), float, t.size)

    return _in_claim(FrictionSchedule(
        name=f"power_decay(initial={lam0:g}, exponent={alpha:g})",
        lam=(lambda t: split(t) if magnified(t) else lam(t)) if alpha > 1.0 else lam,
        lam_dot=(lambda t: split_dot(t) if magnified(t) else lam_dot(t)) if alpha > 1.0 else lam_dot,
        lam_column=None if alpha > 1.0 else lam_column,
    ))


def oscillating(
    base: float = 2.0, amplitude: float = 1.0, angular_frequency: float = 1.0
) -> FrictionSchedule:
    """λ(t) = base + amplitude · sin(ω t) with base ≥ amplitude ≥ 0.

    The constraint keeps λ ≥ 0 everywhere; base == amplitude is allowed and
    produces isolated zeros, which the hypothesis report flags. Where ω t is
    not finite, λ and λ' are NaN, as numpy's sin and cos give them, so a
    claim check refuses them. ``lam_column`` takes ω t and the sum in numpy
    and ``math.sin`` of each float, and declines where some ω t is not finite.
    """
    if not (amplitude >= 0 and math.isfinite(amplitude)):
        raise ValueError(f"oscillating: amplitude must be >= 0 and finite, got {amplitude}")
    if not (base >= amplitude and math.isfinite(base)):
        raise ValueError(
            f"oscillating: base must be >= amplitude to keep λ >= 0, got base={base}, amplitude={amplitude}"
        )
    if not (angular_frequency > 0 and math.isfinite(angular_frequency)):
        raise ValueError(
            f"oscillating: angular_frequency must be positive and finite, got {angular_frequency}"
        )
    a, b, w = float(base), float(amplitude), float(angular_frequency)

    def lam_column(t):
        wt = w * t
        if not np.isfinite(wt).all():
            return None
        return a + b * np.fromiter(map(math.sin, wt.tolist()), float, wt.size)

    return FrictionSchedule(
        name=f"oscillating(base={a:g}, amplitude={b:g}, angular_frequency={w:g})",
        lam=lambda t: a + b * (math.sin(wt) if -_INF < (wt := w * t) < _INF else _NAN),
        lam_dot=lambda t: b * w * (math.cos(wt) if -_INF < (wt := w * t) < _INF else _NAN),
        lam_column=lam_column,
    )


def step(times=(10.0, 20.0), values=(1.0, 0.5, 2.0)) -> FrictionSchedule:
    """Piecewise-constant schedule: λ(t) = values[k] on [times[k-1], times[k]).

    ``values`` has one more entry than ``times`` (the leading piece starts at
    t = 0). No derivative is provided, so differentiability-premised checks
    report premise_unverified for this schedule.
    """
    ts = [float(t) for t in times]
    vs = [float(v) for v in values]
    if len(vs) != len(ts) + 1:
        raise ValueError(
            f"step: need len(values) == len(times) + 1, got {len(vs)} values for {len(ts)} times"
        )
    if any(t <= 0 or not math.isfinite(t) for t in ts) or sorted(ts) != ts or len(set(ts)) != len(ts):
        raise ValueError(f"step: times must be positive, finite, strictly increasing, got {ts}")
    if any(v < 0 or not math.isfinite(v) for v in vs):
        raise ValueError(f"step: values must be >= 0 and finite, got {vs}")

    return _in_claim(FrictionSchedule(
        name=f"step(times={ts}, values={vs})",
        lam=lambda t: vs[bisect.bisect_right(ts, t)],
        lam_dot=None,
        jumps=tuple(ts),
    ))


def linear_growth(rate: float = 1.0) -> FrictionSchedule:
    """λ(t) = rate · t: continuous but with no eventual upper bound."""
    if not (rate > 0 and math.isfinite(rate)):
        raise ValueError(f"linear_growth: rate must be positive and finite, got {rate}")
    c = float(rate)
    return FrictionSchedule(
        name=f"linear_growth(rate={c:g})",
        lam=lambda t: c * t,
        lam_dot=lambda t: c,
    )


_BUILTINS: dict[str, tuple[Callable[..., FrictionSchedule], str]] = {
    "constant": (constant, "lambda(t) = value (params: value)"),
    "power_decay": (
        power_decay,
        "lambda(t) = initial/(1+t)^exponent (params: initial, exponent)",
    ),
    "oscillating": (
        oscillating,
        "lambda(t) = base + amplitude*sin(w t) (params: base, amplitude, angular_frequency)",
    ),
    "step": (step, "piecewise constant, no derivative (params: times, values)"),
    "linear_growth": (linear_growth, "lambda(t) = rate*t, unbounded (params: rate)"),
}


def builtin_schedules() -> list[tuple[str, str]]:
    """List (name, description) for every builtin schedule, sorted by name."""
    return sorted((name, desc) for name, (_, desc) in _BUILTINS.items())


def make_schedule(name: str, **params) -> FrictionSchedule:
    """Construct a builtin schedule by name.

    Raises:
        ValueError: for an unknown name (the message lists the catalogue) or
            for parameters the factory rejects.
    """
    if name not in _BUILTINS:
        known = ", ".join(sorted(_BUILTINS))
        raise ValueError(f"unknown schedule '{name}'; builtin schedules: {known}")
    factory, _ = _BUILTINS[name]
    try:
        return factory(**params)
    except TypeError as exc:
        raise ValueError(f"bad parameters for schedule '{name}': {exc}") from None
