"""Numerical certificates for the energy and asymptotic properties of runs.

Every check is a pure pass over an already-computed :class:`Trajectory` (no
re-integration happens here) and produces a :class:`CheckRecord` whose
invariant is ``passed == (residual <= threshold)``. Checks that certify an
infinite-horizon statement on a finite window set ``partial_certificate``
in their details: they are evidence on [0, t_max], not proofs of the limit.

The checks:

- :func:`check_energy_monotone`: E never increases between samples.
- :func:`energy_balance_residual`: E(0) − E(T) equals the trapezoid
  quadrature of λ(t)|v(t)|² up to a relative tolerance.
- :func:`check_velocity_bound`: ½|v|² ≤ ½|v₀|² + Φ(x₀) − inf Φ samplewise.
- :func:`tail_asymptotics`: the tail sup of √λ(t)|v(t)| (and of |∇Φ|,
  reported) is small; also gathers the boundedness evidence sup|x|, sup|v|
  and the partial integral ∫λ|v|².
- :func:`barbalat_check`: the vanishing-function certificate: premises
  (∫f² within budget, sup|f| within budget, sup|ḟ| within budget) and the
  conclusion (tail sup |f| small) reported independently.
- :func:`check_acceleration_bound`: sup|ẍ| reconstructed from the reduced
  field is finite and below a caller bound.
- :func:`model_discrepancy`: sup distance between a full-surface run and a
  reduced run from the same start.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Optional

import numpy as np

from .friction import FrictionSchedule, lambda_values
from .integrate import Trajectory
from .potentials import Potential, gradient_rows, row_dots

from .errors import CapabilityError

# Share of the last samples that makes up a run's tail, unless a check is
# given its own.
TAIL_FRACTION = 0.2
# The terminations of a run that was not stopped early; any other
# (diverged, contact_lost) leaves part of its horizon unexamined.
COMPLETE_RUNS = ("t_max", "stationary")


@dataclasses.dataclass(frozen=True)
class CheckRecord:
    """Outcome of one certificate: pass/fail with its residual and threshold.

    ``passed`` is never set independently: it is exactly
    ``residual <= threshold`` (NaN residuals therefore fail). ``details``
    carries check-specific numbers for reports and regression baselines.
    """

    check_name: str
    passed: bool
    residual: float
    threshold: float
    details: dict

    def __post_init__(self):
        if bool(self.residual <= self.threshold) != bool(self.passed):
            raise ValueError(
                f"check '{self.check_name}': passed={self.passed} contradicts "
                f"residual={self.residual} vs threshold={self.threshold}"
            )


def _record(check_name: str, residual: float, threshold: float, **details) -> CheckRecord:
    residual = float(residual)
    return CheckRecord(
        check_name=check_name,
        passed=bool(residual <= threshold),
        residual=residual,
        threshold=float(threshold),
        details=details,
    )


def _json_safe(obj):
    """Recursively convert to types json.dumps handles strictly."""
    if isinstance(obj, dict):
        return {str(k): _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_json_safe(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        f = float(obj)
        if math.isnan(f):
            return "NaN"
        if math.isinf(f):
            return "Infinity" if f > 0 else "-Infinity"
        return f
    return obj


@dataclasses.dataclass
class CertificationReport:
    """All check records for one run plus trajectory metadata."""

    checks: list
    trajectory_meta: dict

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        """Strict-JSON-safe dictionary form (non-finite floats stringified)."""
        return {
            "all_passed": self.all_passed,
            "trajectory": _json_safe(self.trajectory_meta),
            "checks": [_json_safe(dataclasses.asdict(c)) for c in self.checks],
        }

    def render_lines(self) -> list[str]:
        """Fixed-width pass/fail lines, one per check."""
        return [
            f"[{'PASS' if c.passed else 'FAIL'}] {c.check_name:<24} "
            f"residual={c.residual:.6g} threshold={c.threshold:.6g}"
            for c in self.checks
        ]


@dataclasses.dataclass(frozen=True)
class SampledFunction:
    """A scalar function sampled on a strictly increasing time grid.

    ``derivative`` is optional; consumers fall back to finite differences on
    the sample grid when it is absent.
    """

    t: np.ndarray
    value: np.ndarray
    derivative: Optional[np.ndarray] = None

    def __post_init__(self):
        object.__setattr__(self, "t", np.asarray(self.t, dtype=float))
        object.__setattr__(self, "value", np.asarray(self.value, dtype=float))
        if self.t.ndim != 1 or self.t.shape != self.value.shape:
            raise ValueError("t and value must be 1-d arrays of equal length")
        if self.t.size >= 2 and not np.all(np.diff(self.t) > 0):
            raise ValueError("sample times must be strictly increasing")
        if self.derivative is not None:
            object.__setattr__(self, "derivative", np.asarray(self.derivative, dtype=float))
            if self.derivative.shape != self.t.shape:
                raise ValueError("derivative must match the sample grid length")


def _norms(a: np.ndarray):
    """numpy's 2-norm of a vector (a float), or of each row of a matrix,
    with ``math.hypot`` of the entries where their squares overflowed the
    norm to inf but the entries are finite."""
    with np.errstate(over="ignore"):
        norms = np.atleast_1d(np.linalg.norm(a, axis=None if a.ndim == 1 else 1))
    norms = _hypot_where_overflowed(norms, np.atleast_2d(a))
    return norms if a.ndim > 1 else float(norms[0])


def _hypot_where_overflowed(norms: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``norms``, the norms of ``rows``, with ``math.hypot`` of each finite
    row whose norm overflowed to inf."""
    redo = np.flatnonzero(np.isinf(norms) & np.isfinite(rows).all(axis=1))
    norms[redo] = [math.hypot(*row) for row in rows[redo].tolist()]
    return norms


def _sqrt_lam_speed(lam: np.ndarray, v: np.ndarray) -> np.ndarray:
    """√max(λ, 0)·|v| per sample, from λ samples and the rows of ``v``."""
    return np.sqrt(np.maximum(lam, 0.0)) * _norms(v)


def _dissipated(traj: Trajectory, s: FrictionSchedule) -> float:
    """Trapezoid quadrature of λ(t)|v(t)|² on the sample grid, λ from ``s``."""
    return float(np.trapezoid(lambda_values(s, traj.t) * traj.speeds() ** 2, traj.t))


def sqrt_friction_speed(traj: Trajectory) -> SampledFunction:
    """Extract f(t) = √λ(t)·|v(t)| from a trajectory's columns."""
    return SampledFunction(t=traj.t.copy(), value=_sqrt_lam_speed(traj.lam, traj.v))


def _tail_slice(n: int, tail_fraction: float) -> slice:
    if not (0.0 < tail_fraction < 1.0):
        raise ValueError(f"tail_fraction must lie in (0,1), got {tail_fraction}")
    k = max(1, int(math.ceil(tail_fraction * n)))
    return slice(n - k, n)


def _single_sample(traj: Trajectory) -> dict:
    # why a one-sample run certifies nothing; longer runs keep their keys
    return {"n_samples": 1} if traj.n_samples == 1 else {}


def check_energy_monotone(traj: Trajectory, tol: float = 1e-8) -> CheckRecord:
    """Largest energy increase between consecutive samples, vs tol.

    The energy law Ė = −λ|v|² makes E nonincreasing whenever λ ≥ 0; any
    rise beyond integrator noise is a violation. A non-finite energy sample
    certifies nothing: the residual is then NaN (so the check fails), and
    ``worst_increase_at_t`` is the time of the first such sample. Neither
    does a single sample, which has no increase to bound: its residual is
    NaN too, and the details carry ``n_samples``.
    """
    if traj.n_samples == 0:
        raise ValueError("trajectory has no samples")
    nonfinite = ~np.isfinite(traj.energy)
    if nonfinite.any():
        residual = math.nan
        worst_t = float(traj.t[int(np.argmax(nonfinite))])
    elif traj.n_samples == 1:
        residual = math.nan
        worst_t = float(traj.t[0])
    else:
        diffs = np.diff(traj.energy)
        k = int(np.argmax(diffs))
        residual = max(0.0, float(diffs[k]))
        worst_t = float(traj.t[k + 1])
    return _record(
        "energy_monotone",
        residual,
        tol,
        worst_increase_at_t=worst_t,
        initial_energy=float(traj.energy[0]),
        final_energy=float(traj.energy[-1]),
        **_single_sample(traj),
    )


def energy_balance_residual(
    traj: Trajectory, s: FrictionSchedule, threshold: float = 1e-5
) -> CheckRecord:
    """Relative gap between the energy drop and the dissipated energy.

    Compares E(0) − E(T) against Q = ∫₀ᵀ λ(t)|v(t)|² dt computed by
    trapezoid quadrature on the sample grid; the residual is
    |E(0) − E(T) − Q| / max(1, |E(0)|). Quadrature error scales with the
    square of the sample spacing, so densely sampled runs are required for
    tight thresholds, regardless of integrator accuracy.
    """
    if traj.n_samples < 2:
        raise ValueError("energy balance needs at least 2 samples")
    q = _dissipated(traj, s)
    drop = float(traj.energy[0] - traj.energy[-1])
    residual = abs(drop - q) / max(1.0, abs(float(traj.energy[0])))
    return _record(
        "energy_balance",
        residual,
        threshold,
        energy_drop=drop,
        dissipated=q,
        n_samples=traj.n_samples,
    )


def check_velocity_bound(traj: Trajectory, p: Potential, tol: float = 1e-8) -> CheckRecord:
    """Samplewise kinetic-energy bound ½|v|² ≤ ½|v₀|² + Φ(x₀) − inf Φ.

    Needs a potential with a known lower bound (it plays inf Φ). A run with
    a non-finite energy sample gets a NaN residual, so the check fails
    instead of passing against an infinite bound. So does a run of one
    sample, which bounds its own start only; its details carry ``n_samples``.

    Raises:
        CapabilityError: if the potential declares no lower bound.
    """
    if traj.n_samples == 0:
        raise ValueError("trajectory has no samples")
    if p.lower_bound is None:
        raise CapabilityError(
            f"potential '{p.name}' has no known lower bound; the velocity bound needs inf Φ"
        )
    kinetic = 0.5 * traj.speeds() ** 2
    rhs = float(traj.energy[0]) - p.lower_bound
    k = int(np.argmax(kinetic))
    residual = max(0.0, float(kinetic[k]) - rhs)
    if traj.n_samples == 1 or not np.isfinite(traj.energy).all():
        residual = math.nan
    return _record(
        "velocity_bound",
        residual,
        tol,
        bound=rhs,
        max_kinetic=float(kinetic[k]),
        worst_t=float(traj.t[k]),
        **_single_sample(traj),
    )


def _decay_fits(traj: Trajectory) -> dict:
    """Informational decay-rate fits of E(t) − E(T); never asserted on."""
    drops = traj.energy - traj.energy[-1]
    scale = max(1.0, abs(float(traj.energy[0])))
    good = (drops > 1e-13 * scale) & (traj.t > 0)
    if int(np.sum(good)) < 5:
        return {"decay_fit_valid": False}
    tg, dg = traj.t[good], drops[good]
    loglog = np.polyfit(np.log(tg), np.log(dg), 1)
    semilog = np.polyfit(tg, np.log(dg), 1)
    return {
        "decay_fit_valid": True,
        "decay_exponent_loglog": float(loglog[0]),
        "decay_rate_semilog": float(-semilog[0]),
    }


def tail_asymptotics(
    traj: Trajectory,
    s: FrictionSchedule,
    p: Potential,
    tail_fraction: float = TAIL_FRACTION,
    threshold: float = 1e-5,
) -> CheckRecord:
    """Tail smallness of √λ(t)|v(t)| plus the boundedness evidence around it.

    The residual is the sup of √λ|v| over the last ``tail_fraction`` of
    samples. Details report the tail sup of |∇Φ(x)|, the whole-run sups of
    |v| and |x| (the boundedness premises), the partial integral ∫λ|v|²
    (finite-window stand-in for the square-integrability certificate), and
    informational decay fits. ``premise_unverified`` is set when the
    schedule carries no derivative: the differentiability premise behind
    the vanishing-tail statement cannot be checked, so the number is
    reported without a premise pedigree. Always a partial certificate:
    evidence on [0, t_max] only.

    Raises:
        ValueError: if the run ended by divergence or contact loss, or the
            tail window is empty.
    """
    if traj.termination_reason not in COMPLETE_RUNS:
        raise ValueError(
            f"tail asymptotics need a run ending at the horizon or stationary, "
            f"got termination_reason='{traj.termination_reason}'"
        )
    if traj.n_samples < 2:
        raise ValueError("tail asymptotics need at least 2 samples")
    tail = _tail_slice(traj.n_samples, tail_fraction)
    residual = float(np.max(_sqrt_lam_speed(traj.lam, traj.v)[tail]))
    partial_l2 = _dissipated(traj, s)
    details = {
        "tail_start_t": float(traj.t[tail][0]),
        "tail_samples": int(traj.n_samples - tail.start),
        "tail_grad_norm_sup": float(np.max(traj.grad_norm[tail])),
        "sup_speed": float(np.max(_norms(traj.v))),
        "sup_position_norm": float(np.max(_norms(traj.x))),
        "partial_l2_dissipation": partial_l2,
        "premise_unverified": s.lam_dot is None,
        "partial_certificate": True,
        "final_grad_norm": float(traj.grad_norm[-1]),
    }
    details.update(_decay_fits(traj))
    return _record("tail_asymptotics", residual, threshold, **details)


def barbalat_check(
    f: SampledFunction,
    l2_budget: float,
    linf_budget: float,
    dot_budget: float,
    tail_fraction: float = TAIL_FRACTION,
    tail_threshold: float = 1e-5,
) -> CheckRecord:
    """Premises and conclusion of the vanishing-function certificate.

    A C¹ function that is square-integrable and bounded, with bounded
    derivative, tends to zero. On samples this becomes four independent
    verdicts:

    - L² premise: trapezoid ∫f² ≤ l2_budget; reported ``not_established``
      when more than a quarter of the mass sits in the last half of the
      window (the integral is still visibly growing, so a finite-window
      bound certifies nothing about the limit).
    - sup premise: max|f| ≤ linf_budget.
    - derivative premise: max|ḟ| ≤ dot_budget, using the provided
      derivative samples or central differences on the grid.
    - conclusion: max|f| over the tail window ≤ tail_threshold; its budget
      ratio is tail_sup / tail_threshold, and for a zero threshold 0 when
      the tail vanishes exactly and inf otherwise.

    The record's residual is the worst of the four budget ratios (the
    ``not_established`` state contributes 1 + tail-mass-share, which always
    fails); threshold is 1. Each verdict is reported in details. Always a
    partial certificate on the sampled window.
    """
    if f.t.size < 2:
        raise ValueError("barbalat check needs at least 2 samples")
    for name, val in (("l2_budget", l2_budget), ("linf_budget", linf_budget), ("dot_budget", dot_budget)):
        if not (val > 0):
            raise ValueError(f"{name} must be positive, got {val}")

    total_l2 = float(np.trapezoid(f.value**2, f.t))
    half_t = 0.5 * (f.t[0] + f.t[-1])
    second_half = f.t >= half_t
    tail_mass = float(np.trapezoid(f.value[second_half] ** 2, f.t[second_half]))
    mass_share = tail_mass / total_l2 if total_l2 > 0 else 0.0

    if total_l2 > l2_budget:
        l2_status, l2_ratio = "violated", total_l2 / l2_budget
    elif mass_share > 0.25:
        l2_status, l2_ratio = "not_established", 1.0 + mass_share
    else:
        l2_status, l2_ratio = "established", total_l2 / l2_budget

    sup_f = float(np.max(np.abs(f.value)))
    linf_status = "established" if sup_f <= linf_budget else "violated"

    if f.derivative is not None:
        sup_df = float(np.max(np.abs(f.derivative)))
        deriv_source = "provided"
    else:
        sup_df = float(np.max(np.abs(np.gradient(f.value, f.t))))
        deriv_source = "finite_difference"
    dot_status = "established" if sup_df <= dot_budget else "violated"

    tail = _tail_slice(f.t.size, tail_fraction)
    tail_sup = float(np.max(np.abs(f.value[tail])))
    conclusion_status = "holds" if tail_sup <= tail_threshold else "violated"

    # against a zero threshold only an exactly vanishing tail passes
    tail_ratio = tail_sup / tail_threshold if tail_threshold else 0.0 if tail_sup == 0 else math.inf
    # np.max keeps a NaN ratio, which max() drops unless it comes first
    residual = float(np.max([l2_ratio, sup_f / linf_budget, sup_df / dot_budget, tail_ratio]))
    return _record(
        "barbalat",
        residual,
        1.0,
        l2_status=l2_status,
        l2_partial_integral=total_l2,
        l2_budget=l2_budget,
        l2_second_half_share=mass_share,
        linf_status=linf_status,
        sup_value=sup_f,
        linf_budget=linf_budget,
        dot_status=dot_status,
        sup_derivative=sup_df,
        dot_budget=dot_budget,
        derivative_source=deriv_source,
        conclusion_status=conclusion_status,
        tail_sup=tail_sup,
        tail_threshold=tail_threshold,
        partial_certificate=True,
    )


def check_acceleration_bound(
    traj: Trajectory, p: Potential, s: FrictionSchedule, bound: float = math.inf
) -> CheckRecord:
    """Sup of |ẍ| reconstructed samplewise as −λ(t)v − ∇Φ(x).

    Passes iff the sup is finite and at most ``bound``. A non-finite
    acceleration sample certifies nothing: the residual is then NaN (so the
    check fails), and ``attained_at_t`` is the time of the first such sample.
    """
    if traj.n_samples == 0:
        raise ValueError("trajectory has no samples")
    lam = lambda_values(s, traj.t)
    grad = gradient_rows(p, traj.x)
    acc = -lam[:, None] * traj.v - grad
    # row_dots gives np.linalg.norm of each row bit for bit where |ẍ|² is finite
    with np.errstate(over="ignore"):
        norms = _hypot_where_overflowed(np.sqrt(row_dots(acc, acc)), acc)
    nonfinite = ~np.isfinite(norms)
    k = int(np.argmax(nonfinite) if nonfinite.any() else np.argmax(norms))
    sup_acc = float(norms[k])
    triangle = float(np.max(lam) * np.max(_norms(traj.v)) + np.max(traj.grad_norm))
    residual = sup_acc if math.isfinite(sup_acc) else math.nan
    return _record(
        "acceleration_bound",
        residual,
        bound,
        sup_acceleration=sup_acc,
        attained_at_t=float(traj.t[k]),
        triangle_bound=triangle,
    )


def model_discrepancy(
    traj_full: Trajectory,
    traj_hbft: Trajectory,
    threshold: float = math.inf,
) -> CheckRecord:
    """Sup position gap between a full-surface run and a reduced run.

    Both runs must start from the same state at t = 0. The comparison grid
    is the coarser trajectory's sample times restricted to the common span;
    the finer run is linearly interpolated onto it per coordinate.

    Raises:
        ValueError: when the starts differ or the spans do not overlap.
    """
    for name, tr in (("full", traj_full), ("reduced", traj_hbft)):
        if tr.n_samples < 2:
            raise ValueError(f"{name} trajectory needs at least 2 samples")
        if tr.t[0] != 0.0:
            raise ValueError(f"{name} trajectory does not start at t=0")
    if traj_full.dim != traj_hbft.dim:
        raise ValueError("trajectories have different dimensions")
    start_gap = float(np.max(np.abs(np.stack((traj_full.x[0] - traj_hbft.x[0],
                                              traj_full.v[0] - traj_hbft.v[0])))))
    if not start_gap <= 1e-12:  # a NaN gap is no common start
        raise ValueError(f"trajectories start from different states (gap {start_gap:.3g})")
    t_end = min(traj_full.t_final, traj_hbft.t_final)
    if t_end <= 0.0:
        raise ValueError("trajectories have no overlapping time span")

    in_full = traj_full.t <= t_end
    in_hbft = traj_hbft.t <= t_end
    if int(np.sum(in_full)) <= int(np.sum(in_hbft)):
        grid, coarse_x = traj_full.t[in_full], traj_full.x[in_full]
        fine_t, fine_x = traj_hbft.t, traj_hbft.x
    else:
        grid, coarse_x = traj_hbft.t[in_hbft], traj_hbft.x[in_hbft]
        fine_t, fine_x = traj_full.t, traj_full.x
    interp = np.column_stack(
        [np.interp(grid, fine_t, fine_x[:, d]) for d in range(traj_full.dim)]
    )
    gaps = _norms(coarse_x - interp)
    k = int(np.argmax(gaps))
    return _record(
        "model_discrepancy",
        float(gaps[k]),
        threshold,
        attained_at_t=float(grid[k]),
        common_span_end=float(t_end),
        grid_points=int(grid.size),
    )
