"""Certification layer: each check against a closed-form or injected-fault
oracle, plus the record/report plumbing contracts."""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np
import pytest

from hbft import (
    CapabilityError,
    CertificationReport,
    CheckRecord,
    IntegratorConfig,
    PhaseState,
    SampledFunction,
    StepStats,
    StopCondition,
    Trajectory,
    barbalat_check,
    check_acceleration_bound,
    check_energy_monotone,
    check_velocity_bound,
    energy_balance_residual,
    hbft_field,
    integrate,
    model_discrepancy,
    sqrt_friction_speed,
    tail_asymptotics,
)
from hbft.cli import _CHECK_CALLS, _run_check
from hbft.friction import constant, lambda_at, power_decay, step
from hbft.potentials import (
    double_well, eggcrate, flat, gradient, quadratic, rosenbrock, tilted_plane,
)

BUDGETS = dict(l2_budget=10.0, linf_budget=1.5, dot_budget=1.5)


def _run(p, s, x0, v0, **kw) -> Trajectory:
    init = PhaseState(t=0.0, x=np.asarray(x0, float), v=np.asarray(v0, float))
    return integrate(lambda st: hbft_field(p, s, st), p, s, init, IntegratorConfig(**kw))


@pytest.fixture(scope="module")
def damped_run() -> Trajectory:
    return _run(quadratic(dim=1), constant(1.0), [1.0], [0.0], method="rk4", step=1e-3, t_max=10.0)


# ---------------------------------------------------------------- monotone


def test_monotone_undamped_run_stays_at_rounding_floor():
    p, s = quadratic(dim=1), constant(0.0)
    traj = _run(p, s, [1.0], [0.0], method="rk4", step=1e-3, t_max=10.0)
    rec = check_energy_monotone(traj)
    assert rec.passed
    assert rec.residual <= 1e-8


def test_monotone_damped_run(damped_run: Trajectory):
    rec = check_energy_monotone(damped_run)
    assert rec.passed
    assert rec.residual <= 1e-10


def test_monotone_flags_injected_energy_bump(damped_run: Trajectory):
    energy = damped_run.energy.copy()
    energy[len(energy) // 2] += 0.1
    corrupted = dataclasses.replace(damped_run, energy=energy)
    rec = check_energy_monotone(corrupted)
    assert not rec.passed
    # the natural inter-sample decrease nibbles at the injected bump
    assert rec.residual == pytest.approx(0.1, abs=1e-4)


# ----------------------------------------------------------------- balance


def test_balance_pure_damping_closed_form():
    # heat = integral of exp(-2t) = (1 - exp(-10))/2 at T=5
    p, s = flat(dim=1), constant(1.0)
    traj = _run(p, s, [0.0], [1.0], method="rk4", step=1e-3, t_max=5.0)
    rec = energy_balance_residual(traj, s, threshold=1e-6)
    exact_heat = 0.5 * (1.0 - math.exp(-10.0))
    assert rec.passed
    assert rec.details["energy_drop"] == pytest.approx(exact_heat, abs=1e-9)
    assert rec.details["dissipated"] == pytest.approx(exact_heat, abs=1e-6)


def test_balance_damped_harmonic(damped_run: Trajectory):
    rec = energy_balance_residual(damped_run, constant(1.0))
    assert rec.passed
    assert rec.residual <= 1e-5


def test_balance_undamped_both_sides_vanish():
    p, s = quadratic(dim=1), constant(0.0)
    traj = _run(p, s, [1.0], [0.0], method="rk4", step=1e-3, t_max=10.0)
    rec = energy_balance_residual(traj, s)
    assert rec.residual <= 1e-8


def test_balance_residual_scales_with_step_not_verdict(damped_run: Trajectory):
    # quadrature error is O(h^2): halving the step cuts the residual about
    # 4x; recording every other sample of the same run coarsens the grid so
    # the residual grows, but the verdict is unchanged
    p, s = quadratic(dim=1), constant(1.0)
    half = _run(p, s, [1.0], [0.0], method="rk4", step=5e-4, t_max=10.0)
    thin = _run(p, s, [1.0], [0.0], method="rk4", step=1e-3, t_max=10.0, sample_stride=2)
    r_full = energy_balance_residual(damped_run, s)
    r_half = energy_balance_residual(half, s)
    r_thin = energy_balance_residual(thin, s)
    assert 3.0 <= r_full.residual / r_half.residual <= 5.0
    assert r_thin.residual <= 8.0 * r_full.residual
    assert r_full.passed and r_half.passed and r_thin.passed


# ---------------------------------------------------------- velocity bound


def test_velocity_bound_holds(damped_run: Trajectory):
    rec = check_velocity_bound(damped_run, quadratic(dim=1))
    assert rec.passed
    assert rec.residual <= 1e-8
    assert rec.details["max_kinetic"] <= rec.details["bound"]


def test_velocity_bound_flags_inflated_speeds(damped_run: Trajectory):
    fake = dataclasses.replace(damped_run, v=damped_run.v * 10.0)
    rec = check_velocity_bound(fake, quadratic(dim=1))
    assert not rec.passed


def test_velocity_bound_needs_declared_floor(damped_run: Trajectory):
    with pytest.raises(CapabilityError):
        check_velocity_bound(damped_run, tilted_plane(slope=(1.0,)))


def test_energy_checks_fail_on_nonfinite_energy(damped_run: Trajectory):
    # A run whose energy overflows on its first sample, and one whose last
    # energy is NaN: neither may be certified.
    huge = quadratic(dim=1, scale=1.0e300)
    overflowed = _run(huge, constant(1.0), [1.0e10], [0.0], method="rk4", step=1.0, t_max=10.0)
    assert overflowed.termination_reason == "diverged"
    assert overflowed.energy.tolist() == [math.inf]
    energy = damped_run.energy.copy()
    energy[-1] = math.nan
    late_nan = dataclasses.replace(damped_run, energy=energy)
    for traj, p in ((overflowed, huge), (late_nan, quadratic(dim=1))):
        for rec in (check_energy_monotone(traj), check_velocity_bound(traj, p)):
            assert not rec.passed
            assert math.isnan(rec.residual)


def test_energy_checks_fail_on_a_single_sample(damped_run: Trajectory):
    # One sample has no increase to bound and bounds only its own start: a
    # run that diverged on its first step certifies nothing.
    p = quadratic(dim=1)
    one = Trajectory(
        t=np.array([0.0]), x=np.array([[1.0]]), v=np.array([[0.5]]), energy=np.array([0.625]),
        lam=np.array([1.0]), grad_norm=np.array([1.0]), dissipation=np.array([-0.25]),
        termination_reason="diverged", step_stats=StepStats(0, 0, 0.0, 0.0),
    )
    for rec in (check_energy_monotone(one), check_velocity_bound(one, p)):
        assert not rec.passed
        assert math.isnan(rec.residual)
        assert rec.details["n_samples"] == 1
    # longer runs keep their record keys
    for rec in (check_energy_monotone(damped_run), check_velocity_bound(damped_run, p)):
        assert "n_samples" not in rec.details


# ------------------------------------------------------------------- tail


def test_tail_long_horizon_decay():
    p, s = quadratic(dim=1), constant(1.0)
    traj = _run(
        p, s, [1.0], [0.0], method="rk4", step=2e-3, t_max=50.0,
        stop=StopCondition(stationarity_tol=1e-15),
    )
    rec = tail_asymptotics(traj, s, p, tail_fraction=0.1)
    assert rec.passed
    assert rec.residual <= 1e-6  # envelope exp(-t/2) leaves ~1e-10 by t=45
    assert rec.details["partial_certificate"] is True
    assert rec.details["sup_position_norm"] <= 1.0 + 1e-12
    assert rec.details["partial_l2_dissipation"] == pytest.approx(0.5, abs=1e-4)


def test_tail_sup_shrinks_with_longer_horizon():
    # same system, longer observation: the certified tail must improve
    p, s = quadratic(dim=1), constant(1.0)
    sups = []
    for t_max in (20.0, 35.0, 50.0):
        traj = _run(
            p, s, [1.0], [0.0], method="rk4", step=2e-3, t_max=t_max,
            stop=StopCondition(stationarity_tol=1e-15),
        )
        sups.append(tail_asymptotics(traj, s, p).residual)
    assert sups[0] > sups[1] > sups[2]


def test_tail_at_equilibrium_is_identically_zero():
    p, s = double_well(), constant(1.0)
    traj = _run(
        p, s, [1.0], [0.0], method="rk4", step=1e-3, t_max=2.0,
        stop=StopCondition(stationarity_tol=1e-9, dwell=0.5),
    )
    rec = tail_asymptotics(traj, s, p)
    assert rec.residual == 0.0
    assert rec.details["tail_grad_norm_sup"] == 0.0


def test_tail_flags_unverifiable_derivative_premise():
    p = quadratic(dim=1)
    s = step(times=(1.0,), values=(1.0, 2.0))
    traj = _run(p, s, [1.0], [0.0], method="rk4", step=1e-3, t_max=10.0)
    rec = tail_asymptotics(traj, s, p)
    assert rec.details["premise_unverified"] is True


def test_tail_rejects_diverged_runs():
    p, s = flat(dim=1), constant(0.0)
    traj = _run(
        p, s, [0.0], [1.0], method="rk4", step=1e-2, t_max=100.0,
        stop=StopCondition(divergence_radius=5.0),
    )
    assert traj.termination_reason == "diverged"
    with pytest.raises(ValueError):
        tail_asymptotics(traj, s, p)


# --------------------------------------------------------------- barbalat


def _grid(n: int = 5001, horizon: float = 50.0) -> np.ndarray:
    return np.linspace(0.0, horizon, n)


def test_barbalat_certifies_exponential_decay():
    t = _grid()
    rec = barbalat_check(
        SampledFunction(t=t, value=np.exp(-t), derivative=-np.exp(-t)), **BUDGETS
    )
    assert rec.passed
    assert rec.details["l2_status"] == "established"
    assert rec.details["linf_status"] == "established"
    assert rec.details["dot_status"] == "established"
    assert rec.details["conclusion_status"] == "holds"


def test_barbalat_rejects_constant_on_l2_budget():
    t = _grid()
    rec = barbalat_check(SampledFunction(t=t, value=np.ones_like(t)), **BUDGETS)
    assert not rec.passed
    assert rec.details["l2_status"] == "violated"
    assert rec.details["l2_partial_integral"] == pytest.approx(50.0, rel=1e-3)


def test_barbalat_rejects_chirp_on_derivative_premise_only():
    # f = sin(t^2)/(1+t): square-integrable and bounded, but df/dt grows
    # like 2t/(1+t) toward 2, above the 1.5 budget, and f itself never
    # settles, so the conclusion correctly fails
    t = _grid()
    f = np.sin(t**2) / (1.0 + t)
    df = 2.0 * t * np.cos(t**2) / (1.0 + t) - np.sin(t**2) / (1.0 + t) ** 2
    rec = barbalat_check(SampledFunction(t=t, value=f, derivative=df), **BUDGETS)
    assert not rec.passed
    assert rec.details["l2_status"] == "established"
    assert rec.details["linf_status"] == "established"
    assert rec.details["dot_status"] == "violated"
    assert rec.details["sup_derivative"] == pytest.approx(1.96, abs=0.05)


def test_barbalat_defers_on_late_l2_mass():
    # small budget use but 97% of it in the second half: not yet conclusive
    t = _grid()
    f = np.where(t >= 40.0, 0.5, 0.05)
    rec = barbalat_check(SampledFunction(t=t, value=f), **BUDGETS)
    assert rec.details["l2_status"] == "not_established"
    assert rec.details["l2_second_half_share"] >= 0.25


def test_barbalat_fails_on_a_nan_derivative_sample():
    # max() keeps its first operand against a NaN, so a NaN ratio that came
    # later once dropped out of the residual and the check passed
    t = np.linspace(0.0, 40.0, 4001)
    df = -np.exp(-t)
    df[2000] = np.nan
    rec = barbalat_check(SampledFunction(t=t, value=np.exp(-t), derivative=df), **BUDGETS)
    assert rec.details["dot_status"] == "violated" and math.isnan(rec.details["sup_derivative"])
    assert math.isnan(rec.residual) and not rec.passed


def test_barbalat_finite_difference_fallback_matches_analytic():
    t = _grid()
    with_d = barbalat_check(
        SampledFunction(t=t, value=np.exp(-t), derivative=-np.exp(-t)), **BUDGETS
    )
    without_d = barbalat_check(SampledFunction(t=t, value=np.exp(-t)), **BUDGETS)
    assert without_d.details["derivative_source"] == "finite_difference"
    assert with_d.details["derivative_source"] == "provided"
    assert without_d.details["sup_derivative"] == pytest.approx(
        with_d.details["sup_derivative"], rel=0.02
    )
    assert with_d.passed and without_d.passed


def test_barbalat_with_a_zero_tail_threshold_demands_a_vanishing_tail():
    t = _grid()
    vanishing = np.where(t < 10.0, np.exp(-t), 0.0)
    rec = barbalat_check(SampledFunction(t=t, value=vanishing), **BUDGETS, tail_threshold=0.0)
    assert rec.passed and rec.details["conclusion_status"] == "holds"
    rec = barbalat_check(SampledFunction(t=t, value=np.exp(-t)), **BUDGETS, tail_threshold=0.0)
    assert not rec.passed and rec.details["conclusion_status"] == "violated"
    assert rec.residual == math.inf


def test_sqrt_friction_speed_samples(damped_run: Trajectory):
    sf = sqrt_friction_speed(damped_run)
    speeds = np.linalg.norm(damped_run.v, axis=1)
    assert sf.value == pytest.approx(np.sqrt(damped_run.lam) * speeds)
    assert sf.t is not damped_run.t or np.all(sf.t == damped_run.t)


def test_barbalat_on_trajectory_signal(damped_run: Trajectory):
    rec = barbalat_check(sqrt_friction_speed(damped_run), **BUDGETS, tail_threshold=1.0)
    assert rec.passed
    assert rec.details["l2_partial_integral"] == pytest.approx(0.5, abs=1e-4)


# ------------------------------------------------------------ acceleration


def test_acceleration_sup_matches_initial_pull(damped_run: Trajectory):
    # released at unit displacement: |a(0)| = |grad| = 1 dominates the run
    rec = check_acceleration_bound(damped_run, quadratic(dim=1), constant(1.0))
    assert rec.residual == pytest.approx(1.0, abs=1e-6)
    assert rec.details["triangle_bound"] >= rec.residual
    assert rec.passed  # default budget is infinite


def test_acceleration_bound_enforced(damped_run: Trajectory):
    rec = check_acceleration_bound(damped_run, quadratic(dim=1), constant(1.0), bound=0.5)
    assert not rec.passed


def test_acceleration_bound_fails_on_nonfinite_samples(damped_run: Trajectory):
    # NaN compares false against every sup, so a per-sample max skips it:
    # an all-NaN position column must still fail, at the first such sample.
    p, s = quadratic(dim=1), constant(1.0)
    all_nan = dataclasses.replace(damped_run, x=np.full_like(damped_run.x, math.nan))
    x = damped_run.x.copy()
    x[7] = math.nan
    x[9] = math.inf
    one_bad = dataclasses.replace(damped_run, x=x)
    for traj, first_bad in ((all_nan, 0), (one_bad, 7)):
        rec = check_acceleration_bound(traj, p, s)
        assert not rec.passed
        assert math.isnan(rec.residual)
        assert rec.details["attained_at_t"] == float(traj.t[first_bad])


def _reference_acceleration(traj: Trajectory, p, s) -> tuple[float, float, float]:
    """(sup, attained_at_t, triangle_bound) from a loop over the samples."""
    sup_acc, worst_t = 0.0, float(traj.t[0])
    for k in range(traj.n_samples):
        acc = -lambda_at(s, float(traj.t[k])) * traj.v[k] - gradient(p, traj.x[k])
        norm = float(np.linalg.norm(acc))
        if norm > sup_acc:
            sup_acc, worst_t = norm, float(traj.t[k])
    lam = [lambda_at(s, float(t)) for t in traj.t]
    triangle = float(np.max(lam) * np.max(traj.speeds()) + np.max(traj.grad_norm))
    return sup_acc, worst_t, triangle


def _near_tie_run(n: int, radius: float, seed: int) -> Trajectory:
    """At the bowl's minimum with velocities of one length in random
    directions: every |a| = |v| agrees up to rounding, so the sup and the
    sample attaining it are decided in the last bit."""
    u = np.random.default_rng(seed).standard_normal((n, 2))
    v = radius * (u / np.linalg.norm(u, axis=1)[:, None])
    zeros = np.zeros(n)
    return Trajectory(
        t=np.linspace(0.0, 1.0, n), x=np.zeros((n, 2)), v=v, energy=zeros, lam=np.ones(n),
        grad_norm=zeros, dissipation=zeros, termination_reason="t_max",
        step_stats=StepStats(accepted=n - 1, rejected=0, smallest_step=0.1, largest_step=0.1),
    )


def _assert_matches_reference(traj: Trajectory, p, s) -> None:
    rec = check_acceleration_bound(traj, p, s)
    got = (rec.details["sup_acceleration"], rec.details["attained_at_t"], rec.details["triangle_bound"])
    assert got == _reference_acceleration(traj, p, s)
    assert rec.residual == got[0]


@pytest.mark.parametrize(
    "p, s, x0, kw",
    [
        (rosenbrock(), constant(1.0), [-1.2, 1.44], dict(method="dopri45", h_max=2e-3, t_max=2.0)),
        (eggcrate(dim=2), power_decay(1.0, 0.5), [2.5, -1.5], dict(method="rk4", step=2e-3, t_max=4.0)),
    ],
    ids=["rosenbrock", "eggcrate"],
)
def test_acceleration_bound_matches_per_sample_loop(p, s, x0, kw):
    _assert_matches_reference(_run(p, s, x0, [0.0, 0.0], **kw), p, s)


@pytest.mark.parametrize("seed, radius", enumerate([1.0, 3.7, 1e-3, 2.0**500, 1e-160]))
def test_acceleration_bound_breaks_near_ties_like_the_loop(seed, radius):
    _assert_matches_reference(_near_tie_run(2000, radius, seed), quadratic(dim=2), constant(1.0))


# ------------------------------------------------------- model discrepancy


def test_discrepancy_of_run_with_itself_is_zero(damped_run: Trajectory):
    rec = model_discrepancy(damped_run, damped_run)
    assert rec.residual == 0.0
    assert sorted(rec.details) == ["attained_at_t", "common_span_end", "grid_points"]


def test_discrepancy_requires_matching_starts(damped_run: Trajectory):
    p, s = quadratic(dim=1), constant(1.0)
    other = _run(p, s, [2.0], [0.0], method="rk4", step=1e-3, t_max=10.0)
    with pytest.raises(ValueError):
        model_discrepancy(damped_run, other)


@pytest.mark.parametrize("row", ["x", "v"])
def test_discrepancy_refuses_a_nan_start(damped_run: Trajectory, row):
    start = getattr(damped_run, row).copy()
    start[0, 0] = np.nan
    with pytest.raises(ValueError, match="start from different states"):
        model_discrepancy(damped_run, dataclasses.replace(damped_run, **{row: start}))


def test_discrepancy_interpolates_between_grids(damped_run: Trajectory):
    p, s = quadratic(dim=1), constant(1.0)
    coarse = _run(p, s, [1.0], [0.0], method="rk4", step=4e-3, t_max=10.0)
    rec = model_discrepancy(damped_run, coarse)
    # same dynamics on different grids: only integration error remains
    assert rec.residual <= 1e-8


# ------------------------------------------------- every check can fail

# Each check, run on the damped unit bowl (x0 = 1, λ = 1, rk4, h = 1e-3,
# t_max = 10) or a closed-form change of it, where the property it certifies
# fails; every threshold is finite. The registry's checks go through the
# CLI's call path.
P, S = quadratic(dim=1), constant(1.0)
FAILING_CASES = {
    # played backwards, the damped run gains energy
    "energy_monotone": lambda run: _run_check(
        {"name": "energy_monotone"}, dataclasses.replace(run, energy=run.energy[::-1]), P, S),
    # judged against twice its λ, the run dissipates twice its energy drop
    "energy_balance": lambda run: _run_check({"name": "energy_balance"}, run, P, constant(2.0)),
    "velocity_bound": lambda run: _run_check(
        {"name": "velocity_bound"}, dataclasses.replace(run, v=run.v * 10.0), P, S),
    # cut at t = 1, √λ|v| in the tail is far above 1e-5
    "tail_asymptotics": lambda run: _run_check({"name": "tail_asymptotics"}, _head(run, 1001), P, S),
    # √λ|v| ~ e^(-t/2) has not vanished to 1e-5 by t = 10
    "barbalat_sqrt_friction_speed": lambda run: _run_check(
        {"name": "barbalat_sqrt_friction_speed", **BUDGETS}, run, P, S),
    # |ẍ(0)| = |∇Φ(x0)| = 1
    "acceleration_bound": lambda run: _run_check({"name": "acceleration_bound", "bound": 0.5}, run, P, S),
    "friction_bounded": lambda run: _run_check(
        {"name": "friction_bounded", "horizon": 10.0, "bound_guess": 1.0}, run, P, constant(2.0)),
    # the same start in a bowl four times as steep
    "model_discrepancy": lambda run: model_discrepancy(
        run, _run(quadratic(dim=1, scale=4.0), S, [1.0], [0.0], method="rk4", step=1e-3, t_max=10.0),
        threshold=0.1),
}

# Checks that raise on their input: the CLI records NaN against 0.0.
RAISING_CASES = {
    "energy_balance": lambda run: _run_check({"name": "energy_balance"}, _head(run, 1), P, S),
    "tail_asymptotics": lambda run: _run_check(
        {"name": "tail_asymptotics"},
        _run(flat(dim=1), constant(0.0), [0.0], [1.0], method="rk4", step=1e-2, t_max=100.0,
             stop=StopCondition(divergence_radius=5.0)),
        flat(dim=1), constant(0.0)),
}


def test_every_check_has_a_failing_case():
    assert set(FAILING_CASES) == set(_CHECK_CALLS) | {"model_discrepancy"}


@pytest.mark.parametrize("name", sorted(FAILING_CASES))
def test_check_fails_where_its_property_fails(damped_run: Trajectory, name):
    rec = FAILING_CASES[name](damped_run)
    assert rec.passed is False
    assert math.isfinite(rec.threshold) and rec.residual > rec.threshold


@pytest.mark.parametrize("name", sorted(RAISING_CASES))
def test_check_that_raises_fails_with_a_nan_residual(damped_run: Trajectory, name):
    rec = RAISING_CASES[name](damped_run)
    assert rec.passed is False
    assert math.isnan(rec.residual) and rec.threshold == 0.0
    assert "error" in rec.details


# ----------------------------------------------------- record and report


def test_check_record_consistency_enforced():
    with pytest.raises(ValueError):
        CheckRecord(check_name="bogus", passed=True, residual=2.0, threshold=1.0, details={})
    rec = CheckRecord(check_name="nan_case", passed=False, residual=float("nan"), threshold=1.0, details={})
    assert not rec.passed


def test_report_serializes_nonfinite_values():
    rec = CheckRecord(
        check_name="edge", passed=False, residual=float("nan"), threshold=0.0,
        details={"sup": float("inf"), "note": "deliberate"},
    )
    report = CertificationReport(checks=[rec], trajectory_meta={"n": 3})
    text = json.dumps(report.to_dict(), allow_nan=False)
    assert "Infinity" in text and "NaN" in text
    assert not report.all_passed


def test_report_render_lines(damped_run: Trajectory):
    rec = check_energy_monotone(damped_run)
    report = CertificationReport(checks=[rec], trajectory_meta={})
    line = report.render_lines()[0]
    assert line.startswith("[PASS]")
    assert "energy_monotone" in line


def test_sampled_function_validation():
    with pytest.raises(ValueError):
        SampledFunction(t=np.array([0.0, 0.0, 1.0]), value=np.zeros(3))
    with pytest.raises(ValueError):
        SampledFunction(t=np.array([0.0, 1.0]), value=np.zeros(3))


def _head(traj: Trajectory, n: int) -> Trajectory:
    """The first ``n`` samples of ``traj``."""
    columns = ("t", "x", "v", "energy", "lam", "grad_norm", "dissipation")
    return dataclasses.replace(traj, **{name: getattr(traj, name)[:n] for name in columns})


# Each refusal of the checks, called on the damped run or a cut of it, with its whole message.
DIAGNOSTICS_REFUSALS = {
    "derivative_length": (lambda run: SampledFunction(t=[0.0, 1.0], value=[1.0, 1.0], derivative=[0.0]),
                          "derivative must match the sample grid length"),
    "tail_fraction": (lambda run: tail_asymptotics(run, constant(1.0), quadratic(dim=1), tail_fraction=1.0),
                      "tail_fraction must lie in (0,1), got 1.0"),
    "monotone_no_samples": (lambda run: check_energy_monotone(_head(run, 0)), "trajectory has no samples"),
    "balance_one_sample": (lambda run: energy_balance_residual(_head(run, 1), constant(1.0)),
                           "energy balance needs at least 2 samples"),
    "velocity_no_samples": (lambda run: check_velocity_bound(_head(run, 0), quadratic(dim=1)),
                            "trajectory has no samples"),
    "tail_one_sample": (lambda run: tail_asymptotics(_head(run, 1), constant(1.0), quadratic(dim=1)),
                        "tail asymptotics need at least 2 samples"),
    "acceleration_no_samples": (lambda run: check_acceleration_bound(_head(run, 0), quadratic(dim=1), constant(1.0)),
                                "trajectory has no samples"),
    **{f"barbalat_{name}": (lambda run, name=name: barbalat_check(sqrt_friction_speed(run), **{**BUDGETS, name: 0.0}),
                            f"{name} must be positive, got 0.0") for name in BUDGETS},
    "discrepancy_one_sample": (lambda run: model_discrepancy(_head(run, 1), run),
                               "full trajectory needs at least 2 samples"),
    "discrepancy_late_start": (lambda run: model_discrepancy(run, dataclasses.replace(run, t=run.t + 1.0)),
                               "reduced trajectory does not start at t=0"),
    "discrepancy_dimensions": (lambda run: model_discrepancy(run, dataclasses.replace(run, x=np.hstack([run.x] * 2))),
                               "trajectories have different dimensions"),
    "discrepancy_no_span": (lambda run: model_discrepancy(*[dataclasses.replace(_head(run, 2), t=np.zeros(2))] * 2),
                            "trajectories have no overlapping time span"),
}


@pytest.mark.parametrize("call, message", DIAGNOSTICS_REFUSALS.values(), ids=list(DIAGNOSTICS_REFUSALS))
def test_diagnostics_refusal_message(damped_run: Trajectory, call, message):
    with pytest.raises(ValueError) as info:
        call(damped_run)
    assert str(info.value) == message
