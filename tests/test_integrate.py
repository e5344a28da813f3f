"""Integrators and trajectory recording: single-step accuracy, global order,
adaptive/fixed agreement, stop conditions, and sampling contracts."""

from __future__ import annotations

import functools
import math

import numpy as np
import pytest

from hbft import (
    IntegrationError,
    IntegratorConfig,
    MechanicalParams,
    PhaseState,
    StopCondition,
    Trajectory,
    energy,
    full_surface_field,
    hbft_field,
    integrate,
)
from hbft.friction import constant
from hbft.potentials import Potential, double_well, flat, quadratic

from conftest import damped_v, damped_x


def _field(p, s):
    return lambda st: hbft_field(p, s, st)


def _init(x, v) -> PhaseState:
    return PhaseState(t=0.0, x=np.asarray(x, float), v=np.asarray(v, float))


def _run(p, s, x0, v0, **kw) -> Trajectory:
    cfg = IntegratorConfig(**kw)
    return integrate(_field(p, s), p, s, _init(x0, v0), cfg)


def test_single_step_matches_cosine():
    # undamped unit bowl: x(h) = cos h
    p, s = quadratic(dim=1), constant(0.0)
    h = 0.01
    traj = _run(p, s, [1.0], [0.0], method="rk4", step=h, t_max=h)
    assert traj.step_stats.accepted == 1
    assert abs(traj.x[-1, 0] - math.cos(h)) <= 1e-10
    assert abs(traj.v[-1, 0] + math.sin(h)) <= 1e-10


def test_single_step_matches_exponential_decay():
    # flat landscape, unit damping: v(h) = exp(-h)
    p, s = flat(dim=1), constant(1.0)
    h = 0.01
    traj = _run(p, s, [0.0], [1.0], method="rk4", step=h, t_max=h)
    assert traj.step_stats.accepted == 1
    assert abs(traj.v[-1, 0] - math.exp(-h)) <= 1e-10


def test_damped_harmonic_against_closed_form():
    p, s = quadratic(dim=1), constant(1.0)
    traj = _run(p, s, [1.0], [0.0], method="rk4", step=1e-3, t_max=10.0)
    x_err = max(abs(traj.x[i, 0] - damped_x(traj.t[i])) for i in range(traj.n_samples))
    v_err = max(abs(traj.v[i, 0] - damped_v(traj.t[i])) for i in range(traj.n_samples))
    assert x_err <= 1e-12
    assert v_err <= 1e-12
    assert traj.t[-1] == 10.0  # landing step makes the horizon exact
    assert traj.termination_reason == "t_max"


def test_fixed_step_order_is_fourth():
    p, s = quadratic(dim=1), constant(1.0)
    errs = []
    for h in (0.05, 0.025):
        traj = _run(p, s, [1.0], [0.0], method="rk4", step=h, t_max=2.0)
        errs.append(max(abs(traj.x[i, 0] - damped_x(traj.t[i])) for i in range(traj.n_samples)))
    ratio = errs[0] / errs[1]
    assert 8.0 <= ratio <= 32.0


def test_adaptive_agrees_with_fixed_step():
    p, s = quadratic(dim=1), constant(1.0)
    fixed = _run(p, s, [1.0], [0.0], method="rk4", step=1e-3, t_max=10.0)
    adaptive = _run(p, s, [1.0], [0.0], method="dopri45", abs_tol=1e-8, rel_tol=1e-8, t_max=10.0)
    gap = abs(fixed.x[-1, 0] - adaptive.x[-1, 0]) + abs(fixed.v[-1, 0] - adaptive.v[-1, 0])
    assert gap <= 1e-7  # ten times the adaptive tolerance
    assert adaptive.step_stats.accepted > 0
    assert adaptive.step_stats.smallest_step > 0.0


def test_adaptive_step_stats_track_rejections():
    # tight tolerance on a stiff-ish start forces at least some size control
    p, s = quadratic(dim=1), constant(1.0)
    traj = _run(p, s, [1.0], [0.0], method="dopri45", abs_tol=1e-12, rel_tol=1e-12, t_max=1.0)
    st = traj.step_stats
    assert st.accepted + 1 == traj.n_samples
    assert st.largest_step <= 0.1 + 1e-15
    assert st.rejected >= 0


def test_equilibrium_start_stops_stationary_without_drift():
    p, s = double_well(), constant(1.0)
    traj = _run(
        p, s, [1.0], [0.0],
        method="rk4", step=1e-3, t_max=5.0,
        stop=StopCondition(stationarity_tol=1e-9, dwell=0.5),
    )
    assert traj.termination_reason == "stationary"
    assert traj.t_final == pytest.approx(0.5, abs=2e-3)
    assert np.max(np.abs(traj.x - 1.0)) <= 1e-12


def test_divergence_radius_stops_run():
    # free motion at unit speed crosses radius 10 at t = 10
    p, s = flat(dim=2), constant(0.0)
    traj = _run(
        p, s, [0.0, 0.0], [1.0, 0.0],
        method="rk4", step=1e-2, t_max=100.0,
        stop=StopCondition(divergence_radius=10.0),
    )
    assert traj.termination_reason == "diverged"
    assert traj.t_final == pytest.approx(10.0, abs=2e-2)
    assert np.linalg.norm(traj.x[-1]) >= 10.0
    assert np.isfinite(traj.x).all()


def test_nonfinite_step_reports_divergence_with_finite_tail():
    def cliff_grad(x):
        return -x if abs(x[0]) < 5.0 else np.array([float("nan")])

    p = Potential(name="cliff", dim=1, value_fn=lambda x: -0.5 * float(x @ x), gradient_fn=cliff_grad)
    s = constant(0.0)
    traj = _run(
        p, s, [0.1], [0.0],
        method="rk4", step=1e-2, t_max=100.0,
        stop=StopCondition(divergence_radius=1e308),
    )
    assert traj.termination_reason == "diverged"
    assert np.isfinite(traj.x).all() and np.isfinite(traj.v).all()
    assert traj.t_final < 100.0


def test_overflowing_stage_reports_divergence_instead_of_raising():
    # The first stage's gradient overflows, so the later stage states are
    # non-finite; the run ends at the last finite state.
    p, s = quadratic(dim=1, scale=1e300), constant(1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        traj = _run(p, s, [1e10], [0.0], method="rk4", step=1.0, t_max=10.0)
    assert traj.termination_reason == "diverged"
    assert traj.t_final == 0.0
    assert traj.x[-1] == pytest.approx([1e10])


def test_adaptive_step_shrinks_past_nonfinite_stages():
    # Undamped unit bowl from (0, 1): x(t) = sin t never leaves [-1, 1], but
    # the stages of a long step overshoot the turning points, where this
    # gradient is NaN. Those steps must be rejected and retried shorter.
    wall = 1.0 + 1e-4
    overshoots = []

    def walled_grad(x):
        if abs(x[0]) < wall:
            return 1.0 * x
        overshoots.append(x[0])
        return np.array([math.nan])

    p = Potential(name="walled", dim=1, value_fn=lambda x: 0.5 * float(x @ x),
                  gradient_fn=walled_grad, lower_bound=0.0)
    s = constant(0.0)
    traj = _run(p, s, [0.0], [1.0], method="dopri45", abs_tol=1e-8, rel_tol=1e-8,
                h_max=1.0, t_max=10.0)
    assert overshoots
    assert traj.termination_reason == "t_max"
    assert traj.step_stats.rejected >= 1
    assert np.max(np.abs(traj.x[:, 0] - np.sin(traj.t))) <= 1e-6


def test_surface_field_divergence_error_ends_run_as_diverged():
    # full_surface_field raises DivergenceError on a non-finite stage state.
    p, s = quadratic(dim=1, scale=1e300), constant(1.0)
    field = functools.partial(full_surface_field, p, s, MechanicalParams())
    cfg = IntegratorConfig(method="rk4", step=1.0, t_max=10.0)
    with np.errstate(over="ignore", invalid="ignore"):
        traj = integrate(field, p, s, _init([1e10], [0.0]), cfg)
    assert traj.termination_reason == "diverged"
    assert np.isfinite(traj.x).all() and np.isfinite(traj.v).all()


def test_initial_state_must_be_finite_and_match_the_potential():
    p, s = quadratic(dim=2), constant(1.0)
    cfg = IntegratorConfig(method="rk4", step=1e-3, t_max=1.0)
    with pytest.raises(ValueError, match="non-finite"):
        integrate(_field(p, s), p, s, _init([1.0, math.inf], [0.0, 0.0]), cfg)
    with pytest.raises(ValueError, match="dim"):
        integrate(_field(p, s), p, s, _init([1.0], [0.0]), cfg)


def test_energy_column_is_recomputable():
    p, s = quadratic(dim=1), constant(1.0)
    traj = _run(p, s, [1.0], [0.0], method="rk4", step=1e-3, t_max=3.0)
    for i in range(0, traj.n_samples, 97):
        st0 = PhaseState(t=traj.t[i], x=traj.x[i], v=traj.v[i])
        assert abs(traj.energy[i] - energy(p, st0)) <= 1e-12


def test_time_grid_strictly_increasing():
    p, s = quadratic(dim=2), constant(1.0)
    traj = _run(p, s, [1.0, -1.0], [0.0, 0.5], method="dopri45", t_max=5.0)
    assert np.all(np.diff(traj.t) > 0.0)
    assert traj.t[0] == 0.0
    assert traj.x[0] == pytest.approx([1.0, -1.0])


def test_sample_stride_thins_output_but_keeps_endpoint():
    p, s = quadratic(dim=1), constant(1.0)
    traj = _run(p, s, [1.0], [0.0], method="rk4", step=1e-3, t_max=1.0, sample_stride=10)
    assert traj.n_samples == 101
    assert traj.t[-1] == pytest.approx(1.0)
    assert np.allclose(np.diff(traj.t)[:-1], 1e-2)


def test_sample_dt_records_first_point_at_or_after_each_tick():
    p, s = quadratic(dim=1), constant(1.0)
    traj = _run(p, s, [1.0], [0.0], method="dopri45", t_max=1.0, sample_dt=0.1)
    assert traj.n_samples <= 13
    ticks = np.arange(0.0, 1.0 + 1e-12, 0.1)
    for tick in ticks:
        assert np.any((traj.t >= tick - 1e-12) & (traj.t <= tick + 0.1)), tick


def test_config_validation():
    with pytest.raises(ValueError):
        IntegratorConfig(method="euler")
    with pytest.raises(ValueError):
        IntegratorConfig(method="rk4")  # fixed step requires step
    with pytest.raises(ValueError):
        IntegratorConfig(method="rk4", step=-1e-3)
    with pytest.raises(ValueError):
        IntegratorConfig(method="dopri45", sample_stride=2, sample_dt=0.1)
    with pytest.raises(ValueError):
        IntegratorConfig(method="dopri45", t_max=0.0)
    with pytest.raises(ValueError):
        StopCondition(dwell=0.0)


def test_initial_state_must_start_at_time_zero():
    p, s = quadratic(dim=1), constant(1.0)
    bad = PhaseState(t=1.0, x=np.array([1.0]), v=np.array([0.0]))
    with pytest.raises(ValueError):
        integrate(_field(p, s), p, s, bad, IntegratorConfig(method="rk4", step=1e-3))


def test_step_budget_exhaustion_raises_with_partial_trajectory():
    p, s = quadratic(dim=1), constant(1.0)
    cfg = IntegratorConfig(method="rk4", step=1e-3, t_max=10.0, max_steps=50)
    with pytest.raises(IntegrationError) as exc_info:
        integrate(_field(p, s), p, s, _init([1.0], [0.0]), cfg)
    partial = exc_info.value.partial
    assert partial is not None
    assert partial.termination_reason == "aborted"
    assert partial.n_samples >= 1
    assert partial.t_final < 10.0


def test_contact_loss_halt_via_reaction_callable():
    p, s = flat(dim=1), constant(0.0)
    cfg = IntegratorConfig(
        method="rk4", step=1e-2, t_max=10.0,
        stop=StopCondition(halt_on_contact_loss=True),
    )
    reaction = lambda st: 1.0 if st.t < 0.5 else -1.0
    traj = integrate(_field(p, s), p, s, _init([0.0], [1.0]), cfg, reaction=reaction)
    assert traj.termination_reason == "contact_lost"
    assert traj.t_final == pytest.approx(0.5, abs=2e-2)


def test_contact_loss_halt_requires_reaction():
    p, s = flat(dim=1), constant(0.0)
    cfg = IntegratorConfig(
        method="rk4", step=1e-2, t_max=1.0,
        stop=StopCondition(halt_on_contact_loss=True),
    )
    with pytest.raises(ValueError):
        integrate(_field(p, s), p, s, _init([0.0], [1.0]), cfg)
