"""Integrators and trajectory recording: single-step accuracy, global order,
adaptive/fixed agreement, stop conditions, and sampling contracts."""

from __future__ import annotations

import functools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hbft import (
    DivergenceError,
    IntegrationError,
    IntegratorConfig,
    MechanicalParams,
    PhaseState,
    ScheduleConsistencyError,
    StepStats,
    StopCondition,
    Trajectory,
    energy,
    full_surface_field,
    hbft_field,
    integrate,
)
from hbft.friction import (
    FrictionSchedule,
    constant,
    linear_growth,
    oscillating,
    power_decay,
    step,
)
from hbft.integrate import _Arrays, _norm, _Recorder, _representation
from hbft.potentials import (
    Potential,
    anisotropic_quadratic,
    double_well,
    eggcrate,
    flat,
    gradient,
    gradient_rows,
    quadratic,
    rosenbrock,
    tilted_plane,
)

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


# --- the float kernel against the generic path --------------------------------
#
# integrate steps functools.partial(hbft_field, p, s) on Python floats when p is
# a builtin of dim 1 or 2; any other callable takes the array path. The two must
# agree to the last bit on every column, the termination and the step stats.

_COLUMNS = ("t", "x", "v", "energy", "lam", "grad_norm", "dissipation")


def _assert_same_run(kernel: Trajectory, generic: Trajectory) -> None:
    for name in _COLUMNS:
        a, b = getattr(kernel, name), getattr(generic, name)
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name
    assert kernel.termination_reason == generic.termination_reason
    assert kernel.step_stats == generic.step_stats


def _both(p, s, x0, v0, **kw):
    """Run (or fail) through the kernel and through the generic path.

    Returns the two trajectories, or for a run that raises, the two
    exceptions."""
    kernel_field = functools.partial(hbft_field, p, s)
    assert not isinstance(_representation(kernel_field, p, s, None), _Arrays)
    cfg = IntegratorConfig(**kw)
    out = []
    for field in (kernel_field, _field(p, s)):
        try:
            out.append(integrate(field, p, s, _init(x0, v0), cfg))
        except (IntegrationError, ScheduleConsistencyError) as exc:
            out.append(exc)
    return out


_BUILTINS_1D = [
    (quadratic(dim=1, scale=2.5), constant(0.7), [1.3], [-0.4]),
    (anisotropic_quadratic(diag=(3.0,)), power_decay(2.0, 0.5), [-0.8], [0.3]),
    (double_well(), oscillating(1.0, 0.5, 3.0), [2.0], [0.0]),
    (eggcrate(dim=1, amplitude=0.8), step((0.7,), (0.4, 1.5)), [2.5], [1.0]),
    (flat(dim=1), constant(1.0), [0.2], [1.0]),
    (tilted_plane(slope=(0.5,)), constant(1.0), [0.0], [-0.3]),
]
_BUILTINS_2D = [
    (quadratic(dim=2), constant(1.0), [1.0, -0.5], [0.0, 0.3]),
    (anisotropic_quadratic(diag=(1.0, 4.0)), step((0.6,), (1.0, 0.6)), [1.0, -1.0], [0.0, 0.0]),
    (rosenbrock(), constant(1.0), [-1.2, 1.44], [0.0, 0.0]),
    (eggcrate(dim=2), power_decay(1.0, 0.5), [2.5, -1.5], [0.0, 0.0]),
    (flat(dim=2), oscillating(2.0, 1.0, 1.0), [0.3, 0.1], [1.0, -2.0]),
    (tilted_plane(slope=(1.0, -2.0)), constant(0.5), [0.0, 0.0], [0.1, 0.1]),
]
_SAMPLING = [{}, {"sample_stride": 7}, {"sample_dt": 0.05}]


@pytest.mark.parametrize("case", _BUILTINS_1D + _BUILTINS_2D, ids=lambda c: c[0].name)
@pytest.mark.parametrize("method", [{"method": "rk4", "step": 0.01},
                                    {"method": "dopri45", "abs_tol": 1e-9, "rel_tol": 1e-9}],
                         ids=["rk4", "dopri45"])
@pytest.mark.parametrize("sampling", _SAMPLING, ids=["every", "stride", "dt"])
def test_kernel_matches_generic_path_on_every_builtin(case, method, sampling):
    p, s, x0, v0 = case
    kernel, generic = _both(p, s, x0, v0, t_max=1.5, **method, **sampling)
    _assert_same_run(kernel, generic)
    assert kernel.termination_reason == "t_max"


@pytest.mark.parametrize("method", [{"method": "rk4", "step": 0.01},
                                    {"method": "dopri45", "h_max": 0.05}], ids=["rk4", "dopri45"])
@pytest.mark.parametrize("dim", [1, 2])
def test_kernel_matches_generic_path_on_stationary_and_radius_stops(method, dim):
    settle = StopCondition(stationarity_tol=1e-3, dwell=0.5)
    kernel, generic = _both(quadratic(dim=dim), constant(3.0), [1.0] * dim, [0.0] * dim,
                            t_max=50.0, stop=settle, **method)
    _assert_same_run(kernel, generic)
    assert kernel.termination_reason == "stationary"

    escape = StopCondition(divergence_radius=5.0)
    kernel, generic = _both(tilted_plane(slope=(-1.0,) * dim), constant(0.1), [0.0] * dim,
                            [0.0] * dim, t_max=50.0, stop=escape, **method)
    _assert_same_run(kernel, generic)
    assert kernel.termination_reason == "diverged" and np.linalg.norm(kernel.x[-1]) > 5.0


@pytest.mark.parametrize("method", ["rk4", "dopri45"])
@pytest.mark.parametrize("p, x0", [
    # Python floats raise OverflowError on x**3 and x**2 and ValueError on
    # sin(inf), where numpy gives inf or nan: the kernel must end as numpy does.
    (double_well(), [1e110]),
    (rosenbrock(), [1e160, 0.0]),
    (eggcrate(dim=2), [1e307, 1e307]),  # a stage reaches sin(inf) at this step
], ids=["double_well", "rosenbrock", "eggcrate"])
def test_kernel_matches_generic_path_on_overflowing_starts(method, p, x0):
    kernel, generic = _both(p, constant(1.0), x0, [0.0] * p.dim, t_max=10.0, method=method,
                            step=10.0, h_max=10.0, stop=StopCondition(divergence_radius=1e308))
    _assert_same_run(kernel, generic)
    assert kernel.termination_reason == "diverged" and kernel.grad_norm[0] == math.inf
    if method == "rk4":
        assert kernel.n_samples == 1


@pytest.mark.parametrize("method", [{"method": "rk4", "step": 1e-3},
                                    {"method": "dopri45", "h_max": 1e-3}], ids=["rk4", "dopri45"])
def test_kernel_matches_generic_path_when_the_step_budget_runs_out(method):
    for p, s, x0, v0 in (_BUILTINS_1D[2], _BUILTINS_2D[2]):
        kernel, generic = _both(p, s, x0, v0, t_max=10.0, max_steps=50, **method)
        assert isinstance(kernel, IntegrationError) and isinstance(generic, IntegrationError)
        assert str(kernel) == str(generic)
        _assert_same_run(kernel.partial, generic.partial)
        assert kernel.partial.termination_reason == "aborted"


_KERNEL_CASES = _BUILTINS_1D + _BUILTINS_2D


@settings(max_examples=40, deadline=None)
@given(
    case=st.sampled_from(range(len(_KERNEL_CASES))),
    xv=st.lists(st.floats(-3.0, 3.0), min_size=4, max_size=4),
    h=st.floats(1e-3, 0.2),
    adaptive=st.booleans(),
)
def test_kernel_matches_generic_path_from_random_starts(case, xv, h, adaptive):
    p, s, _, _ = _KERNEL_CASES[case]
    method = ({"method": "dopri45", "h_max": h, "abs_tol": 1e-7, "rel_tol": 1e-7} if adaptive
              else {"method": "rk4", "step": h})
    kernel, generic = _both(p, s, xv[: p.dim], xv[2 : 2 + p.dim], t_max=1.0,
                            max_steps=2000, **method)
    if isinstance(generic, Exception):
        assert type(kernel) is type(generic) and str(kernel) == str(generic)
        kernel, generic = kernel.partial, generic.partial
    _assert_same_run(kernel, generic)


@pytest.mark.parametrize("method", [{"method": "rk4", "step": 0.01}, {"method": "dopri45"}],
                         ids=["rk4", "dopri45"])
@pytest.mark.parametrize("dim", [1, 2])
def test_kernel_keeps_the_lambda_checks_of_a_custom_schedule(method, dim):
    # Guard on the λ boundary: the kernel checks λ at every stage as lambda_at
    # does, so a schedule that breaks its nonnegativity claim fails as on the
    # generic path, with the same samples kept.
    flips = FrictionSchedule(name="flips", lam=lambda t: 1.0 if t <= 0.5 else -1.0)
    kernel, generic = _both(quadratic(dim=dim), flips, [1.0] * dim, [0.0] * dim, t_max=2.0,
                            **method)
    assert isinstance(generic, ScheduleConsistencyError)
    assert type(kernel) is ScheduleConsistencyError and str(kernel) == str(generic)
    _assert_same_run(kernel.partial, generic.partial)
    assert kernel.partial.termination_reason == "aborted" and kernel.partial.t[-1] <= 0.5


@pytest.mark.parametrize("method", [{"method": "rk4", "step": 0.01}, {"method": "dopri45"}],
                         ids=["rk4", "dopri45"])
@pytest.mark.parametrize("dim", [1, 2])
def test_kernel_passes_a_signed_schedule_through(method, dim):
    # without a nonnegativity claim a negative λ is a value like any other
    signed = FrictionSchedule(name="signed", lam=lambda t: math.cos(3.0 * t),
                              claims_nonnegative=False)
    kernel, generic = _both(quadratic(dim=dim), signed, [1.0] * dim, [0.5] * dim, t_max=2.0,
                            **method)
    _assert_same_run(kernel, generic)
    assert kernel.termination_reason == "t_max" and kernel.lam.min() < 0.0


@pytest.mark.parametrize("dim", [1, 2])
def test_schedule_broken_at_a_kept_sample_leaves_no_partial(dim):
    # λ(0) is NaN: the first sample cannot be built, so the error carries none
    broken = FrictionSchedule(name="nan_at_0", lam=lambda t: math.nan if t == 0.0 else 1.0)
    for exc in _both(quadratic(dim=dim), broken, [1.0] * dim, [0.0] * dim, method="rk4",
                     step=0.1, t_max=1.0):
        assert type(exc) is ScheduleConsistencyError and getattr(exc, "partial", None) is None
        assert str(exc) == "schedule 'nan_at_0' claims nonnegativity but produced nan at t=0.0"


@pytest.mark.parametrize("dim", [1, 2])
def test_kernel_reports_a_schedule_that_overflows_to_inf(dim):
    # λ(2) = 2e308 overflows to inf at the last stage of the first step.
    kernel, generic = _both(quadratic(dim=dim), linear_growth(rate=1e308), [1.0, 0.5][:dim],
                            [0.0] * dim, method="rk4", step=2.0, t_max=4.0)
    assert isinstance(generic, ScheduleConsistencyError) and "inf" in str(generic)
    assert type(kernel) is ScheduleConsistencyError and str(kernel) == str(generic)
    _assert_same_run(kernel.partial, generic.partial)
    assert kernel.partial.n_samples == 1


@pytest.mark.parametrize("method", [{"method": "rk4", "step": 0.05},
                                    {"method": "dopri45", "h_max": 0.05}], ids=["rk4", "dopri45"])
@pytest.mark.parametrize("dim", [1, 2])
def test_kernel_evaluates_the_schedule_where_the_generic_path_does(method, dim):
    # every stage time, in order, plus the λ column of the samples
    p = quadratic(dim=dim)
    times = {}
    for path in ("kernel", "generic"):
        seen = times[path] = []
        s = FrictionSchedule(name="logged", lam=lambda t, seen=seen: seen.append(t) or 1.0 + t)
        field = functools.partial(hbft_field, p, s) if path == "kernel" else _field(p, s)
        integrate(field, p, s, _init([1.0] * dim, [0.5] * dim), IntegratorConfig(t_max=1.0, **method))
    assert times["kernel"] == times["generic"] and len(times["kernel"]) > 20


@pytest.mark.parametrize("p, x0", [(quadratic(dim=1), [1.0]), (eggcrate(dim=2), [1.0, -0.5])],
                         ids=["quadratic", "eggcrate"])
def test_schedule_raising_divergence_mid_run_ends_diverged_on_both_paths(p, x0):
    # λ raises DivergenceError past t = 0.5: the step from 0.5 fails at its
    # second stage, so the run ends at t = 0.5, its last finite state.
    def lam(t):
        if t > 0.5:
            raise DivergenceError(f"lambda blew up at t={t}")
        return 1.0

    s = FrictionSchedule(name="blows_up", lam=lam)
    kernel, generic = _both(p, s, x0, [0.0] * p.dim, method="rk4", step=0.01, t_max=1.0)
    _assert_same_run(kernel, generic)
    assert kernel.termination_reason == "diverged" and kernel.n_samples == 51
    assert kernel.t[-1] == pytest.approx(0.5, abs=1e-12)


# --- a closed form with time-varying friction -----------------------------------
#
# On quadratic(dim=1) with power_decay(a, 1), x'' + (a/τ) x' + x = 0 in τ = 1 + t,
# and x = τ^(−ν) (c₁ J_ν(τ) + c₂ Y_ν(τ)) with ν = (a − 1)/2 (Bessel's equation
# after x = τ^(−ν) u; the λ = 3/t case of Su, Boyd & Candès, JMLR 2016). λ
# changes within every step, so this checks the λ of each stage time.


def _bessel_reference(a: float, x0: float, v0: float, t: np.ndarray):
    special = pytest.importorskip("scipy.special")
    nu = (a - 1.0) / 2.0
    # x(τ=1) = c₁ J + c₂ Y and x'(1) = −ν x(1) + c₁ J' + c₂ Y'
    basis = [[special.jv(nu, 1.0), special.yv(nu, 1.0)], [special.jvp(nu, 1.0), special.yvp(nu, 1.0)]]
    c1, c2 = np.linalg.solve(basis, [x0, v0 + nu * x0])
    tau = 1.0 + t
    u = c1 * special.jv(nu, tau) + c2 * special.yv(nu, tau)
    du = c1 * special.jvp(nu, tau) + c2 * special.yvp(nu, tau)
    return tau ** -nu * u, tau ** -nu * (du - nu * u / tau)


@pytest.mark.parametrize("a", [0.5, 1.0, 3.0])
@pytest.mark.parametrize("method, tol", [({"method": "rk4", "step": 1e-3}, 1e-11),
                                         ({"method": "dopri45", "abs_tol": 1e-10, "rel_tol": 1e-10},
                                          1e-8)], ids=["rk4", "dopri45"])
def test_power_decay_on_the_bowl_matches_the_bessel_closed_form(a, method, tol):
    kernel, generic = _both(quadratic(dim=1), power_decay(a, 1.0), [1.0], [0.0], t_max=30.0,
                            **method)
    _assert_same_run(kernel, generic)
    x_ref, v_ref = _bessel_reference(a, 1.0, 0.0, kernel.t)
    assert kernel.termination_reason == "t_max" and kernel.t[-1] == 30.0
    assert np.max(np.abs(kernel.x[:, 0] - x_ref)) <= tol
    assert np.max(np.abs(kernel.v[:, 0] - v_ref)) <= tol


@pytest.mark.parametrize("a", [0.5, 1.0, 3.0])
def test_power_decay_on_the_bowl_converges_at_fourth_order(a):
    # halving h from 0.1 cuts the final error by about 2⁴ (16.9-19.0 measured)
    errors = []
    for h in (0.1, 0.05):
        kernel, generic = _both(quadratic(dim=1), power_decay(a, 1.0), [1.0], [0.0],
                                method="rk4", step=h, t_max=2.0)
        _assert_same_run(kernel, generic)
        x_ref, _ = _bessel_reference(a, 1.0, 0.0, kernel.t[-1:])
        errors.append(abs(kernel.x[-1, 0] - x_ref[0]))
    assert 8.0 <= errors[0] / errors[1] <= 32.0


def test_wrapped_and_custom_fields_take_the_generic_path():
    p, s = quadratic(dim=1), constant(1.0)
    assert isinstance(_representation(_field(p, s), p, s, None), _Arrays)
    # bound to another potential, or with a reaction, or a custom potential
    other = quadratic(dim=1)
    assert isinstance(_representation(functools.partial(hbft_field, other, s), p, s, None), _Arrays)
    assert isinstance(_representation(functools.partial(hbft_field, p, s), p, s, lambda st: 1.0),
                      _Arrays)
    custom = Potential(name="bowl", dim=1, value_fn=lambda x: 0.5 * float(x @ x),
                       gradient_fn=lambda x: 1.0 * x)
    assert isinstance(_representation(functools.partial(hbft_field, custom, s), custom, s, None),
                      _Arrays)
    wide = quadratic(dim=3)
    assert isinstance(_representation(functools.partial(hbft_field, wide, s), wide, s, None), _Arrays)


# --- columns built at the end of a run ------------------------------------------

_ROWS = st.lists(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=3, max_size=3),
                 min_size=1, max_size=6)


@settings(max_examples=200, deadline=None)
@given(case=st.sampled_from(range(len(_KERNEL_CASES))), rows=_ROWS)
@example(case=8, rows=[[1e160, 0.0, 0.0], [1.0, 2.0, 0.0]])  # rosenbrock: x0**2 overflows
@example(case=2, rows=[[1e110, 0.0, 0.0]])  # double_well: x**3 overflows
def test_gradient_rows_give_the_doubles_of_gradient(case, rows):
    # the rows check_acceleration_bound takes ∇Φ from
    p = _KERNEL_CASES[case][0]
    x = np.array(rows)[:, : p.dim].copy()
    with np.errstate(over="ignore", invalid="ignore"):
        got = gradient_rows(p, x)
        ref = np.array([gradient(p, row) for row in x])
    assert got.shape == ref.shape and got.tobytes() == ref.tobytes()


@pytest.mark.parametrize(
    "p",
    [
        Potential(name="bowl", dim=2, value_fn=lambda x: float(x @ x),
                  gradient_fn=lambda x: np.array([2.0 * x[0] + x[1], x[0] ** 3])),
        quadratic(dim=3, scale=1.7),
        eggcrate(dim=3),
    ],
    ids=["custom", "quadratic3", "eggcrate3"],
)
def test_gradient_rows_of_potentials_without_a_float_form(p):
    # no float kernel here: the rows come from gradient, one row at a time
    x = np.random.default_rng(7).normal(scale=3.0, size=(50, p.dim))
    got = gradient_rows(p, x)
    ref = np.array([gradient(p, row) for row in x])
    assert got.shape == (50, p.dim) and got.tobytes() == ref.tobytes()


@settings(max_examples=200, deadline=None)
@given(dim=st.sampled_from([1, 2, 3]), rows=_ROWS)
@example(dim=2, rows=[[1e200, 1e200, 0.0], [1e154, -1e154, 0.0], [1e-160, 3e-170, 0.0]])
@example(dim=3, rows=[[5e-324, -1e-310, 2.2e-308], [1.5e-200, 0.0, -0.0]])
@example(dim=1, rows=[[1e160, 0.0, 0.0], [1e-170, 0.0, 0.0], [-0.0, 0.0, 0.0]])
def test_grad_norm_column_equals_the_per_row_norm(dim, rows):
    # huge rows overflow |g|², subnormal ones underflow it: the column must do
    # what _norm does per row, and at dim 1 what the kernel's sqrt(g*g) does
    g = np.array(rows)[:, :dim].copy()
    rec = _Recorder(quadratic(dim=dim), constant(1.0), _Arrays.put)
    for k, gk in enumerate(g):
        rec.record(float(k), np.zeros(dim), np.zeros(dim), gk)
    with np.errstate(over="ignore", invalid="ignore"):
        col = rec.build("t_max", StepStats(0, 0, 0.0, 0.0)).grad_norm
        ref = np.array([_norm(gk) for gk in g])
    assert col.tobytes() == ref.tobytes()
    if dim == 1:
        assert col.tobytes() == np.array([math.sqrt(a * a) for a in g[:, 0].tolist()]).tobytes()


# --- the dim-2 stop tests near their thresholds ----------------------------------
#
# The dim-2 kernel compares sqrt(a*a + b*b) with a threshold and falls back to
# numpy's dot only near it. Thresholds a few ulps around |(a, b)| must end each
# run as the generic path does, for rows where the two sums round differently.


def _rows_rounding_apart(n: int = 3) -> list:
    rng = np.random.default_rng(7)
    rows = []
    for a, b in rng.normal(size=(20000, 2)).tolist():
        if math.sqrt(a * a + b * b) != _norm(np.array([a, b])):
            rows.append((a, b))
            if len(rows) == n:
                break
    return rows + [(0.6, -0.8)]


def _ulps_around(r: float, k: int = 3) -> list:
    out = [r]
    for direction in (math.inf, -math.inf):
        edge = r
        for _ in range(k):
            edge = math.nextafter(edge, direction)
            out.append(edge)
    return out


@pytest.mark.parametrize("row", _rows_rounding_apart())
def test_kernel_matches_generic_path_near_the_stop_thresholds(row):
    size = _norm(np.array(row))
    rk4 = {"method": "rk4", "step": 0.05}
    ends = {"radius": set(), "speed": set(), "gradient": set()}
    for r in _ulps_around(size):
        # x stays at row (v = 0 on a flat landscape): diverged iff |x| > r
        kernel, generic = _both(flat(dim=2), constant(1.0), row, [0.0, 0.0], t_max=0.2,
                                stop=StopCondition(divergence_radius=r), **rk4)
        _assert_same_run(kernel, generic)
        ends["radius"].add(kernel.termination_reason)
        # v stays at row (no friction, no force): stationary iff |v| < r
        kernel, generic = _both(flat(dim=2), constant(0.0), [0.0, 0.0], row, t_max=0.2,
                                stop=StopCondition(stationarity_tol=r, dwell=0.05), **rk4)
        _assert_same_run(kernel, generic)
        ends["speed"].add(kernel.termination_reason)
        # ∇Φ stays at row on a plane of that slope, and |v| stays below r
        kernel, generic = _both(tilted_plane(slope=row), constant(1.0), [0.0, 0.0], [0.0, 0.0],
                                t_max=0.2, stop=StopCondition(stationarity_tol=r, dwell=0.05), **rk4)
        _assert_same_run(kernel, generic)
        ends["gradient"].add(kernel.termination_reason)
    assert ends == {"radius": {"diverged", "t_max"}, "speed": {"stationary", "t_max"},
                    "gradient": {"stationary", "t_max"}}


# --- an independent oracle -----------------------------------------------------


def _scipy_final_state(p, s, x0, v0, t1):
    integ = pytest.importorskip("scipy.integrate")
    dim = p.dim

    def rhs(t, y):
        x, v = y[:dim], y[dim:]
        return np.concatenate([v, -s.lam(t) * v - p.gradient_fn(x)])

    sol = integ.solve_ivp(rhs, (0.0, t1), np.concatenate([x0, v0]), method="DOP853",
                          rtol=1e-12, atol=1e-12)
    assert sol.success
    return sol.y[:dim, -1], sol.y[dim:, -1]


def test_kernel_final_state_matches_scipy_on_rosenbrock_descent():
    # The bundled rosenbrock_descent settings. Measured gap: 4.2e-13 in x and
    # 1.1e-11 in v; the bound leaves a factor of about 10.
    p, s = rosenbrock(a=1.0, b=100.0), constant(1.0)
    x0, v0 = np.array([-1.2, 1.44]), np.zeros(2)
    cfg = IntegratorConfig(method="dopri45", abs_tol=1e-10, rel_tol=1e-10, h_max=2e-3, t_max=20.0)
    traj = integrate(functools.partial(hbft_field, p, s), p, s, _init(x0, v0), cfg)
    x_ref, v_ref = _scipy_final_state(p, s, x0, v0, traj.t_final)
    assert np.max(np.abs(traj.x[-1] - x_ref)) <= 1e-10
    assert np.max(np.abs(traj.v[-1] - v_ref)) <= 1e-10


def test_kernel_final_state_matches_scipy_on_double_well():
    # rk4 at h = 1e-3 has a global error of order h^4 = 1e-12. Measured gap:
    # 1.4e-13 in x and 4.7e-13 in v; the bound leaves a factor of about 10.
    p, s = double_well(), constant(1.0)
    x0, v0 = np.array([2.0]), np.zeros(1)
    cfg = IntegratorConfig(method="rk4", step=1e-3, t_max=10.0)
    traj = integrate(functools.partial(hbft_field, p, s), p, s, _init(x0, v0), cfg)
    x_ref, v_ref = _scipy_final_state(p, s, x0, v0, traj.t_final)
    assert np.max(np.abs(traj.x[-1] - x_ref)) <= 5e-12
    assert np.max(np.abs(traj.v[-1] - v_ref)) <= 5e-12
