"""Integrators and trajectory recording: single-step accuracy, global order,
adaptive/fixed agreement, stop conditions, and sampling contracts."""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
import os
import subprocess
import sys
import traceback

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
from hbft.integrate import _on_floats, _Recorder
from hbft.integrate import _core, _kernel, _kernel_source, _slope, _TABLEAUX
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
from conftest import REPO_ROOT


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


_SAMPLE_EVERY_STEP = """
import functools, json, sys
import numpy as np
from hbft import IntegratorConfig, PhaseState, hbft_field, integrate
from hbft.friction import constant
from hbft.potentials import quadratic
p, s = quadratic(dim=2), constant(1.0)
cfg = IntegratorConfig(t_max=1.0, sample_dt=float(sys.argv[1]), **json.loads(sys.argv[2]))
start = PhaseState(t=0.0, x=np.array([1.0, 0.5]), v=np.zeros(2))
for field in (functools.partial(hbft_field, p, s), lambda st: hbft_field(p, s, st)):
    traj = integrate(field, p, s, start, cfg)
    print(traj.n_samples - traj.step_stats.accepted, traj.t.tobytes().hex(), traj.x.tobytes().hex())
"""


@pytest.mark.parametrize("method", ['{"method": "rk4", "step": 0.01}', '{"method": "dopri45"}'],
                         ids=["rk4", "dopri45"])
@pytest.mark.parametrize("sample_dt", ["1e-300", "5e-324", "1e-9"])
def test_sample_dt_far_below_the_step_samples_every_step(method, sample_dt):
    # The next tick is found in one step: counting ticks up one at a time took
    # about 1 s a step at 1e-9 and stalled for good below the float spacing of t.
    out = subprocess.run([sys.executable, "-c", _SAMPLE_EVERY_STEP, sample_dt, method],
                         capture_output=True, text=True, timeout=60,
                         env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")})
    assert out.returncode == 0, out.stderr
    kernel, generic = out.stdout.splitlines()
    assert kernel == generic and kernel.startswith("1 ")  # the start and every accepted step


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


@pytest.mark.parametrize("method", [{"method": "rk4", "step": 1e-2},
                                    {"method": "dopri45", "h_max": 1e-2}], ids=["rk4", "dopri45"])
def test_contact_loss_halt_via_reaction_callable(method):
    p, s = flat(dim=1), constant(0.0)
    cfg = IntegratorConfig(t_max=10.0, stop=StopCondition(halt_on_contact_loss=True), **method)
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
    assert _on_floats(kernel_field, p, s, None)
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
    # eggcrate's |x0| = 1.4e307 lies inside the radius, so dopri45 rejects the
    # non-finite attempts and shrinks its step until they are finite
    end = "t_max" if p.name.startswith("eggcrate") and method == "dopri45" else "diverged"
    assert kernel.termination_reason == end and kernel.grad_norm[0] == math.inf
    if method == "rk4":
        assert kernel.n_samples == 1


def _assert_same_abort(kernel, generic, message: str) -> Trajectory:
    """Both paths raised the same IntegrationError; its partial run."""
    assert type(kernel) is type(generic) is IntegrationError
    assert str(kernel) == str(generic) and str(generic).startswith(message)
    _assert_same_run(kernel.partial, generic.partial)
    assert kernel.partial.termination_reason == "aborted"
    return kernel.partial


@pytest.mark.parametrize("p, x0, rejected", [(double_well(), [1e100], 20),
                                             (rosenbrock(), [1e60, 0.0], 12)],
                         ids=["double_well", "rosenbrock"])
def test_kernel_matches_generic_path_rejecting_non_finite_steps_above_h_min(p, x0, rejected):
    # The stages of the first attempts overflow: each is rejected with an
    # infinite error ratio and a fifth of the step, until the step is short
    # enough; the run then crawls until the step budget runs out.
    kernel, generic = _both(p, constant(1.0), x0, [0.0] * p.dim, method="dopri45", h_min=1e-200,
                            max_steps=400, stop=StopCondition(divergence_radius=1e308))
    partial = _assert_same_abort(kernel, generic, "step budget exhausted")
    assert partial.step_stats.rejected == rejected


@pytest.mark.parametrize("dim", [1, 2])
def test_kernel_matches_generic_path_when_the_adaptive_step_underflows(dim):
    # a stiff bowl at a tight tolerance needs steps far below h_min
    kernel, generic = _both(quadratic(dim=dim, scale=1e6), constant(1.0), [1.0] * dim, [0.0] * dim,
                            method="dopri45", abs_tol=1e-12, rel_tol=1e-12, h_min=1e-3, h_max=1e-2)
    partial = _assert_same_abort(kernel, generic, "adaptive step underflow")
    assert partial.n_samples == 1 and partial.step_stats.rejected == 1


@pytest.mark.parametrize("method", [{"method": "rk4", "step": 1e-3},
                                    {"method": "dopri45", "h_max": 1e-3}], ids=["rk4", "dopri45"])
def test_kernel_matches_generic_path_when_the_step_budget_runs_out(method):
    for p, s, x0, v0 in (_BUILTINS_1D[2], _BUILTINS_2D[2]):
        kernel, generic = _both(p, s, x0, v0, t_max=10.0, max_steps=50, **method)
        assert isinstance(kernel, IntegrationError) and isinstance(generic, IntegrationError)
        assert str(kernel) == str(generic)
        _assert_same_run(kernel.partial, generic.partial)
        assert kernel.partial.termination_reason == "aborted"


# --- the generated kernels and the per-step overflow retry -------------------------
#
# The float stages call the potential's float gradient form; where it raises,
# the reference core takes the step through the field, and gradient() gives the
# gradient at its end. Runs that take the retry must still match the generic
# path bit for bit.


@pytest.mark.parametrize("method", ["rk4", "dopri45"])
@pytest.mark.parametrize("dim", [0, 1, 2])  # 0: the array variant
def test_every_kernel_variant_compiles_once(dim, method):
    for pieces in (False, True) if dim else (False,):  # pieces: λ read once per piece
        compile(_kernel_source(dim, method, pieces), "<kernel>", "exec")
        kernel = _kernel(dim, method, pieces)
        assert callable(kernel) and kernel is _kernel(dim, method, pieces)
        assert kernel.__code__.co_filename.endswith(", pieces>") == pieces


def test_no_kernel_is_compiled_at_import():
    # nor is the process pool's module imported: only a pooled sweep uses it
    code = ("import sys, hbft.cli; from hbft.integrate import _kernel; "
            "print(_kernel.cache_info().currsize, 'concurrent.futures' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")})
    assert out.stdout.strip() == "0 False"


def test_the_core_steps_rk4_as_the_textbook_writes_it():
    # the same doubles as the four stages written out, whose update sums from k1
    p, s = eggcrate(dim=2), oscillating(2.0, 1.0, 3.0)
    field, rng = _field(p, s), np.random.default_rng(7)
    for _ in range(200):
        y, t, h = rng.normal(size=(2, 2)), rng.uniform(0.0, 10.0), rng.uniform(1e-4, 0.5)
        k1 = _slope(field, t, y)
        k2 = _slope(field, t + 0.5 * h, y + 0.5 * h * k1)
        k3 = _slope(field, t + 0.5 * h, y + 0.5 * h * k2)
        k4 = _slope(field, t + h, y + h * k3)
        want = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        assert _core(_TABLEAUX["rk4"], field, t, y, h).tobytes() == want.tobytes()


def test_a_traceback_shows_the_generated_line():
    def lam(t):
        if t > 0.5:
            raise RuntimeError("lambda broke")
        return 1.0

    p, s = quadratic(dim=1), FrictionSchedule(name="breaks", lam=lam)
    for method, variant in itertools.product(["rk4", "dopri45"], ["dim 1", "arrays"]):
        field = functools.partial(hbft_field, p, s) if variant == "dim 1" else _field(p, s)
        cfg = IntegratorConfig(method=method, step=1e-2, t_max=1.0)
        with pytest.raises(RuntimeError, match="lambda broke") as info:
            integrate(field, p, s, _init([1.0], [0.0]), cfg)
        frames = traceback.extract_tb(info.tb)
        # the frame integrate calls is the kernel, its text registered with linecache
        kernel = frames[[frame.name for frame in frames].index("integrate") + 1]
        assert kernel.filename == f"<hbft {method} kernel, {variant}>"
        if variant == "arrays":  # the stage block is the reference core
            assert kernel.line == "result = _core(tableau, field, t, y, hs)"
        else:  # the written-out stage that read λ
            assert "lam_of(" in kernel.line


def _logged_runs(p, s, x0, v0, **kw):
    """The kernel's run of ``p`` with each gradient call logged in order, as
    "float" or "raised" for the float form and "numpy" for ``gradient_fn``;
    the generic path's run of ``p``; and the log."""
    form, numpy_form, log = p.float_gradient_fn, p.gradient_fn, []

    def logged_form(*x):
        try:
            out = form(*x)
        except (OverflowError, ValueError):
            log.append("raised")
            raise
        log.append("float")
        return out

    def logged_numpy(x):
        log.append("numpy")
        return numpy_form(x)

    q = dataclasses.replace(p, float_gradient_fn=logged_form, gradient_fn=logged_numpy)
    cfg, start = IntegratorConfig(**kw), _init(x0, v0)
    kernel = integrate(functools.partial(hbft_field, q, s), q, s, start, cfg)
    return kernel, integrate(_field(p, s), p, s, start, cfg), log


def _without_first_step(log: list, method: dict) -> list:
    """``log`` less dopri45's first-step estimate, the field's one gradient
    call before the first step, after the float form's at the start."""
    if method["method"] == "rk4":
        return log
    assert log[:2] == ["float", "numpy"]
    return log[:1] + log[2:]


@pytest.mark.parametrize("method", [{"method": "rk4", "step": 0.01},
                                    {"method": "dopri45", "h_max": 0.01}], ids=["rk4", "dopri45"])
@pytest.mark.parametrize("p, x0, v0", [
    (double_well(), [1e100], [1e104]),  # x**3 overflows at the third stage of the first step
    (rosenbrock(), [1e70, 0.0], [1e74, 0.0]),  # and x0**2 here
], ids=["double_well", "rosenbrock"])
def test_kernel_retries_a_step_whose_later_stage_overflows(method, p, x0, v0):
    kernel, generic, log = _logged_runs(p, constant(1.0), x0, v0, t_max=1.0,
                                        stop=StopCondition(divergence_radius=1e308), **method)
    _assert_same_run(kernel, generic)
    assert kernel.termination_reason == "diverged"
    # not the gradient at the start nor the first float stage raised, but a
    # later one; only then does the core take the step, a gradient per stage
    log, stages = _without_first_step(log, method), 4 if method["method"] == "rk4" else 7
    assert log.index("raised") == 2 and log[3 : 3 + stages] == ["numpy"] * stages


@pytest.mark.parametrize("method", ["rk4", "dopri45"])
@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("failing_call", [1, 3, 5, 8, 11])
def test_kernel_retry_gives_the_doubles_of_the_generic_path(dim, method, failing_call):
    # A float form that raises at one call only: the initial gradient (1), a
    # stage of the first step (3), the gradient at its end for rk4 or a stage
    # for dopri45 (5), and later stages or ends of step (8, 11). gradient()
    # or the reference core gives that gradient or step instead, and the
    # float form takes the rest of the run.
    p, calls = quadratic(dim=dim, scale=2.0), itertools.count(1)
    form = p.float_gradient_fn

    def flaky(*x):
        if next(calls) == failing_call:
            raise OverflowError("flaky")
        return form(*x)

    q = dataclasses.replace(p, float_gradient_fn=flaky)
    kernel, generic = _both(q, power_decay(1.0, 0.5), [1.0, -0.5][:dim], [0.3, 0.2][:dim],
                            t_max=0.5, method=method, step=0.05, h_max=0.05)
    _assert_same_run(kernel, generic)
    assert kernel.termination_reason == "t_max" and next(calls) > failing_call + 1


@pytest.mark.parametrize("method", [{"method": "rk4", "step": 0.01}, {"method": "dopri45"}],
                         ids=["rk4", "dopri45"])
@pytest.mark.parametrize("case", [_BUILTINS_1D[2], _BUILTINS_1D[3], _BUILTINS_2D[2], _BUILTINS_2D[3]],
                         ids=lambda c: c[0].name)
def test_kernel_calls_only_the_float_form_on_a_run_that_never_overflows(method, case):
    # but in the attempts that reach a jump of a step schedule: the core takes
    # those, a gradient per stage
    p, s, x0, v0 = case
    kernel, generic, log = _logged_runs(p, s, x0, v0, t_max=1.5, **method)
    _assert_same_run(kernel, generic)
    log, stages = _without_first_step(log, method), 4 if method["method"] == "rk4" else 7
    runs = [len(list(run)) for name, run in itertools.groupby(log) if name == "numpy"]
    assert len(log) > 1 and set(log) <= {"float", "numpy"} and all(n % stages == 0 for n in runs)
    crossings = sum(runs) // stages
    if not s.jumps:
        assert crossings == 0
    elif method["method"] == "rk4":  # every step is a sample; a step is min(h, t_max - t) long
        starts = kernel.t[:-1].tolist()
        assert crossings == sum(t < s.jumps[0] <= t + min(0.01, 1.5 - t) for t in starts) >= 1
    else:
        assert crossings >= 1


def _run_by_pieces(p, s, x0, v0, **kw):
    """The kernel's run, which reads λ per piece, after asserting that it
    gives the generic path's doubles."""
    assert s.jumps is not None and _on_floats(functools.partial(hbft_field, p, s), p, s, None)
    kernel, generic = _both(p, s, x0, v0, **kw)
    _assert_same_run(kernel, generic)
    return kernel


@pytest.mark.parametrize("method", [{"method": "rk4", "step": 0.1},
                                    {"method": "dopri45", "h_max": 0.1, "abs_tol": 1e-6, "rel_tol": 1e-6}],
                         ids=["rk4", "dopri45"])
@pytest.mark.parametrize("dim", [1, 2])
def test_kernel_steps_across_a_jump_inside_a_step_as_the_generic_path_does(method, dim):
    # The steps from about 0.5 and 1.3 reach a jump at their middle stages:
    # the core takes it, so no stage reads λ of the wrong piece.
    s = step((0.55, 1.35), (0.4, 2.5, 0.1))
    kernel = _run_by_pieces(quadratic(dim=dim), s, [1.0, -0.5][:dim], [0.3, 0.2][:dim], t_max=2.0, **method)
    t = kernel.t.tolist()  # every step is a sample
    assert kernel.termination_reason == "t_max"
    assert all(any(a < jump < b for a, b in zip(t, t[1:])) for jump in s.jumps)


@pytest.mark.parametrize("method", [{"method": "rk4", "step": 0.25},
                                    {"method": "dopri45", "h_min": 0.25, "h_max": 0.25,
                                     "abs_tol": 1e-2, "rel_tol": 1e-2}], ids=["rk4", "dopri45"])
@pytest.mark.parametrize("dim", [1, 2])
def test_kernel_steps_onto_a_jump_as_the_generic_path_does(method, dim):
    # 0.25 + 0.25 is exactly 0.5: the last stage of the step from 0.25 reads λ
    # at the jump, of the next piece; the step from 0.5 starts that piece.
    s = step((0.5,), (0.4, 2.5))
    kernel = _run_by_pieces(quadratic(dim=dim), s, [1.0, -0.5][:dim], [0.3, 0.2][:dim], t_max=2.0, **method)
    assert kernel.t.tolist() == [0.25 * k for k in range(9)] and kernel.step_stats.rejected == 0


@pytest.mark.parametrize("method", [{"method": "rk4", "step": 0.01}, {"method": "dopri45"}],
                         ids=["rk4", "dopri45"])
@pytest.mark.parametrize("dim", [1, 2])
def test_kernel_by_pieces_keeps_the_lambda_check_past_a_jump(method, dim):
    # the step that reaches the jump is the core's, whose stage past it breaks the claim
    flips = FrictionSchedule(name="flips", lam=lambda t: 1.0 if t < 0.5 else -1.0, jumps=(0.5,))
    kernel, generic = _both(quadratic(dim=dim), flips, [1.0] * dim, [0.0] * dim, t_max=2.0,
                            **method)
    assert isinstance(generic, ScheduleConsistencyError)
    assert type(kernel) is ScheduleConsistencyError and str(kernel) == str(generic)
    _assert_same_run(kernel.partial, generic.partial)
    assert kernel.partial.termination_reason == "aborted" and kernel.partial.t[-1] < 0.5


@pytest.mark.parametrize("method", [{"method": "rk4", "step": 0.01}, {"method": "dopri45", "h_max": 0.02}],
                         ids=["rk4", "dopri45"])
@pytest.mark.parametrize("dim", [1, 2])
def test_kernel_reads_a_declared_constant_schedule_once(method, dim):
    # a schedule that declares one piece is read at t = 0 for every step;
    # dopri45's first-step estimate takes the field there too, and the λ
    # column reads it once, at the first sample
    seen, p = [], quadratic(dim=dim)
    s = FrictionSchedule(name="logged", lam=lambda t: seen.append(t) or 0.7, jumps=())
    kernel = integrate(functools.partial(hbft_field, p, s), p, s, _init([1.0] * dim, [0.5] * dim),
                       IntegratorConfig(t_max=1.0, **method))
    first = [0.0] if method["method"] == "rk4" else [0.0, 0.0]
    assert seen == first + [kernel.t[0]] and kernel.n_samples > 20


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


def _blows_up_past_half(t: float) -> float:
    if t > 0.5:
        raise DivergenceError(f"lambda blew up at t={t}")
    return 1.0


@pytest.mark.parametrize("p, x0", [(quadratic(dim=1), [1.0]), (eggcrate(dim=2), [1.0, -0.5])],
                         ids=["quadratic", "eggcrate"])
def test_schedule_raising_divergence_mid_run_ends_diverged_on_both_paths(p, x0):
    # λ raises DivergenceError past t = 0.5: the step from 0.5 fails at its
    # second stage, so the run ends at t = 0.5, its last finite state.
    s = FrictionSchedule(name="blows_up", lam=_blows_up_past_half)
    kernel, generic = _both(p, s, x0, [0.0] * p.dim, method="rk4", step=0.01, t_max=1.0)
    _assert_same_run(kernel, generic)
    assert kernel.termination_reason == "diverged" and kernel.n_samples == 51
    assert kernel.t[-1] == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("dim", [1, 2])
def test_schedule_raising_divergence_mid_run_shrinks_the_adaptive_step_on_both_paths(dim):
    # dopri45 rejects every attempt past t = 0.5 and shrinks the step until
    # it would fall below h_min
    s = FrictionSchedule(name="blows_up", lam=_blows_up_past_half)
    kernel, generic = _both(quadratic(dim=dim), s, [1.0] * dim, [0.0] * dim, method="dopri45",
                            t_max=1.0)
    partial = _assert_same_abort(kernel, generic, "adaptive step underflow")
    assert partial.t[-1] < 0.5 and partial.step_stats.rejected > 0


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
    assert not _on_floats(_field(p, s), p, s, None)
    # bound to another potential, or with a reaction, or a custom potential
    other = quadratic(dim=1)
    assert not _on_floats(functools.partial(hbft_field, other, s), p, s, None)
    assert not _on_floats(functools.partial(hbft_field, p, s), p, s, lambda st: 1.0)
    custom = Potential(name="bowl", dim=1, value_fn=lambda x: 0.5 * float(x @ x),
                       gradient_fn=lambda x: 1.0 * x)
    assert not _on_floats(functools.partial(hbft_field, custom, s), custom, s, None)
    wide = quadratic(dim=3)
    assert not _on_floats(functools.partial(hbft_field, wide, s), wide, s, None)


@pytest.mark.parametrize("method, calls, stats", [
    ({"method": "rk4", "step": 0.01, "t_max": 1.0}, 400, (100, 0)),
    ({"method": "dopri45", "abs_tol": 1e-10, "rel_tol": 1e-10, "t_max": 5.0}, 1282, (180, 3)),
], ids=["rk4", "dopri45"])
def test_generic_path_calls_the_field_once_per_stage(method, calls, stats):
    # rk4: 4 calls per step; dopri45: 1 for the initial step, then 7 per attempt
    p, s = double_well(), constant(0.5)
    seen = []

    def counted(st):
        seen.append(st.t)
        return hbft_field(p, s, st)

    traj = integrate(counted, p, s, _init([2.0], [0.0]), IntegratorConfig(**method))
    assert (traj.step_stats.accepted, traj.step_stats.rejected) == stats
    assert len(seen) == calls


@pytest.mark.parametrize("method", [{"method": "rk4", "step": 0.01}, {"method": "dopri45"}],
                         ids=["rk4", "dopri45"])
def test_generic_path_takes_a_dim_one_field_of_two_floats(method):
    p, s = double_well(), constant(0.5)
    cfg = IntegratorConfig(t_max=2.0, **method)

    def floats(st):
        dx, dv = hbft_field(p, s, st)
        return float(dx[0]), float(dv[0])

    arrays = integrate(_field(p, s), p, s, _init([2.0], [0.0]), cfg)
    _assert_same_run(integrate(floats, p, s, _init([2.0], [0.0]), cfg), arrays)


@pytest.mark.parametrize("s", [constant(0.7), oscillating(1.0, 0.5, 3.0), power_decay(2.0, 0.5)],
                         ids=["constant", "oscillating", "power_decay"])
def test_generic_path_at_dim_three_steps_each_component_as_the_kernel_at_dim_one(s):
    # a diagonal bowl decouples: each component of the dim-3 run (generic
    # path) is the dim-1 run of its own diagonal entry (float kernel)
    diag, x0, v0 = (1.0, 4.0, 9.0), [1.0, -0.5, 0.25], [0.0, 0.3, -0.2]
    cfg = IntegratorConfig(method="rk4", step=0.01, t_max=3.0,
                           stop=StopCondition(stationarity_tol=1e-300))
    p = anisotropic_quadratic(diag=diag)
    assert not _on_floats(functools.partial(hbft_field, p, s), p, s, None)
    wide = integrate(functools.partial(hbft_field, p, s), p, s, _init(x0, v0), cfg)
    assert wide.termination_reason == "t_max"
    for i, d in enumerate(diag):
        q = anisotropic_quadratic(diag=(d,))
        assert _on_floats(functools.partial(hbft_field, q, s), q, s, None)
        alone = integrate(functools.partial(hbft_field, q, s), q, s, _init([x0[i]], [v0[i]]), cfg)
        assert wide.t.tobytes() == alone.t.tobytes()
        assert wide.x[:, i].tobytes() == alone.x[:, 0].tobytes()
        assert wide.v[:, i].tobytes() == alone.v[:, 0].tobytes()


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


def _dot_norm(a) -> float:
    """|a| for a 1-d float array as the trajectory's columns take it: numpy's dot."""
    return math.sqrt(a.dot(a))


@settings(max_examples=200, deadline=None)
@given(dim=st.sampled_from([1, 2, 3]), rows=_ROWS)
@example(dim=2, rows=[[1e200, 1e200, 0.0], [1e154, -1e154, 0.0], [1e-160, 3e-170, 0.0]])
@example(dim=3, rows=[[5e-324, -1e-310, 2.2e-308], [1.5e-200, 0.0, -0.0]])
@example(dim=1, rows=[[1e160, 0.0, 0.0], [1e-170, 0.0, 0.0], [-0.0, 0.0, 0.0]])
def test_grad_norm_column_equals_the_per_row_norm(dim, rows):
    # huge rows overflow |g|², subnormal ones underflow it: the column must do
    # what numpy's dot does per row, and at dim 1 what sqrt(g*g) does
    g = np.array(rows)[:, :dim].copy()
    rec = _Recorder(quadratic(dim=dim), constant(1.0))
    zeros = np.zeros_like(g)
    for buf, column in ((rec.t, np.arange(len(g))), (rec.x, zeros), (rec.v, zeros), (rec.g, g)):
        buf.extend(column.ravel().tolist())
    with np.errstate(over="ignore", invalid="ignore"):
        col = rec.build("t_max", StepStats(0, 0, 0.0, 0.0)).grad_norm
        ref = np.array([_dot_norm(gk) for gk in g])
    assert col.tobytes() == ref.tobytes()
    if dim == 1:
        assert col.tobytes() == np.array([math.sqrt(a * a) for a in g[:, 0].tolist()]).tobytes()


# --- the stop rules near their thresholds and past the range of |·|² -------------
#
# Every stop rule compares math.hypot of the components with its threshold, on
# the float kernels and on the array path alike. So a threshold one ulp either
# side of hypot(row) decides a run that holds x, v or ∇Φ at row, also for rows
# where numpy's dot rounds |row| otherwise, and a size whose square overflows
# or underflows compares as itself.


def _rows_rounding_apart(n: int = 3, dim: int = 2) -> list:
    """n random rows whose hypot and numpy's dot round apart, and (0.6, -0.8) at dim 2."""
    rng = np.random.default_rng(7)
    rows = []
    for row in rng.normal(size=(20000, dim)).tolist():
        if math.hypot(*row) != _dot_norm(np.array(row)):
            rows.append(tuple(row))
            if len(rows) == n:
                break
    return rows + [(0.6, -0.8)] * (dim == 2)


def _ulps_around(r: float, k: int = 3) -> list:
    out = [r]
    for direction in (math.inf, -math.inf):
        edge = r
        for _ in range(k):
            edge = math.nextafter(edge, direction)
            out.append(edge)
    return out


def _kernel_end(p, s, x0, v0, **kw) -> str:
    """How a float kernel run ends, after it matched the generic path."""
    kernel, generic = _both(p, s, x0, v0, **kw)
    _assert_same_run(kernel, generic)
    return kernel.termination_reason


def _array_end(p, s, x0, v0, **kw) -> str:
    """How a run on the array path ends."""
    return _run(p, s, x0, v0, **kw).termination_reason


def _assert_stops_exactly_at(row: tuple, end) -> None:
    """Each stop rule decides at hypot(row) to the ulp: ``end`` runs x, v and ∇Φ held at row."""
    size, zeros, rk4 = math.hypot(*row), [0.0] * len(row), {"method": "rk4", "step": 0.05, "t_max": 0.2}
    for r in _ulps_around(size):
        settle = StopCondition(stationarity_tol=r, dwell=0.05, divergence_radius=1e300)
        # x stays at row (v = 0 on a flat landscape): diverged iff |x| > r
        assert end(flat(dim=len(row)), constant(1.0), row, zeros,
                   stop=StopCondition(divergence_radius=r), **rk4) == ("diverged" if size > r else "t_max")
        # v stays at row (no friction, no force): stationary iff |v| < r
        assert end(flat(dim=len(row)), constant(0.0), zeros, row, stop=settle, **rk4) == (
            "stationary" if size < r else "t_max")
        # ∇Φ stays at row on a plane of that slope, and |v| stays below r
        assert end(tilted_plane(slope=row), constant(1.0), zeros, zeros, stop=settle, **rk4) == (
            "stationary" if size < r else "t_max")


@pytest.mark.parametrize("row", _rows_rounding_apart())
def test_kernel_matches_generic_path_near_the_stop_thresholds(row):
    _assert_stops_exactly_at(row, _kernel_end)


@pytest.mark.parametrize("a", [0.7, -1.3e-5, 3.1e100, -2.5e-300])
def test_kernel_matches_generic_path_near_the_stop_thresholds_at_dim_1(a):
    _assert_stops_exactly_at((a,), _kernel_end)


@pytest.mark.parametrize("row", _rows_rounding_apart(dim=3))
def test_array_path_stops_exactly_at_the_hypot_of_a_row_at_dim_3(row):
    _assert_stops_exactly_at(row, _array_end)


_BEYOND_THE_SQUARES = {
    # |x| = 1e160·sqrt(dim) lies inside the radius, although |x|² overflows
    "far": (flat, constant(1.0), 1e160, 1.0, StopCondition(divergence_radius=1e300)),
    # |v| = 1e-170·sqrt(dim) stays above the tolerance, although |v|² underflows
    "slow": (flat, constant(0.0), 0.0, 1e-170, StopCondition(stationarity_tol=1e-200, dwell=0.05)),
    # and so does |∇Φ| = |x| on the unit bowl
    "shallow": (quadratic, constant(1.0), 1e-170, 0.0, StopCondition(stationarity_tol=1e-200, dwell=0.05)),
}


@pytest.mark.parametrize("method", [{"method": "rk4", "step": 0.05}, {"method": "dopri45"}],
                         ids=["rk4", "dopri45"])
@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("case", list(_BEYOND_THE_SQUARES))
def test_sizes_whose_squares_leave_the_float_range_stop_no_run(case, dim, method):
    potential, s, x, v, stop = _BEYOND_THE_SQUARES[case]
    end = _kernel_end if dim <= 2 else _array_end
    assert end(potential(dim=dim), s, [x] * dim, [v] * dim, t_max=1.0, stop=stop, **method) == "t_max"


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
