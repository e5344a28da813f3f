"""Acceptance gate: the eleven pass/fail criteria for this package, one test
and one printed verdict line each. Run with ``pytest -s`` to see the lines.

Each tolerance is pinned here on purpose; loosening one is a contract change,
not a test fix.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

import numpy as np
import pytest

from hbft import (
    IntegratorConfig,
    MechanicalParams,
    PhaseState,
    SampledFunction,
    barbalat_check,
    builtin_potentials,
    check_velocity_bound,
    energy_balance_residual,
    full_surface_field,
    hbft_field,
    integrate,
    make_potential,
    model_discrepancy,
    tail_asymptotics,
    validate_gradient,
)
from hbft.cli import run_scenario
from hbft.friction import constant, oscillating
from hbft.potentials import quadratic

from conftest import damped_x


@contextmanager
def verdict(num: int, label: str):
    """Print the verdict line of one criterion; what the test appends to the
    yielded list (a measured margin) ends the line."""
    notes = []
    try:
        yield notes
    except BaseException:
        print(f"[FAIL] acceptance {num:02d}: {label}{''.join(notes)}")
        raise
    print(f"[PASS] acceptance {num:02d}: {label}{''.join(notes)}")


def _integrate(p, s, x0, v0, **kw):
    init = PhaseState(t=0.0, x=np.asarray(x0, float), v=np.asarray(v0, float))
    return integrate(lambda st: hbft_field(p, s, st), p, s, init, IntegratorConfig(**kw))


def test_01_closed_form_oracle_accuracy_and_speed():
    with verdict(1, "fixed-step run matches the closed form to 1e-6 in under 1 s") as notes:
        p, s = quadratic(dim=1), constant(1.0)
        init = PhaseState(t=0.0, x=np.array([1.0]), v=np.array([0.0]))
        cfg = IntegratorConfig(method="rk4", step=1e-3, t_max=10.0)
        field = lambda st: hbft_field(p, s, st)
        start = time.perf_counter()
        traj = integrate(field, p, s, init, cfg)
        elapsed = time.perf_counter() - start
        notes.append(f" (took {elapsed:.3f} s)")
        err = max(abs(traj.x[i, 0] - damped_x(traj.t[i])) for i in range(traj.n_samples))
        assert err <= 1e-6
        assert elapsed < 1.0


def test_02_energy_never_increases_on_bundled_scenarios(bundle_runs):
    with verdict(2, "max energy increase <= 1e-8 across every bundled scenario"):
        for name, run in bundle_runs.items():
            increases = np.diff(run.result.trajectory.energy)
            assert float(np.max(increases, initial=0.0)) <= 1e-8, name


def test_03_energy_balance_on_bundled_scenarios(bundle_runs):
    with verdict(3, "dissipation integral balances the energy drop to 1e-5"):
        for name, run in bundle_runs.items():
            rec = energy_balance_residual(run.result.trajectory, run.cfg.schedule)
            assert rec.residual <= 1e-5, f"{name}: {rec.residual}"


def test_04_velocity_bound_on_bundled_scenarios(bundle_runs):
    with verdict(4, "kinetic energy stays under its declared budget within 1e-8"):
        for name, run in bundle_runs.items():
            assert run.cfg.potential.lower_bound is not None, name
            rec = check_velocity_bound(run.result.trajectory, run.cfg.potential)
            assert rec.residual <= 1e-8, f"{name}: {rec.residual}"


def test_05_late_time_decay_certificates(bundle_runs):
    with verdict(5, "tail sup of sqrt(lambda)*speed <= 1e-5 on both 50 s runs"):
        for name in ("damped_harmonic_tail", "oscillating_friction"):
            run = bundle_runs[name]
            rec = tail_asymptotics(run.result.trajectory, run.cfg.schedule, run.cfg.potential)
            assert run.result.trajectory.t_final == pytest.approx(50.0), name
            assert rec.residual <= 1e-5, f"{name}: {rec.residual}"


def test_06_integral_boundedness_certificate_classifies_exactly():
    with verdict(6, "decay certified; constant and chirp rejected for the right premise"):
        t = np.linspace(0.0, 50.0, 5001)
        budgets = dict(l2_budget=10.0, linf_budget=1.5, dot_budget=1.5)

        decay = barbalat_check(
            SampledFunction(t=t, value=np.exp(-t), derivative=-np.exp(-t)), **budgets
        )
        assert decay.passed
        assert decay.details["conclusion_status"] == "holds"

        const = barbalat_check(SampledFunction(t=t, value=np.ones_like(t)), **budgets)
        assert not const.passed
        assert const.details["l2_status"] == "violated"

        chirp_v = np.sin(t**2) / (1.0 + t)
        chirp_d = 2.0 * t * np.cos(t**2) / (1.0 + t) - np.sin(t**2) / (1.0 + t) ** 2
        chirp = barbalat_check(SampledFunction(t=t, value=chirp_v, derivative=chirp_d), **budgets)
        assert not chirp.passed
        assert chirp.details["l2_status"] == "established"
        assert chirp.details["linf_status"] == "established"
        assert chirp.details["dot_status"] == "violated"


def test_07_fixed_step_error_shrinks_at_fourth_order():
    with verdict(7, "halving the step cuts the global error by 8x to 32x"):
        p, s = quadratic(dim=1), constant(1.0)
        errs = []
        for h in (0.05, 0.025):
            traj = _integrate(p, s, [1.0], [0.0], method="rk4", step=h, t_max=2.0)
            errs.append(max(abs(traj.x[i, 0] - damped_x(traj.t[i])) for i in range(traj.n_samples)))
        assert 8.0 <= errs[0] / errs[1] <= 32.0


def test_08_surface_model_converges_to_reduced_model():
    with verdict(8, "surface-vs-reduced trajectory gap shrinks monotonically in the scaling"):
        mp = MechanicalParams(mass=1.0, gravity=1.0)
        s = constant(1.0)
        gaps = []
        for eps in (1e-1, 1e-2, 1e-3):
            p = quadratic(dim=1, scale=eps)
            init = PhaseState(t=0.0, x=np.array([1.0]), v=np.array([0.0]))
            cfg = IntegratorConfig(method="rk4", step=1e-3, t_max=5.0)
            full = integrate(
                lambda st: full_surface_field(p, s, mp, st), p, s, init, cfg
            )
            reduced = integrate(lambda st: hbft_field(p, s, st), p, s, init, cfg)
            gaps.append(model_discrepancy(full, reduced).residual)
        assert gaps[0] > gaps[1] > gaps[2]


def test_09_double_well_settles_at_certified_minimum(bundle_runs):
    with verdict(9, "two-basin release stops stationary at the +1 minimum, gradient tail <= 1e-4"):
        run = bundle_runs["double_well"]
        traj = run.result.trajectory
        assert traj.termination_reason == "stationary"
        # basin fixed by two independent high-accuracy reference routes
        assert abs(traj.x[-1, 0] - 1.0) <= 1e-3
        rec = tail_asymptotics(traj, run.cfg.schedule, run.cfg.potential)
        assert rec.details["tail_grad_norm_sup"] <= 1e-4


def test_10_gradients_validated_at_random_points():
    with verdict(10, "analytic gradients match finite differences at 100 points per landscape"):
        rng = np.random.default_rng(2024)
        for name, _ in builtin_potentials():
            p = make_potential(name)
            for _ in range(100):
                x = rng.uniform(-2.0, 2.0, size=p.dim)
                assert validate_gradient(p, x) <= 1e-4, name


def test_11_reruns_are_byte_identical(bundle_runs, tmp_path):
    with verdict(11, "every bundled scenario reproduces its trajectory CSV byte for byte"):
        for name, run in bundle_runs.items():
            rerun_dir = tmp_path / name
            result = run_scenario(run.cfg, out_dir=rerun_dir, quiet=True)
            assert result.exit_code == run.result.exit_code, name
            fresh = (rerun_dir / f"{name}.csv").read_bytes()
            assert fresh == run.csv_bytes, name
