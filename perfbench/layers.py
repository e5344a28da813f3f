"""Per-layer probes for the traced run: warmed micro-loops and small fixed runs.

Every probe calls hbft's public functions only and is the same on every
workload, so its numbers compare across workloads and commits.
"""

from __future__ import annotations

import shutil
import statistics
import time
from pathlib import Path

import numpy as np

from hbft import cli, diagnostics, dynamics, friction, potentials
from hbft.dynamics import PhaseState, hbft_field
from hbft.integrate import IntegratorConfig, integrate

import workloads
from spans import Tracer

REPEATS = 5
# Each timed repeat of a micro-loop runs about this long.
MICRO_TARGET_S = 0.01

POTENTIAL_POINTS = {
    "quadratic": ({"dim": 1}, [0.7]),
    "anisotropic_quadratic": ({"diag": [1.0, 4.0]}, [0.7, -0.4]),
    "double_well": ({}, [0.7]),
    "rosenbrock": ({"a": 1.0, "b": 100.0}, [-1.2, 1.44]),
    "eggcrate": ({"dim": 2, "amplitude": 1.0}, [2.5, -1.5]),
}
SCHEDULES = {
    "constant": {"value": 1.0},
    "power_decay": {"initial": 1.0, "exponent": 0.5},
    "oscillating": {"base": 2.0, "amplitude": 1.0, "angular_frequency": 1.0},
    "step": {"times": [15.0, 25.0], "values": [1.0, 0.6, 1.2]},
}
CHECK_SAMPLES = 5_000
ACCEPTANCE01 = dict(method="rk4", step=1e-3, t_max=10.0)
ACCEPTANCE01_STEPS = 10_000
SPARSE_STRIDE = 100
RECORD_T_MAX = 0.5
RECORD_PAIRS = 16
SWEEP_ROUNDS = 2


def per_call_us(fn, target_s: float = MICRO_TARGET_S) -> float:
    """Median over REPEATS of the mean µs per call of fn() in a warmed loop."""
    for _ in range(50):
        fn()
    n = 50
    while True:
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        dt = time.perf_counter() - t0
        if dt >= target_s / 4:
            break
        n *= 4
    n = max(1, int(n * target_s / dt))
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        times.append((time.perf_counter() - t0) / n)
    return statistics.median(times) * 1e6


def median_s(fn, repeats: int = 3) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def micro_metrics(root: Path) -> dict:
    out = {}
    for name, (params, x) in POTENTIAL_POINTS.items():
        p = potentials.make_potential(name, **params)
        xa = np.array(x)
        out[f"potentials.gradient_us.{name}"] = per_call_us(lambda: potentials.gradient(p, xa))
        out[f"potentials.value_us.{name}"] = per_call_us(lambda: potentials.value(p, xa))
    for name, params in SCHEDULES.items():
        s = friction.make_schedule(name, **params)
        out[f"friction.lambda_at_us.{name}"] = per_call_us(lambda: friction.lambda_at(s, 17.3))

    p, s = potentials.make_potential("quadratic", dim=1), friction.make_schedule("constant", value=1.0)
    x, v = np.array([0.7]), np.array([-0.2])
    state = PhaseState(1.0, x, v)
    out["dynamics.hbft_field_us"] = per_call_us(lambda: dynamics.hbft_field(p, s, state))
    out["dynamics.phase_state_us"] = per_call_us(lambda: dynamics.PhaseState(1.0, x, v))

    paths = sorted((root / "scenarios").glob("*.yaml"))

    def parse_all():
        for path in paths:
            cli.ScenarioConfig.from_raw(cli.load_config_file(path), source=str(path))

    parse_all()
    out["cli.parse_ms"] = median_s(parse_all, REPEATS) / len(paths) * 1e3
    out.update(check_metrics())
    return out


def check_metrics() -> dict:
    """µs per trajectory sample of each check (friction_bounded: per grid point)."""
    traj = workloads.oracle_trajectory("constant", 1.0, 1.0, 0.0, samples=CHECK_SAMPLES)
    p = potentials.make_potential("quadratic", dim=1)
    s = friction.make_schedule("constant", value=1.0)
    f = diagnostics.sqrt_friction_speed(traj)
    grid = 1000
    checks = {
        "energy_monotone": lambda: diagnostics.check_energy_monotone(traj),
        "energy_balance": lambda: diagnostics.energy_balance_residual(traj, s),
        "velocity_bound": lambda: diagnostics.check_velocity_bound(traj, p),
        "tail_asymptotics": lambda: diagnostics.tail_asymptotics(traj, s, p),
        "barbalat": lambda: diagnostics.barbalat_check(f, 10.0, 1.5, 1.5),
        "acceleration_bound": lambda: diagnostics.check_acceleration_bound(traj, p, s, bound=10.0),
        "friction_bounded": lambda: friction.verify_friction_hypotheses(s, horizon=40.0, grid_points=grid),
    }
    out = {}
    for name, fn in checks.items():
        fn()
        per = grid if name == "friction_bounded" else CHECK_SAMPLES
        out[f"diagnostics.{name}_us_per_sample"] = median_s(fn, REPEATS) / per * 1e6
    return out


def acceptance01(stride: int = 1, t_max: float = ACCEPTANCE01["t_max"]) -> float:
    """Wall time of the acceptance-01 run (1-D quadratic, rk4, h=1e-3, t_max=10)."""
    p = potentials.make_potential("quadratic", dim=1)
    s = friction.make_schedule("constant", value=1.0)
    init = PhaseState(t=0.0, x=np.array([1.0]), v=np.array([0.0]))
    cfg = IntegratorConfig(**dict(ACCEPTANCE01, t_max=t_max), sample_stride=stride)
    t0 = time.perf_counter()
    integrate(lambda st: hbft_field(p, s, st), p, s, init, cfg)
    return time.perf_counter() - t0


def integrate_probes(root: Path, tracer: Tracer) -> dict:
    """Acceptance-01 timing, recording cost per sample, and counted probe runs.

    The recording cost compares the medians of several short dense and
    sparse runs, made alternately so that drift of the machine falls on
    both sides of the difference.
    """
    out = {"integrate.acceptance01_s": statistics.median(acceptance01() for _ in range(3))}
    dense, sparse = [], []
    for _ in range(RECORD_PAIRS):
        dense.append(acceptance01(1, RECORD_T_MAX))
        sparse.append(acceptance01(SPARSE_STRIDE, RECORD_T_MAX))
    steps = round(RECORD_T_MAX / ACCEPTANCE01["step"])
    extra_samples = steps - steps // SPARSE_STRIDE
    out["integrate.record_us_per_sample"] = (
        (statistics.median(dense) - statistics.median(sparse)) / extra_samples * 1e6
    )

    # Counted runs: a short rk4 run and a short rosenbrock_descent run (dopri45).
    traced = tracer.wrap_integrate(integrate)
    p = potentials.make_potential("quadratic", dim=1)
    s = friction.make_schedule("constant", value=1.0)
    with tracer.op("probe.rk4", "bench", probe=True):
        traced(lambda st: hbft_field(p, s, st), p, s,
               PhaseState(0.0, np.array([1.0]), np.array([0.0])),
               IntegratorConfig(method="rk4", step=1e-3, t_max=1.0))
    path = root / "scenarios" / "rosenbrock_descent.yaml"
    raw = cli.load_config_file(path)
    cfg = cli.ScenarioConfig.from_raw(raw, source=str(path))
    short = dict(cfg.raw)
    short["integrator"] = dict(short["integrator"], t_max=2.0)
    cfg = cli.ScenarioConfig.from_raw(short, source=str(path))
    with tracer.op("probe.dopri45", "bench", probe=True):
        traced(lambda st: hbft_field(cfg.potential, cfg.schedule, st), cfg.potential, cfg.schedule,
               PhaseState(0.0, cfg.x0.copy(), cfg.v0.copy()), cfg.integrator)
    return out


def sweep_probes(grid: dict, work_dir: Path) -> dict:
    """run_sweep overhead over its points run singly, and the 2-worker pool speed-up.

    Uses the first two damping values of the grid (6 points); each variant
    runs SWEEP_ROUNDS times, interleaved, and the fastest run counts.
    """
    base = workloads.ENSEMBLE_BASE
    grid = dict(grid, **{"schedule.params.value": grid["schedule.params.value"][:2]})

    def serial():
        cli.run_sweep(base, grid, work_dir / "w1", workers=1, quiet=True, source="probe")

    def pooled():
        cli.run_sweep(base, grid, work_dir / "w2", workers=2, quiet=True, source="probe")

    def singly():
        for idx, (_, merged) in enumerate(cli.sweep_points(base, grid)):
            cfg = cli.ScenarioConfig.from_raw(merged, source="probe", default_name=f"p{idx}")
            cli.run_scenario(cfg, work_dir / "single" / f"p{idx}", quiet=True)

    best = {fn: float("inf") for fn in (serial, singly, pooled)}
    for _ in range(SWEEP_ROUNDS):
        for fn in best:
            best[fn] = min(best[fn], median_s(fn, 1))
    shutil.rmtree(work_dir, ignore_errors=True)
    return {
        "cli.sweep_overhead_ratio": best[serial] / best[singly],
        "cli.sweep_pool2_speedup": best[serial] / best[pooled],
    }
