"""The benchmark's three workloads: seeded inputs, operations, outcomes.

Each workload is a closed loop with one client: an operation starts only
after the previous one has returned. All of them drive hbft through its
public API only.

- ``bundle``: ``hbft.cli.main(["simulate", ...])`` on every bundled
  scenario: dense sampling, every check, all three writers, rk4 and dopri45,
  every schedule shape. This is what users run.
- ``ensemble``: one ``run_sweep(..., workers=1)`` over a seeded grid of
  damped oscillators that share one base (quadratic, constant schedule,
  rk4, sparse sampling, stationarity stop, two checks). Almost all stepper
  and per-point overhead; little recording or CSV work.
- ``certify``: the seven checks plus the CSV and report writers on
  trajectories built from the closed-form oscillator. No integration.

The seed only selects entries from fixed catalogues, so that every input a
seed can produce has an outcome recorded in ``reference.json``, and every
seed gives the same amount of work.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

import numpy as np

from hbft import cli, diagnostics, friction
from hbft.diagnostics import CertificationReport, CheckRecord
from hbft.integrate import StepStats, Trajectory
from hbft.potentials import quadratic

import oracle

# Relative tolerance on final x, v and E against the reference outcome.
FINAL_STATE_RTOL = 1e-8
# Check residuals are compared only for `certify`, whose inputs are fixed bytes.
RESIDUAL_RTOL = 1e-6
RESIDUAL_ATOL = 1e-12
# Absolute tolerance of an ensemble point against the closed form (acceptance 01).
ORACLE_ATOL = 1e-6


def sha256_file(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def read_csv_tail(path: Path) -> tuple[int, dict]:
    """Row count and final t, x, v, E of a trajectory CSV."""
    text = Path(path).read_text()
    lines = text.splitlines()
    header = lines[0].split(",")
    dim = (len(header) - 5) // 2
    last = [float(v) for v in lines[-1].split(",")]
    return len(lines) - 1, {
        "t": last[0],
        "final_x": last[1 : 1 + dim],
        "final_v": last[1 + dim : 1 + 2 * dim],
        "final_E": last[1 + 2 * dim],
    }


def run_outcome(exit_code: int, csv_path: Path, report_path: Path, extra_artifacts=()) -> dict:
    """What one run produced, in the shape ``reference.json`` stores."""
    report = json.loads(Path(report_path).read_text())
    rows, tail = read_csv_tail(csv_path)
    meta = report["trajectory"]
    artifacts = [csv_path, report_path, *extra_artifacts]
    return {
        "exit_code": exit_code,
        "termination": meta.get("termination_reason"),
        "verdicts": [[c["check_name"], c["passed"]] for c in report["checks"]],
        "residuals": [c["residual"] for c in report["checks"]],
        "n_samples": rows,
        "final_t": tail["t"],
        "final_x": tail["final_x"],
        "final_v": tail["final_v"],
        "final_E": tail["final_E"],
        "accepted": meta.get("accepted_steps", 0),
        "digests": {Path(a).name: sha256_file(a) for a in artifacts},
    }


def _close(a, b, rtol: float, atol: float = 0.0) -> bool:
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    return abs(a - b) <= rtol * max(1.0, abs(b)) + atol


def compare(outcome: dict, ref: dict | None) -> tuple[list[str], int]:
    """Problems that make the operation fail, and the artifact digest mismatches."""
    if ref is None:
        return ["no reference outcome recorded"], 0
    problems = []
    for key in ("exit_code", "termination", "verdicts", "n_samples"):
        if outcome[key] != ref[key]:
            problems.append(f"{key}: {outcome[key]!r} != reference {ref[key]!r}")
    for key in ("final_x", "final_v"):
        if len(outcome[key]) != len(ref[key]) or not all(
            _close(a, b, FINAL_STATE_RTOL) for a, b in zip(outcome[key], ref[key])
        ):
            problems.append(f"{key}: {outcome[key]} drifted from reference {ref[key]}")
    if not _close(outcome["final_E"], ref["final_E"], FINAL_STATE_RTOL):
        problems.append(f"final_E: {outcome['final_E']} drifted from reference {ref['final_E']}")
    if "residuals" in ref and not all(
        _close(a, b, RESIDUAL_RTOL, RESIDUAL_ATOL) for a, b in zip(outcome["residuals"], ref["residuals"])
    ):
        problems.append(f"residuals: {outcome['residuals']} drifted from reference {ref['residuals']}")
    problems.extend(outcome.get("oracle_problems", []))
    mismatches = sum(
        1 for name, digest in ref["digests"].items() if outcome["digests"].get(name) != digest
    )
    return problems, mismatches


# --- bundle ----------------------------------------------------------------------


class Bundle:
    name = "bundle"

    def __init__(self, root: Path, seed: int):
        self.paths = sorted((root / "scenarios").glob("*.yaml"))
        if not self.paths:
            raise FileNotFoundError(f"no bundled scenarios under {root / 'scenarios'}")
        self.methods: dict[str, str] = {}
        self._ops: list[tuple[str, Path]] = []

    def prepare(self, warm_dir: Path) -> None:
        """Parse every scenario and run each one over a short horizon."""
        for path in self.paths:
            cfg = cli.ScenarioConfig.from_raw(
                cli.load_config_file(path), source=str(path), default_name=path.stem
            )
            self._ops.append((cfg.name, path))
            self.methods[cfg.name] = cfg.integrator.method
            short = dict(cfg.raw)
            short["integrator"] = dict(short["integrator"], t_max=0.05)
            short_cfg = cli.ScenarioConfig.from_raw(short, source=str(path))
            cli.run_scenario(short_cfg, warm_dir / cfg.name, quiet=True)

    def ops(self):
        return self._ops

    def run(self, path: Path, out_dir: Path):
        return cli.main(["simulate", str(path), "--quiet", "--out-dir", str(out_dir)])

    def outcomes(self, key: str, out_dir: Path, exit_code):
        yield key, run_outcome(
            exit_code,
            out_dir / f"{key}.csv",
            out_dir / f"{key}.report.json",
            [out_dir / f"{key}.summary.txt"],
        )

    def expected(self, key: str) -> list[str]:
        return [key]


# --- ensemble ----------------------------------------------------------------------

# Catalogue the seed draws from: each pass sweeps two under-damped values,
# the critical value and one over-damped value, against three release points.
# Under- and over-damped points run to t_max; only the critical column stops
# on stationarity, so the work per pass hardly depends on the seed.
ENSEMBLE_UNDER = (0.2, 0.3, 0.4, 0.5)
ENSEMBLE_CRITICAL = 2.0
ENSEMBLE_OVER = (5.0, 6.0, 7.0, 8.0)
ENSEMBLE_X0 = (-2.0, -1.5, -1.0, -0.75, -0.5, 0.5, 0.75, 1.0, 1.5, 2.0)

ENSEMBLE_BASE = {
    "name": "ensemble_point",
    "model": "hbft",
    "potential": {"name": "quadratic", "params": {"dim": 1}},
    "schedule": {"name": "constant", "params": {"value": 1.0}},
    "initial": {"x0": [1.0], "v0": [0.0]},
    "integrator": {
        "method": "rk4",
        "step": 0.01,
        "t_max": 20.0,
        "sample_stride": 20,
        "stop": {"stationarity_tol": 1.0e-3, "dwell": 1.0},
    },
    # Sparse samples make the trapezoid quadrature coarse: the balance
    # residual reaches ~1.3e-3 on the catalogue, hence the 1e-2 threshold.
    "checks": [{"name": "energy_monotone"}, {"name": "energy_balance", "threshold": 1.0e-2}],
}

_STATUS_EXIT = {"ok": 0, "check_failure": 1, "config_error": 2}


def ensemble_key(lam: float, x0: float) -> str:
    return f"lam={lam!r}|x0={x0!r}"


def ensemble_grid(seed: int) -> dict:
    """The seed's grid, as plain floats so configs and their reprs stay plain."""
    rng = np.random.default_rng(seed)
    under = sorted(float(v) for v in rng.choice(ENSEMBLE_UNDER, 2, replace=False))
    over = float(rng.choice(ENSEMBLE_OVER))
    x0s = [float(v) for v in rng.choice(ENSEMBLE_X0, 3, replace=False)]
    return {
        "schedule.params.value": [*under, ENSEMBLE_CRITICAL, over],
        "initial.x0": [[x] for x in x0s],
    }


def oracle_problems(lam: float, x0: float, outcome: dict) -> list[str]:
    """Distance of a point's final state from the closed form, if above 1e-6."""
    x, v = oracle.damped_state([outcome["final_t"]], [x0], [0.0], lam)
    err = max(abs(outcome["final_x"][0] - x[0, 0]), abs(outcome["final_v"][0] - v[0, 0]))
    if not err <= ORACLE_ATOL:
        return [f"final state {err:.3g} away from the closed form"]
    return []


class Ensemble:
    name = "ensemble"
    methods: dict[str, str] = {}

    def __init__(self, root: Path, seed: int):
        self.grid = ensemble_grid(seed)
        self.points = [
            (lam, x0[0]) for lam in self.grid["schedule.params.value"] for x0 in self.grid["initial.x0"]
        ]

    def prepare(self, warm_dir: Path) -> None:
        """Validate the base and sweep one short point."""
        cli.ScenarioConfig.from_raw(ENSEMBLE_BASE, source="ensemble")
        short = json.loads(json.dumps(ENSEMBLE_BASE))
        short["integrator"]["t_max"] = 0.5
        cli.run_sweep(short, {"schedule.params.value": [1.0]}, warm_dir, workers=1, quiet=True)

    def ops(self):
        return [("sweep", self.grid)]

    def run(self, grid: dict, out_dir: Path):
        return cli.run_sweep(ENSEMBLE_BASE, grid, out_dir, workers=1, quiet=True, source="ensemble")

    def outcomes(self, key: str, out_dir: Path, exit_code):
        with open(out_dir / "sweep_summary.csv", newline="") as fh:
            rows = {(float(r["schedule.params.value"]), r["initial.x0"]): r for r in csv.DictReader(fh)}
        name = ENSEMBLE_BASE["name"]
        for lam, x0 in self.points:
            row = rows[(lam, repr([x0]))]
            point = out_dir / row["point"]
            outcome = run_outcome(
                _STATUS_EXIT.get(row["status"], 3),
                point / f"{name}.csv",
                point / f"{name}.report.json",
                [point / f"{name}.summary.txt"],
            )
            outcome["oracle_problems"] = oracle_problems(lam, x0, outcome)
            yield ensemble_key(lam, x0), outcome

    def expected(self, key: str) -> list[str]:
        return [ensemble_key(lam, x0) for lam, x0 in self.points]


# --- certify ----------------------------------------------------------------------

CERTIFY_LAMBDA = (0.5, 1.0, 2.0, 4.0)
CERTIFY_X0 = (-1.5, -1.0, -0.5, 0.5, 1.0, 1.5)
CERTIFY_V0 = (0.0, 0.5)
CERTIFY_SCHEDULES = ("constant", "power_decay", "oscillating")
CERTIFY_SAMPLES = 20_000
CERTIFY_HORIZON = 40.0
CERTIFY_PER_SCHEDULE = 2


def certify_key(schedule: str, lam: float, x0: float, v0: float) -> str:
    return f"{schedule}|lam={lam!r}|x0={x0!r}|v0={v0!r}"


def certify_cases(seed: int) -> list[tuple[str, float, float, float]]:
    rng = np.random.default_rng(seed)
    combos = [(lam, x0, v0) for lam in CERTIFY_LAMBDA for x0 in CERTIFY_X0 for v0 in CERTIFY_V0]
    cases = []
    for schedule in CERTIFY_SCHEDULES:
        for idx in rng.choice(len(combos), CERTIFY_PER_SCHEDULE, replace=False):
            cases.append((schedule, *combos[int(idx)]))
    return cases


def certify_schedule_params(schedule: str, lam: float) -> dict:
    if schedule == "constant":
        return {"value": lam}
    if schedule == "power_decay":
        return {"initial": lam, "exponent": 0.5}
    return {"base": lam, "amplitude": 0.5 * lam, "angular_frequency": 1.0}


def _lambda_column(schedule: str, lam: float, t: np.ndarray) -> np.ndarray:
    if schedule == "constant":
        return np.full_like(t, lam)
    if schedule == "power_decay":
        return lam / (1.0 + t) ** 0.5
    return lam + 0.5 * lam * np.sin(t)


def oracle_trajectory(schedule: str, lam: float, x0: float, v0: float,
                      samples: int = CERTIFY_SAMPLES, horizon: float = CERTIFY_HORIZON) -> Trajectory:
    """The closed-form oscillator (constant damping lam) sampled as a Trajectory.

    The lambda and dissipation columns follow ``schedule``; for a
    non-constant schedule the signal does not obey that schedule's dynamics,
    so the energy-balance certificate is expected to fail on it.
    """
    t = np.linspace(0.0, horizon, samples)
    x, v = oracle.damped_state(t, [x0], [v0], lam)
    lam_col = _lambda_column(schedule, lam, t)
    speed2 = np.sum(v * v, axis=1)
    dt = float(t[1] - t[0])
    return Trajectory(
        t=t,
        x=x,
        v=v,
        energy=0.5 * speed2 + 0.5 * np.sum(x * x, axis=1),
        lam=lam_col,
        grad_norm=np.linalg.norm(x, axis=1),
        dissipation=-lam_col * speed2 + 0.0,
        termination_reason="t_max",
        step_stats=StepStats(accepted=samples - 1, rejected=0, smallest_step=dt, largest_step=dt),
    )


def write_report(report: CertificationReport, path: Path) -> None:
    """The CLI's report format: sorted keys, two-space indent, trailing newline."""
    Path(path).write_text(json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n")


def certify(traj: Trajectory, p, s, out_dir: Path) -> int:
    """All seven checks, then the CSV and report writers; returns the exit code."""
    rep = friction.verify_friction_hypotheses(s, horizon=CERTIFY_HORIZON, bound_guess=10.0)
    records = [
        diagnostics.check_energy_monotone(traj),
        diagnostics.energy_balance_residual(traj, s),
        diagnostics.check_velocity_bound(traj, p),
        diagnostics.tail_asymptotics(traj, s, p, threshold=1e-5),
        diagnostics.barbalat_check(
            diagnostics.sqrt_friction_speed(traj),
            l2_budget=10.0, linf_budget=1.5, dot_budget=1.5, tail_threshold=1e-5,
        ),
        diagnostics.check_acceleration_bound(traj, p, s, bound=10.0),
        CheckRecord(
            check_name="friction_bounded",
            passed=bool(rep.max_after_t1 <= rep.bound_guess),
            residual=rep.max_after_t1,
            threshold=rep.bound_guess,
            details={"continuity_ok": rep.continuity_ok, "min_value": rep.min_value},
        ),
    ]
    meta = {
        "schedule": s.name,
        "termination_reason": traj.termination_reason,
        "n_samples": traj.n_samples,
    }
    report = CertificationReport(checks=records, trajectory_meta=meta)
    out_dir.mkdir(parents=True, exist_ok=True)
    cli.write_trajectory_csv(traj, out_dir / "certify.csv")
    write_report(report, out_dir / "certify.report.json")
    return 0 if report.all_passed else 1


class Certify:
    name = "certify"
    methods: dict[str, str] = {}

    def __init__(self, root: Path, seed: int):
        self.cases = certify_cases(seed)
        self.potential = quadratic(dim=1)
        self.inputs = {}

    def prepare(self, warm_dir: Path) -> None:
        """Build every input trajectory and certify one short one."""
        self.inputs = {}
        for schedule, lam, x0, v0 in self.cases:
            s = friction.make_schedule(schedule, **certify_schedule_params(schedule, lam))
            key = certify_key(schedule, lam, x0, v0)
            self.inputs[key] = (oracle_trajectory(schedule, lam, x0, v0), s)
        schedule, lam, x0, v0 = self.cases[0]
        small = oracle_trajectory(schedule, lam, x0, v0, samples=200)
        certify(small, self.potential, self.inputs[certify_key(*self.cases[0])][1], warm_dir)

    def ops(self):
        return list(self.inputs.items())

    def run(self, item, out_dir: Path):
        traj, s = item
        return certify(traj, self.potential, s, out_dir)

    def outcomes(self, key: str, out_dir: Path, exit_code):
        yield key, run_outcome(exit_code, out_dir / "certify.csv", out_dir / "certify.report.json")

    def expected(self, key: str) -> list[str]:
        return [key]


WORKLOADS = {cls.name: cls for cls in (Bundle, Ensemble, Certify)}
