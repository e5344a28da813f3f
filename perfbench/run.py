"""hbft benchmark: one seeded workload per run, end-to-end or traced.

    python3 perfbench/run.py --workload bundle --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout: hbft is imported from ``src/`` and
the bundled scenarios are read from ``scenarios/``. Run outputs go under
``.perfbench_work/`` and are removed at exit, except each run's result
record and, for traced runs, its spans. The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; with ``--trace 0`` the metrics are the end-to-end ones listed
in ``BENCHMARK.json``, with ``--trace 1`` the per-layer ones. The lines
before it are a human-readable report.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 7
PERCENTILES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t0 = time.perf_counter()\n"
    "import hbft, hbft.cli\n"
    "print(time.perf_counter() - t0)\n"
)

# The reference loop (refloop.py) runs after each stretch of operations
# that took at least this many seconds, and at the end of every pass.
REF_SEGMENT_S = 1.0

# Every end-to-end figure the report prints; BENCHMARK.json gates setup_s,
# wall_norm and peak_rss_mb (perfbench/README.md says why not the others).
UNITS = {
    "setup_s": "s",
    "wall_norm": "ref",
    "wall_s": "s",
    "steps_per_s": "1/s",
    "dopri45_steps_per_s": "1/s",
    "points_per_s": "1/s",
    "samples_per_s": "1/s",
    "peak_rss_mb": "MB",
    "error_rate": "ratio",
}


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def import_seconds() -> float:
    """Time `import hbft` in a fresh interpreter, as every CLI invocation pays it."""
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(ROOT / "src")],
        check=True, capture_output=True, text=True, timeout=60,
    )
    return float(out.stdout.strip().splitlines()[-1])


def tail_percentile(samples: list[float]):
    """Highest listed percentile with at least ten samples beyond it, or None."""
    best = None
    ordered = sorted(samples)
    for p in PERCENTILES:
        if len(ordered) * (1.0 - p / 100.0) >= 10:
            idx = min(len(ordered) - 1, int(round(p / 100.0 * (len(ordered) - 1))))
            best = (p, ordered[idx])
    return best


def git_commit() -> str:
    """HEAD of the checkout read from .git, or 'none' outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "none"


def machine_record(seed: int) -> dict:
    import numpy
    import yaml

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "seed": seed,
        "commit": git_commit(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "pyyaml": yaml.__version__,
    }


class Runner:
    """Runs passes of one workload, checks every outcome, keeps the samples."""

    def __init__(self, wl, reference: dict, work_dir: Path):
        import workloads

        self.compare = workloads.compare
        self.wl = wl
        self.reference = reference.get(wl.name, {})
        self.work_dir = work_dir
        self.attempted = 0
        self.failed = 0
        self.digest_mismatches = 0
        self.problems: list[str] = []
        self.samples: dict[str, list[float]] = {}
        self.ref_s = None  # the reference loop's last time, taken after the last operation

    def run_op(self, key: str, item, label: str, tracer=None):
        """Run and check one operation: (seconds of the public call or None, outcomes).

        Only the public call is timed; reading and checking its outputs is not.
        """
        out_dir = self.work_dir / label / key
        shutil.rmtree(out_dir, ignore_errors=True)
        expected = self.wl.expected(key)
        self.attempted += len(expected)
        try:
            t0 = time.perf_counter()
            if tracer is None:
                code = self.wl.run(item, out_dir)
            else:
                with tracer.op(key, OP_MODULE[self.wl.name]):
                    code = self.wl.run(item, out_dir)
            dt = time.perf_counter() - t0
            outcomes = dict(self.wl.outcomes(key, out_dir, code))
        except Exception as exc:  # an escaping exception fails the operation
            self.failed += len(expected)
            self.problems.append(f"{key}: {type(exc).__name__}: {exc}")
            return None, {}
        checked = {}
        for okey in expected:
            outcome = outcomes.get(okey)
            problems, mismatches = (
                self.compare(outcome, self.reference.get(okey))
                if outcome is not None else (["no outcome"], 0)
            )
            self.digest_mismatches += mismatches
            if problems:
                self.failed += 1
                self.problems.extend(f"{okey}: {p}" for p in problems)
            if outcome is not None:
                checked[okey] = outcome
        return dt, checked

    def run_pass(self) -> None:
        """One untraced pass over the workload's operations; records its figures.

        The reference loop runs before the first operation, then after each
        stretch of operations of at least REF_SEGMENT_S and at the end of
        the pass. A stretch's normalised time is its wall time over the mean
        of the two loop times around it; wall_norm sums them over the pass.
        """
        import refloop

        wall = norm = segment = steps = samples = 0.0
        if self.ref_s is None:
            self.ref_s = refloop.seconds()
        ops = self.wl.ops()
        for i, (key, item) in enumerate(ops):
            dt, outcomes = self.run_op(key, item, "pass")
            if dt is not None:
                wall += dt
                segment += dt
            if segment >= REF_SEGMENT_S or i == len(ops) - 1:
                before, self.ref_s = self.ref_s, refloop.seconds()
                self.add("ref_s", self.ref_s)
                norm += segment / (0.5 * (before + self.ref_s))
                segment = 0.0
            if dt is None:
                continue
            op_steps = sum(o["accepted"] for o in outcomes.values())
            steps += op_steps
            samples += sum(o["n_samples"] for o in outcomes.values())
            if self.wl.methods.get(key) == "dopri45":
                self.add("dopri45_steps_per_s", op_steps / dt)
            if self.wl.name == "ensemble":
                self.add("points_per_s", len(outcomes) / dt)
        if wall > 0:
            self.add("wall_s", wall)
            self.add("wall_norm", norm)
            self.add("samples_per_s", samples / wall)
            if steps:
                self.add("steps_per_s", steps / wall)

    def add(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)


# Module a root span is charged to: bundle and ensemble operations enter hbft
# through cli; certify's operation body is the benchmark's own public calls.
OP_MODULE = {"bundle": "cli", "ensemble": "cli", "certify": "bench"}


def setup(name: str, seed: int, work_dir: Path):
    """Build the workload SETUP_REPEATS times.

    Returns the workload, each set-up's seconds, and each set-up's seconds
    normalised by the reference loop timed before and after it (in
    seconds of a host that runs the loop in refloop.NOMINAL_S).
    """
    import refloop
    import workloads

    totals, norms = [], []
    wl = None
    ref_s = refloop.seconds()
    for i in range(SETUP_REPEATS):
        imp = import_seconds()
        t0 = time.perf_counter()
        wl = workloads.WORKLOADS[name](ROOT, seed)
        wl.prepare(work_dir / f"warm{i}")
        total = imp + time.perf_counter() - t0
        shutil.rmtree(work_dir / f"warm{i}", ignore_errors=True)
        before, ref_s = ref_s, refloop.seconds()
        totals.append(total)
        norms.append(total / (0.5 * (before + ref_s)) * refloop.NOMINAL_S)
    return wl, totals, norms


def until(deadline: float, body) -> None:
    """Repeat body at least once, and again only while another round fits before deadline."""
    while True:
        t0 = time.perf_counter()
        body()
        now = time.perf_counter()
        if now + (now - t0) > deadline:
            return


def traced(runner: Runner, seed: int, deadline: float, work_dir: Path):
    """Run each operation untraced, then traced, while time remains; then the probes."""
    import layers
    import workloads
    from spans import Tracer, module_shares

    tracer = Tracer()
    walls = {"plain": 0.0, "traced": 0.0}

    def pair_ops():
        # Each operation runs untraced, then traced, so that drift of the
        # machine between the two stays small.
        for key, item in runner.wl.ops():
            plain_dt, plain = runner.run_op(key, item, "plain")
            with install(tracer):
                traced_dt, traced_out = runner.run_op(key, item, "traced", tracer)
            if plain_dt is not None and traced_dt is not None:
                walls["plain"] += plain_dt
                walls["traced"] += traced_dt
            for okey, outcome in traced_out.items():
                if okey in plain and plain[okey]["digests"] != outcome["digests"]:
                    runner.failed += 1
                    runner.problems.append(f"{okey}: traced artifacts differ from the untraced run")

    until(deadline, pair_ops)
    probe_tracer = Tracer()
    metrics = layers.micro_metrics(ROOT)
    metrics.update(layers.integrate_probes(ROOT, probe_tracer))
    metrics.update(layers.sweep_probes(workloads.ensemble_grid(seed), work_dir / "sweep_probe"))
    metrics.update(span_metrics(tracer.spans, probe_tracer.spans, metrics))
    shares = module_shares(tracer.spans)
    for module in ("integrate", "cli", "diagnostics"):
        metrics[f"{module}.share"] = shares.get(module, 0.0)
    metrics["cli.artifact_digest_mismatches"] = runner.digest_mismatches
    metrics["trace.overhead_ratio"] = walls["traced"] / walls["plain"] - 1.0
    return metrics, tracer.spans + probe_tracer.spans


def install(tracer):
    """Wrap an operation's public calls in every namespace they are called through."""
    from hbft import cli, diagnostics, friction
    from hbft.diagnostics import CertificationReport

    import spans
    import workloads

    def rows(sp, args, result):
        sp.attrs["rows"] = args[0].n_samples

    targets = [
        (cli, "load_config_file", tracer.wrap(cli.load_config_file, "load_config_file", "cli")),
        (cli.ScenarioConfig, "from_raw",
         staticmethod(tracer.wrap(cli.ScenarioConfig.from_raw, "from_raw", "cli"))),
        (cli, "integrate", tracer.wrap_integrate(cli.integrate)),
        (cli, "write_trajectory_csv",
         tracer.wrap(cli.write_trajectory_csv, "write_trajectory_csv", "cli", rows)),
        (CertificationReport, "to_dict",
         tracer.wrap(CertificationReport.to_dict, "report_to_dict", "cli")),
        (workloads, "write_report", tracer.wrap(workloads.write_report, "report_write", "cli")),
        # The CLI's private report writer; skipped if a later version drops it.
        (cli, "_write_report_json",
         tracer.wrap(getattr(cli, "_write_report_json", None), "report_write", "cli")),
    ]
    checks = ("check_energy_monotone", "energy_balance_residual", "check_velocity_bound",
              "tail_asymptotics", "sqrt_friction_speed", "barbalat_check",
              "check_acceleration_bound")
    for owner in (cli, diagnostics):
        for name in checks:
            targets.append((owner, name, tracer.wrap(getattr(diagnostics, name), name, "diagnostics")))
    for owner in (cli, friction):
        targets.append((owner, "verify_friction_hypotheses",
                        tracer.wrap(friction.verify_friction_hypotheses,
                                    "verify_friction_hypotheses", "friction")))
    return spans.patched([t for t in targets if t[1] in vars(t[0])])


def span_metrics(spans_list, probe_spans, metrics: dict) -> dict:
    """Stepper, writer and report figures from the workload's spans, else from the probes."""
    import layers

    out = {}
    for method, probe_calls in (("rk4", 0), ("dopri45", 1)):
        own = [sp for sp in spans_list if sp.name == "integrate" and sp.attrs["method"] == method]
        group = own or [
            sp for sp in probe_spans if sp.name == "integrate" and sp.attrs["method"] == method
        ]
        accepted = sum(sp.attrs["accepted"] for sp in group)
        attempted = accepted + sum(sp.attrs["rejected"] for sp in group)
        # dopri45 makes one extra field call per run to choose its first step.
        calls = sum(sp.attrs["field_calls"] - probe_calls for sp in group)
        out[f"integrate.field_calls_per_step.{method}"] = calls / attempted
        if method == "dopri45":
            out["integrate.rejected_ratio"] = (attempted - accepted) / attempted
        if own or method == "dopri45":
            out[f"integrate.{method}_step_us"] = sum(sp.duration for sp in group) / accepted * 1e6
        else:
            out["integrate.rk4_step_us"] = (
                metrics["integrate.acceptance01_s"] / layers.ACCEPTANCE01_STEPS * 1e6
            )
    csv_spans = [sp for sp in spans_list if sp.name == "write_trajectory_csv"]
    out["cli.csv_us_per_row"] = (
        sum(sp.duration for sp in csv_spans) / sum(sp.attrs["rows"] for sp in csv_spans) * 1e6
    )
    by_id = {sp.span_id: sp for sp in spans_list}
    report = [sp for sp in spans_list if sp.name.startswith("report_")]
    outer = [sp for sp in report
             if sp.parent is None or not by_id[sp.parent].name.startswith("report_")]
    writes = sum(1 for sp in report if sp.name == "report_write")
    out["cli.report_ms"] = sum(sp.duration for sp in outer) / writes * 1e3
    return out


def print_end_to_end(runner: Runner, setup_norms: list[float], setup_times: list[float],
                     metrics: dict) -> None:
    print(f"# {'metric':<22} {'unit':<6} {'n':>5} {'median':>14}  tail")
    rows = dict(runner.samples)
    rows["setup_s"] = setup_norms
    rows["setup_raw_s"] = setup_times
    rows["peak_rss_mb"] = [metrics["peak_rss_mb"]]
    rows["error_rate"] = [runner.failed / runner.attempted]
    for name, unit in [*UNITS.items(), ("setup_raw_s", "s"), ("ref_s", "s")]:
        values = rows.get(name)
        if not values:
            continue
        tail = tail_percentile(values)
        tail_text = f"p{tail[0]:g}={tail[1]:.6g}" if tail else "none (fewer than 20 samples)"
        n = runner.attempted if name == "error_rate" else len(values)
        print(f"  {name:<22} {unit:<6} {n:>5} {statistics.median(values):>14.6g}  {tail_text}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "hbft" / "__init__.py").is_file() or not (ROOT / "scenarios").is_dir():
        return fail(f"{ROOT} holds no hbft sources and scenarios; run from a source checkout")
    sys.path.insert(0, str(src))
    import hbft

    if Path(hbft.__file__).resolve().parent != (src / "hbft").resolve():
        return fail(f"imported hbft from {hbft.__file__}, not from {src}")
    import workloads

    if args.workload not in workloads.WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    reference = json.loads((HERE / "reference.json").read_text())

    work_root = ROOT / ".perfbench_work"
    work_dir = work_root / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    record = machine_record(args.seed)
    print(f"# hbft benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("# machine: " + " ".join(f"{k}={v}" for k, v in record.items()))
    spans_out = []
    try:
        wl, setup_times, setup_norms = setup(args.workload, args.seed, work_dir)
        runner = Runner(wl, reference, work_dir)
        deadline = time.perf_counter() + args.seconds
        if args.trace:
            metrics, spans_out = traced(runner, args.seed, deadline, work_dir)
        else:
            until(deadline, runner.run_pass)
            metrics = {
                "setup_s": statistics.median(setup_norms),
                "setup_raw_s": statistics.median(setup_times),
                "wall_norm": statistics.median(runner.samples["wall_norm"]),
                "wall_s": statistics.median(runner.samples["wall_s"]),
                "samples_per_s": statistics.median(runner.samples["samples_per_s"]),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    if args.trace:
        print(f"# {'per-layer metric':<46} {'value':>14}")
        for name in sorted(metrics):
            print(f"  {name:<46} {metrics[name]:>14.6g} {listed.get(name, '')}")
    else:
        print_end_to_end(runner, setup_norms, setup_times, metrics)
    print(f"# operations: attempted={runner.attempted} failed={runner.failed} "
          f"artifact_digest_mismatches={runner.digest_mismatches}")
    for problem in runner.problems[:20]:
        print(f"# FAILED {problem}")

    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in listed.items()},
    }
    work_root.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (work_root / f"result-{stem}.json").write_text(
        json.dumps({"machine": record, "all_metrics": metrics, "samples": runner.samples,
                    "setup_samples": setup_times, "setup_norm_samples": setup_norms,
                    **result}, indent=2) + "\n"
    )
    if spans_out:
        (work_root / f"spans-{stem}.json").write_text(
            json.dumps([dataclasses.asdict(sp) for sp in spans_out]) + "\n"
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
