"""Re-measure ROADMAP item 1's baseline table with this benchmark's probes.

    python3 perfbench/crosscheck.py

Prints one JSON object: the acceptance-01 run (min of 3), the integrate /
checks / CSV split of ``double_well`` from traced spans, and the bundled
3-point sweep with one and two workers. It takes about a minute and a half
on a 2-core machine; README.md records one result against the ROADMAP.
"""

from __future__ import annotations

import json
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from hbft import cli  # noqa: E402

import layers  # noqa: E402
import run  # noqa: E402
from spans import Tracer  # noqa: E402


def main() -> int:
    work = ROOT / ".perfbench_work" / "crosscheck"
    shutil.rmtree(work, ignore_errors=True)
    out = {"machine": run.machine_record(seed=0)}
    out["acceptance01_s_min_of_3"] = min(layers.acceptance01() for _ in range(3))

    tracer = Tracer()
    scenario = ROOT / "scenarios" / "double_well.yaml"
    with run.install(tracer), tracer.op("double_well", "cli"):
        cli.main(["simulate", str(scenario), "--quiet", "--out-dir", str(work / "dw")])

    def total(pred) -> float:
        return sum(sp.duration for sp in tracer.spans if pred(sp))

    steps = next(sp.attrs["accepted"] for sp in tracer.spans if sp.name == "integrate")
    out["double_well"] = {
        "accepted_steps": steps,
        "integrate_s": total(lambda sp: sp.name == "integrate"),
        "checks_s": total(lambda sp: sp.module in ("diagnostics", "friction")),
        "csv_s": total(lambda sp: sp.name == "write_trajectory_csv"),
    }

    sweep = ROOT / "scenarios" / "sweeps"
    for workers in (1, 2):
        t0 = time.perf_counter()
        cli.main(["sweep", str(sweep / "damped_harmonic_settle.yaml"),
                  "--grid", str(sweep / "constant_damping_grid.yaml"), "--quiet",
                  "--workers", str(workers), "--out-dir", str(work / f"sweep{workers}")])
        out[f"bundled_sweep_workers{workers}_s"] = time.perf_counter() - t0
    shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(out, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
