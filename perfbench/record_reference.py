"""Record reference.json: the outcome of every operation any seed can produce.

    python3 perfbench/record_reference.py

Run once at the commit whose outputs define "correct" (hbft's outputs are
meant to stay the same from then on). It runs every bundled scenario, every
point of the ensemble catalogue and every case of the certify catalogue,
and stores exit code, termination, verdicts, sample count, final state and
artifact digests (plus check residuals for certify).
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from run import machine_record  # noqa: E402

KEEP = ("exit_code", "termination", "verdicts", "n_samples", "final_x", "final_v", "final_E", "digests")


def kept(outcome: dict, residuals: bool = False) -> dict:
    keys = KEEP + (("residuals",) if residuals else ())
    return {k: outcome[k] for k in keys}


def dump(ref: dict) -> str:
    """JSON with one line per recorded operation, so diffs stay readable."""
    sections = []
    for name in sorted(ref):
        if name == "recorded":
            body = json.dumps(ref[name], sort_keys=True)
        else:
            rows = [
                f"  {json.dumps(k)}: {json.dumps(v, sort_keys=True)}"
                for k, v in sorted(ref[name].items())
            ]
            body = "{\n" + ",\n".join(rows) + "\n }"
        sections.append(f" {json.dumps(name)}: {body}")
    return "{\n" + ",\n".join(sections) + "\n}\n"


def main() -> int:
    work = ROOT / ".perfbench_work" / "reference"
    shutil.rmtree(work, ignore_errors=True)
    ref = {"recorded": machine_record(seed=0)}

    bundle = workloads.Bundle(ROOT, 0)
    bundle.prepare(work / "warm")
    ref["bundle"] = {}
    for key, path in bundle.ops():
        code = bundle.run(path, work / "bundle" / key)
        for okey, outcome in bundle.outcomes(key, work / "bundle" / key, code):
            ref["bundle"][okey] = kept(outcome)
        print(key, code, flush=True)

    ens = workloads.Ensemble(ROOT, 0)
    lams = [*workloads.ENSEMBLE_UNDER, workloads.ENSEMBLE_CRITICAL, *workloads.ENSEMBLE_OVER]
    ens.grid = {"schedule.params.value": lams, "initial.x0": [[x] for x in workloads.ENSEMBLE_X0]}
    ens.points = [(lam, x0) for lam in lams for x0 in workloads.ENSEMBLE_X0]
    code = ens.run(ens.grid, work / "ensemble")
    ref["ensemble"] = {}
    for okey, outcome in ens.outcomes("sweep", work / "ensemble", code):
        if outcome["oracle_problems"] or outcome["exit_code"] != 0:
            raise SystemExit(f"ensemble catalogue point {okey} is not usable: {outcome}")
        ref["ensemble"][okey] = kept(outcome)
    print("ensemble", code, len(ref["ensemble"]), flush=True)

    cert = workloads.Certify(ROOT, 0)
    cert.cases = [
        (schedule, lam, x0, v0)
        for schedule in workloads.CERTIFY_SCHEDULES
        for lam in workloads.CERTIFY_LAMBDA
        for x0 in workloads.CERTIFY_X0
        for v0 in workloads.CERTIFY_V0
    ]
    cert.prepare(work / "warm")
    ref["certify"] = {}
    for key, item in cert.ops():
        code = cert.run(item, work / "certify")
        for okey, outcome in cert.outcomes(key, work / "certify", code):
            ref["certify"][okey] = kept(outcome, residuals=True)
    print("certify", len(ref["certify"]), flush=True)

    (HERE / "reference.json").write_text(dump(ref))
    shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
