"""Span self time and the coverage of the recorded reference outcomes."""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
REPO = BENCH.parent
for path in (BENCH, REPO / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import spans  # noqa: E402
import workloads  # noqa: E402


def _span(i, parent, start, end, module="m"):
    return spans.Span(i, f"s{i}", module, 0, parent, start, end)


def test_self_time_subtracts_children_once():
    tree = [
        _span(0, None, 0.0, 10.0, "cli"),
        _span(1, 0, 1.0, 4.0, "integrate"),
        _span(2, 0, 5.0, 6.0, "diagnostics"),
        _span(3, 1, 2.0, 3.0, "integrate"),
    ]
    own = spans.self_times(tree)
    assert own == {0: 6.0, 1: 2.0, 2: 1.0, 3: 1.0}
    shares = spans.module_shares(tree)
    assert shares == {"cli": 0.6, "integrate": 0.3, "diagnostics": 0.1}


def test_patched_restores_attributes():
    class Owner:
        value = 1

    with spans.patched([(Owner, "value", 2)]):
        assert Owner.value == 2
    assert Owner.value == 1


def test_every_seed_draws_recorded_inputs():
    reference = json.loads((BENCH / "reference.json").read_text())
    for seed in range(200):
        ens = workloads.Ensemble(REPO, seed)
        assert {workloads.ensemble_key(lam, x0) for lam, x0 in ens.points} <= set(reference["ensemble"])
        cases = workloads.certify_cases(seed)
        assert {workloads.certify_key(*case) for case in cases} <= set(reference["certify"])
    assert {p.stem for p in (REPO / "scenarios").glob("*.yaml")} == set(reference["bundle"])
