"""The benchmark's closed-form oracle against the repository's own reference."""

from __future__ import annotations

import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
REPO = BENCH.parent
for path in (BENCH, REPO / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import oracle  # noqa: E402


def _repo_conftest():
    spec = importlib.util.spec_from_file_location("hbft_tests_conftest", REPO / "tests" / "conftest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_matches_repository_closed_form_at_unit_damping():
    ref = _repo_conftest()
    t = np.linspace(0.0, 20.0, 401)
    x, v = oracle.damped_state(t, [1.0], [0.0], lam=1.0)
    assert oracle.branch(1.0) == "under"
    for k, tk in enumerate(t):
        assert x[k, 0] == pytest.approx(ref.damped_x(float(tk)), abs=1e-14)
        assert v[k, 0] == pytest.approx(ref.damped_v(float(tk)), abs=1e-14)


@pytest.mark.parametrize("lam", [0.3, 2.0, 6.0])
def test_every_branch_solves_the_ode_from_its_initial_state(lam):
    x0, v0, h = [1.3], [-0.4], 1e-4
    t = np.linspace(0.5, 8.0, 16)
    x, v = oracle.damped_state(np.concatenate([[0.0], t - h, t, t + h]), x0, v0, lam)
    assert x[0, 0] == pytest.approx(x0[0], abs=1e-15)
    assert v[0, 0] == pytest.approx(v0[0], abs=1e-15)
    n = t.size
    xm, xc, xp = x[1 : 1 + n, 0], x[1 + n : 1 + 2 * n, 0], x[1 + 2 * n :, 0]
    vc = v[1 + n : 1 + 2 * n, 0]
    assert np.allclose((xp - xm) / (2 * h), vc, atol=1e-7)
    acc = (xp - 2 * xc + xm) / (h * h)
    assert np.allclose(acc + lam * vc + xc, 0.0, atol=1e-5)


def test_branches_agree_next_to_critical_damping():
    t = np.linspace(0.0, 10.0, 51)
    crit = oracle.damped_state(t, [1.0], [0.5], 2.0)
    assert [oracle.branch(2.0 - 1e-6), oracle.branch(2.0), oracle.branch(2.0 + 1e-6)] == [
        "under", "critical", "over"
    ]
    for lam in (2.0 - 1e-6, 2.0 + 1e-6):
        near = oracle.damped_state(t, [1.0], [0.5], lam)
        assert np.allclose(near[0], crit[0], atol=1e-5)
        assert np.allclose(near[1], crit[1], atol=1e-5)
    assert math.isclose(float(crit[0][-1, 0]), math.exp(-10.0) * (1.0 + 1.5 * 10.0))
