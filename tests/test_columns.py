"""λ and ∇Φ columns against their per-sample forms, bit for bit.

Each comparison is on int64 views, so a NaN payload, a signed zero or one
ulp anywhere fails it. Every warning is an error here: ``lambda_values`` and
``gradient_rows`` must let none escape.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from hbft import IntegratorConfig, PhaseState, dissipation_rate, hbft_field, integrate
from hbft.errors import DimensionMismatchError, ScheduleConsistencyError
from hbft.friction import lambda_at, lambda_values, linear_growth, oscillating, power_decay, step
from hbft.potentials import anisotropic_quadratic, flat, gradient, gradient_rows, quadratic

pytestmark = pytest.mark.filterwarnings("error")

_MAX_BITS = int(np.float64(np.finfo(float).max).view(np.int64))
# certify's sample grid
CERTIFY_TIMES = np.linspace(0.0, 40.0, 20000)


def _bits(a) -> np.ndarray:
    return np.asarray(a, dtype=float).view(np.int64)


def _random_times(seed: int, n: int = 20000, top: float = math.inf) -> np.ndarray:
    """n seeded non-negative bit patterns, uniform from the least subnormal to
    ``top`` (the float maximum when it is inf), and 0.0; inf too when ``top``
    is inf."""
    top_bits = _MAX_BITS if top == math.inf else int(np.float64(top).view(np.int64))
    t = np.random.default_rng(seed).integers(1, top_bits, n, endpoint=True).view(np.float64)
    return np.concatenate([[0.0], t, [math.inf]] if top == math.inf else [[0.0], t])


# (base, amplitude, angular_frequency)
_OSCILLATING_PARAMS = [
    (2.0, 1.0, 1.0),
    (1.0, 1.0, 3.5),
    (0.5, 0.25, 1e-3),
    (1e300, 1e300, 1.0),
    (1e-300, 5e-301, 1e300),
]
OSCILLATING = [oscillating(*params) for params in _OSCILLATING_PARAMS]
POWER_DECAY = [
    power_decay(1.0, 0.5),
    power_decay(3.0, 1.0),
    power_decay(2.5, 1e-3),
    power_decay(0.0, 0.5),
    power_decay(1e308, 0.75),
    power_decay(5e-324, 0.25),
]
SCHEDULES = OSCILLATING + POWER_DECAY
_ids = [s.name for s in SCHEDULES]
# the largest time at which an oscillating schedule's ω t stays finite
_PHASE_TOP = {s: np.nextafter(np.finfo(float).max / max(params[2], 1.0), 0.0)
              for s, params in zip(OSCILLATING, _OSCILLATING_PARAMS)}


@pytest.mark.parametrize("times", ["random", "certify"])
@pytest.mark.parametrize("s", SCHEDULES, ids=_ids)
def test_lambda_values_gives_lambda_at_bit_for_bit(s, times):
    # random times up to the float maximum, or for ``oscillating`` up to
    # where ω t stays finite
    ts = _random_times(3, top=_PHASE_TOP.get(s, math.inf)) if times == "random" else CERTIFY_TIMES
    want = np.array([lambda_at(s, t) for t in ts.tolist()])
    assert np.array_equal(_bits(lambda_values(s, ts)), _bits(want))


def _outcome(fn):
    """The bits ``fn()`` returns, or the type and text of what it raises."""
    try:
        return _bits(fn()).tolist()
    except Exception as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize(
    "s, ts",
    [
        # ω t overflows from t = 2 on
        (oscillating(2.0, 1.0, 1e308), np.linspace(0.0, 3.0, 7)),
        (oscillating(2.0, 1.0, 2.0), np.array([0.0, 1.0, 1.7976931348623157e308, 2.0])),
        # base + amplitude · sin(t) overflows where sin(t) > 0.797
        (oscillating(1e308, 1e308, 1.0), CERTIFY_TIMES),
    ],
    ids=["phase-overflows", "phase-overflows-at-the-maximum", "sum-overflows"],
)
def test_lambda_values_raises_the_loops_error_where_the_form_cannot_serve(s, ts):
    want = _outcome(lambda: [lambda_at(s, t) for t in ts.tolist()])
    assert want[0] is ScheduleConsistencyError
    assert _outcome(lambda: lambda_values(s, ts)) == want


def test_the_sum_overflow_case_really_overflows():
    with pytest.raises(ScheduleConsistencyError, match=r"produced inf at t=0\.92"):
        lambda_values(oscillating(1e308, 1e308, 1.0), CERTIFY_TIMES)


def test_a_refused_time_comes_before_the_forms_fallback():
    # ω t overflows only past the negative time, which is read first
    s = oscillating(2.0, 1.0, 1e308)
    ts = np.array([0.0, 1.0, -1.0, 2.0])
    with pytest.raises(ValueError, match=r"evaluated at t=-1\.0 < 0"):
        lambda_values(s, ts)


# --- the recorded λ column ------------------------------------------------------

# Schedules a damped run on the unit bowl survives over 40 time units, on both
# readers of lambda_values: per declared piece (the steps) and per sample
RECORDED = OSCILLATING[:3] + POWER_DECAY[:4] + [
    power_decay(1.0, 1.5),
    step(),
    step(times=(0.25, 0.5, 0.75, 1.0), values=(1.0, 0.0, 2.0, 0.5, 1.0)),
    linear_growth(0.25),
]
SAMPLINGS = {"every-step": {}, "sample-dt": {"sample_dt": 0.01}, "stride": {"sample_stride": 7}}


@pytest.mark.parametrize("s", RECORDED, ids=[s.name for s in RECORDED])
@pytest.mark.parametrize("sampling", list(SAMPLINGS))
def test_a_run_records_lambda_at_at_every_sample(s, sampling):
    # energy_balance, tail_asymptotics and acceleration_bound read λ from
    # traj.lam, so the column must be λ(t) at each sample time, bit for bit
    p = quadratic(dim=1)
    init = PhaseState(t=0.0, x=np.array([1.0]), v=np.array([0.0]))
    traj = integrate(lambda st: hbft_field(p, s, st), p, s, init,
                     IntegratorConfig(t_max=40.0, **SAMPLINGS[sampling]))
    assert traj.t[-1] > 20.0 and traj.n_samples > 50  # past the jumps of every step above
    assert np.array_equal(_bits(traj.lam), _bits([lambda_at(s, t) for t in traj.t.tolist()]))
    states = [PhaseState(t=t, x=x, v=v) for t, x, v in zip(traj.t.tolist(), traj.x, traj.v)]
    rates = [dissipation_rate(s, st) for st in states]
    assert np.array_equal(_bits(traj.dissipation), _bits(rates))


# --- gradient columns ----------------------------------------------------------


def _potentials(dim: int):
    diag = [0.1, 4.0, 1e300][:dim]
    return [quadratic(dim=dim), quadratic(dim=dim, scale=1e300), quadratic(dim=dim, scale=2.5e-310),
            anisotropic_quadratic(diag), flat(dim=dim)]


def _rows(dim: int, seed: int) -> np.ndarray:
    """Rows of every 64-bit pattern (NaNs with payloads, infinities,
    subnormals), of normals, of inf and NaN, and of products that overflow."""
    rng = np.random.default_rng(seed)
    special = [math.inf, -math.inf, math.nan, -math.nan, 0.0, -0.0, 5e-324, 1e308, -1.7e308, 1.0]
    picked = np.array(special)[rng.integers(0, len(special), (200, dim))]
    return np.concatenate([
        rng.integers(0, 2**64, (2000, dim), dtype=np.uint64).view(np.float64),
        rng.standard_normal((2000, dim)) * 10.0 ** rng.integers(-300, 300, (2000, 1)),
        np.full((1, dim), math.inf), np.full((1, dim), math.nan), picked,
    ])


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_column_gradient_gives_gradient_bit_for_bit(dim):
    x = _rows(dim, seed=dim)
    for p in _potentials(dim):
        with np.errstate(all="ignore"):
            want = np.array([gradient(p, row) for row in x])
            column = p.column_gradient_fn(x)
        assert column.shape == x.shape
        assert np.array_equal(_bits(column), _bits(want)), p.name
        assert np.array_equal(_bits(gradient_rows(p, x)), _bits(want)), p.name


@pytest.mark.parametrize("dim", [1, 2])
def test_column_gradient_gives_the_float_form_bit_for_bit(dim):
    x = _rows(dim, seed=10 + dim)
    for p in _potentials(dim):
        rows = [p.float_gradient_fn(*row) for row in x.tolist()]
        with np.errstate(all="ignore"):
            column = p.column_gradient_fn(x)
        assert np.array_equal(_bits(column if dim == 2 else column[:, 0]), _bits(rows)), p.name


def test_gradient_rows_keeps_the_dimension_check():
    p = quadratic(dim=2)
    with pytest.raises(DimensionMismatchError, match=r"expected \(2,\)"):
        gradient_rows(p, np.zeros((3, 3)))
