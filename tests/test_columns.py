"""The column forms of λ and ∇Φ against their per-sample forms, bit for bit.

Each comparison is on int64 views, so a NaN payload, a signed zero or one
ulp anywhere fails it. Every warning is an error here: ``lambda_values`` and
``gradient_rows`` must let none escape.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from hbft.errors import DimensionMismatchError, ScheduleConsistencyError
from hbft.friction import FrictionSchedule, lambda_at, lambda_values, oscillating, power_decay
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


def _per_sample(s: FrictionSchedule, ts: np.ndarray) -> np.ndarray:
    return np.array([s.lam(t) for t in ts.tolist()])


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
COLUMNED = OSCILLATING + POWER_DECAY
_ids = [s.name for s in COLUMNED]
# the largest time at which an oscillating schedule's ω t stays finite
_PHASE_TOP = {s: np.nextafter(np.finfo(float).max / max(params[2], 1.0), 0.0)
              for s, params in zip(OSCILLATING, _OSCILLATING_PARAMS)}


def _times_for(s: FrictionSchedule, seed: int) -> np.ndarray:
    """Random times over the whole range the column form takes: up to the
    float maximum, or for ``oscillating`` up to where ω t stays finite."""
    return _random_times(seed, top=_PHASE_TOP.get(s, math.inf))


def test_builtins_carry_the_column_forms_the_catalogue_promises():
    assert all(s.lam_column is not None for s in COLUMNED)
    assert power_decay(1.0, 1.5).lam_column is None  # its magnified split runs per sample


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("s", COLUMNED, ids=_ids)
def test_lam_column_gives_lam_on_random_bit_patterns(s, seed):
    ts = _times_for(s, seed)
    assert np.array_equal(_bits(s.lam_column(ts)), _bits(_per_sample(s, ts)))


@pytest.mark.parametrize("s", COLUMNED, ids=_ids)
def test_lam_column_gives_lam_on_the_certify_grid(s):
    assert np.array_equal(_bits(s.lam_column(CERTIFY_TIMES)), _bits(_per_sample(s, CERTIFY_TIMES)))


@pytest.mark.parametrize("times", ["random", "certify"])
@pytest.mark.parametrize("s", COLUMNED, ids=_ids)
def test_lambda_values_gives_lambda_at_bit_for_bit(s, times):
    ts = _times_for(s, 3) if times == "random" else CERTIFY_TIMES
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
        # ω t overflows from t = 2 on: the form declines
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
    s = oscillating(1e308, 1e308, 1.0)
    with np.errstate(over="ignore"):
        assert np.isinf(s.lam_column(CERTIFY_TIMES)).any()
    with pytest.raises(ScheduleConsistencyError, match=r"produced inf at t=0\.92"):
        lambda_values(s, CERTIFY_TIMES)


def test_lam_column_declines_where_the_phase_is_not_finite():
    s = oscillating(2.0, 1.0, 1e308)
    with np.errstate(over="ignore"):
        assert s.lam_column(np.array([0.0, 2.0])) is None
        assert s.lam_column(np.array([math.inf])) is None


def test_a_refused_time_comes_before_the_forms_fallback():
    # ω t overflows only past the negative time, which is read first
    s = oscillating(2.0, 1.0, 1e308)
    ts = np.array([0.0, 1.0, -1.0, 2.0])
    with pytest.raises(ValueError, match=r"evaluated at t=-1\.0 < 0"):
        lambda_values(s, ts)


def test_a_custom_column_is_checked_against_the_claim():
    # a form whose value breaks the claim hands the samples to the loop
    s = FrictionSchedule(name="custom", lam=lambda t: 1.0 - t,
                         lam_column=lambda t: 1.0 - t)
    assert lambda_values(s, np.array([0.0, 0.5])).tolist() == [1.0, 0.5]
    with pytest.raises(ScheduleConsistencyError, match=r"produced -1\.0 at t=2\.0"):
        lambda_values(s, np.array([0.0, 2.0, 3.0]))


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
