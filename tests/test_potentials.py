"""Landscape catalogue: analytic derivatives against finite-difference
references, hypothesis reports, and catalogue plumbing."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hbft import (
    CapabilityError,
    DimensionMismatchError,
    Potential,
    builtin_potentials,
    estimate_gradient_lipschitz,
    gradient,
    hessian_quadform,
    make_potential,
    validate_gradient,
    value,
    verify_potential_hypotheses,
)
from hbft.potentials import (
    anisotropic_quadratic,
    double_well,
    eggcrate,
    flat,
    quadratic,
    rosenbrock,
    row_dots,
    tilted_plane,
)


def _central_diff(p: Potential, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    g = np.empty(p.dim)
    for i in range(p.dim):
        e = np.zeros(p.dim)
        e[i] = h
        g[i] = (value(p, x + e) - value(p, x - e)) / (2.0 * h)
    return g


def test_rosenbrock_gradient_matches_reference():
    # Hand derivation at the classical start, cross-checked by central
    # differences: (-2(1-x) - 400x(y-x^2), 200(y-x^2)) at (-1.2, 1).
    p = rosenbrock()
    x = np.array([-1.2, 1.0])
    g = gradient(p, x)
    assert g == pytest.approx([-215.6, -88.0], abs=1e-12)
    assert _central_diff(p, x) == pytest.approx(g, abs=1e-5)


def test_validate_gradient_accepts_consistent_potential():
    p = quadratic(dim=3)
    x = np.array([0.4, -1.1, 2.0])
    # central differences are exact for quadratics, so only rounding remains
    assert validate_gradient(p, x) <= 1e-9


def test_validate_gradient_flags_corrupted_gradient():
    base = quadratic(dim=2)
    bad = Potential(
        name="corrupted",
        dim=2,
        value_fn=base.value_fn,
        gradient_fn=lambda x: base.gradient_fn(x) + 1.0,
    )
    assert validate_gradient(bad, np.array([0.3, -0.7])) >= 0.999


def test_validate_gradient_random_points_all_builtins():
    rng = np.random.default_rng(7)
    for name, _ in builtin_potentials():
        p = make_potential(name)
        for _ in range(100):
            x = rng.uniform(-2.0, 2.0, size=p.dim)
            assert validate_gradient(p, x) <= 1e-4, f"{name} at {x}"


def test_hessian_quadform_examples():
    # double well: second derivative 3x^2 - 1, so 11 at x=2
    assert hessian_quadform(double_well(), np.array([2.0]), np.array([1.0])) == pytest.approx(11.0)
    p = quadratic(dim=2, scale=3.0)
    v = np.array([1.0, 2.0])
    assert hessian_quadform(p, np.zeros(2), v) == pytest.approx(3.0 * 5.0)


def test_hessian_quadform_matches_second_difference():
    h = 1e-4
    rng = np.random.default_rng(3)
    for name in ("quadratic", "double_well", "rosenbrock", "eggcrate", "anisotropic_quadratic"):
        p = make_potential(name)
        for _ in range(10):
            x = rng.uniform(-1.5, 1.5, size=p.dim)
            v = rng.uniform(-1.0, 1.0, size=p.dim)
            fd = (value(p, x + h * v) - 2.0 * value(p, x) + value(p, x - h * v)) / h**2
            assert hessian_quadform(p, x, v) == pytest.approx(fd, abs=1e-3, rel=1e-3)


def test_hessian_quadform_unavailable_suggests_fallback():
    p = Potential(name="bare", dim=1, value_fn=lambda x: 0.0, gradient_fn=lambda x: np.zeros(1))
    with pytest.raises(CapabilityError, match="central second difference"):
        hessian_quadform(p, np.zeros(1), np.ones(1))


@settings(max_examples=50, deadline=None)
@given(
    c=st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
    coords=st.lists(st.floats(min_value=-2.0, max_value=2.0, allow_nan=False), min_size=2, max_size=2),
)
def test_hessian_quadform_scales_quadratically(c: float, coords: list[float]):
    p = eggcrate(dim=2)
    x = np.array([0.4, -0.9])
    v = np.array(coords)
    q1 = hessian_quadform(p, x, v)
    qc = hessian_quadform(p, x, c * v)
    assert qc == pytest.approx(c * c * q1, abs=1e-9 * (1.0 + abs(q1)))


def test_declared_critical_points_have_zero_gradient():
    for name, _ in builtin_potentials():
        p = make_potential(name)
        for xc in p.known_critical_points:
            assert np.linalg.norm(gradient(p, np.asarray(xc))) <= 1e-10, name


def test_declared_lower_bounds_hold_on_samples():
    rng = np.random.default_rng(11)
    for name, _ in builtin_potentials():
        p = make_potential(name)
        if p.lower_bound is None:
            continue
        for _ in range(200):
            x = rng.uniform(-3.0, 3.0, size=p.dim)
            assert value(p, x) >= p.lower_bound - 1e-12, name


def test_double_well_floor_attained():
    p = double_well()
    assert p.lower_bound == pytest.approx(-0.25)
    assert value(p, np.array([1.0])) == pytest.approx(-0.25)
    assert value(p, np.array([-1.0])) == pytest.approx(-0.25)


def test_gradient_lipschitz_estimates():
    # identity Hessian: every difference quotient is exactly 1
    assert estimate_gradient_lipschitz(quadratic(dim=2), np.zeros(2), 2.0) == pytest.approx(1.0)
    from hbft.potentials import anisotropic_quadratic

    est = estimate_gradient_lipschitz(anisotropic_quadratic((1.0, 4.0)), np.zeros(2), 2.0)
    assert 3.5 <= est <= 4.0 + 1e-9


def test_verify_potential_hypotheses_reports():
    ok = verify_potential_hypotheses(make_potential("double_well"))
    assert ok.satisfied
    assert ok.max_gradient_residual <= 1e-4

    bad = verify_potential_hypotheses(tilted_plane(slope=(1.0,)))
    assert not bad.satisfied
    assert bad.unbounded_below


def test_flat_potential_is_identically_zero():
    p = flat(dim=2)
    x = np.array([3.0, -4.0])
    assert value(p, x) == 0.0
    assert np.all(gradient(p, x) == 0.0)
    assert hessian_quadform(p, x, np.array([1.0, 1.0])) == 0.0


def test_dimension_mismatch_rejected():
    p = quadratic(dim=2)
    with pytest.raises(DimensionMismatchError):
        value(p, np.array([1.0]))
    with pytest.raises(DimensionMismatchError):
        gradient(p, np.array([1.0, 2.0, 3.0]))


def test_gradient_of_wrong_shape_rejected():
    wide = Potential(name="wide", dim=2, value_fn=lambda x: 0.0,
                     gradient_fn=lambda x: np.zeros(3))
    with pytest.raises(DimensionMismatchError, match="wide"):
        gradient(wide, np.array([1.0, 2.0]))
    column = Potential(name="column", dim=2, value_fn=lambda x: 0.0,
                       gradient_fn=lambda x: x.reshape(2, 1))
    with pytest.raises(DimensionMismatchError, match="column"):
        gradient(column, np.array([1.0, 2.0]))


def test_make_potential_catalogue_errors():
    with pytest.raises(ValueError, match="quadratic"):
        make_potential("no_such_landscape")
    with pytest.raises(ValueError):
        make_potential("quadratic", bogus_param=3)
    with pytest.raises(ValueError):
        make_potential("anisotropic_quadratic", diag=(1.0, -2.0))


def test_catalogue_is_sorted_with_descriptions():
    listing = builtin_potentials()
    names = [n for n, _ in listing]
    assert names == sorted(names)
    assert all(desc for _, desc in listing)
    assert "quadratic" in names and "rosenbrock" in names


def test_eggcrate_gradient_formula():
    p = eggcrate(dim=2, amplitude=0.7)
    x = np.array([0.3, -1.1])
    expected = x + 0.7 * np.sin(2.0 * x)
    assert gradient(p, x) == pytest.approx(expected, abs=1e-12)
    assert _central_diff(p, x) == pytest.approx(expected, abs=1e-6)


def test_unbounded_potential_is_flagged():
    p = tilted_plane(slope=(2.0, 0.5))
    assert p.unbounded_below
    assert p.lower_bound is None
    # goes arbitrarily negative along the downhill direction
    assert value(p, np.array([-100.0, 0.0])) < -100.0


_FLOAT_FORMS = [
    quadratic(dim=1, scale=2.5), quadratic(dim=2), anisotropic_quadratic(diag=(3.0,)),
    anisotropic_quadratic(diag=(1.0, 4.0)), rosenbrock(a=0.5, b=30.0), double_well(),
    eggcrate(dim=1, amplitude=0.8), eggcrate(dim=2), flat(dim=1), flat(dim=2),
    tilted_plane(slope=(0.5,)), tilted_plane(slope=(1.0, -2.0)),
]


@settings(max_examples=200, deadline=None)
@given(
    case=st.sampled_from(range(len(_FLOAT_FORMS))),
    coords=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=2, max_size=2),
)
# Python floats raise OverflowError on x**3 and x**2 and ValueError on sin(inf)
# where numpy gives inf or nan: the forms must give numpy's value there too.
@example(case=5, coords=[1e110, 0.0])  # double_well
@example(case=4, coords=[1e160, 0.0])  # rosenbrock
@example(case=7, coords=[1e307, 1e307])  # eggcrate, dim 2
@example(case=6, coords=[1e307, 0.0])  # eggcrate, dim 1
@example(case=7, coords=[1e308, 0.0])  # eggcrate at sin(inf)
def test_float_gradient_form_gives_the_doubles_of_the_array_form(case, coords):
    p = _FLOAT_FORMS[case]
    x = coords[: p.dim]
    with np.errstate(over="ignore", invalid="ignore"):
        ref = gradient(p, np.array(x)).tolist()
        g = p.float_gradient_fn(*x)
    got = [g] if p.dim == 1 else list(g)
    assert np.array(got).tobytes() == np.array(ref).tobytes()


@pytest.mark.parametrize("factory", [quadratic, eggcrate, flat])
def test_dim_must_be_a_whole_number(factory):
    # a bool or a fractional dim used to be truncated by int(dim)
    for bad in (1.9, True, False, 0, -1, 0.5, math.inf, math.nan, "2"):
        with pytest.raises(ValueError, match="dim must be a whole number"):
            factory(dim=bad)
    assert factory(dim=2).dim == factory(dim=2.0).dim == 2
    assert type(factory(dim=2.0).dim) is int


def test_only_dims_one_and_two_get_a_float_form():
    assert quadratic(dim=3).float_gradient_fn is None
    assert eggcrate(dim=3).float_gradient_fn is None
    assert anisotropic_quadratic(diag=(1.0, 2.0, 3.0)).float_gradient_fn is None
    assert Potential(name="bare", dim=1, value_fn=lambda x: 0.0,
                     gradient_fn=lambda x: np.zeros(1)).float_gradient_fn is None


def _per_row_values(p: Potential, x: np.ndarray) -> np.ndarray:
    return np.array([value(p, row) for row in x])


@settings(max_examples=200, deadline=None)
@given(
    case=st.sampled_from(range(len(_FLOAT_FORMS))),
    rows=st.lists(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=2, max_size=2),
                  min_size=1, max_size=6),
)
def test_column_value_form_gives_the_doubles_of_per_row_value(case, rows):
    p = _FLOAT_FORMS[case]
    x = np.array(rows)[:, : p.dim].copy()
    with np.errstate(over="ignore", invalid="ignore"):
        col, ref = p.column_value_fn(x), _per_row_values(p, x)
    assert col.shape == ref.shape and col.tobytes() == ref.tobytes()


@pytest.mark.parametrize("p", _FLOAT_FORMS, ids=lambda p: p.name)
def test_column_value_form_matches_per_row_value_on_many_rows(p):
    # Whole-array powers round differently on a few percent of such rows
    # (x ** 4 on double_well's, x0 ** 2 inside rosenbrock's); a handful of
    # rows rarely meets one, so this runs thousands.
    x = np.random.default_rng(3).normal(scale=3.0, size=(5000, p.dim))
    assert p.column_value_fn(x).tobytes() == _per_row_values(p, x).tobytes()


@pytest.mark.parametrize("p, start", [
    # Python floats raise OverflowError on these powers, where numpy gives inf
    (double_well(), [1e110]),
    (rosenbrock(), [1e160, 0.0]),
    (eggcrate(dim=2), [1e307, 1e307]),
    (eggcrate(dim=1), [1e307]),
], ids=["double_well", "rosenbrock", "eggcrate-2", "eggcrate-1"])
def test_column_value_form_matches_per_row_value_on_overflowing_rows(p, start):
    x = np.array([[0.5, -1.5][: p.dim], start, [2.0, 3.0][: p.dim]])
    with np.errstate(over="ignore", invalid="ignore"):
        col, ref = p.column_value_fn(x), _per_row_values(p, x)
    assert not math.isfinite(ref[1])
    assert col.tobytes() == ref.tobytes()


def test_only_dims_one_and_two_get_a_column_form():
    for p in _FLOAT_FORMS:
        assert p.column_value_fn is not None
    for p in (quadratic(dim=3), eggcrate(dim=3), flat(dim=3), tilted_plane(slope=(1.0, 2.0, 3.0)),
              anisotropic_quadratic(diag=(1.0, 2.0, 3.0))):
        assert p.column_value_fn is None


_DOT_EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.5e-310, 1e-200, -1e-200, 1e200, -1e200,
              math.inf, -math.inf, math.nan, 1.0, -3.5]


@settings(max_examples=200, deadline=None)
@given(
    a=st.lists(st.one_of(st.sampled_from(_DOT_EDGES), st.floats()), min_size=1, max_size=40),
    b=st.lists(st.one_of(st.sampled_from(_DOT_EDGES), st.floats()), min_size=1, max_size=40),
)
def test_row_dots_at_dim_one_gives_the_doubles_of_the_matmul(a, b):
    # the dim-1 product must match the batched matmul bit for bit, the sign
    # of a zero from a mixed-sign product included
    n = min(len(a), len(b))
    a = np.array(a[:n])[:, None]
    b = np.array(b[:n])[:, None]
    with np.errstate(all="ignore"):
        for left, right in ((a, b), (a, b[0]), (a, a)):
            want = np.matmul(left[..., None, :], right[..., :, None])[..., 0, 0]
            got = row_dots(left, right)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()
