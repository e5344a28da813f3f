"""Damping schedules: pointwise evaluation, derivative consistency, claim
enforcement, and the grid-based hypothesis report."""

from __future__ import annotations

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hbft import (
    CapabilityError,
    FrictionSchedule,
    ScheduleConsistencyError,
    builtin_schedules,
    lambda_at,
    lambda_dot_at,
    make_schedule,
    verify_friction_hypotheses,
)
from hbft.friction import constant, lambda_values, linear_growth, oscillating, power_decay, step


def test_evaluation_examples():
    assert lambda_at(power_decay(initial=1.0, exponent=1.0), 1.0) == pytest.approx(0.5)
    assert lambda_at(oscillating(base=2.0, amplitude=1.0), 0.0) == pytest.approx(2.0)
    assert lambda_at(constant(3.0), 17.2) == pytest.approx(3.0)
    assert lambda_at(step(times=(1.0,), values=(0.5, 2.0)), 0.99) == pytest.approx(0.5)
    assert lambda_at(step(times=(1.0,), values=(0.5, 2.0)), 1.0) == pytest.approx(2.0)


def test_derivative_examples():
    assert lambda_dot_at(constant(1.0), 4.0) == pytest.approx(0.0)
    assert lambda_dot_at(linear_growth(rate=1.0), 2.5) == pytest.approx(1.0)
    # d/dt (1+t)^(-1) = -(1+t)^(-2), so -1 at t=0
    assert lambda_dot_at(power_decay(initial=1.0, exponent=1.0), 0.0) == pytest.approx(-1.0)


@pytest.mark.parametrize(
    "schedule",
    [constant(2.0), power_decay(1.0, 0.5), oscillating(2.0, 1.0, 3.0), linear_growth(0.2)],
    ids=lambda s: s.name,
)
def test_derivative_matches_central_difference(schedule: FrictionSchedule):
    h = 1e-5
    ts = np.linspace(h, 50.0, 1000)
    for t in ts:
        fd = (lambda_at(schedule, t + h) - lambda_at(schedule, t - h)) / (2.0 * h)
        assert lambda_dot_at(schedule, t) == pytest.approx(fd, abs=1e-4)


def test_negative_time_rejected():
    with pytest.raises(ValueError):
        lambda_at(constant(1.0), -0.1)


def test_nonnegativity_claim_enforced():
    dishonest = FrictionSchedule(name="dishonest", lam=lambda t: -1.0)
    with pytest.raises(ScheduleConsistencyError):
        lambda_at(dishonest, 0.5)
    # the same callable is fine once the claim is dropped
    signed = FrictionSchedule(name="signed", lam=lambda t: -1.0, claims_nonnegative=False)
    assert lambda_at(signed, 0.5) == -1.0


def test_nonfinite_value_rejected():
    broken = FrictionSchedule(name="broken", lam=lambda t: float("nan"))
    with pytest.raises(ScheduleConsistencyError):
        lambda_at(broken, 1.0)


def _outcome(fn):
    """What ``fn()`` returns as float reprs (NaN-safe), or the type and text of what it raises."""
    try:
        return [repr(float(v)) for v in fn()]
    except Exception as exc:
        return type(exc), str(exc)


@settings(max_examples=200, deadline=None)
@given(
    outputs=st.lists(
        st.one_of(st.floats(allow_nan=True, allow_infinity=True), st.none()), min_size=1, max_size=6
    ),
    times=st.lists(
        st.floats(min_value=-5.0, max_value=50.0, allow_nan=False), min_size=0, max_size=12
    ),
    nonnegative=st.booleans(),
)
def test_lambda_values_matches_lambda_at(outputs, times, nonnegative):
    # A schedule that cycles through outputs: negative and non-finite values,
    # and None, on which float() raises inside the evaluation.
    def outcome(evaluate):
        calls = []
        it = iter(outputs * len(times))
        s = FrictionSchedule(
            name="cycling", lam=lambda t: calls.append(t) or next(it), claims_nonnegative=nonnegative
        )
        return _outcome(lambda: evaluate(s)), calls

    ts = np.array(times, dtype=float)
    looped, looped_calls = outcome(lambda s: [lambda_at(s, float(t)) for t in ts])
    got, calls = outcome(lambda s: lambda_values(s, ts))
    assert got == looped
    # never evaluated at or past the first negative time
    assert calls[: len(looped_calls)] == looped_calls
    assert all(t >= 0 for t in calls)


@pytest.mark.parametrize("name", [name for name, _ in builtin_schedules()])
def test_lambda_values_matches_lambda_at_on_builtins(name):
    s = make_schedule(name)
    ts = np.linspace(0.0, 40.0, 4001)
    vals = lambda_values(s, ts)
    assert vals.dtype == np.float64
    assert vals.tolist() == [lambda_at(s, float(t)) for t in ts]


def test_step_schedule_pieces_at_the_edges():
    # λ = values[k] on [times[k-1], times[k]): each edge opens the next piece
    s = step(times=(1.0, 2.5), values=(0.5, 2.0, 3.0))
    cases = [(0.0, 0.5), (np.nextafter(1.0, 0.0), 0.5), (1.0, 2.0), (np.nextafter(2.5, 0.0), 2.0),
             (2.5, 3.0), (1e300, 3.0), (np.inf, 3.0)]
    assert [lambda_at(s, float(t)) for t, _ in cases] == [v for _, v in cases]
    # an unordered time falls in the last piece, as past every edge
    assert s.lam(np.nan) == 3.0


def test_step_schedule_has_no_derivative():
    with pytest.raises(CapabilityError):
        lambda_dot_at(step(times=(1.0,), values=(1.0, 2.0)), 0.5)


def test_hypothesis_report_smooth_schedules():
    for s in (constant(1.0), power_decay(1.0, 1.0), oscillating(2.0, 1.0, 1.0)):
        rep = verify_friction_hypotheses(s, horizon=50.0, bound_guess=10.0)
        assert rep.continuity_ok, s.name
        assert rep.eventually_bounded, s.name
        assert rep.satisfied, s.name
        assert not rep.has_zeros, s.name
        assert rep.derivative_available and rep.derivative_bounded, s.name


def test_hypothesis_report_flags_jumps():
    rep = verify_friction_hypotheses(step(times=(5.0,), values=(1.0, 3.0)), horizon=20.0)
    assert not rep.continuity_ok
    assert not rep.satisfied
    assert not rep.derivative_available


def test_hypothesis_report_flags_unbounded_growth():
    rep = verify_friction_hypotheses(linear_growth(rate=1.0), horizon=50.0, bound_guess=10.0)
    assert not rep.eventually_bounded
    assert rep.max_after_t1 == pytest.approx(50.0)
    assert not rep.satisfied


def test_hypothesis_report_flags_zeros():
    rep = verify_friction_hypotheses(step(times=(1.0,), values=(1.0, 0.0)), horizon=10.0)
    assert rep.has_zeros
    assert rep.min_value == 0.0


def test_bound_after_onset_time():
    # growth then plateau: bounded once checking starts after the ramp
    s = FrictionSchedule(name="ramp_plateau", lam=lambda t: min(t, 5.0), lam_dot=None)
    early = verify_friction_hypotheses(s, horizon=50.0, bound_guess=4.0, t1_guess=0.0)
    late = verify_friction_hypotheses(s, horizon=50.0, bound_guess=6.0, t1_guess=10.0)
    assert not early.eventually_bounded
    assert late.eventually_bounded
    assert late.max_after_t1 == pytest.approx(5.0)


def test_make_schedule_catalogue():
    names = [n for n, _ in builtin_schedules()]
    assert names == sorted(names)
    assert "constant" in names and "power_decay" in names
    s = make_schedule("oscillating", base=2.0, amplitude=0.5)
    assert lambda_at(s, 0.0) == pytest.approx(2.0)
    with pytest.raises(ValueError, match="constant"):
        make_schedule("no_such_schedule")
    with pytest.raises(ValueError):
        # amplitude above base would dip negative
        make_schedule("oscillating", base=1.0, amplitude=2.0)
    with pytest.raises(ValueError):
        make_schedule("step", times=(1.0, 2.0), values=(1.0, 2.0))


@settings(max_examples=80, deadline=None)
@given(t=st.floats(min_value=0.0, max_value=1e4, allow_nan=False))
def test_power_decay_stays_in_declared_range(t: float):
    s = power_decay(initial=2.0, exponent=0.7)
    val = lambda_at(s, t)
    assert 0.0 < val <= 2.0


def test_oscillating_requires_nonnegative_range():
    with pytest.raises(ValueError):
        oscillating(base=1.0, amplitude=1.5)


_in_claim_builtins = st.one_of(
    st.builds(constant, st.floats(min_value=0.0, allow_infinity=False)),
    st.builds(
        power_decay,
        st.floats(min_value=0.0, allow_infinity=False),
        st.floats(min_value=0.0, max_value=1e3, exclude_min=True),
    ),
    st.lists(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False), max_size=4, unique=True)
    .map(sorted)
    .flatmap(
        lambda ts: st.builds(
            step,
            st.just(ts),
            st.lists(st.floats(min_value=0.0, allow_infinity=False), min_size=len(ts) + 1,
                     max_size=len(ts) + 1),
        )
    ),
)


@settings(max_examples=300, deadline=None)
@given(s=_in_claim_builtins, t=st.floats(min_value=0.0, allow_nan=False))
def test_in_claim_builtins_hand_out_lam_unchecked(s, t):
    # constant, step and power_decay cannot leave [0, inf) at any t in
    # [0, inf], inf included, so their checked is their lam itself
    assert s.checked is s.lam
    val = lambda_at(s, t)
    assert type(val) is float and 0.0 <= val < math.inf


@pytest.mark.parametrize("name", ["oscillating", "linear_growth"])
def test_other_builtins_and_custom_schedules_keep_the_check(name):
    for s in (make_schedule(name), FrictionSchedule(name="custom", lam=lambda t: 1.0)):
        assert s.checked is not s.lam


def test_power_decay_is_zero_where_its_power_overflows():
    s = power_decay(initial=1.0, exponent=1000.0)
    assert lambda_at(s, 10.0) == 0.0
    assert math.copysign(1.0, lambda_dot_at(s, 10.0)) == -1.0 and lambda_dot_at(s, 10.0) == 0.0
    # as numpy's float64 arithmetic gives them
    with np.errstate(over="ignore"):
        assert s.lam(np.float64(10.0)) == 0.0 and s.lam_dot(np.float64(10.0)) == 0.0
    assert lambda_values(s, np.array([0.0, 10.0])).tolist() == [1.0, 0.0]


def _exact_power_decay(initial: float, exponent: float, t: float, derivative: bool) -> Decimal:
    """λ or λ' of power_decay at the float t, to 50 digits."""
    with localcontext() as ctx:
        ctx.prec = 50
        c, a, base = Decimal(initial), Decimal(exponent), 1 + Decimal(t)
        return -a * c / base ** (a + 1) if derivative else c / base**a


_SMALLEST_NORMAL = 2.2250738585072014e-308


def _overflows(fn) -> bool:
    try:
        return not math.isfinite(fn())
    except OverflowError:
        return True


@settings(max_examples=300, deadline=None)
@given(
    initial=st.floats(min_value=1e-300, max_value=1.7e308),
    exponent=st.floats(min_value=1e-3, max_value=1e12),
    log_power=st.floats(min_value=1.0, max_value=2200.0),
)
def test_power_decay_is_accurate_where_its_power_overflows(initial, exponent, log_power):
    # t with (1 + t)^exponent near exp(log_power): past the float range from
    # about 709.8 on; below it, exponent * initial may still overflow
    t = math.expm1(min(log_power / exponent, 700.0))
    s = power_decay(initial, exponent)
    for derivative, fn, direct in (
        (False, s.lam, lambda: initial / (1.0 + t) ** exponent),
        (True, s.lam_dot, lambda: -exponent * initial / (1.0 + t) ** (exponent + 1.0)),
    ):
        if not _overflows(direct):
            continue
        exact = _exact_power_decay(initial, exponent, t, derivative)
        got = fn(t)
        if _SMALLEST_NORMAL <= abs(exact) <= Decimal(1.7976931348623157e308):
            assert abs(Decimal(got) - exact) <= Decimal(1e-12) * abs(exact), (derivative, got, exact)
        else:
            assert abs(got) in (0.0, math.inf) or abs(got) < 2 * _SMALLEST_NORMAL


def test_power_decay_examples_past_the_float_range():
    s = power_decay(1e308, 1000.0)
    # the power overflows between these two times; lambda stays continuous
    assert lambda_at(s, 1.03) == pytest.approx(3.1912592511169, rel=1e-12)
    assert lambda_at(s, 1.04) == pytest.approx(0.023433252602701890, rel=1e-12)
    assert lambda_dot_at(power_decay(1e308, 10.0), 1.0) == pytest.approx(-4.8828125e305, rel=1e-12)


@pytest.mark.parametrize("t", [math.nan, -1.0])
def test_lambda_dot_at_refuses_a_time_that_is_not_at_least_zero(t):
    with pytest.raises(ValueError, match=f"evaluated at t={t}"):
        lambda_dot_at(constant(1.0), t)


def test_oscillating_with_a_non_finite_phase_breaks_its_claim():
    s = oscillating(base=2.0, amplitude=1.0, angular_frequency=1e308)
    assert math.isnan(s.lam(1.8)) and math.isnan(s.lam_dot(1.8))
    message = ("schedule 'oscillating(base=2, amplitude=1, angular_frequency=1e+308)' "
               "claims nonnegativity but produced nan at t=1.8")
    with pytest.raises(ScheduleConsistencyError) as exc:
        lambda_at(s, 1.8)
    assert str(exc.value) == message
    assert lambda_at(s, 1.0) == pytest.approx(2.0 + math.sin(1e308))


@pytest.mark.parametrize("name", [name for name, _ in builtin_schedules()])
def test_nan_time_is_refused(name):
    s = make_schedule(name)
    with pytest.raises(ValueError, match="evaluated at t=nan"):
        lambda_at(s, math.nan)
    with pytest.raises(ValueError, match="evaluated at t=nan"):
        lambda_values(s, np.array([0.0, 1.0, math.nan, -1.0]))


def test_lambda_at_returns_a_python_float_for_a_numpy_time():
    for name, _ in builtin_schedules():
        assert type(lambda_at(make_schedule(name), np.float64(2.5))) is float
