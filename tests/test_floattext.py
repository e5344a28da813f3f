"""floattext's CSV text against ``repr``, cell by cell."""

from __future__ import annotations

import math
import sys

import numpy as np
import pytest

from hbft.floattext import csv_rows

# cells per csv_rows call: bounds the memory of the array passes
_CHUNK = 1 << 16


def _mismatches(values) -> list[tuple[str, str]]:
    """(repr, formatted) of every cell whose text differs, formatting the
    values as one column and, in the same calls, as rows of seven cells."""
    values = np.asarray(values, dtype=np.float64)
    bad = []
    for lo in range(0, len(values), _CHUNK):
        part = values[lo:lo + _CHUNK]
        want = list(map(repr, part.tolist()))
        got = csv_rows(part[None, :]).split("\n")
        assert got.pop() == ""
        bad += [(w, g) for w, g in zip(want, got) if w != g]
        assert len(got) == len(want)
        rows = len(part) // 7
        block = part[:7 * rows].reshape(rows, 7)
        expected = "".join(",".join(want[7 * r:7 * r + 7]) + "\n" for r in range(rows))
        if csv_rows(block.T) != expected:
            bad.append(("rows of seven cells", f"differ from {lo}"))
    return bad


def test_random_bit_patterns_format_as_repr():
    rng = np.random.default_rng(20261020)
    assert _mismatches(rng.integers(0, 2**64, 500_000, dtype=np.uint64).view(np.float64)) == []


def test_normal_draws_format_as_repr():
    rng = np.random.default_rng(7)
    assert _mismatches(rng.normal(size=100_000) * 10.0 ** rng.integers(-30, 30, 100_000)) == []


def test_every_power_of_two_and_of_ten_formats_as_repr():
    twos = [math.ldexp(1.0, k) for k in range(-1074, 1024)]
    tens = [float(f"1e{k}") for k in range(-323, 309)]
    assert _mismatches(twos + tens + [-v for v in twos + tens]) == []


def test_positional_edges_and_their_neighbours_format_as_repr():
    # repr turns to the exponent form below 1e-4 and from 1e16 on
    edges = [1e-4, 1e16, 1e15, 1e-5, 9.999999999999999e15, 0.001]
    cells = [x for e in edges for x in (np.nextafter(e, 0), e, np.nextafter(e, np.inf))]
    assert _mismatches(cells + [-x for x in cells]) == []


def test_integers_around_two_to_the_53_format_as_repr():
    assert _mismatches([2.0**53 + k for k in range(-64, 65)] + [float(k) for k in range(-999, 1000)]) == []


def test_extremes_and_special_values_format_as_repr():
    cells = [5e-324, -5e-324, 2.225073858507201e-308, sys.float_info.min, sys.float_info.max,
             -sys.float_info.max, 0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan]
    assert _mismatches(cells * 3) == []


def test_round_sample_times_format_as_repr():
    # t = k * h: few digits, most of the digits Ryu computes are dropped
    k = np.arange(-20_000, 20_000)
    assert _mismatches(np.concatenate([k * 1e-3, k * 0.01, k / 3, k * 0.1 + 1e-9])) == []


def test_a_block_of_special_values_alone_never_reaches_the_digits():
    block = np.array([[math.nan, -0.0, math.inf], [0.0, -math.inf, -math.nan]])
    assert csv_rows(block) == "nan,0.0\n-0.0,-inf\ninf,nan\n"


def test_an_empty_block_is_no_text():
    assert csv_rows(np.empty((7, 0))) == ""


@pytest.mark.parametrize("same", [1.0, -0.0, -2.5e-310, math.nan, 1e300, 0.1])
def test_a_column_of_one_value_is_that_value_on_every_row(same):
    k = np.arange(5.0)
    block = np.array([k * 0.25, np.full(5, same), -k])
    rows = zip((k * 0.25).tolist(), (-k).tolist())
    assert csv_rows(block) == "".join(f"{a!r},{same!r},{b!r}\n" for a, b in rows)
