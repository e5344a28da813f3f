"""CSV text of float64 cells, as ``repr`` writes each, formatted a block at a time.

``repr`` of a float writes the shortest decimal digits that read back as the
same double (nearest the exact value, a tie to the even digit), positionally
when the decimal point falls in (-4, 16] and as ``d.ddde±XX`` otherwise. Here
those digits come from Ryu (Adams, "Ryū: fast float-to-string conversion",
PLDI 2018) in numpy integer arithmetic over a whole block: each 125-bit power
of 5 is five 28-bit limbs, the interval ends come out of the same limb product
as the value, and the count of digits the interval leaves free is found in
five steps for every cell at once. Each cell is then laid out in seven
little-endian words of ASCII with zero bytes as padding (its digits four to a
word, each followed by a byte that can hold the point), and one compaction
drops a block's zero bytes.

All arithmetic is in int64: Ryu's values stay below 2^62 for doubles, and a
uint64 array mixed with an int64 one would be computed in float64. Every shift
count stays below 64.
"""

from __future__ import annotations

import functools

import numpy as np

_I = np.int64
_M28 = (1 << 28) - 1
_MANTISSA = (1 << 52) - 1
_EXPONENT = 0x7FF << 52
_P10 = np.array([10**k for k in range(19)], dtype=_I)
# A cell's digits take 24 places, four to a word, each place a digit byte and
# a byte for the point after it; positional text ends by place 21.
_PLACES = 24
# the largest decimal point position written positionally
_POSITIONAL_MAX = 16
_EXP_BIAS = 400  # _EXP_WORDS[k + _EXP_BIAS] holds the "e-05" of a decimal exponent k


def _word(text: bytes) -> int:
    return int.from_bytes(text.ljust(8, b"\0"), "little")


_EXP_WORDS = np.array([_word(b"e%+03d" % k) for k in range(-_EXP_BIAS, _EXP_BIAS)], dtype=_I)
_NAN, _INF, _ZERO, _POINT_ZERO = (_word(t) for t in (b"nan", b"inf", b"0.0", b".0"))
_MINUS, _POINT, _COMMA, _NEWLINE = (ord(c) for c in "-.,\n")


def _places(byte: int, places, offset: int) -> list[int]:
    """Six words with ``byte`` at the digit (offset 0) or point (offset 1)
    byte of each of ``places``."""
    words = [0] * 6
    for i in places:
        words[i // 4] |= byte << (16 * (i % 4) + 8 * offset)
    return words


# _KEPT[k] keeps the digits of the last k places; _DOTS[p] is a point after place p
_KEPT = np.array([_places(0xFF, range(_PLACES - k, _PLACES), 0) for k in range(_PLACES + 1)],
                 dtype=_I)
_DOTS = np.array([_places(_POINT, [p], 1) for p in range(_PLACES)] + [[0] * 6], dtype=_I)
_ZEROS = _places(ord("0"), range(4), 0)[0]


def _pow5bits(e: np.ndarray) -> np.ndarray:
    """The bit length of 5^e, for 0 <= e <= 3528."""
    return ((e * 1217359) >> 19) + 1


@functools.cache
def _exponent_tables() -> tuple[np.ndarray, ...]:
    """Ryu's per-exponent constants, indexed by the biased binary exponent:
    the power of 5 as limbs (5, 2047), the product's shift past bit 112, the
    decimal exponent, the mask of the bits whose zeros make vr exact, whether
    the lower end is exact by its low bits, and 5^q where divisibility by it
    decides that (else 0)."""
    inverse = [(1 << ((5**q).bit_length() + 124)) // 5**q + 1 for q in range(342)]
    power = [5**i << 125 >> (5**i).bit_length() for i in range(326)]
    factors = np.array([[f >> (28 * k) & _M28 for k in range(5)] for f in inverse + power],
                       dtype=_I).T
    e2 = np.maximum(np.arange(2047), 1) - (1023 + 52 + 2)  # two bits more, for the ends
    big = e2 >= 0
    q = np.where(big, (e2 * 78913) >> 18, (-e2 * 732923) >> 20) - np.where(big, e2 > 3, e2 < -1)
    i = -e2 - q
    row = np.where(big, q, len(inverse) + i)
    shift = np.where(big, 124 - e2 + q + _pow5bits(q), 125 + q - _pow5bits(i))
    e10 = np.where(big, q, q + e2)
    # mv < 2^55, so a mask of 62 bits reads all of it: vr is not exact for q >= 55
    zeros = np.where(big, -1, (1 << np.minimum(q, 62)) - 1)
    five = np.where(big & (q <= 21), 5 ** np.minimum(q, 21), 0)
    tables = factors[:, row].copy(), shift - 112, e10, zeros, ~big & (q <= 1), five
    for table in tables:
        table.flags.writeable = False  # shared by every call
    return tables


def _shortest(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ryu's shortest digits of finite nonzero doubles (``bits`` as int64):
    the decimal significand and its power of ten."""
    factors, shift, e10, zeros, tiny, five = _exponent_tables()
    biased = (bits >> 52) & 0x7FF
    mantissa = bits & _MANTISSA
    even = (bits & 1) == 0
    mm_shift = (mantissa != 0) | (biased <= 1)
    mv = (mantissa + np.where(biased != 0, 1 << 52, 0)) << 2
    t = np.take(factors, biased, axis=1)

    # mv * factor in 28-bit limb columns, then its top bits; those of
    # (mv + 2) * factor and (mv - 1 - mm_shift) * factor by adding and
    # subtracting the factor's limbs to and from the columns
    cols = np.multiply(mv & _M28, t)
    cols[1:] += (mv >> 28) * t[:4]
    top = (mv >> 28) * t[4]
    s = shift[biased]

    def scaled(limbs: np.ndarray) -> np.ndarray:
        carry = limbs[0] >> 28
        for k in (1, 2, 3):
            carry = (limbs[k] + carry) >> 28
        low = limbs[4] + carry
        # the product's shift is 118 to 125 bits: the low limb from bit 112 on
        return ((low & _M28) >> s) | ((top + (low >> 28)) << (28 - s))

    vr, vp, vm = map(scaled, (cols, cols + (t << 1), cols - (1 + mm_shift) * t))

    # whether the exact vr and vm end in zeros that the shift dropped; an
    # excluded upper end that is exact steps down
    vr_zeros = (mv & zeros[biased]) == 0
    small = tiny[biased]
    vm_zeros = small & even & mm_shift
    vp -= small & ~even
    exact = np.flatnonzero(five[biased])
    if exact.size:
        m, p5, ev = mv[exact], five[biased[exact]], even[exact]
        fives = m % 5 == 0
        vr_zeros[exact] = fives & (m % p5 == 0)
        vm_zeros[exact] = ~fives & ev & ((m - 1 - mm_shift[exact]) % p5 == 0)
        vp[exact] -= ~fives & ~ev & ((m + 2) % p5 == 0)

    # drop every digit the interval leaves free: the largest r with
    # vp // 10^r > vm // 10^r, found bit by bit of r from 16 down
    removed = np.zeros(len(bits), dtype=_I)
    up, low_end = vp, vm
    for step in (16, 8, 4, 2, 1):
        u, d = up // 10**step, low_end // 10**step
        more = u > d
        up, low_end = np.where(more, u, up), np.where(more, d, low_end)
        removed += more * step
    cut, before = _P10[removed], _P10[np.maximum(removed - 1, 0)]
    out = vr // cut
    rest = vr - out * cut
    last = rest // before
    vr_zeros &= rest == last * before
    vm_zeros &= vm == low_end * cut
    # where vm ends in zeros, the closed lower end lets more digits go
    trailing = np.flatnonzero(vm_zeros)
    if trailing.size:
        o, m, d, z = out[trailing], low_end[trailing], last[trailing], vr_zeros[trailing]
        more = np.zeros(trailing.size, dtype=_I)
        while True:
            m10 = m // 10
            go = m == m10 * 10
            if not go.any():
                break
            o10 = o // 10
            z &= ~go | (d == 0)
            d = np.where(go, o - o10 * 10, d)
            o, m = np.where(go, o10, o), np.where(go, m10, m)
            more += go
        out[trailing], low_end[trailing], last[trailing], vr_zeros[trailing] = o, m, d, z
        removed[trailing] += more
    # an exact tie rounds to the even digit
    last[vr_zeros & (last == 5) & ((out & 1) == 0)] = 4
    out += ((out == low_end) & ~(even & vm_zeros)) | (last >= 5)
    return out, e10[biased] + removed


def _ascii4(x: np.ndarray) -> np.ndarray:
    """Each value below 10^4 as four ASCII digits, one to each 16-bit lane of
    a word, the first digit in the lowest byte."""
    hi = (x * 5243) >> 19  # x // 100
    x = hi | ((x - hi * 100) << 32)
    hi = ((x * 103) >> 10) & 0x0000_000F_0000_000F  # each 32-bit lane // 10
    return hi | ((x - hi * 10) << 16) | 0x0030_0030_0030_0030


def _layout(out: np.ndarray, e10: np.ndarray, words: np.ndarray) -> None:
    """Write into the (n, 7) ``words`` the text of ``out`` * 10^``e10`` as
    ``repr`` writes it, less the sign: 24 digit places, each followed by a
    byte that holds the point after it or nothing, then ".0" or the exponent."""
    digits = np.searchsorted(_P10, out, side="right")
    point = digits + e10
    fixed = (point > -4) & (point <= _POSITIONAL_MAX)
    whole = fixed & (e10 >= 0)
    value = out * np.take(_P10, np.where(whole, e10, 0))
    # the digit places kept from the right, and the place the point follows
    kept = np.where(fixed, np.where(whole, point, digits) + np.maximum(1 - point, 0), digits)
    dot = np.where(fixed, np.where(whole, _PLACES, _PLACES - 1 + e10),
                   np.where(digits > 1, _PLACES - digits, _PLACES))
    high = value // 10**8
    low = value - high * 10**8
    top = high // 10**8
    mid = high - top * 10**8
    mid_high, low_high = mid // 10**4, low // 10**4
    text = _ascii4(np.stack([top, mid_high, mid - mid_high * 10**4, low_high,
                             low - low_high * 10**4]))
    keep = np.take(_KEPT, kept, axis=0)
    np.bitwise_and(text.T, keep[:, 1:], out=words[:, 1:6])
    words[:, 0] = keep[:, 0] & _ZEROS  # the leftmost places are zeros of "0.000ddd"
    words[:, :6] |= np.take(_DOTS, dot, axis=0)
    words[:, 6] = np.where(fixed, whole * _POINT_ZERO, np.take(_EXP_WORDS, point - 1 + _EXP_BIAS))


def _cells(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (n, 7) words of each cell less its sign, and whether it has one."""
    words = np.zeros((len(bits), 7), dtype=_I)
    magnitude = bits & ((1 << 63) - 1)
    finite = magnitude < _EXPONENT
    regular = np.flatnonzero(finite & (magnitude != 0))
    if regular.size == len(bits):
        _layout(*_shortest(bits), words)
    elif regular.size:
        part = np.empty((regular.size, 7), dtype=_I)
        _layout(*_shortest(bits[regular]), part)
        words[regular] = part
    words[:, 1] = np.where(finite, np.where(magnitude == 0, _ZERO, words[:, 1]),
                           np.where(magnitude == _EXPONENT, _INF, _NAN))
    return words, (bits < 0) & (magnitude <= _EXPONENT)


def csv_rows(block: np.ndarray) -> str:
    """The CSV text of a (columns, rows) float64 block: each row's cells in
    ``repr`` joined by commas, every row ended by a newline. A column whose
    cells all have the same bits is formatted once."""
    ncols, nrows = block.shape
    if not nrows:
        return ""
    bits = np.ascontiguousarray(block, dtype=np.float64).view(_I)
    same = (bits == bits[:, :1]).all(axis=1)
    # a word ahead of the cells holds the first cell's sign, and each cell's
    # last word the sign of the cell after it
    buf = np.empty(nrows * ncols * 7 + 1, dtype=_I)
    words = buf[1:].reshape(nrows, ncols, 7)
    minus = np.empty((nrows, ncols), dtype=bool)
    if same.any():
        words[:, same], minus[:, same] = _cells(bits[same, 0])
    if not same.all():
        w, m = _cells(bits[~same].T.ravel())
        words[:, ~same], minus[:, ~same] = w.reshape(nrows, -1, 7), m.reshape(nrows, -1)
    words[:, :-1, 6] |= _COMMA << 40
    words[:, -1, 6] |= _NEWLINE << 40
    minus = minus.ravel()
    words.reshape(-1, 7)[:-1, 6] |= minus[1:] * (_MINUS << 48)
    buf[0] = minus[0] * (_MINUS << 56)
    return buf.tobytes().translate(None, b"\0").decode("ascii")
