"""Compare the builtin column forms of λ and ∇Φ with their per-sample forms on
many seeded random inputs.

Usage: PYTHONPATH=src python tests/soak_columns.py [inputs] [seed]

Each of the five column forms (``oscillating`` and ``power_decay`` λ,
``quadratic``, ``anisotropic_quadratic`` and ``flat`` ∇Φ) takes ``inputs``
random inputs, a chunk at a time, with parameters drawn afresh for each chunk.
Times are non-negative bit patterns from the least subnormal up to the float
maximum, or for ``oscillating`` up to where ω t stays finite, plus 0.0 (and
inf for ``power_decay``). Gradient rows, at dim 1, 2 or 3, are any 64-bit
patterns: NaNs with payloads, infinities, subnormals and products that
overflow. Outputs are compared bit for bit with ``lam`` at each time and
``gradient`` at each row. Exits 1 and prints the first mismatches if any
differ. Not collected by pytest (its name does not start with ``test_``); CI
runs it.
"""

from __future__ import annotations

import sys
import time

import numpy as np

from hbft.friction import oscillating, power_decay
from hbft.potentials import anisotropic_quadratic, flat, gradient, quadratic

_MAX = np.finfo(float).max


def _times(rng, n: int, top: float) -> np.ndarray:
    top_bits = int(np.float64(top).view(np.int64))
    return np.concatenate([[0.0], rng.integers(1, top_bits, n, endpoint=True).view(np.float64)])


def _log_uniform(rng, lo: float, hi: float) -> float:
    return float(10.0 ** rng.uniform(np.log10(lo), np.log10(hi)))


def _oscillating(rng, n: int):
    base, w = _log_uniform(rng, 1e-300, 1e300), _log_uniform(rng, 1e-3, 1e3)
    s = oscillating(base, base * rng.uniform(0.0, 1.0), w)
    return s.name, s.lam_column, s.lam, _times(rng, n, np.nextafter(_MAX / max(w, 1.0), 0.0))


def _power_decay(rng, n: int):
    s = power_decay(_log_uniform(rng, 1e-300, 1e300), float(rng.uniform(1e-6, 1.0)))
    return s.name, s.lam_column, s.lam, np.append(_times(rng, n, _MAX), np.inf)


def _gradient_case(make):
    def case(rng, n: int):
        dim = int(rng.integers(1, 4))
        p = make(rng, dim)
        rows = rng.integers(0, 2**64, (n, dim), dtype=np.uint64).view(np.float64)
        return p.name, p.column_gradient_fn, lambda row: gradient(p, row), rows
    return case


FORMS = {
    "oscillating": _oscillating,
    "power_decay": _power_decay,
    "quadratic": _gradient_case(lambda rng, dim: quadratic(dim, _log_uniform(rng, 1e-310, 1e300))),
    "anisotropic_quadratic": _gradient_case(
        lambda rng, dim: anisotropic_quadratic([_log_uniform(rng, 1e-310, 1e300) for _ in range(dim)])),
    "flat": _gradient_case(lambda rng, dim: flat(dim)),
}


def main(inputs: int = 1_000_000, seed: int = 20261021, chunk: int = 1 << 14) -> int:
    rng = np.random.default_rng(seed)
    start, mismatches, bad = time.perf_counter(), 0, []
    for form, draw in FORMS.items():
        for lo in range(0, inputs, chunk):
            name, column, per_sample, xs = draw(rng, min(chunk, inputs - lo))
            with np.errstate(all="ignore"):
                got = column(xs)
                want = np.array([per_sample(x) for x in (xs.tolist() if xs.ndim == 1 else xs)])
            if got is None or got.shape != want.shape:
                mismatches += len(xs)
                bad.append((name, "every input", "declined" if got is None else got.shape, want.shape))
                continue
            differ = (got.view(np.int64) != want.view(np.int64)).reshape(len(xs), -1).any(axis=1)
            mismatches += int(differ.sum())
            bad += [(name, xs[k], got[k], want[k]) for k in np.flatnonzero(differ)[:10]]
    print(f"{inputs:,} inputs per form, {len(FORMS)} forms, seed {seed}, numpy {np.__version__}: "
          f"{mismatches} mismatches in {time.perf_counter() - start:.1f} s")
    for name, x, got, want in bad[:10]:
        print(f"  {name} at {np.asarray(x).tolist()}: column {np.asarray(got).tolist()}, "
              f"per sample {np.asarray(want).tolist()}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main(*map(int, sys.argv[1:])))
