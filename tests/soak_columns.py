"""Compare the builtin column forms of ∇Φ with their per-sample forms on many
seeded random inputs.

Usage: PYTHONPATH=src python tests/soak_columns.py [inputs] [seed]

Each of the three column forms (``quadratic``, ``anisotropic_quadratic`` and
``flat`` ∇Φ) takes ``inputs`` random inputs, a chunk at a time, with
parameters drawn afresh for each chunk. Gradient rows, at dim 1, 2 or 3, are
any 64-bit patterns: NaNs with payloads, infinities, subnormals and products
that overflow. Outputs are compared bit for bit with ``gradient`` at each
row. Exits 1 and prints the first mismatches if any differ. Not collected by
pytest (its name does not start with ``test_``); CI runs it.
"""

from __future__ import annotations

import sys
import time

import numpy as np

from hbft.potentials import anisotropic_quadratic, flat, gradient, quadratic


def _log_uniform(rng, lo: float, hi: float) -> float:
    return float(10.0 ** rng.uniform(np.log10(lo), np.log10(hi)))


def _gradient_case(make):
    def case(rng, n: int):
        dim = int(rng.integers(1, 4))
        p = make(rng, dim)
        rows = rng.integers(0, 2**64, (n, dim), dtype=np.uint64).view(np.float64)
        return p.name, p.column_gradient_fn, lambda row: gradient(p, row), rows
    return case


FORMS = {
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
                want = np.array([per_sample(x) for x in xs])
            if got.shape != want.shape:
                mismatches += len(xs)
                bad.append((name, "every input", got.shape, want.shape))
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
