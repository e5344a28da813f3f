"""Compare floattext's CSV text with ``repr`` on many seeded random doubles.

Usage: PYTHONPATH=src python tests/soak_floattext.py [cells] [seed]

Every 64-bit pattern is as likely as any other, so subnormals, NaNs with
payloads and both infinities turn up alongside normal doubles. Exits 1 and
prints the first mismatches if any cell's text differs from its ``repr``.
Not collected by pytest (its name does not start with ``test_``); CI runs it.
"""

from __future__ import annotations

import sys
import time

import numpy as np

from hbft.floattext import csv_rows


def main(cells: int = 10_000_000, seed: int = 20261020, chunk: int = 1 << 16) -> int:
    rng = np.random.default_rng(seed)
    start, bad = time.perf_counter(), []
    for lo in range(0, cells, chunk):
        values = rng.integers(0, 2**64, min(chunk, cells - lo), dtype=np.uint64).view(np.float64)
        got = csv_rows(values[None, :]).split("\n")[:-1]
        bad += [(w, g) for w, g in zip(map(repr, values.tolist()), got) if w != g]
        if len(got) != len(values):
            bad.append((f"{len(values)} cells", f"{len(got)} lines"))
    print(f"{cells:,} cells, seed {seed}, numpy {np.__version__}: {len(bad)} mismatches "
          f"in {time.perf_counter() - start:.1f} s")
    for want, got in bad[:10]:
        print(f"  repr {want}  formatted {got}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(*map(int, sys.argv[1:])))
