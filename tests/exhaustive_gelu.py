"""Compare ``model.gelu`` with the scipy expression on every float32 input.

Not collected by pytest (it takes minutes). Run from the repo root:

    PYTHONPATH=src python tests/exhaustive_gelu.py

It walks all 2**32 float32 bit patterns in chunks of 2**CHUNK_BITS,
computes ``model.gelu`` and ``old_gelu`` (``0.5 * x * (1 + erf(x /
sqrt(2)))`` with ``scipy.special.erf``, in float64, rounded to float32)
on each and counts the outputs whose bytes differ. It prints the count,
the first few mismatching inputs, the runtime and the numpy, scipy and
C library versions, and exits 1 on any mismatch.
"""

from __future__ import annotations

import math
import platform
import sys
import time

import numpy as np
import scipy
from scipy.special import erf

from vidtldr import model, numerics

CHUNK_BITS = 22
COLS = 1024


def old_gelu(x):
    """gelu as one expression over scipy's erf."""
    m = numerics.as_matrix(x).astype(np.float64)
    return (0.5 * m * (1.0 + erf(m / math.sqrt(2.0)))).astype(np.float32)


def main() -> int:
    t0 = time.perf_counter()
    step = 2**CHUNK_BITS
    mismatches = 0
    first = []
    with np.errstate(all="ignore"):
        for start in range(0, 2**32, step):
            bits = np.arange(start, start + step, dtype=np.uint32)
            x = bits.view(np.float32).reshape(-1, COLS)
            bad = np.flatnonzero(model.gelu(x).view(np.uint32) != old_gelu(x).view(np.uint32))
            mismatches += bad.size
            first.extend(int(b) for b in bits[bad[: max(0, 10 - len(first))]])
    seconds = time.perf_counter() - t0
    print(f"inputs: {2**32}, mismatches: {mismatches}, runtime: {seconds:.0f} s")
    if first:
        print("first mismatching bit patterns:", ", ".join(f"0x{b:08x}" for b in first))
    libc = " ".join(platform.libc_ver())
    print(f"numpy {np.__version__}, scipy {scipy.__version__}, {libc}, {platform.machine()}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
