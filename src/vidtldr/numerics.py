"""Deterministic numerics kernel.

Every routine in this module is bit-reproducible: same inputs give the
same outputs on every call in a process and across runs on the same
platform. Matrices are stored as float32 and reductions accumulate in
float64.

``_k_ordered_sum`` is the reference accumulator: a float64 sum that
adds the products of each k in increasing k. ``matmul`` returns, bit
for bit, what that kernel (and so the naive triple loop) gives, but
computes it as a certified float64 BLAS product: an error bound proves
that BLAS's result, rounded to float32, equals the k-ordered one, and
the elements the bound cannot certify are recomputed by the kernel.
This assumes only that BLAS's float64 dot products obey the standard
summation error bound in some order, which holds for blocked and FMA
kernels but not for Strassen-type algorithms. Each dot product and
norm of ``cosine_matrix`` (and ``cosine_sim``, its one-pair case) is a
plain k-ordered sum, since its float64 output has no float32 rounding
to certify against. ``row_softmax`` and ``row_neg_entropy`` use numpy's
pairwise row sums.
"""

from __future__ import annotations

import numpy as np

# Probabilities below this threshold are treated as exact zeros in
# entropy sums (the 0 * log 0 = 0 convention).
ENTROPY_EPS = 1e-12

# Vectors with norm below this are treated as directionless.
COSINE_NORM_EPS = 1e-12

STOCHASTIC_ATOL = 1e-5


def as_matrix(a) -> np.ndarray:
    """Coerce input to a 2-D float32 C-contiguous array."""
    m = np.ascontiguousarray(a, dtype=np.float32)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={m.ndim}")
    return m


def _k_ordered_sum(a64: np.ndarray, b64: np.ndarray) -> np.ndarray:
    """Float64 sum of the broadcast products a64[k] * b64[k], in increasing k."""
    acc = np.zeros(np.broadcast_shapes(a64.shape[1:], b64.shape[1:]), dtype=np.float64)
    for x, y in zip(a64, b64):
        acc += x * y
    return acc


def matmul(a, b) -> np.ndarray:
    """Multiply two matrices, bit-identical to k-ordered float64 accumulation.

    The result is, for each output element, the float64 sum of the
    products a[i, k] * b[k, j] added in increasing k, rounded to
    float32 once: the naive three-loop reference, bit for bit, on any
    BLAS that meets the assumption below.

    It is computed as a certified BLAS product. Products of float32
    values are exact in float64, so the BLAS sum r and the k-ordered sum
    s both lie within g * T of the exact sum, whatever order BLAS adds
    in (Higham, Accuracy and Stability of Numerical Algorithms, section
    3): T = sum_k |a[i, k] * b[k, j]|, g = gamma_{k-1} = x / (1 - x),
    x = (k - 1) * u and u = 2**-53. BLAS's |A| @ |B| is a T_hat >=
    (1 - g) * T. With tol = 2 * (k + 1) * u * (1 + 8 * k * u) * T_hat,
    the rounded bounds lo = fl(r - tol) and hi = fl(r + tol) satisfy
    lo <= r - 2*g*T and hi >= r + 2*g*T, so lo <= s <= hi: the margin
    covers the rounding of T_hat, of tol and of both bounds for any
    k < 2**48. Rounding to float32 is monotone, so where lo and hi
    round to the same float32 bits, s rounds to them too. That holds
    at a tie, at the overflow edge and for the sign of a zero: +0.0
    from lo means s >= 0, and a k-ordered sum that starts from +0.0 is
    never -0.0; -0.0 from hi means s < 0, as tol >= +0.0 keeps hi from
    being -0.0. Every other element, a few per hundred thousand on the
    model's products, is recomputed by the k-ordered kernel.

    The one assumption is that BLAS's float64 dot products obey the
    standard error bound for some summation order, as OpenBLAS's
    blocked and FMA kernels do. Strassen-type algorithms do not.
    """
    am = as_matrix(a)
    bm = as_matrix(b)
    if am.shape[1] != bm.shape[0]:
        raise ValueError(
            f"matmul dimension mismatch: {am.shape} @ {bm.shape}"
        )
    a64 = am.astype(np.float64)
    b64 = bm.astype(np.float64)
    r = a64 @ b64
    tol = np.abs(a64, out=a64) @ np.abs(b64, out=b64)
    k = am.shape[1]
    tol *= (k + 1) * 2.0**-52 * (1 + k * 2.0**-50)
    out = np.empty(r.shape, dtype=np.float32)
    lo = np.empty(r.shape, dtype=np.float32)
    np.add(r, tol, out=out, casting="same_kind")
    np.subtract(r, tol, out=lo, casting="same_kind")
    flat = np.flatnonzero(out.view(np.int32) != lo.view(np.int32))
    if flat.size:
        ii, jj = np.divmod(flat, out.shape[1])
        out.ravel()[flat] = _k_ordered_sum(
            am[ii].T.astype(np.float64), bm[:, jj].astype(np.float64)
        )
    if not np.isfinite(out).all():
        raise FloatingPointError("matmul produced non-finite values")
    return out


def row_softmax(m) -> np.ndarray:
    """Row-wise softmax with max-subtraction stabilization.

    Works in float64 and rounds to float32 at the end. Output rows sum
    to 1 within 1e-6 and all entries are finite for finite input.
    """
    x = as_matrix(m).astype(np.float64)
    x -= x.max(axis=1, keepdims=True)
    e = np.exp(x)
    e /= e.sum(axis=1, keepdims=True)
    return e.astype(np.float32)


def row_neg_entropy(p) -> np.ndarray:
    """Per-row negative entropy sum_j p_ij * log(p_ij).

    Rows must be stochastic (entries >= 0, sum within 1e-5 of 1).
    Entries below 1e-12 contribute exactly zero. Results are clamped
    to [-log N, 0]; a one-hot row gives exactly 0 and a uniform row
    gives exactly -log N when N is a power of two.
    """
    pm = as_matrix(p)
    p64 = pm.astype(np.float64)
    if (p64 < 0.0).any():
        raise ValueError("row_neg_entropy requires non-negative entries")
    sums = p64.sum(axis=1)
    if not np.allclose(sums, 1.0, rtol=0.0, atol=STOCHASTIC_ATOL):
        worst = float(np.abs(sums - 1.0).max())
        raise ValueError(
            f"row_neg_entropy requires stochastic rows (max |sum-1| = {worst:g})"
        )
    n = pm.shape[1]
    terms = np.where(
        p64 > ENTROPY_EPS,
        p64 * np.log(np.maximum(p64, ENTROPY_EPS)),
        0.0,
    )
    vals = terms.sum(axis=1)
    return np.clip(vals, -np.log(float(n)), 0.0).astype(np.float64)


def cosine_matrix(a, b) -> np.ndarray:
    """(m, n) float64 cosine similarity of each row of ``a`` with each row of ``b``.

    Dots and norms are k-ordered float64 sums. An entry is 0.0 where
    either row's norm is below 1e-12.
    """
    a64 = np.asarray(a, dtype=np.float64)
    b64 = np.asarray(b, dtype=np.float64)
    if a64.ndim != 2 or b64.ndim != 2 or a64.shape[1] != b64.shape[1]:
        raise ValueError(f"cosine_matrix width mismatch: {a64.shape} vs {b64.shape}")
    at, bt = a64.T, b64.T
    dots = _k_ordered_sum(at[:, :, None], bt[:, None, :])
    na = np.sqrt(_k_ordered_sum(at, at))[:, None]
    nb = np.sqrt(_k_ordered_sum(bt, bt))[None, :]
    flat = (na < COSINE_NORM_EPS) | (nb < COSINE_NORM_EPS)
    return np.where(flat, 0.0, dots / np.where(flat, 1.0, na * nb))


def cosine_sim(u, v) -> float:
    """Cosine similarity of two 1-D vectors in float64.

    The one-pair case of ``cosine_matrix``: returns 0.0 if either
    vector has norm below 1e-12.
    """
    return float(cosine_matrix(np.reshape(u, (1, -1)), np.reshape(v, (1, -1)))[0, 0])


def make_rng(seed: int) -> np.random.Generator:
    """Seeded PCG64 generator; the single RNG entry point for the package."""
    return np.random.Generator(np.random.PCG64(seed))


def spawn_seeds(seed: int, n: int) -> list[int]:
    """Derive n independent child seeds from one root seed."""
    ss = np.random.SeedSequence(seed)
    return [int(s.generate_state(1)[0]) for s in ss.spawn(n)]
