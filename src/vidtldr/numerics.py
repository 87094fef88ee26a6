"""Deterministic numerics kernel.

Every routine in this module is bit-reproducible: same inputs give the
same outputs on every call in a process and across runs on the same
platform. Matrices are stored as float32 and reductions accumulate in
float64.

``_k_ordered_sum`` is the reference accumulator: a float64 sum that
adds the products of each k in increasing k. ``matmul`` returns, bit
for bit, what that kernel (and so the naive triple loop) gives, but
computes it as a certified float64 BLAS product: one GEMM, plus row
norms of A and column norms of B that bound its error, proves that
BLAS's result, rounded to float32, equals the k-ordered one. The
elements the bound cannot certify, about 8 per 100k on the model's
large products, are recomputed in fixed-size blocks by
``_k_ordered_rows``, a sequential ``np.add.accumulate`` that gives the
reference kernel's bits. This assumes only that BLAS's float64 dot
products obey the standard summation error bound in some order, which
holds for blocked and FMA kernels but not for Strassen-type
algorithms. Each dot product and
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

# Products per block of matmul's fallback, which bounds its memory
# however many elements the certificate rejects.
FALLBACK_BLOCK = 2**16


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


def _k_ordered_rows(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Float64 sum of each row of the products x * y, in increasing column.

    Bit-identical to ``_k_ordered_sum(x.T, y.T)``: numpy documents
    ``np.add.accumulate`` as sequential, r[k] = r[k - 1] + p[k]. It
    starts from p[0] where the reference starts from +0.0. That differs
    only on a row of -0.0 products, which accumulates to -0.0 where the
    reference gives +0.0; the final + 0.0 mends that row and leaves
    every other sum as it is.
    """
    p = np.multiply(x, y, dtype=np.float64)
    return np.add.accumulate(p, axis=1, out=p)[:, -1] + 0.0


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
    x = (k - 1) * u and u = 2**-53. So |s - r| <= 2 * g * T.

    T is bounded without a second GEMM. By Cauchy-Schwarz, T <= na * nb,
    the 2-norms of row i of A and column j of B. Their squares are exact
    in float64, and a sum of them in any order obeys the same bound, so
    each computed norm is at least its true value times sqrt(1 - g) *
    (1 - u), the last factor for the square root. tol multiplies the
    two norms and c = 2 * (k + 1) * u * (1 + 16 * k * u), which is
    itself rounded twice. So tol >= c * (1 - g) * (1 - u)**6 * T, which
    is >= 2 * g * T for any k < 2**48. Every value on the way is zero
    or a normal float64, as float32 magnitudes lie in [2**-149, 2**128).
    Hence r - tol <= s <= r + tol, and as s is a float64 the bounds
    lo = fl(r - tol) and hi = fl(r + tol) keep lo <= s <= hi. Rounding
    to float32 is monotone, so where lo and hi round to the same
    float32 bits, s rounds to them too. That holds at a tie, at the
    overflow edge and for the sign of a zero: +0.0 from lo means s >= 0,
    and a k-ordered sum that starts from +0.0 is never -0.0; -0.0 from
    hi means s < 0, as tol >= +0.0 keeps hi from being -0.0. Every
    other element, about 8 per 100k on the model's large products, is
    recomputed by ``_k_ordered_rows``, FALLBACK_BLOCK products at a
    time.

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
    k = am.shape[1]
    c = (k + 1) * 2.0**-52 * (1 + k * 2.0**-49)
    na = np.sqrt(np.einsum("ik,ik->i", a64, a64)) * c
    nb = np.sqrt(np.einsum("kj,kj->j", b64, b64))
    tol = np.multiply.outer(na, nb)
    out = np.empty(r.shape, dtype=np.float32)
    lo = np.empty(r.shape, dtype=np.float32)
    np.add(r, tol, out=out, casting="same_kind")
    np.subtract(r, tol, out=lo, casting="same_kind")
    flat = np.flatnonzero(out.view(np.int32) != lo.view(np.int32))
    step = max(1, FALLBACK_BLOCK // max(k, 1))
    for start in range(0, flat.size, step):
        block = flat[start:start + step]
        ii, jj = np.divmod(block, out.shape[1])
        out.ravel()[block] = _k_ordered_rows(am[ii], bm.T[jj])
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
