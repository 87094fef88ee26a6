"""Deterministic numerics kernel.

Every routine in this module is bit-reproducible: same inputs give the
same outputs on every call in a process and across runs on the same
platform. Matrices are stored as float32 and reductions accumulate in
float64.

The reference accumulator is the k-ordered sum: a float64 sum that
starts from +0.0 and adds the products of each k in increasing k.
``_k_ordered_rows`` gives its bits for row pairs, as a sequential
``np.add.accumulate``; every norm, and every dot product that no
certificate covers, comes from it. ``matmul`` returns, bit for bit,
what the reference (and so the naive triple loop) gives, but computes
it as a certified float64 BLAS product: one GEMM, plus row norms of A
and column norms of B that bound its error, proves that BLAS's result,
rounded to float32, equals the k-ordered one. The elements the bound
cannot certify, about 1 per 10k on the model's large products, are
recomputed in fixed-size blocks.

The reference cosine of two rows is their k-ordered dot divided by the
product of their norms, each the square root of a k-ordered sum of
squares, and 0.0 where either norm is below COSINE_NORM_EPS.
``cosine_argmax`` uses ``matmul``'s bound to find each row's best
match under the reference cosines from one GEMM, computing exact dots
only for the candidates the bound cannot separate. Both assume only
that BLAS's float64 dot products obey the standard summation error
bound in some order, which holds for blocked and FMA kernels but not
for Strassen-type algorithms. ``cosine_sim`` is the reference cosine
of one pair. The tests hold both references as plain loops
(``k_ordered_sum`` and ``cosine_matrix`` in ``tests/oracles.py``) and
check these kernels against them bit for bit.

``row_softmax`` and ``row_neg_entropy`` use numpy's pairwise row sums.
``erf`` is Cephes' erf, so ``scipy.special.erf``, bit for bit, from
numpy's basic operations, which round alike on every SIMD path; it
assumes only that ``math.exp`` is the C library's exp, the one Cephes
calls.
"""

from __future__ import annotations

import math

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

# Cephes ndtr.c's coefficients, highest degree first: erf on |t| <= 1
# is t * T(t*t) / U(t*t); erfc is exp(-x*x) * P(x) / Q(x) on 1 < x < 8
# and exp(-x*x) * R(x) / S(x) from 8 up. U, Q and S have an implicit
# leading 1.
_ERF_T = (9.60497373987051638749E0, 9.00260197203842689217E1, 2.23200534594684319226E3,
          7.00332514112805075473E3, 5.55923013010394962768E4)
_ERF_U = (3.35617141647503099647E1, 5.21357949780152679795E2, 4.59432382970980127987E3,
          2.26290000613890934246E4, 4.92673942608635921086E4)
_ERFC_P = (2.46196981473530512524E-10, 5.64189564831068821977E-1, 7.46321056442269912687E0,
           4.86371970985681366614E1, 1.96520832956077098242E2, 5.26445194995477358631E2,
           9.34528527171957607540E2, 1.02755188689515710272E3, 5.57535335369399327526E2)
_ERFC_Q = (1.32281951154744992508E1, 8.67072140885989742329E1, 3.54937778887819891062E2,
           9.75708501743205489753E2, 1.82390916687909736289E3, 2.24633760818710981792E3,
           1.65666309194161350182E3, 5.57535340817727675546E2)
_ERFC_R = (5.64189583547755073984E-1, 1.27536670759978104416E0, 5.01905042251180477414E0,
           6.16021097993053585195E0, 7.40974269950448939160E0, 2.97886665372100240670E0)
_ERFC_S = (2.26052863220117276590E0, 9.39603524938001434673E0, 1.20489539808096656605E1,
           1.70814450747565897222E1, 9.60896809063285307009E0, 3.36907645100081516050E0)
# erfc is 0 where -x*x < -MAXLOG, the log of the largest float64.
_MAXLOG = 7.09782712893383996843E2


def as_matrix(a) -> np.ndarray:
    """Coerce input to a 2-D float32 C-contiguous array."""
    m = np.ascontiguousarray(a, dtype=np.float32)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={m.ndim}")
    return m


def _k_ordered_rows(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Float64 sum of each row of the products x * y, in increasing column.

    Bit-identical to the k-ordered sum of each row pair: numpy documents
    ``np.add.accumulate`` as sequential, r[k] = r[k - 1] + p[k]. It
    starts from p[0] where the reference starts from +0.0. That differs
    only on a row of -0.0 products, which accumulates to -0.0 where the
    reference gives +0.0; the final + 0.0 mends that row and leaves
    every other sum as it is. An empty row sums to +0.0.
    """
    p = np.multiply(x, y, dtype=np.float64)
    if p.shape[1] == 0:
        return np.zeros(p.shape[0])
    return np.add.accumulate(p, axis=1, out=p)[:, -1] + 0.0


def _k_ordered_dots(x: np.ndarray, y: np.ndarray, ii: np.ndarray, jj: np.ndarray) -> np.ndarray:
    """``_k_ordered_rows`` of rows x[ii] and y[jj], FALLBACK_BLOCK products
    at a time, which bounds its memory however many pairs it is given."""
    out = np.empty(ii.shape[0], dtype=np.float64)
    step = max(1, FALLBACK_BLOCK // max(x.shape[1], 1))
    for start in range(0, ii.shape[0], step):
        block = slice(start, start + step)
        out[block] = _k_ordered_rows(x[ii[block]], y[jj[block]])
    return out


def _norms(x: np.ndarray) -> np.ndarray:
    """Float64 2-norm of each row, the root of its k-ordered sum of squares."""
    return np.sqrt(_k_ordered_rows(x, x))


def _error_scale(k: int) -> float:
    """c = 2 * (k + 1) * u * (1 + 16 * k * u), u = 2**-53: see ``matmul``."""
    return (k + 1) * 2.0**-52 * (1 + k * 2.0**-49)


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

    T is bounded without a second GEMM. By Cauchy-Schwarz,
    T <= na * nb <= na * max nb, the 2-norms of row i of A, of column j
    of B and the largest column norm of B. Their squares are exact in
    float64, and a sum of them in any order obeys the same bound, so
    each computed norm is at least its true value times sqrt(1 - g) *
    (1 - u), the last factor for the square root; taking the maximum is
    exact. tol multiplies na and max nb with c = 2 * (k + 1) * u *
    (1 + 16 * k * u), which is itself rounded twice. So tol >= c *
    (1 - g) * (1 - u)**6 * T, which is >= 2 * g * T for any k < 2**48.
    Every value on the way is zero or a normal float64, as float32
    magnitudes lie in [2**-149, 2**128). Hence r - tol <= s <= r + tol,
    and as s is a float64 the bounds lo = fl(r - tol) and hi =
    fl(r + tol) keep lo <= s <= hi. Rounding to float32 is monotone, so
    where lo and hi round to the same float32 bits, s rounds to them
    too. That holds at a tie, at the overflow edge and for the sign of
    a zero: +0.0 from lo means s >= 0, and a k-ordered sum that starts
    from +0.0 is never -0.0; -0.0 from hi means s < 0, as tol >= +0.0
    keeps hi from being -0.0. Every other element, about 1 per 10k on
    the model's large products, is recomputed by ``_k_ordered_rows``.
    tol is one value per row, so no (m, n) float64 array but r is made.

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
    nb_max = np.sqrt(np.einsum("kj,kj->j", b64, b64)).max(initial=0.0)
    tol = (np.sqrt(np.einsum("ik,ik->i", a64, a64)) * _error_scale(am.shape[1]) * nb_max)[:, None]
    del a64, b64  # the fallback reads am and bm
    out = np.empty(r.shape, dtype=np.float32)
    lo = np.empty(r.shape, dtype=np.float32)
    np.add(r, tol, out=out, casting="same_kind")
    np.subtract(r, tol, out=lo, casting="same_kind")
    flat = np.flatnonzero(out.view(np.int32) != lo.view(np.int32))
    ii, jj = np.divmod(flat, out.shape[1])
    out.ravel()[flat] = _k_ordered_dots(am, bm.T, ii, jj)
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


def require_stochastic_rows(m: np.ndarray, name: str) -> None:
    """Raise ValueError for ``name`` unless the 2-D ``m`` has entries >= 0
    and float64 row sums within STOCHASTIC_ATOL of 1."""
    m64 = np.asarray(m, dtype=np.float64)
    sums = m64.sum(axis=1)
    if (m64 < 0.0).any() or not np.allclose(sums, 1.0, rtol=0.0, atol=STOCHASTIC_ATOL):
        worst = float(np.abs(sums - 1.0).max())
        raise ValueError(f"{name} requires row-stochastic input (max |sum-1| = {worst:g})")


def row_neg_entropy(p) -> np.ndarray:
    """Per-row negative entropy sum_j p_ij * log(p_ij).

    Rows must pass require_stochastic_rows.
    Entries below 1e-12 contribute exactly zero. Results are clamped
    to [-log N, 0]; a one-hot row gives exactly 0 and a uniform row
    gives exactly -log N when N is a power of two.
    """
    pm = as_matrix(p)
    p64 = pm.astype(np.float64)
    require_stochastic_rows(p64, "row_neg_entropy")
    n = pm.shape[1]
    terms = np.where(
        p64 > ENTROPY_EPS,
        p64 * np.log(np.maximum(p64, ENTROPY_EPS)),
        0.0,
    )
    vals = terms.sum(axis=1)
    return np.clip(vals, -np.log(float(n)), 0.0).astype(np.float64)


def _polevl(x: np.ndarray, coef: tuple) -> np.ndarray:
    """Cephes polevl: p = coef[0], then p = p * x + c for each later c."""
    p = x * coef[0]
    p += coef[1]
    for c in coef[2:]:
        p *= x
        p += c
    return p


def _p1evl(x: np.ndarray, coef: tuple) -> np.ndarray:
    """Cephes p1evl: ``_polevl`` with an implicit leading coefficient 1."""
    p = x + coef[0]
    for c in coef[1:]:
        p *= x
        p += c
    return p


def _erf_far(t: np.ndarray) -> np.ndarray:
    """erf(t) for 1-D t with |t| > 1 or NaN: 1 - erfc(|t|), negated where
    t < 0, and the quiet NaN 0x7ff8000000000000 where t is NaN, as Cephes
    returns."""
    x = np.abs(t)
    z = -x * x
    under = z < -_MAXLOG
    live = np.flatnonzero(~under)
    e = np.zeros_like(x)
    e[live] = [math.exp(v) for v in z[live].tolist()]
    near = x < 8.0
    y = e * np.where(near, _polevl(x, _ERFC_P), _polevl(x, _ERFC_R))
    y /= np.where(near, _p1evl(x, _ERFC_Q), _p1evl(x, _ERFC_S))
    y[under] = 0.0
    y = 1.0 - y
    return np.where(np.isnan(t), np.nan, np.where(t < 0.0, -y, y))


def erf(t) -> np.ndarray:
    """The error function of float64 ``t``, any shape, bit for bit as
    Cephes' ``erf`` (``scipy.special.erf``) computes it.

    On |t| <= 1 it is t * T(z) / U(z) with z = t * t. Elsewhere it is
    1 - erfc(x), x = |t|, negated for t < 0, where erfc(x) is
    exp(-x * x) * P(x) / Q(x) below 8, the same with R / S from 8 up,
    and 0 where -x * x < -MAXLOG. The polynomials run in Cephes' Horner
    order, one numpy multiply and one add per step, and every operation
    keeps Cephes' order. These are IEEE basic operations, which give
    the same bits on every SIMD path. NaN gives NaN, +-inf gives +-1 and
    -0.0 gives -0.0. The one assumption is that ``math.exp``, applied
    per element, is the C library's exp, the function Cephes calls;
    numpy's own ``np.exp`` differs in the last bit on about 1 input in
    200 there. No GELU input at the model's scales reaches that branch.
    """
    t = np.asarray(t, dtype=np.float64)
    x = t.ravel()
    with np.errstate(over="ignore", invalid="ignore"):
        z = x * x
        y = _polevl(z, _ERF_T)
        y *= x
        y /= _p1evl(z, _ERF_U)
        # fl(t * t) <= 1 exactly where |t| <= 1; NaN fails both tests.
        if not z.max(initial=0.0) <= 1.0:
            far = np.flatnonzero(~(z <= 1.0))
            y[far] = _erf_far(x[far])
    return y.reshape(t.shape)


def _cosines(a: np.ndarray, b: np.ndarray, na: np.ndarray, nb: np.ndarray,
             ii: np.ndarray, jj: np.ndarray) -> np.ndarray:
    """The reference cosines of row pairs (a[ii], b[jj]), bit for bit, given
    the rows' k-ordered norms ``na`` and ``nb``."""
    na, nb = na[ii], nb[jj]
    flat = (na < COSINE_NORM_EPS) | (nb < COSINE_NORM_EPS)
    return np.where(flat, 0.0, _k_ordered_dots(a, b, ii, jj) / np.where(flat, 1.0, na * nb))


def cosine_argmax(a, b) -> tuple[np.ndarray, np.ndarray]:
    """Each row's first argmax under the reference cosines and its value.

    With C the (m, n) matrix of reference cosines of each row of float32
    ``a`` (m, k) with each row of ``b`` (n, k), n >= 1 (the tests'
    ``cosine_matrix(a, b)``), returns (j, v): j[i] = np.argmax(C[i])
    and v[i] = C[i, j[i]], both bit for bit. All m * n dots come from
    one float64 BLAS GEMM; a dot is computed in k order only where the
    GEMM cannot decide the row.

    The bound is ``matmul``'s, per entry. The norms na[i] and nb[j] are
    the reference's k-ordered ones, so p = fl(na * nb) is its
    denominator. The k-ordered dot s and the BLAS dot r obey
    |s - r| <= 2 * g * T and T <= na * nb by Cauchy-Schwarz, so with
    tol = fl(fl(na * c) * nb), lo = fl(r - tol) <= s <= fl(r + tol) =
    hi, as ``matmul`` proves. Division by p > 0 is monotone, so the
    reference cosine fl(s / p) lies in [fl(lo / p), fl(hi / p)]. An
    entry with a norm below COSINE_NORM_EPS is exactly 0.0 in the
    reference and here. A row's interval with the highest lower end is
    its best; when that lower end lies above every other interval's
    upper end, each other entry is strictly smaller and the best is the
    first argmax. Every other row takes the first maximum of the exact
    cosines of the entries whose upper end reaches the best's lower
    end, among which the row's maximum lies: exact ties, as from
    duplicated keys, are always decided there, never by BLAS's bits.
    Each value v[i] is recomputed exactly, so it is the reference's.
    """
    am = as_matrix(a)
    bm = as_matrix(b)
    if am.shape[1] != bm.shape[1]:
        raise ValueError(f"cosine_argmax width mismatch: {am.shape} vs {bm.shape}")
    na = _norms(am)
    nb = _norms(bm)
    r = am.astype(np.float64) @ bm.T.astype(np.float64)
    tol = np.multiply.outer(na * _error_scale(am.shape[1]), nb)
    flat = np.logical_or.outer(na < COSINE_NORM_EPS, nb < COSINE_NORM_EPS)
    p = np.where(flat, 1.0, np.multiply.outer(na, nb))
    lo = np.where(flat, 0.0, (r - tol) / p)
    hi = np.where(flat, 0.0, (r + tol) / p)
    rows = np.arange(am.shape[0])
    best = np.argmax(lo, axis=1)
    reach = hi >= lo[rows, best][:, None]
    unsure = np.flatnonzero(reach.sum(axis=1) > 1)
    if unsure.size:
        ii, jj = np.nonzero(reach[unsure])
        exact = np.full((unsure.size, bm.shape[0]), -np.inf)
        exact[ii, jj] = _cosines(am, bm, na, nb, unsure[ii], jj)
        best[unsure] = np.argmax(exact, axis=1)
    return best, _cosines(am, bm, na, nb, rows, best)


def cosine_sim(u, v) -> float:
    """Cosine similarity of two 1-D vectors in float64.

    The reference cosine of one pair, bit for bit: returns 0.0 if
    either vector has norm below COSINE_NORM_EPS.
    """
    x = np.asarray(u, dtype=np.float64).reshape(1, -1)
    y = np.asarray(v, dtype=np.float64).reshape(1, -1)
    if x.shape != y.shape:
        raise ValueError(f"cosine_sim length mismatch: {x.shape[1]} vs {y.shape[1]}")
    zero = np.zeros(1, dtype=np.int64)
    return float(_cosines(x, y, _norms(x), _norms(y), zero, zero)[0])


def make_rng(seed: int) -> np.random.Generator:
    """Seeded PCG64 generator; the single RNG entry point for the package."""
    return np.random.Generator(np.random.PCG64(seed))


def spawn_seeds(seed: int, n: int) -> list[int]:
    """Derive n independent child seeds from one root seed."""
    ss = np.random.SeedSequence(seed)
    return [int(s.generate_state(1)[0]) for s in ss.spawn(n)]
