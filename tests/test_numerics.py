import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal
from scipy.special import erf as scipy_erf

from oracles import cosine_matrix, k_ordered_sum
from vidtldr import numerics


def naive_matmul(a, b):
    """Reference triple loop, k innermost, float64 accumulator."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.float64)
    for i in range(a.shape[0]):
        for j in range(b.shape[1]):
            acc = 0.0
            for k in range(a.shape[1]):
                acc += a[i, k] * b[k, j]
            out[i, j] = acc
    return out.astype(np.float32)


def test_matmul_identity_exact():
    a = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32)
    assert_array_equal(numerics.matmul(np.eye(2), a), a)
    assert_array_equal(numerics.matmul(a, np.eye(2)), a)


def test_matmul_hand_case():
    out = numerics.matmul([[1.0, 2.0]], [[3.0], [4.0]])
    assert_array_equal(out, np.array([[11.0]], dtype=np.float32))


def test_matmul_equals_naive_oracle_exactly():
    rng = numerics.make_rng(7)
    for _ in range(20):
        m, k, n = rng.integers(1, 9, size=3)
        a = rng.normal(size=(m, k)).astype(np.float32)
        b = rng.normal(size=(k, n)).astype(np.float32)
        assert_array_equal(numerics.matmul(a, b), naive_matmul(a, b))


def test_matmul_fixed_shape_oracle():
    rng = numerics.make_rng(11)
    a = rng.normal(size=(7, 5)).astype(np.float32)
    b = rng.normal(size=(5, 3)).astype(np.float32)
    assert_array_equal(numerics.matmul(a, b), naive_matmul(a, b))


def test_matmul_shape_errors():
    with pytest.raises(ValueError):
        numerics.matmul(np.zeros((2, 3)), np.zeros((2, 3)))
    with pytest.raises(ValueError):
        numerics.matmul(np.zeros(3), np.zeros((3, 1)))


def test_matmul_rejects_nonfinite_result():
    big = np.full((1, 2), 3e38, dtype=np.float32)
    with np.errstate(over="ignore"):
        with pytest.raises(FloatingPointError):
            numerics.matmul(big, big.T)


def test_matmul_repeatable():
    rng = numerics.make_rng(3)
    a = rng.normal(size=(6, 6)).astype(np.float32)
    b = rng.normal(size=(6, 6)).astype(np.float32)
    assert_array_equal(numerics.matmul(a, b), numerics.matmul(a, b))


F32_MAX = float(np.finfo(np.float32).max)

# Each case is (a, b). The k-ordered float64 sums sit on or next to a
# float32 rounding midpoint, cancel, or round to a signed zero, so a
# BLAS sum in any other order can round differently.
ADVERSARIAL = {
    # 1 + 2**-24 is a float32 midpoint; ties-to-even gives 1.0.
    "midpoint": ([[1.0, 2.0**-24]], [[1.0], [1.0]]),
    "midpoint_negative": ([[-1.0, -(2.0**-24)]], [[1.0], [1.0]]),
    # One float64 ulp (2**-52 at 1.0) above and below that midpoint.
    "midpoint_ulp_above": ([[1.0, 2.0**-24, 2.0**-52]], [[1.0], [1.0], [1.0]]),
    "midpoint_ulp_below": ([[1.0, 2.0**-24, -(2.0**-52)]], [[1.0], [1.0], [1.0]]),
    # In k order each 2**-53 term vanishes (a float64 tie), leaving the
    # midpoint; summed in blocks they lift the sum above it.
    "order_decides_tie": ([[1.0] + [2.0**-53] * 14 + [2.0**-24]], np.ones((16, 3))),
    # In k order 2**60 absorbs every 1.5, then cancels: 0.0.
    "cancellation": ([[2.0**60] + [1.5] * 254 + [-(2.0**60)]] * 2, np.ones((256, 3))),
    # Products of zero and a negative value are -0.0; the sum is +0.0.
    "zero_row_negative_columns": ([[0.0, 0.0], [1.0, -1.0]], [[-1.0, -2.0], [-3.0, -4.0]]),
    # A tiny negative k-ordered sum rounds to float32 -0.0.
    "tiny_negative_sum": ([[2.0**-80, 0.0]], [[-(2.0**-80), 1.0], [1.0, 1.0]]),
    "cancels_to_tiny_negative": ([[2.0**-55, -(2.0**-55), -(2.0**-80)]],
                                 [[2.0**-55], [2.0**-55], [2.0**-80]]),
    # Just below the float32 overflow threshold 2**128 - 2**103.
    "overflow_edge": ([[F32_MAX, 2.0**102], [F32_MAX, -(2.0**103)]], [[1.0], [1.0]]),
}


@pytest.mark.parametrize("name", sorted(ADVERSARIAL))
def test_matmul_adversarial_bytes_equal_naive(name):
    a, b = ADVERSARIAL[name]
    assert numerics.matmul(a, b).tobytes() == naive_matmul(a, b).tobytes()


def test_matmul_fallback_runs_on_midpoint(monkeypatch):
    calls = []
    kernel = numerics._k_ordered_rows

    def spy(x, y):
        calls.append(x.shape)
        return kernel(x, y)

    monkeypatch.setattr(numerics, "_k_ordered_rows", spy)
    a, b = ADVERSARIAL["midpoint"]
    assert numerics.matmul(a, b).tobytes() == np.float32([[1.0]]).tobytes()
    assert calls == [(1, 2)]  # one element, k = 2


def _rows_block(rows):
    """(count, k) float32 block of the given rows, zero-padded to one k."""
    k = max(len(r) for r in rows)
    return np.array([list(r) + [0.0] * (k - len(r)) for r in rows], dtype=np.float32)


def test_k_ordered_rows_equals_reference_kernel():
    rng = numerics.make_rng(5)
    blocks = []
    for _ in range(20):
        count, k = rng.integers(1, 40), rng.integers(1, 400)
        x, y = rng.normal(size=(2, count, k)).astype(np.float32)
        blocks.append((x, y))
    x, y = rng.normal(size=(2, 7, 1)).astype(np.float32)
    blocks.append((x, y))  # k = 1
    blocks.append((np.float32([[-0.0], [0.0], [3.0]]), np.float32([[2.0], [-2.0], [-0.0]])))
    special = _rows_block([
        [0.0, 0.0, 0.0],  # times a negative row: all -0.0 products
        [2.0**60] + [1.5] * 254 + [-(2.0**60)],  # cancels to 0.0 in k order
        [1.0, 2.0**-24],  # float32 midpoint
        [1.0, 2.0**-24, 2.0**-52],
        [1.0, -(2.0**-24), -(2.0**-52)],
    ])
    other = np.ones_like(special)
    other[0] = -1.0
    blocks.append((special, other))
    for x, y in blocks:
        want = k_ordered_sum(x.T.astype(np.float64), y.T.astype(np.float64))
        assert numerics._k_ordered_rows(x, y).tobytes() == want.tobytes()


def test_matmul_all_fallback_memory_is_bounded():
    # Every element is the float32 midpoint 1 + 2**-24, so the
    # certificate rejects all 392 * 392 of them.
    a = np.zeros((392, 392), dtype=np.float32)
    a[:, 0] = 1.0
    a[:, 1] = 2.0**-24
    b = np.ones((392, 392), dtype=np.float32)
    tracemalloc.start()
    try:
        out = numerics.matmul(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.tobytes() == np.ones((392, 392), dtype=np.float32).tobytes()
    assert peak < 64 * 2**20


def test_matmul_overflow_edge_raises_like_naive():
    # 2**128 - 2**103 is the float32 midpoint between the largest float
    # and 2**128; ties-to-even rounds it to infinity.
    a, b = [[F32_MAX, 2.0**103]], [[1.0], [1.0]]
    with np.errstate(over="ignore"):
        assert np.isinf(naive_matmul(a, b)).all()
        with pytest.raises(FloatingPointError):
            numerics.matmul(a, b)


def _vectorized_k_loop(a, b):
    """Float64 accumulation of whole outer products, in increasing k."""
    a64 = np.asarray(a, dtype=np.float64)
    b64 = np.asarray(b, dtype=np.float64)
    acc = np.zeros((a64.shape[0], b64.shape[1]))
    for k in range(a64.shape[1]):
        acc += a64[:, k, None] * b64[None, k, :]
    return acc.astype(np.float32)


@pytest.mark.parametrize("m,k,n", [(392, 1536, 128), (392, 392, 392)])
def test_matmul_model_shapes_equal_k_loop(m, k, n):
    rng = numerics.make_rng(m + k + n)
    a = rng.normal(size=(m, k)).astype(np.float32)
    b = rng.normal(size=(k, n)).astype(np.float32)
    # Integer rows and columns give exact sums wider than 24 bits, many
    # of them float32 ties, which the certificate must leave to the loop.
    a[::10] = rng.integers(-4096, 4097, size=a[::10].shape)
    b[:, ::10] = rng.integers(-4096, 4097, size=b[:, ::10].shape)
    assert numerics.matmul(a, b).tobytes() == _vectorized_k_loop(a, b).tobytes()


def _values(rng, kind, k):
    """k float32 values of one kind, for a row of A or a column of B."""
    if kind == "gauss":
        v = rng.normal(size=k)
    elif kind == "scaled":  # 2**-60..2**60, and a +-2**60 pair that cancels
        v = rng.normal(size=k) * 2.0 ** (60 * rng.integers(-1, 2, size=k))
        v[rng.permutation(k)[:2]] = [2.0**60, -(2.0**60)][: min(k, 2)]
    elif kind == "ints":  # exact sums wider than 24 bits: float32 ties
        v = rng.integers(-4096, 4097, size=k)
    elif kind == "ones":
        v = np.ones(k)
    elif kind == "tie":  # 1 + 2**-24 in k order; more if summed in blocks
        v = np.full(k, 2.0**-53)
        v[:2] = [1.0, 2.0**-24][:k]
    elif kind == "sparse":  # zeros of either sign: all-zero products
        v = rng.integers(-3, 4, size=k) * rng.integers(0, 2, size=k) * rng.choice([-1.0, 1.0], size=k)
    elif kind == "zero":
        v = np.zeros(k)
    else:
        v = np.full(k, -0.0)
    return v.astype(np.float32)


KINDS = ["gauss", "scaled", "ints", "ones", "tie", "sparse", "zero", "negzero"]


@settings(max_examples=200, deadline=None)
@given(
    m=st.integers(0, 24),
    n=st.integers(0, 24),
    k=st.integers(0, 64),
    seed=st.integers(0, 2**32 - 1),
    kinds=st.lists(st.sampled_from(KINDS), min_size=48, max_size=48),
)
@example(m=3, n=2, k=0, seed=0, kinds=KINDS * 6)
@example(m=3, n=2, k=1, seed=0, kinds=["negzero", "gauss", "zero"] * 16)
@example(m=4, n=4, k=2, seed=0, kinds=["sparse"] * 48)  # all -0.0 products
@example(m=2, n=2, k=16, seed=0, kinds=["tie", "scaled"] + ["ones"] * 46)
def test_matmul_property_equals_k_loop(m, n, k, seed, kinds):
    # kinds[i] draws row i of A and kinds[24 + j] column j of B.
    rng = numerics.make_rng(seed)
    a = np.zeros((m, k), dtype=np.float32)
    b = np.zeros((k, n), dtype=np.float32)
    for i in range(m):
        a[i] = _values(rng, kinds[i], k)
    for j in range(n):
        b[:, j] = _values(rng, kinds[24 + j], k)
    with np.errstate(over="ignore"):
        want = _vectorized_k_loop(a, b)
        if np.isfinite(want).all():
            assert numerics.matmul(a, b).tobytes() == want.tobytes()
        else:
            with pytest.raises(FloatingPointError):
                numerics.matmul(a, b)


def test_row_softmax_symmetry():
    out = numerics.row_softmax([[0.0, 0.0, 0.0]])
    assert_allclose(out, np.full((1, 3), 1.0 / 3.0), rtol=0, atol=1e-7)


def test_row_softmax_large_spread_no_overflow():
    out = numerics.row_softmax([[1000.0, 0.0]])
    assert np.isfinite(out).all()
    assert_allclose(out, [[1.0, 0.0]], rtol=0, atol=1e-6)


def test_row_softmax_matches_float64_reference():
    row = np.array([1.0, 2.0, 3.0], dtype=np.float64)
    ref = np.exp(row - row.max())
    ref /= ref.sum()
    out = numerics.row_softmax(row[None, :])
    assert_allclose(out[0], ref, rtol=0, atol=1e-7)


def test_row_softmax_rows_sum_to_one():
    rng = numerics.make_rng(5)
    for _ in range(10):
        x = rng.normal(scale=500.0, size=(8, 12)).astype(np.float32)
        out = numerics.row_softmax(x)
        assert_allclose(out.sum(axis=1), 1.0, rtol=0, atol=1e-6)


def test_row_neg_entropy_uniform_row():
    for n in (2, 4, 8, 16):
        out = numerics.row_neg_entropy(np.full((1, n), 1.0 / n))
        assert out[0] == pytest.approx(-math.log(n), abs=1e-12)


def test_row_neg_entropy_one_hot_exact():
    row = np.zeros((1, 6), dtype=np.float32)
    row[0, 2] = 1.0
    assert numerics.row_neg_entropy(row)[0] == 0.0


def test_row_neg_entropy_hand_value():
    out = numerics.row_neg_entropy([[0.5, 0.25, 0.25]])
    assert out[0] == pytest.approx(-1.0397, abs=1e-4)


def test_row_neg_entropy_rejects_nonstochastic():
    with pytest.raises(ValueError):
        numerics.row_neg_entropy([[0.5, 0.6]])
    with pytest.raises(ValueError):
        numerics.row_neg_entropy([[1.2, -0.2]])


def test_row_neg_entropy_range():
    rng = numerics.make_rng(13)
    for _ in range(20):
        p = numerics.row_softmax(rng.normal(size=(5, 9)).astype(np.float32))
        h = numerics.row_neg_entropy(p)
        assert (h <= 0.0).all()
        assert (h >= -math.log(9.0)).all()


def test_cosine_sim_basics():
    v = np.array([0.3, -1.2, 4.0])
    assert numerics.cosine_sim(v, v) == pytest.approx(1.0, abs=1e-12)
    assert numerics.cosine_sim([1.0, 0.0], [0.0, 1.0]) == 0.0
    assert numerics.cosine_sim([1.0, 2.0], [2.0, 1.0]) == pytest.approx(0.8, abs=1e-6)


def test_cosine_sim_zero_norm():
    assert numerics.cosine_sim([0.0, 0.0], [1.0, 2.0]) == 0.0
    assert numerics.cosine_sim([1.0, 2.0], [0.0, 0.0]) == 0.0


def test_cosine_sim_length_mismatch():
    with pytest.raises(ValueError):
        numerics.cosine_sim([1.0], [1.0, 2.0])


def naive_cosine(u, v):
    """Reference cosine: plain Python loops over k, float64 throughout."""
    dot = nu2 = nv2 = 0.0
    for a, b in zip(u.tolist(), v.tolist()):
        dot += a * b
        nu2 += a * a
        nv2 += b * b
    nu, nv = math.sqrt(nu2), math.sqrt(nv2)
    if nu < numerics.COSINE_NORM_EPS or nv < numerics.COSINE_NORM_EPS:
        return 0.0
    return dot / (nu * nv)


def test_cosine_matrix_equals_naive_oracle_exactly():
    rng = numerics.make_rng(29)
    for _ in range(10):
        m, n = rng.integers(1, 8, size=2)
        k = rng.integers(1, 130)  # up to the widest keys the benchmark matches
        a = rng.normal(size=(m, k)).astype(np.float32)
        b = rng.normal(size=(n, k)).astype(np.float32)
        a[0] = 0.0  # zero-norm rows give exactly 0.0
        b[-1] = 0.0
        got = cosine_matrix(a, b)
        a64, b64 = a.astype(np.float64), b.astype(np.float64)
        expect = np.array([[naive_cosine(u, v) for v in b64] for u in a64])
        assert got.dtype == np.float64
        assert_array_equal(got, expect)


def test_cosine_matrix_width_mismatch():
    with pytest.raises(ValueError):
        cosine_matrix(np.ones((2, 3)), np.ones((2, 4)))
    with pytest.raises(ValueError):
        cosine_matrix(np.ones(3), np.ones((2, 3)))


def _cos_row(rng, kind, k, prev):
    """One float32 key row of a kind; the twins are prev times 2**40 or 2**-40."""
    if kind == "gauss":
        v = rng.normal(size=k)
    elif kind == "ints":  # small integers: many exactly equal cosines
        v = rng.integers(-3, 4, size=k)
    elif kind == "signed_zeros":
        v = rng.integers(-2, 3, size=k) * rng.integers(0, 2, size=k) * rng.choice([-1.0, 1.0], size=k)
    elif kind == "zero":
        v = np.zeros(k)
    elif kind == "negzero":
        v = np.full(k, -0.0)
    elif kind == "tiny":  # norms near COSINE_NORM_EPS
        v = rng.normal(size=k) * 2.0**-40
    elif kind == "twin_up":  # equal cosines at another magnitude
        v = prev * 2.0**40
    else:
        v = prev * 2.0**-40
    return np.asarray(v, dtype=np.float32)


COS_KINDS = ["gauss", "ints", "signed_zeros", "zero", "negzero", "tiny", "twin_up", "twin_down"]


@settings(max_examples=300, deadline=None)
@given(
    m=st.integers(0, 12),
    n=st.integers(1, 12),
    k=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
    kinds=st.lists(st.sampled_from(COS_KINDS), min_size=8, max_size=8),
    pick=st.lists(st.integers(0, 7), min_size=24, max_size=24),
)
@example(m=12, n=12, k=16, seed=0, kinds=["gauss"] * 8, pick=[0] * 24)  # all identical
@example(m=5, n=7, k=1, seed=1, kinds=COS_KINDS, pick=list(range(8)) * 3)  # k = 1
@example(m=4, n=4, k=8, seed=2, kinds=["zero", "negzero", "gauss", "twin_up"] * 2, pick=[0, 1, 2, 3] * 6)
# Row 3 ties an orthogonal destination with a zero one; its best is the
# zero one, whose interval is a single point.
@example(m=4, n=5, k=5, seed=0, kinds=["ints", "ints", "signed_zeros"] + ["zero"] * 4 + ["ints"],
         pick=[0, 0, 0, 1] + [0] * 11 + [7, 3] + [0] * 7)
def test_cosine_argmax_property_equals_reference(m, n, k, seed, kinds, pick):
    # Rows are drawn from a pool of eight, so both sides repeat rows.
    rng = numerics.make_rng(seed)
    pool, base = [], np.ones(k, dtype=np.float32)
    for kind in kinds:
        pool.append(_cos_row(rng, kind, k, base))
        if not kind.startswith("twin"):
            base = pool[-1]
    pool = np.stack(pool)
    a, b = pool[pick[:m]].reshape(m, k), pool[pick[12:12 + n]]
    sims = cosine_matrix(a, b)
    want = np.argmax(sims, axis=1)
    j, v = numerics.cosine_argmax(a, b)
    assert_array_equal(j, want)
    assert v.tobytes() == sims[np.arange(m), want].tobytes()
    for i in range(min(m, n)):
        assert np.float64(numerics.cosine_sim(a[i], b[i])).tobytes() == sims[i, i].tobytes()


def test_cosine_argmax_identical_keys_take_exact_path(monkeypatch):
    # Every cosine of identical keys ties, so no row can be certified
    # and every entry must be computed in k order.
    pairs = []
    cosines = numerics._cosines

    def spy(a, b, na, nb, ii, jj):
        pairs.append(ii.shape[0])
        return cosines(a, b, na, nb, ii, jj)

    monkeypatch.setattr(numerics, "_cosines", spy)
    row = numerics.make_rng(3).normal(size=(1, 128)).astype(np.float32)
    keys = np.repeat(row, 196, axis=0)
    j, v = numerics.cosine_argmax(keys, keys)
    assert pairs == [196 * 196, 196]  # every entry, then each row's value
    sims = cosine_matrix(keys, keys)
    assert_array_equal(j, np.zeros(196))
    assert v.tobytes() == sims[:, 0].tobytes()


def test_cosine_argmax_blas_order_never_decides():
    # In k order 2**60 absorbs every 1.5 and then cancels, so the second
    # destination's cosine is exactly 0.0 and ties the orthogonal first
    # one; a BLAS sum in another order leaves it positive.
    u = np.float32([[2.0**60] + [1.5] * 254 + [-(2.0**60)]])
    ortho = np.zeros(256, dtype=np.float32)
    ortho[1:3] = [1.0, -1.0]
    b = np.stack([ortho, np.ones(256, dtype=np.float32)])
    sims = cosine_matrix(u, b)
    assert sims.tolist() == [[0.0, 0.0]]
    j, v = numerics.cosine_argmax(u, b)
    assert j.tolist() == [0] and v.tobytes() == np.float64([0.0]).tobytes()


def test_cosine_argmax_width_mismatch():
    with pytest.raises(ValueError):
        numerics.cosine_argmax(np.ones((2, 3)), np.ones((2, 4)))


def test_make_rng_reproducible():
    a = numerics.make_rng(42).normal(size=5)
    b = numerics.make_rng(42).normal(size=5)
    assert_array_equal(a, b)


def test_spawn_seeds_stable_and_distinct():
    s1 = numerics.spawn_seeds(9, 4)
    s2 = numerics.spawn_seeds(9, 4)
    assert s1 == s2
    assert len(set(s1)) == 4
    assert numerics.spawn_seeds(10, 4) != s1


def test_as_matrix_coercion():
    m = numerics.as_matrix([[1, 2], [3, 4]])
    assert m.dtype == np.float32
    assert m.flags.c_contiguous
    with pytest.raises(ValueError):
        numerics.as_matrix(np.zeros((2, 2, 2)))


# erf's branch points: |t| = 1 (series to erfc), 8 (P/Q to R/S) and
# sqrt(MAXLOG) (erfc underflows to 0).
ERF_EDGES = (1.0, 8.0, math.sqrt(7.09782712893383996843e2))


def _erf_oracle_inputs():
    # A strided sweep over every float32 exponent and sign, as gelu sees it.
    bits = np.arange(0, 2**32, 4093, dtype=np.uint64).astype(np.uint32)
    with np.errstate(invalid="ignore"):  # signalling NaNs
        sweep = bits.view(np.float32).astype(np.float64) / math.sqrt(2.0)
    yield "float32 sweep", sweep
    # 2,000 ulps either side of each branch point, both signs.
    ulps = np.arange(-2000, 2001)
    for edge in ERF_EDGES:
        grid = (np.float64(edge).view(np.int64) + ulps).view(np.float64)
        yield f"ulps around {edge}", np.concatenate([grid, -grid])
    # Where numpy's np.exp and the C library's exp part ways.
    draws = numerics.make_rng(15).uniform(1.0, 8.0, 100_000)
    yield "1 < |t| < 8", np.concatenate([draws, -draws])
    subnormal = np.float64(5e-324)
    yield "specials", np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, subnormal,
                                -subnormal, 2.2e-308, -2.2e-308, 1e300, -1e300])


def test_erf_bits_equal_scipy():
    for name, t in _erf_oracle_inputs():
        got = numerics.erf(t)
        assert got.dtype == np.float64 and got.shape == t.shape
        bad = np.flatnonzero(got.view(np.int64) != scipy_erf(t).view(np.int64))
        assert bad.size == 0, f"{name}: {bad.size} mismatches, first at t = {t[bad[0]]!r}"


def test_erf_keeps_the_input_shape():
    t = numerics.make_rng(3).normal(0.0, 2.0, size=(3, 4, 5))
    assert numerics.erf(t).tobytes() == scipy_erf(t).tobytes()
    assert numerics.erf(np.float64(0.5)).shape == ()
    assert numerics.erf(np.empty((0, 3))).shape == (0, 3)
