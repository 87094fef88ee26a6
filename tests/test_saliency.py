import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from vidtldr import numerics, saliency


def random_stochastic(rng, n):
    return numerics.row_softmax(rng.normal(size=(n, n)).astype(np.float32))


def row_with_entropy(target, n):
    """Mixture (1-u)*one_hot + u*uniform whose entropy hits target.

    Entropy is continuous and monotone in u on [0, 1], so bisection
    converges; target must lie in [-log n, 0].
    """
    def ent(u):
        row = np.full(n, u / n)
        row[0] += 1.0 - u
        return float((row * np.log(row)).sum()), row

    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = (lo + hi) / 2.0
        h, _ = ent(mid)
        if h > target:
            lo = mid
        else:
            hi = mid
    return ent((lo + hi) / 2.0)[1]


def test_attentiveness_uniform_map():
    n = 6
    out = saliency.attentiveness(np.full((n, n), 1.0 / n))
    # the map is stored at float32, so 1/6 arrives rounded
    assert_allclose(out, np.full(n, 1.0 / n), rtol=0, atol=1e-7)


def test_attentiveness_identity_map():
    out = saliency.attentiveness(np.eye(5, dtype=np.float32))
    assert_allclose(out, np.full(5, 0.2), rtol=0, atol=1e-9)


def test_attentiveness_matches_column_mean_oracle():
    rng = numerics.make_rng(2)
    m = random_stochastic(rng, 5)
    expect = m.astype(np.float64).sum(axis=0) / 5.0
    assert_allclose(saliency.attentiveness(m), expect, rtol=0, atol=1e-6)


def test_attentiveness_rejects_bad_input():
    with pytest.raises(ValueError):
        saliency.attentiveness(np.zeros((3, 4), dtype=np.float32))
    with pytest.raises(ValueError):
        saliency.attentiveness(np.full((3, 3), 0.5, dtype=np.float32))


def test_rollout_last_layer_equals_attentiveness():
    rng = numerics.make_rng(3)
    maps = [random_stochastic(rng, 6) for _ in range(4)]
    table = saliency.attention_rollout(maps)
    assert table.shape == (4, 6)
    assert_array_equal(table[3], saliency.attentiveness(maps[3]))


def test_rollout_identity_maps():
    maps = [np.eye(4, dtype=np.float32)] * 3
    assert_allclose(
        saliency.attention_rollout(maps), np.full((3, 4), 0.25), rtol=0, atol=1e-9
    )


def test_rollout_matches_product_oracle():
    rng = numerics.make_rng(5)
    a, b = random_stochastic(rng, 4), random_stochastic(rng, 4)
    got = saliency.attention_rollout([a, b])[0]
    # later layer multiplies from the left
    prod = numerics.matmul(b, a)
    expect = prod.astype(np.float64).mean(axis=0)
    assert_allclose(got, expect, rtol=0, atol=1e-6)


def test_rollout_rows_equal_independent_chains():
    rng = numerics.make_rng(17)
    maps = [random_stochastic(rng, 7) for _ in range(5)]
    table = saliency.attention_rollout(maps)
    for l in range(len(maps)):
        prod = maps[-1]
        for m in reversed(maps[l:-1]):
            prod = numerics.matmul(prod, m)  # M_{L-1} ... M_l, left to right
        assert_array_equal(table[l], prod.astype(np.float64).mean(axis=0))


def test_rollout_input_validation():
    rng = numerics.make_rng(7)
    maps = [random_stochastic(rng, 4), random_stochastic(rng, 5)]
    with pytest.raises(ValueError):
        saliency.attention_rollout(maps)
    with pytest.raises(ValueError):
        saliency.attention_rollout([])


def test_sharpness_extremes():
    rng = numerics.make_rng(11)
    m = random_stochastic(rng, 8).astype(np.float64)
    m[0] = 0.0
    m[0, 3] = 1.0                  # one-hot: sharpest possible
    m[1] = 1.0 / 8.0               # uniform: flattest possible
    s = saliency.sharpness_saliency(m.astype(np.float32))
    assert s[0] == 1.0
    assert s[1] == 0.0
    assert ((s >= 0.0) & (s <= 1.0)).all()


def test_sharpness_known_entropy_levels():
    base = np.stack([
        row_with_entropy(0.0, 16),
        row_with_entropy(-0.5, 16),
        row_with_entropy(-1.0, 16),
        row_with_entropy(-2.0, 16),
    ])
    # duplicated rows leave the min-max anchors untouched
    rows = np.tile(base, (4, 1))
    s = saliency.sharpness_saliency(rows.astype(np.float32))
    assert_allclose(s, [1.0, 0.75, 0.5, 0.0] * 4, rtol=0, atol=1e-5)


def test_sharpness_degenerate_spread():
    n = 7
    s = saliency.sharpness_saliency(np.full((n, n), 1.0 / n))
    assert_array_equal(s, np.full(n, 0.5))


def test_sharpness_permutation_equivariance():
    rng = numerics.make_rng(13)
    m = random_stochastic(rng, 12)
    s = saliency.sharpness_saliency(m)
    for _ in range(20):
        perm = rng.permutation(12)
        sp = saliency.sharpness_saliency(m[perm][:, perm])
        assert_allclose(sp, s[perm], rtol=0, atol=1e-12)


def test_sharpness_orders_by_majorization():
    # row 0 strictly sharper than row 1, both sharper than uniform
    m = np.array([
        [0.90, 0.05, 0.03, 0.02],
        [0.40, 0.30, 0.20, 0.10],
        [0.25, 0.25, 0.25, 0.25],
        [0.70, 0.10, 0.10, 0.10],
    ], dtype=np.float32)
    s = saliency.sharpness_saliency(m)
    assert s[0] > s[3] > s[1] > s[2]


def test_background_mask_hand_case():
    mask, mean = saliency.background_mask([0.9, 0.8, 0.1, 0.2])
    assert mean == pytest.approx(0.5, abs=1e-12)
    assert_array_equal(mask, [True, True, False, False])


def test_background_mask_is_strict():
    mask, _ = saliency.background_mask([0.5, 0.5, 0.5])
    assert not mask.any()


def test_masked_saliency_hand_case():
    raw = np.array([0.9, 0.8, 0.1, 0.2])
    mask, mean = saliency.background_mask(raw)
    out = saliency.masked_saliency(raw, mask, mean)
    assert_allclose(out, [1.0, 0.75, 0.0, 0.0], rtol=0, atol=1e-12)


def test_masked_saliency_empty_mask_falls_back_to_ones():
    raw = np.array([0.5, 0.5, 0.5, 0.5])
    mask, mean = saliency.background_mask(raw)
    out = saliency.masked_saliency(raw, mask, mean)
    assert_array_equal(out, np.ones(4))


def test_masked_saliency_never_resurrects():
    rng = numerics.make_rng(17)
    for _ in range(20):
        scores = saliency.score_map(random_stochastic(rng, 10))
        zeroed = scores.masked == 0.0
        mask2, mean2 = saliency.background_mask(scores.masked)
        remasked = saliency.masked_saliency(scores.masked, mask2, mean2)
        assert (remasked[zeroed] == 0.0).all()


def test_score_map_invariants():
    rng = numerics.make_rng(19)
    for _ in range(10):
        scores = saliency.score_map(random_stochastic(rng, 9))
        assert scores.raw.min() == 0.0
        assert scores.raw.max() == 1.0
        assert (scores.masked[~scores.mask] == 0.0).all()
        if scores.mask.any():
            assert scores.masked.max() == pytest.approx(1.0, abs=1e-12)


def test_frame_score_ratio_uniform():
    frame_of = np.repeat(np.arange(4), 3)
    out = saliency.frame_score_ratio(np.ones(12), frame_of, 4)
    assert_allclose(out, np.full(4, 0.25), rtol=0, atol=1e-12)


def test_frame_score_ratio_concentrated():
    frame_of = np.repeat(np.arange(3), 2)
    scores = np.array([2.0, 1.0, 0.0, 0.0, 0.0, 0.0])
    assert_array_equal(
        saliency.frame_score_ratio(scores, frame_of, 3), [1.0, 0.0, 0.0]
    )


def test_frame_score_ratio_sums_to_one():
    rng = numerics.make_rng(23)
    frame_of = rng.integers(0, 5, size=40)
    out = saliency.frame_score_ratio(rng.uniform(size=40), frame_of, 5)
    assert out.sum() == pytest.approx(1.0, abs=1e-6)
    assert (out >= 0.0).all()


def test_frame_score_ratio_errors():
    with pytest.raises(ValueError):
        saliency.frame_score_ratio([1.0, -1.0], [0, 1], 2)
    with pytest.raises(ValueError):
        saliency.frame_score_ratio([0.0, 0.0], [0, 1], 2)
    with pytest.raises(ValueError):
        saliency.frame_score_ratio([1.0, 1.0], [0, 2], 2)
    with pytest.raises(ValueError):
        saliency.frame_score_ratio([1.0, 1.0, 1.0], [0, 1], 2)
