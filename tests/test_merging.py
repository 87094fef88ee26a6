import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from oracles import (
    cosine_matrix,
    oracle_groups,
    oracle_mass_update,
    oracle_match,
    oracle_merge,
)
from vidtldr import merging, numerics
from vidtldr.merging import MASS_EPS, TokenState


def random_state(rng, n, width=6):
    feats = rng.normal(size=(n, width)).astype(np.float32)
    state = merging.new_state(feats)
    # random positive masses, as if earlier layers already merged
    masses = rng.uniform(0.5, 3.0, size=n)
    return TokenState(state.features, masses, state.owner)


def parent_soft_match(keys, r):
    """soft_match as it was before cosine_argmax: the full cosine_matrix
    and np.argmax. The new one must give the same merge list, bit for
    bit."""
    k = numerics.as_matrix(keys)
    dst = np.arange(0, k.shape[0], 2)
    src = np.arange(1, k.shape[0], 2)
    sims = cosine_matrix(k[src], k[dst])
    j = np.argmax(sims, axis=1)
    scores = sims[np.arange(src.shape[0]), j]
    best = dst[j]
    chosen = np.lexsort((src, -scores))[:r]
    return tuple((int(src[i]), int(best[i]), float(scores[i])) for i in chosen)


def test_soft_match_even_positions_are_destinations():
    rng = numerics.make_rng(3)
    for n in range(2, 12):
        merges = merging.soft_match(rng.normal(size=(n, 3)).astype(np.float32), n // 2)
        assert sorted(s for s, _, _ in merges) == list(range(1, n, 2))
        assert all(d % 2 == 0 and d < n for _, d, _ in merges)


def test_soft_match_too_few_tokens():
    for n in (0, 1):
        with pytest.raises(ValueError, match="at least 2 tokens"):
            merging.soft_match(np.zeros((n, 2), dtype=np.float32), 0)


def test_soft_match_r_zero_identity():
    rng = numerics.make_rng(1)
    keys = rng.normal(size=(6, 4)).astype(np.float32)
    merges = merging.soft_match(keys, 0)
    assert merges == ()
    out = merging.tome_merge(merging.new_state(keys), merges)
    assert out.provenance == tuple((i,) for i in range(6))


def test_soft_match_duplicate_pairs():
    # two sources identical to two distinct destinations
    keys = np.array(
        [[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]], dtype=np.float32
    )
    merges = merging.soft_match(keys, 2)
    assert set((s, d) for s, d, _ in merges) == {(1, 0), (3, 2)}
    for _, _, sim in merges:
        assert sim == pytest.approx(1.0, abs=1e-12)


def test_soft_match_equals_exhaustive_oracle():
    rng = numerics.make_rng(17)
    for _ in range(60):
        n = int(rng.integers(2, 17))
        keys = rng.normal(size=(n, 5)).astype(np.float32)
        r = int(rng.integers(0, n // 2 + 1))
        merges = merging.soft_match(keys, r)
        expect = oracle_match(keys, r)
        assert len(merges) == r
        for (s, d, sim), (es, ed, esim) in zip(merges, expect):
            assert (s, d) == (es, ed)
            assert sim == pytest.approx(esim, abs=1e-12)


KEY_KINDS = ["gauss", "ints", "signed_zeros", "zero", "scaled", "copy"]


def _key_pool(rng, kinds, width):
    """Float32 key rows of the given kinds; a copy repeats the previous row,
    a scaled row is the last drawn one times 2**40 or 2**-40."""
    rows = [rng.normal(size=width)]
    base = rows[0]
    for kind in kinds:
        if kind == "gauss":
            v = rng.normal(size=width)
        elif kind == "ints":
            v = rng.integers(-2, 3, size=width)
        elif kind == "signed_zeros":
            v = rng.integers(-1, 2, size=width) * rng.integers(0, 2, size=width) * rng.choice([-1.0, 1.0], size=width)
        elif kind == "zero":
            v = np.zeros(width)
        elif kind == "scaled":
            v = base * 2.0 ** rng.choice([-40, 40])
        else:
            v = rows[-1]
        rows.append(np.asarray(v, dtype=np.float64))
        if kind not in ("scaled", "copy"):
            base = rows[-1]
    return np.array(rows, dtype=np.float32)


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(2, 40),
    width=st.integers(1, 24),
    seed=st.integers(0, 2**32 - 1),
    kinds=st.lists(st.sampled_from(KEY_KINDS), min_size=6, max_size=6),
    data=st.data(),
)
def test_soft_match_bytes_equal_parent(n, width, seed, kinds, data):
    rng = numerics.make_rng(seed)
    pool = _key_pool(rng, kinds, width)
    keys = pool[rng.integers(0, len(pool), size=n)]  # rows repeat on both sides
    if data.draw(st.booleans()):
        keys = np.round(keys * 4)  # integer keys
    r = data.draw(st.integers(0, n // 2))
    got, want = merging.soft_match(keys, r), parent_soft_match(keys, r)
    assert [(s, d) for s, d, _ in got] == [(s, d) for s, d, _ in want]
    assert np.float64([v for *_, v in got]).tobytes() == np.float64([v for *_, v in want]).tobytes()


def test_soft_match_score_tie_prefers_lower_src():
    # both sources score 1.0 against dst 0; only one may merge
    keys = np.array([[2.0, 0.0], [1.0, 0.0], [0.0, 5.0], [1.0, 0.0]], dtype=np.float32)
    assert merging.soft_match(keys, 1)[0][:2] == (1, 0)


def test_soft_match_dst_tie_prefers_lower_dst():
    # src 1 is equally similar to dst 0 and dst 2
    keys = np.array([[1.0, 0.0], [1.0, 0.0], [1.0, 0.0], [0.0, 1.0]], dtype=np.float32)
    assert merging.soft_match(keys, 1)[0][:2] == (1, 0)


def test_soft_match_rejects_bad_r():
    keys = np.zeros((4, 2), dtype=np.float32)
    with pytest.raises(ValueError):
        merging.soft_match(keys, 3)
    with pytest.raises(ValueError):
        merging.soft_match(keys, -1)


def test_match_bookkeeping_counts():
    rng = numerics.make_rng(29)
    for _ in range(20):
        n = int(rng.integers(2, 17))
        r = int(rng.integers(0, n // 2 + 1))
        keys = rng.normal(size=(n, 3)).astype(np.float32)
        merges = merging.soft_match(keys, r)
        groups = oracle_groups(n, merges)
        assert len(groups) == n - r
        covered = sorted(i for g in groups for i in g)
        assert covered == list(range(n))
        out = merging.tome_merge(merging.new_state(keys), merges)
        assert out.provenance == tuple(tuple(sorted(g)) for g in groups)


def test_tome_merge_plain_average():
    state = merging.new_state(np.array([[2.0, 0.0], [4.0, 2.0]], dtype=np.float32))
    out = merging.tome_merge(state, merging.soft_match(state.features, 1))
    assert out.count == 1
    assert_allclose(out.features, [[3.0, 1.0]], rtol=0, atol=0)
    assert out.masses[0] == 2.0
    assert out.provenance == ((0, 1),)


def test_tome_merge_weighted_mean():
    a = np.array([1.0, 5.0], dtype=np.float32)
    b = np.array([9.0, 1.0], dtype=np.float32)
    state = TokenState(
        features=np.stack([a, b]),
        masses=np.array([3.0, 1.0]),
        owner=np.arange(2),
    )
    out = merging.tome_merge(state, merging.soft_match(state.features, 1))
    assert_allclose(out.features[0], (3 * a + b) / 4, rtol=0, atol=1e-7)
    assert out.masses[0] == 4.0


def test_tome_merge_matches_oracle_and_conserves_mass():
    rng = numerics.make_rng(31)
    for _ in range(40):
        n = int(rng.integers(2, 17))
        state = random_state(rng, n)
        r = int(rng.integers(0, n // 2 + 1))
        merges = merging.soft_match(state.features, r)
        out = merging.tome_merge(state, merges)
        ef, em = oracle_merge(state, merges, state.masses)
        assert out.features.tobytes() == ef.astype(np.float32).tobytes()
        assert out.masses.tobytes() == em.tobytes()
        assert out.masses.sum() == pytest.approx(state.masses.sum(), abs=1e-5)


def test_mass_update_all_ones_is_identity():
    rng = numerics.make_rng(37)
    state = random_state(rng, 8)
    updated = merging.vidtldr_merge(state, (), np.ones(8)).masses
    assert_array_equal(updated, state.masses)


def test_mass_update_floor():
    state = TokenState(
        features=np.zeros((2, 3), dtype=np.float32),
        masses=np.array([1.0, 4.0]),
        owner=np.arange(2),
    )
    updated = merging.vidtldr_merge(state, (), [0.7, 0.0]).masses
    assert updated[0] == 1.0          # dst untouched, its score ignored
    assert updated[1] == MASS_EPS


def test_mass_update_mixed_hand_case():
    state = TokenState(
        features=np.zeros((4, 2), dtype=np.float32),
        masses=np.array([1.0, 2.0, 1.0, 2.0]),
        owner=np.arange(4),
    )
    shat = np.array([0.4, 0.5, 0.9, 1.0])
    updated = merging.vidtldr_merge(state, (), shat).masses
    assert_array_equal(updated, [1.0, 1.0, 1.0, 2.0])


def test_mass_update_rejects_out_of_range_scores():
    state = merging.new_state(np.zeros((4, 2), dtype=np.float32))
    with pytest.raises(ValueError):
        merging.vidtldr_merge(state, (), [0.5, -0.1, 0.5, 0.5])
    with pytest.raises(ValueError):
        merging.vidtldr_merge(state, (), [0.5, 1.5, 0.5, 0.5])


def test_vidtldr_merge_rejects_wrong_length_saliency():
    state = merging.new_state(np.arange(8, dtype=np.float32).reshape(4, 2))
    merges = merging.soft_match(state.features, 2)
    for masked in (np.ones(3), np.ones(5)):
        with pytest.raises(ValueError, match="saliency length"):
            merging.vidtldr_merge(state, merges, masked)


def test_vidtldr_merge_rejects_out_of_range_saliency():
    state = merging.new_state(np.arange(8, dtype=np.float32).reshape(4, 2))
    merges = merging.soft_match(state.features, 2)
    for bad in (-0.1, 1.5):  # 1.5 is a valid mass, but no saliency
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            merging.vidtldr_merge(state, merges, [0.5, bad, 0.5, 0.5])
    merging.vidtldr_merge(state, merges, [1.0, 0.0, 0.0, 1.0])  # both ends are in range


def test_vidtldr_merge_singleton_groups_keep_features():
    rng = numerics.make_rng(41)
    state = random_state(rng, 6)
    merges = merging.soft_match(state.features, 0)
    masked = rng.uniform(size=6)
    out = merging.vidtldr_merge(state, merges, masked)
    assert_array_equal(out.features, state.features)
    assert_array_equal(out.masses, oracle_mass_update(state.masses, masked))


def test_vidtldr_merge_suppressed_source_vanishes():
    a = np.array([5.0, -1.0], dtype=np.float32)
    b = np.array([100.0, 100.0], dtype=np.float32)
    state = merging.new_state(np.stack([a, b]))
    merges = merging.soft_match(state.features, 1)
    out = merging.vidtldr_merge(state, merges, np.array([1.0, 0.0]))
    assert_allclose(out.features[0], a, rtol=0, atol=1e-3)
    assert out.masses[0] == pytest.approx(1.0 + MASS_EPS, abs=1e-12)


def test_vidtldr_merge_matches_oracle():
    rng = numerics.make_rng(43)
    for _ in range(40):
        n = int(rng.integers(2, 17))
        state = random_state(rng, n)
        r = int(rng.integers(0, n // 2 + 1))
        merges = merging.soft_match(state.features, r)
        masked = rng.uniform(size=n)
        masses = oracle_mass_update(state.masses, masked)
        out = merging.vidtldr_merge(state, merges, masked)
        ef, em = oracle_merge(state, merges, masses)
        assert out.features.tobytes() == ef.astype(np.float32).tobytes()
        assert out.masses.tobytes() == em.tobytes()
        assert out.masses.sum() == pytest.approx(masses.sum(), abs=1e-5)


def _random_merges(rng, n, largest):
    """A merge list that cuts range(n) into groups of 1..largest members
    around a random survivor each, in a random order and with random
    similarities."""
    perm = rng.permutation(n).tolist()
    merges = []
    while perm:
        size = int(rng.integers(1, largest + 1))
        head, perm = perm[:size], perm[size:]
        merges.extend((s, head[0]) for s in head[1:])
    return tuple((s, d, float(rng.uniform(-1, 1))) for s, d in rng.permutation(merges).tolist())


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(1, 60),
    width=st.integers(1, 16),
    largest=st.integers(1, 20),
    seed=st.integers(0, 2**32 - 1),
)
# groups of 19, 19, 7 and 3 members: three sizes in one call, and two rows
# of a size past the 8 terms from which numpy sums a 1-D array pairwise
@example(n=48, width=5, largest=20, seed=21)
def test_merge_bytes_equal_per_group_loop(n, width, largest, seed):
    rng = numerics.make_rng(seed)
    feats = rng.normal(size=(n, width)) * 10.0 ** rng.integers(-6, 7, size=(n, 1))
    feats[rng.random(feats.shape) < 0.2] = 0.0
    feats[rng.random(feats.shape) < 0.2] = -0.0
    masses = MASS_EPS * 10.0 ** rng.uniform(0, 12, size=n)  # 12 decades
    state = TokenState(numerics.as_matrix(feats), masses, np.arange(n, dtype=np.int64))
    merges = _random_merges(rng, n, largest)
    masked = rng.uniform(size=n)
    masked[rng.random(n) < 0.2] = 0.0
    masked[rng.random(n) < 0.2] = 1.0
    for out, w in [(merging.tome_merge(state, merges), masses),
                   (merging.vidtldr_merge(state, merges, masked),
                    oracle_mass_update(masses, masked))]:
        ef, em = oracle_merge(state, merges, w)
        assert out.features.tobytes() == ef.astype(np.float32).tobytes()
        assert out.masses.tobytes() == em.tobytes()
        assert out.provenance == oracle_merge_tubes(state.provenance, merges)


def test_shat_one_degenerates_to_tome():
    rng = numerics.make_rng(47)
    for _ in range(20):
        n = int(rng.integers(2, 17))
        state = random_state(rng, n)
        r = int(rng.integers(0, n // 2 + 1))
        merges = merging.soft_match(state.features, r)
        a = merging.vidtldr_merge(state, merges, np.ones(n))
        b = merging.tome_merge(state, merges)
        assert_array_equal(a.features, b.features)
        assert_array_equal(a.masses, b.masses)
        assert a.provenance == b.provenance


def test_merge_rejects_chained_destination():
    state = merging.new_state(np.arange(8, dtype=np.float32).reshape(4, 2))
    for merges in [((1, 0, 0.5), (0, 2, 0.5)),   # destination 0 merges on into 2
                   ((3, 1, 0.5), (1, 0, 0.5))]:  # source 1 is also a destination
        with pytest.raises(ValueError, match="merged away"):
            merging.tome_merge(state, merges)
        with pytest.raises(ValueError, match="merged away"):
            merging.vidtldr_merge(state, merges, np.ones(state.count))


MERGES = {
    "tome": merging.tome_merge,
    "vidtldr": lambda state, merges: merging.vidtldr_merge(state, merges, np.ones(state.count)),
}


@pytest.mark.parametrize("merge", MERGES)
@pytest.mark.parametrize("merges, message", [
    (((1, 0, 0.5), (1, 2, 0.4)), "more than once"),  # source 1 listed twice
    (((-1, 0, 0.5),), "outside"),  # would merge token 5 into token 0
    (((1, -2, 0.5),), "outside"),  # would merge token 1 into token 4
    (((7, 0, 0.5),), "outside"),
    (((1, 6, 0.5),), "outside"),
    (((1.7, 0, 0.5),), "not an integer"),  # would merge token 1 into token 0
    (((1, 2.5, 0.5),), "not an integer"),
    (((1, 0, 0.5, 3, 2, 0.1),), "triple"),  # would apply as two merges
    ((1, 0, 0.5), "triple"),  # a bare triple, not a list of them
], ids=["repeated-src", "negative-src", "negative-dst", "src-past-end", "dst-past-end",
        "fractional-src", "fractional-dst", "six-element-entry", "bare-triple"])
def test_merge_rejects_lists_it_cannot_apply(merge, merges, message):
    state = merging.new_state(np.arange(12, dtype=np.float32).reshape(6, 2))
    with pytest.raises(ValueError, match=message):
        MERGES[merge](state, merges)


def test_prune_identity_and_hand_case():
    rng = numerics.make_rng(53)
    state = random_state(rng, 3)
    same = merging.prune_lowest(state, [0.1, 0.9, 0.5], 0)
    assert_array_equal(same.features, state.features)
    out = merging.prune_lowest(state, [0.1, 0.9, 0.5], 1)
    assert out.count == 2
    assert_array_equal(out.features, state.features[[1, 2]])
    assert out.provenance == ((1,), (2,))


def test_prune_tie_drops_lower_index():
    state = merging.new_state(np.arange(8, dtype=np.float32).reshape(4, 2))
    out = merging.prune_lowest(state, [0.5, 0.5, 0.9, 0.5], 2)
    assert out.provenance == ((2,), (3,))


def test_prune_matches_sort_oracle():
    rng = numerics.make_rng(59)
    for _ in range(30):
        n = int(rng.integers(2, 17))
        state = random_state(rng, n)
        scores = rng.uniform(size=n)
        r = int(rng.integers(0, n))
        out = merging.prune_lowest(state, scores, r)
        keep = sorted(sorted(range(n), key=lambda i: (scores[i], i))[r:])
        assert out.provenance == tuple((i,) for i in keep)


def test_prune_rejects_r_too_large():
    state = merging.new_state(np.zeros((3, 2), dtype=np.float32))
    with pytest.raises(ValueError):
        merging.prune_lowest(state, [1.0, 2.0, 3.0], 3)


def test_check_state_catches_violations():
    good = merging.new_state(np.zeros((3, 2), dtype=np.float32))
    merging.check_state(good, 3)
    with pytest.raises(ValueError):
        merging.check_state(
            TokenState(good.features, np.array([1.0, 0.0, 1.0]), good.owner), 3
        )
    two = good.features[:2], good.masses[:2]
    merging.check_state(TokenState(*two, np.array([0, -1, 1])), 3)
    with pytest.raises(ValueError, match="at least one tube"):  # token 1 holds no tube
        merging.check_state(TokenState(good.features, good.masses, np.array([0, 0, 2])), 3)
    with pytest.raises(ValueError, match="live token index"):  # entry >= count
        merging.check_state(TokenState(*two, np.array([0, 1, 2])), 3)
    with pytest.raises(ValueError, match="live token index"):  # entry < -1
        merging.check_state(TokenState(*two, np.array([0, -2, 1])), 3)
    with pytest.raises(ValueError, match="owner map"):  # wrong length
        merging.check_state(TokenState(*two, np.array([0, 1])), 3)


def test_with_features_guards_count():
    state = merging.new_state(np.zeros((3, 2), dtype=np.float32))
    with pytest.raises(ValueError):
        state.with_features(np.zeros((2, 2), dtype=np.float32))


def oracle_merge_tubes(prov, merges):
    """Tuple bookkeeping: each group's tubes are the sorted union of its members'."""
    return tuple(tuple(sorted(t for m in group for t in prov[m]))
                 for group in oracle_groups(len(prov), merges))


def oracle_prune_tubes(prov, scores, r):
    """Tuple bookkeeping: keep all but the r lowest (score, position) tokens, in order."""
    order = sorted(range(len(prov)), key=lambda i: (scores[i], i))
    return tuple(prov[i] for i in sorted(order[r:]))


def assert_owner_map_matches(state, prov, n_tubes, per_tube):
    merging.check_state(state, n_tubes)
    assert state.provenance == prov
    assert state.sizes.tolist() == [len(tubes) for tubes in prov]
    means = []
    for tubes in prov:
        total = 0.0
        for t in tubes:  # sequential, in increasing tube index
            total += float(per_tube[t])
        means.append(total / len(tubes))
    assert state.tube_mean(per_tube).tobytes() == np.array(means, dtype=np.float64).tobytes()


SCORES = st.one_of(st.sampled_from([0.0, -0.0, 0.5, 1.0]), st.floats(0.0, 1.0))


@settings(max_examples=200, deadline=None)
@given(n_tubes=st.integers(2, 24), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_owner_map_property_equals_tuple_oracle(n_tubes, seed, data):
    rng = numerics.make_rng(seed)
    state = random_state(rng, n_tubes)
    # Magnitudes spread over 16 decades, so each mean depends on its summation order.
    per_tube = rng.normal(size=n_tubes) * 10.0 ** rng.integers(-8, 9, size=n_tubes)
    prov = tuple((t,) for t in range(n_tubes))
    assert_owner_map_matches(state, prov, n_tubes, per_tube)
    for _ in range(data.draw(st.integers(1, 6))):
        n = state.count
        op = data.draw(st.sampled_from(["tome", "vidtldr", "prune"] if n >= 2 else ["prune"]))
        if op == "prune":
            r = data.draw(st.integers(0, n - 1))
            scores = data.draw(st.lists(SCORES, min_size=n, max_size=n))
            state, prov = merging.prune_lowest(state, scores, r), oracle_prune_tubes(prov, scores, r)
        else:
            r = data.draw(st.integers(0, n // 2))
            merges = merging.soft_match(rng.normal(size=(n, 3)).astype(np.float32), r)
            if op == "tome":
                state = merging.tome_merge(state, merges)
            else:
                state = merging.vidtldr_merge(state, merges, rng.uniform(size=n))
            prov = oracle_merge_tubes(prov, merges)
        assert_owner_map_matches(state, prov, n_tubes, per_tube)
