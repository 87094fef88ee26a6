import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from oracles import cosine_matrix
from vidtldr import merging, numerics
from vidtldr.merging import MASS_EPS, Bipartition, TokenState


def random_state(rng, n, width=6):
    feats = rng.normal(size=(n, width)).astype(np.float32)
    state = merging.new_state(feats)
    # random positive masses, as if earlier layers already merged
    masses = rng.uniform(0.5, 3.0, size=n)
    return TokenState(state.features, masses, state.owner)


def oracle_match(keys, part, r):
    """Exhaustive matching: score every src-dst pair, cut at r."""
    keys = np.asarray(keys, dtype=np.float64)
    rows = []
    for s in part.src_index:
        best_d, best_sim = None, None
        for d in part.dst_index:
            sim = numerics.cosine_sim(keys[s], keys[d])
            if best_sim is None or sim > best_sim:
                best_d, best_sim = int(d), sim
        rows.append((int(s), best_d, best_sim))
    rows.sort(key=lambda t: (-t[2], t[0]))
    return rows[:r]


def parent_soft_match(keys, part, r):
    """soft_match as it was before cosine_argmax: the full cosine_matrix
    and np.argmax. The new one must give the same merges and groups, bit
    for bit."""
    k = numerics.as_matrix(keys)
    dst = np.asarray(part.dst_index, dtype=np.int64)
    src = np.asarray(part.src_index, dtype=np.int64)
    sims = cosine_matrix(k[src], k[dst])
    j = np.argmax(sims, axis=1)
    scores = sims[np.arange(src.shape[0]), j]
    best = dst[j]
    chosen = np.lexsort((src, -scores))[:r]
    merges = tuple((int(src[i]), int(best[i]), float(scores[i])) for i in chosen)
    keep = np.ones(k.shape[0], dtype=bool)
    keep[src[chosen]] = False
    members = [[i] for i in range(k.shape[0])]
    for s, d, _ in sorted(merges):
        members[d].append(s)
    groups = tuple(tuple(members[i]) for i in np.flatnonzero(keep))
    return merging.MatchResult(merges=merges, groups=groups)


def oracle_merge(state, match, masses):
    """Per-group weighted means, one numpy sum per group over its members
    in listed order: the merge must equal these bit for bit."""
    feats = state.features.astype(np.float64)
    out_f, out_m = [], []
    for group in match.groups:
        idx = list(group)
        w = np.asarray([masses[i] for i in idx], dtype=np.float64)
        out_f.append((w[:, None] * feats[idx]).sum(axis=0) / w.sum())
        out_m.append(w.sum())
    return np.array(out_f), np.array(out_m)


def test_bipartition_alternation():
    p4 = merging.bipartition(4)
    assert_array_equal(p4.dst_index, [0, 2])
    assert_array_equal(p4.src_index, [1, 3])
    p5 = merging.bipartition(5)
    assert_array_equal(p5.dst_index, [0, 2, 4])
    assert_array_equal(p5.src_index, [1, 3])
    p2 = merging.bipartition(2)
    assert len(p2.dst_index) == 1 and len(p2.src_index) == 1


def test_bipartition_too_small():
    with pytest.raises(ValueError):
        merging.bipartition(1)


def test_soft_match_r_zero_identity():
    rng = numerics.make_rng(1)
    keys = rng.normal(size=(6, 4)).astype(np.float32)
    match = merging.soft_match(keys, merging.bipartition(6), 0)
    assert match.merges == ()
    assert len(match.groups) == 6
    assert all(len(g) == 1 for g in match.groups)


def test_soft_match_duplicate_pairs():
    # two sources identical to two distinct destinations
    keys = np.array(
        [[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]], dtype=np.float32
    )
    match = merging.soft_match(keys, merging.bipartition(4), 2)
    assert set((s, d) for s, d, _ in match.merges) == {(1, 0), (3, 2)}
    for _, _, sim in match.merges:
        assert sim == pytest.approx(1.0, abs=1e-12)


def test_soft_match_equals_exhaustive_oracle():
    rng = numerics.make_rng(17)
    for _ in range(60):
        n = int(rng.integers(2, 17))
        keys = rng.normal(size=(n, 5)).astype(np.float32)
        part = merging.bipartition(n)
        r = int(rng.integers(0, len(part.src_index) + 1))
        match = merging.soft_match(keys, part, r)
        expect = oracle_match(keys, part, r)
        assert len(match.merges) == r
        for (s, d, sim), (es, ed, esim) in zip(match.merges, expect):
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
    part = merging.bipartition(n)
    r = data.draw(st.integers(0, len(part.src_index)))
    got, want = merging.soft_match(keys, part, r), parent_soft_match(keys, part, r)
    assert got.groups == want.groups
    assert [(s, d) for s, d, _ in got.merges] == [(s, d) for s, d, _ in want.merges]
    assert np.float64([v for *_, v in got.merges]).tobytes() == np.float64([v for *_, v in want.merges]).tobytes()


def test_soft_match_score_tie_prefers_lower_src():
    # both sources score 1.0 against dst 0; only one may merge
    keys = np.array([[2.0, 0.0], [1.0, 0.0], [0.0, 5.0], [1.0, 0.0]], dtype=np.float32)
    match = merging.soft_match(keys, merging.bipartition(4), 1)
    assert match.merges[0][:2] == (1, 0)


def test_soft_match_dst_tie_prefers_lower_dst():
    # src 1 is equally similar to dst 0 and dst 2
    keys = np.array([[1.0, 0.0], [1.0, 0.0], [1.0, 0.0], [0.0, 1.0]], dtype=np.float32)
    match = merging.soft_match(keys, merging.bipartition(4), 1)
    assert match.merges[0][:2] == (1, 0)


def test_soft_match_rejects_bad_r():
    keys = np.zeros((4, 2), dtype=np.float32)
    part = merging.bipartition(4)
    with pytest.raises(ValueError):
        merging.soft_match(keys, part, 3)
    with pytest.raises(ValueError):
        merging.soft_match(keys, part, -1)


def test_match_bookkeeping_counts():
    rng = numerics.make_rng(29)
    for _ in range(20):
        n = int(rng.integers(2, 17))
        part = merging.bipartition(n)
        r = int(rng.integers(0, len(part.src_index) + 1))
        match = merging.soft_match(rng.normal(size=(n, 3)).astype(np.float32), part, r)
        assert len(match.groups) == n - r
        covered = sorted(i for g in match.groups for i in g)
        assert covered == list(range(n))


def test_tome_merge_plain_average():
    state = merging.new_state(np.array([[2.0, 0.0], [4.0, 2.0]], dtype=np.float32))
    match = merging.soft_match(state.features, merging.bipartition(2), 1)
    out = merging.tome_merge(state, match)
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
    match = merging.soft_match(state.features, merging.bipartition(2), 1)
    out = merging.tome_merge(state, match)
    assert_allclose(out.features[0], (3 * a + b) / 4, rtol=0, atol=1e-7)
    assert out.masses[0] == 4.0


def test_tome_merge_matches_oracle_and_conserves_mass():
    rng = numerics.make_rng(31)
    for _ in range(40):
        n = int(rng.integers(2, 17))
        state = random_state(rng, n)
        part = merging.bipartition(n)
        r = int(rng.integers(0, len(part.src_index) + 1))
        match = merging.soft_match(state.features, part, r)
        out = merging.tome_merge(state, match)
        ef, em = oracle_merge(state, match, state.masses)
        assert out.features.tobytes() == ef.astype(np.float32).tobytes()
        assert out.masses.tobytes() == em.tobytes()
        assert out.masses.sum() == pytest.approx(state.masses.sum(), abs=1e-5)


def test_mass_update_all_ones_is_identity():
    rng = numerics.make_rng(37)
    state = random_state(rng, 8)
    part = merging.bipartition(8)
    updated = merging.vidtldr_mass_update(state, part, np.ones(8))
    assert_array_equal(updated, state.masses)


def test_mass_update_floor():
    state = TokenState(
        features=np.zeros((2, 3), dtype=np.float32),
        masses=np.array([1.0, 4.0]),
        owner=np.arange(2),
    )
    updated = merging.vidtldr_mass_update(state, merging.bipartition(2), [0.7, 0.0])
    assert updated[0] == 1.0          # dst untouched, its score ignored
    assert updated[1] == MASS_EPS


def test_mass_update_mixed_hand_case():
    state = TokenState(
        features=np.zeros((4, 2), dtype=np.float32),
        masses=np.array([1.0, 2.0, 1.0, 2.0]),
        owner=np.arange(4),
    )
    shat = np.array([0.4, 0.5, 0.9, 1.0])
    updated = merging.vidtldr_mass_update(state, merging.bipartition(4), shat)
    assert_array_equal(updated, [1.0, 1.0, 1.0, 2.0])


def test_mass_update_rejects_out_of_range_scores():
    state = merging.new_state(np.zeros((4, 2), dtype=np.float32))
    part = merging.bipartition(4)
    with pytest.raises(ValueError):
        merging.vidtldr_mass_update(state, part, [0.5, -0.1, 0.5, 0.5])
    with pytest.raises(ValueError):
        merging.vidtldr_mass_update(state, part, [0.5, 1.5, 0.5, 0.5])


def test_vidtldr_merge_singleton_groups_keep_features():
    rng = numerics.make_rng(41)
    state = random_state(rng, 6)
    match = merging.soft_match(state.features, merging.bipartition(6), 0)
    masses = merging.vidtldr_mass_update(
        state, merging.bipartition(6), rng.uniform(size=6)
    )
    out = merging.vidtldr_merge(state, match, masses)
    assert_array_equal(out.features, state.features)
    assert_array_equal(out.masses, masses)


def test_vidtldr_merge_suppressed_source_vanishes():
    a = np.array([5.0, -1.0], dtype=np.float32)
    b = np.array([100.0, 100.0], dtype=np.float32)
    state = merging.new_state(np.stack([a, b]))
    part = merging.bipartition(2)
    match = merging.soft_match(state.features, part, 1)
    masses = merging.vidtldr_mass_update(state, part, np.array([1.0, 0.0]))
    out = merging.vidtldr_merge(state, match, masses)
    assert_allclose(out.features[0], a, rtol=0, atol=1e-3)
    assert out.masses[0] == pytest.approx(1.0 + MASS_EPS, abs=1e-12)


def test_vidtldr_merge_matches_oracle():
    rng = numerics.make_rng(43)
    for _ in range(40):
        n = int(rng.integers(2, 17))
        state = random_state(rng, n)
        part = merging.bipartition(n)
        r = int(rng.integers(0, len(part.src_index) + 1))
        match = merging.soft_match(state.features, part, r)
        masses = merging.vidtldr_mass_update(state, part, rng.uniform(size=n))
        out = merging.vidtldr_merge(state, match, masses)
        ef, em = oracle_merge(state, match, masses)
        assert out.features.tobytes() == ef.astype(np.float32).tobytes()
        assert out.masses.tobytes() == em.tobytes()
        assert out.masses.sum() == pytest.approx(masses.sum(), abs=1e-5)


def _random_groups(rng, n, largest):
    """A partition of range(n) into groups of 1..largest members: a random
    survivor first, then its sources in increasing position."""
    perm = rng.permutation(n).tolist()
    groups = []
    while perm:
        size = int(rng.integers(1, largest + 1))
        head, perm = perm[:size], perm[size:]
        groups.append((head[0], *sorted(head[1:])))
    return tuple(groups)


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
    match = merging.MatchResult(merges=(), groups=_random_groups(rng, n, largest))
    updated = MASS_EPS * 10.0 ** rng.uniform(0, 12, size=n)
    for out, w in [(merging.tome_merge(state, match), masses),
                   (merging.vidtldr_merge(state, match, updated), updated)]:
        ef, em = oracle_merge(state, match, w)
        assert out.features.tobytes() == ef.astype(np.float32).tobytes()
        assert out.masses.tobytes() == em.tobytes()
        assert out.provenance == oracle_merge_tubes(state.provenance, match)


def test_shat_one_degenerates_to_tome():
    rng = numerics.make_rng(47)
    for _ in range(20):
        n = int(rng.integers(2, 17))
        state = random_state(rng, n)
        part = merging.bipartition(n)
        r = int(rng.integers(0, len(part.src_index) + 1))
        match = merging.soft_match(state.features, part, r)
        masses = merging.vidtldr_mass_update(state, part, np.ones(n))
        a = merging.vidtldr_merge(state, match, masses)
        b = merging.tome_merge(state, match)
        assert_array_equal(a.features, b.features)
        assert_array_equal(a.masses, b.masses)
        assert a.provenance == b.provenance


def test_vidtldr_merge_rejects_floor_violation():
    state = merging.new_state(np.zeros((4, 2), dtype=np.float32))
    match = merging.soft_match(state.features, merging.bipartition(4), 0)
    with pytest.raises(ValueError):
        merging.vidtldr_merge(state, match, np.array([1.0, 0.0, 1.0, 1.0]))


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


def oracle_merge_tubes(prov, match):
    """Tuple bookkeeping: each group's tubes are the sorted union of its members'."""
    return tuple(tuple(sorted(t for m in group for t in prov[m])) for group in match.groups)


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
            part = merging.bipartition(n)
            r = data.draw(st.integers(0, len(part.src_index)))
            match = merging.soft_match(rng.normal(size=(n, 3)).astype(np.float32), part, r)
            if op == "tome":
                state = merging.tome_merge(state, match)
            else:
                masses = merging.vidtldr_mass_update(state, part, rng.uniform(size=n))
                state = merging.vidtldr_merge(state, match, masses)
            prov = oracle_merge_tubes(prov, match)
        assert_owner_map_matches(state, prov, n_tubes, per_tube)
