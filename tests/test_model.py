import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from vidtldr import merging, model, numerics
from vidtldr.costmodel import InfeasibleScheduleError
from vidtldr.model import ClipSpec, ModelConfig

# small geometry used throughout: 2 frame groups x 2x2 patches = 8 tokens
SMALL = ClipSpec(frames=4, height=16, width=16, tube=2, patch=8, channels=1)


def small_setup(seed, layers=3, heads=2, width=16, tau=0.0):
    cfg = ModelConfig(width=width, heads=heads, layers=layers, temporal_bias=tau)
    rng = numerics.make_rng(seed)
    clip = rng.normal(size=(SMALL.frames, SMALL.height, SMALL.width, SMALL.channels))
    weights = model.init_weights(cfg, SMALL, seed + 1)
    return cfg, clip.astype(np.float32), weights


def test_clip_spec_token_count():
    spec = ClipSpec(frames=4, height=32, width=32, tube=2, patch=16)
    assert spec.n_tokens == 8
    assert spec.n_groups == 2
    assert spec.grid_h == spec.grid_w == 2
    assert spec.tube_dim == 2 * 16 * 16 * 3


def test_clip_spec_divisibility_errors():
    with pytest.raises(ValueError):
        ClipSpec(frames=5, height=32, width=32, tube=2, patch=16)
    with pytest.raises(ValueError):
        ClipSpec(frames=4, height=30, width=32, tube=2, patch=16)
    with pytest.raises(ValueError):
        ClipSpec(frames=4, height=32, width=32, tube=2, patch=0)


def test_tube_frame_groups_layout():
    groups = SMALL.tube_frame_groups()
    assert_array_equal(groups, [0, 0, 0, 0, 1, 1, 1, 1])


def test_model_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(width=10, heads=4, layers=2)
    with pytest.raises(ValueError):
        ModelConfig(width=8, heads=2, layers=0)
    assert ModelConfig(width=8, heads=2, layers=1).head_dim == 4


def test_init_weights_deterministic():
    cfg = ModelConfig(width=16, heads=2, layers=2)
    w1 = model.init_weights(cfg, SMALL, 5)
    w2 = model.init_weights(cfg, SMALL, 5)
    assert_array_equal(w1.embed, w2.embed)
    for a, b in zip(w1.layers, w2.layers):
        assert_array_equal(a.wq, b.wq)
        assert_array_equal(a.wk, b.wk)
        assert_array_equal(a.w2, b.w2)
    w3 = model.init_weights(cfg, SMALL, 6)
    assert not np.array_equal(w1.embed, w3.embed)


def test_init_weights_shapes():
    cfg = ModelConfig(width=16, heads=2, layers=2)
    w = model.init_weights(cfg, SMALL, 0)
    assert w.embed.shape == (SMALL.tube_dim, 16)
    assert len(w.layers) == 2
    assert w.layers[0].w1.shape == (16, 64)
    assert w.layers[0].w2.shape == (64, 16)


def test_layer_norm_matches_reference():
    rng = numerics.make_rng(1)
    x = rng.normal(size=(5, 12)).astype(np.float32)
    out = model.layer_norm(x)
    x64 = x.astype(np.float64)
    mu = x64.mean(axis=1, keepdims=True)
    var = x64.var(axis=1, keepdims=True)
    ref = (x64 - mu) / np.sqrt(var + 1e-5)
    assert_allclose(out, ref, rtol=0, atol=1e-6)


def test_gelu_reference_values():
    out = model.gelu(np.array([[0.0, 1.0, -1.0]], dtype=np.float32))
    # 0.5*x*(1+erf(x/sqrt(2))) at x=1: 0.8413447
    assert out[0, 0] == 0.0
    assert out[0, 1] == pytest.approx(0.8413447, abs=1e-6)
    assert out[0, 2] == pytest.approx(-0.1586553, abs=1e-6)


def test_embed_clip_token_count_and_state():
    _, clip, weights = small_setup(3)
    state = model.embed_clip(clip, SMALL, weights)
    assert state.count == 8
    assert_array_equal(state.masses, np.ones(8))
    assert state.provenance == tuple((i,) for i in range(8))


def test_embed_clip_rejects_wrong_shape():
    _, clip, weights = small_setup(3)
    with pytest.raises(ValueError):
        model.embed_clip(clip[:2], SMALL, weights)


def test_embed_all_zero_clip_gives_equal_tokens():
    _, _, weights = small_setup(4)
    zero = np.zeros((SMALL.frames, SMALL.height, SMALL.width, SMALL.channels), np.float32)
    state = model.embed_clip(zero, SMALL, weights)
    assert_array_equal(state.features, np.zeros_like(state.features))


def test_embed_matches_naive_tube_oracle():
    _, clip, weights = small_setup(7)
    state = model.embed_clip(clip, SMALL, weights)
    t, p = SMALL.tube, SMALL.patch
    for g in range(SMALL.n_groups):
        for gy in range(SMALL.grid_h):
            for gx in range(SMALL.grid_w):
                tube = clip[
                    g * t : (g + 1) * t,
                    gy * p : (gy + 1) * p,
                    gx * p : (gx + 1) * p,
                    :,
                ].reshape(-1)
                expect = tube.astype(np.float64) @ weights.embed.astype(np.float64)
                tok = g * SMALL.grid_h * SMALL.grid_w + gy * SMALL.grid_w + gx
                assert_allclose(state.features[tok], expect, rtol=0, atol=1e-5)


def test_attention_single_token():
    cfg = ModelConfig(width=8, heads=2, layers=1)
    w = model.init_weights(cfg, SMALL, 0).layers[0]
    state = merging.new_state(np.ones((1, 8), dtype=np.float32))
    _, maps = model.attention_forward(
        state, w, cfg, np.array([0]), 1, proportional=False
    )
    assert_array_equal(maps.probs, np.ones((2, 1, 1), dtype=np.float32))


def test_attention_matches_64bit_oracle():
    # N=3, C=4, one head, fixed weights
    cfg = ModelConfig(width=4, heads=1, layers=1)
    rng = numerics.make_rng(21)
    x = rng.normal(size=(3, 4)).astype(np.float32)
    lw = model.init_weights(cfg, SMALL, 9).layers[0]
    state = merging.new_state(x)
    new_state, maps = model.attention_forward(
        state, lw, cfg, np.zeros(3, dtype=np.int64), 1, proportional=False
    )

    x64 = x.astype(np.float64)
    mu = x64.mean(axis=1, keepdims=True)
    xn = (x64 - mu) / np.sqrt(x64.var(axis=1, keepdims=True) + 1e-5)
    # the projections round to float32 between steps
    xn = xn.astype(np.float32).astype(np.float64)
    q = (xn @ lw.wq.astype(np.float64)).astype(np.float32).astype(np.float64)
    k = (xn @ lw.wk.astype(np.float64)).astype(np.float32).astype(np.float64)
    v = (xn @ lw.wv.astype(np.float64)).astype(np.float32).astype(np.float64)
    logits = (q @ k.T) / math.sqrt(4.0)
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    probs = e / e.sum(axis=1, keepdims=True)
    assert_allclose(maps.probs[0], probs, rtol=0, atol=1e-5)
    attn = (probs @ v).astype(np.float32).astype(np.float64)
    out = x64 + (attn @ lw.wo.astype(np.float64))
    assert_allclose(new_state.features, out, rtol=0, atol=1e-5)


def test_attention_rows_stochastic_and_head_mean():
    cfg, clip, weights = small_setup(11, tau=0.5)
    state = model.embed_clip(clip, SMALL, weights)
    _, maps = model.attention_forward(
        state, weights.layers[0], cfg, SMALL.tube_frame_groups(), SMALL.n_groups, True
    )
    sums = maps.probs.astype(np.float64).sum(axis=2)
    assert_allclose(sums, 1.0, rtol=0, atol=1e-5)
    assert_allclose(
        maps.head_mean_probs,
        maps.probs.astype(np.float64).mean(axis=0),
        rtol=0,
        atol=1e-6,
    )


def test_uniform_masses_make_proportional_a_no_op():
    cfg, clip, weights = small_setup(13)
    state = model.embed_clip(clip, SMALL, weights)
    groups = SMALL.tube_frame_groups()
    _, plain = model.attention_forward(
        state, weights.layers[0], cfg, groups, SMALL.n_groups, proportional=False
    )
    _, prop = model.attention_forward(
        state, weights.layers[0], cfg, groups, SMALL.n_groups, proportional=True
    )
    assert_allclose(prop.probs, plain.probs, rtol=0, atol=1e-6)


def test_constant_masses_shift_out_of_softmax():
    cfg, clip, weights = small_setup(15)
    base = model.embed_clip(clip, SMALL, weights)
    groups = SMALL.tube_frame_groups()
    scaled = merging.TokenState(
        base.features, np.full(base.count, 3.7), base.provenance
    )
    _, a = model.attention_forward(
        base, weights.layers[0], cfg, groups, SMALL.n_groups, proportional=True
    )
    _, b = model.attention_forward(
        scaled, weights.layers[0], cfg, groups, SMALL.n_groups, proportional=True
    )
    assert_allclose(a.probs, b.probs, rtol=0, atol=1e-6)


def test_temporal_bias_values():
    mean_groups = np.array([0.0, 1.0, 2.0, 3.0])
    out = model.temporal_bias_values(mean_groups, 4, 0.9)
    assert_allclose(out, [0.9, 0.3, -0.3, -0.9], rtol=0, atol=1e-12)
    assert_array_equal(model.temporal_bias_values(mean_groups, 4, 0.0), np.zeros(4))
    assert_array_equal(model.temporal_bias_values(np.zeros(3), 1, 0.9), np.zeros(3))


def test_temporal_bias_tilts_attention_forward():
    cfg, clip, weights = small_setup(17, tau=2.0)
    state = model.embed_clip(clip, SMALL, weights)
    groups = SMALL.tube_frame_groups()
    _, maps = model.attention_forward(
        state, weights.layers[0], cfg, groups, SMALL.n_groups, proportional=False
    )
    col_mass = maps.head_mean_probs.astype(np.float64).mean(axis=0)
    # first frame group columns receive more attention than the last
    assert col_mass[groups == 0].mean() > col_mass[groups == 1].mean()


def test_mlp_zero_weights_is_identity():
    lw = model.LayerWeights(
        wq=np.zeros((4, 4), np.float32),
        wk=np.zeros((4, 4), np.float32),
        wv=np.zeros((4, 4), np.float32),
        wo=np.zeros((4, 4), np.float32),
        w1=np.zeros((4, 16), np.float32),
        w2=np.zeros((16, 4), np.float32),
    )
    x = numerics.make_rng(19).normal(size=(3, 4)).astype(np.float32)
    assert_array_equal(model.mlp_forward(x, lw), x)


def test_mlp_matches_hand_computation():
    w1 = np.zeros((2, 8), np.float32)
    w1[0, :] = 1.0
    lw = model.LayerWeights(
        wq=np.zeros((2, 2), np.float32),
        wk=np.zeros((2, 2), np.float32),
        wv=np.zeros((2, 2), np.float32),
        wo=np.zeros((2, 2), np.float32),
        w1=w1,
        w2=np.full((8, 2), 0.25, np.float32),
    )
    x = np.array([[1.0, 3.0]], dtype=np.float32)
    # normalized row is [-a, a] with a = 1/sqrt(1 + 1e-5); every hidden
    # unit sees -a, and w2 sums 8 of them at weight 0.25
    a = 1.0 / math.sqrt(1.0 + 1e-5)
    g = 0.5 * -a * (1.0 + math.erf(-a / math.sqrt(2.0)))
    expect = np.array([[1.0 + 2.0 * g, 3.0 + 2.0 * g]])
    assert_allclose(model.mlp_forward(x, lw), expect, rtol=0, atol=1e-6)


def test_forward_zero_schedule_matches_trajectory():
    cfg, clip, weights = small_setup(23)
    res = model.forward_clip(clip, SMALL, cfg, weights, [], model.NullReducer(), False)
    assert [tr.tokens_out for tr in res.traces] == [8, 8, 8]
    assert res.final_state.count == 8
    merging.check_state(res.final_state, 8)


def test_forward_reduction_counts():
    cfg, clip, weights = small_setup(29)
    res = model.forward_clip(
        clip, SMALL, cfg, weights, [2, 2], model.TomeReducer(), True
    )
    assert [tr.tokens_in for tr in res.traces] == [8, 6, 4]
    assert [tr.tokens_out for tr in res.traces] == [6, 4, 4]
    assert res.final_state.count == 4
    merging.check_state(res.final_state, 8)


def test_forward_provenance_partition_preserved():
    cfg, clip, weights = small_setup(31)
    res = model.forward_clip(
        clip, SMALL, cfg, weights, [3, 1], model.VidTldrReducer(), True
    )
    covered = sorted(t for tubes in res.final_state.provenance for t in tubes)
    assert covered == list(range(8))


def test_forward_infeasible_schedule():
    cfg, clip, weights = small_setup(37)
    with pytest.raises(InfeasibleScheduleError):
        model.forward_clip(clip, SMALL, cfg, weights, [4, 4], model.TomeReducer(), True)
    # merging reducers are planned with the floor(n/2) limit, pruning is not
    with pytest.raises(InfeasibleScheduleError, match="merge"):
        model.forward_clip(clip, SMALL, cfg, weights, [5], model.TomeReducer(), True)
    pruner = model.PruneReducer(lambda state, maps, layer: state.masses)
    res = model.forward_clip(clip, SMALL, cfg, weights, [5], pruner, False)
    assert res.final_state.count == 3
    with pytest.raises(ValueError):
        model.forward_clip(clip, SMALL, cfg, weights, [1] * 4, model.TomeReducer(), True)


def test_forward_deterministic():
    cfg, clip, weights = small_setup(41)
    a = model.forward_clip(clip, SMALL, cfg, weights, [2], model.VidTldrReducer(), True)
    b = model.forward_clip(clip, SMALL, cfg, weights, [2], model.VidTldrReducer(), True)
    assert_array_equal(a.final_state.features, b.final_state.features)
    assert_array_equal(a.final_state.masses, b.final_state.masses)
    for ta, tb in zip(a.traces, b.traces):
        assert_array_equal(ta.maps.probs, tb.maps.probs)


def test_null_reducer_refuses_reduction():
    cfg, clip, weights = small_setup(43)
    with pytest.raises(RuntimeError):
        model.forward_clip(clip, SMALL, cfg, weights, [2], model.NullReducer(), False)


def test_reducers_produce_expected_counts():
    cfg, clip, weights = small_setup(47)
    for reducer in (
        model.TomeReducer(),
        model.VidTldrReducer(),
        model.PruneReducer(lambda state, maps, layer: state.masses),
    ):
        res = model.forward_clip(clip, SMALL, cfg, weights, [2, 1], reducer, False)
        assert res.final_state.count == 5
