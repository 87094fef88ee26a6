import dataclasses
import math
import sys
import threading
import time

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy.special import erf

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


def _weight_arrays(w):
    return [w.embed] + [getattr(lw, f.name) for lw in w.layers for f in dataclasses.fields(lw)]


def _in_threads(*fns, seconds=30):
    """Run each fn on its own thread and join them all; their results, in order."""
    results = [None] * len(fns)

    def call(i):
        try:
            results[i] = fns[i]()
        except BaseException as e:  # handed to the test's thread
            results[i] = e

    threads = [threading.Thread(target=call, args=(i,), daemon=True) for i in range(len(fns))]
    for t in threads:
        t.start()
    for t in threads:
        t.join(seconds)
    assert not any(t.is_alive() for t in threads), "a weight reader hung"
    return results


def test_weight_stream_equals_init_weights():
    cfg = ModelConfig(width=16, heads=2, layers=6)
    ref = model.init_weights(cfg, SMALL, 7)
    stream = model.WeightStream(cfg.layers)

    def layer5_first():  # reaches layer 5 before it asks for the embedding
        layers = list(stream.layers)
        return model.ModelWeights(embed=stream.embed, layers=tuple(layers))

    def embed_first():
        embed = stream.embed
        return model.ModelWeights(embed=embed, layers=tuple(stream.layers))

    # Eight readers, more than the cores, start before the draw and read
    # while it runs, switching threads as often as the interpreter allows.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        *reads, drawn = _in_threads(
            *[layer5_first, embed_first] * 4, lambda: stream.draw(cfg, SMALL, 7)
        )
    finally:
        sys.setswitchinterval(interval)
    for got in reads + [drawn]:
        assert isinstance(got, model.ModelWeights)
        arrays = _weight_arrays(got)
        assert len(arrays) == 1 + 6 * 6
        for x, y in zip(arrays, _weight_arrays(ref)):
            assert x.dtype == y.dtype and x.shape == y.shape
            assert x.tobytes() == y.tobytes()
            assert not x.flags.writeable
        # every reader holds the very arrays the draw made
        assert all(x is y for x, y in zip(arrays, _weight_arrays(drawn)))


class Boom(Exception):
    pass


def test_weight_stream_failure_reaches_every_reader(monkeypatch):
    cfg = ModelConfig(width=16, heads=2, layers=4)
    real = model.init_weights

    def fail_on_piece_2(cfg, spec, seed, publish):
        def publish_or_fail(piece):
            if len(published) == 2:
                raise Boom("raised on purpose")
            published.append(piece)
            publish(piece)

        return real(cfg, spec, seed, publish=publish_or_fail)

    published = []
    monkeypatch.setattr(model, "init_weights", fail_on_piece_2)
    stream = model.WeightStream(cfg.layers)
    readers = [lambda: list(stream.layers), lambda: stream.embed, lambda: list(stream.layers)]
    *reads, drawn = _in_threads(*readers, lambda: stream.draw(cfg, SMALL, 3))
    assert isinstance(reads[0], Boom) and isinstance(reads[2], Boom) and isinstance(drawn, Boom)
    assert reads[1] is published[0]
    layers = stream.layers
    assert next(layers) is published[1]
    with pytest.raises(Boom):
        next(layers)


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


# erf's branch points |t| = 1, 8 and sqrt(MAXLOG), as gelu inputs x = t * sqrt(2),
# with the float32 values one ulp either side.
ERF_EDGES = np.float32([math.sqrt(2.0), 8.0 * math.sqrt(2.0), math.sqrt(2.0 * 709.782712893384)])
NEAR_EDGES = np.concatenate([
    np.nextafter(ERF_EDGES, np.float32(0.0)), ERF_EDGES, np.nextafter(ERF_EDGES, np.float32(np.inf)),
])

# Zeros of both signs, subnormals, the float32 edges, erf's saturation and branch points.
EXTREMES = np.concatenate([np.array(
    [0.0, -0.0, 1e-45, -1e-45, 1e-38, -1e-38, 1e-8, -1e-8, 5.0, -5.0, 8.3, -8.3,
     40.0, -40.0, 3.4e38, -3.4e38, np.inf, -np.inf],
    dtype=np.float32,
), NEAR_EDGES, -NEAR_EDGES])


def old_gelu(x):
    """gelu as one expression, before it was computed in place."""
    m = numerics.as_matrix(x).astype(np.float64)
    return (0.5 * m * (1.0 + erf(m / math.sqrt(2.0)))).astype(np.float32)


def old_head_mean(probs):
    """attention_forward's head mean through a float64 copy of probs."""
    return probs.astype(np.float64).mean(axis=0).astype(np.float32)


def test_gelu_bytes_equal_old_expression():
    rng = numerics.make_rng(21)
    cases = [EXTREMES[None, :], EXTREMES[:, None]] + [
        rng.normal(0.0, scale, size=(7, 33)).astype(np.float32)
        for scale in (1e-3, 1.0, 3.0, 30.0)
    ]
    with np.errstate(invalid="ignore"):  # gelu(-inf) is -inf * 0
        for x in cases:
            assert model.gelu(x).tobytes() == old_gelu(x).tobytes()
        assert model.gelu(EXTREMES[None, :])[0, 1].tobytes() == np.float32(-0.0).tobytes()


def test_head_mean_bytes_equal_old_expression():
    # Through the forward: one to four heads, from near-uniform rows to
    # one-hot rows with exact zeros.
    for seed, heads, qk_scale in [(0, 1, 1.0), (1, 2, 1.0), (2, 4, 1.0), (3, 2, 1e3),
                                  (4, 4, 1e-3), (5, 1, 1e3)]:
        cfg, clip, weights = small_setup(seed, heads=heads)
        lw = weights.layers[0]
        lw = dataclasses.replace(lw, wq=lw.wq * qk_scale, wk=lw.wk * qk_scale)
        state = model.embed_clip(clip, SMALL, weights)
        _, maps = model.attention_forward(
            state, lw, cfg, SMALL.tube_frame_groups(), SMALL.n_groups, True
        )
        assert maps.head_mean_probs.tobytes() == old_head_mean(maps.probs).tobytes()
    # The float64 mean over heads without the copy, on values a softmax
    # cannot give: -0.0, subnormals and the float32 edges.
    rng = numerics.make_rng(22)
    for heads in (1, 2, 3, 8):
        probs = rng.choice(EXTREMES[np.isfinite(EXTREMES)], size=(heads, 5, 9))
        probs = probs * rng.uniform(0.5, 1.0, size=probs.shape).astype(np.float32)
        got = probs.mean(axis=0, dtype=np.float64).astype(np.float32)
        assert got.tobytes() == old_head_mean(probs).tobytes()


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
        base.features, np.full(base.count, 3.7), base.owner
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
    res = model.forward_clip(clip, SMALL, cfg, weights, [], model.NullReducer())
    assert [tr.tokens_out for tr in res.traces] == [8, 8, 8]
    assert res.final_state.count == 8
    merging.check_state(res.final_state, 8)


def test_forward_reduction_counts():
    cfg, clip, weights = small_setup(29)
    entering = []
    res = model.forward_clip(
        clip, SMALL, cfg, weights, [2, 2], model.TomeReducer(),
        sink=lambda layer, maps: entering.append(maps.head_mean_probs.shape[0]),
    )
    assert entering == [8, 6, 4]
    assert [tr.tokens_out for tr in res.traces] == [6, 4, 4]
    assert res.final_state.count == 4
    merging.check_state(res.final_state, 8)


def test_forward_provenance_partition_preserved():
    cfg, clip, weights = small_setup(31)
    res = model.forward_clip(clip, SMALL, cfg, weights, [3, 1], model.VidTldrReducer())
    covered = sorted(t for tubes in res.final_state.provenance for t in tubes)
    assert covered == list(range(8))


def test_forward_infeasible_schedule():
    cfg, clip, weights = small_setup(37)
    with pytest.raises(InfeasibleScheduleError):
        model.forward_clip(clip, SMALL, cfg, weights, [4, 4], model.TomeReducer())
    # merging reducers are planned with the floor(n/2) limit, pruning is not
    with pytest.raises(InfeasibleScheduleError, match="merge"):
        model.forward_clip(clip, SMALL, cfg, weights, [5], model.TomeReducer())
    pruner = model.PruneReducer(lambda state, maps, layer: state.masses)
    res = model.forward_clip(clip, SMALL, cfg, weights, [5], pruner)
    assert res.final_state.count == 3
    with pytest.raises(ValueError):
        model.forward_clip(clip, SMALL, cfg, weights, [1] * 4, model.TomeReducer())


def test_forward_deterministic():
    cfg, clip, weights = small_setup(41)

    def forward(**kw):
        return model.forward_clip(clip, SMALL, cfg, weights, [2], model.VidTldrReducer(), **kw)

    seen = ([], [])
    a = forward(sink=lambda layer, maps: seen[0].append((layer, maps)))
    b = forward(sink=lambda layer, maps: seen[1].append((layer, maps)))
    c = forward()
    for other in (b, c):
        assert_states_equal(a, other)
    for sink in seen:  # once per layer, in layer order
        assert [layer for layer, _ in sink] == list(range(cfg.layers))
    for n, (_, ma), (_, mb) in zip(entering_counts(a), *seen):
        assert ma.probs.shape == (cfg.heads, n, n)
        for field in ("probs", "head_mean_probs", "keys"):
            assert_array_equal(getattr(ma, field), getattr(mb, field))
        assert_array_equal(
            ma.probs.mean(axis=0, dtype=np.float64).astype(np.float32), ma.head_mean_probs
        )


def entering_counts(res):
    """Each layer's entering token count."""
    return [SMALL.n_tokens] + [tr.tokens_out for tr in res.traces[:-1]]


def assert_states_equal(a, b):
    """Two forwards left the same bits at every layer."""
    assert [tr.tokens_out for tr in a.traces] == [tr.tokens_out for tr in b.traces]
    for ta, tb in zip(a.traces, b.traces):
        for field in ("features", "masses", "owner"):
            x, y = getattr(ta.state_after, field), getattr(tb.state_after, field)
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes()


SINK_CASES = [
    ([], model.NullReducer()),
    ([2, 2], model.TomeReducer()),
    ([3, 1], model.VidTldrReducer()),
    ([4, 2, 1], model.PruneReducer(lambda state, maps, layer: state.masses)),
]


@pytest.mark.parametrize("schedule, reducer", SINK_CASES)
def test_sink_gets_each_layer_once_at_its_entering_count(schedule, reducer):
    cfg, clip, weights = small_setup(53)
    calls = []
    res = model.forward_clip(
        clip, SMALL, cfg, weights, schedule, reducer,
        sink=lambda layer, maps: calls.append((layer, maps)),
    )
    assert [layer for layer, _ in calls] == list(range(cfg.layers))
    for n, (_, maps) in zip(entering_counts(res), calls):
        assert maps.probs.dtype == maps.head_mean_probs.dtype == np.float32
        assert maps.probs.shape == (cfg.heads, n, n)
        assert maps.head_mean_probs.shape == (n, n)
        assert maps.keys.shape == (n, cfg.width)
        want = maps.probs.mean(axis=0, dtype=np.float64).astype(np.float32)
        assert maps.head_mean_probs.tobytes() == want.tobytes()


@pytest.mark.parametrize("schedule, reducer", SINK_CASES)
def test_forward_is_bit_identical_with_and_without_a_sink(schedule, reducer):
    cfg, clip, weights = small_setup(59)
    plain = model.forward_clip(clip, SMALL, cfg, weights, schedule, reducer)
    sunk = model.forward_clip(
        clip, SMALL, cfg, weights, schedule, reducer, sink=lambda layer, maps: None
    )
    assert_states_equal(plain, sunk)


def test_sink_runs_after_the_layer_wall_time():
    cfg, clip, weights = small_setup(61)
    res = model.forward_clip(
        clip, SMALL, cfg, weights, [2], model.TomeReducer(),
        sink=lambda layer, maps: time.sleep(0.25),
    )
    # An 8-token layer takes about a millisecond; the sleep would dominate.
    assert all(tr.wall_ms < 250.0 for tr in res.traces)


def test_a_raising_sink_stops_the_forward():
    cfg, clip, weights = small_setup(67)
    calls = []

    def sink(layer, maps):
        calls.append(layer)
        if layer == 1:
            raise OSError("sink failed at layer 1")

    with pytest.raises(OSError, match="sink failed at layer 1"):
        model.forward_clip(clip, SMALL, cfg, weights, [2], model.VidTldrReducer(), sink=sink)
    assert calls == [0, 1]


def test_traces_keep_no_maps():
    assert [f.name for f in dataclasses.fields(model.LayerTrace)] == [
        "tokens_out", "state_after", "wall_ms"
    ]
    assert not hasattr(model.ForwardResult, "head_mean_maps")


def test_null_reducer_refuses_reduction():
    cfg, clip, weights = small_setup(43)
    with pytest.raises(RuntimeError):
        model.forward_clip(clip, SMALL, cfg, weights, [2], model.NullReducer())


def test_reducers_produce_expected_counts():
    cfg, clip, weights = small_setup(47)
    for reducer in (
        model.TomeReducer(),
        model.VidTldrReducer(),
        model.PruneReducer(lambda state, maps, layer: state.masses),
    ):
        res = model.forward_clip(clip, SMALL, cfg, weights, [2, 1], reducer)
        assert res.final_state.count == 5
