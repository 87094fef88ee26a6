"""Toy spatio-temporal transformer kernel.

A clip of shape (frames, height, width, channels) is cut into
non-overlapping tubes of ``tube`` frames by ``patch`` x ``patch``
pixels. Each tube is flattened row-major (time, y, x, channel) and
projected to the model width; tokens are ordered time-group first,
then rows, then columns. Encoder layers are pre-norm transformer
blocks: LayerNorm, multi-head self-attention (per-head scaling by
1/sqrt(width/heads)), residual, LayerNorm, a GELU MLP at hidden ratio
4, residual. Projections carry no biases and LayerNorm has fixed unit
gain and zero shift, so the whole model is determined by the seeded
Gaussian init (std 0.02).

Two knobs make untrained weights behave like a trained encoder at desk
scale. The key projection is correlated with the query projection
(QK_COUPLING), which turns "these tokens look alike" into
systematically positive attention logits; with fully independent
random projections the sign of that effect is a coin flip per seed.
And an additive temporal bias on the attention logits tilts every
query toward early-frame keys (+tau for the first frame group, -tau
for the last, linear in between), standing in for the front-of-clip
preference that trained video encoders pick up.

Token reduction happens inside a layer, between the attention block
and the MLP, via a pluggable reducer.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass
from typing import Protocol

import numpy as np

from . import merging, numerics, saliency
from .costmodel import MLP_RATIO, plan_schedule

WEIGHT_STD = 0.02
QK_COUPLING = 0.7
LAYERNORM_EPS = 1e-5
# Elements per block of gelu: small enough that its float64 temporaries
# stay in cache, large enough that two threads running gelu at once make
# few numpy calls, each of which takes the interpreter lock.
GELU_BLOCK = 2**16


@dataclass(frozen=True)
class ClipSpec:
    """Geometry of an input clip and its tube tokenization."""

    frames: int
    height: int
    width: int
    tube: int
    patch: int
    channels: int = 3

    def __post_init__(self):
        for name in ("frames", "height", "width", "tube", "patch", "channels"):
            if getattr(self, name) < 1:
                raise ValueError(f"clip.{name} must be positive")
        if self.frames % self.tube != 0:
            raise ValueError(f"frames={self.frames} not divisible by tube={self.tube}")
        if self.height % self.patch != 0 or self.width % self.patch != 0:
            raise ValueError(
                f"spatial size {self.height}x{self.width} not divisible by patch={self.patch}"
            )

    @property
    def n_groups(self) -> int:
        return self.frames // self.tube

    @property
    def grid_h(self) -> int:
        return self.height // self.patch

    @property
    def grid_w(self) -> int:
        return self.width // self.patch

    @property
    def n_tokens(self) -> int:
        return self.n_groups * self.grid_h * self.grid_w

    @property
    def tube_dim(self) -> int:
        return self.tube * self.patch * self.patch * self.channels

    def tube_frame_groups(self) -> np.ndarray:
        """Frame group of each tube index (tokens are group-major)."""
        per_group = self.grid_h * self.grid_w
        return np.repeat(np.arange(self.n_groups, dtype=np.int64), per_group)


@dataclass(frozen=True)
class ModelConfig:
    width: int
    heads: int
    layers: int
    temporal_bias: float = 0.0

    def __post_init__(self):
        if self.width < 1 or self.heads < 1 or self.layers < 1:
            raise ValueError("model width, heads, and layers must be positive")
        if self.width % self.heads != 0:
            raise ValueError(
                f"model.width={self.width} not divisible by model.heads={self.heads}"
            )

    @property
    def head_dim(self) -> int:
        return self.width // self.heads


@dataclass(frozen=True)
class LayerWeights:
    wq: np.ndarray
    wk: np.ndarray
    wv: np.ndarray
    wo: np.ndarray
    w1: np.ndarray
    w2: np.ndarray


@dataclass(frozen=True)
class ModelWeights:
    """A model's weights. embed_clip reads only ``embed`` and forward_clip
    only iterates ``layers``, so a WeightStream can stand in for them."""

    embed: np.ndarray
    layers: tuple[LayerWeights, ...]


def init_weights(
    cfg: ModelConfig, spec: ClipSpec, seed: int, publish=None
) -> ModelWeights:
    """Seeded Gaussian init in a fixed draw order; the arrays are read-only.

    wk is drawn as QK_COUPLING * wq plus independent noise scaled to
    keep the same marginal std, so query and key spaces share most of
    their random directions. ``publish``, if given, is called with the
    embedding and then each LayerWeights as soon as it is drawn.
    """
    rng = numerics.make_rng(seed)
    c = cfg.width
    publish = publish or (lambda piece: None)

    def frozen(a: np.ndarray) -> np.ndarray:
        a.setflags(write=False)
        return a

    def draw(rows: int, cols: int) -> np.ndarray:
        return frozen(rng.normal(0.0, WEIGHT_STD, size=(rows, cols)).astype(np.float32))

    embed = draw(spec.tube_dim, c)
    publish(embed)
    noise_scale = math.sqrt(1.0 - QK_COUPLING**2)
    layers = []
    for _ in range(cfg.layers):
        wq = draw(c, c)
        wk = frozen((QK_COUPLING * wq + noise_scale * draw(c, c)).astype(np.float32))
        layers.append(
            LayerWeights(
                wq=wq,
                wk=wk,
                wv=draw(c, c),
                wo=draw(c, c),
                w1=draw(c, MLP_RATIO * c),
                w2=draw(MLP_RATIO * c, c),
            )
        )
        publish(layers[-1])
    return ModelWeights(embed=embed, layers=tuple(layers))


class WeightStream:
    """Model weights that one thread draws while others read them.

    ``draw`` runs init_weights, which publishes the embedding and then
    each layer in its draw order. ``embed`` and each step of ``layers``
    wait only for their own piece, so a forward starts as soon as the
    embedding is drawn, and any number of threads may read at once. If
    the draw raises, a read of a piece it did not publish raises the
    same error.
    """

    def __init__(self, layers: int):
        self._n = 1 + layers
        self._pieces = []
        self._error = None
        self._ready = threading.Condition()

    def draw(self, cfg: ModelConfig, spec: ClipSpec, seed: int) -> ModelWeights:
        try:
            return init_weights(cfg, spec, seed, publish=self._publish)
        except BaseException as e:
            with self._ready:
                self._error = e
                self._ready.notify_all()
            raise

    def _publish(self, piece) -> None:
        with self._ready:
            self._pieces.append(piece)
            self._ready.notify_all()

    def _piece(self, i: int):
        with self._ready:
            self._ready.wait_for(lambda: len(self._pieces) > i or self._error is not None)
            if len(self._pieces) > i:
                return self._pieces[i]
            raise self._error

    @property
    def embed(self) -> np.ndarray:
        return self._piece(0)

    @property
    def layers(self):
        return (self._piece(i) for i in range(1, self._n))


def layer_norm(x) -> np.ndarray:
    """Row-wise LayerNorm with unit gain and zero shift (float64 inside)."""
    m = numerics.as_matrix(x).astype(np.float64)
    mu = m.mean(axis=1, keepdims=True)
    var = ((m - mu) ** 2).mean(axis=1, keepdims=True)
    return ((m - mu) / np.sqrt(var + LAYERNORM_EPS)).astype(np.float32)


def gelu(x) -> np.ndarray:
    """Exact (erf-based) GELU: 0.5 * x * (1 + erf(x / sqrt(2))), in float64.

    ``numerics.erf`` gives Cephes' erf (``scipy.special.erf``) bit for
    bit. It assumes only that ``math.exp`` is the C library's exp, the
    one Cephes calls, and calls it only where |x| > sqrt(2), which no
    input at the model's scales reaches. gelu runs on whole rows of
    about GELU_BLOCK elements at a time; every element takes the same
    operations in the same order as in one whole-array pass.
    """
    x32 = numerics.as_matrix(x)
    out = np.empty(x32.shape, dtype=np.float32)
    rows = max(1, GELU_BLOCK // max(x32.shape[1], 1))
    for start in range(0, x32.shape[0], rows):
        m = x32[start:start + rows].astype(np.float64)
        t = numerics.erf(m / math.sqrt(2.0))
        t += 1.0
        m *= 0.5
        m *= t
        out[start:start + rows] = m
    return out


def embed_clip(clip: np.ndarray, spec: ClipSpec, weights: ModelWeights) -> merging.TokenState:
    """Cut the clip into tubes, project each to the model width, and
    return a fresh token state (unit masses, one tube per token)."""
    clip = np.ascontiguousarray(clip, dtype=np.float32)
    expected = (spec.frames, spec.height, spec.width, spec.channels)
    if clip.shape != expected:
        raise ValueError(f"clip shape {clip.shape} does not match spec {expected}")
    g, t, gh, p, gw = spec.n_groups, spec.tube, spec.grid_h, spec.patch, spec.grid_w
    tubes = (
        clip.reshape(g, t, gh, p, gw, p, spec.channels)
        .transpose(0, 2, 4, 1, 3, 5, 6)  # (group, row, col, dt, py, px, ch)
        .reshape(spec.n_tokens, spec.tube_dim)
    )
    return merging.new_state(numerics.matmul(tubes, weights.embed))


@dataclass(frozen=True)
class AttentionMaps:
    """One layer's attention tensors, plus the keys for matching.

    attention_forward makes them, the layer's reducer reads them and
    forward_clip then hands them to its sink; no trace keeps them.
    """

    probs: np.ndarray            # (heads, n, n) float32, row-stochastic
    head_mean_probs: np.ndarray  # (n, n) float32, arithmetic mean over heads
    keys: np.ndarray             # (n, width) float32, heads concatenated


def mean_frame_groups(state: merging.TokenState, tube_groups: np.ndarray) -> np.ndarray:
    """Mean original frame group of each live token (float64)."""
    # Group indices are small integers, so these sums are exact.
    return state.tube_mean(tube_groups)


def temporal_bias_values(mean_groups: np.ndarray, n_groups: int, tau: float) -> np.ndarray:
    """Additive key bias: +tau at frame group 0 down to -tau at the last."""
    if n_groups < 2 or tau == 0.0:
        return np.zeros_like(mean_groups)
    return tau * (1.0 - 2.0 * mean_groups / (n_groups - 1.0))


def attention_forward(
    state: merging.TokenState,
    lw: LayerWeights,
    cfg: ModelConfig,
    tube_groups: np.ndarray,
    n_groups: int,
    proportional: bool,
) -> tuple[merging.TokenState, AttentionMaps]:
    """One pre-norm self-attention block over the live tokens.

    Logits per head are Q K^T / sqrt(head_dim) plus the temporal key
    bias, plus log(mass) per key column when proportional attention is
    on. Returns the residual-updated state and the layer's maps.
    """
    x = state.features
    n = x.shape[0]
    xn = layer_norm(x)
    q = numerics.matmul(xn, lw.wq)
    k = numerics.matmul(xn, lw.wk)
    v = numerics.matmul(xn, lw.wv)

    bias = temporal_bias_values(
        mean_frame_groups(state, tube_groups), n_groups, cfg.temporal_bias
    )
    if proportional:
        bias = bias + np.log(np.maximum(state.masses, merging.MASS_EPS))

    d = cfg.head_dim
    scale = 1.0 / math.sqrt(d)
    probs = np.empty((cfg.heads, n, n), dtype=np.float32)
    heads_out = []
    for h in range(cfg.heads):
        sl = slice(h * d, (h + 1) * d)
        lg = numerics.matmul(q[:, sl], k[:, sl].T).astype(np.float64) * scale
        lg += bias[None, :]
        p = numerics.row_softmax(lg)
        probs[h] = p
        heads_out.append(numerics.matmul(p, v[:, sl]))
    merged_heads = np.concatenate(heads_out, axis=1)
    out = numerics.matmul(merged_heads, lw.wo)
    new_features = (x.astype(np.float64) + out.astype(np.float64)).astype(np.float32)
    head_mean = probs.mean(axis=0, dtype=np.float64).astype(np.float32)
    maps = AttentionMaps(probs=probs, head_mean_probs=head_mean, keys=k)
    return state.with_features(new_features), maps


def mlp_forward(features: np.ndarray, lw: LayerWeights) -> np.ndarray:
    """Pre-norm GELU MLP block with residual."""
    xn = layer_norm(features)
    hidden = gelu(numerics.matmul(xn, lw.w1))
    out = numerics.matmul(hidden, lw.w2)
    return (features.astype(np.float64) + out.astype(np.float64)).astype(np.float32)


class Reducer(Protocol):
    """Removes r tokens between a layer's attention and its MLP. It may
    declare ``merging`` (bipartite: the floor(n/2) plan and proportional
    attention) and ``reads_rollout`` (it reads the clean forward's
    rollout table); both default to false."""

    def reduce(
        self, state: merging.TokenState, maps: AttentionMaps, r: int, layer: int
    ) -> merging.TokenState: ...


class NullReducer:
    """Reducer for the baseline mode; refuses to remove anything."""

    def reduce(self, state, maps, r, layer):
        raise RuntimeError("baseline forward must not request token reduction")


class TomeReducer:
    """Plain bipartite soft matching with mass-weighted merging."""

    merging = True

    def reduce(self, state, maps, r, layer):
        part = merging.bipartition(state.count)
        match = merging.soft_match(maps.keys, part, r)
        return merging.tome_merge(state, match)


class VidTldrReducer:
    """Saliency-aware merging driven by the layer's own attention map."""

    merging = True

    def reduce(self, state, maps, r, layer):
        scores = saliency.masked_saliency_from_map(maps.head_mean_probs)
        part = merging.bipartition(state.count)
        match = merging.soft_match(maps.keys, part, r)
        masses = merging.vidtldr_mass_update(state, part, scores)
        return merging.vidtldr_merge(state, match, masses)


class PruneReducer:
    """Drops the lowest-scoring tokens; the score function is injected."""

    def __init__(self, score_fn, reads_rollout: bool = False):
        self._score_fn = score_fn
        self.reads_rollout = reads_rollout

    def reduce(self, state, maps, r, layer):
        scores = self._score_fn(state, maps, layer)
        return merging.prune_lowest(state, scores, r)


@dataclass(frozen=True)
class LayerTrace:
    """What one layer leaves behind once it is done: its token count
    out, the state after it and its wall time. Its attention maps go
    only to forward_clip's sink."""

    tokens_out: int
    state_after: merging.TokenState
    wall_ms: float


@dataclass(frozen=True)
class ForwardResult:
    spec: ClipSpec
    traces: tuple[LayerTrace, ...]

    @property
    def final_state(self) -> merging.TokenState:
        return self.traces[-1].state_after


def forward_clip(
    clip: np.ndarray,
    spec: ClipSpec,
    cfg: ModelConfig,
    weights: ModelWeights,
    schedule: list[int],
    reducer: Reducer,
    *,
    sink=None,
) -> ForwardResult:
    """Run the encoder over a clip, reducing tokens per the schedule.

    Layer l removes schedule[l] tokens between its attention block and
    its MLP. costmodel.plan_schedule checks the schedule up front, with
    the floor(n/2) merge limit for a reducer whose ``merging`` is true.
    Proportional attention applies exactly when the reducer merges.
    The ``sink``, if given, is called as ``sink(layer, maps)`` with each
    layer's AttentionMaps, at the n tokens it took in, once that layer's
    wall time is taken. It is the maps' one exit: no trace keeps them.
    """
    merges = getattr(reducer, "merging", False)
    full = plan_schedule(spec.n_tokens, cfg.layers, schedule, merging=merges)
    state = embed_clip(clip, spec, weights)
    tube_groups = spec.tube_frame_groups()
    traces = []
    for layer, (lw, r) in enumerate(zip(weights.layers, full)):
        t0 = time.perf_counter()
        state, maps = attention_forward(
            state, lw, cfg, tube_groups, spec.n_groups, merges
        )
        if r > 0:
            state = reducer.reduce(state, maps, r, layer)
            merging.check_state(state, spec.n_tokens)
        state = state.with_features(mlp_forward(state.features, lw))
        traces.append(
            LayerTrace(
                tokens_out=state.count,
                state_after=state,
                wall_ms=(time.perf_counter() - t0) * 1e3,
            )
        )
        if sink is not None:
            sink(layer, maps)
    return ForwardResult(spec=spec, traces=tuple(traces))
