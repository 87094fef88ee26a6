"""Run orchestration: wires clips, model, reduction, costs, and CSV output.

Each run derives two child seeds from run.seed (clip voxels, model
weights), executes one no-reduction forward (the reference for rollout
scores and the frame-ratio table) plus the mode's forward, and writes
its artifacts under <out.dir>/<run_id>/:

    config.txt       effective config, canonical form (the run_id hash input)
    metrics.csv      one row per layer: counts, FLOPs, saliency, wall time
    frame_ratio.csv  per-frame score ratios of the three estimators
    mass.csv         final mass per original tube (mass / provenance size;
                     exactly 0.0 for tubes a prune mode dropped)
    pooled.vtdr      mass-weighted mean of the final token features
    attention_l*.vtdr, tokens.vtdr, masses.vtdr   (optional dumps)

Everything except the wall_ms column is byte-reproducible for a fixed
config.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .. import costmodel, numerics, saliency
from ..merging import TokenState
from ..model import (
    ForwardResult,
    ModelWeights,
    NullReducer,
    PruneReducer,
    TomeReducer,
    VidTldrReducer,
    forward_clip,
    init_weights,
)
from .clips import SynthClip, synth_clip
from .config import MERGE_MODES, InvariantError, RunConfig, load_config
from .tensorio import dump_tensor, load_tensor

METRICS_HEADER = ["run_id", "mode", "layer", "token_count", "flops", "mean_saliency", "wall_ms"]
RATIO_HEADER = ["frame_index", "ratio_attentiveness", "ratio_rollout", "ratio_masked_saliency"]
MASS_HEADER = ["tube_index", "frame_group", "mass_share"]
COMPARE_HEADER = ["run_id", "mode", "total_flops", "final_tokens", "token_trajectory", "feature_distance"]


def _fmt(x: float) -> str:
    return repr(float(x))


def pooled_features(state: TokenState) -> np.ndarray:
    """Mass-weighted mean feature vector of a state, shape (1, width)."""
    w = state.masses
    num = (w[:, None] * state.features.astype(np.float64)).sum(axis=0)
    return (num / w.sum()).astype(np.float32)[None, :]


def _rollout_prune_reducer(clean_maps: list[np.ndarray]):
    tables = [
        saliency.attention_rollout(clean_maps, from_layer=l)
        for l in range(len(clean_maps))
    ]

    def score(state: TokenState, maps, layer: int) -> np.ndarray:
        table = tables[layer]
        return np.array(
            [table[list(tubes)].mean() for tubes in state.provenance], dtype=np.float64
        )

    return PruneReducer(score)


def build_reducer(mode: str, clean_maps: list[np.ndarray]):
    if mode == "baseline":
        return NullReducer()
    if mode == "tome":
        return TomeReducer()
    if mode == "vidtldr":
        return VidTldrReducer()
    if mode == "prune-attentiveness":
        return PruneReducer(
            lambda state, maps, layer: saliency.attentiveness(maps.head_mean_probs)
        )
    if mode == "prune-sharpness":
        return PruneReducer(
            lambda state, maps, layer: saliency.sharpness_saliency(maps.head_mean_probs)
        )
    if mode == "prune-rollout":
        return _rollout_prune_reducer(clean_maps)
    raise ValueError(f"unknown mode {mode!r}")


@dataclass(frozen=True)
class RunResult:
    run_id: str
    config: RunConfig
    out_dir: Path
    clip: SynthClip
    clean: ForwardResult
    result: ForwardResult
    cost: costmodel.CostReport

    @property
    def final_state(self) -> TokenState:
        return self.result.final_state


def compute_frame_ratios(clean: ForwardResult) -> np.ndarray:
    """Per-frame ratios of the three estimators at the first layer.

    Returns an (n_groups, 3) array: attentiveness, rollout (from layer
    0 through the last), and masked sharpness saliency, all measured on
    the no-reduction forward.
    """
    first = clean.traces[0].maps.head_mean_probs
    maps = clean.head_mean_maps()
    frame_of = clean.spec.tube_frame_groups()
    g = clean.spec.n_groups
    cols = [
        saliency.frame_score_ratio(saliency.attentiveness(first), frame_of, g),
        saliency.frame_score_ratio(saliency.attention_rollout(maps, 0), frame_of, g),
        saliency.frame_score_ratio(saliency.masked_saliency_from_map(first), frame_of, g),
    ]
    return np.stack(cols, axis=1)


def clean_forward(cfg: RunConfig) -> tuple[SynthClip, ModelWeights, ForwardResult]:
    """Build a run's clip and weights and its no-reduction forward.

    run.seed derives two child seeds, one for the clip voxels and one
    for the model weights.
    """
    spec = cfg.clip_spec()
    model_cfg = cfg.model_config()
    clip_seed, weight_seed = numerics.spawn_seeds(cfg.seed, 2)
    synth = synth_clip(spec, clip_seed, cfg.pattern)
    weights = init_weights(model_cfg, spec, weight_seed)
    clean = forward_clip(
        synth.clip, spec, model_cfg, weights, [], NullReducer(), proportional=False
    )
    return synth, weights, clean


def run(cfg: RunConfig) -> RunResult:
    """Execute one configured run and write its artifacts."""
    spec = cfg.clip_spec()
    synth, weights, clean = clean_forward(cfg)
    if cfg.mode == "baseline":
        result = clean
    else:
        reducer = build_reducer(cfg.mode, clean.head_mean_maps())
        result = forward_clip(
            synth.clip, spec, cfg.model_config(), weights,
            cfg.schedule, reducer, proportional=cfg.mode in MERGE_MODES,
        )

    cost = costmodel.schedule_flops(cfg.cost_config(), cfg.schedule)
    observed = tuple(tr.tokens_out for tr in result.traces)
    if observed != cost.token_trajectory:
        raise RuntimeError(
            f"forward token trajectory {observed} diverged from cost model "
            f"{cost.token_trajectory}"
        )

    out_dir = Path(cfg.out_dir) / cfg.run_id
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "config.txt").write_text(cfg.canonical_text())

    with open(out_dir / "metrics.csv", "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(METRICS_HEADER)
        for l, tr in enumerate(result.traces):
            mean_sal = float(
                saliency.masked_saliency_from_map(tr.maps.head_mean_probs).mean()
            )
            w.writerow([
                cfg.run_id, cfg.mode, l, tr.tokens_out,
                cost.per_layer_flops[l], _fmt(mean_sal), _fmt(tr.wall_ms),
            ])

    ratios = compute_frame_ratios(clean)
    with open(out_dir / "frame_ratio.csv", "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(RATIO_HEADER)
        for g in range(ratios.shape[0]):
            w.writerow([g, _fmt(ratios[g, 0]), _fmt(ratios[g, 1]), _fmt(ratios[g, 2])])

    final = result.final_state
    tube_share = np.zeros(spec.n_tokens, dtype=np.float64)
    for mass, tubes in zip(final.masses, final.provenance):
        for t in tubes:
            tube_share[t] = mass / len(tubes)
    frame_of = spec.tube_frame_groups()
    with open(out_dir / "mass.csv", "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(MASS_HEADER)
        for t in range(spec.n_tokens):
            w.writerow([t, int(frame_of[t]), _fmt(tube_share[t])])

    dump_tensor(out_dir / "pooled.vtdr", pooled_features(final))
    if cfg.dump_attention:
        for l, tr in enumerate(result.traces):
            dump_tensor(out_dir / f"attention_l{l:02d}.vtdr", tr.maps.probs)
    if cfg.dump_tokens:
        dump_tensor(out_dir / "tokens.vtdr", final.features)
        dump_tensor(out_dir / "masses.vtdr", final.masses.astype(np.float32))

    return RunResult(
        run_id=cfg.run_id, config=cfg, out_dir=out_dir,
        clip=synth, clean=clean, result=result, cost=cost,
    )


def compare(run_dirs: list) -> tuple[list[str], list[list[str]]]:
    """Side-by-side comparison of completed runs sharing one clip and seed.

    The first directory is the reference; feature_distance is the
    cosine distance between each run's pooled final features and the
    reference's (exactly 0.0 for bit-identical features).
    """
    if len(run_dirs) < 2:
        raise InvariantError("compare needs at least 2 run directories")
    configs = []
    for d in run_dirs:
        configs.append(load_config(Path(d) / "config.txt"))
    ref = configs[0]
    clip_fields = ("frames", "height", "width", "tube", "patch", "channels", "pattern", "seed")
    for d, c in zip(run_dirs[1:], configs[1:]):
        bad = [f for f in clip_fields if getattr(c, f) != getattr(ref, f)]
        if bad:
            raise InvariantError(
                f"mismatched clip specs: {d} differs from {run_dirs[0]} on {', '.join(bad)}"
            )

    ref_pooled = load_tensor(Path(run_dirs[0]) / "pooled.vtdr")
    rows = []
    for d, c in zip(run_dirs, configs):
        pooled = load_tensor(Path(d) / "pooled.vtdr")
        if np.array_equal(pooled, ref_pooled):
            dist = 0.0
        else:
            dist = 1.0 - numerics.cosine_sim(pooled.ravel(), ref_pooled.ravel())
        total = 0
        trajectory = []
        with open(Path(d) / "metrics.csv", newline="") as f:
            for rec in csv.DictReader(f):
                total += int(rec["flops"])
                trajectory.append(rec["token_count"])
        rows.append([
            c.run_id, c.mode, str(total), trajectory[-1],
            " ".join(trajectory), _fmt(dist),
        ])
    return COMPARE_HEADER, rows
