"""Run orchestration: wires clips, model, reduction, costs, and CSV output.

Each run derives two child seeds from run.seed (clip voxels, model
weights), executes one no-reduction forward (the reference for rollout
scores and the frame-ratio table) plus the mode's forward, and writes
its artifacts under <out.dir>/<run_id>/:

    config.txt       effective config, canonical form (the run_id hash input)
    metrics.csv      one row per layer: counts, FLOPs, saliency, wall time
    frame_ratio.csv  per-frame score ratios of the three estimators
    mass.csv         final mass per original tube (token mass / its tube
                     count; exactly 0.0 for tubes a prune mode dropped)
    pooled.vtdr      mass-weighted mean of the final token features
    attention_l*.vtdr, tokens.vtdr, masses.vtdr   (optional dumps)

The mode's reducer comes from RunConfig.reducers; with none (baseline)
the clean forward is the run's result. The forwards share only the
clip and the weights, both read-only, unless the reducer declares
``reads_rollout`` (prune-rollout) and reads the clean rollout table.

A run whose analytical MACs reach CONCURRENT_MIN_MACS, on a process
that may use at least two CPUs, uses three threads; _inputs alone
makes that choice. A pool thread draws the weights into a
model.WeightStream while the calling thread builds the clip, and each
forward waits only for the layer it is about to run. Unless the mode
has no reducer or its reducer reads the rollout, the pool's other
thread then runs the reduced forward while the calling thread runs the
clean forward and the rollout. clean_forward streams its weights the
same way. Below that size the threads would mostly wait for the
interpreter lock, so everything runs on the calling thread. The choice
does not change an output bit: the draw order is init_weights' alone,
every product is certified independent of BLAS's summation order, and
nothing reachable from forward_clip keeps state between calls. A call
joins every thread it starts before it returns or raises.

Everything except the wall_ms column is byte-reproducible for a fixed
config. wall_ms times each layer of the mode's forward, from the moment
its weights are drawn; on a large run it shares the CPU with the other
threads.

The artifacts are first written into a new hidden directory under
out.dir, made before the forwards, which is then renamed to <run_id>/,
replacing the directory of an earlier run of the same config. A run
that raises removes what it wrote, once every thread that could still
write there is joined, so <run_id>/ is either complete or as an earlier
run left it.

Each layer's attention maps leave forward_clip only through its sink.
The clean forward's sink keeps the head means, for the rollout and
frame_ratio.csv, until run returns. The result forward's sink writes
the layer's probs into the hidden directory with dump.attention and
takes its metrics.csv mean_saliency, so its maps die with the layer;
on an overlapped run that work is the worker thread's. Of the two
forwards, a RunResult keeps only their traces (token counts, states and
wall times), and no n x n map.
"""

from __future__ import annotations

import csv
import os
import shutil
import tempfile
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .. import costmodel, numerics, saliency
from ..merging import TokenState
from ..model import (
    ClipSpec,
    ForwardResult,
    NullReducer,
    WeightStream,
    forward_clip,
    init_weights,
)
from .clips import SynthClip, synth_clip
from .config import CLIP_IDENTITY, ConfigError, InvariantError, RunConfig, load_config
from .tensorio import dump_tensor, load_tensor

METRICS_HEADER = ["run_id", "mode", "layer", "token_count", "flops", "mean_saliency", "wall_ms"]
RATIO_HEADER = ["frame_index", "ratio_attentiveness", "ratio_rollout", "ratio_masked_saliency"]
MASS_HEADER = ["tube_index", "frame_group", "mass_share"]
COMPARE_HEADER = ["run_id", "mode", "total_flops", "final_tokens", "token_trajectory", "feature_distance"]

# Analytical MACs from which a run overlaps its two forwards. On a 2-CPU
# host the overlap broke even between 33M MACs (128 tokens, width 64)
# and 57M (196 tokens, width 64).
CONCURRENT_MIN_MACS = 10**8


class ArtifactError(ValueError):
    """A run directory file that exists but does not hold its format."""


def _fmt(x: float) -> str:
    return repr(float(x))


def pooled_features(state: TokenState) -> np.ndarray:
    """Mass-weighted mean feature vector of a state, shape (1, width)."""
    w = state.masses
    num = (w[:, None] * state.features.astype(np.float64)).sum(axis=0)
    return (num / w.sum()).astype(np.float32)[None, :]


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


def compute_frame_ratios(
    spec: ClipSpec, head_means: list[np.ndarray], rollout: np.ndarray
) -> np.ndarray:
    """Per-frame ratios of the three estimators at the first layer.

    ``head_means`` are the no-reduction forward's head-mean maps, in
    layer order, and ``rollout`` their ``attention_rollout`` table.
    Returns an (n_groups, 3) array: attentiveness, rollout (row 0 of
    the table, from layer 0 through the last), and masked sharpness
    saliency.
    """
    first = head_means[0]
    frame_of = spec.tube_frame_groups()
    g = spec.n_groups
    cols = [
        saliency.frame_score_ratio(saliency.attentiveness(first), frame_of, g),
        saliency.frame_score_ratio(rollout[0], frame_of, g),
        saliency.frame_score_ratio(saliency.masked_saliency_from_map(first), frame_of, g),
    ]
    return np.stack(cols, axis=1)


def write_frame_ratios(path: Path, ratios: np.ndarray) -> None:
    """Write compute_frame_ratios' table as frame_ratio.csv."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(RATIO_HEADER)
        for g, row in enumerate(ratios):
            w.writerow([g] + [_fmt(x) for x in row])


@contextmanager
def _inputs(cfg: RunConfig, macs: int):
    """Yield a run's clip, its weights and a two-thread pool, or None.

    run.seed derives two child seeds, one for the clip voxels and one
    for the model weights. From CONCURRENT_MIN_MACS analytical ``macs``,
    on two usable CPUs, a pool thread draws the weights into a
    WeightStream while this thread builds the clip, and the pool's other
    thread is free for the reduced forward; below, there is no pool.
    Leaving the block, also by an exception, joins both threads.
    """
    spec = cfg.clip_spec()
    clip_seed, weight_seed = numerics.spawn_seeds(cfg.seed, 2)
    if macs < CONCURRENT_MIN_MACS or _usable_cpus() < 2:
        synth = synth_clip(spec, clip_seed, cfg.pattern)
        yield synth, init_weights(cfg.model_config(), spec, weight_seed), None
        return
    weights = WeightStream(cfg.layers)
    with ThreadPoolExecutor(max_workers=2) as pool:
        drawing = pool.submit(weights.draw, cfg.model_config(), spec, weight_seed)
        yield synth_clip(spec, clip_seed, cfg.pattern), weights, pool
    drawing.result()


def clean_forward(cfg: RunConfig, sink=None) -> ForwardResult:
    """A run's no-reduction forward; ``sink`` is forward_clip's."""
    macs = costmodel.schedule_flops(cfg.cost_config(), []).total_flops
    with _inputs(cfg, macs) as (synth, weights, _):
        return _clean_forward(cfg, synth, weights, sink)


def _clean_forward(cfg: RunConfig, synth: SynthClip, weights, sink) -> ForwardResult:
    return forward_clip(
        synth.clip, cfg.clip_spec(), cfg.model_config(), weights, [], NullReducer(),
        sink=sink,
    )


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run(cfg: RunConfig) -> RunResult:
    """Execute one configured run and write its artifacts."""
    cost = costmodel.schedule_flops(cfg.cost_config(), cfg.schedule)
    reducer = cfg.reducers(None)[cfg.mode]
    out_root = Path(cfg.out_dir)
    out_root.mkdir(parents=True, exist_ok=True)
    out_dir = out_root / cfg.run_id
    staging = Path(tempfile.mkdtemp(prefix=f".{cfg.run_id}-", dir=out_root))
    run_dir = staging / cfg.run_id
    try:
        run_dir.mkdir()
        head_means, mean_saliency = [], []

        # The run's result is the reduced forward, or baseline's clean one.
        def result_sink(layer, maps):
            if cfg.dump_attention:
                dump_tensor(run_dir / f"attention_l{layer:02d}.vtdr", maps.probs)
            mean_saliency.append(
                float(saliency.masked_saliency_from_map(maps.head_mean_probs).mean())
            )

        def clean_sink(layer, maps):
            head_means.append(maps.head_mean_probs)
            if reducer is None:
                result_sink(layer, maps)

        with _inputs(cfg, cost.total_flops) as (synth, weights, pool):

            def clean_and_rollout():
                clean = _clean_forward(cfg, synth, weights, clean_sink)
                return clean, saliency.attention_rollout(head_means)

            def reduced(by):
                return forward_clip(
                    synth.clip, cfg.clip_spec(), cfg.model_config(), weights, cfg.schedule,
                    by, sink=result_sink,
                )

            if pool is None or reducer is None or getattr(reducer, "reads_rollout", False):
                clean, rollout = clean_and_rollout()
                result = clean if reducer is None else reduced(cfg.reducers(rollout)[cfg.mode])
            else:
                pending = pool.submit(reduced, reducer)
                clean, rollout = clean_and_rollout()
                result = pending.result()

        observed = tuple(tr.tokens_out for tr in result.traces)
        if observed != cost.token_trajectory:
            raise RuntimeError(
                f"forward token trajectory {observed} diverged from cost model "
                f"{cost.token_trajectory}"
            )
        ratios = compute_frame_ratios(cfg.clip_spec(), head_means, rollout)
        _write_artifacts(run_dir, cfg, cost, ratios, mean_saliency, result)
        try:  # move an earlier run's directory aside; the rmtree below removes it
            out_dir.rename(staging / "replaced")
        except FileNotFoundError:
            pass
        run_dir.rename(out_dir)
    finally:  # reached only once _inputs has joined every thread that could write here
        shutil.rmtree(staging, ignore_errors=True)

    return RunResult(
        run_id=cfg.run_id, config=cfg, out_dir=out_dir,
        clip=synth, clean=clean, result=result, cost=cost,
    )


def _write_artifacts(
    run_dir: Path, cfg: RunConfig, cost: costmodel.CostReport,
    ratios: np.ndarray, mean_saliency: list[float], result: ForwardResult,
) -> None:
    """Write a run's artifacts, but for the attention dumps, into ``run_dir``."""
    spec = cfg.clip_spec()
    (run_dir / "config.txt").write_text(cfg.canonical_text())

    with open(run_dir / "metrics.csv", "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(METRICS_HEADER)
        for l, (tr, mean_sal) in enumerate(zip(result.traces, mean_saliency)):
            w.writerow([
                cfg.run_id, cfg.mode, l, tr.tokens_out,
                cost.per_layer_flops[l], _fmt(mean_sal), _fmt(tr.wall_ms),
            ])

    write_frame_ratios(run_dir / "frame_ratio.csv", ratios)

    final = result.final_state
    live = final.owner >= 0
    tube_share = np.zeros(spec.n_tokens, dtype=np.float64)
    tube_share[live] = (final.masses / final.sizes)[final.owner[live]]
    frame_of = spec.tube_frame_groups()
    with open(run_dir / "mass.csv", "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(MASS_HEADER)
        for t in range(spec.n_tokens):
            w.writerow([t, int(frame_of[t]), _fmt(tube_share[t])])

    dump_tensor(run_dir / "pooled.vtdr", pooled_features(final))
    if cfg.dump_tokens:
        dump_tensor(run_dir / "tokens.vtdr", final.features)
        dump_tensor(run_dir / "masses.vtdr", final.masses.astype(np.float32))


def _read_artifacts(run_dir: Path) -> tuple[np.ndarray, int, list[str]]:
    """A completed run's pooled features, total FLOPs and token trajectory."""
    try:
        pooled = load_tensor(run_dir / "pooled.vtdr")
    except ValueError as e:  # the message names the file
        raise ArtifactError(str(e)) from None
    path = run_dir / "metrics.csv"
    try:
        with open(path, newline="") as f:
            recs = list(csv.DictReader(f))
        total = sum(int(rec["flops"]) for rec in recs)
        trajectory = [rec["token_count"] for rec in recs]
    except (KeyError, TypeError, ValueError) as e:
        raise ArtifactError(f"{path}: malformed rows: {e!r}") from None
    if not trajectory:
        raise ArtifactError(f"{path}: no layer rows")
    return pooled, total, trajectory


def compare(run_dirs: list) -> tuple[list[str], list[list[str]]]:
    """Side-by-side comparison of completed runs sharing one clip and seed.

    The first directory is the reference; feature_distance is the
    cosine distance between each run's pooled final features and the
    reference's (exactly 0.0 for bit-identical features). A config.txt,
    pooled.vtdr or metrics.csv that does not parse raises ArtifactError,
    and pooled features of another shape than the reference's raise
    InvariantError.
    """
    if len(run_dirs) < 2:
        raise InvariantError("compare needs at least 2 run directories")
    try:
        configs = [load_config(Path(d) / "config.txt") for d in run_dirs]
    except ConfigError as e:  # the message names the file
        raise ArtifactError(str(e)) from None
    ref = configs[0]
    for d, c in zip(run_dirs[1:], configs[1:]):
        bad = [f for f in CLIP_IDENTITY if getattr(c, f) != getattr(ref, f)]
        if bad:
            raise InvariantError(
                f"mismatched clip specs: {d} differs from {run_dirs[0]} on {', '.join(bad)}"
            )

    artifacts = [_read_artifacts(Path(d)) for d in run_dirs]
    ref_pooled = artifacts[0][0]
    for d, (pooled, _, _) in zip(run_dirs[1:], artifacts[1:]):
        if pooled.shape != ref_pooled.shape:
            raise InvariantError(
                f"mismatched feature widths: {d} pools {pooled.shape}, "
                f"{run_dirs[0]} pools {ref_pooled.shape}"
            )
    rows = []
    for c, (pooled, total, trajectory) in zip(configs, artifacts):
        if np.array_equal(pooled, ref_pooled):
            dist = 0.0
        else:
            dist = 1.0 - numerics.cosine_sim(pooled.ravel(), ref_pooled.ravel())
        rows.append([
            c.run_id, c.mode, str(total), trajectory[-1],
            " ".join(trajectory), _fmt(dist),
        ])
    return COMPARE_HEADER, rows
