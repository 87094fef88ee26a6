"""Run orchestration: wires clips, model, reduction, costs, and CSV output.

Each run writes its artifacts under <out.dir>/<run_id>/:

    config.txt       effective config, canonical form (the run_id hash input)
    metrics.csv      one row per layer: counts, FLOPs, saliency, wall time
    frame_ratio.csv  per-frame score ratios of the three estimators
    mass.csv         final mass per original tube (token mass / its tube
                     count; exactly 0.0 for tubes a prune mode dropped)
    pooled.vtdr      mass-weighted mean of the final token features
    attention_l*.vtdr, tokens.vtdr, masses.vtdr   (optional dumps)

Everything except the wall_ms column is byte-reproducible for a fixed
config, on either thread plan: the draw order is init_weights' alone,
every product is certified independent of BLAS's summation order, the
threads only read the voxels and the weights, and nothing reachable
from forward_clip keeps state between calls. wall_ms times each layer
of the result forward from the moment its weights are drawn; with two
threads it may share the CPU with the other one.

Every thread, pool and future of the program lives in this module, and
a call joins each thread it starts before it returns or raises.

The artifacts are first written into a new hidden directory under
out.dir, made before the forwards, which is then renamed to <run_id>/,
replacing the directory of an earlier run of the same config. A run
that raises removes what it wrote, once every thread that could still
write there is joined, so <run_id>/ is either complete or as an earlier
run left it.

Of the two forwards, a RunResult keeps only their traces (each layer's
token count and wall time, and the final state), and no n x n map; of
the clip, it keeps the recipe and not the voxels.
"""

from __future__ import annotations

import csv
import shutil
import tempfile
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .. import costmodel, model, numerics, saliency
from ..merging import TokenState
from ..model import ForwardResult, forward_clip
from . import clips
from .config import CLIP_IDENTITY, ConfigError, InvariantError, RunConfig, load_config
from .tensorio import dump_tensor, load_tensor

METRICS_HEADER = ["run_id", "mode", "layer", "token_count", "flops", "mean_saliency", "wall_ms"]
RATIO_HEADER = ["frame_index", "ratio_attentiveness", "ratio_rollout", "ratio_masked_saliency"]
MASS_HEADER = ["tube_index", "frame_group", "mass_share"]
COMPARE_HEADER = ["run_id", "mode", "total_flops", "final_tokens", "token_trajectory", "feature_distance"]

# Analytical MACs from which a run uses two threads. Below it a second
# thread costs memory, since both forwards' arrays are alive at once, and
# time. Six-mode rounds at width 64 on a 2-vCPU host (one BLAS thread,
# 20 alternating pairs), two threads against one: 288 vs 292 ms at 64
# tokens (vidtldr 14.7M MACs, faster in 12/20), 375 vs 396 ms at 128
# (32.7M, 13/20) and 469 vs 522 ms at 196 (56.7M, 18/20). On the
# 64-token desk-sweep benchmark (same host, 10 alternating pairs of 20 s
# runs, medians), two threads took 42.9 vs 38.2 ms per run, slower in
# 7/10 pairs (one-thread IQR 8.0 ms), and raised peak RSS from 46.74 to
# 48.01 MB, higher in 10/10 (IQR 0.17 MB).
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
    clip: clips.SynthClip
    clean: ForwardResult
    result: ForwardResult
    cost: costmodel.CostReport

    @property
    def final_state(self) -> TokenState:
        return self.result.final_state


def write_frame_ratios(path: Path, ratios: np.ndarray) -> None:
    """Write the (n_groups, 3) frame-ratio table of _execute as frame_ratio.csv."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(RATIO_HEADER)
        for g, row in enumerate(ratios):
            w.writerow([g] + [_fmt(x) for x in row])


class WeightStream:
    """Model weights that one thread draws while others read them.

    ``draw`` runs model.init_weights, which publishes the embedding and
    then each layer in its draw order, each into its own future.
    ``embed`` and each step of ``layers`` wait only for their own piece,
    so a forward starts as soon as the embedding is drawn, and any
    number of threads may read at once. If the draw raises, a read of a
    piece it did not publish raises the same error.
    """

    def __init__(self, layers: int):
        self._pieces = [Future() for _ in range(1 + layers)]

    def draw(self, cfg, spec, seed) -> model.ModelWeights:
        unpublished = iter(self._pieces)
        try:
            return model.init_weights(
                cfg, spec, seed, publish=lambda piece: next(unpublished).set_result(piece)
            )
        except BaseException as e:
            for piece in unpublished:
                piece.set_exception(e)
            raise

    @property
    def embed(self) -> np.ndarray:
        return self._pieces[0].result()

    @property
    def layers(self):
        return (piece.result() for piece in self._pieces[1:])


@contextmanager
def _inputs(cfg: RunConfig, macs: int):
    """Yield a run's clip recipe, its voxels, its weights and a
    one-worker pool, or None.

    run.seed derives two child seeds, one for the clip voxels and one
    for the model weights. The voxels are built once, with
    clips.synth_clip, and every forward of the run reads that one
    read-only array. The run's analytical ``macs`` alone choose the
    thread plan, so a config submits the same tasks on any host. From
    CONCURRENT_MIN_MACS, the pool's one worker draws the weights into a
    WeightStream while this thread builds the voxels, then runs the
    tasks submitted after the draw, in submission order; so such a task
    reads only pieces the draw has published, and one that waited on a
    later task would deadlock. Below, there is no pool and everything
    runs on this thread. Leaving the block, also by an exception, joins
    the worker.
    """
    spec = cfg.clip_spec()
    clip_seed, weight_seed = numerics.spawn_seeds(cfg.seed, 2)
    synth = clips.SynthClip(spec, clip_seed, cfg.pattern)
    draw = (cfg.model_config(), spec, weight_seed)
    if macs < CONCURRENT_MIN_MACS:
        yield synth, clips.synth_clip(synth), model.init_weights(*draw), None
        return
    weights = WeightStream(cfg.layers)
    with ThreadPoolExecutor(max_workers=1) as pool:
        drawing = pool.submit(weights.draw, *draw)
        yield synth, clips.synth_clip(synth), weights, pool
    drawing.result()


def clean_forward(cfg: RunConfig, sink=None):
    """A run's clean reference (its forward, rollout table and frame
    ratios): the forwards of the config made baseline, on the same clip."""
    _, clean, rollout, ratios, _, _ = _execute(replace(cfg, mode="baseline", schedule=()), sink)
    return clean, rollout, ratios


def _execute(cfg: RunConfig, sink=None):
    """A run's forwards, in memory, touching no disk: the clip recipe, the
    no-reduction forward, the attention_rollout table of its head means,
    the (n_groups, 3) per-frame ratios at the first layer (attentiveness,
    rollout row 0, masked sharpness saliency), the result forward, whose
    maps go on to ``sink``, and the cost report its trajectory matches.

    The mode's reducer comes from RunConfig.reducers. With a pool from
    _inputs, the reduced forward goes to its worker, unless the mode has
    no reducer (baseline: the clean forward is the result) or its
    reducer ``reads_rollout`` (prune-rollout). This thread runs the
    clean forward, each layer waiting only for its own weights, then
    the rollout and the ratios, and last any reduced forward not on the
    worker. The clean forward's sink keeps the head means, dropped once
    the ratios are built, scores layer 0, and on a baseline run hands
    each layer on to ``sink``. If this thread raises while the worker
    holds the reduced forward, a queued one is cancelled and a running
    one stops at its next layer's sink.
    """
    cost = cfg.cost()
    reducer = cfg.reducers(None)[cfg.mode]
    spec, model_cfg = cfg.clip_spec(), cfg.model_config()
    head_means, masked = [], []

    def reference_sink(layer, maps):
        head_means.append(maps.head_mean_probs)
        if layer == 0:
            masked.append(maps.masked_saliency)
        if reducer is None and sink is not None:
            sink(layer, maps)

    failed = threading.Event()

    def pending_sink(layer, maps):
        if failed.is_set():
            raise RuntimeError(f"stopped after layer {layer}: the calling thread failed")
        if sink is not None:
            sink(layer, maps)

    with _inputs(cfg, cost.total_flops) as (synth, voxels, weights, pool):

        def reduced(by, sink):
            return forward_clip(voxels, spec, model_cfg, weights, cfg.schedule, by, sink=sink)

        serial = pool is None or reducer is None or getattr(reducer, "reads_rollout", False)
        pending = None if serial else pool.submit(reduced, reducer, pending_sink)
        try:
            clean = forward_clip(voxels, spec, model_cfg, weights, [], None, sink=reference_sink)
            rollout = saliency.attention_rollout(head_means)
            frame_of = spec.tube_frame_groups()
            ratios = np.stack([
                saliency.frame_score_ratio(s, frame_of, spec.n_groups)
                for s in (saliency.attentiveness(head_means[0]), rollout[0], masked[0])
            ], axis=1)
        except BaseException:
            if pending is not None:  # stop it queued, or at its next layer's end
                pending.cancel()
                failed.set()
            raise
        head_means.clear()  # freed before the reduced forward runs or is awaited
        if pending is not None:
            result = pending.result()
        elif reducer is None:
            result = clean
        else:
            result = reduced(cfg.reducers(rollout)[cfg.mode], sink)

    observed = tuple(tr.tokens_out for tr in result.traces)
    if observed != cost.token_trajectory:
        raise RuntimeError(
            f"forward token trajectory {observed} diverged from cost model "
            f"{cost.token_trajectory}"
        )
    return synth, clean, rollout, ratios, result, cost


def run(cfg: RunConfig) -> RunResult:
    """Execute one configured run and write its artifacts.

    The result forward's sink writes each layer's attention dump into
    the hidden directory and takes its metrics.csv mean_saliency, so no
    map outlives its layer.
    """
    out_root = Path(cfg.out_dir)
    out_root.mkdir(parents=True, exist_ok=True)
    out_dir = out_root / cfg.run_id
    staging = Path(tempfile.mkdtemp(prefix=f".{cfg.run_id}-", dir=out_root))
    run_dir = staging / cfg.run_id
    try:
        run_dir.mkdir()
        mean_saliency = []

        def result_sink(layer, maps):
            if cfg.dump_attention:
                dump_tensor(run_dir / f"attention_l{layer:02d}.vtdr", maps.probs)
            mean_saliency.append(float(maps.masked_saliency.mean()))

        synth, clean, _, ratios, result, cost = _execute(cfg, result_sink)
        _write_artifacts(run_dir, cfg, cost, ratios, mean_saliency, result)
        try:  # move an earlier run's directory aside; the rmtree below removes it
            out_dir.rename(staging / "replaced")
        except FileNotFoundError:
            pass
        run_dir.rename(out_dir)
    finally:  # reached only once _execute has joined every thread that could write here
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


def _read_artifacts(run_dir: Path) -> tuple[np.ndarray, int, list[int]]:
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
        trajectory = [int(rec["token_count"]) for rec in recs]
    except (KeyError, TypeError, ValueError) as e:
        raise ArtifactError(f"{path}: malformed rows: {e!r}") from None
    if not trajectory:
        raise ArtifactError(f"{path}: no layer rows")
    if min(trajectory) < 1:
        raise ArtifactError(f"{path}: token count {min(trajectory)} is below 1")
    return pooled, total, trajectory


def compare(run_dirs: list) -> tuple[list[str], list[list[str]]]:
    """Side-by-side comparison of completed runs sharing one clip and seed.

    The first directory is the reference; feature_distance is the
    cosine distance between each run's pooled final features and the
    reference's (exactly 0.0 for bit-identical features). A config.txt
    that does not parse or fails validation, a pooled.vtdr or metrics.csv
    that does not parse, or a token count below 1 raises ArtifactError
    naming the file; clips that differ, or pooled features of another
    shape than the reference's, raise InvariantError.
    """
    if len(run_dirs) < 2:
        raise InvariantError("compare needs at least 2 run directories")
    configs = []
    for path in (Path(d) / "config.txt" for d in run_dirs):
        try:
            configs.append(load_config(path))
        except ConfigError as e:  # the message names the file
            raise ArtifactError(str(e)) from None
        except InvariantError as e:
            raise ArtifactError(f"{path}: {e}") from None
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
            c.run_id, c.mode, str(total), str(trajectory[-1]),
            " ".join(map(str, trajectory)), _fmt(dist),
        ])
    return COMPARE_HEADER, rows
