import csv
import dataclasses
import gc
import json
import os
import struct
import subprocess
import sys
import threading
import time
import types
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

import golden_sweep
from test_golden import deterministic_bytes
from vidtldr import costmodel, merging, model, saliency
from vidtldr.harness import clips, runner, tensorio
from vidtldr.harness.config import MODES, InvariantError, load_config, parse_config_text
from vidtldr.model import ClipSpec, ModelConfig

# 8 tokens, 4 layers: small enough that a run is a few milliseconds
BASE = """\
clip.frames = 4
clip.height = 32
clip.width = 32
model.width = 32
model.layers = 4
"""


def make_cfg(tmp_path, seed=3, mode="vidtldr", schedule="2,2", extra=""):
    text = BASE + (
        f"run.seed = {seed}\nrun.mode = {mode}\nrun.schedule = {schedule}\n"
        f"out.dir = {tmp_path / 'out'}\n" + extra
    )
    return parse_config_text(text)


def read_csv(path):
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def test_run_writes_expected_files(tmp_path):
    res = runner.run(make_cfg(tmp_path))
    for name in ("config.txt", "metrics.csv", "frame_ratio.csv", "mass.csv", "pooled.vtdr"):
        assert (res.out_dir / name).exists(), name
    assert res.out_dir.name == res.run_id
    assert (res.out_dir / "config.txt").read_text() == res.config.canonical_text()


def test_metrics_rows_match_cost_model(tmp_path):
    cfg = make_cfg(tmp_path)
    res = runner.run(cfg)
    rows = read_csv(res.out_dir / "metrics.csv")
    assert [r["layer"] for r in rows] == ["0", "1", "2", "3"]
    assert [int(r["token_count"]) for r in rows] == [6, 4, 4, 4]
    report = costmodel.schedule_flops(8, 4, [2, 2], width=32)
    assert [int(r["flops"]) for r in rows] == list(report.per_layer_flops)
    for r in rows:
        assert r["run_id"] == res.run_id
        assert r["mode"] == "vidtldr"
        assert 0.0 <= float(r["mean_saliency"]) <= 1.0
        assert float(r["wall_ms"]) > 0.0


def test_baseline_reuses_clean_forward(tmp_path):
    res = runner.run(make_cfg(tmp_path, mode="baseline", schedule=""))
    assert res.result is res.clean
    rows = read_csv(res.out_dir / "metrics.csv")
    assert [int(r["token_count"]) for r in rows] == [8, 8, 8, 8]


def test_all_modes_run(tmp_path):
    for mode in ("tome", "prune-attentiveness", "prune-rollout", "prune-sharpness"):
        res = runner.run(make_cfg(tmp_path, mode=mode))
        assert res.final_state.count == 4


def test_frame_ratio_columns_are_distributions(tmp_path):
    res = runner.run(make_cfg(tmp_path))
    rows = read_csv(res.out_dir / "frame_ratio.csv")
    assert len(rows) == 2  # frame groups
    for col in ("ratio_attentiveness", "ratio_rollout", "ratio_masked_saliency"):
        total = sum(float(r[col]) for r in rows)
        assert total == pytest.approx(1.0, abs=1e-6)


def test_mass_csv_accounts_for_all_mass(tmp_path):
    res = runner.run(make_cfg(tmp_path))
    rows = read_csv(res.out_dir / "mass.csv")
    assert len(rows) == 8
    share_total = sum(float(r["mass_share"]) for r in rows)
    assert share_total == pytest.approx(float(res.final_state.masses.sum()), abs=1e-9)
    assert [int(r["tube_index"]) for r in rows] == list(range(8))
    assert [int(r["frame_group"]) for r in rows] == [0, 0, 0, 0, 1, 1, 1, 1]


def test_pruned_tubes_have_zero_mass(tmp_path):
    for mode in ("prune-attentiveness", "prune-rollout", "prune-sharpness"):
        res = runner.run(make_cfg(tmp_path, mode=mode))
        kept = {t for tubes in res.final_state.provenance for t in tubes}
        rows = read_csv(res.out_dir / "mass.csv")
        pruned = [r["mass_share"] for r in rows if int(r["tube_index"]) not in kept]
        assert pruned == ["0.0"] * 4, mode


# 16 tokens (2 frame groups x 2 x 4 patches), width 16, 4 layers
TINY = """\
clip.frames = 4
clip.height = 32
clip.width = 64
model.width = 16
model.heads = 2
model.layers = 4
run.seed = 5
"""


@settings(max_examples=20, deadline=None)
@given(mode=st.sampled_from(MODES), schedule=st.lists(st.integers(0, 12), max_size=4))
@example(mode="tome", schedule=[9])
@example(mode="vidtldr", schedule=[8, 5])
@example(mode="prune-sharpness", schedule=[12, 3])
def test_accepted_configs_run_to_plan(tmp_path_factory, mode, schedule):
    text = TINY + (
        f"run.mode = {mode}\nrun.schedule = {','.join(map(str, schedule))}\n"
        f"out.dir = {tmp_path_factory.getbasetemp() / 'plan'}\n"
    )
    try:
        plan = costmodel.plan_schedule(16, 4, schedule, merging=mode in ("tome", "vidtldr"))
    except ValueError:
        plan = None
    if plan is None or (mode == "baseline" and any(schedule)):
        with pytest.raises(InvariantError):
            parse_config_text(text)
        return
    res = runner.run(parse_config_text(text))
    trajectory, n = [], 16
    for r in plan:
        n -= r
        trajectory.append(n)
    assert [tr.tokens_out for tr in res.result.traces] == trajectory


def test_pooled_tensor_shape(tmp_path):
    res = runner.run(make_cfg(tmp_path))
    pooled = tensorio.load_tensor(res.out_dir / "pooled.vtdr")
    assert pooled.shape == (1, 32)
    expect = runner.pooled_features(res.final_state)
    assert_array_equal(pooled, expect)


def test_optional_dumps(tmp_path):
    cfg = make_cfg(tmp_path, extra="dump.attention = true\ndump.tokens = true\n")
    res = runner.run(cfg)
    probs0 = tensorio.load_tensor(res.out_dir / "attention_l00.vtdr")
    assert probs0.shape == (4, 8, 8)
    probs1 = tensorio.load_tensor(res.out_dir / "attention_l01.vtdr")
    assert probs1.shape == (4, 6, 6)
    tokens = tensorio.load_tensor(res.out_dir / "tokens.vtdr")
    assert tokens.shape == (4, 32)
    masses = tensorio.load_tensor(res.out_dir / "masses.vtdr")
    assert masses.shape == (4,)


def test_repeat_run_is_reproducible(tmp_path):
    cfg = make_cfg(tmp_path, extra="dump.tokens = true\n")
    first = runner.run(cfg)
    snapshot = {path.name: deterministic_bytes(path) for path in first.out_dir.iterdir()}
    assert len(snapshot) == 7
    second = runner.run(cfg)
    for name, blob in snapshot.items():
        assert deterministic_bytes(second.out_dir / name) == blob, name


def test_compare_identical_run_has_zero_distance(tmp_path):
    a = runner.run(make_cfg(tmp_path, mode="baseline", schedule=""))
    b = runner.run(make_cfg(tmp_path, mode="vidtldr"))
    header, rows = runner.compare([str(a.out_dir), str(a.out_dir), str(b.out_dir)])
    assert header[0] == "run_id"
    assert rows[0][5] == "0.0"          # reference vs itself, exact
    assert rows[1][5] == "0.0"          # identical run directory
    assert float(rows[2][5]) >= 0.0
    assert rows[2][1] == "vidtldr"
    assert rows[2][4] == "6 4 4 4"


def test_compare_rejects_mismatched_clips(tmp_path):
    a = runner.run(make_cfg(tmp_path, seed=3, mode="baseline", schedule=""))
    b = runner.run(make_cfg(tmp_path, seed=4, mode="baseline", schedule=""))
    with pytest.raises(InvariantError, match="seed"):
        runner.compare([str(a.out_dir), str(b.out_dir)])
    with pytest.raises(InvariantError, match="at least 2"):
        runner.compare([str(a.out_dir)])


@pytest.mark.parametrize("mode", MODES)
def test_config_and_forward_clip_share_the_merge_limit(tmp_path, mode):
    """floor(16/2) + 1 = 9 merges at layer 0 of a 16-token clip: config
    rejects the schedule exactly when forward_clip, given the mode's
    reducer, finds it infeasible, and that is in the merging modes."""
    text = TINY + f"run.mode = {mode}\nout.dir = {tmp_path / 'out'}\n"
    try:
        parse_config_text(text + "run.schedule = 9\n")
        config_rejects = False
    except InvariantError as e:
        config_rejects = str(e).startswith("run.schedule:")  # not baseline's zero-schedule rule
    cfg = parse_config_text(text)
    reducer = cfg.reducers(np.zeros((4, 16)))[mode]
    with runner._inputs(cfg, 0) as (_, voxels, weights, _):
        try:
            model.forward_clip(
                voxels, cfg.clip_spec(), cfg.model_config(), weights, [9], reducer
            )
            infeasible = False
        except costmodel.InfeasibleScheduleError:
            infeasible = True
        except ValueError:  # no reducer (baseline) refuses a nonzero schedule
            infeasible = False
    assert config_rejects == infeasible == (mode in ("tome", "vidtldr"))


def test_clean_forward_frame_ratios_shape(tmp_path):
    cfg = make_cfg(tmp_path, mode="baseline", schedule="")
    res = runner.run(cfg)
    _, _, ratios = runner.clean_forward(cfg)
    assert ratios.shape == (2, 3)
    assert np.allclose(ratios.sum(axis=0), 1.0, atol=1e-9)
    runner.write_frame_ratios(tmp_path / "ratios.csv", ratios)
    assert (tmp_path / "ratios.csv").read_bytes() == (res.out_dir / "frame_ratio.csv").read_bytes()


@pytest.fixture
def executors():
    """Records each pool runner starts, with its max_workers and the
    names of the tasks submitted to it; the gate is open at any size."""
    with golden_sweep.gate(True) as started:
        yield started


def test_shared_inputs_are_read_only(tmp_path):
    with runner._inputs(make_cfg(tmp_path), 0) as (_, voxels, weights, _):
        arrays = [voxels, weights.embed] + [
            getattr(lw, f.name) for lw in weights.layers for f in dataclasses.fields(lw)
        ]
    assert len(arrays) == 2 + 6 * 4
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a[(0,) * a.ndim] = 0.0


def _mode_cfg(tmp_path, mode):
    return make_cfg(tmp_path, mode=mode, schedule="" if mode == "baseline" else "2,2")


@pytest.fixture
def voxel_builds(monkeypatch):
    """Records each clip recipe whose voxels clips.synth_clip builds,
    with the array it built, and the voxels each forward embeds."""
    built, embedded = [], []
    synth_clip, embed_clip = clips.synth_clip, model.embed_clip

    def build_spy(clip):
        voxels = synth_clip(clip)
        built.append((clip, voxels))
        return voxels

    def embed_spy(voxels, *args):
        embedded.append(voxels)
        return embed_clip(voxels, *args)

    monkeypatch.setattr(clips, "synth_clip", build_spy)
    monkeypatch.setattr(model, "embed_clip", embed_spy)
    return built, embedded


@pytest.mark.parametrize("gate", ["serial", "overlapped"])
def test_a_run_builds_its_voxels_once(tmp_path, request, voxel_builds, gate):
    if gate == "overlapped":
        started = request.getfixturevalue("executors")
    built, embedded = voxel_builds
    for mode in MODES:
        res = runner.run(_mode_cfg(tmp_path, mode))
        assert [clip for clip, _ in built] == [res.clip], mode
        # baseline's clean forward is its result; every other mode runs two
        assert len(embedded) == (1 if mode == "baseline" else 2), mode
        assert all(voxels is built[0][1] for voxels in embedded), mode
        assert _reachable_arrays(res.clip) == []
        built.clear()
        embedded.clear()
    runner.clean_forward(_mode_cfg(tmp_path, "baseline"))
    assert len(built) == 1
    assert len(embedded) == 1 and embedded[0] is built[0][1]
    if gate == "overlapped":
        assert len(started) == len(MODES) + 1


@pytest.mark.parametrize("min_macs", [2**62, 0], ids=["gate-closed", "gate-open"])
def test_a_run_draws_its_weights_once_through_model(tmp_path, monkeypatch, min_macs):
    monkeypatch.setattr(runner, "CONCURRENT_MIN_MACS", min_macs)
    real = model.init_weights
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(model, "init_weights", spy)
    for mode in MODES:
        runner.run(_mode_cfg(tmp_path, mode))
        assert len(calls) == 1, mode
        calls.clear()
    runner.clean_forward(_mode_cfg(tmp_path, "baseline"))
    assert len(calls) == 1


@pytest.mark.parametrize("min_macs", [2**62, 0], ids=["gate-closed", "gate-open"])
def test_a_run_costs_its_config_once(tmp_path, monkeypatch, min_macs):
    """A tracer that sums each costmodel.schedule_flops result into a
    run's model MACs counts one call per run and none per config load."""
    monkeypatch.setattr(runner, "CONCURRENT_MIN_MACS", min_macs)
    real = costmodel.schedule_flops
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(costmodel, "schedule_flops", spy)
    for mode in MODES:
        path = tmp_path / f"{mode}.cfg"
        path.write_text(_mode_cfg(tmp_path, mode).canonical_text())
        cfg = load_config(path)
        assert calls == [], mode
        runner.run(cfg)
        assert len(calls) == 1, mode
        calls.clear()
    runner.clean_forward(cfg)
    assert len(calls) == 1


@pytest.mark.parametrize("gate", ["serial", "overlapped"])
def test_clean_forward_is_a_baseline_runs_forwards(
    tmp_path, request, monkeypatch, voxel_builds, gate
):
    """On any mode's config, clean_forward runs one forward, on one
    build of the voxels and one draw of the weights, and submits only
    the draw to its pool."""
    if gate == "overlapped":
        started = request.getfixturevalue("executors")
    built, embedded = voxel_builds
    real, draws = model.init_weights, []

    def spy(*args, **kwargs):
        draws.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(model, "init_weights", spy)
    for mode in MODES:
        runner.clean_forward(_mode_cfg(tmp_path, mode))
        assert (len(built), len(embedded), len(draws)) == (1, 1, 1), mode
        assert embedded[0] is built[0][1], mode
        if gate == "overlapped":
            assert [e.tasks for e in started] == [["draw"]], mode
            started.clear()
        built.clear()
        embedded.clear()
        draws.clear()


@pytest.mark.parametrize("min_macs", [2**62, 0], ids=["gate-closed", "gate-open"])
def test_clean_maps_are_freed_before_a_prune_rollout_run_reduces(
    tmp_path, monkeypatch, min_macs
):
    monkeypatch.setattr(runner, "CONCURRENT_MIN_MACS", min_macs)
    head_means, alive = [], []
    rollout, prune = saliency.attention_rollout, merging.prune_lowest

    def rollout_spy(maps):
        head_means.extend(weakref.ref(m) for m in maps)
        return rollout(maps)

    def prune_spy(*args):
        alive.append(sum(ref() is not None for ref in head_means))
        return prune(*args)

    monkeypatch.setattr(saliency, "attention_rollout", rollout_spy)
    monkeypatch.setattr(merging, "prune_lowest", prune_spy)
    runner.run(_mode_cfg(tmp_path, "prune-rollout"))
    assert len(head_means) == 4
    assert alive == [0, 0]  # one count per reducing layer


def test_serial_runs_start_no_thread(tmp_path, executors, monkeypatch):
    threads = threading.active_count()
    monkeypatch.setattr(runner, "CONCURRENT_MIN_MACS", 10**8)
    for mode in MODES:  # below the size test
        cfg = _mode_cfg(tmp_path, mode)
        assert dataclasses.replace(cfg, schedule=()).cost().total_flops < 10**8
        runner.run(cfg)
        runner.clean_forward(cfg)
    assert executors == []
    assert threading.active_count() == threads


@pytest.mark.parametrize("mode", MODES)
def test_large_runs_draw_weights_on_a_second_thread(tmp_path, executors, mode):
    threads = threading.active_count()
    cfg = _mode_cfg(tmp_path, mode)
    res = runner.run(cfg)
    overlapped = mode not in golden_sweep.SERIAL_MODES
    assert [e.tasks for e in executors] == [["draw", "reduced"] if overlapped else ["draw"]]
    runner.clean_forward(cfg)
    assert [e.tasks for e in executors][1:] == [["draw"]]
    assert [e.max_workers for e in executors] == [1, 1]
    assert threading.active_count() == threads
    assert res.final_state.count == (8 if mode == "baseline" else 4)


# Pins itself to one CPU, runs the config in argv[1] with the gate forced
# open and prints each pool's max_workers and tasks.
PINNED_RUN = """\
import json, os, sys
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
assert len(os.sched_getaffinity(0)) == 1
from golden_sweep import gate
from vidtldr.harness import runner
from vidtldr.harness.config import parse_config_text
with gate(True) as pools:
    runner.run(parse_config_text(sys.argv[1]))
print(json.dumps([[pool.max_workers, pool.tasks] for pool in pools]))
"""


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no sched_setaffinity")
def test_the_thread_plan_does_not_depend_on_the_host(tmp_path, monkeypatch):
    """On one CPU, an open gate still submits the draw and the reduced
    forward to one worker, and the run's artifacts equal those of a
    serial run in this process."""
    text = BASE + (
        "run.seed = 3\nrun.mode = vidtldr\nrun.schedule = 2,2\nout.dir = out\n"
        "dump.attention = true\ndump.tokens = true\n"
    )
    path = os.pathsep.join([str(Path(__file__).parents[1] / "src"), str(Path(__file__).parent)])
    (tmp_path / "child").mkdir()
    child = subprocess.run(
        [sys.executable, "-c", PINNED_RUN, text], cwd=tmp_path / "child",
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, check=True,
    )
    assert json.loads(child.stdout) == [[1, ["draw", "reduced"]]]
    monkeypatch.chdir(tmp_path)
    res = runner.run(parse_config_text(text))
    child_dir = tmp_path / "child" / "out" / res.run_id
    names = sorted(p.name for p in res.out_dir.iterdir())
    assert names == sorted(p.name for p in child_dir.iterdir())
    assert len(names) == 11
    for name in names:
        mine, theirs = (deterministic_bytes(d / name) for d in (res.out_dir, child_dir))
        assert mine == theirs, name


class Boom(Exception):
    pass


def _boom(*args, **kwargs):
    raise Boom("raised on purpose")


def _run_with_deadline(cfg, seconds=60):
    """runner.run(cfg) on a daemon thread: what it raised, or None; fails
    the test instead of hanging it."""
    raised = []

    def call():
        try:
            runner.run(cfg)
        except BaseException as e:  # handed to the test's thread
            raised.append(e)

    t = threading.Thread(target=call, daemon=True)
    t.start()
    t.join(seconds)
    assert not t.is_alive(), "runner.run hung"
    return raised[0] if raised else None


# the weight stream tests' geometry: 2 frame groups x 2x2 patches = 8 tokens
SMALL = ClipSpec(frames=4, height=16, width=16, tube=2, patch=8, channels=1)


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
    stream = runner.WeightStream(cfg.layers)

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


class Halt(BaseException):
    """An error that is not an Exception."""


@pytest.mark.parametrize("error", [Boom, Halt])
def test_weight_stream_failure_reaches_every_reader(monkeypatch, error):
    cfg = ModelConfig(width=16, heads=2, layers=4)
    real = model.init_weights
    raised = error("raised on purpose")

    def fail_on_piece_2(cfg, spec, seed, publish):
        def publish_or_fail(piece):
            if len(published) == 2:
                raise raised
            published.append(piece)
            publish(piece)

        return real(cfg, spec, seed, publish=publish_or_fail)

    published = []
    monkeypatch.setattr(model, "init_weights", fail_on_piece_2)
    stream = runner.WeightStream(cfg.layers)
    readers = [lambda: list(stream.layers), lambda: stream.embed, lambda: list(stream.layers)]
    *reads, drawn = _in_threads(*readers, lambda: stream.draw(cfg, SMALL, 3))
    assert reads[0] is raised and reads[2] is raised and drawn is raised
    assert reads[1] is published[0]
    layers = stream.layers
    assert next(layers) is published[1]
    with pytest.raises(error) as caught:
        next(layers)
    assert caught.value is raised


@pytest.mark.parametrize("where", ["reduced", "clean"])
def test_forward_failure_reaches_caller_and_joins_worker(tmp_path, executors, monkeypatch, where):
    if where == "reduced":  # the worker thread's forward
        monkeypatch.setattr(merging, "tome_merge", _boom)
    else:  # the calling thread's rollout, while the worker runs
        monkeypatch.setattr(saliency, "attention_rollout", _boom)
    threads = threading.active_count()
    with pytest.raises(Boom):
        runner.run(make_cfg(tmp_path, mode="tome"))
    assert [e.tasks for e in executors] == [["draw", "reduced"]]
    assert threading.active_count() == threads


@pytest.mark.parametrize("mode", ["tome", "vidtldr"])
def test_failed_clean_forward_stops_the_reduced_forward(tmp_path, executors, monkeypatch, mode):
    """The calling thread fails in layer 0 of the clean forward while the
    worker's reduced forward waits at its first layer: the run raises that
    error, and the worker makes at most one attention_forward call after
    the failure, not one per layer."""
    real_draw, real_attention = model.init_weights, model.attention_forward
    worker, events = [], []
    failed = threading.Event()

    def draw(*args, **kwargs):
        worker.append(threading.get_ident())
        return real_draw(*args, **kwargs)

    def attention_forward(*args):
        if threading.get_ident() not in worker:  # the clean forward
            events.append("failed")
            failed.set()
            raise Boom("raised on purpose")
        assert failed.wait(30)
        events.append("worker")
        return real_attention(*args)

    monkeypatch.setattr(model, "init_weights", draw)
    monkeypatch.setattr(model, "attention_forward", attention_forward)
    threads = threading.active_count()
    raised = _run_with_deadline(_mode_cfg(tmp_path, mode))
    assert isinstance(raised, Boom) and str(raised) == "raised on purpose"
    assert [e.tasks for e in executors] == [["draw", "reduced"]]
    assert events[0] == "failed" and events.count("worker") <= 1
    assert threading.active_count() == threads


@pytest.mark.parametrize("mode", ["baseline", "vidtldr"])
@pytest.mark.parametrize("piece", [0, 1, 4])  # the embedding, layer 0, the last layer
def test_draw_failure_reaches_caller(tmp_path, executors, monkeypatch, mode, piece):
    real = model.init_weights
    tried = []

    def fail_on_piece(cfg, spec, seed, publish):
        def publish_or_fail(p):
            tried.append(p)
            if len(tried) == piece + 1:
                raise Boom("raised on purpose")
            publish(p)

        return real(cfg, spec, seed, publish=publish_or_fail)

    monkeypatch.setattr(model, "init_weights", fail_on_piece)
    threads = threading.active_count()
    assert isinstance(_run_with_deadline(_mode_cfg(tmp_path, mode)), Boom)
    assert len(tried) == piece + 1
    assert len(executors) == 1 and executors[0].tasks[0] == "draw"
    assert threading.active_count() == threads
    out = tmp_path / "out"
    assert not out.exists() or list(out.iterdir()) == []


@pytest.mark.parametrize("mode", ["baseline", "vidtldr"])
def test_forward_failure_joins_a_running_draw(tmp_path, executors, monkeypatch, mode):
    real = model.init_weights
    raised = threading.Event()
    published, finished = [], []

    def slow_draw(cfg, spec, seed, publish):
        def publish_late(p):
            if len(published) == 2:  # hold layer 1 back until a forward raised
                assert raised.wait(30)
                time.sleep(0.2)
            publish(p)
            published.append(p)

        weights = real(cfg, spec, seed, publish=publish_late)
        finished.append(True)
        return weights

    def attention_forward(*args):
        assert not finished  # the draw is still running
        raised.set()
        raise Boom("raised on purpose")

    monkeypatch.setattr(model, "init_weights", slow_draw)
    monkeypatch.setattr(model, "attention_forward", attention_forward)
    threads = threading.active_count()
    assert isinstance(_run_with_deadline(_mode_cfg(tmp_path, mode)), Boom)
    # The draw ran to its end before runner.run raised, and its thread is gone.
    assert finished == [True] and len(published) == 5
    assert threading.active_count() == threads


def test_failed_write_leaves_no_run_directory(tmp_path, monkeypatch):
    cfg = make_cfg(tmp_path, extra="dump.attention = true\n")
    out = tmp_path / "out"
    calls = []

    def dump_then_fail(path, array):
        calls.append(path)
        if len(calls) == 3:  # attention_l00 and _l01 are written, during the forward
            raise Boom("raised on purpose")
        tensorio.dump_tensor(path, array)

    monkeypatch.setattr(runner, "dump_tensor", dump_then_fail)
    with pytest.raises(Boom):
        runner.run(cfg)
    assert len(calls) == 3
    assert list(out.iterdir()) == []

    # A failed re-run leaves the earlier complete directory as it was.
    monkeypatch.setattr(runner, "dump_tensor", tensorio.dump_tensor)
    res = runner.run(cfg)
    assert [p.name for p in out.iterdir()] == [res.run_id]
    before = {p.name: p.read_bytes() for p in res.out_dir.iterdir()}
    calls.clear()
    monkeypatch.setattr(runner, "dump_tensor", dump_then_fail)
    with pytest.raises(Boom):
        runner.run(cfg)
    assert [p.name for p in out.iterdir()] == [res.run_id]
    assert {p.name: p.read_bytes() for p in res.out_dir.iterdir()} == before


def _failing_runs_leave_out_as_it_was(cfg, patch):
    """With ``patch`` applied, runner.run(cfg) raises Boom, joins its
    threads and leaves out/ with neither a run nor a staging directory;
    after a good run, a failing rerun leaves that run's directory as it
    was, byte for byte."""
    out = Path(cfg.out_dir)
    threads = threading.active_count()
    with pytest.MonkeyPatch.context() as mp:
        patch(mp)
        assert isinstance(_run_with_deadline(cfg), Boom)
    assert threading.active_count() == threads
    assert list(out.iterdir()) == []
    res = runner.run(cfg)
    before = {p.name: p.read_bytes() for p in res.out_dir.iterdir()}
    with pytest.MonkeyPatch.context() as mp:
        patch(mp)
        assert isinstance(_run_with_deadline(cfg), Boom)
    assert threading.active_count() == threads
    assert [p.name for p in out.iterdir()] == [res.run_id]
    assert {p.name: p.read_bytes() for p in res.out_dir.iterdir()} == before


@pytest.mark.parametrize("mode", ["tome", "vidtldr"])
def test_failed_dump_in_the_reduced_forward_leaves_no_run_directory(tmp_path, executors, mode):
    cfg = make_cfg(tmp_path, mode=mode, extra="dump.attention = true\n")
    failed_on = []

    def fail_at_layer_1(path, array):
        if path.name == "attention_l01.vtdr":
            failed_on.append(threading.current_thread().name)
            raise Boom("raised on purpose")
        tensorio.dump_tensor(path, array)

    _failing_runs_leave_out_as_it_was(
        cfg, lambda mp: mp.setattr(runner, "dump_tensor", fail_at_layer_1)
    )
    assert [e.tasks for e in executors] == [["draw", "reduced"]] * 3
    assert len(failed_on) == 2
    assert all(name.startswith("ThreadPoolExecutor") for name in failed_on)  # the worker


@pytest.mark.parametrize("mode", ["tome", "vidtldr"])
def test_failed_rollout_joins_a_dumping_worker(tmp_path, executors, mode):
    """The worker's layer-0 dump is written after the caller raised, and
    the run removes it: it joins the worker first. The reduced forward
    stops at its next layer boundary, so no later layer is dumped."""
    cfg = make_cfg(tmp_path, mode=mode, extra="dump.attention = true\n")
    dumping, joining = threading.Event(), threading.Event()
    written = []

    def rollout_fails(*args):
        assert dumping.wait(30)  # the worker is in its layer-0 sink
        raise Boom("raised on purpose")

    def dump_after_the_raise(path, array):
        dumping.set()
        assert joining.wait(30)  # the caller has unwound to the pool's join
        tensorio.dump_tensor(path, array)
        written.append(path.name)

    def patch(mp):
        dumping.clear()
        joining.clear()
        shutdown = runner.ThreadPoolExecutor.shutdown

        def join(pool, *args, **kwargs):
            joining.set()
            return shutdown(pool, *args, **kwargs)

        mp.setattr(runner.ThreadPoolExecutor, "shutdown", join)
        mp.setattr(saliency, "attention_rollout", rollout_fails)
        mp.setattr(runner, "dump_tensor", dump_after_the_raise)

    _failing_runs_leave_out_as_it_was(cfg, patch)
    assert [e.tasks for e in executors] == [["draw", "reduced"]] * 3
    # Each failed run wrote layer 0's dump after the caller raised, and no other.
    assert written == ["attention_l00.vtdr"] * 2


def test_rerun_replaces_the_run_directory(tmp_path):
    cfg = make_cfg(tmp_path)
    first = runner.run(cfg)
    (first.out_dir / "stray.txt").write_text("not an artifact\n")
    second = runner.run(cfg)
    assert second.out_dir == first.out_dir
    assert [p.name for p in (tmp_path / "out").iterdir()] == [cfg.run_id]
    assert not (second.out_dir / "stray.txt").exists()


# The golden digests' shape: 18 tokens, width 16, 2 heads, 4 layers.
GOLDEN_SHAPE = """\
clip.frames = 4
clip.height = 48
clip.width = 48
model.width = 16
model.heads = 2
model.layers = 4
run.seed = 11
clip.pattern = moving-blob
"""


def _stored_arrays(obj):
    """Every array held in obj's dataclass fields and tuples, recursively."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, tuple):
        for x in obj:
            yield from _stored_arrays(x)
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            yield from _stored_arrays(getattr(obj, f.name))


@pytest.mark.parametrize("gate", ["serial", "overlapped"])
@pytest.mark.parametrize("dump", [False, True])
@pytest.mark.parametrize("mode", MODES)
def test_results_hold_no_per_head_tensors(tmp_path, request, mode, dump, gate):
    if gate == "overlapped":
        started = request.getfixturevalue("executors")
    schedule = "" if mode == "baseline" else "4,3,2"
    cfg = parse_config_text(
        GOLDEN_SHAPE + f"run.mode = {mode}\nrun.schedule = {schedule}\n"
        f"out.dir = {tmp_path / 'out'}\ndump.attention = {'true' if dump else 'false'}\n"
    )
    res = runner.run(cfg)
    if gate == "overlapped":
        overlapped = mode not in golden_sweep.SERIAL_MODES
        assert [e.tasks for e in started] == [["draw", "reduced"] if overlapped else ["draw"]]
    if mode == "baseline":
        assert res.result is res.clean
    for fwd in (res.clean, res.result):
        ndims = [a.ndim for a in _stored_arrays(fwd)]
        assert 2 in ndims and 3 not in ndims

    dumps = sorted(res.out_dir.glob("attention_l*.vtdr"))
    if not dump:
        assert dumps == []
        return
    _, rollout, _ = runner.clean_forward(cfg)
    dumped = []
    with runner._inputs(cfg, 0) as (_, voxels, weights, _):
        direct = model.forward_clip(
            voxels, cfg.clip_spec(), cfg.model_config(), weights, cfg.schedule,
            cfg.reducers(rollout)[mode],
            sink=lambda layer, maps: dumped.append((layer, maps.probs)),
        )
    assert [p.name for p in dumps] == [f"attention_l{l:02d}.vtdr" for l in range(4)]
    assert [layer for layer, _ in dumped] == list(range(4))
    entering = [cfg.clip_spec().n_tokens] + [tr.tokens_out for tr in direct.traces[:-1]]
    for path, n, (_, p) in zip(dumps, entering, dumped):
        assert p.shape == (2, n, n)
        header = b"VTDR\x01\x03" + struct.pack("<3I", *p.shape)
        assert path.read_bytes() == header + p.astype("<f4").tobytes()


def _reachable_arrays(root):
    """Every ndarray that object references lead to from ``root``;
    modules, types and functions are not entered."""
    seen = set()
    found, stack = [], [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType, types.FunctionType)):
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            found.append(obj)
            stack.append(obj.base)
        else:
            stack.extend(gc.get_referents(obj))
    return found


def _unique_bytes(arrays):
    """Bytes of the buffers these arrays own; views count through their base."""
    assert all(a.base is None or isinstance(a.base, np.ndarray) for a in arrays)
    return sum(a.nbytes for a in arrays if a.base is None)


def test_big_run_result_keeps_no_attention_map(tmp_path):
    cfg = parse_config_text(
        "run.seed = 5\nrun.mode = vidtldr\nrun.schedule = 48,48,48,48,48,48\n"
        "clip.frames = 16\nclip.height = 112\nclip.width = 112\nmodel.width = 128\n"
        f"out.dir = {tmp_path / 'out'}\n"
    )
    res = runner.run(cfg)
    n0 = cfg.clip_spec().n_tokens
    assert n0 == 392
    entering = {n0} | {tr.tokens_out for tr in res.result.traces}
    arrays = _reachable_arrays(res)
    for a in arrays:
        square = a.ndim >= 2 and a.shape[-1] == a.shape[-2]
        assert not (square and a.shape[-1] in entering), a.shape
    finals = (res.clean.final_state, res.result.final_state)
    state_bytes = _unique_bytes(_reachable_arrays(finals))
    assert _unique_bytes(arrays) <= state_bytes
    # The two final states, at 392 and 104 tokens, come to 0.26 MB; one
    # more layer's state would add at least 0.06 MB, each 392 x 392
    # float32 head-mean map 0.6 MB and the clip's voxels 2.41 MB.
    assert state_bytes < 0.3e6


SHARPNESS_CALLS = {
    # serial desk path: the clean layer 0 (frame_ratio.csv), then the
    # reduced forward's layers; baseline's clean forward is its result
    "vidtldr": (64, 64, 56, 48, 40, 32, 24, 16, 16),
    "prune-sharpness": (64, 64, 56, 48, 40, 32, 24, 16, 16),
    "baseline": (64,) * 8,
}


@pytest.mark.parametrize("mode", list(SHARPNESS_CALLS))
def test_each_layer_scores_its_saliency_once(tmp_path, monkeypatch, mode):
    """A desk run computes sharpness once per result layer, for its
    reducer and mean_saliency alike, and once for frame_ratio.csv
    unless its clean forward is its result."""
    shapes = []
    sharpness = saliency.sharpness_saliency
    monkeypatch.setattr(
        saliency, "sharpness_saliency", lambda p: shapes.append(p.shape) or sharpness(p)
    )
    runner.run(parse_config_text(
        f"run.seed = 5\nrun.mode = {mode}\n"
        f"run.schedule = {'' if mode == 'baseline' else '8,8,8,8,8,8'}\n"
        f"out.dir = {tmp_path / 'out'}\n"
    ))
    assert shapes == [(n, n) for n in SHARPNESS_CALLS[mode]]
