import csv
import dataclasses
import gc
import struct
import threading
import time
import types
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

from vidtldr import costmodel, merging, model, saliency
from vidtldr.harness import runner, tensorio
from vidtldr.harness.config import MODES, InvariantError, parse_config_text

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
    report = costmodel.schedule_flops(
        costmodel.CostConfig(n0=8, width=32, layers=4), [2, 2]
    )
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
    snapshot = {
        name: (first.out_dir / name).read_bytes()
        for name in ("config.txt", "frame_ratio.csv", "mass.csv", "pooled.vtdr", "tokens.vtdr")
    }
    metrics_first = [
        {k: v for k, v in row.items() if k != "wall_ms"}
        for row in read_csv(first.out_dir / "metrics.csv")
    ]
    second = runner.run(cfg)
    for name, blob in snapshot.items():
        assert (second.out_dir / name).read_bytes() == blob, name
    metrics_second = [
        {k: v for k, v in row.items() if k != "wall_ms"}
        for row in read_csv(second.out_dir / "metrics.csv")
    ]
    assert metrics_first == metrics_second


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
    reducer = cfg.reducers(np.zeros((4, 16)))[mode] or model.NullReducer()
    with runner._inputs(cfg, 0) as (synth, weights, _):
        try:
            model.forward_clip(
                synth.clip, cfg.clip_spec(), cfg.model_config(), weights, [9], reducer
            )
            infeasible = False
        except costmodel.InfeasibleScheduleError:
            infeasible = True
        except RuntimeError:  # NullReducer refuses to reduce once the plan is accepted
            infeasible = False
    assert config_rejects == infeasible == (mode in ("tome", "vidtldr"))


def clean_head_means(cfg):
    """The clean forward's head-mean maps, collected through its sink."""
    head_means = []
    runner.clean_forward(cfg, lambda layer, maps: head_means.append(maps.head_mean_probs))
    return head_means


def test_compute_frame_ratios_shape(tmp_path):
    cfg = make_cfg(tmp_path, mode="baseline", schedule="")
    res = runner.run(cfg)
    head_means = clean_head_means(cfg)
    ratios = runner.compute_frame_ratios(
        cfg.clip_spec(), head_means, saliency.attention_rollout(head_means)
    )
    assert ratios.shape == (2, 3)
    assert np.allclose(ratios.sum(axis=0), 1.0, atol=1e-9)
    runner.write_frame_ratios(tmp_path / "ratios.csv", ratios)
    assert (tmp_path / "ratios.csv").read_bytes() == (res.out_dir / "frame_ratio.csv").read_bytes()


@pytest.fixture
def executors(monkeypatch):
    """Records each executor runner starts, with the names of the tasks
    submitted to it; the gate is open at any size."""
    started = []

    class SpyExecutor(ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            self.tasks = []
            started.append(self)
            super().__init__(*args, **kwargs)

        def submit(self, fn, /, *args, **kwargs):
            self.tasks.append(fn.__name__)
            return super().submit(fn, *args, **kwargs)

    monkeypatch.setattr(runner, "ThreadPoolExecutor", SpyExecutor)
    monkeypatch.setattr(runner, "CONCURRENT_MIN_MACS", 0)
    monkeypatch.setattr(runner, "_usable_cpus", lambda: 2)
    return started


def test_shared_inputs_are_read_only(tmp_path):
    with runner._inputs(make_cfg(tmp_path), 0) as (synth, weights, _):
        arrays = [synth.clip, weights.embed] + [
            getattr(lw, f.name) for lw in weights.layers for f in dataclasses.fields(lw)
        ]
    assert len(arrays) == 2 + 6 * 4
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a[(0,) * a.ndim] = 0.0


def test_usable_cpus_counts_at_least_one():
    assert runner._usable_cpus() >= 1


def _mode_cfg(tmp_path, mode):
    return make_cfg(tmp_path, mode=mode, schedule="" if mode == "baseline" else "2,2")


def test_serial_runs_start_no_thread(tmp_path, executors, monkeypatch):
    threads = threading.active_count()
    monkeypatch.setattr(runner, "CONCURRENT_MIN_MACS", 10**8)
    for mode in MODES:  # below the size test
        cfg = _mode_cfg(tmp_path, mode)
        assert costmodel.schedule_flops(cfg.cost_config(), []).total_flops < 10**8
        runner.run(cfg)
        runner.clean_forward(cfg)
    assert executors == []
    monkeypatch.setattr(runner, "_usable_cpus", lambda: 1)
    monkeypatch.setattr(runner, "CONCURRENT_MIN_MACS", 0)
    for mode in MODES:  # on one CPU
        runner.run(_mode_cfg(tmp_path, mode))
    runner.clean_forward(cfg)
    assert executors == []
    assert threading.active_count() == threads


@pytest.mark.parametrize("mode", MODES)
def test_large_runs_draw_weights_on_a_second_thread(tmp_path, executors, mode):
    threads = threading.active_count()
    cfg = _mode_cfg(tmp_path, mode)
    res = runner.run(cfg)
    overlapped = mode not in ("baseline", "prune-rollout")
    assert [e.tasks for e in executors] == [["draw", "reduced"] if overlapped else ["draw"]]
    runner.clean_forward(cfg)
    assert [e.tasks for e in executors][1:] == [["draw"]]
    assert threading.active_count() == threads
    assert res.final_state.count == (8 if mode == "baseline" else 4)


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
    cfg = make_cfg(tmp_path, mode=mode, extra="dump.attention = true\n")
    raised = threading.Event()
    written = []

    def rollout_fails(*args):
        raised.set()
        raise Boom("raised on purpose")

    def dump_after_the_raise(path, array):
        assert raised.wait(30)
        time.sleep(0.05)  # the caller is unwinding meanwhile
        tensorio.dump_tensor(path, array)
        written.append(path.name)

    def patch(mp):
        raised.clear()
        mp.setattr(saliency, "attention_rollout", rollout_fails)
        mp.setattr(runner, "dump_tensor", dump_after_the_raise)

    _failing_runs_leave_out_as_it_was(cfg, patch)
    assert [e.tasks for e in executors] == [["draw", "reduced"]] * 3
    # Both failed runs wrote every layer's dump after the caller raised.
    assert written == [f"attention_l{l:02d}.vtdr" for l in range(4)] * 2


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
def test_results_hold_no_per_head_tensors(tmp_path, monkeypatch, mode, dump, gate):
    if gate == "overlapped":
        monkeypatch.setattr(runner, "CONCURRENT_MIN_MACS", 0)
    schedule = "" if mode == "baseline" else "4,3,2"
    cfg = parse_config_text(
        GOLDEN_SHAPE + f"run.mode = {mode}\nrun.schedule = {schedule}\n"
        f"out.dir = {tmp_path / 'out'}\ndump.attention = {'true' if dump else 'false'}\n"
    )
    res = runner.run(cfg)
    if mode == "baseline":
        assert res.result is res.clean
    for fwd in (res.clean, res.result):
        ndims = [a.ndim for a in _stored_arrays(fwd)]
        assert 2 in ndims and 3 not in ndims

    dumps = sorted(res.out_dir.glob("attention_l*.vtdr"))
    if not dump:
        assert dumps == []
        return
    rollout = saliency.attention_rollout(clean_head_means(cfg))
    dumped = []
    with runner._inputs(cfg, 0) as (synth, weights, _):
        direct = model.forward_clip(
            synth.clip, cfg.clip_spec(), cfg.model_config(), weights, cfg.schedule,
            cfg.reducers(rollout)[mode] or model.NullReducer(),
            sink=lambda layer, maps: dumped.append((layer, maps.probs)),
        )
    assert [p.name for p in dumps] == [f"attention_l{l:02d}.vtdr" for l in range(4)]
    assert [layer for layer, _ in dumped] == list(range(4))
    entering = [cfg.clip_spec().n_tokens] + [tr.tokens_out for tr in direct.traces[:-1]]
    for path, n, (_, p) in zip(dumps, entering, dumped):
        assert p.shape == (2, n, n)
        header = b"VTDR\x01\x03" + struct.pack("<3I", *p.shape)
        assert path.read_bytes() == header + p.astype("<f4").tobytes()


def _reachable_arrays(root, skip=()):
    """Every ndarray that object references lead to from ``root``, apart
    from those in ``skip``; modules, types and functions are not entered."""
    seen = {id(x) for x in skip}
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
    arrays = _reachable_arrays(res, skip=[res.clip.clip])
    for a in arrays:
        square = a.ndim >= 2 and a.shape[-1] == a.shape[-2]
        assert not (square and a.shape[-1] in entering), a.shape
    states = [tr.state_after for fwd in (res.clean, res.result) for tr in fwd.traces]
    state_bytes = _unique_bytes(_reachable_arrays(tuple(states)))
    assert _unique_bytes(arrays) <= state_bytes
    # Both forwards' states come to 2.5 MB; each 392 x 392 float32
    # head-mean map alone would add 0.6 MB.
    assert state_bytes < 2.6e6
