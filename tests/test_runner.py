import csv

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

from vidtldr import costmodel
from vidtldr.harness import runner, tensorio
from vidtldr.harness.config import MERGE_MODES, MODES, InvariantError, parse_config_text

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
        plan = costmodel.plan_schedule(16, 4, schedule, merging=mode in MERGE_MODES)
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


def test_build_reducer_rejects_unknown_mode():
    with pytest.raises(ValueError):
        runner.build_reducer("fancy", [])


def test_compute_frame_ratios_shape(tmp_path):
    res = runner.run(make_cfg(tmp_path, mode="baseline", schedule=""))
    ratios = runner.compute_frame_ratios(res.clean)
    assert ratios.shape == (2, 3)
    assert np.allclose(ratios.sum(axis=0), 1.0, atol=1e-9)
