import csv
import importlib
import io
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from vidtldr import costmodel
from vidtldr.harness import cli, tensorio
from vidtldr.harness.config import parse_config_text

BASE = """\
clip.frames = 4
clip.height = 32
clip.width = 32
model.width = 32
model.layers = 4
"""


SRC = Path(__file__).resolve().parents[1] / "src"
# Imports the CLI, makes one desk run (64 tokens, width 64, 8 layers)
# and prints the scipy modules then loaded.
SCIPY_PROBE = """\
import sys
from vidtldr.harness import cli, config, runner
res = runner.run(config.parse_config_text(sys.argv[1]))
assert res.final_state.count == 16
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def write_cfg(tmp_path, name, seed=3, mode="vidtldr", schedule="2,2", extra=""):
    text = BASE + (
        f"run.seed = {seed}\nrun.mode = {mode}\nrun.schedule = {schedule}\n"
        f"out.dir = {tmp_path / 'out'}\n" + extra
    )
    path = tmp_path / name
    path.write_text(text)
    return path


def test_run_command(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "a.cfg")
    assert cli.main(["run", str(cfg)]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith("run ")
    assert "mode=vidtldr" in out
    out_dir = out.strip().split("out=")[1]
    assert (tmp_path / "out").exists()
    assert (tmp_path / "out" / out_dir.split("/")[-1] / "metrics.csv").exists()


def test_run_accepts_multiple_configs(tmp_path, capsys):
    a = write_cfg(tmp_path, "a.cfg", seed=3)
    b = write_cfg(tmp_path, "b.cfg", seed=4)
    assert cli.main(["run", str(a), str(b)]) == cli.EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2
    assert lines[0] != lines[1]


def test_flops_table(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "a.cfg")
    assert cli.main(["flops", str(cfg)]) == cli.EXIT_OK
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert rows[0] == ["layer", "tokens_in", "tokens_out", "flops"]
    assert len(rows) == 1 + 4 + 1
    report = costmodel.schedule_flops(8, 4, [2, 2], width=32)
    assert rows[1][1:3] == ["8", "6"]
    assert rows[2][1:3] == ["6", "4"]
    assert [int(r[3]) for r in rows[1:5]] == list(report.per_layer_flops)
    assert rows[5] == ["total", "", "", str(report.total_flops)]


def test_temporal_bias_command(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "a.cfg", mode="baseline", schedule="")
    assert cli.main(["temporal-bias", str(cfg)]) == cli.EXIT_OK
    captured = capsys.readouterr()
    lines = captured.out.strip().splitlines()
    assert lines[0].split(",")[0] == "frame_index"
    assert len(lines) == 1 + 2  # header + one row per frame group
    std_lines = captured.err.strip().splitlines()
    assert len(std_lines) == 3
    for name, line in zip(
        ("ratio_attentiveness", "ratio_rollout", "ratio_masked_saliency"), std_lines
    ):
        assert line.startswith(f"std {name} = ")
    run_id = parse_config_text(cfg.read_text()).run_id
    written = (tmp_path / "out" / run_id / "frame_ratio.csv").read_bytes()
    assert written.decode() == captured.out


def test_dump_saliency_command(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "a.cfg", mode="baseline", schedule="")
    assert cli.main(["dump-saliency", str(cfg)]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "layer 0:" in out and "layer 3:" in out
    run_id = parse_config_text(cfg.read_text()).run_id
    path = tmp_path / "out" / run_id / "saliency.vtdr"
    assert f"wrote {path}" in out
    sal = tensorio.load_tensor(path)
    assert sal.shape == (4, 8)


@pytest.mark.parametrize("mode", ["vidtldr", "prune-rollout"])
def test_temporal_bias_of_a_reducing_config_is_its_runs_table(tmp_path, capsys, mode):
    cfg = write_cfg(tmp_path, "a.cfg", mode=mode)
    assert cli.main(["temporal-bias", str(cfg)]) == cli.EXIT_OK
    printed = capsys.readouterr().out
    assert cli.main(["run", str(cfg)]) == cli.EXIT_OK
    run_dir = Path(capsys.readouterr().out.strip().split("out=")[1])
    assert printed.encode() == (run_dir / "frame_ratio.csv").read_bytes()


@pytest.mark.parametrize("mode", ["vidtldr", "prune-rollout"])
def test_dump_saliency_of_a_reducing_config_is_its_clips_baseline(tmp_path, capsys, mode):
    reducing = write_cfg(tmp_path, "a.cfg", mode=mode)
    baseline = write_cfg(tmp_path, "base.cfg", mode="baseline", schedule="")
    dumps = []
    for cfg in (reducing, baseline):
        assert cli.main(["dump-saliency", str(cfg)]) == cli.EXIT_OK
        dumps.append(Path(capsys.readouterr().out.splitlines()[-1].removeprefix("wrote ")))
    assert dumps[0] != dumps[1]
    assert dumps[0].read_bytes() == dumps[1].read_bytes()


def test_compare_command(tmp_path, capsys):
    a = write_cfg(tmp_path, "a.cfg", mode="baseline", schedule="")
    b = write_cfg(tmp_path, "b.cfg", mode="tome")
    assert cli.main(["run", str(a), str(b)]) == cli.EXIT_OK
    dirs = [line.split("out=")[1] for line in capsys.readouterr().out.strip().splitlines()]
    assert cli.main(["compare"] + dirs) == cli.EXIT_OK
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert rows[0] == ["run_id", "mode", "total_flops", "final_tokens",
                       "token_trajectory", "feature_distance"]
    assert rows[1][1] == "baseline"
    assert rows[2][1] == "tome"
    assert rows[1][3:5] == ["8", "8 8 8 8"]
    assert rows[2][3:5] == ["4", "6 4 4 4"]
    assert rows[1][5] == "0.0"


def test_config_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text(BASE + "run.seed = 3\nrun.colour = blue\n")
    assert cli.main(["run", str(bad)]) == cli.EXIT_CONFIG
    assert "config error" in capsys.readouterr().err
    for value in ("nan", "1e300"):
        bias = write_cfg(tmp_path, "bias.cfg", extra=f"model.temporal_bias = {value}\n")
        assert cli.main(["run", str(bias)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error") and err.count("\n") == 1


def test_invariant_exit_code(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "a.cfg", schedule="8,0")  # removes all 8 tokens
    assert cli.main(["run", str(cfg)]) == cli.EXIT_INVARIANT
    assert "invariant violation" in capsys.readouterr().err
    geom = tmp_path / "geom.cfg"
    geom.write_text("run.seed = 1\nclip.frames = 7\n")
    assert cli.main(["flops", str(geom)]) == cli.EXIT_INVARIANT
    # desk shape, 64 tokens: merging 40 exceeds the 32 bipartite sources
    merge = tmp_path / "merge.cfg"
    merge.write_text("run.seed = 1\nrun.mode = tome\nrun.schedule = 40\n")
    capsys.readouterr()
    for command in ("run", "flops"):
        assert cli.main([command, str(merge)]) == cli.EXIT_INVARIANT
        err = capsys.readouterr().err
        assert err.startswith("invariant violation") and err.count("\n") == 1


def test_compare_single_dir_exit_code(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "a.cfg")
    assert cli.main(["run", str(cfg)]) == cli.EXIT_OK
    d = capsys.readouterr().out.strip().split("out=")[1]
    assert cli.main(["compare", d]) == cli.EXIT_INVARIANT


def test_missing_file_exit_code(tmp_path, capsys):
    assert cli.main(["run", str(tmp_path / "absent.cfg")]) == cli.EXIT_IO
    assert "io error" in capsys.readouterr().err


def test_non_utf8_config_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_bytes(b"run.seed = 1\nout.dir = caf\xe9\n")  # Latin-1, not UTF-8
    assert cli.main(["run", str(bad)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error") and err.count("\n") == 1


def test_unnamed_exception_is_one_line_internal_error(tmp_path, capsys, monkeypatch):
    def fail(cfg):
        raise RuntimeError("forward failed\nin layer 3")

    monkeypatch.setattr(cli, "run", fail)
    assert cli.main(["run", str(write_cfg(tmp_path, "a.cfg"))]) == cli.EXIT_INTERNAL == 1
    assert capsys.readouterr().err == "internal error: RuntimeError: forward failed in layer 3\n"


def _two_runs(tmp_path, capsys):
    a = write_cfg(tmp_path, "a.cfg", mode="baseline", schedule="")
    b = write_cfg(tmp_path, "b.cfg", mode="tome")
    assert cli.main(["run", str(a), str(b)]) == cli.EXIT_OK
    return [line.split("out=")[1] for line in capsys.readouterr().out.strip().splitlines()]


def test_compare_corrupt_pooled_exit_code(tmp_path, capsys):
    dirs = _two_runs(tmp_path, capsys)
    (tmp_path / "out" / dirs[1].split("/")[-1] / "pooled.vtdr").write_bytes(b"VTDR\x01")
    assert cli.main(["compare"] + dirs) == cli.EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith("io error") and err.count("\n") == 1


@pytest.mark.parametrize("text", ["", "run.seed = x\n", "run.seed = 1\nrun.seed = 1\n"])
def test_compare_unparsable_config_exit_code(tmp_path, capsys, text):
    dirs = _two_runs(tmp_path, capsys)
    config = tmp_path / "out" / dirs[1].split("/")[-1] / "config.txt"
    config.write_text(text)
    assert cli.main(["compare"] + dirs) == cli.EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith("io error") and err.count("\n") == 1
    assert err.count(str(config)) == 1


@pytest.mark.parametrize("edit", [
    ("run.schedule = 2,2", "run.schedule = 2,9"),
    ("clip.frames = 4", "clip.frames = 7"),
    ("run.mode = tome", "run.mode = baseline"),
], ids=["infeasible-schedule", "geometry", "baseline-with-schedule"])
def test_compare_invalid_config_exit_code(tmp_path, capsys, edit):
    """A config.txt that parses but fails validation is a bad artifact."""
    dirs = _two_runs(tmp_path, capsys)
    config = tmp_path / "out" / dirs[1].split("/")[-1] / "config.txt"
    text = config.read_text()
    assert edit[0] in text
    config.write_text(text.replace(*edit))
    assert cli.main(["compare"] + dirs) == cli.EXIT_IO
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("io error") and captured.err.count("\n") == 1
    assert captured.err.count(str(config)) == 1


def test_compare_header_only_metrics_exit_code(tmp_path, capsys):
    dirs = _two_runs(tmp_path, capsys)
    metrics = tmp_path / "out" / dirs[1].split("/")[-1] / "metrics.csv"
    metrics.write_text(metrics.read_text().splitlines()[0] + "\n")
    assert cli.main(["compare"] + dirs) == cli.EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith("io error") and err.count("\n") == 1


@pytest.mark.parametrize("counts", [
    {0: "-7", -1: "abc"}, {0: "-7"}, {-1: "abc"}, {1: "0"}, {-1: "2.5"}, {0: ""},
], ids=["negative-and-text", "negative", "text", "zero", "fraction", "empty"])
def test_compare_malformed_token_count_exit_code(tmp_path, capsys, counts):
    dirs = _two_runs(tmp_path, capsys)
    metrics = tmp_path / "out" / dirs[1].split("/")[-1] / "metrics.csv"
    with open(metrics, newline="") as f:
        rows = list(csv.reader(f))
    column = rows[0].index("token_count")
    for row, count in counts.items():
        rows[1:][row][column] = count
    with open(metrics, "w", newline="") as f:
        csv.writer(f).writerows(rows)
    assert cli.main(["compare"] + dirs) == cli.EXIT_IO
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("io error") and captured.err.count("\n") == 1
    assert str(metrics) in captured.err


def test_compare_width_mismatch_exit_code(tmp_path, capsys):
    a = write_cfg(tmp_path, "a.cfg", mode="baseline", schedule="")
    b = tmp_path / "b.cfg"
    b.write_text(a.read_text().replace("model.width = 32", "model.width = 64"))
    assert cli.main(["run", str(a), str(b)]) == cli.EXIT_OK
    dirs = [line.split("out=")[1] for line in capsys.readouterr().out.strip().splitlines()]
    assert cli.main(["compare"] + dirs) == cli.EXIT_INVARIANT
    err = capsys.readouterr().err
    assert err.startswith("invariant violation") and err.count("\n") == 1
    assert dirs[0] in err and dirs[1] in err


@pytest.mark.skipif(shutil.which("vidtldr") is None, reason="entry point not installed")
def test_console_script_usage():
    proc = subprocess.run(["vidtldr"], capture_output=True, text=True)
    assert proc.returncode == 2
    assert "usage:" in proc.stderr


def test_module_usage_and_console_script_target():
    """What the installed ``vidtldr`` script runs, checked without installing it."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "vidtldr.harness.cli"], env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True,
    )
    assert proc.returncode == 2
    assert "usage:" in proc.stderr
    tomllib = pytest.importorskip("tomllib")
    with open(SRC.parent / "pyproject.toml", "rb") as f:
        target = tomllib.load(f)["project"]["scripts"]["vidtldr"]
    module, _, attr = target.partition(":")
    assert getattr(importlib.import_module(module), attr) is cli.main


def test_cli_and_desk_run_import_no_scipy(tmp_path):
    text = (
        "run.seed = 11\nrun.mode = vidtldr\nrun.schedule = 8,8,8,8,8,8\n"
        f"out.dir = {tmp_path / 'out'}\n"
    )
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", SCIPY_PROBE, text], env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, check=True,
    )
    assert proc.stdout.strip() == "[]"
