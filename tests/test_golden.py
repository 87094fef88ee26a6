"""Golden digests: a byte-level lock on every deterministic run artifact.

Six modes on three patterns at an 18-token shape, one run with both
dumps, and the two merging modes on moving-blob at the 64-token,
width-64 desk shape are checked against the SHA-256 of each artifact
recorded in golden_digests.json. The desk runs lock the similarity
sums at a width where summation order matters most. metrics.csv is
hashed without its wall_ms column, the one value outside the
determinism contract.

The table must also hold under another BLAS kernel: one test runs the
matrix in a child process with OPENBLAS_CORETYPE=Prescott, which
selects an OpenBLAS dgemm kernel that sums in another order.

Regenerate the table (only for an intended output change) with

    PYTHONPATH=src python tests/test_golden.py > tests/golden_digests.json
"""

import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from vidtldr.harness import runner
from vidtldr.harness.config import MODES, PATTERNS, parse_config_text

TABLE = Path(__file__).with_name("golden_digests.json")
SRC = Path(__file__).resolve().parents[1] / "src"
# Prints a digest of one float64 product at the embed shape.
DGEMM_PROBE = (
    "import hashlib, numpy as np; g = np.random.default_rng(0); "
    "p = g.normal(size=(392, 1536)) @ g.normal(size=(1536, 128)); "
    "print(hashlib.sha256(p.tobytes()).hexdigest())"
)

SHAPE = """\
clip.frames = 4
clip.height = 48
clip.width = 48
model.width = 16
model.heads = 2
model.layers = 4
run.seed = 11
out.dir = out
"""
SCHEDULE = "4,3,2"  # 18 -> 14 -> 11 -> 9 tokens, within the merge limit
DUMP_RUN = ("moving-blob", "vidtldr", "dump.attention = true\ndump.tokens = true\n")
DESK_SHAPE = "run.seed = 11\nout.dir = out\n"  # defaults: 64 tokens, width 64, 8 layers
DESK_SCHEDULE = "8,8,8,8,8,8"  # 64 -> 16 tokens


def _run_text(shape: str, pattern: str, mode: str, schedule: str, extra: str = "") -> str:
    return (
        shape + f"clip.pattern = {pattern}\nrun.mode = {mode}\n"
        f"run.schedule = {schedule}\n" + extra
    )


def _runs():
    for pattern in PATTERNS:
        for mode in MODES:
            schedule = "" if mode == "baseline" else SCHEDULE
            yield f"{pattern}/{mode}", _run_text(SHAPE, pattern, mode, schedule)
    pattern, mode, extra = DUMP_RUN
    yield f"{pattern}/{mode}/dumps", _run_text(SHAPE, pattern, mode, SCHEDULE, extra)
    for mode in ("tome", "vidtldr"):
        yield f"desk/moving-blob/{mode}", _run_text(
            DESK_SHAPE, "moving-blob", mode, DESK_SCHEDULE
        )


def _digest(path: Path) -> str:
    data = path.read_bytes()
    if path.name == "metrics.csv":
        rows = list(csv.reader(io.StringIO(data.decode())))
        col = rows[0].index("wall_ms")
        buf = io.StringIO()
        csv.writer(buf).writerows([r[:col] + r[col + 1:] for r in rows])
        data = buf.getvalue().encode()
    return hashlib.sha256(data).hexdigest()


def artifact_digests() -> dict[str, str]:
    """Run the matrix in the current directory; map run/artifact -> SHA-256."""
    out = {}
    for name, text in _runs():
        res = runner.run(parse_config_text(text))
        for path in sorted(res.out_dir.iterdir()):
            out[f"{name}/{path.name}"] = _digest(path)
    return out


def test_artifacts_match_golden_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # out.dir is relative, so config.txt is path-free
    expected = json.loads(TABLE.read_text())
    got = artifact_digests()
    assert sorted(got) == sorted(expected)
    changed = [k for k in sorted(got) if got[k] != expected[k]]
    assert changed == []


def _python(env, cwd, *args) -> str:
    return subprocess.run(
        [sys.executable, *args], env=env, cwd=cwd, capture_output=True, text=True, check=True
    ).stdout


def test_digests_hold_under_another_blas_kernel(tmp_path):
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    env.pop("OPENBLAS_CORETYPE", None)
    prescott = dict(env, OPENBLAS_CORETYPE="Prescott")
    if _python(env, tmp_path, "-c", DGEMM_PROBE) == _python(prescott, tmp_path, "-c", DGEMM_PROBE):
        pytest.skip("OPENBLAS_CORETYPE=Prescott sums like the default kernel here")
    assert json.loads(_python(prescott, tmp_path, __file__)) == json.loads(TABLE.read_text())


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as d:
        os.chdir(d)
        json.dump(artifact_digests(), sys.stdout, indent=1, sort_keys=True)
        sys.stdout.write("\n")
