"""Golden digests: a byte-level lock on every deterministic run artifact.

Six modes on three patterns at an 18-token shape, plus one run with
both dumps, are checked against the SHA-256 of each artifact recorded
in golden_digests.json. metrics.csv is hashed without its wall_ms
column, the one value outside the determinism contract.

Regenerate the table (only for an intended output change) with

    PYTHONPATH=src python tests/test_golden.py > tests/golden_digests.json
"""

import csv
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

from vidtldr.harness import runner
from vidtldr.harness.config import MODES, PATTERNS, parse_config_text

TABLE = Path(__file__).with_name("golden_digests.json")

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


def _runs():
    for pattern in PATTERNS:
        for mode in MODES:
            yield f"{pattern}/{mode}", pattern, mode, ""
    pattern, mode, extra = DUMP_RUN
    yield f"{pattern}/{mode}/dumps", pattern, mode, extra


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
    for name, pattern, mode, extra in _runs():
        schedule = "" if mode == "baseline" else SCHEDULE
        cfg = parse_config_text(
            SHAPE + f"clip.pattern = {pattern}\nrun.mode = {mode}\n"
            f"run.schedule = {schedule}\n" + extra
        )
        res = runner.run(cfg)
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


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as d:
        os.chdir(d)
        json.dump(artifact_digests(), sys.stdout, indent=1, sort_keys=True)
        sys.stdout.write("\n")
