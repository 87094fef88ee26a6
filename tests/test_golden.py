"""Golden digests: a byte-level lock on every deterministic run artifact.

Six modes on three patterns at an 18-token shape, one run with both
dumps, and the two merging modes on moving-blob at the 64-token,
width-64 desk shape are checked against the SHA-256 of each artifact
recorded in golden_digests.json. The desk runs lock the similarity
sums at a width where summation order matters most. Each digest is of
``deterministic_bytes``: metrics.csv without its wall_ms column, the
one value outside the determinism contract, and any other file whole.

The golden shapes sit below runner.CONCURRENT_MIN_MACS, so one test
runs the matrix again with the gate at 0, where every run takes
runner's two-thread plan. The gate reads the run's MACs alone, so this
path is the same on any host.

The table must also hold under another BLAS kernel: one test runs the
matrix in a child process with OPENBLAS_CORETYPE=Prescott, which
selects an OpenBLAS dgemm kernel that sums in another order. It does
not yet hold under another numpy SIMD dispatch, because float64 exp
and log follow it; the AVX2 child test is an expected failure until
they do not.

The golden shapes have at most 64 tokens. ``golden_sweep.py`` digests
the 392-token shape as well, over two seeds and with the thread gate
forced each way. Two tests here check its first seed against its table,
golden_sweep.json: the big set on the concurrent path, and the desk set
on the serial path.

It puts the repo's src/ on sys.path itself, so it runs from a plain
checkout. Regenerate the table (only for an intended output change) with

    python tests/test_golden.py > tests/golden_digests.json
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

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

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
# Prints a digest of float64 exp and log over softmax- and mass-like inputs.
EXP_LOG_PROBE = (
    "import hashlib, numpy as np; x = np.random.default_rng(0).uniform(-30, 30, 4096); "
    "print(hashlib.sha256(np.exp(x).tobytes() + np.log(np.abs(x)).tobytes()).hexdigest())"
)
# On an AVX-512 host this makes numpy dispatch its AVX2 kernels.
AVX2_DISPATCH = "AVX512_SPR AVX512_ICL X86_V4"

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


def deterministic_bytes(path: Path) -> bytes:
    """An artifact's bytes that a fixed config fixes: metrics.csv without
    its wall_ms column, found by name; any other file whole."""
    data = path.read_bytes()
    if path.name != "metrics.csv":
        return data
    rows = list(csv.reader(io.StringIO(data.decode())))
    col = rows[0].index("wall_ms")
    buf = io.StringIO()
    csv.writer(buf).writerows([r[:col] + r[col + 1:] for r in rows])
    return buf.getvalue().encode()


def _digest(path: Path) -> str:
    return hashlib.sha256(deterministic_bytes(path)).hexdigest()


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


def test_digests_hold_on_the_concurrent_path(tmp_path, monkeypatch):
    import golden_sweep  # imports this module's _digest, so not at the top

    monkeypatch.chdir(tmp_path)
    with golden_sweep.gate(True) as pools:
        assert artifact_digests() == json.loads(TABLE.read_text())
    runs = [name for name, _ in _runs()]
    serial = set(golden_sweep.SERIAL_MODES)
    overlapping = [name for name in runs if not serial & set(name.split("/"))]
    assert len(runs) == 21 and len(overlapping) == 15
    assert len(pools) == len(runs) and all(pool.max_workers == 1 for pool in pools)
    submitted = [task for pool in pools for task in pool.tasks]
    assert submitted.count("draw") == len(runs)
    assert submitted.count("reduced") == len(overlapping)
    assert len(submitted) == 36


def _check_sweep_set(open_: bool, shape: str) -> None:
    """golden_sweep's first seed at one shape, with the gate forced open
    or closed, against its table."""
    import golden_sweep  # imports this module's _digest, so not at the top

    expected = json.loads(golden_sweep.TABLE.read_text())
    got = golden_sweep.sweep(open_, seeds=golden_sweep.SEEDS[:1], shapes=(shape,))
    patterns = golden_sweep.SHAPES[shape][2]
    assert len(got) == len(patterns) * len(MODES) * 24  # 15 artifacts and 9 state arrays per run
    assert got == {k: expected.get(k) for k in got}


def test_big_sweep_holds_on_the_concurrent_path(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _check_sweep_set(True, "big")


def test_desk_sweep_holds_on_the_serial_path(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _check_sweep_set(False, "desk")


def _python(env, cwd, *args) -> str:
    return subprocess.run(
        [sys.executable, *args], env=env, cwd=cwd, capture_output=True, text=True, check=True
    ).stdout


def _env_without(var: str) -> dict:
    """This process's environment with src/ on PYTHONPATH and ``var`` unset."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    env.pop(var, None)
    return env


def test_digests_hold_under_another_blas_kernel(tmp_path):
    env = _env_without("OPENBLAS_CORETYPE")
    prescott = dict(env, OPENBLAS_CORETYPE="Prescott")
    if _python(env, tmp_path, "-c", DGEMM_PROBE) == _python(prescott, tmp_path, "-c", DGEMM_PROBE):
        pytest.skip("OPENBLAS_CORETYPE=Prescott sums like the default kernel here")
    assert json.loads(_python(prescott, tmp_path, __file__)) == json.loads(TABLE.read_text())


@pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="float64 np.exp and np.log give other bits under numpy's AVX2 dispatch",
)
def test_digests_hold_under_avx2_dispatch(tmp_path):
    env = _env_without("NPY_DISABLE_CPU_FEATURES")
    avx2 = dict(env, NPY_DISABLE_CPU_FEATURES=AVX2_DISPATCH)
    try:
        probe = _python(avx2, tmp_path, "-c", EXP_LOG_PROBE)
    except subprocess.CalledProcessError:
        pytest.skip(f"numpy does not start with NPY_DISABLE_CPU_FEATURES={AVX2_DISPATCH!r}")
    if probe == _python(env, tmp_path, "-c", EXP_LOG_PROBE):
        pytest.skip("float64 exp and log give the same bits under the AVX2 dispatch here")
    assert json.loads(_python(avx2, tmp_path, __file__)) == json.loads(TABLE.read_text())


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as d:
        os.chdir(d)
        json.dump(artifact_digests(), sys.stdout, indent=1, sort_keys=True)
        sys.stdout.write("\n")
