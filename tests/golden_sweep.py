"""Byte sweep: digests of every run output at the desk and big shapes.

The golden table (``test_golden.py``) runs 18- and 64-token clips only.
This sweep adds the 392-token shape, where the matmul fallbacks,
``cosine_argmax``'s exact path and the merge's larger groups live:

    big   16x112x112 clip (392 tokens), width 128, schedule 48 x 6:
          six modes on moving-blob and front-loaded
    desk  the default 64-token, width-64 shape, schedule 8 x 6:
          six modes on noise, moving-blob and front-loaded

each at run.seed 1 and 20240318 with both dumps on. It hashes every
artifact of each run (metrics.csv without its wall_ms column), the
final features, masses and owner map of both forwards in the returned
RunResult, and those of ``runner.clean_forward``. It runs every config
twice, with the thread gate forced open (CONCURRENT_MIN_MACS = 0: every
call takes runner's two-thread plan) and forced closed (no call starts
a thread), and checks that each path submitted the tasks the gate asks
for and produced the table in golden_sweep.json. The gate reads the
run's MACs alone, so the check means the same on any host.

Not collected by pytest: both gates over both seeds take about a
minute. ``test_golden.py`` runs the first seed of the big set with the
gate open and of the desk set with it closed. It puts the repo's src/
on sys.path itself, so it runs from a plain checkout:

    python tests/golden_sweep.py            # check; exit 1 on a moved digest
    python tests/golden_sweep.py --record   # rewrite golden_sweep.json

The report opens with the path the sweep ran on: numpy's version, its
SIMD baseline and the dispatch targets it runs on this host, and
NPY_DISABLE_CPU_FEATURES and OPENBLAS_CORETYPE when set. Each gate's
report then lists the moved keys, then one count per artifact
name (the key after its shape, seed, pattern and mode, such as
``frame_ratio.csv: 60`` or ``run.clean/features: 4``), so one line shows
which files a change moved. Re-record the table only for an intended
output change, and list every moved entry with it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from vidtldr.harness import runner
from vidtldr.harness.config import MODES, parse_config_text

from test_golden import _digest

TABLE = Path(__file__).with_name("golden_sweep.json")
# The modes that submit no reduced forward to the pool worker: baseline
# has none, and prune-rollout's reads the clean forward's rollout.
SERIAL_MODES = ("baseline", "prune-rollout")
SEEDS = (1, 20240318)
BIG = "clip.frames = 16\nclip.height = 112\nclip.width = 112\nmodel.width = 128\n"
SHAPES = {
    # name: (shape lines, schedule, patterns)
    "big": (BIG, "48,48,48,48,48,48", ("moving-blob", "front-loaded")),
    "desk": ("", "8,8,8,8,8,8", ("noise", "moving-blob", "front-loaded")),
}


def configs(seeds=SEEDS, shapes=tuple(SHAPES)):
    """(name, config text) of every swept run, out.dir relative."""
    for shape in shapes:
        lines, schedule, patterns = SHAPES[shape]
        for seed in seeds:
            for pattern in patterns:
                for mode in MODES:
                    yield f"{shape}/s{seed}/{pattern}/{mode}", (
                        lines + f"run.seed = {seed}\nclip.pattern = {pattern}\n"
                        f"run.mode = {mode}\n"
                        f"run.schedule = {'' if mode == 'baseline' else schedule}\n"
                        "dump.attention = true\ndump.tokens = true\nout.dir = out\n"
                    )


def _array_digest(a: np.ndarray) -> str:
    a = np.ascontiguousarray(a)
    return hashlib.sha256(f"{a.dtype.str}{a.shape}".encode() + a.tobytes()).hexdigest()


def _state_digests(prefix: str, state) -> dict[str, str]:
    return {
        f"{prefix}/{name}": _array_digest(getattr(state, name))
        for name in ("features", "masses", "owner")
    }


@contextmanager
def gate(open_: bool):
    """Force runner's thread gate; yield the list of pools it starts.
    Each pool records its ``max_workers`` and the names of the tasks
    submitted to it, in order, as ``tasks``."""
    saved = runner.CONCURRENT_MIN_MACS, runner.ThreadPoolExecutor
    started = []

    class Recorded(saved[1]):
        def __init__(self, max_workers=None, *args, **kwargs):
            self.max_workers, self.tasks = max_workers, []
            started.append(self)
            super().__init__(max_workers, *args, **kwargs)

        def submit(self, fn, /, *args, **kwargs):
            self.tasks.append(fn.__name__)
            return super().submit(fn, *args, **kwargs)

    runner.CONCURRENT_MIN_MACS = 0 if open_ else 2**62
    runner.ThreadPoolExecutor = Recorded
    try:
        yield started
    finally:
        runner.CONCURRENT_MIN_MACS, runner.ThreadPoolExecutor = saved


def sweep(open_: bool, seeds=SEEDS, shapes=tuple(SHAPES)) -> dict[str, str]:
    """Digest every swept run under the forced gate, in the current directory."""
    out = {}
    tasks = []  # what each call submits to its one-worker pool with the gate open
    with gate(open_) as started:
        for name, text in configs(seeds, shapes):
            cfg = parse_config_text(text)
            res = runner.run(cfg)
            for path in sorted(res.out_dir.iterdir()):
                out[f"{name}/{path.name}"] = _digest(path)
            out.update(_state_digests(f"{name}/run.clean", res.clean.final_state))
            out.update(_state_digests(f"{name}/run.result", res.final_state))
            clean, _, _ = runner.clean_forward(cfg)
            out.update(_state_digests(f"{name}/clean_forward", clean.final_state))
            serial = cfg.mode in SERIAL_MODES
            tasks += [["draw"] if serial else ["draw", "reduced"], ["draw"]]
    got = [(pool.max_workers, pool.tasks) for pool in started]
    if got != ([(1, t) for t in tasks] if open_ else []):
        raise AssertionError(f"gate {'open' if open_ else 'closed'}: pools {got} "
                             f"for {len(tasks)} calls")
    return out


def host_path() -> str:
    """numpy's version, its SIMD baseline and the dispatch targets it runs
    on this host, and the environment variables that pick other kernels."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    dispatch = [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]
    env = [f"{var}={os.environ[var]!r}"
           for var in ("NPY_DISABLE_CPU_FEATURES", "OPENBLAS_CORETYPE") if var in os.environ]
    return ", ".join([
        f"numpy {np.__version__}", f"SIMD baseline {' '.join(umath.__cpu_baseline__)}",
        f"dispatch {' '.join(dispatch) or 'none'}", *env,
    ])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--record", action="store_true", help="rewrite the digest table")
    args = ap.parse_args()
    expected = None if args.record else json.loads(TABLE.read_text())
    bad = 0
    print(host_path())
    with tempfile.TemporaryDirectory() as d:
        os.chdir(d)
        for open_ in (False, True):
            t0 = time.perf_counter()
            got = sweep(open_)
            label = "gate open" if open_ else "gate closed"
            if expected is None:
                expected = got
                TABLE.write_text(json.dumps(got, indent=1, sort_keys=True) + "\n")
            moved = sorted(k for k in got.keys() | expected.keys() if got.get(k) != expected.get(k))
            bad += len(moved)
            print(f"{label}: {len(got)} digests, {len(moved)} moved, "
                  f"{time.perf_counter() - t0:.1f} s")
            for k in moved:
                print(f"  moved: {k}")
            # one count per artifact: what follows shape/seed/pattern/mode/
            for artifact, count in sorted(Counter(k.split("/", 4)[4] for k in moved).items()):
                print(f"  {artifact}: {count}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
