"""vidtldr benchmark: one workload per process, closed loop, every output checked.

Run from the repository root:

    python3 perfbench/run.py --workload desk-sweep --seed 1 --seconds 20 --trace 0

Workloads are desk-sweep, big-merge and big-prune (see README.md). The
benchmark builds the workload's config files from --seed, drives the
program only through ``harness.config.load_config``, ``harness.runner.run``
and ``harness.runner.compare``, one call at a time, and checks every
output with checks.py.

--trace 0 times pairs of whole rounds (one at --seed, one at the fixed
quality-panel seed) until the program has been busy for --seconds, and
prints the end-to-end metrics. --trace 1 times rounds at --seed for
--seconds untraced, then again with tracer.py's wrappers installed, and
prints the per-layer metrics and the tracing overhead. The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.

Everything the benchmark writes goes under .perfbench_out/ in the
repository root.
"""

import time

T_START = time.perf_counter()

import os  # noqa: E402

# Pin BLAS and OpenMP pools to one thread before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import selftest  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(".perfbench_out")
SETUP_SAMPLES = 3          # this process plus two fresh --setup-only processes
SETUP_TIMEOUT_S = 120

END_TO_END = {
    "setup_s": "s",
    "run_ms": "ms",
    "clips_per_s": "clips/s",
    "peak_rss_mb": "MB",
    "fg_mass_share": "fraction",
    "pooled_cos_dist": "unitless",
}


@dataclass
class Tally:
    """Operations attempted, the failures of the known fault, and wrong outputs."""

    attempted: int = 0
    failed: int = 0
    wrong: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)

    def judge(self, label: str, problems) -> None:
        self.attempted += 1
        names = {p.check for p in problems}
        if not problems:
            return
        if checks.PRUNED_MASS in names and names <= {checks.PRUNED_MASS, checks.RERUN_MASS}:
            self.failed += 1
            return
        self.wrong += [f"{label}: {p.check}: {p.detail}" for p in problems]


@dataclass
class Loop:
    run_s: list = field(default_factory=list)   # wall time of each runner.run call
    run_names: list = field(default_factory=list)
    program_s: float = 0.0                      # load_config + run + compare time
    fg_shares: list = field(default_factory=list)
    cos_dists: list = field(default_factory=list)

    def by_config(self) -> dict[str, list[float]]:
        out = {}
        for name, secs in zip(self.run_names, self.run_s):
            out.setdefault(name, []).append(secs)
        return out

    def run_ms(self) -> float:
        """Mean over the round's configs of each config's median run time.

        A plain median over all calls would sit between the clusters of
        different configs (desk baselines take ~100 ms, tome ~180 ms) and
        jump between them from run to run.
        """
        return 1e3 * statistics.fmean(statistics.median(v) for v in self.by_config().values())


def fg_mass_share(res) -> float:
    final = res.result.traces[-1].state_after
    fg = set(res.clip.foreground)
    on_fg = sum(float(m) * sum(t in fg for t in tubes) / len(tubes)
                for m, tubes in zip(final.masses, final.provenance))
    return on_fg / sum(float(m) for m in final.masses)


def pooled_cos_dist(res) -> float:
    final = res.result.traces[-1].state_after
    clean = res.clean.traces[-1].state_after
    return checks.cosine_distance(checks.exact_pooled(final.masses, final.features),
                                  checks.exact_pooled(clean.masses, clean.features))


def run_round(groups, paths, tally: Tally, loop: Loop, quality: bool = False) -> None:
    """One pass over the workload's groups: each run, then the group's compare.

    With `quality`, the reduced runs' fg_mass_share and pooled_cos_dist
    are collected too.
    """
    from vidtldr.harness import config, runner

    clock = time.perf_counter
    for group, gpaths in zip(groups, paths):
        results = []
        for spec, path in zip(group.runs, gpaths):
            t0 = clock()
            cfg = config.load_config(path)
            t1 = clock()
            res = runner.run(cfg)
            t2 = clock()
            loop.run_s.append(t2 - t1)
            loop.run_names.append(spec.name)
            loop.program_s += t2 - t0
            problems = checks.check_run(res)
            digests = checks.artifact_digests(res.out_dir)
            if res.run_id in tally.digests:
                problems += checks.check_rerun(tally.digests[res.run_id], digests)
            else:
                tally.digests[res.run_id] = digests
            tally.judge(spec.name, problems)
            if quality and spec.mode != "baseline":
                if res.clip.foreground:
                    loop.fg_shares.append(fg_mass_share(res))
                loop.cos_dists.append(pooled_cos_dist(res))
            results.append(res)
        if group.compare:
            t0 = clock()
            header, rows = runner.compare([r.out_dir for r in results])
            loop.program_s += clock() - t0
            tally.judge(f"compare {group.runs[0].pattern}",
                        checks.check_compare(header, rows, results))


def timed_loop(rounds, seconds: float, tally: Tally) -> Loop:
    """Whole passes over `rounds` until the program has been busy for `seconds`.

    `rounds` is a list of (groups, paths, quality) triples.
    """
    loop = Loop()
    while True:
        for groups, paths, quality in rounds:
            run_round(groups, paths, tally, loop, quality)
        if loop.program_s >= seconds:
            return loop


def set_up(workload: str, seed: int, base: Path):
    """Imports, config generation and one untimed warm-up run.

    Returns the seeded round, the quality-panel round (each as groups and
    config paths) and the set-up time.
    """
    from vidtldr.harness import config, runner

    shutil.rmtree(base, ignore_errors=True)
    build = workloads.WORKLOADS[workload]
    groups = build(seed, base / "runs")
    panel = build(workloads.PANEL_SEED, base / "runs")
    seeded = (groups, workloads.write_configs(groups, base / "configs"))
    panel = (panel, workloads.write_configs(panel, base / "panel-configs"))
    warm = workloads.warmup(base / "warmup")
    warm_path = base / "configs" / "warmup.cfg"
    warm_path.write_text(warm.text)
    runner.run(config.load_config(warm_path))
    return seeded, panel, time.perf_counter() - T_START


def setup_samples(args) -> list[float]:
    """Set-up time of fresh processes doing the same set-up."""
    times = []
    for i in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only", str(i)],
            cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True,
        )
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", type=int, default=None, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "vidtldr" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC / 'vidtldr'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))

    base = OUT / args.workload
    if args.setup_only is not None:
        print(set_up(args.workload, args.seed, base / f"setup{args.setup_only}")[2])
        return 0

    (groups, paths), (panel, panel_paths), setup_s = set_up(args.workload, args.seed, base)
    tally = Tally()
    if args.trace == 0:
        # Seeded and panel rounds alternate; both are timed, and only the
        # panel's runs give the quality metrics.
        loop = timed_loop([(groups, paths, False), (panel, panel_paths, True)],
                          args.seconds, tally)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        wrong_selftests = selftest.run_selftests(OUT / "selftest")
        values = {
            "setup_s": statistics.median([setup_s] + setup_samples(args)),
            "run_ms": loop.run_ms(),
            "clips_per_s": len(loop.run_s) / loop.program_s,
            "peak_rss_mb": peak_rss_mb,
            "fg_mass_share": statistics.fmean(loop.fg_shares),
            "pooled_cos_dist": statistics.fmean(loop.cos_dists),
        }
        metrics = {k: (v, END_TO_END[k]) for k, v in values.items()}
    else:
        loop = timed_loop([(groups, paths, False)], args.seconds, tally)
        with tracer.Tracer() as tr:
            traced = timed_loop([(groups, paths, False)], args.seconds, tally)
        tally.wrong += [f"{p.check}: {p.detail}"
                        for p in checks.check_matmul_samples(tr.matmul_samples)]
        wrong_selftests = selftest.run_selftests(OUT / "selftest")
        metrics = tracer.per_layer_metrics(tr, len(traced.run_s))
        untraced_ms = loop.run_ms()
        traced_ms = traced.run_ms()
        metrics["trace.overhead_ms"] = (traced_ms - untraced_ms, "ms")

    tally.wrong += [f"self-test: {w}" for w in wrong_selftests]
    env = environment()
    print("perfbench env " + json.dumps(env))
    for name, (value, unit) in metrics.items():
        print(f"perfbench metric {name} = {value!r} {unit}")
    if tally.failed:
        print(f"perfbench failed {tally.failed} of {tally.attempted} operations: "
              f"{checks.PRUNED_MASS} (runner.run leaves the mass.csv rows of pruned "
              "tubes uninitialised)")
    for w in tally.wrong:
        print(f"perfbench WRONG {w}")
    result = {
        "correct": not tally.wrong,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    per_config = {k: [round(1e3 * x, 3) for x in v] for k, v in loop.by_config().items()}
    (base / f"result-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(
        {"env": env, "wrong": tally.wrong, "run_ms_by_config": per_config, **result}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
