"""Self-tests: every output check must reject a deliberately corrupted artifact.

Runs two tiny configs (8 tokens, 4 layers; a few milliseconds each),
confirms that the checks accept what the program wrote, then corrupts
one thing at a time and confirms the matching check fires:

* a flipped byte in pooled.vtdr (the pooled check and the re-run digest),
* a token count off by one in metrics.csv,
* a one-ulp change in a matmul product (the matmul oracle),
* a nonzero mass on a pruned tube in mass.csv.

``run.py`` calls ``run_selftests`` in every benchmark run; it can also
be run alone: ``python3 perfbench/selftest.py`` from the repository root.
"""

from __future__ import annotations

import dataclasses
import shutil
import sys
from pathlib import Path

import numpy as np

import checks

TINY = """\
clip.frames = 4
clip.height = 16
clip.width = 16
clip.patch = 8
model.width = 16
model.heads = 2
model.layers = 4
run.seed = 11
run.schedule = 2,1
dump.tokens = true
"""


def _corrupt(res, out: Path, name: str, mutate):
    """Copy the run's artifacts, mutate one file, and point a result at the copy."""
    dst = out / "corrupt" / res.run_id
    shutil.rmtree(dst, ignore_errors=True)
    shutil.copytree(res.out_dir, dst)
    path = dst / name
    path.write_bytes(mutate(path.read_bytes()))
    return dataclasses.replace(res, out_dir=dst)


def _flip_last_byte(blob: bytes) -> bytes:
    return blob[:-1] + bytes([blob[-1] ^ 0xFF])


def _token_count_plus_one(blob: bytes) -> bytes:
    header, rows = checks.read_csv(blob.decode())
    rows[0][3] = str(int(rows[0][3]) + 1)
    return ("\r\n".join(",".join(r) for r in [header] + rows) + "\r\n").encode()


def _mass_text(geo, provenance, pruned_value: float) -> str:
    live = {t for tubes in provenance for t in tubes}
    lines = [",".join(checks.MASS_HEADER)]
    for t in range(geo.n0):
        v = 1.0 if t in live else pruned_value
        lines.append(f"{t},{t // geo.per_group},{v!r}")
    return "\r\n".join(lines) + "\r\n"


def run_selftests(out: Path) -> list[str]:
    """Return a description of every self-test that did not behave."""
    from vidtldr import numerics
    from vidtldr.harness import config, runner

    shutil.rmtree(out, ignore_errors=True)
    fails = []

    def expect(what: str, problems, prefix: str | None):
        hit = [p for p in problems if prefix is not None and p.check.startswith(prefix)]
        if prefix is None and problems:
            fails.append(f"{what}: unexpected {problems}")
        elif prefix is not None and not hit:
            fails.append(f"{what}: no '{prefix}' problem in {problems}")

    res = runner.run(config.parse_config_text(
        TINY + f"run.mode = tome\nout.dir = {(out / 'runs').as_posix()}\n"))
    expect("tome run as written", checks.check_run(res), None)
    first = checks.artifact_digests(res.out_dir)

    bad = _corrupt(res, out, "pooled.vtdr", _flip_last_byte)
    expect("flipped byte in pooled.vtdr", checks.check_run(bad), "pooled")
    expect("flipped byte, re-run digest",
           checks.check_rerun(first, checks.artifact_digests(bad.out_dir)), "rerun:pooled.vtdr")

    bad = _corrupt(res, out, "metrics.csv", _token_count_plus_one)
    expect("token count off by one", checks.check_run(bad), "metrics.token_count")

    pr = runner.run(config.parse_config_text(
        TINY + f"run.mode = prune-attentiveness\nout.dir = {(out / 'runs').as_posix()}\n"))
    geo = checks.Geometry.of(pr.config)
    final = pr.result.traces[-1].state_after
    expect("prune masses, pruned tubes at 0",
           checks.check_masses(_mass_text(geo, final.provenance, 0.0), geo,
                               final.masses, final.provenance), None)
    expect("nonzero pruned mass",
           checks.check_masses(_mass_text(geo, final.provenance, 5e-324), geo,
                               final.masses, final.provenance), checks.PRUNED_MASS)

    rng = np.random.default_rng(5)
    a = rng.normal(size=(5, 33)).astype(np.float32)
    b = rng.normal(size=(33, 4)).astype(np.float32)
    prod = numerics.matmul(a, b)
    samples = [(a[i], b[:, j], prod[i, j]) for i in range(5) for j in range(4)]
    expect("matmul samples as computed", checks.check_matmul_samples(samples), None)
    row, col, got = samples[7]
    samples[7] = (row, col, np.nextafter(got, np.float32(np.inf)))
    expect("one-ulp change in a product", checks.check_matmul_samples(samples), "matmul.oracle")
    return fails


if __name__ == "__main__":
    root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "src"))
    failures = run_selftests(root / ".perfbench_out" / "selftest")
    for f in failures:
        print("FAIL", f)
    print("self-tests:", "all passed" if not failures else f"{len(failures)} failed")
    sys.exit(1 if failures else 0)
