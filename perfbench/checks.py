"""Independent checks of a run's outputs.

Each check recomputes what an artifact must hold with the benchmark's
own parsers and formulas: CSV text, a separate VTDR reader, the
closed-form cost 4nC^2 + 2n^2C + 8n'C^2, float64 sums with math.fsum,
and a plain Python k-ordered loop for matrix products. Nothing here
calls back into the program except to read the fields of the
RunResult that ``runner.run`` returned.

A check returns a list of Problem; an empty list means it passed.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Check name of the known fault: runner.run builds mass.csv from
# np.empty and never writes the tubes a prune mode dropped.
PRUNED_MASS = "pruned-mass"
# A re-run of a prune config may then differ in mass.csv only.
RERUN_MASS = "rerun:mass.csv"

# Modes whose final provenance covers every tube.
UNPRUNED_MODES = ("baseline", "tome", "vidtldr")
METRICS_HEADER = ["run_id", "mode", "layer", "token_count", "flops", "mean_saliency", "wall_ms"]
RATIO_HEADER = ["frame_index", "ratio_attentiveness", "ratio_rollout", "ratio_masked_saliency"]
MASS_HEADER = ["tube_index", "frame_group", "mass_share"]
COMPARE_HEADER = ["run_id", "mode", "total_flops", "final_tokens", "token_trajectory",
                  "feature_distance"]
MLP_RATIO = 4
ROW_SUM_TOL = 1e-5


@dataclass(frozen=True)
class Problem:
    check: str
    detail: str


@dataclass(frozen=True)
class Geometry:
    """What the benchmark derives from a config on its own."""

    n0: int
    per_group: int
    n_groups: int
    width: int
    heads: int
    layers: int
    schedule: tuple[int, ...]   # zero-padded to `layers`
    mode: str

    @classmethod
    def of(cls, cfg) -> "Geometry":
        per_group = (cfg.height // cfg.patch) * (cfg.width // cfg.patch)
        n_groups = cfg.frames // cfg.tube
        sched = tuple(cfg.schedule) + (0,) * (cfg.layers - len(cfg.schedule))
        return cls(n_groups * per_group, per_group, n_groups, cfg.model_width, cfg.heads,
                   cfg.layers, sched, cfg.mode)

    def trajectory(self) -> list[tuple[int, int]]:
        """(tokens entering, tokens leaving) per layer."""
        out, n = [], self.n0
        for r in self.schedule:
            out.append((n, n - r))
            n -= r
        return out


def layer_cost(n_in: int, n_out: int, c: int) -> int:
    """Closed-form MACs of one layer: attention at n_in tokens, MLP at n_out."""
    return 4 * n_in * c * c + 2 * n_in * n_in * c + 2 * MLP_RATIO * n_out * c * c


def read_csv(text: str) -> tuple[list[str], list[list[str]]]:
    rows = list(csv.reader(io.StringIO(text)))
    return (rows[0] if rows else []), rows[1:]


def read_vtdr(blob: bytes) -> np.ndarray:
    """Parse a VTDR tensor (magic, version 1, rank, u32 dims, f32 payload)."""
    if len(blob) < 6 or blob[:4] != b"VTDR" or blob[4] != 1 or blob[5] < 1:
        raise ValueError("bad VTDR header")
    rank = blob[5]
    shape = struct.unpack(f"<{rank}I", blob[6:6 + 4 * rank])
    count = math.prod(shape)
    if len(blob) != 6 + 4 * rank + 4 * count:
        raise ValueError(f"VTDR size {len(blob)} does not match shape {shape}")
    return np.frombuffer(blob, dtype="<f4", offset=6 + 4 * rank).reshape(shape)


# ---------------------------------------------------------------- per file


def check_metrics(text: str, run_id: str, geo: Geometry) -> list[Problem]:
    header, rows = read_csv(text)
    if header != METRICS_HEADER or len(rows) != geo.layers:
        return [Problem("metrics", f"header {header} with {len(rows)} rows")]
    probs = []
    for l, (row, (n_in, n_out)) in enumerate(zip(rows, geo.trajectory())):
        if row[:3] != [run_id, geo.mode, str(l)]:
            probs.append(Problem("metrics", f"layer {l}: key columns {row[:3]}"))
        if row[3] != str(n_out):
            probs.append(Problem("metrics.token_count", f"layer {l}: {row[3]} != {n_out}"))
        want = layer_cost(n_in, n_out, geo.width)
        if row[4] != str(want):
            probs.append(Problem("metrics.flops", f"layer {l}: {row[4]} != {want}"))
        if not 0.0 <= float(row[5]) <= 1.0 or not float(row[6]) > 0.0:
            probs.append(Problem("metrics", f"layer {l}: saliency/wall {row[5:]}"))
    return probs


def check_frame_ratio(text: str, geo: Geometry) -> list[Problem]:
    header, rows = read_csv(text)
    if header != RATIO_HEADER or [r[0] for r in rows] != [str(g) for g in range(geo.n_groups)]:
        return [Problem("frame_ratio", f"header {header}, frame column {[r[0] for r in rows]}")]
    probs = []
    for col in range(1, 4):
        vals = [float(r[col]) for r in rows]
        if min(vals) < 0.0 or abs(math.fsum(vals) - 1.0) > 1e-9:
            probs.append(Problem("frame_ratio", f"{header[col]}: min {min(vals)!r}, "
                                                f"sum {math.fsum(vals)!r}"))
    return probs


def check_masses(text: str, geo: Geometry, masses, provenance) -> list[Problem]:
    """Mode rules on mass.csv, plus the attribution of every live tube."""
    header, rows = read_csv(text)
    want_keys = [[str(t), str(t // geo.per_group)] for t in range(geo.n0)]
    if header != MASS_HEADER or [r[:2] for r in rows] != want_keys:
        return [Problem("mass", f"header {header} or tube/frame columns wrong")]
    share = [float(r[2]) for r in rows]
    live = {}
    for m, tubes in zip(masses, provenance):
        for t in tubes:
            live[t] = float(m) / len(tubes)
    probs = []
    bad = [t for t, v in live.items() if share[t] != v]
    if bad:
        probs.append(Problem("mass.attribution", f"{len(bad)} tubes differ, first {bad[0]}"))
    total = math.fsum(share)
    if geo.mode == "baseline" and any(v != 1.0 for v in share):
        probs.append(Problem("mass.baseline", "a tube's mass is not 1"))
    elif geo.mode == "tome" and abs(total - geo.n0) > 1e-9 * geo.n0:
        probs.append(Problem("mass.tome", f"total {total!r} != n0 {geo.n0}"))
    elif geo.mode == "vidtldr" and (total > geo.n0 * (1 + 1e-12) or min(share) <= 0.0):
        probs.append(Problem("mass.vidtldr", f"total {total!r} > n0 {geo.n0} or a mass <= 0"))
    elif geo.mode.startswith("prune-"):
        kept = [t for t in range(geo.n0) if t in live]
        if any(share[t] != 1.0 for t in kept):
            probs.append(Problem("mass.prune", "a kept tube's mass is not 1"))
        pruned = [t for t in range(geo.n0) if t not in live]
        nonzero = [t for t in pruned if share[t] != 0.0]
        if nonzero:
            probs.append(Problem(
                PRUNED_MASS,
                f"{len(nonzero)} of {len(pruned)} pruned tubes carry nonzero mass, "
                f"e.g. tube {nonzero[0]} = {share[nonzero[0]]!r}",
            ))
    return probs


def check_provenance(provenance, geo: Geometry) -> list[Problem]:
    seen = [t for tubes in provenance for t in tubes]
    n_final = geo.trajectory()[-1][1]
    probs = []
    if len(provenance) != n_final:
        probs.append(Problem("provenance", f"{len(provenance)} tokens, expected {n_final}"))
    if len(seen) != len(set(seen)) or any(not 0 <= t < geo.n0 for t in seen):
        probs.append(Problem("provenance", "a tube is covered twice or is out of range"))
    if geo.mode in UNPRUNED_MODES and sorted(seen) != list(range(geo.n0)):
        probs.append(Problem("provenance", f"covers {len(set(seen))} of {geo.n0} tubes"))
    return probs


def exact_pooled(masses, features) -> np.ndarray:
    """Mass-weighted mean of the features, each sum correctly rounded (float64)."""
    w = [float(m) for m in masses]
    f = np.asarray(features, dtype=np.float64)
    den = math.fsum(w)
    return np.array([math.fsum(wi * x for wi, x in zip(w, f[:, j].tolist())) / den
                     for j in range(f.shape[1])])


def check_pooled(pooled: np.ndarray, masses, features) -> list[Problem]:
    """pooled.vtdr must be the float32 rounding of the exact weighted mean.

    A value within 1e-12 (relative) of a float32 rounding midpoint may
    round either way, so the bound is half a float32 ulp plus that slack.
    """
    ref = exact_pooled(masses, features)
    p = np.asarray(pooled, dtype=np.float32).reshape(-1)
    if p.shape != ref.shape:
        return [Problem("pooled", f"shape {pooled.shape}, expected (1, {ref.shape[0]})")]
    err = np.abs(p.astype(np.float64) - ref)
    limit = 0.5 * np.spacing(np.abs(p)).astype(np.float64) + 1e-12 * np.abs(ref)
    if not (err <= limit).all():
        j = int(np.argmax(err - limit))
        return [Problem("pooled", f"element {j}: {p[j]!r} vs exact {ref[j]!r}")]
    return []


def check_dumps(out_dir: Path, geo: Geometry, dump_attention: bool, dump_tokens: bool,
                masses, features) -> list[Problem]:
    probs = []
    names = {p.name for p in out_dir.iterdir()}
    want = {"config.txt", "metrics.csv", "frame_ratio.csv", "mass.csv", "pooled.vtdr"}
    if dump_attention:
        want |= {f"attention_l{l:02d}.vtdr" for l in range(geo.layers)}
    if dump_tokens:
        want |= {"tokens.vtdr", "masses.vtdr"}
    if names != want:
        return [Problem("files", f"missing {sorted(want - names)}, extra {sorted(names - want)}")]
    if dump_attention:
        for l, (n_in, _) in enumerate(geo.trajectory()):
            a = read_vtdr((out_dir / f"attention_l{l:02d}.vtdr").read_bytes())
            sums = a.astype(np.float64).sum(axis=2)
            if a.shape != (geo.heads, n_in, n_in) or (a < 0).any() or \
                    np.abs(sums - 1.0).max() > ROW_SUM_TOL:
                probs.append(Problem("dump.attention", f"layer {l}: shape {a.shape} "
                                                       f"or rows not stochastic"))
    if dump_tokens:
        t = read_vtdr((out_dir / "tokens.vtdr").read_bytes())
        m = read_vtdr((out_dir / "masses.vtdr").read_bytes())
        if t.tobytes() != np.asarray(features, dtype="<f4").tobytes():
            probs.append(Problem("dump.tokens", "tokens.vtdr differs from the final features"))
        if m.tobytes() != np.asarray(masses, dtype="<f4").tobytes():
            probs.append(Problem("dump.tokens", "masses.vtdr differs from the final masses"))
    return probs


def check_run(res) -> list[Problem]:
    """Every per-run check on the artifacts of one runner.run result."""
    cfg, out = res.config, Path(res.out_dir)
    geo = Geometry.of(cfg)
    final = res.result.traces[-1].state_after
    probs = []
    config_text = (out / "config.txt").read_bytes()
    if hashlib.sha256(config_text).hexdigest()[:12] != out.name:
        probs.append(Problem("run_id", "directory name is not the config digest"))
    probs += check_dumps(out, geo, cfg.dump_attention, cfg.dump_tokens,
                         final.masses, final.features)
    if probs:
        return probs
    probs += check_metrics((out / "metrics.csv").read_text(), out.name, geo)
    probs += check_frame_ratio((out / "frame_ratio.csv").read_text(), geo)
    probs += check_masses((out / "mass.csv").read_text(), geo, final.masses, final.provenance)
    probs += check_provenance(final.provenance, geo)
    probs += check_pooled(read_vtdr((out / "pooled.vtdr").read_bytes()),
                          final.masses, final.features)
    return probs


# ---------------------------------------------------------------- compare


def cosine_distance(u, v) -> float:
    u = np.asarray(u, dtype=np.float64).reshape(-1).tolist()
    v = np.asarray(v, dtype=np.float64).reshape(-1).tolist()
    dot = math.fsum(a * b for a, b in zip(u, v))
    nu = math.sqrt(math.fsum(a * a for a in u))
    nv = math.sqrt(math.fsum(b * b for b in v))
    return 1.0 - dot / (nu * nv)


def check_compare(header, rows, results) -> list[Problem]:
    """runner.compare output against the group it was given (reference first)."""
    if list(header) != COMPARE_HEADER or len(rows) != len(results):
        return [Problem("compare", f"header {header} with {len(rows)} rows")]
    probs = []
    ref = read_vtdr((Path(results[0].out_dir) / "pooled.vtdr").read_bytes())
    for row, res in zip(rows, results):
        geo = Geometry.of(res.config)
        traj = geo.trajectory()
        want = [res.run_id, geo.mode, str(sum(layer_cost(a, b, geo.width) for a, b in traj)),
                str(traj[-1][1]), " ".join(str(b) for _, b in traj)]
        if list(row[:5]) != want:
            probs.append(Problem("compare", f"{res.run_id}: {row[:5]} != {want}"))
        pooled = read_vtdr((Path(res.out_dir) / "pooled.vtdr").read_bytes())
        dist = 0.0 if np.array_equal(pooled, ref) else cosine_distance(pooled, ref)
        if abs(float(row[5]) - dist) > 1e-12:
            probs.append(Problem("compare.distance", f"{res.run_id}: {row[5]} vs {dist!r}"))
    return probs


# ---------------------------------------------------------------- re-runs


def artifact_digests(out_dir: Path) -> dict[str, str]:
    """SHA-256 of every artifact; metrics.csv without its wall_ms column."""
    out = {}
    for p in sorted(Path(out_dir).iterdir()):
        blob = p.read_bytes()
        if p.name == "metrics.csv":
            header, rows = read_csv(blob.decode())
            blob = "\n".join(",".join(r[:-1]) for r in [header] + rows).encode()
        out[p.name] = hashlib.sha256(blob).hexdigest()
    return out


def check_rerun(first: dict[str, str], again: dict[str, str]) -> list[Problem]:
    if first.keys() != again.keys():
        return [Problem("rerun", f"file sets differ: {sorted(first.keys() ^ again.keys())}")]
    return [Problem(f"rerun:{name}", "bytes differ from the first run of this config")
            for name in first if first[name] != again[name]]


# ---------------------------------------------------------------- matmul


def check_matmul_samples(samples) -> list[Problem]:
    """Each (a_row, b_col, out) sample equals a plain k-ordered float64 loop."""
    probs = []
    for i, (row, col, got) in enumerate(samples):
        acc = 0.0
        for x, y in zip(row.tolist(), col.tolist()):
            acc += x * y
        if np.float32(acc).tobytes() != np.float32(got).tobytes():
            probs.append(Problem("matmul.oracle", f"sample {i}: {got!r} vs loop {acc!r}"))
    return probs
