"""Acceptance gate: one test per shipped guarantee.

Each test prints a scoreboard line of the form

    criterion NN <name>: PASS|FAIL (<measured detail>)

before asserting, so a plain `pytest -v tests/test_acceptance.py` run
shows every measured margin even when a criterion fails.
"""

import csv

import numpy as np

from vidtldr import costmodel, merging, numerics, saliency
from vidtldr.harness import runner
from vidtldr.harness.clips import synth_clip
from vidtldr.harness.config import parse_config_text
from vidtldr.model import (
    ClipSpec,
    LayerWeights,
    ModelConfig,
    NullReducer,
    PruneReducer,
    TomeReducer,
    attention_forward,
    forward_clip,
    init_weights,
)

GIGA = 1e9

DESK = ClipSpec(frames=8, height=64, width=64, tube=2, patch=16)      # 64 tokens
TINY = ClipSpec(frames=4, height=16, width=16, tube=2, patch=8)       # 8 tokens
MID = ClipSpec(frames=4, height=32, width=32, tube=2, patch=8)        # 32 tokens

PATTERNS = ("noise", "moving-blob", "front-loaded")


def report(capsys, num, name, ok, detail):
    with capsys.disabled():
        print(f"criterion {num:2d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")


def random_stochastic(rng, n):
    m = rng.uniform(0.05, 1.0, size=(n, n))
    return m / m.sum(axis=1, keepdims=True)


def random_masses_state(rng, n, width):
    feats = rng.normal(size=(n, width)).astype(np.float32)
    state = merging.new_state(feats)
    masses = rng.uniform(0.5, 3.0, size=n)
    return merging.TokenState(state.features, masses, state.owner)


def oracle_match(keys, part, r):
    keys = np.asarray(keys, dtype=np.float64)
    rows = []
    for s in part.src_index:
        best_d, best_sim = None, None
        for d in part.dst_index:
            sim = numerics.cosine_sim(keys[s], keys[d])
            if best_sim is None or sim > best_sim:
                best_d, best_sim = int(d), sim
        rows.append((int(s), best_d, best_sim))
    rows.sort(key=lambda t: (-t[2], t[0]))
    return rows[:r]


def oracle_merge(state, match, masses):
    feats = state.features.astype(np.float64)
    out_f, out_m = [], []
    for group in match.groups:
        idx = list(group)
        w = np.asarray([masses[i] for i in idx], dtype=np.float64)
        out_f.append((w[:, None] * feats[idx]).sum(axis=0) / w.sum())
        out_m.append(w.sum())
    return np.array(out_f), np.array(out_m)


def draw_schedule(rng, n, layers, force_first=True):
    """Random feasible schedule; each entry stays below the src capacity."""
    sched = []
    for l in range(layers):
        cap = n // 3
        lo = 1 if (force_first and l == 0 and cap >= 1) else 0
        r = int(rng.integers(lo, cap + 1))
        sched.append(r)
        n -= r
    return sched


def tiny_setup(seed, pattern, tau, layers=4):
    cfg = ModelConfig(width=16, heads=2, layers=layers, temporal_bias=tau)
    clip_seed, weight_seed = numerics.spawn_seeds(seed, 2)
    synth = synth_clip(TINY, clip_seed, pattern)
    weights = init_weights(cfg, TINY, weight_seed)
    return cfg, synth, weights


class UnitScoreMergeReducer:
    """Saliency-aware merge pipeline with the score multiplier pinned to 1."""

    merging = True

    def reduce(self, state, maps, r, layer):
        part = merging.bipartition(state.count)
        match = merging.soft_match(maps.keys, part, r)
        masses = merging.vidtldr_mass_update(state, part, np.ones(state.count))
        return merging.vidtldr_merge(state, match, masses)


class RecordingTomeReducer:
    merging = True

    def __init__(self):
        self.events = []

    def reduce(self, state, maps, r, layer):
        pre = float(state.masses.sum())
        part = merging.bipartition(state.count)
        match = merging.soft_match(maps.keys, part, r)
        out = merging.tome_merge(state, match)
        self.events.append((pre, float(out.masses.sum())))
        return out


class RecordingVidTldrReducer:
    merging = True

    def __init__(self):
        self.events = []

    def reduce(self, state, maps, r, layer):
        scores = saliency.masked_saliency_from_map(maps.head_mean_probs)
        part = merging.bipartition(state.count)
        match = merging.soft_match(maps.keys, part, r)
        masses = merging.vidtldr_mass_update(state, part, scores)
        out = merging.vidtldr_merge(state, match, masses)
        self.events.append((float(masses.sum()), float(out.masses.sum())))
        return out


# Reference totals for a 2352-token, width-768, 12-layer encoder:
# the base cost and the totals for removing 400 tokens inside layer l,
# l = 1..7 (1-based).
REF_BASE_TOTAL = 303.3e9
REF_COLUMN = [237.6e9, 243.1e9, 248.6e9, 254.0e9, 259.5e9, 265.0e9, 270.5e9]


def test_criterion_01_cost_table(capsys):
    cfg = costmodel.CostConfig(n0=2352, width=768, layers=12)
    base = costmodel.schedule_flops(cfg, []).total_flops
    base_err = abs(base - REF_BASE_TOTAL) / REF_BASE_TOTAL
    totals = [
        costmodel.schedule_flops(cfg, [0] * (l - 1) + [400]).total_flops
        for l in range(1, 8)
    ]
    col_errs = [abs(t - ref) / ref for t, ref in zip(totals, REF_COLUMN)]
    delta_errs = np.abs(np.diff(totals) - np.diff(REF_COLUMN))
    ok = base_err <= 0.02 and max(col_errs) <= 0.02 and delta_errs.max() <= 0.2 * GIGA
    detail = (
        f"base {base / GIGA:.2f}G off {base_err:.2%}, "
        f"column off max {max(col_errs):.2%}, "
        f"delta off max {delta_errs.max() / GIGA:.3f}G"
    )
    report(capsys, 1, "cost table reproduction", ok, detail)
    assert ok, detail


def test_criterion_02_later_reduction_costs_more(capsys):
    rng = numerics.make_rng(202)
    failures = 0
    for _ in range(200):
        n0 = int(rng.integers(16, 513))
        width = int(rng.integers(16, 769))
        layers = int(rng.integers(2, 13))
        r = int(rng.integers(1, n0 // 2 + 1))
        cfg = costmodel.CostConfig(n0=n0, width=width, layers=layers)
        totals = [
            costmodel.schedule_flops(cfg, [0] * l + [r]).total_flops
            for l in range(layers)
        ]
        if not all(b > a for a, b in zip(totals, totals[1:])):
            failures += 1
    ok = failures == 0
    detail = f"{200 - failures}/200 configs strictly increasing"
    report(capsys, 2, "later reduction costs more", ok, detail)
    assert ok, detail


def test_criterion_03_matching_and_merge_oracles(capsys):
    rng = numerics.make_rng(303)
    mismatches = 0
    max_err = 0.0
    for _ in range(500):
        n = int(rng.integers(2, 17))
        keys = rng.normal(size=(n, 5)).astype(np.float32)
        part = merging.bipartition(n)
        r = int(rng.integers(0, len(part.src_index) + 1))
        match = merging.soft_match(keys, part, r)
        expect = oracle_match(keys, part, r)
        if [(s, d) for s, d, _ in match.merges] != [(s, d) for s, d, _ in expect]:
            mismatches += 1
            continue

        state = random_masses_state(rng, n, 6)
        merged = merging.tome_merge(state, match)
        of, om = oracle_merge(state, match, state.masses)
        max_err = max(max_err, float(np.abs(merged.features - of).max()))
        max_err = max(max_err, float(np.abs(merged.masses - om).max()))

        masked = rng.uniform(size=n)
        updated = merging.vidtldr_mass_update(state, part, masked)
        merged2 = merging.vidtldr_merge(state, match, updated)
        m_oracle = state.masses.copy()
        src = part.src_index
        m_oracle[src] = np.maximum(masked[src] * m_oracle[src], merging.MASS_EPS)
        of2, om2 = oracle_merge(state, match, m_oracle)
        max_err = max(max_err, float(np.abs(merged2.features - of2).max()))
        max_err = max(max_err, float(np.abs(merged2.masses - om2).max()))
    ok = mismatches == 0 and max_err <= 1e-6
    detail = f"500 instances, {mismatches} match mismatches, merge err max {max_err:.2e}"
    report(capsys, 3, "matching and merge oracles", ok, detail)
    assert ok, detail


def test_criterion_04_unit_score_degeneration(capsys):
    rng = numerics.make_rng(404)
    max_err = 0.0
    for i in range(100):
        tau = float(rng.choice([0.0, 0.6, 1.8]))
        cfg, synth, weights = tiny_setup(1000 + i, PATTERNS[i % 3], tau)
        schedule = draw_schedule(rng, TINY.n_tokens, 3)
        a = forward_clip(
            synth.clip, TINY, cfg, weights, schedule, UnitScoreMergeReducer()
        )
        b = forward_clip(
            synth.clip, TINY, cfg, weights, schedule, TomeReducer()
        )
        sa, sb = a.final_state, b.final_state
        assert sa.provenance == sb.provenance
        max_err = max(max_err, float(np.abs(sa.features - sb.features).max()))
        max_err = max(max_err, float(np.abs(sa.masses - sb.masses).max()))
    ok = max_err <= 1e-7
    detail = f"100 forwards, final feature/mass gap max {max_err:.2e}"
    report(capsys, 4, "unit-score degeneration to plain merging", ok, detail)
    assert ok, detail


def test_criterion_05_mass_conservation(capsys):
    rng = numerics.make_rng(505)
    merges = 0
    max_err = 0.0
    max_total_err = 0.0
    for i in range(100):
        use_tome = i % 2 == 0
        reducer = RecordingTomeReducer() if use_tome else RecordingVidTldrReducer()
        cfg, synth, weights = tiny_setup(3000 + i, PATTERNS[i % 3], 0.6)
        schedule = draw_schedule(rng, TINY.n_tokens, 3)
        res = forward_clip(synth.clip, TINY, cfg, weights, schedule, reducer)
        for pre, post in reducer.events:
            merges += 1
            max_err = max(max_err, abs(post - pre))
        if use_tome:
            total_drift = abs(float(res.final_state.masses.sum()) - TINY.n_tokens)
            max_total_err = max(max_total_err, total_drift)
    ok = merges > 0 and max_err <= 1e-5 and max_total_err <= 1e-5
    detail = (
        f"{merges} merges over 100 forwards, per-merge drift max {max_err:.2e}, "
        f"whole-forward drift max {max_total_err:.2e}"
    )
    report(capsys, 5, "mass conservation", ok, detail)
    assert ok, detail


def test_criterion_06_saliency_extremes_and_equivariance(capsys):
    rng = numerics.make_rng(606)
    n = 24
    m = random_stochastic(rng, n)
    m[0] = 0.0
    m[0, 5] = 1.0
    m[1] = 1.0 / n
    s = saliency.sharpness_saliency(m)
    extremes_ok = s[0] == 1.0 and s[1] == 0.0

    base = random_stochastic(rng, n)
    s0 = saliency.sharpness_saliency(base)
    max_err = 0.0
    for _ in range(100):
        perm = rng.permutation(n)
        sp = saliency.sharpness_saliency(base[perm][:, perm])
        max_err = max(max_err, float(np.abs(sp - s0[perm]).max()))
    ok = extremes_ok and max_err <= 1e-9
    detail = (
        f"one-hot -> {s[0]}, uniform -> {s[1]}, "
        f"100 permutations err max {max_err:.2e}"
    )
    report(capsys, 6, "saliency extremes and permutation equivariance", ok, detail)
    assert ok, detail


def test_criterion_07_proportional_attention_identity(capsys):
    rng = numerics.make_rng(707)
    max_err = 0.0
    for _ in range(100):
        heads = int(rng.choice([1, 2, 4]))
        d = int(rng.choice([4, 8]))
        c = heads * d
        n = int(rng.integers(2, 13))
        g = int(rng.integers(1, 5))
        cfg = ModelConfig(
            width=c, heads=heads, layers=1, temporal_bias=float(rng.uniform(0.0, 2.0))
        )
        lw = LayerWeights(
            wq=rng.normal(0.0, 0.02, size=(c, c)).astype(np.float32),
            wk=rng.normal(0.0, 0.02, size=(c, c)).astype(np.float32),
            wv=rng.normal(0.0, 0.02, size=(c, c)).astype(np.float32),
            wo=rng.normal(0.0, 0.02, size=(c, c)).astype(np.float32),
            w1=rng.normal(0.0, 0.02, size=(c, 4 * c)).astype(np.float32),
            w2=rng.normal(0.0, 0.02, size=(4 * c, c)).astype(np.float32),
        )
        state = merging.new_state(rng.normal(size=(n, c)).astype(np.float32))
        tube_groups = rng.integers(0, g, size=n)
        out_plain, maps_plain = attention_forward(
            state, lw, cfg, tube_groups, g, proportional=False
        )
        out_prop, maps_prop = attention_forward(
            state, lw, cfg, tube_groups, g, proportional=True
        )
        max_err = max(max_err, float(np.abs(maps_prop.probs - maps_plain.probs).max()))
        max_err = max(
            max_err, float(np.abs(out_prop.features - out_plain.features).max())
        )
    ok = max_err <= 1e-6
    detail = f"100 layers, prob/feature gap max {max_err:.2e}"
    report(capsys, 7, "proportional attention identity at unit mass", ok, detail)
    assert ok, detail


def head_mean_maps(clip, cfg, weights):
    """Each layer's head-mean map of a no-reduction forward, from its sink."""
    maps = []
    forward_clip(
        clip, DESK, cfg, weights, [], NullReducer(),
        sink=lambda layer, m: maps.append(m.head_mean_probs),
    )
    return maps


def test_criterion_08_foreground_discrimination(capsys):
    cfg = ModelConfig(width=64, heads=4, layers=2, temporal_bias=0.0)
    margins = []
    for seed in range(50):
        clip_seed, weight_seed = numerics.spawn_seeds(seed, 2)
        synth = synth_clip(DESK, clip_seed, "moving-blob")
        weights = init_weights(cfg, DESK, weight_seed)
        maps = head_mean_maps(synth.clip, cfg, weights)
        shat = saliency.masked_saliency_from_map(maps[1])
        fg = np.zeros(DESK.n_tokens, dtype=bool)
        fg[list(synth.foreground)] = True
        margins.append(float(shat[fg].mean() - shat[~fg].mean()))
    margins = np.array(margins)
    wins = int((margins > 0).sum())
    ok = wins >= 45
    detail = (
        f"{wins}/50 clips, margin min {margins.min():+.3f} "
        f"median {np.median(margins):+.3f}"
    )
    report(capsys, 8, "foreground discrimination", ok, detail)
    assert ok, detail


def test_criterion_09_temporal_bias_mitigation(capsys):
    cfg = ModelConfig(width=64, heads=4, layers=1, temporal_bias=1.8)
    frame_of = DESK.tube_frame_groups()
    gaps = []
    for seed in range(50):
        clip_seed, weight_seed = numerics.spawn_seeds(seed, 2)
        synth = synth_clip(DESK, clip_seed, "front-loaded")
        weights = init_weights(cfg, DESK, weight_seed)
        first = head_mean_maps(synth.clip, cfg, weights)[0]
        ra = saliency.frame_score_ratio(
            saliency.attentiveness(first), frame_of, DESK.n_groups
        )
        rs = saliency.frame_score_ratio(
            saliency.masked_saliency_from_map(first), frame_of, DESK.n_groups
        )
        gaps.append(float(np.std(ra) - np.std(rs)))
    gaps = np.array(gaps)
    wins = int((gaps > 0).sum())
    ok = wins >= 40
    detail = (
        f"{wins}/50 clips flatter, std gap min {gaps.min():+.4f} "
        f"median {np.median(gaps):+.4f}"
    )
    report(capsys, 9, "temporal bias mitigation", ok, detail)
    assert ok, detail


def test_criterion_10_run_determinism(tmp_path, capsys):
    text = (
        "run.seed = 7\nrun.mode = vidtldr\nrun.schedule = 16,16,16\n"
        "clip.pattern = moving-blob\ndump.attention = true\ndump.tokens = true\n"
        f"out.dir = {tmp_path}\n"
    )
    cfg = parse_config_text(text)
    first = runner.run(cfg)
    names = sorted(p.name for p in first.out_dir.iterdir())
    snapshot = {name: (first.out_dir / name).read_bytes() for name in names}
    second = runner.run(cfg)

    def metrics_sans_wall(blob):
        rows = list(csv.reader(blob.decode().splitlines()))
        return [row[:-1] for row in rows]

    tensor_names = [n for n in names if n.endswith(".vtdr")]
    csv_ok = metrics_sans_wall(snapshot["metrics.csv"]) == metrics_sans_wall(
        (second.out_dir / "metrics.csv").read_bytes()
    )
    tensors_ok = all(
        (second.out_dir / n).read_bytes() == snapshot[n] for n in tensor_names
    )
    rest_ok = all(
        (second.out_dir / n).read_bytes() == snapshot[n]
        for n in names
        if n not in tensor_names and n != "metrics.csv"
    )
    ok = csv_ok and tensors_ok and rest_ok
    detail = (
        f"metrics identical sans wall_ms: {csv_ok}, "
        f"{len(tensor_names)} tensor dumps bit-identical: {tensors_ok}, "
        f"other artifacts identical: {rest_ok}"
    )
    report(capsys, 10, "byte-level run determinism", ok, detail)
    assert ok, detail


def test_criterion_11_schedule_count_contract(capsys):
    rng = numerics.make_rng(1111)
    cfg = ModelConfig(width=32, heads=4, layers=4, temporal_bias=0.6)
    clip_seed, weight_seed = numerics.spawn_seeds(11, 2)
    synth = synth_clip(MID, clip_seed, "moving-blob")
    weights = init_weights(cfg, MID, weight_seed)
    reducers = (
        lambda: TomeReducer(),
        lambda: UnitScoreMergeReducer(),
        lambda: PruneReducer(
            lambda state, maps, layer: saliency.attentiveness(maps.head_mean_probs)
        ),
    )
    failures = 0
    finals = []
    for i in range(100):
        schedule = draw_schedule(rng, MID.n_tokens, 4, force_first=False)
        make = reducers[i % 3]
        res = forward_clip(synth.clip, MID, cfg, weights, schedule, make())
        expect = MID.n_tokens - sum(schedule)
        finals.append(res.final_state.count)
        if res.final_state.count != expect or res.traces[-1].tokens_out != expect:
            failures += 1
    ok = failures == 0
    detail = (
        f"{100 - failures}/100 schedules exact, final counts "
        f"{min(finals)}..{max(finals)} of {MID.n_tokens}"
    )
    report(capsys, 11, "schedule count contract", ok, detail)
    assert ok, detail
