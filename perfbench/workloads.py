"""Workload definitions: the configs each workload feeds the program.

A workload is a fixed list of groups. Each group is a list of runs that
share one clip (same run.seed and clip.pattern), optionally followed by
a ``runner.compare`` over the group with the first run as reference.
One pass over all groups is a round; the benchmark only ever attempts
whole rounds, so every run attempts the same mix of operations.

The benchmark seed becomes ``run.seed`` of every config, which derives
the clip voxels and the model weights. The program sees nothing but the
generated config files.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

MODES = (
    "baseline",
    "tome",
    "vidtldr",
    "prune-attentiveness",
    "prune-rollout",
    "prune-sharpness",
)
PATTERNS = ("noise", "moving-blob", "front-loaded")

# Clip/model shapes, as config lines (everything else keeps its default).
DESK = {}  # defaults: 8 frames of 64x64, tube 2, patch 16 -> 64 tokens; width 64, 4 heads, 8 layers
BIG = {
    "clip.frames": "16",
    "clip.height": "112",
    "clip.width": "112",
    "model.width": "128",
}  # 8 groups x 7 x 7 = 392 tokens; width 128, 4 heads, 8 layers

DESK_SCHEDULE = (8,) * 6   # 64 -> 16 tokens; at most n/2 per layer, so merge-safe
BIG_SCHEDULE = (48,) * 6   # 392 -> 104 tokens; merge-safe as well

# run.seed of the quality panel: a second round of the workload on clips
# that do not change with the benchmark seed (see README).
PANEL_SEED = 20240318
# Seed and config of the set-up warm-up run (desk shape, vidtldr).
WARMUP_SEED = 7


@dataclass(frozen=True)
class RunSpec:
    name: str             # file stem of the config
    mode: str
    pattern: str
    text: str             # full config text


@dataclass(frozen=True)
class Group:
    runs: tuple[RunSpec, ...]
    compare: bool         # run runner.compare over the group afterwards


def config_text(seed: int, mode: str, pattern: str, shape: dict, schedule, out_dir: Path,
                dump_attention: bool = False, dump_tokens: bool = False) -> str:
    lines = dict(shape)
    lines["run.seed"] = str(seed)
    lines["run.mode"] = mode
    lines["run.schedule"] = "" if mode == "baseline" else ",".join(map(str, schedule))
    lines["clip.pattern"] = pattern
    lines["out.dir"] = out_dir.as_posix()
    lines["dump.attention"] = "true" if dump_attention else "false"
    lines["dump.tokens"] = "true" if dump_tokens else "false"
    return "".join(f"{k} = {v}\n" for k, v in lines.items())


def _spec(seed, mode, pattern, shape, schedule, out_dir, **dumps) -> RunSpec:
    return RunSpec(
        name=f"{pattern}-{mode}",
        mode=mode,
        pattern=pattern,
        text=config_text(seed, mode, pattern, shape, schedule, out_dir, **dumps),
    )


# Dump settings of desk-sweep: the baseline writes its attention maps,
# tome its final tokens and vidtldr both.
_DESK_DUMPS = {
    "baseline": {"dump_attention": True},
    "tome": {"dump_tokens": True},
    "vidtldr": {"dump_attention": True, "dump_tokens": True},
}


def desk_sweep(seed: int, out_dir: Path) -> list[Group]:
    return [
        Group(
            runs=tuple(
                _spec(seed, m, p, DESK, DESK_SCHEDULE, out_dir, **_DESK_DUMPS.get(m, {}))
                for m in MODES
            ),
            compare=True,
        )
        for p in PATTERNS
    ]


def big_merge(seed: int, out_dir: Path) -> list[Group]:
    return [
        Group(
            runs=tuple(
                _spec(seed, m, p, BIG, BIG_SCHEDULE, out_dir) for m in ("tome", "vidtldr")
            ),
            compare=False,
        )
        for p in ("moving-blob", "front-loaded")
    ]


def big_prune(seed: int, out_dir: Path) -> list[Group]:
    runs = [_spec(seed, "baseline", "moving-blob", BIG, BIG_SCHEDULE, out_dir, dump_attention=True)]
    runs += [
        _spec(seed, m, "moving-blob", BIG, BIG_SCHEDULE, out_dir)
        for m in ("prune-rollout", "prune-attentiveness", "prune-sharpness")
    ]
    return [Group(runs=tuple(runs), compare=False)]


WORKLOADS = {
    "desk-sweep": desk_sweep,
    "big-merge": big_merge,
    "big-prune": big_prune,
}


def warmup(out_dir: Path) -> RunSpec:
    return _spec(WARMUP_SEED, "vidtldr", "moving-blob", DESK, DESK_SCHEDULE, out_dir)


def write_configs(groups: list[Group], cfg_dir: Path) -> list[list[Path]]:
    """Write each run's config file; return the paths, grouped."""
    cfg_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for g in groups:
        gp = []
        for r in g.runs:
            p = cfg_dir / f"{r.name}.cfg"
            p.write_text(r.text)
            gp.append(p)
        paths.append(gp)
    return paths
