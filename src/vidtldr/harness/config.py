"""Run configuration: flat ``key = value`` text files, strictly parsed.

Unknown keys, duplicate keys, and malformed values are parse errors
(ConfigError). Violations of cross-field rules, like an infeasible
schedule or a baseline run with a nonzero schedule, are invariant
errors (InvariantError). The CLI maps the two classes to distinct
exit codes.

Keys and defaults (run.seed is the only required key):

    clip.frames = 8          clip.height = 64       clip.width = 64
    clip.tube = 2            clip.patch = 16        clip.channels = 3
    clip.pattern = noise     (noise | moving-blob | front-loaded)
    model.width = 64         model.heads = 4        model.layers = 8
    model.temporal_bias = 1.8   (finite, |value| <= 1e30)
    run.mode = baseline      (baseline | tome | vidtldr |
                              prune-attentiveness | prune-rollout |
                              prune-sharpness)
    run.schedule =           (comma-separated per-layer counts)
    run.seed                 (required, non-negative integer)
    out.dir = out
    dump.attention = false   dump.tokens = false
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from pathlib import Path

from ..costmodel import CostConfig, plan_schedule
from ..model import ClipSpec, ModelConfig


class ConfigError(ValueError):
    """Malformed config text: syntax, unknown key, or bad value."""


class InvariantError(ValueError):
    """Structurally valid config that violates a cross-field rule."""


MODES = (
    "baseline",
    "tome",
    "vidtldr",
    "prune-attentiveness",
    "prune-rollout",
    "prune-sharpness",
)
# Modes that reduce by bipartite soft matching: they run proportional
# attention and merge at most floor(n/2) tokens per layer.
MERGE_MODES = ("tome", "vidtldr")
PATTERNS = ("noise", "moving-blob", "front-loaded")

DEFAULT_TEMPORAL_BIAS = 1.8
# Largest accepted float magnitude: the temporal bias enters attention
# logits that softmax rounds to float32 (max ~3.4e38).
MAX_FLOAT = 1e30

_DEFAULTS: dict[str, str] = {
    "clip.frames": "8",
    "clip.height": "64",
    "clip.width": "64",
    "clip.tube": "2",
    "clip.patch": "16",
    "clip.channels": "3",
    "clip.pattern": "noise",
    "model.width": "64",
    "model.heads": "4",
    "model.layers": "8",
    "model.temporal_bias": str(DEFAULT_TEMPORAL_BIAS),
    "run.mode": "baseline",
    "run.schedule": "",
    "out.dir": "out",
    "dump.attention": "false",
    "dump.tokens": "false",
}
_REQUIRED = ("run.seed",)


@dataclass(frozen=True)
class RunConfig:
    frames: int
    height: int
    width: int
    tube: int
    patch: int
    channels: int
    pattern: str
    model_width: int
    heads: int
    layers: int
    temporal_bias: float
    mode: str
    schedule: tuple[int, ...]
    seed: int
    out_dir: str
    dump_attention: bool
    dump_tokens: bool

    def clip_spec(self) -> ClipSpec:
        return ClipSpec(
            frames=self.frames,
            height=self.height,
            width=self.width,
            tube=self.tube,
            patch=self.patch,
            channels=self.channels,
        )

    def model_config(self) -> ModelConfig:
        return ModelConfig(
            width=self.model_width,
            heads=self.heads,
            layers=self.layers,
            temporal_bias=self.temporal_bias,
        )

    def cost_config(self) -> CostConfig:
        return CostConfig(
            n0=self.clip_spec().n_tokens, width=self.model_width, layers=self.layers
        )

    def canonical_text(self) -> str:
        """Effective config as sorted key = value lines (hash input)."""
        values = {
            "clip.frames": str(self.frames),
            "clip.height": str(self.height),
            "clip.width": str(self.width),
            "clip.tube": str(self.tube),
            "clip.patch": str(self.patch),
            "clip.channels": str(self.channels),
            "clip.pattern": self.pattern,
            "model.width": str(self.model_width),
            "model.heads": str(self.heads),
            "model.layers": str(self.layers),
            "model.temporal_bias": repr(self.temporal_bias),
            "run.mode": self.mode,
            "run.schedule": ",".join(str(r) for r in self.schedule),
            "run.seed": str(self.seed),
            "out.dir": self.out_dir,
            "dump.attention": "true" if self.dump_attention else "false",
            "dump.tokens": "true" if self.dump_tokens else "false",
        }
        return "".join(f"{k} = {values[k]}\n" for k in sorted(values))

    @property
    def run_id(self) -> str:
        return hashlib.sha256(self.canonical_text().encode()).hexdigest()[:12]


def _parse_int(key: str, value: str) -> int:
    try:
        return int(value, 10)
    except ValueError:
        raise ConfigError(f"{key}: expected an integer, got {value!r}") from None


def _parse_float(key: str, value: str) -> float:
    try:
        x = float(value)
    except ValueError:
        x = math.nan
    if not abs(x) <= MAX_FLOAT:  # also rejects nan
        raise ConfigError(
            f"{key}: expected a finite number of magnitude <= {MAX_FLOAT:g}, got {value!r}"
        )
    return x


def _parse_bool(key: str, value: str) -> bool:
    if value == "true":
        return True
    if value == "false":
        return False
    raise ConfigError(f"{key}: expected true or false, got {value!r}")


def _parse_schedule(key: str, value: str) -> tuple[int, ...]:
    if value.strip() == "":
        return ()
    return tuple(_parse_int(key, part.strip()) for part in value.split(","))


def parse_config_text(text: str, source: str = "<config>") -> RunConfig:
    """Parse and validate config text. See load_config."""
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {line!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _DEFAULTS and key not in _REQUIRED:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        if key in raw:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        raw[key] = value

    for key in _REQUIRED:
        if key not in raw:
            raise ConfigError(f"{source}: missing required key {key!r}")
    effective = dict(_DEFAULTS)
    effective.update(raw)

    mode = effective["run.mode"]
    if mode not in MODES:
        raise ConfigError(f"run.mode: expected one of {', '.join(MODES)}, got {mode!r}")
    pattern = effective["clip.pattern"]
    if pattern not in PATTERNS:
        raise ConfigError(
            f"clip.pattern: expected one of {', '.join(PATTERNS)}, got {pattern!r}"
        )
    seed = _parse_int("run.seed", effective["run.seed"])
    if seed < 0:
        raise ConfigError(f"run.seed: must be non-negative, got {seed}")

    cfg = RunConfig(
        frames=_parse_int("clip.frames", effective["clip.frames"]),
        height=_parse_int("clip.height", effective["clip.height"]),
        width=_parse_int("clip.width", effective["clip.width"]),
        tube=_parse_int("clip.tube", effective["clip.tube"]),
        patch=_parse_int("clip.patch", effective["clip.patch"]),
        channels=_parse_int("clip.channels", effective["clip.channels"]),
        pattern=pattern,
        model_width=_parse_int("model.width", effective["model.width"]),
        heads=_parse_int("model.heads", effective["model.heads"]),
        layers=_parse_int("model.layers", effective["model.layers"]),
        temporal_bias=_parse_float("model.temporal_bias", effective["model.temporal_bias"]),
        mode=mode,
        schedule=_parse_schedule("run.schedule", effective["run.schedule"]),
        seed=seed,
        out_dir=effective["out.dir"],
        dump_attention=_parse_bool("dump.attention", effective["dump.attention"]),
        dump_tokens=_parse_bool("dump.tokens", effective["dump.tokens"]),
    )
    _validate(cfg)
    return cfg


def _validate(cfg: RunConfig) -> None:
    try:
        spec = cfg.clip_spec()
        cfg.model_config()
    except ValueError as e:
        raise InvariantError(str(e)) from None
    try:
        plan_schedule(spec.n_tokens, cfg.layers, cfg.schedule, cfg.mode in MERGE_MODES)
    except ValueError as e:
        raise InvariantError(f"run.schedule: {e}") from None
    if cfg.mode == "baseline" and any(r != 0 for r in cfg.schedule):
        raise InvariantError("baseline mode requires a zero schedule")


def load_config(path) -> RunConfig:
    """Load, parse, and validate a config file."""
    p = Path(path)
    return parse_config_text(p.read_text(), source=str(p))
