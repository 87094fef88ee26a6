"""Run configuration: flat ``key = value`` text files, strictly parsed.

RunConfig's fields are the one schema: each declares its config key,
its default as config text, and its parser. The README's config table
lists the keys for users.

Unknown keys, duplicate keys, and malformed values are parse errors
(ConfigError). Violations of cross-field rules, like an infeasible
schedule or a baseline run with a nonzero schedule, are invariant
errors (InvariantError). The CLI maps the two classes to distinct
exit codes.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, fields
from pathlib import Path

from .. import saliency
from ..costmodel import CostConfig, plan_schedule
from ..model import ClipSpec, ModelConfig, PruneReducer, TomeReducer, VidTldrReducer


class ConfigError(ValueError):
    """Malformed config text: syntax, unknown key, or bad value."""


class InvariantError(ValueError):
    """Structurally valid config that violates a cross-field rule."""


PATTERNS = ("noise", "moving-blob", "front-loaded")

DEFAULT_TEMPORAL_BIAS = 1.8
# Largest accepted float magnitude: the temporal bias enters attention
# logits that softmax rounds to float32 (max ~3.4e38).
MAX_FLOAT = 1e30


def _parse_int(key: str, value: str) -> int:
    try:
        return int(value, 10)
    except ValueError:
        raise ConfigError(f"{key}: expected an integer, got {value!r}") from None


def _parse_seed(key: str, value: str) -> int:
    seed = _parse_int(key, value)
    if seed < 0:
        raise ConfigError(f"{key}: must be non-negative, got {seed}")
    return seed


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


def _parse_str(key: str, value: str) -> str:
    return value


def _choices(options):
    def parse(key: str, value: str) -> str:
        if value not in options():
            raise ConfigError(f"{key}: expected one of {', '.join(options())}, got {value!r}")
        return value

    return parse


def _key(key: str, parse, default: str | None):
    """A RunConfig field read from config ``key``; ``default=None`` makes it required."""
    return field(metadata={"key": key, "parse": parse, "default": default})


def _format(value) -> str:
    """A field value as config text, which its parser reads back."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


@dataclass(frozen=True)
class RunConfig:
    frames: int = _key("clip.frames", _parse_int, "8")
    height: int = _key("clip.height", _parse_int, "64")
    width: int = _key("clip.width", _parse_int, "64")
    tube: int = _key("clip.tube", _parse_int, "2")
    patch: int = _key("clip.patch", _parse_int, "16")
    channels: int = _key("clip.channels", _parse_int, "3")
    pattern: str = _key("clip.pattern", _choices(lambda: PATTERNS), "noise")
    model_width: int = _key("model.width", _parse_int, "64")
    heads: int = _key("model.heads", _parse_int, "4")
    layers: int = _key("model.layers", _parse_int, "8")
    temporal_bias: float = _key("model.temporal_bias", _parse_float, str(DEFAULT_TEMPORAL_BIAS))
    mode: str = _key("run.mode", _choices(lambda: MODES), "baseline")
    schedule: tuple[int, ...] = _key("run.schedule", _parse_schedule, "")
    seed: int = _key("run.seed", _parse_seed, None)
    out_dir: str = _key("out.dir", _parse_str, "out")
    dump_attention: bool = _key("dump.attention", _parse_bool, "false")
    dump_tokens: bool = _key("dump.tokens", _parse_bool, "false")

    @staticmethod
    def reducers(rollout) -> dict:
        """The one table of run modes: each run.mode's reducer, given the
        clean forward's rollout table. baseline has none: its result is
        the clean forward. A reducer's ``merging`` sets the merge limit
        and its ``reads_rollout`` makes its forward wait for the rollout."""
        return {
            "baseline": None,
            "tome": TomeReducer(),
            "vidtldr": VidTldrReducer(),
            "prune-attentiveness": PruneReducer(
                lambda state, maps, layer: saliency.attentiveness(maps.head_mean_probs)
            ),
            "prune-rollout": PruneReducer(
                lambda state, maps, layer: state.tube_mean(rollout[layer]), reads_rollout=True
            ),
            "prune-sharpness": PruneReducer(
                lambda state, maps, layer: saliency.sharpness_saliency(maps.head_mean_probs)
            ),
        }

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
        by_key = sorted(fields(self), key=lambda f: f.metadata["key"])
        return "".join(f"{f.metadata['key']} = {_format(getattr(self, f.name))}\n" for f in by_key)

    @property
    def run_id(self) -> str:
        return hashlib.sha256(self.canonical_text().encode()).hexdigest()[:12]


MODES = tuple(RunConfig.reducers(None))
_FIELDS = {f.metadata["key"]: f for f in fields(RunConfig)}
# The fields that fix a run's clip (every clip.* key and the seed):
# runs compared side by side must agree on all of them.
CLIP_IDENTITY = tuple(
    f.name for key, f in _FIELDS.items() if key.startswith("clip.") or f.name == "seed"
)


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
        if key not in _FIELDS:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        if key in raw:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        raw[key] = value

    effective = {key: raw.get(key, f.metadata["default"]) for key, f in _FIELDS.items()}
    for key, value in effective.items():
        if value is None:
            raise ConfigError(f"{source}: missing required key {key!r}")
    try:
        cfg = RunConfig(**{
            f.name: f.metadata["parse"](key, effective[key]) for key, f in _FIELDS.items()
        })
    except ConfigError as e:
        raise ConfigError(f"{source}: {e}") from None
    _validate(cfg)
    return cfg


def _validate(cfg: RunConfig) -> None:
    try:
        spec = cfg.clip_spec()
        cfg.model_config()
    except ValueError as e:
        raise InvariantError(str(e)) from None
    reducer = cfg.reducers(None)[cfg.mode]
    try:
        plan_schedule(spec.n_tokens, cfg.layers, cfg.schedule, getattr(reducer, "merging", False))
    except ValueError as e:
        raise InvariantError(f"run.schedule: {e}") from None
    if reducer is None and any(r != 0 for r in cfg.schedule):
        raise InvariantError(f"{cfg.mode} mode requires a zero schedule")


def load_config(path) -> RunConfig:
    """Load, parse, and validate a config file. A ConfigError's message
    begins with the file's path."""
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise ConfigError(f"{p}: not UTF-8 text: {e}") from None
    return parse_config_text(text, source=str(p))
