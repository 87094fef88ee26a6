"""Experiment harness: configs, synthetic clips, runs, tensor dumps, CLI."""

from .clips import SynthClip, synth_clip
from .config import ConfigError, InvariantError, RunConfig, load_config, parse_config_text
from .runner import RunResult, compare, pooled_features, run
from .tensorio import dump_tensor, load_tensor

__all__ = [
    "ConfigError",
    "InvariantError",
    "RunConfig",
    "RunResult",
    "SynthClip",
    "compare",
    "dump_tensor",
    "load_config",
    "load_tensor",
    "parse_config_text",
    "pooled_features",
    "run",
    "synth_clip",
]
