"""Synthetic clip generators with ground-truth foreground bookkeeping.

Three patterns, all deterministic in the seed:

* noise: pure unit Gaussian voxels, no foreground.
* moving-blob: a fixed high-contrast texture patch added over the
  noise, shifting position each frame group. Its texture repeats
  across groups, so the tubes it covers form tight feature clusters
  that attention can lock onto.
* front-loaded: the same blob held at the clip center with its
  amplitude decaying linearly over frame groups, so the object is
  most prominent in the early frames but present throughout.

The returned foreground set lists the tube indices the blob covers,
the ground truth that saliency scores are evaluated against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import numerics
from ..model import ClipSpec

BLOB_AMP = 6.0
BLOB_PATCHES = 2
FRONT_DECAY_START = 1.0
FRONT_DECAY_END = 0.65


@dataclass(frozen=True)
class SynthClip:
    clip: np.ndarray             # (frames, height, width, channels) float32, read-only
    foreground: tuple[int, ...]  # tube indices covered by the blob


def _blob_tubes(spec: ClipSpec, group: int, row: int, col: int, bp: int) -> list[int]:
    per_group = spec.grid_h * spec.grid_w
    return [
        group * per_group + r * spec.grid_w + c
        for r in range(row, row + bp)
        for c in range(col, col + bp)
    ]


def synth_clip(spec: ClipSpec, seed: int, pattern: str) -> SynthClip:
    """Generate one clip. pattern is noise, moving-blob, or front-loaded."""
    rng = numerics.make_rng(seed)
    clip = rng.normal(0.0, 1.0, size=(spec.frames, spec.height, spec.width, spec.channels))

    if pattern == "noise":
        return _read_only(clip, ())

    bp = min(BLOB_PATCHES, spec.grid_h, spec.grid_w)
    px = bp * spec.patch
    # One patch-sized pattern tiled over the blob: every covered tube
    # sees the same content, so the blob forms a single feature cluster.
    tile = rng.normal(0.0, 1.0, size=(spec.patch, spec.patch, spec.channels))
    texture = np.tile(tile, (bp, bp, 1))
    fg: list[int] = []

    if pattern == "moving-blob":
        for g in range(spec.n_groups):
            row = g % (spec.grid_h - bp + 1)
            col = g % (spec.grid_w - bp + 1)
            f0 = g * spec.tube
            clip[f0 : f0 + spec.tube, row * spec.patch : row * spec.patch + px,
                 col * spec.patch : col * spec.patch + px, :] += BLOB_AMP * texture
            fg.extend(_blob_tubes(spec, g, row, col, bp))
    elif pattern == "front-loaded":
        row = (spec.grid_h - bp) // 2
        col = (spec.grid_w - bp) // 2
        for g in range(spec.n_groups):
            frac = g / (spec.n_groups - 1) if spec.n_groups > 1 else 0.0
            amp = BLOB_AMP * (FRONT_DECAY_START + (FRONT_DECAY_END - FRONT_DECAY_START) * frac)
            f0 = g * spec.tube
            clip[f0 : f0 + spec.tube, row * spec.patch : row * spec.patch + px,
                 col * spec.patch : col * spec.patch + px, :] += amp * texture
            fg.extend(_blob_tubes(spec, g, row, col, bp))
    else:
        raise ValueError(f"unknown clip pattern {pattern!r}")

    return _read_only(clip, tuple(fg))


def _read_only(clip: np.ndarray, foreground: tuple[int, ...]) -> SynthClip:
    voxels = clip.astype(np.float32)
    voxels.setflags(write=False)
    return SynthClip(clip=voxels, foreground=foreground)
