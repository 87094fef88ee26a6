"""Synthetic clip recipes with ground-truth foreground bookkeeping.

Three patterns, all deterministic in the seed, named in PATTERNS:

* noise: pure unit Gaussian voxels, no foreground.
* moving-blob: a fixed high-contrast texture patch added over the
  noise, shifting position each frame group. Its texture repeats
  across groups, so the tubes it covers form tight feature clusters
  that attention can lock onto.
* front-loaded: the same blob held at the clip center with its
  amplitude decaying linearly over frame groups, so the object is
  most prominent in the early frames but present throughout.

A SynthClip is a clip's recipe: its spec, seed and pattern. Its
foreground lists the tube indices the blob covers, the ground truth
that saliency scores are evaluated against; the spec and the pattern
alone place the blob, so no random draw reaches it. ``synth_clip``,
the one builder of a clip's voxels, draws them from the recipe's seed
with the same draws in the same order on every call. A run builds
them once for its forwards and keeps only the recipe.
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
    spec: ClipSpec
    seed: int
    pattern: str  # one of PATTERNS

    def __post_init__(self):
        _placements(self.spec, self.pattern)  # an unknown pattern raises here

    @property
    def foreground(self) -> tuple[int, ...]:
        """Tube indices covered by the blob, frame group by frame group."""
        spec = self.spec
        bp = _blob_side(spec)
        per_group = spec.grid_h * spec.grid_w
        return tuple(
            g * per_group + r * spec.grid_w + c
            for g, (row, col, _) in enumerate(_placements(spec, self.pattern))
            for r in range(row, row + bp)
            for c in range(col, col + bp)
        )


def _blob_side(spec: ClipSpec) -> int:
    return min(BLOB_PATCHES, spec.grid_h, spec.grid_w)


def _moving_blob(spec: ClipSpec, bp: int) -> list[tuple[int, int, float]]:
    return [
        (g % (spec.grid_h - bp + 1), g % (spec.grid_w - bp + 1), BLOB_AMP)
        for g in range(spec.n_groups)
    ]


def _front_loaded(spec: ClipSpec, bp: int) -> list[tuple[int, int, float]]:
    row, col = (spec.grid_h - bp) // 2, (spec.grid_w - bp) // 2
    span, last = FRONT_DECAY_END - FRONT_DECAY_START, max(spec.n_groups - 1, 1)
    return [
        (row, col, BLOB_AMP * (FRONT_DECAY_START + span * (g / last)))
        for g in range(spec.n_groups)
    ]


# Each pattern's blob placements, given the blob's side bp in patches:
# its top-left patch (row, col) and amplitude in each frame group.
_PLACEMENTS = {
    "noise": lambda spec, bp: [],
    "moving-blob": _moving_blob,
    "front-loaded": _front_loaded,
}
PATTERNS = tuple(_PLACEMENTS)


def _placements(spec: ClipSpec, pattern: str) -> list[tuple[int, int, float]]:
    if pattern not in _PLACEMENTS:
        raise ValueError(f"unknown clip pattern {pattern!r}")
    return _PLACEMENTS[pattern](spec, _blob_side(spec))


def synth_clip(clip: SynthClip) -> np.ndarray:
    """The recipe's (frames, height, width, channels) float32 voxels, read-only."""
    spec = clip.spec
    rng = numerics.make_rng(clip.seed)
    out = rng.normal(0.0, 1.0, size=(spec.frames, spec.height, spec.width, spec.channels))
    placements = _placements(spec, clip.pattern)
    if placements:
        bp = _blob_side(spec)
        px = bp * spec.patch
        # One patch-sized pattern tiled over the blob: every covered
        # tube sees the same content, so the blob forms a single
        # feature cluster.
        tile = rng.normal(0.0, 1.0, size=(spec.patch, spec.patch, spec.channels))
        texture = np.tile(tile, (bp, bp, 1))
        for g, (row, col, amp) in enumerate(placements):
            f0 = g * spec.tube
            out[f0 : f0 + spec.tube, row * spec.patch : row * spec.patch + px,
                col * spec.patch : col * spec.patch + px, :] += amp * texture
    voxels = out.astype(np.float32)
    voxels.setflags(write=False)
    return voxels
