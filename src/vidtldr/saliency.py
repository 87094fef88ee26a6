"""Token saliency measures derived from attention maps.

Three per-token scores over a square, row-stochastic attention map:

* attentiveness: column mean, how much attention a token receives.
* rollout: column mean of the product of head-averaged maps from the
  last layer down to each target layer, the classic relevance
  propagation, from one chain of products P_l = P_{l+1} M_l.
* sharpness saliency: min-max normalized negative row entropy, how
  focused a token's outgoing attention is. Background suppression
  zeroes tokens at or below the mean score and rescales the rest, and
  the result is what drives saliency-aware merging.

Scores are float64 (rollout: a (layers, n) table, one row per target
layer); maps are float32 matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import numerics

# Entropy spreads below this are treated as degenerate (all rows
# equally sharp); every token then gets the neutral score 0.5.
DEGENERATE_SPREAD = 1e-9


def _require_square_stochastic(probs: np.ndarray, name: str) -> np.ndarray:
    m = numerics.as_matrix(probs)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} requires a square map, got {m.shape}")
    sums = m.astype(np.float64).sum(axis=1)
    if (m < 0).any() or not np.allclose(sums, 1.0, rtol=0.0, atol=numerics.STOCHASTIC_ATOL):
        raise ValueError(f"{name} requires row-stochastic input")
    return m


def attentiveness(probs) -> np.ndarray:
    """Column mean of an attention map: mean attention received per token."""
    m = _require_square_stochastic(probs, "attentiveness")
    return m.astype(np.float64).mean(axis=0)


def attention_rollout(per_layer_probs: Sequence[np.ndarray]) -> np.ndarray:
    """Attentiveness of the rolled-out map from every layer onward.

    ``per_layer_probs`` holds head-averaged attention maps for every
    layer of a no-reduction forward, in layer order. Returns a float64
    (layers, n) table whose row l is the column mean of P_l, where
    P_last is the last map and P_l = P_{l+1} M_l (the later layer on the
    left). The last row equals ``attentiveness`` of the last map exactly.
    """
    if len(per_layer_probs) == 0:
        raise ValueError("attention_rollout needs at least one map")
    mats = [_require_square_stochastic(m, "attention_rollout") for m in per_layer_probs]
    if any(m.shape != mats[0].shape for m in mats):
        raise ValueError("attention_rollout maps must share one token count")
    prod = mats[-1]
    rows = [attentiveness(prod)]
    for m in reversed(mats[:-1]):
        prod = numerics.matmul(prod, m)
        rows.append(attentiveness(prod))
    return np.stack(rows[::-1])


def sharpness_saliency(probs) -> np.ndarray:
    """Min-max normalized attention sharpness per token, in [0, 1].

    Sharpness is the negative entropy of the token's outgoing attention
    row: the sharpest row maps to 1, the flattest to 0. If all rows are
    equally sharp (spread below DEGENERATE_SPREAD) the score is 0.5
    everywhere.
    """
    m = _require_square_stochastic(probs, "sharpness_saliency")
    h = numerics.row_neg_entropy(m)
    lo = float(h.min())
    hi = float(h.max())
    if hi - lo < DEGENERATE_SPREAD:
        return np.full(m.shape[0], 0.5, dtype=np.float64)
    return (h - lo) / (hi - lo)


def background_mask(raw) -> tuple[np.ndarray, float]:
    """Foreground mask and the mean score it cuts at.

    A token is foreground iff its score is strictly above the mean.
    Returns (boolean mask, mean).
    """
    s = np.asarray(raw, dtype=np.float64).reshape(-1)
    mean = float(s.mean())
    return s > mean, mean


def masked_saliency(raw, mask, mean: float) -> np.ndarray:
    """Background-suppressed saliency, rescaled to peak at 1.

    Masked-out tokens get 0; the rest get (s - mean) / max over the
    kept set. If the mask keeps nothing (all scores equal), every
    token gets 1, which degrades saliency-aware merging to plain
    mass-weighted merging.
    """
    s = np.asarray(raw, dtype=np.float64).reshape(-1)
    m = np.asarray(mask, dtype=bool).reshape(-1)
    if s.shape != m.shape:
        raise ValueError(f"masked_saliency shape mismatch: {s.shape} vs {m.shape}")
    if not m.any():
        return np.ones_like(s)
    shifted = np.where(m, s - mean, 0.0)
    peak = float(shifted.max())
    if peak <= 0.0:
        return np.ones_like(s)
    return shifted / peak


@dataclass(frozen=True)
class SaliencyScores:
    """Raw, mask, and masked values of one map's saliency."""

    raw: np.ndarray     # s, min-max normalized sharpness
    mask: np.ndarray    # M, boolean foreground indicator
    masked: np.ndarray  # s-hat, background-suppressed and rescaled


def score_map(head_mean_probs) -> SaliencyScores:
    """Full sharpness/mask/masked pipeline over one attention map."""
    raw = sharpness_saliency(head_mean_probs)
    mask, mean = background_mask(raw)
    return SaliencyScores(raw=raw, mask=mask, masked=masked_saliency(raw, mask, mean))


def masked_saliency_from_map(head_mean_probs) -> np.ndarray:
    """Shorthand for score_map(...).masked."""
    return score_map(head_mean_probs).masked


def frame_score_ratio(scores, frame_of, n_groups: int) -> np.ndarray:
    """Fraction of total score falling in each frame group.

    ``frame_of`` gives each token's frame-group index. The result sums
    to 1. Raises ValueError on negative scores, an all-zero total, or
    an out-of-range group index.
    """
    s = np.asarray(scores, dtype=np.float64).reshape(-1)
    groups = np.asarray(frame_of, dtype=np.int64).reshape(-1)
    if s.shape != groups.shape:
        raise ValueError(
            f"frame_score_ratio got {s.shape[0]} scores for {groups.shape[0]} tokens"
        )
    if (s < 0).any():
        raise ValueError("frame_score_ratio requires non-negative scores")
    if (groups < 0).any() or (groups >= n_groups).any():
        raise ValueError(f"frame indices must lie in 0..{n_groups - 1}")
    out = np.zeros(n_groups, dtype=np.float64)
    np.add.at(out, groups, s)
    total = out.sum()
    if total <= 0.0:
        raise ValueError("frame_score_ratio requires a positive total score")
    return out / total
