"""Token saliency measures derived from attention maps.

Three per-token scores over a square, row-stochastic attention map:

* attentiveness: column mean, how much attention a token receives.
* rollout: column mean of the product of head-averaged maps from the
  last layer down to each target layer. Only the column means are
  kept, so it is computed as one chain of (1, n) row vectors,
  v_l = v_{l+1} M_l, starting from the last map's attentiveness: n^2
  multiply-adds per layer, not n^3. It multiplies the raw head-mean
  maps, without Abnar & Zuidema's residual term 0.5 * A + 0.5 * I.
* sharpness saliency: min-max normalized negative row entropy, how
  focused a token's outgoing attention is. Background suppression
  zeroes tokens at or below the mean score and rescales the rest, and
  the result is what drives saliency-aware merging.

Scores are float64 (rollout: a (layers, n) table, one row per target
layer); maps are float32 matrices.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from . import numerics

# Entropy spreads below this are treated as degenerate (all rows
# equally sharp); every token then gets the neutral score 0.5.
DEGENERATE_SPREAD = 1e-9


def _require_square(probs: np.ndarray, name: str) -> np.ndarray:
    m = numerics.as_matrix(probs)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} requires a square map, got {m.shape}")
    return m


def _require_square_stochastic(probs: np.ndarray, name: str) -> np.ndarray:
    m = _require_square(probs, name)
    numerics.require_stochastic_rows(m, name)
    return m


def attentiveness(probs) -> np.ndarray:
    """Column mean of an attention map: mean attention received per token."""
    m = _require_square_stochastic(probs, "attentiveness")
    return m.astype(np.float64).mean(axis=0)


def attention_rollout(per_layer_probs: Sequence[np.ndarray]) -> np.ndarray:
    """Attentiveness of the rolled-out map from every layer onward.

    ``per_layer_probs`` holds head-averaged attention maps for every
    layer of a no-reduction forward, in layer order. Returns a float64
    (layers, n) table whose row l is, in exact arithmetic, the column
    mean of P_l, where P_last is the last map and P_l = P_{l+1} M_l
    (the later layer on the left). Since the column mean of P_{l+1} M_l
    is the column mean of P_{l+1} times M_l, the rows come from one
    vector chain: the last row is ``attentiveness`` of the last map,
    exactly, and each earlier row is ``numerics.matmul`` of the next
    row, as a (1, n) matrix that matmul rounds to float32, and M_l. So
    every row but the last holds float32 values widened to float64. The maps are the raw head means:
    no 0.5 * I residual term is added as in Abnar & Zuidema's rollout.
    """
    if len(per_layer_probs) == 0:
        raise ValueError("attention_rollout needs at least one map")
    mats = [_require_square_stochastic(m, "attention_rollout") for m in per_layer_probs]
    if any(m.shape != mats[0].shape for m in mats):
        raise ValueError("attention_rollout maps must share one token count")
    rows = [attentiveness(mats[-1])]
    for m in reversed(mats[:-1]):
        rows.append(numerics.matmul(rows[-1][None, :], m)[0].astype(np.float64))
    return np.stack(rows[::-1])


def sharpness_saliency(probs) -> np.ndarray:
    """Min-max normalized attention sharpness per token, in [0, 1].

    Sharpness is the negative entropy of the token's outgoing attention
    row: the sharpest row maps to 1, the flattest to 0. If all rows are
    equally sharp (spread below DEGENERATE_SPREAD) the score is 0.5
    everywhere.
    """
    m = _require_square(probs, "sharpness_saliency")
    h = numerics.row_neg_entropy(m)  # which checks that the rows are stochastic
    lo = float(h.min())
    hi = float(h.max())
    if hi - lo < DEGENERATE_SPREAD:
        return np.full(m.shape[0], 0.5, dtype=np.float64)
    return (h - lo) / (hi - lo)


def masked_saliency(raw) -> np.ndarray:
    """Background-suppressed saliency of raw scores, rescaled to peak at 1.

    A token is foreground iff its score is strictly above the mean of
    the scores. Background tokens get 0; the rest get (s - mean) / max
    over the foreground. If nothing is foreground (all scores equal),
    every token gets 1, which degrades saliency-aware merging to plain
    mass-weighted merging.
    """
    s = np.asarray(raw, dtype=np.float64).reshape(-1)
    mean = float(s.mean())
    shifted = np.where(s > mean, s - mean, 0.0)  # s - mean > 0 exactly where s > mean
    if not shifted.any():
        return np.ones_like(s)
    return shifted / float(shifted.max())


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
