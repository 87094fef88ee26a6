"""Bipartite token matching, merging, and pruning.

Tokens are tracked through reduction as a TokenState: float32 features,
float64 masses (how many source tubes' worth of signal a token carries),
and an owner map (the live token holding each original tube, or -1 once
the tube is pruned), which only this module writes.

Matching follows the alternating-partition scheme, which only this
module knows: tokens at even positions are destinations, odd positions
are sources. Each source is scored by its best cosine similarity to any
destination over the given key vectors, the top r sources merge into
their best destinations, and everything else survives unchanged. The
best matches and their scores come from ``numerics.cosine_argmax``, the
bits of an argmax over the full k-ordered cosine matrix. A match is its
merge list of (src, dst, similarity) triples, and both merges derive
each group from it. Merging is a mass-weighted mean: one numpy
expression per group, batched over all groups of the same size.
The saliency-aware merge takes the layer's masked saliency and first
rescales every source token's mass by its score (merged or not), so
background sources barely contribute to merged features and carry
almost no mass forward; that mass rule lives in ``vidtldr_merge`` alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numerics

# Floor applied to updated masses so a fully suppressed token keeps an
# infinitesimal, strictly positive weight.
MASS_EPS = 1e-6


@dataclass(frozen=True)
class TokenState:
    """Live tokens at one point of the forward pass."""

    features: np.ndarray  # (n, C) float32
    masses: np.ndarray    # (n,) float64, >= MASS_EPS
    owner: np.ndarray     # (n_tubes,) int64: token holding each tube, -1 once pruned

    @property
    def count(self) -> int:
        return self.features.shape[0]

    @property
    def sizes(self) -> np.ndarray:
        """Number of original tubes each live token holds."""
        return np.bincount(self.owner[self.owner >= 0], minlength=self.count)

    def tube_mean(self, per_tube) -> np.ndarray:
        """Per-token float64 mean of a per-tube value, summed in tube order."""
        live = self.owner >= 0
        w = np.asarray(per_tube, dtype=np.float64)[live]
        return np.bincount(self.owner[live], weights=w, minlength=self.count) / self.sizes

    @property
    def provenance(self) -> tuple[tuple[int, ...], ...]:
        """Sorted original tube indices per live token (derived from owner)."""
        return tuple(tuple(np.flatnonzero(self.owner == k).tolist()) for k in range(self.count))

    def with_features(self, features: np.ndarray) -> "TokenState":
        feats = numerics.as_matrix(features)
        if feats.shape[0] != self.count:
            raise ValueError(
                f"feature update changes token count {self.count} -> {feats.shape[0]}"
            )
        return TokenState(feats, self.masses, self.owner)


def new_state(features) -> TokenState:
    """Fresh state: unit masses, one source tube per token."""
    feats = numerics.as_matrix(features)
    n = feats.shape[0]
    return TokenState(
        features=feats,
        masses=np.ones(n, dtype=np.float64),
        owner=np.arange(n, dtype=np.int64),
    )


def check_state(state: TokenState, n_tubes: int) -> None:
    """Validate the bookkeeping invariants of a state.

    One owner entry per tube, each -1 or a live token (so tube sets are
    disjoint by construction); no live token without a tube; mass floor.
    """
    if state.masses.shape != (state.count,):
        raise ValueError("mass vector length differs from token count")
    if state.owner.shape != (n_tubes,):
        raise ValueError(f"owner map has shape {state.owner.shape}, expected ({n_tubes},)")
    if ((state.owner < -1) | (state.owner >= state.count)).any():
        raise ValueError("owner entries must be -1 or a live token index")
    if (state.sizes == 0).any():
        raise ValueError("every live token must hold at least one tube")
    if (state.masses < MASS_EPS * (1 - 1e-9)).any():
        raise ValueError("masses must stay at or above the mass floor")


def soft_match(keys, r: int) -> tuple[tuple[int, int, float], ...]:
    """Score sources against destinations and pick the top r to merge.

    Even positions are destinations, odd positions sources. Each
    source's score is its best cosine similarity to any destination
    (ties go to the lower destination position). Returns the merge
    list: (src, dst, similarity) for the r highest-scoring sources,
    best score first; score ties merge the lower source position first.
    """
    k = numerics.as_matrix(keys)
    n = k.shape[0]
    if n < 2:
        raise ValueError(f"soft_match needs at least 2 tokens, got {n}")
    if r < 0:
        raise ValueError(f"negative merge count {r}")
    if r > n // 2:
        raise ValueError(f"cannot merge {r} of {n // 2} source tokens")
    src = np.arange(1, n, 2)
    j, scores = numerics.cosine_argmax(k[1::2], k[0::2])  # first max: lowest dst wins ties
    chosen = np.lexsort((src, -scores))[:r]  # by (-score, src)
    return tuple((int(src[i]), int(2 * j[i]), float(scores[i])) for i in chosen)


def _merge_with_masses(state: TokenState, merges, masses: np.ndarray) -> TokenState:
    """Shared merge core: mass-weighted means over the groups of a merge list.

    Every token not merged away survives, in its original relative
    order, as one group: itself first, then the sources merged into it
    in increasing position. A group's mass is ``w.sum()`` and its
    feature ``(w[:, None] * f).sum(axis=0) / mass`` over those members.
    Groups of one size are stacked into a ``(groups, size)`` batch and
    reduced along the member axis, which relies on one condition: numpy
    reduces each row of a batch exactly as it reduces that row alone.
    The byte oracle test_merge_bytes_equal_per_group_loop checks it on
    each numpy build. A list with an entry that is not a triple, a
    position that is not an integer in [0, n), a source listed twice or
    a destination merged away raises ValueError.
    """
    n = state.count
    entries = np.asarray(merges, dtype=np.float64)
    if len(merges) and entries.shape != (len(merges), 3):
        raise ValueError("a merge list entry is not one (src, dst, similarity) triple")
    pos = entries.reshape(-1, 3)[:, :2]  # positions are exact in float64
    if not ((pos >= 0) & (pos < n)).all():
        raise ValueError(f"a merge position lies outside [0, {n})")
    if (pos % 1).any():
        raise ValueError("a merge position is not an integer")
    src, dst = pos.T.astype(np.int64)
    if np.unique(src).size < src.size:
        raise ValueError("a merge source is listed more than once")
    keep = np.ones(n, dtype=bool)
    keep[src] = False
    if not keep[dst].all():
        raise ValueError("a merge destination is itself merged away")
    head = np.arange(n)  # the survivor each token ends up in
    head[src] = dst
    rows = (np.cumsum(keep) - 1)[head]  # survivors keep their position order
    members = np.lexsort((np.arange(n), ~keep, rows))  # by row, survivor first, then position
    sizes = np.bincount(rows, minlength=n - src.size)
    first = np.cumsum(sizes) - sizes
    feats64 = state.features.astype(np.float64)
    out_feats = np.empty((sizes.size, feats64.shape[1]), dtype=np.float64)
    out_mass = np.empty(sizes.size, dtype=np.float64)
    for size in np.unique(sizes):
        group_rows = np.flatnonzero(sizes == size)
        idx = members[first[group_rows, None] + np.arange(size)]  # (groups, size)
        w = masses[idx]
        total = w.sum(axis=1)
        out_feats[group_rows] = (w[:, :, None] * feats64[idx]).sum(axis=1) / total[:, None]
        out_mass[group_rows] = total
    return TokenState(
        features=out_feats.astype(np.float32),
        masses=out_mass,
        owner=np.append(rows, -1)[state.owner],  # -1, a pruned tube, reads the last slot
    )


def tome_merge(state: TokenState, merges) -> TokenState:
    """Merge each listed source into its destination by mass-weighted mean.

    Total mass is conserved: every token's mass ends up in some group.
    """
    return _merge_with_masses(state, merges, state.masses)


def vidtldr_merge(state: TokenState, merges, masked) -> TokenState:
    """Merge with masses rescaled by the masked saliency ``masked``.

    Every source token's mass (odd positions) becomes
    max(saliency * mass, MASS_EPS); destination masses are untouched.
    The rule applies to all sources, merged or not, so a suppressed
    unmerged source carries an eps mass into later layers
    (merge-and-prune in one mechanism). Group features are means
    weighted by the rescaled masses and each merged token's mass is its
    group's rescaled-mass sum: background mass is deliberately discarded.
    """
    s = np.asarray(masked, dtype=np.float64).reshape(-1)
    if s.shape[0] != state.count:
        raise ValueError(
            f"saliency length {s.shape[0]} differs from token count {state.count}"
        )
    if (s < 0).any() or (s > 1 + 1e-9).any():
        raise ValueError("masked saliency must lie in [0, 1]")
    masses = state.masses.copy()
    masses[1::2] = np.maximum(masses[1::2] * s[1::2], MASS_EPS)
    return _merge_with_masses(state, merges, masses)


def prune_lowest(state: TokenState, scores, r: int) -> TokenState:
    """Drop the r lowest-scoring tokens outright (ties drop lower positions).

    Survivors keep their features, masses, and tubes; dropped tubes get owner -1.
    """
    s = np.asarray(scores, dtype=np.float64).reshape(-1)
    n = state.count
    if s.shape[0] != n:
        raise ValueError(f"score length {s.shape[0]} differs from token count {n}")
    if r < 0:
        raise ValueError(f"negative prune count {r}")
    if r >= n:
        raise ValueError(f"cannot prune {r} of {n} tokens")
    keep = np.sort(np.argsort(s, kind="stable")[r:])  # stable: ties drop lower positions
    row_of = np.full(n + 1, -1, dtype=np.int64)  # last slot: already pruned tubes
    row_of[keep] = np.arange(keep.size)
    return TokenState(
        features=state.features[keep],
        masses=state.masses[keep],
        owner=row_of[state.owner],
    )
