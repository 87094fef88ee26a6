"""Bipartite token matching, merging, and pruning.

Tokens are tracked through reduction as a TokenState: float32 features,
float64 masses (how many source tubes' worth of signal a token carries),
and an owner map (the live token holding each original tube, or -1 once
the tube is pruned), which only this module writes.

Matching follows the alternating-partition scheme: tokens at even
positions are destinations, odd positions are sources. Each source is
scored by its best cosine similarity to any destination over the given
key vectors, the top r sources merge into their best destinations, and
everything else survives unchanged. The best matches and their scores
come from ``numerics.cosine_argmax``, the bits of an argmax over the
full k-ordered cosine matrix. Merging is a mass-weighted mean, computed
with whole-array operations for groups of one or two members and one
group at a time for the rare larger ones.
The saliency-aware variant first rescales every source token's mass by
its saliency score (merged or not), so background sources barely
contribute to merged features and carry almost no mass forward.
"""

from __future__ import annotations

import itertools
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


@dataclass(frozen=True)
class Bipartition:
    """Alternating split of token positions into destinations and sources."""

    dst_index: np.ndarray
    src_index: np.ndarray


def bipartition(n: int) -> Bipartition:
    """Even positions become destinations, odd positions sources (0-based)."""
    if n < 2:
        raise ValueError(f"bipartition needs at least 2 tokens, got {n}")
    idx = np.arange(n)
    return Bipartition(dst_index=idx[0::2], src_index=idx[1::2])


@dataclass(frozen=True)
class MatchResult:
    """Outcome of soft matching: which sources merge where.

    merges lists (src, dst, similarity) for the r merged sources in
    selection order (best score first). groups partitions all token
    positions: one group per surviving token, holding the survivor and
    every source merged into it.
    """

    merges: tuple[tuple[int, int, float], ...]
    groups: tuple[tuple[int, ...], ...]


def soft_match(keys, part: Bipartition, r: int) -> MatchResult:
    """Score sources against destinations and pick the top r to merge.

    Each source's score is its best cosine similarity to any
    destination (ties go to the lower destination position). The r
    highest-scoring sources merge into their best destinations; score
    ties merge the lower source position first.
    """
    k = numerics.as_matrix(keys)
    dst = np.asarray(part.dst_index, dtype=np.int64)
    src = np.asarray(part.src_index, dtype=np.int64)
    if r < 0:
        raise ValueError(f"negative merge count {r}")
    if r > src.shape[0]:
        raise ValueError(f"cannot merge {r} of {src.shape[0]} source tokens")

    j, scores = numerics.cosine_argmax(k[src], k[dst])  # first max: lowest dst wins ties
    best = dst[j]

    chosen = np.lexsort((src, -scores))[:r]  # by (-score, src)
    merges = tuple((int(src[i]), int(best[i]), float(scores[i])) for i in chosen)

    keep = np.ones(k.shape[0], dtype=bool)
    keep[src[chosen]] = False
    members = [[i] for i in range(k.shape[0])]
    for s, d, _ in sorted(merges):  # each group lists its sources in increasing position
        members[d].append(s)
    groups = tuple(tuple(members[i]) for i in np.flatnonzero(keep))
    return MatchResult(merges=merges, groups=groups)


def vidtldr_mass_update(state: TokenState, part: Bipartition, masked) -> np.ndarray:
    """Saliency-rescaled masses: every source token's mass becomes
    max(saliency * mass, MASS_EPS); destination masses are untouched.

    Applies to all sources, merged or not, so a suppressed unmerged
    source carries an eps mass into later layers (merge-and-prune in
    one mechanism).
    """
    s = np.asarray(masked, dtype=np.float64).reshape(-1)
    if s.shape[0] != state.count:
        raise ValueError(
            f"saliency length {s.shape[0]} differs from token count {state.count}"
        )
    if (s < 0).any() or (s > 1 + 1e-9).any():
        raise ValueError("masked saliency must lie in [0, 1]")
    out = state.masses.copy()
    src = np.asarray(part.src_index, dtype=np.int64)
    out[src] = np.maximum(out[src] * s[src], MASS_EPS)
    return out


def _merge_with_masses(state: TokenState, match: MatchResult, masses: np.ndarray) -> TokenState:
    """Shared merge core: mass-weighted means over the matched groups.

    Surviving tokens keep their original relative order. A group's mass
    and float64 weighted feature sum are numpy sums over its members,
    survivor first and merged sources in increasing position; numpy
    starts each from +0.0. With one or two positive masses, and one or
    two terms per feature, every summation order gives the same bits, so
    groups of one and two members, nearly all of them, are merged with
    whole-array operations that add the terms and then +0.0. Numpy's
    order decides the bits of a larger group, so each of those is summed
    by numpy itself.
    """
    groups = match.groups
    sizes = np.fromiter(map(len, groups), dtype=np.int64, count=len(groups))
    members = np.fromiter(itertools.chain.from_iterable(groups), dtype=np.int64,
                          count=int(sizes.sum()))
    first = np.cumsum(sizes) - sizes
    row_of = np.full(state.count + 1, -1, dtype=np.int64)  # last slot: pruned tubes
    row_of[members] = np.repeat(np.arange(len(groups)), sizes)
    feats64 = state.features.astype(np.float64)
    out_feats = np.empty((len(groups), feats64.shape[1]), dtype=np.float64)
    out_mass = np.empty(len(groups), dtype=np.float64)

    rows = np.flatnonzero(sizes == 1)
    i = members[first[rows]]
    out_mass[rows] = masses[i]
    out_feats[rows] = (masses[i, None] * feats64[i] + 0.0) / masses[i, None]

    rows = np.flatnonzero(sizes == 2)
    i, j = members[first[rows]], members[first[rows] + 1]
    total = masses[i] + masses[j]
    out_mass[rows] = total
    out_feats[rows] = (masses[i, None] * feats64[i] + masses[j, None] * feats64[j] + 0.0) / total[:, None]

    for row in np.flatnonzero(sizes > 2):
        idx = members[first[row]:first[row] + sizes[row]]
        w = masses[idx]
        total = float(w.sum())
        out_feats[row] = (w[:, None] * feats64[idx]).sum(axis=0) / total
        out_mass[row] = total
    return TokenState(
        features=out_feats.astype(np.float32),
        masses=out_mass,
        owner=row_of[state.owner],
    )


def tome_merge(state: TokenState, match: MatchResult) -> TokenState:
    """Merge matched sources into destinations by mass-weighted mean.

    Total mass is conserved: every token's mass ends up in some group.
    """
    return _merge_with_masses(state, match, state.masses)


def vidtldr_merge(state: TokenState, match: MatchResult, updated_masses) -> TokenState:
    """Merge with saliency-updated masses (from vidtldr_mass_update).

    Group features are means weighted by the updated masses and each
    merged token's mass is the group's updated-mass sum, so the total
    of the output masses equals the total of the updated masses, not
    the original ones: background mass is deliberately discarded.
    """
    masses = np.asarray(updated_masses, dtype=np.float64).reshape(-1)
    if masses.shape[0] != state.count:
        raise ValueError(
            f"mass vector length {masses.shape[0]} differs from token count {state.count}"
        )
    if (masses < MASS_EPS * (1 - 1e-9)).any():
        raise ValueError("updated masses must respect the mass floor")
    return _merge_with_masses(state, match, masses)


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
