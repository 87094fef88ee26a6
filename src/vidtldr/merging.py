"""Bipartite token matching, merging, and pruning.

Tokens are tracked through reduction as a TokenState: float32 features,
float64 masses (how many source tubes' worth of signal a token carries),
and per-token provenance (which original tube indices it absorbed).

Matching follows the alternating-partition scheme: tokens at even
positions are destinations, odd positions are sources. Each source is
scored by its best cosine similarity to any destination over the given
key vectors, the top r sources merge into their best destinations, and
everything else survives unchanged. Merging is a mass-weighted mean.
The saliency-aware variant first rescales every source token's mass by
its saliency score (merged or not), so background sources barely
contribute to merged features and carry almost no mass forward.
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

    features: np.ndarray                     # (n, C) float32
    masses: np.ndarray                       # (n,) float64, >= MASS_EPS
    provenance: tuple[tuple[int, ...], ...]  # original tube indices per token

    @property
    def count(self) -> int:
        return self.features.shape[0]

    def with_features(self, features: np.ndarray) -> "TokenState":
        feats = numerics.as_matrix(features)
        if feats.shape[0] != self.count:
            raise ValueError(
                f"feature update changes token count {self.count} -> {feats.shape[0]}"
            )
        return TokenState(feats, self.masses, self.provenance)


def new_state(features) -> TokenState:
    """Fresh state: unit masses, one source tube per token."""
    feats = numerics.as_matrix(features)
    n = feats.shape[0]
    return TokenState(
        features=feats,
        masses=np.ones(n, dtype=np.float64),
        provenance=tuple((i,) for i in range(n)),
    )


def check_state(state: TokenState, n_tubes: int) -> None:
    """Validate the bookkeeping invariants of a state.

    Provenance groups must be disjoint, sorted, non-empty, and cover a
    subset of 0..n_tubes-1; masses must respect the floor.
    """
    if state.masses.shape != (state.count,):
        raise ValueError("mass vector length differs from token count")
    if len(state.provenance) != state.count:
        raise ValueError("provenance length differs from token count")
    if (state.masses < MASS_EPS * (1 - 1e-9)).any():
        raise ValueError("masses must stay at or above the mass floor")
    seen: set[int] = set()
    for tubes in state.provenance:
        if len(tubes) == 0:
            raise ValueError("empty provenance group")
        if list(tubes) != sorted(tubes):
            raise ValueError("provenance groups must be sorted")
        for t in tubes:
            if t < 0 or t >= n_tubes or t in seen:
                raise ValueError(f"provenance tube {t} repeated or out of range")
            seen.add(t)


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
    every source merged into it. survivors maps old positions to new
    ones (-1 for merged-away sources).
    """

    merges: tuple[tuple[int, int, float], ...]
    groups: tuple[tuple[int, ...], ...]
    survivors: np.ndarray


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

    sims = numerics.cosine_matrix(k[src], k[dst])
    j = np.argmax(sims, axis=1)  # argmax takes the first max: lowest dst wins ties
    scores = sims[np.arange(src.shape[0]), j]
    best = dst[j]

    chosen = np.lexsort((src, -scores))[:r]  # by (-score, src)
    merges = tuple((int(src[i]), int(best[i]), float(scores[i])) for i in chosen)

    keep = np.ones(k.shape[0], dtype=bool)
    keep[src[chosen]] = False
    members = [[i] for i in range(k.shape[0])]
    for s, d, _ in sorted(merges):  # each group lists its sources in increasing position
        members[d].append(s)
    groups = tuple(tuple(members[i]) for i in np.flatnonzero(keep))
    survivors = np.where(keep, np.cumsum(keep) - 1, -1)
    return MatchResult(merges=merges, groups=groups, survivors=survivors)


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

    Surviving tokens keep their original relative order. The weighted
    sums run in float64, iterating each group with the survivor first
    and its merged sources in increasing position.
    """
    feats64 = state.features.astype(np.float64)
    width = state.features.shape[1]
    out_feats = np.empty((len(match.groups), width), dtype=np.float64)
    out_mass = np.empty(len(match.groups), dtype=np.float64)
    out_prov: list[tuple[int, ...]] = []
    for row, members in enumerate(match.groups):
        idx = list(members)
        w = masses[idx]
        total = float(w.sum())
        out_feats[row] = (w[:, None] * feats64[idx]).sum(axis=0) / total
        out_mass[row] = total
        tubes: list[int] = []
        for m in idx:
            tubes.extend(state.provenance[m])
        out_prov.append(tuple(sorted(tubes)))
    return TokenState(
        features=out_feats.astype(np.float32),
        masses=out_mass,
        provenance=tuple(out_prov),
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

    Survivors keep their features, masses, and provenance unchanged.
    """
    s = np.asarray(scores, dtype=np.float64).reshape(-1)
    n = state.count
    if s.shape[0] != n:
        raise ValueError(f"score length {s.shape[0]} differs from token count {n}")
    if r < 0:
        raise ValueError(f"negative prune count {r}")
    if r >= n:
        raise ValueError(f"cannot prune {r} of {n} tokens")
    order = sorted(range(n), key=lambda i: (s[i], i))
    dropped = set(order[:r])
    keep = [i for i in range(n) if i not in dropped]
    return TokenState(
        features=state.features[keep],
        masses=state.masses[keep],
        provenance=tuple(state.provenance[i] for i in keep),
    )
