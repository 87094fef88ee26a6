"""Reference loops that the kernels are checked against, bit for bit.

``k_ordered_sum`` is the reference accumulator of ``numerics``: a float64
sum that starts from +0.0 and adds the products of each k in increasing
k. ``cosine_matrix`` is the reference cosine matrix built on it, the one
``numerics.cosine_argmax``, ``numerics._cosines`` and
``numerics.cosine_sim`` must reproduce. ``oracle_rollout`` is the
vector chain ``saliency.attention_rollout`` must reproduce, built on
``k_ordered_sum``. ``oracle_match`` and
``oracle_merge`` are the exhaustive matching and the per-group merge
that ``merging`` is checked against; ``oracle_groups`` spells out the
groups a merge list makes, and ``oracle_mass_update`` the masses
vid-TLDR's merge weights them by. No oracle calls the kernel it checks.
"""

import numpy as np

from vidtldr import numerics
from vidtldr.merging import MASS_EPS


def k_ordered_sum(a64: np.ndarray, b64: np.ndarray) -> np.ndarray:
    """Float64 sum of the broadcast products a64[k] * b64[k], in increasing k."""
    acc = np.zeros(np.broadcast_shapes(a64.shape[1:], b64.shape[1:]), dtype=np.float64)
    for x, y in zip(a64, b64):
        acc += x * y
    return acc


def cosine_matrix(a, b) -> np.ndarray:
    """(m, n) float64 cosine similarity of each row of ``a`` with each row of ``b``.

    Dots and squared norms are k-ordered float64 sums. An entry is 0.0
    where either row's norm is below COSINE_NORM_EPS.
    """
    a64 = np.asarray(a, dtype=np.float64)
    b64 = np.asarray(b, dtype=np.float64)
    if a64.ndim != 2 or b64.ndim != 2 or a64.shape[1] != b64.shape[1]:
        raise ValueError(f"cosine_matrix width mismatch: {a64.shape} vs {b64.shape}")
    dots = k_ordered_sum(a64.T[:, :, None], b64.T[:, None, :])
    na = np.sqrt(k_ordered_sum(a64.T, a64.T))[:, None]
    nb = np.sqrt(k_ordered_sum(b64.T, b64.T))[None, :]
    eps = numerics.COSINE_NORM_EPS
    flat = (na < eps) | (nb < eps)
    return np.where(flat, 0.0, dots / np.where(flat, 1.0, na * nb))


def oracle_rollout(maps) -> np.ndarray:
    """(layers, n) rollout table as a plain vector chain: the last row is
    the last map's float64 column mean, and each earlier row is the next
    row rounded to float32, times that layer's map as a k-ordered sum,
    rounded to float32 and widened to float64."""
    rows = [np.asarray(maps[-1], dtype=np.float32).astype(np.float64).mean(axis=0)]
    for m in reversed(maps[:-1]):
        v = rows[-1].astype(np.float32).astype(np.float64)
        m64 = np.asarray(m, dtype=np.float32).astype(np.float64)
        rows.append(k_ordered_sum(v, m64).astype(np.float32).astype(np.float64))
    return np.stack(rows[::-1])


def oracle_match(keys, r):
    """Exhaustive matching: score every odd (source) position against
    every even (destination) one, cut at r."""
    keys = np.asarray(keys, dtype=np.float64)
    rows = []
    for s in range(1, len(keys), 2):
        best_d, best_sim = None, None
        for d in range(0, len(keys), 2):
            sim = numerics.cosine_sim(keys[s], keys[d])
            if best_sim is None or sim > best_sim:
                best_d, best_sim = d, sim
        rows.append((s, best_d, best_sim))
    rows.sort(key=lambda t: (-t[2], t[0]))
    return rows[:r]


def oracle_groups(n, merges):
    """The groups a merge list makes of n tokens: one per token not merged
    away, in position order, holding it and then its sources in
    increasing position."""
    members = {i: [i] for i in range(n)}
    for s, d, _ in sorted(merges):
        members[d].append(s)
    for s, _, _ in merges:
        del members[s]
    return [tuple(members[i]) for i in sorted(members)]


def oracle_mass_update(masses, masked):
    """vid-TLDR's mass rule, one token at a time: each source (odd
    position) mass becomes max(saliency * mass, MASS_EPS), and each
    destination (even position) mass stays as it is."""
    return np.array([max(float(s) * float(m), MASS_EPS) if i % 2 else float(m)
                     for i, (m, s) in enumerate(zip(masses, masked))])


def oracle_merge(state, merges, masses):
    """Per-group weighted means, one numpy sum per group over its members
    in listed order: the merge must equal these bit for bit."""
    feats = state.features.astype(np.float64)
    out_f, out_m = [], []
    for group in oracle_groups(state.count, merges):
        idx = list(group)
        w = np.asarray([masses[i] for i in idx], dtype=np.float64)
        out_f.append((w[:, None] * feats[idx]).sum(axis=0) / w.sum())
        out_m.append(w.sum())
    return np.array(out_f), np.array(out_m)
