"""Reference loops that the numerics kernels are checked against, bit for bit.

``k_ordered_sum`` is the reference accumulator of ``numerics``: a float64
sum that starts from +0.0 and adds the products of each k in increasing
k. ``cosine_matrix`` is the reference cosine matrix built on it, the one
``numerics.cosine_argmax``, ``numerics._cosines`` and
``numerics.cosine_sim`` must reproduce. Neither calls the kernels they
check.
"""

import numpy as np

from vidtldr import numerics


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
