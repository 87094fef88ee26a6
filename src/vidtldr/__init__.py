"""Training-free saliency-aware token merging for video transformers.

Library layout:
    numerics   deterministic float32 kernel (matmul, softmax, entropy, cosine, erf)
    model      toy spatio-temporal transformer with pluggable token reduction
    merging    bipartite soft matching, mass-weighted merging, pruning
    saliency   attentiveness, attention rollout, sharpness saliency, frame ratios
    costmodel  analytical FLOPs under per-layer reduction schedules
    harness    config files, synthetic clips, run orchestration, CLI
"""

from . import costmodel, merging, model, numerics, saliency

__version__ = "0.1.0"

__all__ = ["costmodel", "merging", "model", "numerics", "saliency", "__version__"]
