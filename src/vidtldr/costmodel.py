"""Reduction-schedule plan and analytical FLOPs model of a pre-norm
transformer encoder. plan_schedule alone decides whether a schedule
can run; config validation, the forward pass and the FLOPs model call it.

FLOPs count one unit per multiply-accumulate (the fvcore convention
of published ViT FLOPs tables) and ignore norms, biases, activations,
and softmax. All arithmetic is exact Python integers.

Per layer at token count n and width C:
    attention: 4*n*C^2 (Q, K, V, output projections) + 2*n^2*C
               (attention scores and the attention-weighted sum)
    MLP:       2 * mlp_ratio * n * C^2

When a layer removes tokens, the reduction happens between the
attention block and the MLP, so attention is charged at the pre-merge
count and the MLP at the post-merge count.
"""

from __future__ import annotations

from dataclasses import dataclass

MLP_RATIO = 4


class InfeasibleScheduleError(ValueError):
    """Raised when a layer cannot remove the tokens its schedule asks for."""


@dataclass(frozen=True)
class CostConfig:
    """Encoder geometry the FLOPs model needs."""

    n0: int
    width: int
    layers: int
    mlp_ratio: int = MLP_RATIO

    def __post_init__(self):
        if min(self.n0, self.width, self.layers, self.mlp_ratio) < 1:
            raise ValueError("all cost-model dimensions must be positive")


def attention_flops(n: int, width: int) -> int:
    """FLOPs for one self-attention block at n tokens."""
    if n < 1 or width < 1:
        raise ValueError(f"token count and width must be positive, got n={n}, width={width}")
    return 4 * n * width * width + 2 * n * n * width


def mlp_flops(n: int, width: int, mlp_ratio: int = MLP_RATIO) -> int:
    """FLOPs for one MLP block (hidden size mlp_ratio * width) at n tokens."""
    if n < 1 or width < 1 or mlp_ratio < 1:
        raise ValueError("token count, width, and ratio must be positive")
    return 2 * mlp_ratio * n * width * width


def layer_flops(n: int, cfg: CostConfig) -> int:
    """FLOPs for one full encoder layer at a constant n tokens.

    At the default ratio 4 this is 12*n*C^2 + 2*n^2*C.
    """
    return attention_flops(n, cfg.width) + mlp_flops(n, cfg.width, cfg.mlp_ratio)


@dataclass(frozen=True)
class CostReport:
    per_layer_flops: tuple[int, ...]
    total_flops: int
    token_trajectory: tuple[int, ...]  # token count at the end of each layer

    @property
    def final_tokens(self) -> int:
        return self.token_trajectory[-1]


def plan_schedule(n0: int, layers: int, schedule, merging: bool = False) -> list[int]:
    """Validate a per-layer reduction schedule and zero-pad it to ``layers``.

    schedule[l] tokens are removed inside layer l (0-based). Raises
    ValueError for too many entries or a negative one, and
    InfeasibleScheduleError for a layer left below 1 token or, with
    ``merging`` (bipartite soft matching, whose sources are the odd
    positions), asked to merge more than floor(n/2) of its n tokens.
    """
    if len(schedule) > layers:
        raise ValueError(f"schedule has {len(schedule)} entries for {layers} layers")
    full = list(schedule) + [0] * (layers - len(schedule))
    n = n0
    for l, r in enumerate(full):
        if r < 0:
            raise ValueError(f"schedule entries must be non-negative, got {r} at layer {l}")
        if n - r < 1:
            raise InfeasibleScheduleError(
                f"infeasible schedule: layer {l} would leave {n - r} tokens"
            )
        if merging and r > n // 2:
            raise InfeasibleScheduleError(
                f"infeasible schedule: layer {l} asks to merge {r} of {n} tokens, "
                f"bipartite matching merges at most {n // 2}"
            )
        n -= r
    return full


def schedule_flops(cfg: CostConfig, schedule) -> CostReport:
    """Total FLOPs for an encoder under a per-layer token-reduction schedule.

    The schedule is planned by plan_schedule without the merge limit.
    Tokens leave a layer after its attention block and before its MLP.
    """
    per_layer: list[int] = []
    trajectory: list[int] = []
    n = cfg.n0
    for r in plan_schedule(cfg.n0, cfg.layers, schedule):
        n_out = n - r
        per_layer.append(
            attention_flops(n, cfg.width) + mlp_flops(n_out, cfg.width, cfg.mlp_ratio)
        )
        trajectory.append(n_out)
        n = n_out
    return CostReport(
        per_layer_flops=tuple(per_layer),
        total_flops=sum(per_layer),
        token_trajectory=tuple(trajectory),
    )
