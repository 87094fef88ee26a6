import numpy as np
import pytest

from vidtldr import costmodel
from vidtldr.costmodel import InfeasibleScheduleError


def oracle_schedule_total(n0, width, layers, ratio, schedule):
    """Direct per-layer summation with explicit counts.

    Attention is charged at the count entering the layer, the MLP at
    the count after that layer's reduction.
    """
    full = list(schedule) + [0] * (layers - len(schedule))
    n = n0
    total = 0
    for r in full:
        n_out = n - r
        total += 4 * n * width * width + 2 * n * n * width
        total += 2 * ratio * n_out * width * width
        n = n_out
    return total


def layer_flops(n, width):
    """FLOPs of one unreduced layer at n tokens, from schedule_flops."""
    return costmodel.schedule_flops(n, 1, [], width=width).per_layer_flops[0]


def test_layer_flops_unit_case():
    assert layer_flops(1, 1) == 14


def test_layer_flops_formula():
    n, c = 16, 32
    assert layer_flops(n, c) == 12 * n * c * c + 2 * n * n * c


def test_layer_flops_superlinear_in_n():
    assert layer_flops(64, 128) > 2 * layer_flops(32, 128)


def test_attention_and_mlp_flops_reject_bad_dims():
    with pytest.raises(ValueError):
        costmodel.attention_flops(0, 8)
    with pytest.raises(ValueError):
        costmodel.mlp_flops(4, 0)
    for n0, layers, width in ((0, 2, 8), (4, 0, 8), (4, 2, 0)):
        with pytest.raises(ValueError, match="positive"):
            costmodel.schedule_flops(n0, layers, [], width=width)


def test_zero_schedule_is_layerwise_constant():
    report = costmodel.schedule_flops(196, 12, [], width=384)
    assert report.total_flops == 12 * layer_flops(196, 384)
    assert report.token_trajectory == (196,) * 12
    assert report.token_trajectory[-1] == 196


def test_schedule_trajectory_hand_case():
    report = costmodel.schedule_flops(8, 5, [2, 2], width=4)
    assert report.token_trajectory == (6, 4, 4, 4, 4)
    assert report.token_trajectory[-1] == 4
    assert sum(report.per_layer_flops) == report.total_flops


def test_schedule_flops_matches_oracle():
    rng = np.random.default_rng(23)
    for _ in range(50):
        layers = int(rng.integers(1, 10))
        n0 = int(rng.integers(8, 300))
        width = int(rng.integers(4, 200))
        sched = []
        n = n0
        for _ in range(int(rng.integers(0, layers + 1))):
            r = int(rng.integers(0, max(1, (n - 1) // 2)))
            sched.append(r)
            n -= r
        report = costmodel.schedule_flops(n0, layers, sched, width=width)
        assert report.total_flops == oracle_schedule_total(n0, width, layers, 4, sched)


def test_results_are_exact_ints():
    report = costmodel.schedule_flops(2352, 12, [0, 400], width=768)
    assert isinstance(report.total_flops, int)
    assert all(isinstance(f, int) for f in report.per_layer_flops)


def test_plan_schedule_pads():
    assert costmodel.plan_schedule(8, 4, [1, 2]) == [1, 2, 0, 0]
    assert costmodel.plan_schedule(8, 4, (1, 2), merging=True) == [1, 2, 0, 0]
    with pytest.raises(ValueError):
        costmodel.plan_schedule(8, 4, [1] * 5)
    with pytest.raises(ValueError):
        costmodel.plan_schedule(8, 4, [-1])


def test_plan_schedule_merge_limit():
    # bipartite matching has floor(n/2) sources: 4 of 8, then 2 of 4
    assert costmodel.plan_schedule(8, 3, [4, 2], merging=True) == [4, 2, 0]
    assert costmodel.plan_schedule(9, 1, [4], merging=True) == [4]
    for schedule in ([5], [4, 3], [0, 0, 5]):
        with pytest.raises(InfeasibleScheduleError, match="merge"):
            costmodel.plan_schedule(8, 3, schedule, merging=True)
    # without merging, only the one-token floor applies
    assert costmodel.plan_schedule(8, 3, [4, 3], merging=False) == [4, 3, 0]
    with pytest.raises(InfeasibleScheduleError):
        costmodel.plan_schedule(8, 3, [4, 4])


def test_schedule_validation():
    def flops(schedule):
        return costmodel.schedule_flops(16, 3, schedule, width=8)

    with pytest.raises(ValueError):
        flops([1, 1, 1, 1])
    with pytest.raises(ValueError):
        flops([-1])
    with pytest.raises(InfeasibleScheduleError):
        flops([16])
    with pytest.raises(InfeasibleScheduleError):
        flops([8, 8])
    # exactly one token left is still feasible
    report = flops([8, 7])
    assert report.token_trajectory[-1] == 1


def test_more_reduction_never_costs_more():
    base = costmodel.schedule_flops(128, 6, [10], width=64).total_flops
    assert costmodel.schedule_flops(128, 6, [20], width=64).total_flops < base


def test_earlier_placement_is_cheaper():
    totals = [
        costmodel.schedule_flops(100, 8, [0] * l + [30], width=32).total_flops
        for l in range(8)
    ]
    assert totals == sorted(totals)
    assert len(set(totals)) == len(totals)
