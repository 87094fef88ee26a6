import numpy as np
import pytest

from vidtldr import costmodel
from vidtldr.costmodel import CostConfig, InfeasibleScheduleError


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


def test_layer_flops_unit_case():
    cfg = CostConfig(n0=1, width=1, layers=1)
    assert costmodel.layer_flops(1, cfg) == 14


def test_layer_flops_formula():
    cfg = CostConfig(n0=16, width=32, layers=2)
    n, c = 16, 32
    assert costmodel.layer_flops(n, cfg) == 12 * n * c * c + 2 * n * n * c


def test_layer_flops_superlinear_in_n():
    cfg = CostConfig(n0=64, width=128, layers=1)
    assert costmodel.layer_flops(64, cfg) > 2 * costmodel.layer_flops(32, cfg)


def test_attention_and_mlp_flops_reject_bad_dims():
    with pytest.raises(ValueError):
        costmodel.attention_flops(0, 8)
    with pytest.raises(ValueError):
        costmodel.mlp_flops(4, 0)
    with pytest.raises(ValueError):
        CostConfig(n0=0, width=8, layers=2)


def test_zero_schedule_is_layerwise_constant():
    cfg = CostConfig(n0=196, width=384, layers=12)
    report = costmodel.schedule_flops(cfg, [])
    assert report.total_flops == 12 * costmodel.layer_flops(196, cfg)
    assert report.token_trajectory == (196,) * 12
    assert report.final_tokens == 196


def test_schedule_trajectory_hand_case():
    cfg = CostConfig(n0=8, width=4, layers=5)
    report = costmodel.schedule_flops(cfg, [2, 2])
    assert report.token_trajectory == (6, 4, 4, 4, 4)
    assert report.final_tokens == 4
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
        cfg = CostConfig(n0=n0, width=width, layers=layers)
        report = costmodel.schedule_flops(cfg, sched)
        assert report.total_flops == oracle_schedule_total(n0, width, layers, 4, sched)


def test_results_are_exact_ints():
    cfg = CostConfig(n0=2352, width=768, layers=12)
    report = costmodel.schedule_flops(cfg, [0, 400])
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
    cfg = CostConfig(n0=16, width=8, layers=3)
    with pytest.raises(ValueError):
        costmodel.schedule_flops(cfg, [1, 1, 1, 1])
    with pytest.raises(ValueError):
        costmodel.schedule_flops(cfg, [-1])
    with pytest.raises(InfeasibleScheduleError):
        costmodel.schedule_flops(cfg, [16])
    with pytest.raises(InfeasibleScheduleError):
        costmodel.schedule_flops(cfg, [8, 8])
    # exactly one token left is still feasible
    report = costmodel.schedule_flops(cfg, [8, 7])
    assert report.final_tokens == 1


def test_more_reduction_never_costs_more():
    cfg = CostConfig(n0=128, width=64, layers=6)
    base = costmodel.schedule_flops(cfg, [10]).total_flops
    assert costmodel.schedule_flops(cfg, [20]).total_flops < base


def test_earlier_placement_is_cheaper():
    cfg = CostConfig(n0=100, width=32, layers=8)
    totals = [
        costmodel.schedule_flops(cfg, [0] * l + [30]).total_flops
        for l in range(8)
    ]
    assert totals == sorted(totals)
    assert len(set(totals)) == len(totals)
