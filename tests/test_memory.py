"""Device memory accounting and plan selection.

The tiny model used throughout has hand-countable weights:

    attention      688   (q 192+144, kv 96+32+48+48, out 128)
    layer norms     50   (2h + q_rank + kv_rank)
    dense ffn      384   (3 * 16 * 8)
    expert         384   router 64 (h * 4 experts)
    mtp combine    544   (2h*h + 2h)
    head/embed    1600   each (16 * 100)

so a dense item is 1122, a moe item 2722, the mtp item 3266, and a
single-stage device owns 13032 parameters including the embedding.
"""

import itertools
from dataclasses import replace

import pytest

from moesim.cluster import HardwareDescription
from moesim.errors import InfeasibleMemoryError
from moesim.memory import (
    MemoryPlan,
    activation_peak,
    candidate_plans,
    in_flight_micro_batches,
    memory_report,
    plan_time_cost,
    select_memory_plan,
    static_memory,
)
from moesim.model import MlaDims, ModelConfig
from moesim.parallel import ParallelPlan, assign_chunks
from moesim.pipeline import build_1f1b_schedule


def tiny_config():
    return ModelConfig(
        num_layers=3,
        hidden_size=16,
        num_attention_heads=2,
        num_routed_experts=4,
        top_k=2,
        expert_intermediate_size=8,
        num_shared_experts=1,
        num_dense_layers=1,
        dense_ffn_intermediate_size=8,
        mla=MlaDims(q_rank=12, kv_rank=6, head_dim=4, rope_dim=2),
        num_mtp_layers=1,
        vocab_size=100,
        seq_len=64,
    )


def single_stage_plan(dp=1, gbs=1):
    return ParallelPlan(tp=1, pp=1, vpp=1, ep=1, dp=dp, micro_batch_size=1, global_batch_size=gbs)


def small_hw(**overrides):
    args = dict(
        name="membox",
        peak_flops={"bf16": 1e12},
        hbm_capacity=16e9,
        hbm_bandwidth=1e12,
        intra_node_bandwidth=100e9,
        intra_node_latency=1e-6,
        inter_node_bandwidth=25e9,
        inter_node_latency=5e-6,
        devices_per_node=8,
        num_nodes=1,
    )
    args.update(overrides)
    return HardwareDescription(**args)


def test_static_memory_optimizer_sharding():
    cfg = tiny_config()
    layout = assign_chunks(cfg, single_stage_plan())
    # dtype grads and weights cost 4 bytes per weight, the fp32 master and
    # both moments cost 12 more, sharded across dp
    assert static_memory(cfg, single_stage_plan(dp=1), layout) == pytest.approx(16 * 13032)
    assert static_memory(cfg, single_stage_plan(dp=4), layout) == pytest.approx(7 * 13032)


def test_static_memory_two_stage_split():
    cfg = tiny_config()
    plan = ParallelPlan(tp=1, pp=2, vpp=1, ep=1, dp=1, micro_batch_size=1, global_batch_size=2)
    # best contiguous split is [dense, moe, moe | mtp, head]; stage 0 also
    # holds the input embedding: 1122 + 2722 + 2722 + 1600 = 8166
    assert static_memory(cfg, plan, assign_chunks(cfg, plan)) == pytest.approx(16 * 8166)


def test_static_memory_tensor_parallel_sharding():
    cfg = tiny_config()
    plan = ParallelPlan(tp=2, pp=1, vpp=1, ep=1, dp=1, micro_batch_size=1, global_batch_size=1)
    # sharded: attention+norms 369, dense ffn 192, held experts 2*384,
    # shared 192, mtp combine 272, head 800, embedding 800; router 64 is
    # replicated on every rank
    dense = 369 + 192
    moe = 369 + 64 + 768 + 192
    mtp = moe + 272
    total = dense + 2 * moe + mtp + 800 + 800
    static = static_memory(cfg, plan, assign_chunks(cfg, plan))
    assert static == pytest.approx(16 * total)
    single = single_stage_plan()
    assert static < static_memory(cfg, single, assign_chunks(cfg, single))


def test_activation_peak_keep_everything():
    cfg = tiny_config()
    # per token: boundary 64, attention kv 52 + rest 64, permute 160,
    # expert ffn 96, probs 16; dense layer keeps 212, moe/mtp keep 452
    plan = single_stage_plan()
    act = activation_peak(cfg, plan, assign_chunks(cfg, plan), MemoryPlan())
    assert act == pytest.approx(64 * (212 + 3 * 452))


def test_activation_peak_all_options_hits_boundary_floor():
    cfg = tiny_config()
    plan = single_stage_plan()
    layout = assign_chunks(cfg, plan)
    floor = activation_peak(cfg, plan, layout, MemoryPlan(full_layer=True))
    everything = activation_peak(cfg, plan, layout, MemoryPlan.everything())
    assert floor == pytest.approx(64 * 4 * 64)
    assert everything == pytest.approx(floor)


def test_activation_peak_kv_only_sits_between():
    cfg = tiny_config()
    plan = single_stage_plan()
    layout = assign_chunks(cfg, plan)
    none = activation_peak(cfg, plan, layout, MemoryPlan())
    kv = activation_peak(cfg, plan, layout, MemoryPlan(recompute=frozenset(("mla_kv_only",))))
    qkv = activation_peak(cfg, plan, layout, MemoryPlan(recompute=frozenset(("mla_qkv",))))
    assert kv == pytest.approx(64 * (160 + 3 * 400))
    assert qkv == pytest.approx(64 * (96 + 3 * 336))
    assert qkv < kv < none


def test_unset_global_batch_falls_back():
    """With no global batch the micro batch count is unknown: the peak keeps
    the full 1F1B depth and recompute is charged for one micro batch."""
    cfg = tiny_config()

    def two_stage(gbs, mbs=1):
        return ParallelPlan(tp=1, pp=2, vpp=1, ep=1, dp=1, micro_batch_size=mbs, global_batch_size=gbs)

    layout = assign_chunks(cfg, two_stage(0))
    assert activation_peak(cfg, two_stage(0), layout, MemoryPlan()) == activation_peak(
        cfg, two_stage(8), layout, MemoryPlan()
    )
    full = MemoryPlan(full_layer=True)
    cost = plan_time_cost(cfg, two_stage(0), small_hw(), full)
    assert cost > 0
    assert cost == plan_time_cost(cfg, two_stage(1), small_hw(), full)
    # A global batch that dp * micro_batch_size does not divide falls back
    # the same way, not to the rounded-down count (1 for 3, 2 for 5).
    for ragged in (two_stage(3, mbs=2), two_stage(5, mbs=2)):
        peak = activation_peak(cfg, ragged, layout, MemoryPlan())
        assert peak == activation_peak(cfg, two_stage(0, mbs=2), layout, MemoryPlan())
        assert plan_time_cost(cfg, ragged, small_hw(), full) == plan_time_cost(cfg, two_stage(2, mbs=2), small_hw(), full)


def test_in_flight_micro_batches():
    flat = ParallelPlan(tp=1, pp=4, vpp=1, ep=1, dp=1, micro_batch_size=1)
    assert [in_flight_micro_batches(flat, s) for s in range(4)] == [4, 3, 2, 1]
    inter = ParallelPlan(tp=1, pp=16, vpp=2, ep=1, dp=1, micro_batch_size=1)
    assert in_flight_micro_batches(inter, 0) == 47
    assert in_flight_micro_batches(inter, 15) == 17
    # never more than the chunks that exist
    assert in_flight_micro_batches(inter, 0, m=1) == 2
    assert in_flight_micro_batches(flat, 0, m=2) == 2


def test_in_flight_matches_the_schedule_peak():
    """The depth the memory model charges is the most forwards a stage of
    the built schedule holds without their backward, on every stage of
    p <= 6, v <= 3, m <= 24 (interleaving needs p | m)."""
    cases = 0
    for p, v, m in itertools.product(range(1, 7), range(1, 4), range(1, 25)):
        if v > 1 and m % p:
            continue
        plan = ParallelPlan(tp=1, pp=p, vpp=v, ep=1, dp=1, micro_batch_size=1)
        for s, slots in enumerate(build_1f1b_schedule(p, m, v)):
            held = peak = 0
            for slot in slots:
                held += 1 if slot.phase == "fwd" else -1
                peak = max(peak, held)
            assert in_flight_micro_batches(plan, s, m) == peak, (p, v, m, s)
            cases += 1
    assert cases == 784


def test_report_totals_and_headroom():
    cfg = tiny_config()
    plan = single_stage_plan()
    rep = memory_report(cfg, plan, assign_chunks(cfg, plan), small_hw(hbm_capacity=400_000.0), MemoryPlan())
    assert rep.total_bytes == pytest.approx(rep.static_bytes + rep.activation_bytes)
    assert rep.headroom_bytes == pytest.approx(400_000.0 - rep.total_bytes)
    assert rep.static_bytes == pytest.approx(16 * 13032)
    assert rep.feasible


def test_feasibility_boundary_is_inclusive():
    cfg = tiny_config()
    plan = single_stage_plan()
    hw = small_hw()
    layout = assign_chunks(cfg, plan)
    exact = memory_report(cfg, plan, layout, hw, MemoryPlan()).total_bytes
    assert memory_report(cfg, plan, layout, replace(hw, hbm_capacity=exact), MemoryPlan()).feasible
    assert not memory_report(cfg, plan, layout, replace(hw, hbm_capacity=exact - 1), MemoryPlan()).feasible


def test_probs_swap_costs_no_time_at_this_scale():
    cfg = tiny_config()
    plan = single_stage_plan()
    rep = memory_report(cfg, plan, assign_chunks(cfg, plan), small_hw(), MemoryPlan(swap=frozenset(("probs",))))
    # two transfers of 3 kB hide easily behind the expert matmuls
    assert rep.time_added == 0.0


def test_select_prefers_doing_nothing_when_memory_is_ample():
    cfg = tiny_config()
    rep = select_memory_plan(cfg, single_stage_plan(), small_hw())
    assert rep.plan == MemoryPlan()
    assert rep.time_added == 0.0


def test_select_picks_free_swap_under_mild_pressure():
    cfg = tiny_config()
    static = 16 * 13032
    # room for the probs-swap footprint but not the keep-everything one
    cap = static + 64 * (212 + 3 * 436) + 1
    rep = select_memory_plan(cfg, single_stage_plan(), small_hw(hbm_capacity=cap))
    assert rep.plan == MemoryPlan(swap=frozenset(("probs",)))
    assert rep.time_added == 0.0


def test_select_matches_brute_force_ranking():
    cfg = tiny_config()
    plan = single_stage_plan()
    static = 16 * 13032
    layout = assign_chunks(cfg, plan)
    for cap in [static + 17_000, static + 70_000, static + 90_000, static + 101_000]:
        hw = small_hw(hbm_capacity=cap)
        want = None
        for mp in candidate_plans():
            rep = memory_report(cfg, plan, layout, hw, mp)
            if not rep.feasible:
                continue
            names = sorted(rep.plan.recompute | rep.plan.swap)
            key = (
                rep.time_added,
                len(names),
                1 if "mla_qkv" in rep.plan.recompute else 0,
                names,
            )
            if want is None or key < want[0]:
                want = (key, rep.plan)
        got = select_memory_plan(cfg, plan, hw)
        assert got.plan == want[1]


def test_select_raises_when_nothing_fits():
    cfg = tiny_config()
    with pytest.raises(InfeasibleMemoryError):
        select_memory_plan(cfg, single_stage_plan(), small_hw(hbm_capacity=float(16 * 13032)))


def test_candidate_plans_cover_the_lattice_once():
    plans = candidate_plans()
    assert len(plans) == 24
    assert len(set(plans)) == 24
    assert MemoryPlan() in plans
    assert all(not p.full_layer for p in plans)


def test_plan_option_validation():
    with pytest.raises(ValueError):
        MemoryPlan(recompute=frozenset(("gelu",)))
    with pytest.raises(ValueError):
        MemoryPlan(swap=frozenset(("weights",)))
    with pytest.raises(ValueError):
        MemoryPlan(recompute=frozenset(("mla_qkv", "mla_kv_only")))
    everything = MemoryPlan.everything()
    assert "mla_qkv" in everything.recompute
    assert "probs" in everything.swap
