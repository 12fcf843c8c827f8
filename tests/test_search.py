"""Cost reports for single configurations and design space ranking."""

import gc
import re
from argparse import Namespace
from collections import namedtuple
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import moesim.memory
import moesim.search
from moesim.cli import _features
from moesim.cluster import HardwareDescription
from moesim.comm import MECHANISMS, dispatch_volumes
from moesim.configio import load_cluster, load_model, load_plan
from moesim.errors import InfeasibleMemoryError, PlanError, UnpricedDtypeError
from moesim.model import DesignSpace, MlaDims, ModelConfig, count_parameters, model_id
from moesim.parallel import ParallelPlan, assign_chunks, micro_batch_count, require_valid, tokens_per_device
from moesim.pipeline import (
    SERIALIZED, OverlapPolicy, ScheduleSlot, build_1f1b_schedule, dataflow_parent, slot_id,
)
from moesim.search import (
    SimulationFeatures,
    _stage_crossing_resource,
    boundary_transfer_events,
    chunk_costs_from_model,
    inference_report,
    search_space,
    slot_dispatch_events,
    training_report,
)


def bench_cluster(**overrides):
    args = dict(
        name="bench8",
        peak_flops={"bf16": 5e12},
        hbm_capacity=8e9,
        hbm_bandwidth=400e9,
        intra_node_bandwidth=50e9,
        intra_node_latency=2e-6,
        inter_node_bandwidth=12e9,
        inter_node_latency=8e-6,
        devices_per_node=4,
        num_nodes=2,
    )
    args.update(overrides)
    return HardwareDescription(**args)


def bench_model(**overrides):
    args = dict(
        num_layers=4,
        hidden_size=64,
        num_attention_heads=4,
        num_routed_experts=4,
        top_k=2,
        expert_intermediate_size=32,
        num_shared_experts=1,
        num_dense_layers=1,
        dense_ffn_intermediate_size=32,
        mla=MlaDims(q_rank=24, kv_rank=12, head_dim=8, rope_dim=4),
        num_mtp_layers=1,
        vocab_size=256,
        seq_len=128,
    )
    args.update(overrides)
    return ModelConfig(**args)


# A hop spelled out for the assertions below: its id, what it waits on
# (its slot's dataflow parent, nothing at a graph source, or the previous
# hop's id when chained), the device it runs on and the slot it feeds.
Hop = namedtuple("Hop", "id kind resource bytes dependencies device group_size feeds", defaults=((), 0, 0, None))


def hop_records(transfers):
    """The rows of ``transfers`` as ``Hop`` records, in row order."""
    flat = [sl for slots in transfers.schedule for sl in slots]
    p, v = len(transfers.schedule), 1 + max((sl.vpp_stage for sl in flat), default=0)
    records = []
    for hid, g, h in zip(transfers.ids(), transfers.slots, transfers.hops):
        kind, resource, nbytes, group, chained = transfers.shapes[h][:5]
        sl = flat[g]
        if chained:
            prior = (records[-1].id,)
        else:
            parent = dataflow_parent(sl, p, v)
            prior = (parent,) if parent is not None else ()
        records.append(Hop(hid, kind, resource, nbytes, prior, sl.pp_stage, group, sl))
    return records


def bench_plan():
    return ParallelPlan(tp=1, pp=2, vpp=1, ep=2, cp=1, micro_batch_size=1, global_batch_size=16)


def test_chunk_costs_cover_every_chunk():
    cfg = bench_model()
    plan = ParallelPlan(tp=1, pp=2, vpp=1, ep=2, dp=4, cp=1, micro_batch_size=1, global_batch_size=16)
    costs = chunk_costs_from_model(cfg, plan, assign_chunks(cfg, plan), bench_cluster())
    assert set(costs) == {(0, 0), (1, 0)}
    for cost in costs.values():
        assert cost.fwd > 0
        assert cost.bwd == pytest.approx(2.0 * cost.fwd)


def test_chunk_costs_scale_with_load():
    plan = ParallelPlan(tp=1, pp=1, vpp=1, ep=2, dp=8, cp=1, micro_batch_size=1, global_batch_size=16)
    hw = bench_cluster()
    small_cfg, deep_cfg = bench_model(), bench_model(num_layers=8)
    small = chunk_costs_from_model(small_cfg, plan, assign_chunks(small_cfg, plan), hw)[(0, 0)]
    deep = chunk_costs_from_model(deep_cfg, plan, assign_chunks(deep_cfg, plan), hw)[(0, 0)]
    assert deep.fwd > small.fwd


def test_boundary_transfers_follow_cross_stage_dataflow():
    cfg = bench_model()
    plan = ParallelPlan(tp=1, pp=2, vpp=1, ep=2, dp=4, cp=1, micro_batch_size=1, global_batch_size=16)
    schedule = build_1f1b_schedule(2, 2, 1)
    events = hop_records(boundary_transfer_events(schedule, cfg, plan, bench_cluster()))
    # stage 1 receives each forward, stage 0 each backward
    assert {e.id for e in events} == {
        "p2p:fwd:p1:v0:m0",
        "p2p:fwd:p1:v0:m1",
        "p2p:bwd:p0:v0:m0",
        "p2p:bwd:p0:v0:m1",
    }
    by_id = {e.id: e for e in events}
    fwd = by_id["p2p:fwd:p1:v0:m0"]
    assert fwd.dependencies == (ScheduleSlot(0, 0, 0, "fwd"),)
    assert fwd.feeds == ScheduleSlot(1, 0, 0, "fwd")
    assert fwd.device == 1
    # main hidden state plus the extra prediction stream, bf16
    assert fwd.bytes == pytest.approx(128 * 64 * 2 * 2)
    bwd = by_id["p2p:bwd:p0:v0:m1"]
    assert bwd.dependencies == (ScheduleSlot(1, 0, 1, "bwd"),)
    assert bwd.device == 0


def test_boundary_transfers_single_stream_without_extra_head():
    cfg = bench_model(num_mtp_layers=0)
    plan = ParallelPlan(tp=1, pp=2, vpp=1, ep=2, dp=4, cp=1, micro_batch_size=1, global_batch_size=16)
    schedule = build_1f1b_schedule(2, 1, 1)
    events = hop_records(boundary_transfer_events(schedule, cfg, plan, bench_cluster()))
    assert all(e.bytes == pytest.approx(128 * 64 * 2) for e in events)


def test_dispatch_events_two_tiers_with_dependency():
    cfg = bench_model()
    plan = ParallelPlan(tp=1, pp=1, vpp=1, ep=2, dp=8, cp=1, micro_batch_size=1, global_batch_size=16)
    schedule = build_1f1b_schedule(1, 1, 1)
    layout = assign_chunks(cfg, plan)
    events = hop_records(slot_dispatch_events(schedule, cfg, plan, layout, bench_cluster(), "hierarchical"))
    assert [e.id for e in events] == [
        "disp:fwd:p0:v0:m0:inter",
        "disp:fwd:p0:v0:m0:intra",
        "disp:bwd:p0:v0:m0:inter",
        "disp:bwd:p0:v0:m0:intra",
    ]
    by_id = {e.id: e for e in events}
    inter = by_id["disp:fwd:p0:v0:m0:inter"]
    intra = by_id["disp:fwd:p0:v0:m0:intra"]
    assert intra.dependencies == (inter.id,)
    assert inter.dependencies == ()
    assert inter.feeds == intra.feeds == ScheduleSlot(0, 0, 0, "fwd")
    # 4 routed layers (3 moe + 1 mtp), dispatch plus combine, ep peers:
    # inter carries tokens*(ep-1), intra tokens*top_k, in hidden*bf16 units
    scale = 2 * 4 * 128 * 64 * 2
    assert inter.bytes == pytest.approx(scale * (2 - 1))
    assert intra.bytes == pytest.approx(scale * 2)


def test_dispatch_events_absent_without_expert_parallelism():
    cfg = bench_model()
    plan = ParallelPlan(tp=1, pp=1, vpp=1, ep=1, dp=8, cp=1, micro_batch_size=1, global_batch_size=16)
    schedule = build_1f1b_schedule(1, 1, 1)
    assert hop_records(slot_dispatch_events(schedule, cfg, plan, assign_chunks(cfg, plan), bench_cluster())) == []


def test_dispatch_events_single_node_are_intra_only():
    cfg = bench_model()
    plan = ParallelPlan(tp=1, pp=1, vpp=1, ep=2, dp=4, cp=1, micro_batch_size=1, global_batch_size=16)
    schedule = build_1f1b_schedule(1, 1, 1)
    layout = assign_chunks(cfg, plan)
    events = hop_records(slot_dispatch_events(schedule, cfg, plan, layout, bench_cluster(num_nodes=1), "hierarchical"))
    assert [e.id for e in events] == ["disp:fwd:p0:v0:m0:intra", "disp:bwd:p0:v0:m0:intra"]
    assert all(e.resource == "intra_link" for e in events)
    # with no inter phase to wait on, each event waits on the slot's parent
    assert [e.dependencies for e in events] == [(), (ScheduleSlot(0, 0, 0, "fwd"),)]


@pytest.mark.parametrize(
    "mechanism, group_size, kind",
    [("allgather", 4, "allgather"), ("alltoall", 2, "alltoall"), ("hierarchical", 2, "allgather")],
)
def test_dispatch_inter_event_group_and_kind(mechanism, group_size, kind):
    # tp=2, ep=2: only allgather spans the whole tp*ep group across nodes
    plan = ParallelPlan(tp=2, pp=1, vpp=1, ep=2, dp=4, cp=1, micro_batch_size=1, global_batch_size=16)
    schedule = build_1f1b_schedule(1, 1, 1)
    cfg = bench_model()
    events = hop_records(slot_dispatch_events(schedule, cfg, plan, assign_chunks(cfg, plan), bench_cluster(), mechanism))
    inter = {e.id: e for e in events}["disp:fwd:p0:v0:m0:inter"]
    assert (inter.resource, inter.group_size, inter.kind) == ("inter_link", group_size, kind)


@settings(database=None, derandomize=True, max_examples=120, deadline=None)
@given(
    mechanism=st.sampled_from(MECHANISMS),
    nodes=st.sampled_from((1, 2, 4)),
    pp=st.integers(1, 2),
    vpp=st.integers(1, 2),
    rounds=st.integers(1, 3),
    tp=st.sampled_from((1, 2)),
    ep=st.sampled_from((2, 4)),
    layers=st.integers(4, 8),
    dense=st.integers(0, 2),
    mtp=st.integers(0, 1),
)
def test_dispatch_bytes_are_conserved_across_tiers(mechanism, nodes, pp, vpp, rounds, tp, ep, layers, dense, mtp):
    """Each tier carries, over the whole step, 2 (dispatch and combine) *
    routed layers * that tier's `dispatch_volumes` bytes per slot; the
    inter-node tier only when the cluster has several nodes."""
    cfg = bench_model(num_layers=layers, num_dense_layers=dense, num_mtp_layers=mtp, num_routed_experts=8)
    plan = ParallelPlan(tp=tp, pp=pp, vpp=vpp, ep=ep, dp=ep, micro_batch_size=1)
    schedule = build_1f1b_schedule(pp, rounds * pp, vpp)
    layout = assign_chunks(cfg, plan)
    events = hop_records(slot_dispatch_events(schedule, cfg, plan, layout, bench_cluster(num_nodes=nodes), mechanism))
    vols = dispatch_volumes(
        mechanism, int(tokens_per_device(cfg, plan)), cfg.hidden_size, cfg.dtype_bytes, cfg.top_k, tp, ep
    )
    routed = {
        (c.pp_stage, c.vpp_stage): sum(kind in ("moe", "mtp") for kind, _ in c.items)
        for c in layout.chunks
    }
    dispatches = sum(2 * routed[(sl.pp_stage, sl.vpp_stage)] for slots in schedule for sl in slots)
    inter = dispatches * vols.inter_node_bytes if nodes > 1 else 0
    intra = dispatches * vols.intra_node_bytes
    by_tier = {res: sum(e.bytes for e in events if e.resource == res) for res in ("inter_link", "intra_link")}
    assert by_tier == {"inter_link": inter, "intra_link": intra}
    assert sum(e.bytes for e in events) == inter + intra


@settings(database=None, derandomize=True, max_examples=80, deadline=None)
@given(
    mechanism=st.sampled_from(MECHANISMS),
    nodes=st.sampled_from((1, 2, 4)),
    pp=st.integers(1, 4),
    vpp=st.integers(1, 2),
    rounds=st.integers(1, 3),
    ep=st.sampled_from((1, 2, 4)),
)
def test_built_events_feed_their_own_slot_and_wait_on_its_parent(mechanism, nodes, pp, vpp, rounds, ep):
    """Every event the two builders make feeds a slot of the schedule on
    the event's own device. Within each builder, the first transfer into a
    slot waits on exactly that slot's dataflow parent (on nothing at a
    graph source) and each later one on exactly the previous transfer's
    id; ids are unique."""
    cfg = bench_model(num_layers=8, num_routed_experts=8)
    plan = ParallelPlan(tp=1, pp=pp, vpp=vpp, ep=ep, dp=ep, micro_batch_size=1)
    schedule = build_1f1b_schedule(pp, rounds * pp, vpp)
    hw = bench_cluster(num_nodes=nodes)
    boundary = hop_records(boundary_transfer_events(schedule, cfg, plan, hw))
    dispatch = hop_records(slot_dispatch_events(schedule, cfg, plan, assign_chunks(cfg, plan), hw, mechanism))
    stage_of = {sl: s for s, slots in enumerate(schedule) for sl in slots}
    for events in (boundary, dispatch):
        previous = {}  # slot -> id of the last transfer feeding it
        for ev in events:
            assert isinstance(ev.feeds, ScheduleSlot) and stage_of[ev.feeds] == ev.device
            parent = dataflow_parent(ev.feeds, pp, vpp)
            first = (parent,) if parent is not None else ()
            assert ev.dependencies == ((previous[ev.feeds],) if ev.feeds in previous else first)
            previous[ev.feeds] = ev.id
    assert len({ev.id for ev in boundary + dispatch}) == len(boundary + dispatch)


# The two builders as they were before they shared one schedule walk, kept
# verbatim as the oracle for the shared walk, except that each spells its
# transfers as `Hop` records.
def oracle_boundary_transfer_events(schedule, cfg, plan, hw):
    tokens_dev = tokens_per_device(cfg, plan)
    streams = 2 if cfg.num_mtp_layers > 0 else 1
    volume = tokens_dev * cfg.hidden_size * cfg.dtype_bytes * streams
    resource = _stage_crossing_resource(plan, hw)
    events = []
    for slots in schedule:
        for sl in slots:
            parent = dataflow_parent(sl, len(schedule), plan.vpp)
            if parent is None or parent.pp_stage == sl.pp_stage:
                continue
            events.append(
                Hop(
                    id=f"p2p:{slot_id(sl)}", kind="p2p", resource=resource, bytes=volume,
                    dependencies=(parent,), device=sl.pp_stage, feeds=sl,
                )
            )
    return events


def oracle_slot_dispatch_events(schedule, cfg, plan, assignment, hw, mechanism="hierarchical"):
    if plan.ep == 1:
        return []
    tokens_dev = tokens_per_device(cfg, plan)
    vols = dispatch_volumes(
        mechanism, tokens_dev, cfg.hidden_size, cfg.dtype_bytes, cfg.top_k, plan.tp, plan.ep
    )
    routed = {}
    for chunk in assignment.chunks:
        n = sum(1 for kind, _ in chunk.items if kind in ("moe", "mtp"))
        routed[(chunk.pp_stage, chunk.vpp_stage)] = n
    inter_group = plan.ep * plan.tp if mechanism == "allgather" else plan.ep
    inter_kind = "alltoall" if mechanism == "alltoall" else "allgather"
    intra_group = min(plan.ep * plan.tp, hw.devices_per_node)
    tiers = []
    if hw.num_nodes > 1 and vols.inter_node_bytes > 0:
        tiers.append(("inter", inter_kind, "inter_link", vols.inter_node_bytes, inter_group))
    if vols.intra_node_bytes > 0:
        tiers.append(("intra", "alltoall", "intra_link", vols.intra_node_bytes, intra_group))
    events = []
    for slots in schedule:
        for sl in slots:
            layers = routed[(sl.pp_stage, sl.vpp_stage)]
            if layers == 0:
                continue
            sid = slot_id(sl)
            parent = dataflow_parent(sl, len(schedule), plan.vpp)
            prior = (parent,) if parent is not None else ()
            scale = 2.0 * layers
            for tier, kind, resource, volume, group in tiers:
                events.append(
                    Hop(
                        id=f"disp:{sid}:{tier}", kind=kind, resource=resource, bytes=volume * scale,
                        dependencies=prior, device=sl.pp_stage, group_size=group, feeds=sl,
                    )
                )
                prior = (events[-1].id,)
    return events


@settings(database=None, derandomize=True, max_examples=120, deadline=None)
@given(
    mechanism=st.sampled_from(MECHANISMS),
    nodes=st.sampled_from((1, 2, 4)),
    pp=st.integers(1, 4),
    vpp=st.integers(1, 2),
    rounds=st.integers(1, 3),
    tp=st.sampled_from((1, 2)),
    ep=st.sampled_from((1, 2, 4)),
    layers=st.integers(7, 10),
    dense=st.integers(0, 4),
    mtp=st.integers(0, 1),
)
def test_builders_match_the_oracle(mechanism, nodes, pp, vpp, rounds, tp, ep, layers, dense, mtp):
    """Both builders return the oracle's events: the same list, order, ids,
    dependencies and bytes."""
    cfg = bench_model(num_layers=layers, num_dense_layers=dense, num_mtp_layers=mtp, num_routed_experts=8)
    plan = ParallelPlan(tp=tp, pp=pp, vpp=vpp, ep=ep, dp=ep, micro_batch_size=1)
    schedule = build_1f1b_schedule(pp, rounds * pp, vpp)
    layout = assign_chunks(cfg, plan)
    hw = bench_cluster(num_nodes=nodes)
    built = hop_records(boundary_transfer_events(schedule, cfg, plan, hw))
    assert built == oracle_boundary_transfer_events(schedule, cfg, plan, hw)
    built = hop_records(slot_dispatch_events(schedule, cfg, plan, layout, hw, mechanism))
    assert built == oracle_slot_dispatch_events(schedule, cfg, plan, layout, hw, mechanism)


def test_training_report_basics():
    rep = training_report(bench_model(), bench_plan(), bench_cluster())
    assert rep.mode == "training"
    assert rep.model == model_id(bench_model())
    assert rep.step_time > 0
    assert 0 < rep.mfu < 1
    assert 0 <= rep.bubble_ratio < 1
    assert 0 <= rep.comm_overlap_rate <= 1
    assert rep.memory is not None and rep.memory.feasible
    # throughput ties out with the step time
    assert rep.tps == pytest.approx(16 * 128 / rep.step_time)


def test_training_report_rejects_invalid_plan():
    bad = ParallelPlan(tp=3, pp=2, vpp=1, ep=2, micro_batch_size=1, global_batch_size=16)
    with pytest.raises(PlanError):
        training_report(bench_model(), bad, bench_cluster())


def test_feature_toggles_never_lower_mfu():
    cfg = bench_model()
    plan = bench_plan()
    hw = bench_cluster(host_dispatch_time=2e-5)
    base = training_report(cfg, plan, hw).mfu
    for features in (
        SimulationFeatures(policy=OverlapPolicy(overlap_comm=False)),
        SimulationFeatures(fine_grained_memory=False),
        SimulationFeatures(policy=OverlapPolicy(host_gmm_first=False)),
    ):
        off = training_report(cfg, plan, hw, features).mfu
        assert base >= off - 1e-12


def test_inference_report_memory_bound_hand_case():
    cfg = bench_model()
    hw = bench_cluster()
    batch = 64
    rep = inference_report(cfg, hw, batch=batch)
    params = count_parameters(cfg)
    mla = cfg.mla
    attn_tok = (2 * 4 * (12 + 4) * 128 + 2 * 4 * 12 * 128) * cfg.num_layers
    flops_tok = 2 * params.activated_matmul + attn_tok
    weight_bytes = params.total * 2
    cache_bytes = batch * cfg.num_layers * 128 * (12 + 4) * 2
    compute_bound = batch * flops_tok / (8 * 5e12)
    memory_bound = (weight_bytes + cache_bytes) / (8 * 400e9)
    assert rep.step_time == pytest.approx(max(compute_bound, memory_bound))
    assert rep.tps == pytest.approx(batch / rep.step_time)
    assert rep.mfu == pytest.approx(batch * flops_tok / (rep.step_time * 8 * 5e12))


def test_inference_prefers_shallower_models():
    hw = bench_cluster()
    fast = inference_report(bench_model(num_layers=3), hw, batch=512)
    slow = inference_report(bench_model(num_layers=6), hw, batch=512)
    assert fast.tps > slow.tps


def small_space():
    return DesignSpace(
        base=bench_model(),
        ranges={"num_layers": [3, 4], "num_routed_experts": [4, 5]},
    )


def test_search_ranks_and_collects_skips():
    out = search_space(small_space(), bench_plan(), bench_cluster())
    assert len(out.ranked) == 2
    assert len(out.skipped) == 2
    # five experts cannot shard over two expert-parallel ranks
    assert all("PlanError" in reason for _, reason in out.skipped)
    scores = [r.score for r in out.ranked]
    assert scores == sorted(scores, reverse=True)
    assert all(0 < s <= 1 + 1e-12 for s in scores)
    assert out.ranked[0].training is not None
    assert out.ranked[0].inference is not None
    assert out.top(1) == out.ranked[:1]


def test_search_skips_a_candidate_the_cluster_cannot_price():
    """Once a ValueError that ended the whole search: the bf16-only cluster
    has no fp8 rate, so the 1-byte candidate is skipped with the lookup's
    message and the 2-byte one is still ranked."""
    space = DesignSpace(base=bench_model(), ranges={"dtype_bytes": [1, 2]})
    out = search_space(space, bench_plan(), bench_cluster())
    assert [r.model for r in out.ranked] == [model_id(bench_model(dtype_bytes=2))]
    assert out.skipped == ((model_id(bench_model(dtype_bytes=1)),
                            "UnpricedDtypeError: peak_flops lists no 'fp8' rate for the model's 1-byte dtype"),)


@pytest.mark.parametrize("mode", ["both", "training", "inference"])
def test_search_raises_when_the_cluster_prices_no_candidate(mode):
    fp8_only = bench_cluster(peak_flops={"fp8": 5e12})
    message = "peak_flops lists no 'bf16' or 'fp16' rate for the model's 2-byte dtype"
    with pytest.raises(UnpricedDtypeError, match=message):
        search_space(small_space(), bench_plan(), fp8_only, mode=mode)
    # one priced candidate, even one the plan then rejects, makes it a search
    space = DesignSpace(base=bench_model(dtype_bytes=1), ranges={"dtype_bytes": [1, 2]})
    bad_plan = ParallelPlan(tp=1, pp=2, vpp=1, ep=8, cp=1, micro_batch_size=1, global_batch_size=16)
    out = search_space(space, bad_plan, fp8_only, mode=mode)
    assert model_id(bench_model()) in dict(out.skipped)


def test_search_is_deterministic():
    a = search_space(small_space(), bench_plan(), bench_cluster())
    b = search_space(small_space(), bench_plan(), bench_cluster())
    assert a == b


def test_search_parallel_workers_match_serial():
    serial = search_space(small_space(), bench_plan(), bench_cluster(), workers=1)
    parallel = search_space(small_space(), bench_plan(), bench_cluster(), workers=2)
    assert serial == parallel


def test_search_single_axis_modes():
    train = search_space(small_space(), bench_plan(), bench_cluster(), mode="training")
    assert all(r.inference is None for r in train.ranked)
    assert train.ranked[0].score == pytest.approx(1.0)
    infer = search_space(small_space(), bench_plan(), bench_cluster(), mode="inference")
    assert all(r.training is None for r in infer.ranked)
    with pytest.raises(ValueError):
        search_space(small_space(), bench_plan(), bench_cluster(), mode="serving")


def test_search_ordering_survives_peak_rescale():
    base = search_space(small_space(), bench_plan(), bench_cluster())
    doubled = bench_cluster(peak_flops={"bf16": 1e13})
    scaled = search_space(small_space(), bench_plan(), doubled)
    assert [r.model for r in base.ranked] == [r.model for r in scaled.ranked]


def test_search_top_cut_and_empty_result():
    out = search_space(small_space(), bench_plan(), bench_cluster(), top=1)
    assert len(out.ranked) == 1
    # a plan no candidate satisfies yields an empty ranking, not an error
    bad_plan = ParallelPlan(tp=1, pp=2, vpp=1, ep=8, cp=1, micro_batch_size=1, global_batch_size=16)
    none = search_space(small_space(), bad_plan, bench_cluster())
    assert none.ranked == ()
    assert len(none.skipped) == 4


def test_unknown_dispatch_mechanism_is_rejected():
    with pytest.raises(ValueError, match=r"one of \('hierarchical', 'alltoall', 'allgather'\), got 'bogus'"):
        SimulationFeatures(dispatch_mechanism="bogus")


def test_features_policy_mapping():
    """--no-overlap turns every executor switch off; without it all stay on."""
    serialized = OverlapPolicy(overlap_comm=False, decouple_dw=False, host_gmm_first=False)
    assert _features(Namespace(dispatch="hierarchical", no_overlap=True)).policy == SERIALIZED == serialized
    assert _features(Namespace(dispatch="alltoall", no_overlap=False)) == SimulationFeatures(dispatch_mechanism="alltoall")
    assert SimulationFeatures().policy == OverlapPolicy()


CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# repr of the full report for the reference model, cluster and plan at
# m = 16 (global_batch_size 1536), recorded before the layer layout was
# passed through the pricing functions
PINNED_REPORTS = {
    "hierarchical_host_dispatch": (
        "CostReport(model='L61d3-h7680-a128-E256x2048-K8s1-mtp1', mode='training',"
        " step_time=9.074848433901561, tps=1386569.9346551194, mfu=0.29941638708483265,"
        " bubble_ratio=0.4556065689366674, comm_overlap_rate=0.7054319423369502,"
        " exposed_comm_time=5.34974549223897,"
        " memory=MemoryReport(static_bytes=7031414880.0, activation_bytes=50767855616.0,"
        " capacity_bytes=64000000000.0, feasible=True,"
        " plan=MemoryPlan(recompute=frozenset(), swap=frozenset(), full_layer=False),"
        " time_added=0.0))"
    ),
    "alltoall_no_decouple_no_gmm_first": (
        "CostReport(model='L61d3-h7680-a128-E256x2048-K8s1-mtp1', mode='training',"
        " step_time=10.597547013813182, tps=1187341.9371104492, mfu=0.25639502498829453,"
        " bubble_ratio=0.5338272272940096, comm_overlap_rate=0.6521100182897576,"
        " exposed_comm_time=10.790158166400442,"
        " memory=MemoryReport(static_bytes=7031414880.0, activation_bytes=50767855616.0,"
        " capacity_bytes=64000000000.0, feasible=True,"
        " plan=MemoryPlan(recompute=frozenset(), swap=frozenset(), full_layer=False),"
        " time_added=0.0))"
    ),
    "hierarchical_serialized": (
        "CostReport(model='L61d3-h7680-a128-E256x2048-K8s1-mtp1', mode='training',"
        " step_time=10.400159289013185, tps=1209876.8538374882, mfu=0.2612612226325885,"
        " bubble_ratio=0.524979595213475, comm_overlap_rate=0.0,"
        " exposed_comm_time=18.161322495999993,"
        " memory=MemoryReport(static_bytes=7031414880.0, activation_bytes=50767855616.0,"
        " capacity_bytes=64000000000.0, feasible=True,"
        " plan=MemoryPlan(recompute=frozenset(), swap=frozenset(), full_layer=False),"
        " time_added=0.0))"
    ),
    "allgather_full_layer": (
        "CostReport(model='L61d3-h7680-a128-E256x2048-K8s1-mtp1', mode='training',"
        " step_time=19.611364234278245, tps=641613.293684415, mfu=0.13855019461991328,"
        " bubble_ratio=0.7252240653742491, comm_overlap_rate=0.2988236388348727,"
        " exposed_comm_time=105.15646815789631,"
        " memory=MemoryReport(static_bytes=7031414880.0, activation_bytes=4026531840.0,"
        " capacity_bytes=64000000000.0, feasible=True,"
        " plan=MemoryPlan(recompute=frozenset(), swap=frozenset(), full_layer=True),"
        " time_added=1.6320317936839481))"
    ),
}


@pytest.mark.parametrize("variant", sorted(PINNED_REPORTS))
def test_reference_training_report_is_pinned(variant):
    cfg = load_model(CONFIGS / "model_reference.json")
    hw = load_cluster(CONFIGS / "cluster_6144.json")
    plan = replace(load_plan(CONFIGS / "plan_reference.json"), global_batch_size=1536)
    if variant == "hierarchical_host_dispatch":
        hw = replace(hw, host_dispatch_time=3e-6)
        features = SimulationFeatures()
    elif variant == "hierarchical_serialized":
        # The --no-overlap policy: only here does each comm task wait on the
        # task before it in its device's program, so no comm is overlapped.
        features = SimulationFeatures(policy=SERIALIZED)
    elif variant == "alltoall_no_decouple_no_gmm_first":
        features = SimulationFeatures(
            dispatch_mechanism="alltoall", policy=OverlapPolicy(decouple_dw=False, host_gmm_first=False)
        )
    else:
        features = SimulationFeatures(dispatch_mechanism="allgather", fine_grained_memory=False)
    assert repr(training_report(cfg, plan, hw, features)) == PINNED_REPORTS[variant]


@pytest.mark.parametrize("field", ["intra_node_latency", "inter_node_latency", "host_dispatch_time"])
def test_a_step_that_is_not_finite_is_refused(field):
    """At 1e308 s the step was inf, which once gave MFU 0.0 and tokens/s
    0.0 as if it were a result. A link latency that large is now refused
    with the cluster, above its 1 s ceiling; a host time that large still
    makes the step inf, and the report refuses it."""
    cfg = load_model(CONFIGS / "model_reference.json")
    hw = load_cluster(CONFIGS / "cluster_6144.json")
    if field != "host_dispatch_time":
        with pytest.raises(ValueError, match=rf"^{field} must be a finite number in \[0, 1\], got 1e\+308$"):
            replace(hw, **{field: 1e308})
        return
    hw = replace(hw, **{field: 1e308})
    plan = replace(load_plan(CONFIGS / "plan_reference.json"), global_batch_size=1536)
    message = ("step_time is inf: the cluster's intra_node_latency, inter_node_latency or host_dispatch_time"
               " is too large to time a step")
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        training_report(cfg, plan, hw)


@pytest.mark.parametrize("collecting", [True, False])
def test_training_report_gives_back_the_collector_as_it_found_it(monkeypatch, collecting):
    """Cyclic collection is held off from the step build on, and the
    caller's setting returns both when the step returns and when it
    raises."""
    was = gc.isenabled()
    (gc.enable if collecting else gc.disable)()
    try:
        training_report(bench_model(), bench_plan(), bench_cluster())
        assert gc.isenabled() is collecting

        def failing(*args, **kwargs):
            assert not gc.isenabled()
            raise RuntimeError("simulation failed")

        monkeypatch.setattr(moesim.search, "simulate_timeline", failing)
        with pytest.raises(RuntimeError, match="simulation failed"):
            training_report(bench_model(), bench_plan(), bench_cluster())
        assert gc.isenabled() is collecting
    finally:
        (gc.enable if was else gc.disable)()


@pytest.mark.parametrize("mechanism", MECHANISMS)
def test_the_reference_step_leaves_no_cyclic_garbage(mechanism):
    """Holding the collector off is sound only while the step makes no
    reference cycle: everything it drops must be freed by reference
    counting, so a collection right after it finds nothing."""
    cfg = load_model(CONFIGS / "model_reference.json")
    hw = replace(load_cluster(CONFIGS / "cluster_6144.json"), host_dispatch_time=3e-6)
    plan = replace(load_plan(CONFIGS / "plan_reference.json"), global_batch_size=1536)
    features = SimulationFeatures(dispatch_mechanism=mechanism)
    training_report(cfg, plan, hw, features)  # loads anything a first call loads
    was = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        training_report(cfg, plan, hw, features)
        assert gc.collect() == 0
    finally:
        if was:
            gc.enable()


def reference_step():
    """The reference model, cluster and plan at m = 16: 1,024 slots."""
    cfg = load_model(CONFIGS / "model_reference.json")
    hw = load_cluster(CONFIGS / "cluster_6144.json")
    plan = replace(load_plan(CONFIGS / "plan_reference.json"), global_batch_size=1536)
    return cfg, require_valid(plan, cfg, hw), hw


def test_the_reference_step_finds_each_dataflow_parent_at_most_twice(monkeypatch):
    """A parent has its slot's micro batch and the rest follows from the
    slot's template key, so the timeline's parent table and the boundary
    walk's crossing test each ask once per key, whatever the micro batch
    count; the dispatch builder needs none."""
    calls = [0]

    def counted(*args):
        calls[0] += 1
        return dataflow_parent(*args)

    monkeypatch.setattr(moesim.pipeline, "dataflow_parent", counted)
    cfg, plan, hw = reference_step()
    training_report(cfg, plan, hw)
    keys = 2 * plan.pp * plan.vpp  # (phase, stage, chunk)
    assert keys * micro_batch_count(plan) == 1024
    assert calls[0] == 2 * keys


def test_each_builder_counts_its_hops(monkeypatch):
    """len() of what each builder returns, which the benchmark's event
    counter reads, is its hop count: one p2p into every slot whose parent
    is on another stage, and one dispatch hop per network tier into every
    slot whose chunk routes tokens."""
    built = []
    for name in ("boundary_transfer_events", "slot_dispatch_events"):
        def keep(*args, _build=getattr(moesim.search, name)):
            built.append(_build(*args))
            return built[-1]

        monkeypatch.setattr(moesim.search, name, keep)
    cfg, plan, hw = reference_step()
    training_report(cfg, plan, hw)
    boundary, dispatch = built
    m = micro_batch_count(plan)
    assert len(boundary) == 2 * m * (plan.pp * plan.vpp - 1) == 992
    routed = sum(any(kind in ("moe", "mtp") for kind, _ in c.items) for c in assign_chunks(cfg, plan).chunks)
    assert len(dispatch) == 2 * (2 * m * routed) == 1920


@pytest.mark.parametrize("fine_grained, calls", [(True, 2), (False, 1)])
def test_training_report_derives_the_layout_once(monkeypatch, fine_grained, calls):
    """The step derives the layer layout once and the memory plan search
    once more; every pricing function reuses it."""
    count = [0]

    def counted(cfg, plan):
        count[0] += 1
        return assign_chunks(cfg, plan)

    monkeypatch.setattr(moesim.search, "assign_chunks", counted)
    monkeypatch.setattr(moesim.memory, "assign_chunks", counted)
    features = SimulationFeatures(fine_grained_memory=fine_grained)
    training_report(bench_model(), bench_plan(), bench_cluster(), features)
    assert count[0] == calls


@pytest.mark.parametrize(
    "fine_grained, tried", [(True, "even with every option enabled"), (False, "with full-layer recompute")]
)
def test_plans_that_do_not_fit_are_refused_in_both_memory_modes(fine_grained, tried):
    """At 12 GB the reference step needs 12.95 GB even with everything
    released, so both memory modes refuse it, naming the bytes, and a
    search skips it instead of ranking it."""
    cfg = load_model(CONFIGS / "model_reference.json")
    hw = replace(load_cluster(CONFIGS / "cluster_6144.json"), hbm_capacity=12e9)
    plan = load_plan(CONFIGS / "plan_reference.json")
    features = SimulationFeatures(fine_grained_memory=fine_grained)
    message = f"static 7.031e+09 + activations 5.914e+09 exceed capacity 1.200e+10 {tried}"
    with pytest.raises(InfeasibleMemoryError) as info:
        training_report(cfg, plan, hw, features)
    assert str(info.value) == message
    outcome = search_space([cfg], plan, hw, features, mode="training")
    assert outcome.ranked == ()
    assert outcome.skipped == ((model_id(cfg), f"InfeasibleMemoryError: {message}"),)
