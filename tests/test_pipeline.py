"""Schedule construction and timeline simulation."""

import dataclasses
import hashlib
import math
import os
import random
import re
import subprocess
import sys
from functools import reduce
from operator import add
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import moesim

from moesim.cluster import CommGroup, HardwareDescription, collective_time
from moesim.comm import CommEvent
from moesim.engine import run_tasks
from moesim.model import MlaDims, ModelConfig, flops_per_token
from moesim.parallel import ParallelPlan
from moesim.pipeline import (
    SERIALIZED,
    ChunkCost,
    HopShape,
    OverlapPolicy,
    ScheduleSlot,
    SlotTransfers,
    analytic_bubble_ratio,
    build_1f1b_schedule,
    dataflow_parent,
    simulate_timeline,
    slot_id,
    summarize,
    uniform_chunk_costs,
)


def test_analytic_bubble_reference_points():
    assert analytic_bubble_ratio(16, 64, 1) == pytest.approx(15 / 79, abs=1e-15)
    assert analytic_bubble_ratio(16, 64, 2) == pytest.approx(15 / 143, abs=1e-15)
    assert analytic_bubble_ratio(1, 8, 1) == 0.0


def test_analytic_bubble_rejects_bad_args():
    with pytest.raises(ValueError):
        analytic_bubble_ratio(0, 4)
    with pytest.raises(ValueError):
        analytic_bubble_ratio(4, 0)


def test_schedule_two_stage_hand_enumeration():
    sched = build_1f1b_schedule(2, 2, 1)
    assert sched[0] == [
        ScheduleSlot(0, 0, 0, "fwd"),
        ScheduleSlot(0, 0, 1, "fwd"),
        ScheduleSlot(0, 0, 0, "bwd"),
        ScheduleSlot(0, 0, 1, "bwd"),
    ]
    assert sched[1] == [
        ScheduleSlot(1, 0, 0, "fwd"),
        ScheduleSlot(1, 0, 0, "bwd"),
        ScheduleSlot(1, 0, 1, "fwd"),
        ScheduleSlot(1, 0, 1, "bwd"),
    ]


def test_schedule_interleaved_hand_enumeration():
    sched = build_1f1b_schedule(2, 2, 2)
    assert sched[0] == [
        ScheduleSlot(0, 0, 0, "fwd"),
        ScheduleSlot(0, 0, 1, "fwd"),
        ScheduleSlot(0, 1, 0, "fwd"),
        ScheduleSlot(0, 1, 1, "fwd"),
        ScheduleSlot(0, 1, 0, "bwd"),
        ScheduleSlot(0, 1, 1, "bwd"),
        ScheduleSlot(0, 0, 0, "bwd"),
        ScheduleSlot(0, 0, 1, "bwd"),
    ]
    assert sched[1] == [
        ScheduleSlot(1, 0, 0, "fwd"),
        ScheduleSlot(1, 0, 1, "fwd"),
        ScheduleSlot(1, 1, 0, "fwd"),
        ScheduleSlot(1, 1, 0, "bwd"),
        ScheduleSlot(1, 1, 1, "fwd"),
        ScheduleSlot(1, 1, 1, "bwd"),
        ScheduleSlot(1, 0, 0, "bwd"),
        ScheduleSlot(1, 0, 1, "bwd"),
    ]


def test_schedule_slot_conservation():
    for p, m, v in [(1, 3, 1), (2, 4, 2), (4, 8, 2), (8, 8, 1), (4, 12, 3)]:
        sched = build_1f1b_schedule(p, m, v)
        for s, slots in enumerate(sched):
            assert len(slots) == 2 * m * v
            seen = {(sl.vpp_stage, sl.micro_batch, sl.phase) for sl in slots}
            assert len(seen) == 2 * m * v
            assert all(sl.pp_stage == s for sl in slots)


def test_schedule_rejects_ragged_interleaving():
    with pytest.raises(ValueError):
        build_1f1b_schedule(4, 6, 2)


def test_dataflow_parent_edges():
    p, v = 4, 2
    assert dataflow_parent(ScheduleSlot(0, 0, 5, "fwd"), p, v) is None
    assert dataflow_parent(ScheduleSlot(2, 0, 5, "fwd"), p, v) == ScheduleSlot(1, 0, 5, "fwd")
    # first stage of a later chunk consumes the last stage of the prior one
    assert dataflow_parent(ScheduleSlot(0, 1, 5, "fwd"), p, v) == ScheduleSlot(3, 0, 5, "fwd")
    # backward starts where the forward ended
    assert dataflow_parent(ScheduleSlot(3, 1, 5, "bwd"), p, v) == ScheduleSlot(3, 1, 5, "fwd")
    assert dataflow_parent(ScheduleSlot(1, 1, 5, "bwd"), p, v) == ScheduleSlot(2, 1, 5, "bwd")
    assert dataflow_parent(ScheduleSlot(3, 0, 5, "bwd"), p, v) == ScheduleSlot(0, 1, 5, "bwd")


def test_two_stage_timeline_hand_timed():
    """p=2, m=2, fwd=1, bwd=2: the drain finishes at t=9 and stage one
    never idles between its first forward and last backward."""
    sched = build_1f1b_schedule(2, 2, 1)
    costs = uniform_chunk_costs(2, 1, 1.0, 2.0)
    rep = simulate_timeline(sched, costs, policy=OverlapPolicy(decouple_dw=False))
    assert rep.step_time == pytest.approx(9.0, abs=1e-12)
    assert rep.per_stage_busy == (6.0, 6.0)
    assert rep.bubble_ratio == pytest.approx(1 - 12 / 18, abs=1e-12)
    tl = rep.timeline
    assert tl.start["fwd:p1:v0:m0"] == pytest.approx(1.0)
    assert tl.start["bwd:p0:v0:m0"] == pytest.approx(4.0)
    assert tl.end["bwd:p0:v0:m1"] == pytest.approx(9.0)


def test_simulated_bubble_matches_analytic_sweep():
    pol = OverlapPolicy(decouple_dw=False)
    for p in (1, 2, 4, 8):
        for m in (1, 2, 4, 8, 16):
            for v in (1, 2):
                if v > 1 and m % p:
                    continue
                sched = build_1f1b_schedule(p, m, v)
                rep = simulate_timeline(sched, uniform_chunk_costs(p, v, 1.0, 2.0), policy=pol)
                want = analytic_bubble_ratio(p, m, v)
                assert rep.bubble_ratio == pytest.approx(want, rel=1e-9, abs=1e-12)


def test_reference_scale_bubbles_match_analytic():
    pol = OverlapPolicy(decouple_dw=False)
    for v, want in [(1, 15 / 79), (2, 15 / 143)]:
        sched = build_1f1b_schedule(16, 64, v)
        rep = simulate_timeline(sched, uniform_chunk_costs(16, v, 1.0, 2.0), policy=pol)
        assert rep.bubble_ratio == pytest.approx(want, rel=1e-9)


def flat_cluster():
    return HardwareDescription(
        name="flat",
        peak_flops={"bf16": 1e12},
        hbm_capacity=16e9,
        hbm_bandwidth=1e12,
        intra_node_bandwidth=1e9,
        intra_node_latency=1e-3,
        inter_node_bandwidth=1e9,
        inter_node_latency=1e-3,
        devices_per_node=8,
        num_nodes=2,
    )


def hidden_comm_case(policy):
    """Single stage, two micro batches; a 2 ms transfer that must land
    before the second forward while the first backward (3 ms) runs."""
    sched = build_1f1b_schedule(1, 2, 1)
    costs = uniform_chunk_costs(1, 1, 3e-3, 3e-3)
    ev = CommEvent(
        id="xfer",
        kind="p2p",
        resource="inter_link",
        bytes=1e6,  # 1 ms latency + 1 ms on the wire
        dependencies=(ScheduleSlot(0, 0, 0, "fwd"),),
        device=0,
        feeds=ScheduleSlot(0, 0, 1, "fwd"),
    )
    return simulate_timeline(sched, costs, [ev], policy=policy, hw=flat_cluster())


def test_comm_fully_hidden_behind_backward():
    rep = hidden_comm_case(OverlapPolicy(decouple_dw=False))
    # compute chain F0 B0 F1 B1 runs back to back; the transfer sits
    # entirely inside B0's interval
    assert rep.step_time == pytest.approx(12e-3, abs=1e-12)
    assert rep.timeline.start["xfer"] == pytest.approx(3e-3)
    assert rep.timeline.end["xfer"] == pytest.approx(5e-3)
    assert rep.comm_overlap_rate == pytest.approx(1.0, abs=1e-12)
    assert rep.exposed_comm_time == pytest.approx(0.0, abs=1e-15)


def test_task_deps_are_own_then_dataflow_parent_then_feeding_events():
    """A slot's first task waits on its dataflow parent, then on the events
    feeding it in event order; an event waits on its own dependencies, then
    on the events feeding it in event order, listed before or after it.
    Later tasks of a slot get no dataflow dep."""
    sched = build_1f1b_schedule(2, 1, 1)
    costs = uniform_chunk_costs(2, 1, 1e-3, 2e-3)

    def event(eid, deps, device, feeds):
        return CommEvent(eid, "p2p", "inter_link", 1e3, dependencies=deps, device=device, feeds=feeds)

    f0, f1 = ScheduleSlot(0, 0, 0, "fwd"), ScheduleSlot(1, 0, 0, "fwd")
    events = [
        event("b", (f0,), 1, f1),
        event("d", (), 0, "a"),
        event("a", (f0,), 1, f1),
        event("c", (f0,), 0, "a"),
    ]
    tasks = simulate_timeline(sched, costs, events, hw=flat_cluster()).timeline.tasks
    assert tasks["fwd:p1:v0:m0"].deps == ("fwd:p0:v0:m0", "b", "a")
    assert tasks["a"].deps == ("fwd:p0:v0:m0", "d", "c")
    assert tasks["bwd:p0:v0:m0:dx"].deps == ("bwd:p1:v0:m0:dx",)
    assert tasks["bwd:p0:v0:m0:dw"].deps == ()


def test_event_names_resolve_like_task_ids():
    """An event refers to a slot by its record (standing for the part
    downstream work waits on, or for the first part when fed) and to an
    event by its id; an id that is already taken or a reference to no slot
    or event is rejected."""
    sched = build_1f1b_schedule(1, 1, 1)
    costs = uniform_chunk_costs(1, 1, 1e-3, 2e-3)
    hw = dataclasses.replace(flat_cluster(), host_dispatch_time=1e-4)

    def run(*events):
        return simulate_timeline(sched, costs, list(events), hw=hw).timeline.tasks

    def event(eid, deps=(), feeds=None):
        return CommEvent(eid, "p2p", "inter_link", 1e3, dependencies=deps, feeds=feeds)

    tasks = run(
        event("a", (ScheduleSlot(0, 0, 0, "fwd"),)),
        event("b", ("a",), ScheduleSlot(0, 0, 0, "bwd")),
    )
    assert tasks["a"].deps == ("fwd:p0:v0:m0:permute",)
    assert tasks["bwd:p0:v0:m0:dx"].deps == ("fwd:p0:v0:m0:permute", "b")
    # A split slot's own id names no task, so an event may take it.
    assert run(event("fwd:p0:v0:m0"))["fwd:p0:v0:m0"].kind == "comm"
    for taken in ("fwd:p0:v0:m0:pre", "a"):
        with pytest.raises(ValueError, match=f"duplicate task id '{taken}'"):
            run(event("a"), event(taken))
    # A string is an event id, never a slot or one of its compute tasks.
    for name in ("fwd:p0:v0:m0", "fwd:p0:v0:m0:gmm"):
        with pytest.raises(ValueError, match=f"task 'a' depends on unknown task '{name}'"):
            run(event("a", (name,)))
    with pytest.raises(ValueError, match="task 'a' depends on unknown task 'fwd:p0:v0:m1'"):
        run(event("a", (ScheduleSlot(0, 0, 1, "fwd"),)))
    with pytest.raises(ValueError, match="duplicate task id 'fwd:p0:v0:m0:pre'"):
        simulate_timeline([sched[0] * 2], costs, hw=hw)


def test_event_feeding_no_task_is_rejected():
    sched = build_1f1b_schedule(1, 2, 1)
    costs = uniform_chunk_costs(1, 1, 1e-3, 2e-3)
    ev = CommEvent("x", "p2p", "inter_link", 1e3, feeds=ScheduleSlot(0, 0, 9, "fwd"))
    with pytest.raises(ValueError, match="task 'x' feeds unknown task 'fwd:p0:v0:m9'"):
        simulate_timeline(sched, costs, [ev], hw=flat_cluster())
    # Every event's dependencies are checked before any event's feeds.
    later = CommEvent("y", "p2p", "inter_link", 1e3, dependencies=("z",))
    with pytest.raises(ValueError, match="task 'y' depends on unknown task 'z'"):
        simulate_timeline(sched, costs, [ev, later], hw=flat_cluster())


def test_dependency_on_an_event_named_like_a_split_slot_waits_on_the_event():
    """An event may take a split slot's id; a dependency on that id waits
    on the event, not on the slot, so the event is pulled in ahead of its
    dependent in the device's tail."""
    sched = build_1f1b_schedule(1, 1, 1)
    costs = uniform_chunk_costs(1, 1, 1e-3, 2e-3)
    hw = dataclasses.replace(flat_cluster(), host_dispatch_time=1e-4)
    events = [
        CommEvent("b", "p2p", "inter_link", 1e3, dependencies=("fwd:p0:v0:m0",)),
        CommEvent("fwd:p0:v0:m0", "p2p", "inter_link", 1e3),
    ]
    tl = simulate_timeline(sched, costs, events, hw=hw).timeline
    assert tl.tasks["b"].deps == ("fwd:p0:v0:m0",)
    assert tl.chains[(0, "inter_link")] == ["fwd:p0:v0:m0", "b"]


def test_event_taking_a_compute_task_id_is_refused_when_views_are_read():
    """Event ids are checked against the compute-task ids when the views
    keyed by id are first built, not during the simulation."""
    sched = build_1f1b_schedule(1, 1, 1)
    costs = uniform_chunk_costs(1, 1, 1e-3, 2e-3)
    events = [CommEvent("bwd:p0:v0:m0:dw", "p2p", "inter_link", 1e3)]
    rep = simulate_timeline(sched, costs, events, hw=flat_cluster())
    with pytest.raises(ValueError, match="duplicate task id 'bwd:p0:v0:m0:dw'"):
        rep.timeline.tasks


def test_long_same_device_event_chain_listed_dependents_first():
    """Same-device dependencies are pulled ahead without recursion, so a
    chain longer than the interpreter's recursion limit still runs in
    dependency order."""
    n = sys.getrecursionlimit() + 500
    events = [
        CommEvent(f"e{i}", "p2p", "intra_link", 1e3, dependencies=(f"e{i - 1}",) if i else ())
        for i in range(n)
    ]
    sched, costs = build_1f1b_schedule(1, 1, 1), uniform_chunk_costs(1, 1, 1.0, 1.0)
    rep = simulate_timeline(sched, costs, events[::-1], hw=flat_cluster())
    assert rep.timeline.chains[(0, "intra_link")] == [f"e{i}" for i in range(n)]


def test_timeline_views_are_built_on_first_read():
    rep = simulate_timeline(*random_program(random.Random(13)))
    assert not {"start", "end", "tasks"} & vars(rep.timeline).keys()
    assert max(rep.timeline.end.values()) == rep.step_time
    assert {"start", "end", "tasks"} <= vars(rep.timeline).keys()


@pytest.mark.parametrize("field", ["fwd", "bwd"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -1.0, True, "1.0", None])
def test_chunk_cost_must_be_a_finite_number_at_least_zero(field, value):
    message = rf"^ChunkCost\.{field} must be a finite number >= 0, got {re.escape(repr(value))}$"
    with pytest.raises(ValueError, match=message):
        ChunkCost(**{"fwd": 1.0, "bwd": 2.0, field: value})
    assert ChunkCost(0, 0.0) == ChunkCost(0.0, 0)


@pytest.mark.parametrize("nbytes", [-1e12, math.nan, math.inf, True, "1e9"])
def test_event_bytes_must_be_a_finite_number_at_least_zero(nbytes):
    """The event is named; the check runs when a transfer shape is first
    priced, so a bad event after good ones of other shapes is caught."""
    sched, costs = build_1f1b_schedule(1, 1, 1), uniform_chunk_costs(1, 1, 1.0, 1.0)
    good = CommEvent("good", "p2p", "inter_link", 1e3)
    bad = CommEvent("bad", "p2p", "inter_link", nbytes)
    message = rf"^event 'bad' bytes must be a finite number >= 0, got {re.escape(repr(nbytes))}$"
    with pytest.raises(ValueError, match=message):
        simulate_timeline(sched, costs, [good, bad], hw=flat_cluster())


def test_slot_transfers_are_checked_like_events():
    """A hop's bytes are checked when its shape is first priced, naming
    the hop's id; rows run only on the schedule they were built for, and
    only rows of one schedule join."""
    sched, costs = build_1f1b_schedule(2, 2, 1), uniform_chunk_costs(2, 1, 1.0, 1.0)
    shapes = [
        HopShape("p2p", "inter_link", 1e3, 0, False, "x:", ""),
        HopShape("p2p", "inter_link", math.nan, 0, True, "x:", ":b"),
    ]
    bad = SlotTransfers(sched, 1, [1, 1], [0, 1], shapes)
    assert [ev.id for ev in bad.events()] == ["x:fwd:p0:v0:m1", "x:fwd:p0:v0:m1:b"]
    with pytest.raises(ValueError, match=r"^event 'x:fwd:p0:v0:m1:b' bytes must be a finite number >= 0, got nan$"):
        simulate_timeline(sched, costs, hw=flat_cluster(), transfers=bad)
    with pytest.raises(ValueError, match="^hw is required when comm events are present$"):
        simulate_timeline(sched, costs, transfers=bad)
    with pytest.raises(ValueError, match="^transfers were built on another schedule$"):
        simulate_timeline(build_1f1b_schedule(2, 4, 1), costs, hw=flat_cluster(), transfers=bad)
    with pytest.raises(ValueError, match="^transfers built for different schedules cannot be joined$"):
        bad + SlotTransfers(build_1f1b_schedule(2, 2, 1), 1)
    for slots, hops, message in (
        ([8], [0], "a hop's slot number is outside [0, 8)"),
        ([-1], [0], "a hop's slot number is outside [0, 8)"),
        ([0], [2], "a hop's shape number is outside [0, 2)"),
        ([0, 1], [0], "2 slot numbers for 1 hops"),
    ):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SlotTransfers(sched, 1, slots, hops, shapes)
    # An equal schedule will do, and a shape no hop uses is not priced.
    good = SlotTransfers([list(slots) for slots in sched], 1, [6], [0], shapes)
    hop = simulate_timeline(sched, costs, hw=flat_cluster(), transfers=good).timeline.tasks["x:fwd:p1:v0:m1"]
    assert (hop.device, hop.deps) == (1, ("fwd:p0:v0:m1",))


@pytest.mark.parametrize("group_size", [0, 1])
def test_plain_transfer_is_priced_as_a_p2p_between_two_devices(group_size):
    """An event with group_size <= 1 costs a p2p of its bytes in a group of
    two on its link tier, whatever kind it names; zero bytes cost the
    latency."""
    hw = flat_cluster()
    sched, costs = build_1f1b_schedule(1, 1, 1), uniform_chunk_costs(1, 1, 1.0, 1.0)
    events = [CommEvent("a", "allgather", "inter_link", 3e6, group_size=group_size),
              CommEvent("z", "p2p", "intra_link", 0, group_size=group_size)]
    tasks = simulate_timeline(sched, costs, events, hw=hw).timeline.tasks
    assert tasks["a"].duration == collective_time("p2p", 3e6, CommGroup(2, *hw.tier("inter_link")))
    assert tasks["z"].duration == hw.intra_node_latency


def test_comm_serialized_is_fully_exposed():
    rep = hidden_comm_case(SERIALIZED)
    assert rep.step_time == pytest.approx(14e-3, abs=1e-12)
    assert rep.comm_overlap_rate == pytest.approx(0.0, abs=1e-12)
    assert rep.exposed_comm_time == pytest.approx(2e-3, abs=1e-12)


def test_overlap_never_increases_step_time():
    for p, m, v in [(2, 4, 1), (4, 8, 2), (2, 2, 1)]:
        sched = build_1f1b_schedule(p, m, v)
        costs = uniform_chunk_costs(p, v, 2e-3, 4e-3)
        events = []
        for mb in range(m):
            for s in range(p - 1):
                events.append(
                    CommEvent(
                        id=f"act:{s}:{mb}",
                        kind="p2p",
                        resource="inter_link",
                        bytes=5e5,
                        dependencies=(ScheduleSlot(s, 0, mb, "fwd"),),
                        device=s + 1,
                        feeds=ScheduleSlot(s + 1, 0, mb, "fwd"),
                    )
                )
        hw = flat_cluster()
        fast = simulate_timeline(sched, costs, events, OverlapPolicy(), hw)
        slow = simulate_timeline(sched, costs, events, SERIALIZED, hw)
        assert fast.step_time <= slow.step_time + 1e-15


def test_deferring_weight_gradients_never_hurts():
    for p, m in [(2, 4), (4, 4)]:
        sched = build_1f1b_schedule(p, m, 1)
        costs = uniform_chunk_costs(p, 1, 1.0, 2.0)
        coupled = simulate_timeline(sched, costs, policy=OverlapPolicy(decouple_dw=False))
        split = simulate_timeline(sched, costs, policy=OverlapPolicy(decouple_dw=True))
        assert split.step_time <= coupled.step_time + 1e-12
        # the same total work ran either way
        assert sum(split.per_stage_busy) == pytest.approx(sum(coupled.per_stage_busy))


def test_host_dispatch_stalls_and_gmm_first_helps():
    hw = HardwareDescription(
        name="slowhost",
        peak_flops={"bf16": 1e12},
        hbm_capacity=16e9,
        hbm_bandwidth=1e12,
        intra_node_bandwidth=1e9,
        intra_node_latency=1e-6,
        inter_node_bandwidth=1e9,
        inter_node_latency=1e-6,
        devices_per_node=8,
        num_nodes=1,
        host_dispatch_time=2e-3,
    )
    sched = build_1f1b_schedule(1, 4, 1)
    costs = uniform_chunk_costs(1, 1, 3e-3, 6e-3)
    eager = simulate_timeline(
        sched, costs, policy=OverlapPolicy(host_gmm_first=True), hw=hw
    )
    lazy = simulate_timeline(
        sched, costs, policy=OverlapPolicy(host_gmm_first=False), hw=hw
    )
    assert eager.step_time <= lazy.step_time + 1e-12
    assert lazy.host_idle_time > 0
    assert eager.host_idle_time >= 0


def test_host_free_runs_report_no_idle():
    sched = build_1f1b_schedule(2, 2, 1)
    rep = simulate_timeline(sched, uniform_chunk_costs(2, 1, 1.0, 1.0))
    assert rep.host_idle_time == 0.0


def tiny_model():
    return ModelConfig(
        num_layers=3,
        hidden_size=16,
        num_attention_heads=2,
        num_routed_experts=4,
        top_k=2,
        expert_intermediate_size=8,
        num_dense_layers=1,
        num_mtp_layers=0,
        mla=MlaDims(q_rank=12, kv_rank=6, head_dim=4, rope_dim=2),
        vocab_size=100,
        seq_len=64,
    )


def test_summarize_throughput_and_mfu():
    cfg = tiny_model()
    hw = flat_cluster()
    plan = ParallelPlan(tp=1, pp=2, vpp=1, ep=1, micro_batch_size=1, global_batch_size=8)
    mfu, tps = summarize(0.5, cfg, plan, hw)
    tokens = 8 * 64
    assert tps == pytest.approx(tokens / 0.5)
    fwd = flops_per_token(cfg).forward_per_token
    # one forward plus a double-cost backward per token, against the
    # aggregate peak of all sixteen devices
    assert mfu == pytest.approx(tps * fwd * 3 / (16 * 1e12))


def test_summarize_rejects_bad_inputs():
    cfg = tiny_model()
    hw = flat_cluster()
    plan = ParallelPlan(tp=1, pp=2, vpp=1, ep=1, micro_batch_size=1, global_batch_size=0)
    with pytest.raises(ValueError):
        summarize(0.0, cfg, ParallelPlan(global_batch_size=4), hw)
    with pytest.raises(ValueError):
        summarize(1.0, cfg, plan, hw)


def test_slot_id_format():
    assert slot_id(ScheduleSlot(3, 1, 7, "bwd")) == "bwd:p3:v1:m7"


def random_program(rng):
    """A random timeline input in the style of test_c08, extended with
    events on devices that have no pipeline stage, collectives with
    group_size > 1, host dispatch, and a shuffled event list (so dependents
    may precede their dependencies)."""
    p = rng.randint(1, 4)
    v = rng.randint(1, 3)
    m = p * rng.randint(1, 2) if v > 1 else rng.randint(1, 4)
    schedule = build_1f1b_schedule(p, m, v)
    costs = {
        (s, c): ChunkCost(
            fwd=rng.choice([0.0, rng.uniform(0.5, 3.0), rng.uniform(0.5, 3.0)]),
            bwd=rng.choice([0.0, rng.uniform(0.5, 6.0), rng.uniform(0.5, 6.0)]),
        )
        for s in range(p)
        for c in range(v)
    }
    hw = HardwareDescription(
        name="rand",
        peak_flops={"bf16": 1e12},
        hbm_capacity=16e9,
        hbm_bandwidth=1e12,
        intra_node_bandwidth=100e9,
        intra_node_latency=1e-6,
        inter_node_bandwidth=20e9,
        inter_node_latency=5e-6,
        devices_per_node=8,
        num_nodes=1,
        host_dispatch_time=rng.choice([0.0, 0.05]),
    )
    all_slots = [sl for slots in schedule for sl in slots]
    events = []
    for j in range(rng.randint(0, 8)):
        draw = rng.random()
        if draw < 0.25 and events and events[-1].feeds is not None:
            # Two-phase pattern: a follow-up transfer into the same slot.
            prev = events[-1]
            device, deps, feeds = prev.device, (prev.id,), prev.feeds
        elif draw > 0.85:
            # A device without a pipeline stage: it may wait on any slot
            # but feeds none, so its serial chains cannot form a cycle.
            device = p + rng.randint(0, 1)
            deps = (rng.choice(all_slots),) if draw < 0.95 else ()
            feeds = None
        else:
            sl = rng.choice(all_slots)
            device = sl.pp_stage
            parent = dataflow_parent(sl, p, v)
            deps = (parent,) if draw < 0.55 and parent is not None else ()
            feeds = None if draw > 0.8 else sl
        group = rng.choice([0, 1, 2, 4, 8])
        events.append(
            CommEvent(
                id=f"e{j}",
                kind=rng.choice(["p2p", "allgather", "alltoall"]) if group > 1 else "p2p",
                resource=rng.choice(["inter_link", "intra_link"]),
                bytes=rng.uniform(1e9, 5e11),
                dependencies=deps,
                device=device,
                group_size=group,
                feeds=feeds,
            )
        )
    rng.shuffle(events)
    policy = OverlapPolicy(
        overlap_comm=rng.random() < 0.5,
        decouple_dw=rng.random() < 0.5,
        dw_fraction=rng.choice([0.0, 0.3, 0.5]),
        host_gmm_first=rng.random() < 0.5,
    )
    return schedule, costs, events, policy, hw


# (step_time, bubble_ratio, comm_overlap_rate, exposed_comm_time,
# host_idle_time, per_stage_busy) of random_program(random.Random(seed)),
# recorded before the timeline derived its chains and host order from one
# program per device.
PINNED_REPORTS = {
    0: (128.48774667504262, 0.7929179302987366, 0.0, 91.6463914623686, 0, (26.79032280220253, 23.067719705381652, 44.69637192214144, 11.875619621152197)),
    1: (41.06763929065834, 0.5616116452653159, 0.3250063221302272, 39.78217882336105, 0, (11.247330847582628, 24.759818795355734)),
    2: (2.515576092773161, 0.6332016980913829, 0.0, 3.7937753683869397, 0, (0.9227090391511092,)),
    13: (78.6477846662739, 0.675477166524016, 0.0, 32.1736136495122, 1.400000000000006, (9.068755784368228, 21.330310358895144, 46.16993963626139)),
    15: (43.04341906627275, 0.9867086058977321, 0.024629474737013858, 43.33280289905584, 10.244907049097943, (0.0, 1.1442140926378044)),
    24: (99.971641039251, 0.6667967841048412, 0.05239809761477656, 47.689966586275304, 22.70081793205369, (42.464220812462784, 21.244886216908963, 28.675429675493433, 40.85895246551425)),
    26: (34.355384519651736, 0.3590884251772407, 0.0, 25.563948032819034, 1.099999999999999, (16.711776395713287, 27.325750796549592)),
    34: (95.83614754801451, 0.6488142927887157, 0.0, 54.841223804573474, 1.549999999999962, (29.343620574110037, 26.81545020903103, 44.809784976022314)),
    36: (33.46535605045114, 0.8531094254826361, 0.0, 29.18821242948941, 0, (3.400334099436356, 4.754021553699604, 6.592880476900769)),
}


@pytest.mark.parametrize("seed", sorted(PINNED_REPORTS))
def test_random_program_reports_stay_pinned(seed):
    step, bubble, rate, exposed, idle, busy = PINNED_REPORTS[seed]
    rep = simulate_timeline(*random_program(random.Random(seed)))
    assert rep.step_time == step
    assert rep.bubble_ratio == bubble
    assert rep.comm_overlap_rate == rate
    assert rep.exposed_comm_time == exposed
    assert rep.per_stage_busy == busy
    assert rep.host_idle_time == pytest.approx(idle, rel=1e-12)


def test_random_program_timelines_stay_pinned():
    """One SHA-256 over random programs 0-199: every report field, every
    time view with its key order, every task's deps in order and every
    chain, recorded before event names were resolved once per call."""
    digest = hashlib.sha256()
    for seed in range(200):
        rep = simulate_timeline(*random_program(random.Random(seed)))
        tl = rep.timeline
        digest.update(repr((
            [getattr(rep, f.name) for f in dataclasses.fields(rep) if f.name != "timeline"],
            [list(getattr(tl, view).items()) for view in ("start", "end", "dispatch_end", "host_delay")],
            [(tid, task.deps) for tid, task in tl.tasks.items()],
            list(tl.chains.items()),
        )).encode())
    assert digest.hexdigest() == "66ae0492ca14d623c1ca6164c1e772d94505bd76ca281812b9c13c9a33abe683"


def test_report_does_not_depend_on_string_hash_seed():
    """Host delays are summed in host order, never in set order, so two
    interpreters with different hash seeds report the same bits."""
    code = (
        "import dataclasses, random\n"
        "from test_pipeline import random_program\n"
        "from moesim.pipeline import simulate_timeline\n"
        "rep = simulate_timeline(*random_program(random.Random(24)))\n"
        "print(repr(dataclasses.replace(rep, timeline=None)))\n"
    )
    path = os.pathsep.join([str(Path(__file__).parent), str(Path(moesim.__file__).parents[1])])
    outs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=path)
        run = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        outs.append(run.stdout)
    assert outs[0].startswith("StepReport(")
    assert outs[0] == outs[1]


@settings(database=None, derandomize=True, max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_run_tasks_adapter_agrees_with_the_pipeline(seed, hosted):
    """The string adapter, given the timeline's own tasks, chains and host
    order, reproduces every time the pipeline computed, in the same order."""
    schedule, costs, events, policy, hw = random_program(random.Random(seed))
    hw = dataclasses.replace(hw, host_dispatch_time=0.05 if hosted else 0.0)
    tl = simulate_timeline(schedule, costs, events, policy, hw).timeline
    host_order = {}
    for tid in tl.host_delay:
        host_order.setdefault(tl.tasks[tid].device, []).append(tid)
    again = run_tasks(tl.tasks.values(), tl.chains, host_order)
    for field in ("start", "end", "dispatch_end", "host_delay"):
        assert list(getattr(again, field).items()) == list(getattr(tl, field).items()), field
    assert bool(tl.host_delay) == hosted


@settings(database=None, derandomize=True, max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans(), st.booleans())
def test_report_figures_are_left_folds_over_the_timeline(seed, hosted, overlap):
    """Busy time is each stage's compute durations added left to right in
    task order; the bubble divides their left fold over the stages; host
    idle time adds the host delays left to right in host order. All start
    from int 0. `sum()` compensates its rounding from Python 3.12 on, so
    these are the bits on every interpreter."""
    schedule, costs, events, policy, hw = random_program(random.Random(seed))
    hw = dataclasses.replace(hw, host_dispatch_time=0.05 if hosted else 0.0)
    rep = simulate_timeline(schedule, costs, events, dataclasses.replace(policy, overlap_comm=overlap), hw)
    tl = rep.timeline
    busy = tuple(
        reduce(add, (t.duration for t in tl.tasks.values() if t.device == s and t.kind != "comm"), 0)
        for s in range(len(schedule))
    )
    bubble = 1.0 - reduce(add, busy, 0) / (len(schedule) * rep.step_time) if rep.step_time > 0 else 0.0
    assert repr(rep.per_stage_busy) == repr(busy)
    assert repr(rep.bubble_ratio) == repr(bubble)
    assert repr(rep.host_idle_time) == repr(reduce(add, tl.host_delay.values(), 0))
