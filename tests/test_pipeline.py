"""Schedule construction and timeline simulation."""

import dataclasses
import hashlib
import math
import os
import random
import re
import subprocess
import sys
from collections import defaultdict
from functools import reduce
from itertools import count, pairwise
from operator import add
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import moesim

from moesim import engine
from moesim.cluster import CommGroup, HardwareDescription, _require_nonnegative, collective_time
from moesim.comm import MECHANISMS
from moesim.engine import run_tasks
from moesim.errors import DeadlockError
from moesim.model import MlaDims, ModelConfig, flops_per_token
from moesim.parallel import ParallelPlan, assign_chunks
from moesim.pipeline import (
    SERIALIZED,
    ChunkCost,
    HopShape,
    OverlapPolicy,
    ScheduleSlot,
    SlotTransfers,
    StepReport,
    _comm_seconds,
    _Parts,
    _slot_parts,
    _step_program,
    analytic_bubble_ratio,
    build_1f1b_schedule,
    dataflow_parent,
    simulate_timeline,
    slot_id,
    summarize,
    uniform_chunk_costs,
)
from moesim.search import boundary_transfer_events, chunk_costs_from_model, slot_dispatch_events
from test_search import bench_cluster, bench_model


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


def hops(schedule, *rows, shapes):
    """SlotTransfers on ``schedule`` from (slot, shape index) rows."""
    flat = [sl for slots in schedule for sl in slots]
    return SlotTransfers(schedule, [flat.index(sl) for sl, _ in rows], [h for _, h in rows], shapes)


def hidden_comm_case(policy):
    """Two stages, two micro batches; a 2 ms transfer into stage 1's second
    forward that waits on stage 0's second forward (done at 6 ms) and must
    land while stage 1 runs its first backward (6-9 ms)."""
    sched = build_1f1b_schedule(2, 2, 1)
    costs = uniform_chunk_costs(2, 1, 3e-3, 3e-3)
    shape = HopShape("p2p", "inter_link", 1e6, 0, False, "", ":xfer")  # 1 ms latency + 1 ms on the wire
    transfers = hops(sched, (ScheduleSlot(1, 0, 1, "fwd"), 0), shapes=[shape])
    return simulate_timeline(sched, costs, policy=policy, hw=flat_cluster(), transfers=transfers)


def test_comm_fully_hidden_behind_backward():
    rep = hidden_comm_case(OverlapPolicy(decouple_dw=False))
    # stage 1 runs F0 B0 F1 B1 back to back from 3 ms; the transfer sits
    # entirely inside B0's interval
    assert rep.step_time == pytest.approx(18e-3, abs=1e-12)
    assert rep.timeline.start["fwd:p1:v0:m1:xfer"] == pytest.approx(6e-3)
    assert rep.timeline.end["fwd:p1:v0:m1:xfer"] == pytest.approx(8e-3)
    assert rep.comm_overlap_rate == pytest.approx(1.0, abs=1e-12)
    assert rep.exposed_comm_time == pytest.approx(0.0, abs=1e-15)


def test_task_deps_are_own_then_dataflow_parent_then_feeding_events():
    """A slot's first task waits on its dataflow parent, then on the hops
    feeding it in row order, whatever order the slots' rows come in; an
    unchained hop waits on its slot's parent (on nothing at a graph
    source), a chained one on the row before it. Later tasks of a slot get
    no dataflow dep."""
    sched = build_1f1b_schedule(2, 1, 1)
    costs = uniform_chunk_costs(2, 1, 1e-3, 2e-3)
    shapes = [
        HopShape("p2p", "inter_link", 1e3, 0, False, "", ":a"),
        HopShape("p2p", "inter_link", 1e3, 0, True, "", ":b"),
        HopShape("p2p", "intra_link", 1e3, 0, False, "", ":c"),
    ]
    f0, f1, b0 = ScheduleSlot(0, 0, 0, "fwd"), ScheduleSlot(1, 0, 0, "fwd"), ScheduleSlot(0, 0, 0, "bwd")
    transfers = hops(sched, (f1, 0), (f1, 1), (b0, 2), (f0, 2), (f1, 2), shapes=shapes)
    tasks = simulate_timeline(sched, costs, hw=flat_cluster(), transfers=transfers).timeline.tasks
    assert tasks["fwd:p1:v0:m0"].deps == ("fwd:p0:v0:m0", "fwd:p1:v0:m0:a", "fwd:p1:v0:m0:b", "fwd:p1:v0:m0:c")
    assert tasks["fwd:p1:v0:m0:a"].deps == tasks["fwd:p1:v0:m0:c"].deps == ("fwd:p0:v0:m0",)
    assert tasks["fwd:p1:v0:m0:b"].deps == ("fwd:p1:v0:m0:a",)
    assert tasks["fwd:p0:v0:m0:c"].deps == ()
    assert tasks["fwd:p0:v0:m0"].deps == ("fwd:p0:v0:m0:c",)
    assert tasks["bwd:p0:v0:m0:dx"].deps == ("bwd:p1:v0:m0:dx", "bwd:p0:v0:m0:c")
    assert tasks["bwd:p0:v0:m0:dw"].deps == ()


def test_a_slot_listed_twice_is_refused():
    """Each slot is one set of tasks; a schedule naming one twice is
    refused with the first task id it would repeat."""
    sched = build_1f1b_schedule(1, 1, 1)
    costs = uniform_chunk_costs(1, 1, 1e-3, 2e-3)
    hw = dataclasses.replace(flat_cluster(), host_dispatch_time=1e-4)
    with pytest.raises(ValueError, match="^duplicate task id 'fwd:p0:v0:m0:pre'$"):
        simulate_timeline([sched[0] * 2], costs, hw=hw)
    with pytest.raises(ValueError, match="^duplicate task id 'bwd:p0:v0:m0:dx'$"):
        simulate_timeline([sched[0][::-1] * 2], costs)


def test_event_taking_a_compute_task_id_is_refused_when_views_are_read():
    """Hop ids are checked against the compute-task ids when the views
    keyed by id are first built, not during the simulation."""
    sched = build_1f1b_schedule(1, 1, 1)
    costs = uniform_chunk_costs(1, 1, 1e-3, 2e-3)
    shape = HopShape("p2p", "inter_link", 1e3, 0, False, "", ":dw")
    transfers = hops(sched, (ScheduleSlot(0, 0, 0, "bwd"), 0), shapes=[shape])
    rep = simulate_timeline(sched, costs, hw=flat_cluster(), transfers=transfers)
    with pytest.raises(ValueError, match="duplicate task id 'bwd:p0:v0:m0:dw'"):
        rep.timeline.tasks


def test_the_timeline_takes_its_options_by_keyword():
    """policy, hw and transfers are keyword-only: a call in the old
    positional form, with an event list third, cannot be read as a policy."""
    sched, costs = build_1f1b_schedule(1, 1, 1), uniform_chunk_costs(1, 1, 1.0, 1.0)
    with pytest.raises(TypeError):
        simulate_timeline(sched, costs, [], OverlapPolicy(), flat_cluster())


def test_timeline_views_are_built_on_first_read():
    rep = simulate(random_program(random.Random(13)))
    assert not {"start", "end", "tasks"} & vars(rep.timeline).keys()
    assert max(rep.timeline.end.values()) == rep.step_time
    assert {"start", "end", "tasks"} <= vars(rep.timeline).keys()


@pytest.mark.parametrize("field", ["fwd", "bwd"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -1.0, True, "1.0", None])
def test_chunk_cost_must_be_a_finite_number_at_least_zero(field, value):
    message = rf"^ChunkCost\.{field} must be a finite number in \[0, 1e300\], got {re.escape(repr(value))}$"
    with pytest.raises(ValueError, match=message):
        ChunkCost(**{"fwd": 1.0, "bwd": 2.0, field: value})
    assert ChunkCost(0, 0.0) == ChunkCost(0.0, 0)


def test_chunk_cost_ceiling_keeps_the_step_finite():
    """ChunkCost(1e308, 1e308) once gave step inf and bubble nan."""
    with pytest.raises(ValueError, match=r"^ChunkCost\.fwd must be a finite number in \[0, 1e300\], got 1e\+308$"):
        ChunkCost(1e308, 1e308)
    rep = simulate_timeline(build_1f1b_schedule(4, 8, 2), uniform_chunk_costs(4, 2, 1e300, 1e300))
    assert math.isfinite(rep.step_time) and math.isfinite(rep.bubble_ratio)


@pytest.mark.parametrize("nbytes", [-1e12, math.nan, math.inf, True, "1e9"])
def test_event_bytes_must_be_a_finite_number_at_least_zero(nbytes):
    """The hop is named; the check runs when a transfer shape is first
    priced, so a bad hop after good ones of other shapes is caught."""
    sched, costs = build_1f1b_schedule(1, 1, 1), uniform_chunk_costs(1, 1, 1.0, 1.0)
    shapes = [HopShape("p2p", "inter_link", 1e3, 0, False, "good:", ""),
              HopShape("p2p", "inter_link", nbytes, 0, False, "bad:", "")]
    transfers = hops(sched, (ScheduleSlot(0, 0, 0, "bwd"), 0), (ScheduleSlot(0, 0, 0, "fwd"), 1), shapes=shapes)
    message = rf"^event 'bad:fwd:p0:v0:m0' bytes must be a finite number >= 0, got {re.escape(repr(nbytes))}$"
    with pytest.raises(ValueError, match=message):
        simulate_timeline(sched, costs, hw=flat_cluster(), transfers=transfers)


def test_slot_transfers_are_checked_like_events():
    """A hop's bytes are checked when its shape is first priced, naming
    the hop's id; rows run only on the schedule they were built for, and
    only rows of one schedule join."""
    sched, costs = build_1f1b_schedule(2, 2, 1), uniform_chunk_costs(2, 1, 1.0, 1.0)
    shapes = [
        HopShape("p2p", "inter_link", 1e3, 0, False, "x:", ""),
        HopShape("p2p", "inter_link", math.nan, 0, True, "x:", ":b"),
    ]
    bad = SlotTransfers(sched, [1, 1], [0, 1], shapes)
    assert bad.ids() == ["x:fwd:p0:v0:m1", "x:fwd:p0:v0:m1:b"]
    with pytest.raises(ValueError, match=r"^event 'x:fwd:p0:v0:m1:b' bytes must be a finite number >= 0, got nan$"):
        simulate_timeline(sched, costs, hw=flat_cluster(), transfers=bad)
    with pytest.raises(ValueError, match="^hw is required when transfers are present$"):
        simulate_timeline(sched, costs, transfers=bad)
    with pytest.raises(ValueError, match="^transfers were built on another schedule$"):
        simulate_timeline(build_1f1b_schedule(2, 4, 1), costs, hw=flat_cluster(), transfers=bad)
    with pytest.raises(ValueError, match="^transfers built for different schedules cannot be joined$"):
        bad + SlotTransfers(build_1f1b_schedule(2, 2, 1))
    for slots, hop_shapes, message in (
        ([8], [0], "a hop's slot number is outside [0, 8)"),
        ([-1], [0], "a hop's slot number is outside [0, 8)"),
        ([0], [2], "a hop's shape number is outside [0, 2)"),
        ([0, 1], [0], "2 slot numbers for 1 hops"),
    ):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SlotTransfers(sched, slots, hop_shapes, shapes)
    # An equal schedule will do, and a shape no hop uses is not priced.
    good = SlotTransfers([list(slots) for slots in sched], [6], [0], shapes)
    hop = simulate_timeline(sched, costs, hw=flat_cluster(), transfers=good).timeline.tasks["x:fwd:p1:v0:m1"]
    assert (hop.device, hop.deps) == (1, ("fwd:p0:v0:m1",))


def test_slot_transfers_refuse_a_chained_row_they_cannot_chain():
    """A chained hop waits on the row before it, so that row must feed the
    same slot: a chained first row (it would wait on the step's last
    compute task) and a chained row after another slot's row are refused
    with the row named, also as the right side of ``a + b``."""
    sched = build_1f1b_schedule(2, 2)
    plain = HopShape("p2p", "intra_link", 1e9, 0, False, "x:", "")
    chained = HopShape("p2p", "intra_link", 1e9, 0, True, "x:", ":b")
    first = "^hop row 0 is chained to the hop before it into slot 3, but it is the first row$"
    with pytest.raises(ValueError, match=first):
        SlotTransfers(sched, [3], [0], [chained])
    with pytest.raises(ValueError, match="^hop row 1 is chained to the hop before it into slot 1, but row 0 feeds slot 2$"):
        SlotTransfers(sched, [2, 1], [0, 1], [plain, chained])
    with pytest.raises(ValueError, match="^hop row 3 is chained to the hop before it into slot 1, but row 2 feeds slot 2$"):
        SlotTransfers(sched, [2, 2, 2, 1], [0, 1, 1, 1], [plain, chained])
    head = SlotTransfers(sched, [3], [0], [plain])
    with pytest.raises(ValueError, match=first):
        head + SlotTransfers(sched, [3], [0], [chained])
    joined = head + SlotTransfers(sched, [2, 2], [0, 1], [plain, chained])
    assert (joined.slots, joined.hops) == ([3, 2, 2], [0, 1, 2])
    costs = uniform_chunk_costs(2, 1, 1.0, 1.0)
    tasks = simulate_timeline(sched, costs, hw=flat_cluster(), transfers=joined).timeline.tasks
    assert [tasks[hop].deps for hop in joined.ids()[1:]] == [("bwd:p1:v0:m0:dx",), ("x:bwd:p0:v0:m0",)]


@pytest.mark.parametrize("group_size", [0, 1])
def test_plain_transfer_is_priced_as_a_p2p_between_two_devices(group_size):
    """A hop with group_size <= 1 costs a p2p of its bytes in a group of
    two on its link tier, whatever kind it names; zero bytes cost the
    latency."""
    hw = flat_cluster()
    sched, costs = build_1f1b_schedule(1, 1, 1), uniform_chunk_costs(1, 1, 1.0, 1.0)
    shapes = [HopShape("allgather", "inter_link", 3e6, group_size, False, "a:", ""),
              HopShape("p2p", "intra_link", 0, group_size, False, "z:", "")]
    transfers = hops(sched, (ScheduleSlot(0, 0, 0, "fwd"), 0), (ScheduleSlot(0, 0, 0, "fwd"), 1), shapes=shapes)
    tasks = simulate_timeline(sched, costs, hw=hw, transfers=transfers).timeline.tasks
    assert tasks["a:fwd:p0:v0:m0"].duration == collective_time("p2p", 3e6, CommGroup(2, *hw.tier("inter_link")))
    assert tasks["z:fwd:p0:v0:m0"].duration == hw.intra_node_latency


def test_comm_serialized_is_fully_exposed():
    rep = hidden_comm_case(SERIALIZED)
    # the transfer now holds stage 1's compute stream between B0 and F1
    assert rep.step_time == pytest.approx(20e-3, abs=1e-12)
    assert rep.comm_overlap_rate == pytest.approx(0.0, abs=1e-12)
    assert rep.exposed_comm_time == pytest.approx(2e-3, abs=1e-12)


def test_overlap_never_increases_step_time():
    shape = HopShape("p2p", "inter_link", 5e5, 0, False, "act:", "")
    for p, m, v in [(2, 4, 1), (4, 8, 2), (2, 2, 1)]:
        sched = build_1f1b_schedule(p, m, v)
        costs = uniform_chunk_costs(p, v, 2e-3, 4e-3)
        # an activation send into every later stage's chunk-0 forward
        rows = [(ScheduleSlot(s + 1, 0, mb, "fwd"), 0) for mb in range(m) for s in range(p - 1)]
        transfers = hops(sched, *rows, shapes=[shape])
        hw = flat_cluster()
        fast = simulate_timeline(sched, costs, policy=OverlapPolicy(), hw=hw, transfers=transfers)
        slow = simulate_timeline(sched, costs, policy=SERIALIZED, hw=hw, transfers=transfers)
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
    collectives with group_size > 1, host dispatch, and hop rows listed in
    shuffled slot order: the positional arguments and the keyword options
    of a ``simulate_timeline`` call."""
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
    transfers = random_transfers(rng, schedule, range(2 * m * v * p))
    policy = OverlapPolicy(
        overlap_comm=rng.random() < 0.5,
        decouple_dw=rng.random() < 0.5,
        dw_fraction=rng.choice([0.0, 0.3, 0.5]),
        host_gmm_first=rng.random() < 0.5,
    )
    return (schedule, costs), dict(policy=policy, hw=hw, transfers=transfers)


def random_transfers(rng, schedule, candidates):
    """Up to eight hops into the slots numbered ``candidates``, drawn as
    runs: a hop that waits on its slot's dataflow parent, then perhaps
    chained follow-up hops into the same slot. Some runs feed graph
    sources; group sizes are 0, 1, 2, 4 or 8 on either link; the runs are
    listed in shuffled order. Hop j has a shape of its own, ``e{j}:``."""
    flat = [sl for slots in schedule for sl in slots]
    p, v = len(schedule), 1 + max(sl.vpp_stage for sl in flat)
    candidates = list(candidates)
    sources = [g for g in candidates if dataflow_parent(flat[g], p, v) is None] or candidates
    runs, shapes = [], []  # runs: [(slot number, shape index), ...]
    for j in range(rng.randint(0, 8)):
        draw = rng.random()
        follow = draw < 0.25 and bool(runs)
        if follow:
            g = runs[-1][0][0]
        else:
            g = rng.choice(sources if draw > 0.85 else candidates)
            runs.append([])
        group = rng.choice([0, 1, 2, 4, 8])
        shapes.append(HopShape(
            kind=rng.choice(["p2p", "allgather", "alltoall"]) if group > 1 else "p2p",
            resource=rng.choice(["inter_link", "intra_link"]),
            bytes=rng.uniform(1e9, 5e11),
            group_size=group,
            chained=follow,
            prefix=f"e{j}:",
            suffix="",
        ))
        runs[-1].append((g, j))
    rng.shuffle(runs)
    rows = [row for run in runs for row in run]
    return SlotTransfers(schedule, [g for g, _ in rows], [h for _, h in rows], shapes)


def simulate(program):
    """The step of a ``random_program`` or ``hop_program`` draw."""
    args, opts = program
    return simulate_timeline(*args, **opts)


def assert_walk_matches_engine(rep, overlap):
    """The slot walk's begin, finish and delay are `engine.run_columns`'s
    on the step's own columns, and its report figures are those of the
    engine's run, folded as the step folded them before the walk: each
    stage's compute durations, each link chain's `covered_lengths` against
    its device's merged compute spans (no chain without overlap), the host
    delays in host order. All by repr."""
    tl = rep.timeline
    c = tl.columns
    ref = engine.run_columns(c, list)
    assert list(map(repr, (tl.begin, tl.finish, tl.delay))) == list(map(repr, (ref.begin, ref.finish, ref.delay)))
    begin, finish, duration = ref.begin, ref.finish, c.duration
    base, p = len(duration) - c.kind.count("comm"), len(rep.per_stage_busy)
    runs = [[i for i in range(base) if c.device[i] == s] for s in range(p)]
    busy = tuple(reduce(add, map(duration.__getitem__, run), 0) for run in runs)
    covered = [0.0] * (len(duration) - base)
    for dev, program in c.programs.items() if overlap else ():
        spans = engine.merged_intervals((begin[i], finish[i]) for i in runs[dev])
        lanes = defaultdict(list)
        for i in program:
            if c.resource[i] != "compute":
                lanes[c.resource[i]].append(i)
        for lane in lanes.values():
            for i, length in zip(lane, engine.covered_lengths(spans, [(begin[i], finish[i]) for i in lane])):
                covered[i - base] = length
    comm, overlapped, makespan = reduce(add, duration[base:], 0), reduce(add, covered, 0.0), ref.makespan
    want = (makespan, 1.0 - reduce(add, busy, 0) / (p * makespan) if makespan > 0 else 0.0,
            1.0 if comm == 0 else overlapped / comm, comm - overlapped, reduce(add, ref.host_delays(), 0), busy)
    got = (rep.step_time, rep.bubble_ratio, rep.comm_overlap_rate, rep.exposed_comm_time, rep.host_idle_time,
           rep.per_stage_busy)
    assert list(map(repr, got)) == list(map(repr, want))


@settings(database=None, derandomize=True, max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans(), st.booleans())
def test_the_slot_walk_times_random_programs_as_the_engine_does(seed, hosted, overlap):
    args, opts = random_program(random.Random(seed))
    opts["hw"] = dataclasses.replace(opts["hw"], host_dispatch_time=0.05 if hosted else 0.0)
    opts["policy"] = dataclasses.replace(opts["policy"], overlap_comm=overlap)
    assert_walk_matches_engine(simulate_timeline(*args, **opts), overlap)


@pytest.mark.parametrize("hosted", [False, True])
def test_a_backward_listed_before_its_own_forward_deadlocks(hosted):
    """A stage that lists a backward before the forward it waits on can
    never run it, alone or through another stage; the engine, on the
    same step's columns, refuses it too."""
    costs = uniform_chunk_costs(2, 1, 1.0, 2.0)
    hw = dataclasses.replace(flat_cluster(), host_dispatch_time=0.1 if hosted else 0.0)
    fwd, bwd = (lambda s: ScheduleSlot(s, 0, 0, "fwd")), (lambda s: ScheduleSlot(s, 0, 0, "bwd"))
    for sched in ([[bwd(0), fwd(0)]], [[bwd(0), fwd(0)], [fwd(1), bwd(1)]]):
        with pytest.raises(DeadlockError, match="^dependency cycle in timeline task graph$"):
            simulate_timeline(sched, costs, hw=hw)
        with pytest.raises(DeadlockError):
            engine.run_columns(_step_program(sched, costs, OverlapPolicy(), hw, SlotTransfers(sched)), list)


# (step_time, bubble_ratio, comm_overlap_rate, exposed_comm_time,
# host_idle_time, per_stage_busy) of random_program(random.Random(seed)),
# recorded before the timeline lost its hand-built event path.
PINNED_REPORTS = {
    0: (140.26217364248203, 0.8103016100367869, 0.14662794968080844, 74.97239533279956, 0, (26.79032280220253, 23.067719705381663, 44.696371922141466, 11.87561962115219)),
    1: (63.64615388289917, 0.7171301999710231, 0.0, 47.65515324478289, 0, (11.247330847582626, 24.759818795355734)),
    2: (5.393454878813343, 0.8289205973010528, 0.0, 4.470745839662234, 0, (0.9227090391511092,)),
    13: (72.76303773463394, 0.6492312206701653, 0.12214851668912616, 28.243654465695254, 1.5000000000000078, (9.068755784368228, 21.330310358895144, 46.16993963626139)),
    15: (43.48899772210065, 0.9868447865831554, 0.0, 42.42825044940451, 0.4000000000000036, (0.0, 1.1442140926378044)),
    24: (98.8961417493048, 0.6631731865027078, 0.03559934482343489, 48.535397518076564, 4.324809574696949, (42.464220812462784, 21.244886216908963, 28.675429675493433, 40.85895246551425)),
    26: (50.24910471151282, 0.561807842696019, 0.0, 16.970706299217092, 1.1500000000000121, (16.711776395713287, 27.325750796549592)),
    34: (109.91979624594889, 0.6938105200109042, 0.07768381193129371, 53.545458278733506, 3.71448960888762, (29.343620574110037, 26.81545020903103, 44.809784976022314)),
    36: (43.93544855952614, 0.888114369197374, 0.0, 29.18821242948941, 0, (3.400334099436356, 4.754021553699604, 6.592880476900769)),
}


@pytest.mark.parametrize("seed", sorted(PINNED_REPORTS))
def test_random_program_reports_stay_pinned(seed):
    step, bubble, rate, exposed, idle, busy = PINNED_REPORTS[seed]
    rep = simulate(random_program(random.Random(seed)))
    assert rep.step_time == step
    assert rep.bubble_ratio == bubble
    assert rep.comm_overlap_rate == rate
    assert rep.exposed_comm_time == exposed
    assert rep.per_stage_busy == busy
    assert rep.host_idle_time == pytest.approx(idle, rel=1e-12)


def test_random_program_times_stay_pinned():
    """One SHA-256 over random programs 0-199: every report field and every
    time view with its key order, recorded before comm stopped sharing the
    compute chain under no-overlap. Those times must not move."""
    digest = hashlib.sha256()
    for seed in range(200):
        rep = simulate(random_program(random.Random(seed)))
        tl = rep.timeline
        digest.update(repr((
            [getattr(rep, f.name) for f in dataclasses.fields(rep) if f.name != "timeline"],
            [list(getattr(tl, view).items()) for view in ("start", "end", "dispatch_end", "host_delay")],
        )).encode())
    assert digest.hexdigest() == "7291058c43f391764340af89ef5ba9ff8283ac325bf73794a9544cc7284326c4"


def test_random_program_graphs_stay_pinned():
    """One SHA-256 over random programs 0-199: every task's deps in order
    and every chain with its key order, recorded once each task ran on one
    resource and no-overlap comm waited on its program predecessor."""
    digest = hashlib.sha256()
    for seed in range(200):
        tl = simulate(random_program(random.Random(seed))).timeline
        digest.update(repr((
            [(tid, task.deps) for tid, task in tl.tasks.items()],
            list(tl.chains.items()),
        )).encode())
    assert digest.hexdigest() == "a5b0af9cea0389ee756bff2c6b1ed697faf5ad685dd80b71bdf006f9ca297b34"


def test_report_does_not_depend_on_string_hash_seed():
    """Host delays are summed in host order, never in set order, so two
    interpreters with different hash seeds report the same bits."""
    code = (
        "import dataclasses, random\n"
        "from test_pipeline import random_program, simulate\n"
        "rep = simulate(random_program(random.Random(24)))\n"
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
    """The string adapter, given the timeline's own tasks and programs,
    reproduces every time the pipeline computed, in the same order."""
    args, opts = random_program(random.Random(seed))
    opts["hw"] = dataclasses.replace(opts["hw"], host_dispatch_time=0.05 if hosted else 0.0)
    tl = simulate_timeline(*args, **opts).timeline
    ids = list(tl.tasks)
    programs = {dev: [ids[i] for i in program] for dev, program in tl.columns.programs.items()}
    again = run_tasks(tl.tasks.values(), programs, hosted=tl.columns.hosted)
    for field in ("start", "end", "dispatch_end", "host_delay", "chains"):
        assert list(getattr(again, field).items()) == list(getattr(tl, field).items()), field
    assert bool(tl.host_delay) == hosted


@settings(database=None, derandomize=True, max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans(), st.booleans())
def test_every_task_is_in_the_one_chain_of_its_resource(seed, hosted, overlap):
    """What `engine.run_columns` relies on: the programs list every task
    once, in the program of its device, so each task is in the one chain
    of its device and resource; and every dependency on a task of the same
    program points back in it. Without overlap, every task after a comm
    task in its device's program waits on it, and every comm task on the
    task before it."""
    args, opts = random_program(random.Random(seed))
    opts["hw"] = dataclasses.replace(opts["hw"], host_dispatch_time=0.05 if hosted else 0.0)
    opts["policy"] = dataclasses.replace(opts["policy"], overlap_comm=overlap)
    tl = simulate_timeline(*args, **opts).timeline
    c = tl.columns
    placed = sorted((i, dev) for dev, program in c.programs.items() for i in program)
    assert placed == [(i, c.device[i]) for i in range(len(c.duration))]
    assert sorted(tid for chain in tl.chains.values() for tid in chain) == sorted(tl.tasks)
    for (dev, res), chain in tl.chains.items():
        assert all((tl.tasks[tid].device, tl.tasks[tid].resource) == (dev, res) for tid in chain)
    for program in c.programs.values():
        where = {i: k for k, i in enumerate(program)}
        assert all(where[d] < where[i] for i in program for d in c.deps[i] if d in where)
    assert c.hosted == hosted
    if not overlap:
        for before, j in (pair for program in c.programs.values() for pair in pairwise(program)):
            if c.kind[before] == "comm" or c.kind[j] == "comm":
                assert before in c.deps[j]


@settings(database=None, derandomize=True, max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans(), st.booleans())
def test_report_figures_are_left_folds_over_the_timeline(seed, hosted, overlap):
    """Busy time is each stage's compute durations added left to right in
    task order; the bubble divides their left fold over the stages; host
    idle time adds the host delays left to right in host order. All start
    from int 0. `sum()` compensates its rounding from Python 3.12 on, so
    these are the bits on every interpreter."""
    (schedule, costs), opts = random_program(random.Random(seed))
    opts["hw"] = dataclasses.replace(opts["hw"], host_dispatch_time=0.05 if hosted else 0.0)
    opts["policy"] = dataclasses.replace(opts["policy"], overlap_comm=overlap)
    rep = simulate_timeline(schedule, costs, **opts)
    tl = rep.timeline
    busy = tuple(
        reduce(add, (t.duration for t in tl.tasks.values() if t.device == s and t.kind != "comm"), 0)
        for s in range(len(schedule))
    )
    bubble = 1.0 - reduce(add, busy, 0) / (len(schedule) * rep.step_time) if rep.step_time > 0 else 0.0
    assert repr(rep.per_stage_busy) == repr(busy)
    assert repr(rep.bubble_ratio) == repr(bubble)
    assert repr(rep.host_idle_time) == repr(reduce(add, tl.host_delay.values(), 0))


# The simulator and the overlap sweep as they were before hops were placed
# by slot, kept verbatim as the oracle for the program assembly, but for
# the columns it hands the engine: its programs and a hosted flag, where it
# cut chains and passed the programs as host orders. It is fed rows only;
# its event path, and the reference spelling that path names errors with,
# are reached by no caller. It puts each task on a tuple of resources;
# `one_resource` maps its columns to one resource per task.
COMPUTE = ("compute",)


def _spelled(ref) -> str:
    """An event's slot or event reference as error messages name it."""
    return ref if isinstance(ref, str) else slot_id(ref)


def oracle_merged_intervals(spans):
    """Sorted union of the non-empty (start, end) spans."""
    merged = []
    for s, e in sorted(spans):
        if e > s:
            if merged and s <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], e))
            else:
                merged.append((s, e))
    return merged


def oracle_covered_lengths(spans, windows) -> list:
    """For each (start, end) window, the length of it that the union of the
    spans covers, added piece by piece from left to right. One sweep: the
    windows go in order of start, and the first merged span a window can
    reach only moves forward."""
    merged = oracle_merged_intervals(spans)
    last, first = len(merged), 0
    covered = [0.0] * len(windows)
    for k in sorted(range(len(windows)), key=windows.__getitem__):
        s, e = windows[k]
        while first < last and merged[first][1] <= s:
            first += 1
        i = first
        while i < last and merged[i][0] < e:
            a, b = merged[i]
            covered[k] += (e if e < b else b) - (s if s > a else a)  # min(b, e) - max(a, s), inlined
            i += 1
    return covered


def oracle_simulate_timeline(
    schedule,
    chunk_costs,
    comm_events=(),
    policy: OverlapPolicy | None = None,
    hw: HardwareDescription | None = None,
    transfers: SlotTransfers | None = None,
) -> StepReport:
    """The simulator as it was before hops were placed by slot: every hop
    and event goes through ``emit``, the chains take one append per task
    and resource, and the overlap sweep sorts its spans and windows."""
    policy = policy or OverlapPolicy()
    events = tuple(comm_events)
    transfers = transfers if transfers is not None else SlotTransfers(schedule)
    if transfers.schedule is not schedule and transfers.schedule != schedule:
        raise ValueError("transfers were built on another schedule")
    if (events or transfers) and hw is None:
        raise ValueError("hw is required when comm events are present")
    p = len(schedule)
    v = 1 + max((sl.vpp_stage for slots in schedule for sl in slots), default=0)
    host_time = hw.host_dispatch_time if hw is not None else 0.0

    # Task positions: each slot's compute tasks in schedule order, then the
    # transfers' hops, then the events in event order. Parts are derived once
    # per (phase, stage, chunk).
    templates, slot_at, stage_slots = {}, {}, {}  # slot_at: slot -> slot number
    runs = {}  # stage -> slice of its compute task positions
    tpl_of, first = [], []  # by slot number
    duration, kind, sync, device = [], [], [], []
    for s, slots in enumerate(schedule):
        stage_slots[s] = range(len(tpl_of), len(tpl_of) + len(slots))
        for sl in slots:
            key = (sl.phase, sl.pp_stage, sl.vpp_stage)
            if key not in templates:
                parts = _slot_parts(sl.phase, chunk_costs[key[1:]], policy, host_time > 0)
                templates[key] = _Parts(*zip(*parts), len(parts) - 1 - (parts[-1][2] == "bwd_dw"))
            tpl = templates[key]
            if sl in slot_at:
                raise ValueError(f"duplicate task id {slot_id(sl) + tpl.suffixes[0]!r}")
            slot_at[sl] = len(tpl_of)
            tpl_of.append(tpl)
            first.append(len(duration))
            duration += tpl.durations
            kind += tpl.kinds
            sync += tpl.syncs
        runs[s] = slice(len(device), len(duration))
        device += [s] * (len(duration) - len(device))
    base = len(duration)
    wait = [f + tpl.wait for f, tpl in zip(first, tpl_of)]
    # The parent table: what the first part of each slot waits on, by slot
    # number: its dataflow parent's waited-on part, or nothing at a graph
    # source.
    parents = (slot_at.get(dataflow_parent(sl, p, v)) for sl in slot_at)
    parent_wait = [() if up is None else (wait[up],) for up in parents]
    deps = [()] * base
    for f, dep in zip(first, parent_wait):
        deps[f] = dep

    # Event rows. Each event gets a duration, resources, device and deps,
    # its same-device event deps (local, by event index) and its place in
    # its device's program: before the same-device slot it feeds, else
    # after the last same-device slot it depends on, else in the device's
    # tail. Its deps are its own in listed order, then the events feeding
    # it in event order. Pricing is pure, so each distinct (kind, resource,
    # bytes, group size) is priced once, and its bytes checked then.
    priced, link_of, local = {}, {}, []
    # before, after: slot number -> event indices; tails: device -> event indices
    before, after, tails = defaultdict(list), defaultdict(list), defaultdict(list)
    resources = [COMPUTE] * base

    def seconds(shape, name):
        if shape not in priced:
            _require_nonnegative(name, shape[2])
            priced[shape] = _comm_seconds(*shape, hw)
        return priced[shape]

    def link(res):
        return link_of.setdefault(res, (res,) if policy.overlap_comm else ("compute", res))

    # A hop feeds a slot on its own device and waits on the slot's parent
    # or on the hop before it, so its rows come straight from the columns.
    hop_slots, hop_shapes, shapes = transfers.slots, transfers.hops, transfers.shapes
    cost = dict.fromkeys(hop_shapes)  # the shapes in use, in the order of their first hop
    for h in cost:
        cost[h] = seconds(shapes[h][:4], lambda h=h: f"event {transfers.ids()[hop_shapes.index(h)]!r} bytes")
    links = [link(sh.resource) for sh in shapes]
    chained = [sh.chained for sh in shapes]
    device += [device[first[g]] for g in hop_slots]
    duration += map(cost.__getitem__, hop_shapes)
    resources += [links[h] for h in hop_shapes]
    deps += [(j - 1,) if chained[h] else parent_wait[g] for j, g, h in zip(count(base), hop_slots, hop_shapes)]
    local += [(j - 1,) if chained[h] else () for j, h in enumerate(hop_shapes)]
    for j, g in enumerate(hop_slots):
        deps[first[g]] += (base + j,)
        before[g].append(j)

    # CommEvents name slots by ScheduleSlot record and events by id, each
    # resolved once.
    hops = len(transfers)
    event_at = {}  # event id -> position
    for pos, ev in enumerate(events, base + hops):
        if ev.id in event_at:
            raise ValueError(f"duplicate task id {ev.id!r}")
        event_at[ev.id] = pos
    unknown_feed = None
    device += [ev.device for ev in events]
    deps += [()] * len(events)
    for j, ev in enumerate(events, hops):
        eid, ekind, res, nbytes, refs, dev, group, feeds = ev
        duration.append(seconds((ekind, res, nbytes, group), f"event {eid!r} bytes"))
        resources.append(link(res))
        own, near, home = [], (), None  # home: the last same-device slot depended on
        for ref in refs:
            if (g := slot_at.get(ref)) is not None:
                own.append(wait[g])
                home = g if device[first[g]] == dev else home
            elif (e := event_at.get(ref)) is not None:
                own.append(e)
                near += (e - base,) if device[e] == dev else ()
            else:
                raise ValueError(f"task {eid!r} depends on unknown task {_spelled(ref)!r}")
        deps[base + j] = (*own, *deps[base + j])
        local.append(near)
        if (g := slot_at.get(feeds)) is not None:
            deps[first[g]] += (base + j,)
            if device[first[g]] == dev:
                before[g].append(j)
                continue
        elif (e := event_at.get(feeds)) is not None:
            deps[e] += (base + j,)
        elif feeds is not None:
            unknown_feed = unknown_feed or ev
        if home is not None:
            after[home].append(j)
        else:
            tails[dev].append(j)
    if unknown_feed is not None:
        raise ValueError(f"task {unknown_feed.id!r} feeds unknown task {_spelled(unknown_feed.feeds)!r}")
    kind += ["comm"] * len(local)
    sync += [False] * len(local)

    # Every device runs one program: per slot, the events spliced in before
    # it, its compute tasks and the events spliced in after it; then the
    # tail. Same-device event dependencies are pulled in ahead of their
    # dependents, depth first and without recursion, so every serial chain
    # taken from a program is a linear extension of the dependency graph
    # whatever order the caller built the event list in.
    placed = [False] * len(local)

    def emit(indices, program):
        for j in indices:
            if not placed[j] and all(map(placed.__getitem__, local[j])):
                placed[j] = True
                program.append(base + j)
            elif not placed[j]:
                todo = [(j, False)]  # (event index, dependencies placed), last first
                while todo:
                    k, ready = todo.pop()
                    if ready:
                        program.append(base + k)
                    elif not placed[k]:
                        placed[k] = True
                        todo.append((k, True))
                        todo += [(d, False) for d in reversed(local[k])]

    programs = {}
    for dev in sorted({s for s, slots in enumerate(schedule) if slots} | tails.keys()):
        program = programs[dev] = []
        for g in stage_slots.get(dev, ()):
            emit(before.get(g, ()), program)
            program += range(first[g], first[g] + len(tpl_of[g].kinds))
            emit(after.get(g, ()), program)
        emit(tails.get(dev, ()), program)

    # Each serial resource runs its share of the program in program order;
    # the host launches the whole program in that order.
    columns = engine.TaskColumns(
        duration, [host_time] * len(duration), device, resources, kind, sync, deps, programs, host_time > 0,
    )

    def names():
        slots = [slot_id(sl) + x for sl, tpl in zip(slot_at, tpl_of) for x in tpl.suffixes]
        return slots + transfers.ids() + [ev.id for ev in events]

    result = engine.run_columns(columns, names)
    begin, finish = result.begin, result.finish
    busy = tuple(reduce(add, duration[run], 0) for run in runs.values())
    bubble = 1.0 - reduce(add, busy, 0) / (p * result.makespan) if result.makespan > 0 else 0.0
    total_comm = reduce(add, duration[base:], 0)
    covered = {}  # event position -> time its device's compute covers
    for dev, program in programs.items():
        run = runs.get(dev, slice(0))  # no compute on a device without a stage
        comms = [i for i in program if i >= base]
        windows = [(begin[i], finish[i]) for i in comms]
        covered.update(zip(comms, oracle_covered_lengths(zip(begin[run], finish[run]), windows)))
    overlapped = reduce(add, map(covered.__getitem__, range(base, len(duration))), 0.0)
    return StepReport(
        step_time=result.makespan,
        bubble_ratio=bubble,
        comm_overlap_rate=1.0 if total_comm == 0 else overlapped / total_comm,
        exposed_comm_time=total_comm - overlapped,
        host_idle_time=reduce(add, result.host_delays(), 0),
        per_stage_busy=busy,
        timeline=result,
    )


def hop_program(seed, mechanism, nodes, pp, vpp, rounds, ep, hosted, overlap):
    """A small training step with both builders' hops and, after them,
    random hop rows into the slots those hops feed, with host dispatch and
    overlap as given."""
    rng = random.Random(seed)
    cfg = bench_model(num_layers=8, num_routed_experts=8)
    plan = ParallelPlan(tp=1, pp=pp, vpp=vpp, ep=ep, dp=ep, micro_batch_size=1)
    schedule = build_1f1b_schedule(pp, rounds * pp, vpp)
    hw = bench_cluster(num_nodes=nodes, host_dispatch_time=1e-6 if hosted else 0.0)
    layout = assign_chunks(cfg, plan)
    transfers = boundary_transfer_events(schedule, cfg, plan, hw)
    transfers += slot_dispatch_events(schedule, cfg, plan, layout, hw, mechanism)
    fed = list(dict.fromkeys(transfers.slots)) or range(sum(map(len, schedule)))
    transfers += random_transfers(rng, schedule, fed)
    policy = OverlapPolicy(overlap_comm=overlap, decouple_dw=rng.random() < 0.5, host_gmm_first=rng.random() < 0.5)
    return (schedule, chunk_costs_from_model(cfg, plan, layout, hw)), dict(policy=policy, hw=hw, transfers=transfers)


HOP_PROGRAMS = dict(
    seed=st.integers(0, 2**32 - 1),
    mechanism=st.sampled_from(MECHANISMS),
    nodes=st.sampled_from((1, 2, 4)),
    pp=st.integers(1, 4),
    vpp=st.integers(1, 2),
    rounds=st.integers(1, 3),
    ep=st.sampled_from((1, 2, 4)),
    hosted=st.booleans(),
    overlap=st.booleans(),
)


def one_resource(columns, overlap):
    """The oracle's task columns with one resource per task: each task runs
    on the last resource of its tuple. Without overlap the oracle put each
    hop on the compute chain as well, so its device ran its whole program
    one task at a time; here each hop gains a dependency on the task before
    it in the program instead, after which the task after a hop must wait
    on it."""
    resource = [res[-1] for res in columns.resource]
    deps = list(columns.deps)
    if not overlap:
        for program in columns.programs.values():
            assert all(columns.resource[i][0] == "compute" for i in program)
            for before, j in pairwise(program):
                if columns.kind[j] == "comm" and before not in deps[j]:
                    deps[j] += (before,)
                assert columns.kind[before] != "comm" or before in deps[j]
    return columns._replace(resource=resource, deps=deps)


def oracle_report(args, opts):
    """The oracle's step, its engine run on `one_resource` of its columns."""
    run = engine.run_columns
    engine.run_columns = lambda columns, names: run(one_resource(columns, opts["policy"].overlap_comm), names)
    try:
        return oracle_simulate_timeline(*args, **opts)
    finally:
        engine.run_columns = run


@settings(database=None, derandomize=True, max_examples=120, deadline=None)
@given(**HOP_PROGRAMS)
def test_hops_and_events_are_placed_like_the_oracle(**draw):
    """Hops placed by slot give the oracle's step, read through
    `one_resource`: the same task columns, programs with their key order,
    every view keyed by id (the chains cut from the programs among them)
    and every report figure, bit for bit."""
    args, opts = hop_program(**draw)
    rep, ref = simulate_timeline(*args, **opts), oracle_report(args, opts)
    got, want = rep.timeline.columns, ref.timeline.columns
    for field in ("duration", "device", "resource", "kind", "sync_host", "deps", "hosted"):
        assert getattr(got, field) == getattr(want, field), field
    assert list(got.programs.items()) == list(want.programs.items())
    assert got.hosted == draw["hosted"]
    for view in ("start", "end", "dispatch_end", "host_delay", "tasks", "chains"):
        assert list(getattr(rep.timeline, view).items()) == list(getattr(ref.timeline, view).items()), view
    figures = [f.name for f in dataclasses.fields(rep) if f.name != "timeline"]
    assert [repr(getattr(rep, f)) for f in figures] == [repr(getattr(ref, f)) for f in figures]


@settings(database=None, derandomize=True, max_examples=120, deadline=None)
@given(**HOP_PROGRAMS)
def test_compute_runs_and_link_chains_run_in_order_of_start(**draw):
    """What the overlap sweep takes unsorted: every stage's compute tasks,
    in position order, begin in order and do not overlap, and every link
    chain's tasks begin in order. Without overlap, what lets the step cut
    no chain: each device runs its program one task at a time, so no
    compute span covers any part of a hop."""
    tl = simulate(hop_program(**draw)).timeline
    c, begin, finish = tl.columns, tl.begin, tl.finish
    for s in range(draw["pp"]):
        run = [i for i, (d, k) in enumerate(zip(c.device, c.kind)) if d == s and k != "comm"]
        assert all(finish[i] <= begin[j] for i, j in zip(run, run[1:]))
        assert all(begin[i] <= begin[j] for i, j in zip(run, run[1:]))
    links = [[i for i in program if c.resource[i] == r] for program in c.programs.values()
             for r in {c.resource[i] for i in program} - {"compute"}]
    assert sum(map(len, links)) == c.kind.count("comm")
    for chain in links:
        assert all(begin[i] <= begin[j] for i, j in zip(chain, chain[1:]))
    if not draw["overlap"]:
        for program in c.programs.values():
            assert all(finish[i] <= begin[j] for i, j in zip(program, program[1:]))


@settings(database=None, derandomize=True, max_examples=120, deadline=None)
@given(**HOP_PROGRAMS)
def test_the_slot_walk_times_hop_programs_as_the_engine_does(**draw):
    """Both builders' hops, chained ones among them, and random rows after
    them: the walk still gives the engine's times and figures."""
    assert_walk_matches_engine(simulate(hop_program(**draw)), draw["overlap"])
