"""Pipeline schedules and the step timeline simulation.

The schedule is the one-forward-one-backward family: classic 1F1B when
vpp == 1, and the interleaved variant when vpp > 1 (which requires the
micro batch count to divide evenly by the stage count; plans violating
that are rejected at validation). The simulation turns the schedule's
slots and any communication events into one ordered program per device:
for each slot in schedule order, the events spliced in before it, its
compute tasks, and the events spliced in after it, then the device's
remaining events. Each serial resource (compute, inter_link, intra_link)
runs the program's tasks that use it, in program order, and the host
launches the whole program in that order. The report gives step time,
bubble fraction, communication overlap, and host-induced idle time.

Slot ids follow ``{phase}:p{stage}:v{chunk}:m{micro_batch}`` and may be
referenced from CommEvent dependencies and ``feeds``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import engine
from .cluster import CommGroup, HardwareDescription, collective_time
from .comm import CommEvent
from .model import ModelConfig
from .parallel import ParallelPlan

# Fractions of a forward chunk spent in the host-visible sub-ops when host
# dispatch is modeled. The grouped expert matmul dominates.
PREPROCESS_FRACTION = 0.05
PERMUTE_FRACTION = 0.15
GMM_FRACTION = 0.80


@dataclass(frozen=True)
class ScheduleSlot:
    pp_stage: int
    vpp_stage: int
    micro_batch: int
    phase: str  # "fwd" | "bwd"


@dataclass(frozen=True)
class ChunkCost:
    fwd: float
    bwd: float


@dataclass(frozen=True)
class OverlapPolicy:
    """Which masking features the executor applies."""

    overlap_comm: bool = True
    decouple_dw: bool = True
    dw_fraction: float = 0.3
    host_gmm_first: bool = True

    def __post_init__(self):
        if not 0 <= self.dw_fraction < 1:
            raise ValueError("dw_fraction must be in [0, 1)")


SERIALIZED = OverlapPolicy(overlap_comm=False, decouple_dw=False, host_gmm_first=False)


@dataclass
class StepReport:
    step_time: float
    bubble_ratio: float
    comm_overlap_rate: float
    exposed_comm_time: float
    host_idle_time: float
    per_stage_busy: tuple
    mfu: float = 0.0
    tps: float = 0.0
    timeline: engine.TimelineResult | None = None


def analytic_bubble_ratio(p: int, m: int, v: int = 1) -> float:
    """Idle fraction of an ideal interleaved 1F1B pipeline."""
    if min(p, m, v) < 1:
        raise ValueError("p, m, and v must be >= 1")
    return (p - 1) / (v * m + p - 1)


def slot_id(slot: ScheduleSlot) -> str:
    return f"{slot.phase}:p{slot.pp_stage}:v{slot.vpp_stage}:m{slot.micro_batch}"


def _interleaved_order(i: int, p: int, v: int, backward: bool):
    group, r = divmod(i, p * v)
    chunk, lane = divmod(r, p)
    if backward:
        chunk = v - 1 - chunk
    return chunk, group * p + lane


def build_1f1b_schedule(p: int, m: int, v: int = 1) -> list:
    """Per-stage slot sequences for the (interleaved) 1F1B schedule."""
    if min(p, m, v) < 1:
        raise ValueError("p, m, and v must be >= 1")
    if v > 1 and m % p:
        raise ValueError("interleaved schedule requires micro_batches % pp == 0")
    total = m * v
    stages = []
    for s in range(p):
        if v == 1:
            warmup = min(p - s - 1, m)
            fwd_order = [(0, mb) for mb in range(m)]
            bwd_order = [(0, mb) for mb in range(m)]
        else:
            warmup = min((p - s - 1) * 2 + (v - 1) * p, total)
            fwd_order = [_interleaved_order(i, p, v, False) for i in range(total)]
            bwd_order = [_interleaved_order(i, p, v, True) for i in range(total)]
        slots = []
        fi = bi = 0
        while fi < warmup:
            c, mb = fwd_order[fi]
            fi += 1
            slots.append(ScheduleSlot(s, c, mb, "fwd"))
        while fi < total:
            c, mb = fwd_order[fi]
            fi += 1
            slots.append(ScheduleSlot(s, c, mb, "fwd"))
            c, mb = bwd_order[bi]
            bi += 1
            slots.append(ScheduleSlot(s, c, mb, "bwd"))
        while bi < total:
            c, mb = bwd_order[bi]
            bi += 1
            slots.append(ScheduleSlot(s, c, mb, "bwd"))
        stages.append(slots)
    return stages


def dataflow_parent(slot: ScheduleSlot, p: int, v: int) -> ScheduleSlot | None:
    """The slot whose completion feeds this one, or None for graph sources."""
    s, c, mb = slot.pp_stage, slot.vpp_stage, slot.micro_batch
    if slot.phase == "fwd":
        if s > 0:
            return ScheduleSlot(s - 1, c, mb, "fwd")
        if c > 0:
            return ScheduleSlot(p - 1, c - 1, mb, "fwd")
        return None
    if s < p - 1:
        return ScheduleSlot(s + 1, c, mb, "bwd")
    if c < v - 1:
        return ScheduleSlot(0, c + 1, mb, "bwd")
    return ScheduleSlot(p - 1, v - 1, mb, "fwd")


def uniform_chunk_costs(p: int, v: int, fwd: float, bwd: float) -> dict:
    return {(s, c): ChunkCost(fwd, bwd) for s in range(p) for c in range(v)}


def _comm_seconds(ev: CommEvent, hw: HardwareDescription) -> float:
    latency, bandwidth = hw.tier(ev.resource)
    if ev.group_size > 1:
        group = CommGroup(ev.group_size, ev.resource == "inter_link", latency, bandwidth)
        return collective_time(ev.kind, ev.bytes, group)
    return latency + ev.bytes / bandwidth


def _slot_parts(phase: str, cost: ChunkCost, policy: OverlapPolicy, split_fwd: bool) -> list:
    """(id suffix, duration, kind, sync_host) of one slot's compute tasks,
    in launch order."""
    if phase == "fwd" and split_fwd:
        ops = [
            (":permute", PERMUTE_FRACTION * cost.fwd, "permute", False),
            (":gmm", GMM_FRACTION * cost.fwd, "gmm", False),
        ]
        if policy.host_gmm_first:
            # Dispatch the longer device-side op first.
            ops.sort(key=lambda q: -q[1])
        return [(":pre", PREPROCESS_FRACTION * cost.fwd, "preprocess", True)] + ops
    if phase == "bwd" and policy.decouple_dw and cost.bwd > 0:
        return [
            (":dx", (1 - policy.dw_fraction) * cost.bwd, "bwd_dx", False),
            (":dw", policy.dw_fraction * cost.bwd, "bwd_dw", False),
        ]
    return [("", cost.fwd if phase == "fwd" else cost.bwd, phase, False)]


def simulate_timeline(
    schedule,
    chunk_costs,
    comm_events=(),
    policy: OverlapPolicy | None = None,
    hw: HardwareDescription | None = None,
) -> StepReport:
    """Execute the schedule plus comm events and measure the step.

    chunk_costs maps (pp_stage, vpp_stage) to ChunkCost. Comm events run on
    their link resource; with policy.overlap_comm False they additionally
    occupy the device's compute stream (fully exposed), inserted right
    before the slot each one feeds. Backward slots are split into an
    immediate part and a deferrable weight-gradient part when
    policy.decouple_dw is set; downstream work waits only on the immediate
    part. Host dispatch is modeled when hw.host_dispatch_time > 0.
    """
    policy = policy or OverlapPolicy()
    if comm_events and hw is None:
        raise ValueError("hw is required when comm events are present")
    p = len(schedule)
    v = 1 + max((sl.vpp_stage for slots in schedule for sl in slots), default=0)
    host_time = hw.host_dispatch_time if hw is not None else 0.0

    def parts_of(sl):
        return _slot_parts(sl.phase, chunk_costs[(sl.pp_stage, sl.vpp_stage)], policy, host_time > 0)

    # slot id -> (first task id, task id downstream deps wait on, device, slot index)
    anchors = {}
    for s, slots in enumerate(schedule):
        for idx, sl in enumerate(slots):
            sid = slot_id(sl)
            parts = parts_of(sl)
            # Downstream work never waits on a deferred weight gradient.
            wait = parts[-2][0] if parts[-1][2] == "bwd_dw" else parts[-1][0]
            anchors[sid] = (sid + parts[0][0], sid + wait, s, idx)

    feeders = {}  # task id -> comm events that feed it, in event order
    for ev in comm_events:
        if ev.feeds is not None:
            target = anchors[ev.feeds][0] if ev.feeds in anchors else ev.feeds
            feeders.setdefault(target, []).append(ev.id)

    # Every device runs one program, cut into segments keyed
    # (device, slot index, side): side 0 holds the comm events spliced in
    # before the slot, side 1 the slot's compute tasks, side 2 the comm
    # events spliced in after it. The tail segment follows every slot.
    # Each task is built once, with all its deps. Deriving the slot parts
    # again keeps them out of memory while the engine runs.
    segments = {}
    tasks = []
    for s, slots in enumerate(schedule):
        for idx, sl in enumerate(slots):
            sid = slot_id(sl)
            parent = dataflow_parent(sl, p, v)
            upstream = anchors.get(slot_id(parent)) if parent is not None else None
            parts = parts_of(sl)
            ids = [sid + suffix for suffix, _, _, _ in parts]
            for tid, (_, dur, kind, sync) in zip(ids, parts):
                deps = (upstream[1],) if upstream is not None and tid == ids[0] else ()
                tasks.append(
                    engine.Task(
                        tid,
                        device=s,
                        resources=("compute",),
                        duration=dur,
                        deps=deps + tuple(feeders.get(tid, ())),
                        kind=kind,
                        host_time=host_time,
                        sync_host=sync,
                    )
                )
            segments[(s, idx, 1)] = ids

    comm_tasks = [
        engine.Task(
            ev.id,
            device=ev.device,
            resources=(ev.resource,) if policy.overlap_comm else ("compute", ev.resource),
            duration=_comm_seconds(ev, hw),
            deps=tuple(anchors[d][1] if d in anchors else d for d in ev.dependencies)
            + tuple(feeders.get(ev.id, ())),
            kind="comm",
            host_time=host_time,
        )
        for ev in comm_events
    ]

    def segment(ev):
        """Just before the same-device slot the event feeds, else just after
        the last same-device slot it consumes from, else the tail."""
        fed = anchors.get(ev.feeds)
        if fed is not None and fed[2] == ev.device:
            return (ev.device, fed[3], 0)
        for d in reversed(ev.dependencies):
            if d in anchors and anchors[d][2] == ev.device:
                return (ev.device, anchors[d][3], 2)
        return (ev.device, math.inf, 0)

    # Same-device event dependencies are pulled into the segment ahead of
    # their dependents, so every serial chain taken from a program is a
    # linear extension of the dependency graph whatever order the caller
    # built the event list in.
    by_event = {ev.id: ev for ev in comm_events}
    placed = set()

    def emit(ev, ids):
        if ev.id in placed:
            return
        placed.add(ev.id)
        for d in ev.dependencies:
            dep = by_event.get(d)
            if dep is not None and dep.device == ev.device:
                emit(dep, ids)
        ids.append(ev.id)

    for key, _, ev in sorted((segment(ev), i, ev) for i, ev in enumerate(comm_events)):
        emit(ev, segments.setdefault(key, []))
    programs = {}
    for (dev, _, _), ids in sorted(segments.items()):
        programs.setdefault(dev, []).extend(ids)

    all_tasks = tasks + comm_tasks
    # Each serial resource runs its share of the program in program order;
    # the host launches the whole program in that order.
    resources = {t.id: t.resources for t in all_tasks}
    chains = {}
    for dev, program in programs.items():
        for tid in program:
            for r in resources[tid]:
                chains.setdefault((dev, r), []).append(tid)
    result = engine.run_tasks(all_tasks, chains, programs if host_time > 0 else None)

    compute_kinds = {"fwd", "bwd", "bwd_dx", "bwd_dw", "preprocess", "permute", "gmm"}
    busy = []
    for s in range(p):
        total = sum(
            result.tasks[tid].duration
            for tid in result.chains.get((s, "compute"), ())
            if result.tasks[tid].kind in compute_kinds
        )
        busy.append(total)
    makespan = result.makespan
    bubble = 0.0
    if makespan > 0:
        bubble = 1.0 - sum(busy) / (p * makespan)

    total_comm = sum(t.duration for t in comm_tasks)
    overlapped = 0.0
    merged = {}
    for t in comm_tasks:
        if t.device not in merged:
            merged[t.device] = engine.merged_busy_intervals(
                result, t.device, kinds=compute_kinds
            )
        overlapped += engine.overlap_with(
            merged[t.device], result.start[t.id], result.end[t.id]
        )
    exposed = total_comm - overlapped
    rate = 1.0 if total_comm == 0 else overlapped / total_comm

    host_idle = sum(result.host_delay.values())

    return StepReport(
        step_time=makespan,
        bubble_ratio=bubble,
        comm_overlap_rate=rate,
        exposed_comm_time=exposed,
        host_idle_time=host_idle,
        per_stage_busy=tuple(busy),
        timeline=result,
    )


def summarize(
    step_time: float,
    cfg: ModelConfig,
    plan: ParallelPlan,
    hw: HardwareDescription,
) -> tuple:
    """(mfu, tokens_per_second) for one training step of the given length."""
    from .model import flops_per_token

    if step_time <= 0:
        raise ValueError("step_time must be positive")
    if plan.global_batch_size <= 0:
        raise ValueError("plan.global_batch_size must be set")
    tokens = plan.global_batch_size * cfg.seq_len
    tps = tokens / step_time
    fwd = flops_per_token(cfg).forward_per_token
    peak = hw.peak_for_dtype_bytes(cfg.dtype_bytes)
    mfu = tps * fwd * 3.0 / (hw.world_size * peak)
    return mfu, tps
