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
launches the whole program in that order.

Tasks are integer positions. Each stage's compute tasks are one
contiguous run, in the order its compute chain runs them; the transfers'
hops follow, then the events, in event order. The training step's
transfers come as ``SlotTransfers`` rows: each hop names the slot it feeds
by its number in schedule order and carries its kind, resource, bytes and
group size. The first hop into a slot waits on the slot's dataflow parent,
read from one parent table (one ``dataflow_parent`` call per slot), and
each later hop on the hop before it. Hand-built CommEvents name a slot by
its ScheduleSlot record and an event by its id; a reference to neither is
rejected, and no CommEvent can name a transfer by id. Hops and events
become the same event rows, and from there one program per device. Slot
ids (``{phase}:p{stage}:v{chunk}:m{micro_batch}``) only spell task ids,
which are spelled only when a timeline view keyed by id is read or
``SlotTransfers.events()`` is called.

The report gives step time, bubble fraction, communication overlap and
host-induced idle time. Every figure that adds floats is a left fold
(``functools.reduce``) in task, event or host order: from Python 3.12
``sum()`` compensates its rounding, so its bits depend on the interpreter.
"""

from __future__ import annotations

import math
from collections import defaultdict, namedtuple
from dataclasses import dataclass
from functools import reduce
from itertools import count
from operator import add
from typing import NamedTuple

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

COMPUTE = ("compute",)

# A slot's compute tasks in launch order, and the index of the one
# downstream work waits on: never a deferred weight gradient.
_Parts = namedtuple("_Parts", "suffixes durations kinds syncs wait")


class ScheduleSlot(NamedTuple):
    pp_stage: int
    vpp_stage: int
    micro_batch: int
    phase: str  # "fwd" | "bwd"


def _require_nonnegative(name, value) -> None:
    """name is the string the error names, or a function spelling it."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not 0 <= value < math.inf:
        raise ValueError(f"{name() if callable(name) else name} must be a finite number >= 0, got {value!r}")


@dataclass(frozen=True)
class ChunkCost:
    fwd: float
    bwd: float

    def __post_init__(self):
        _require_nonnegative("ChunkCost.fwd", self.fwd)
        _require_nonnegative("ChunkCost.bwd", self.bwd)


@dataclass(frozen=True)
class OverlapPolicy:
    """Which masking features the executor applies: comm overlapped with
    compute, the weight gradient (dw_fraction of the backward) decoupled
    from the input gradient, and the longer of a forward's grouped matmul
    and permute launched first on the host."""

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
    timeline: engine.TimelineResult | None = None


def analytic_bubble_ratio(p: int, m: int, v: int = 1) -> float:
    """Idle fraction of an ideal interleaved 1F1B pipeline."""
    if min(p, m, v) < 1:
        raise ValueError("p, m, and v must be >= 1")
    return (p - 1) / (v * m + p - 1)


def slot_id(slot: ScheduleSlot) -> str:
    return f"{slot.phase}:p{slot.pp_stage}:v{slot.vpp_stage}:m{slot.micro_batch}"


def _spelled(ref) -> str:
    """An event's slot or event reference as error messages name it."""
    return ref if isinstance(ref, str) else slot_id(ref)


def _interleaved_order(i: int, p: int, v: int, backward: bool):
    group, r = divmod(i, p * v)
    chunk, lane = divmod(r, p)
    if backward:
        chunk = v - 1 - chunk
    return chunk, group * p + lane


def warmup_forwards(p: int, stage: int, v: int = 1) -> int:
    """Forwards stage ``stage`` runs before its first backward in the
    (interleaved) 1F1B schedule, before capping at the m * v chunks that
    exist."""
    if v == 1:
        return p - stage - 1
    return (p - stage - 1) * 2 + (v - 1) * p


def build_1f1b_schedule(p: int, m: int, v: int = 1) -> list:
    """Per-stage slot sequences for the (interleaved) 1F1B schedule: each
    stage runs its warm-up forwards, then alternates one forward with one
    backward, then drains the remaining backwards."""
    if min(p, m, v) < 1:
        raise ValueError("p, m, and v must be >= 1")
    if v > 1 and m % p:
        raise ValueError("interleaved schedule requires micro_batches % pp == 0")
    total = m * v
    fwd_order = [_interleaved_order(i, p, v, False) for i in range(total)]
    bwd_order = [_interleaved_order(i, p, v, True) for i in range(total)]
    stages = []
    for s in range(p):
        warmup = min(warmup_forwards(p, s, v), total)
        phases = ["fwd"] * warmup + ["fwd", "bwd"] * (total - warmup) + ["bwd"] * warmup
        order = {"fwd": iter(fwd_order), "bwd": iter(bwd_order)}
        stages.append([ScheduleSlot(s, *next(order[ph]), ph) for ph in phases])
    return stages


def dataflow_parent(slot: ScheduleSlot, p: int, v: int) -> ScheduleSlot | None:
    """The slot whose completion feeds this one, or None for graph sources."""
    s, c, mb, phase = slot
    if phase == "fwd":
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


def _comm_seconds(kind: str, resource: str, nbytes: float, group_size: int, hw: HardwareDescription) -> float:
    """A collective over the transfer's group; a plain transfer is a p2p."""
    kind, size = (kind, group_size) if group_size > 1 else ("p2p", 2)
    return collective_time(kind, nbytes, CommGroup(size, *hw.tier(resource)))


# What the hops of one shape share: kind, resource, bytes and group size,
# which price and place them; whether each waits on the hop before it
# instead of on its slot's dataflow parent; and the prefix and suffix its
# id puts around the slot id.
HopShape = namedtuple("HopShape", "kind resource bytes group_size chained prefix suffix")


class SlotTransfers:
    """The transfers that feed a schedule's slots, one row per hop.

    Hop i feeds slot ``slots[i]``, numbered in schedule order (stage by
    stage, each stage's slots in order), and runs on that slot's stage; its
    shape is ``shapes[hops[i]]``, a ``HopShape``. A hop that is not chained
    waits on its slot's dataflow parent (on nothing at a graph source); a
    chained one waits on the hop before it, which must feed the same slot.
    ``len()`` is the hop count, and ``a + b`` lists a's hops, then b's.
    Ids are spelled only by ``ids`` and ``events``.
    """

    __slots__ = ("schedule", "vpp", "slots", "hops", "shapes")

    def __init__(self, schedule, vpp: int, slots=(), hops=(), shapes=()):
        self.schedule, self.vpp = schedule, vpp
        self.slots, self.hops, self.shapes = list(slots), list(hops), list(shapes)
        if len(self.slots) != len(self.hops):
            raise ValueError(f"{len(self.slots)} slot numbers for {len(self.hops)} hops")
        slot_count = sum(map(len, schedule))
        for name, column, size in (("slot", self.slots, slot_count), ("shape", self.hops, len(self.shapes))):
            if column and not 0 <= min(column) <= max(column) < size:
                raise ValueError(f"a hop's {name} number is outside [0, {size})")

    def __len__(self) -> int:
        return len(self.slots)

    def __add__(self, other: SlotTransfers) -> SlotTransfers:
        if not isinstance(other, SlotTransfers):
            return NotImplemented
        if other.schedule is not self.schedule or other.vpp != self.vpp:
            raise ValueError("transfers built for different schedules cannot be joined")
        offset = len(self.shapes)
        hops = self.hops + [h + offset for h in other.hops]
        return SlotTransfers(self.schedule, self.vpp, self.slots + other.slots, hops, self.shapes + other.shapes)

    def ids(self) -> list:
        flat = [sl for slots in self.schedule for sl in slots]
        shapes = self.shapes
        return [shapes[h].prefix + slot_id(flat[g]) + shapes[h].suffix for g, h in zip(self.slots, self.hops)]

    def events(self) -> list:
        """The hops as ``CommEvent`` records, in hop order."""
        flat = [sl for slots in self.schedule for sl in slots]
        events = []
        for eid, g, h in zip(self.ids(), self.slots, self.hops):
            kind, resource, nbytes, group, chained = self.shapes[h][:5]
            sl = flat[g]
            if chained:
                prior = (events[-1].id,)
            else:
                parent = dataflow_parent(sl, len(self.schedule), self.vpp)
                prior = (parent,) if parent is not None else ()
            events.append(CommEvent(eid, kind, resource, nbytes, prior, sl.pp_stage, group, sl))
        return events


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
    transfers: SlotTransfers | None = None,
) -> StepReport:
    """Execute the schedule plus comm events and measure the step.

    chunk_costs maps (pp_stage, vpp_stage) to ChunkCost. ``transfers``, a
    ``SlotTransfers`` built on this schedule, are placed first and the
    ``CommEvent``s after them; a CommEvent cannot name a transfer by id.
    Comm events run on their link resource; with policy.overlap_comm False
    they additionally occupy the device's compute stream (fully exposed),
    inserted right before the slot each one feeds. Backward slots are split
    into an immediate part and a deferrable weight-gradient part when
    policy.decouple_dw is set; downstream work waits only on the immediate
    part. Host dispatch is modeled when hw.host_dispatch_time > 0.
    """
    policy = policy or OverlapPolicy()
    events = tuple(comm_events)
    transfers = transfers if transfers is not None else SlotTransfers(schedule, 1)
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
    chains = {}
    for dev, program in programs.items():
        for pos in program:
            for r in resources[pos]:
                chains.setdefault((dev, r), []).append(pos)
    columns = engine.TaskColumns(
        duration, [host_time] * len(duration), device, resources, kind, sync, deps, chains,
        programs if host_time > 0 else {},
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
        covered.update(zip(comms, engine.covered_lengths(zip(begin[run], finish[run]), windows)))
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
