"""Pipeline schedules and the step timeline simulation.

The schedule is the one-forward-one-backward family: classic 1F1B when
vpp == 1, and the interleaved variant when vpp > 1 (which requires the
micro batch count to divide evenly by the stage count; plans violating
that are rejected at validation). The simulation turns the schedule's
slots and the transfers' hops into one ordered program per device: for
each slot in schedule order, the hops into it in row order, then its
compute tasks. Every task uses one serial resource (compute, inter_link or
intra_link); each resource runs the program's tasks that use it, in
program order, and the host launches the whole program in that order.
Every dependency points back in its program or into another device's, so
the engine times each program in one walk.

Tasks are integer positions. Each stage's compute tasks are one
contiguous run, in the order its compute chain runs them; the transfers'
hops follow in row order. The transfers come as ``SlotTransfers`` rows:
each hop names the slot it feeds by its number in schedule order and
carries its kind, resource, bytes and group size. The first hop into a
slot waits on the slot's dataflow parent, read from one parent table
(``dataflow_parent`` asked once per template key), and each later hop on
the hop before it. Slot ids (``{phase}:p{stage}:v{chunk}:m{micro_batch}``)
only spell task ids, which are spelled only when a timeline view keyed by
id is read.

The report gives step time, bubble fraction, communication overlap and
host-induced idle time. Every figure that adds floats is a left fold
(``functools.reduce``) in task or host order: from Python 3.12 ``sum()``
compensates its rounding, so its bits depend on the interpreter.
"""

from __future__ import annotations

import math
from collections import defaultdict, namedtuple
from dataclasses import dataclass
from functools import reduce
from itertools import chain, compress, count
from operator import add, itemgetter
from typing import NamedTuple

from . import engine
from .cluster import CommGroup, HardwareDescription, collective_time
from .model import ModelConfig
from .parallel import ParallelPlan
from .records import _require_nonnegative, bounded, check_fields

# Fractions of a forward chunk spent in the host-visible sub-ops when host
# dispatch is modeled. The grouped expert matmul dominates.
PREPROCESS_FRACTION = 0.05
PERMUTE_FRACTION = 0.15
GMM_FRACTION = 0.80

COMPUTE = "compute"

# A slot's compute tasks in launch order, and the index of the one
# downstream work waits on: never a deferred weight gradient.
_Parts = namedtuple("_Parts", "suffixes durations kinds syncs wait")


class ScheduleSlot(NamedTuple):
    pp_stage: int
    vpp_stage: int
    micro_batch: int
    phase: str  # "fwd" | "bwd"


# Builds a slot from a 4-tuple in C: the schedule and the parent table make
# one per slot, and the namedtuple's own constructor is a Python function.
_new_tuple = tuple.__new__


# A chunk's seconds: at most 1e300, so that no step's sum of them overflows.
CHUNK_SECONDS = "in [0, 1e300]"


@dataclass(frozen=True)
class ChunkCost:
    fwd: float = bounded(CHUNK_SECONDS)
    bwd: float = bounded(CHUNK_SECONDS)

    def __post_init__(self):
        check_fields(self, "ChunkCost.")


@dataclass(frozen=True)
class OverlapPolicy:
    """Which masking features the executor applies: comm overlapped with
    compute, the weight gradient (dw_fraction of the backward) decoupled
    from the input gradient, and the longer of a forward's grouped matmul
    and permute launched first on the host."""

    overlap_comm: bool = True
    decouple_dw: bool = True
    dw_fraction: float = bounded("in [0, 1)", default=0.3)
    host_gmm_first: bool = True

    def __post_init__(self):
        check_fields(self)


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
        fwd = [_new_tuple(ScheduleSlot, (s, c, mb, "fwd")) for c, mb in fwd_order]
        bwd = [_new_tuple(ScheduleSlot, (s, c, mb, "bwd")) for c, mb in bwd_order]
        steady = chain.from_iterable(zip(fwd[warmup:], bwd))
        stages.append([*fwd[:warmup], *steady, *bwd[total - warmup:]])
    return stages


# A slot's (phase, pp_stage, vpp_stage), which alone sets its compute parts
# and all of its dataflow parent but the micro batch.
template_key = itemgetter(3, 0, 1)


def dataflow_parent(slot: ScheduleSlot, p: int, v: int) -> ScheduleSlot | None:
    """The slot whose completion feeds this one, or None for graph sources."""
    s, c, mb, phase = slot
    if phase == "fwd":
        if s > 0:
            return _new_tuple(ScheduleSlot, (s - 1, c, mb, "fwd"))
        if c > 0:
            return _new_tuple(ScheduleSlot, (p - 1, c - 1, mb, "fwd"))
        return None
    if s < p - 1:
        return _new_tuple(ScheduleSlot, (s + 1, c, mb, "bwd"))
    if c < v - 1:
        return _new_tuple(ScheduleSlot, (0, c + 1, mb, "bwd"))
    return _new_tuple(ScheduleSlot, (p - 1, v - 1, mb, "fwd"))


def parents_by_key(keys, p: int, v: int) -> dict:
    """Each template key's dataflow parent at micro batch 0, or None at a
    graph source. A slot's parent has the slot's micro batch and the rest
    from this table, so the rule is read once per key, not once per slot."""
    return {(phase, s, c): dataflow_parent(ScheduleSlot(s, c, 0, phase), p, v) for phase, s, c in keys}


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
    chained one waits on the hop before it, which must feed the same slot:
    a chained first row, or one whose previous row feeds another slot, is
    refused. ``len()`` is the hop count, and ``a + b`` lists a's hops, then
    b's. Ids are spelled only by ``ids``.
    """

    __slots__ = ("schedule", "slots", "hops", "shapes")

    def __init__(self, schedule, slots=(), hops=(), shapes=()):
        self.schedule = schedule
        self.slots, self.hops, self.shapes = list(slots), list(hops), list(shapes)
        if len(self.slots) != len(self.hops):
            raise ValueError(f"{len(self.slots)} slot numbers for {len(self.hops)} hops")
        slot_count = sum(map(len, schedule))
        for name, column, size in (("slot", self.slots, slot_count), ("shape", self.hops, len(self.shapes))):
            if column and not 0 <= min(column) <= max(column) < size:
                raise ValueError(f"a hop's {name} number is outside [0, {size})")
        chained = [sh.chained for sh in self.shapes]
        if any(chained):  # the boundary transfers have no chained shape and skip the pass
            slots = self.slots
            for i in compress(count(), map(chained.__getitem__, self.hops)):
                if i == 0 or slots[i - 1] != slots[i]:
                    before = "it is the first row" if i == 0 else f"row {i - 1} feeds slot {slots[i - 1]}"
                    raise ValueError(f"hop row {i} is chained to the hop before it into slot {slots[i]}, but {before}")

    def __len__(self) -> int:
        return len(self.slots)

    def __add__(self, other: SlotTransfers) -> SlotTransfers:
        if not isinstance(other, SlotTransfers):
            return NotImplemented
        if other.schedule is not self.schedule:
            raise ValueError("transfers built for different schedules cannot be joined")
        # Both sides passed the checks, and b's first row, the only one that
        # meets a new row before it, is not chained: the join needs none.
        joined = object.__new__(SlotTransfers)
        joined.schedule = self.schedule
        joined.slots, joined.shapes = self.slots + other.slots, self.shapes + other.shapes
        joined.hops = self.hops + list(map(len(self.shapes).__add__, other.hops))
        return joined

    def ids(self) -> list:
        flat = [sl for slots in self.schedule for sl in slots]
        shapes = self.shapes
        return [shapes[h].prefix + slot_id(flat[g]) + shapes[h].suffix for g, h in zip(self.slots, self.hops)]


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


def _step_program(schedule, chunk_costs, policy: OverlapPolicy, hw: HardwareDescription | None,
                  transfers: SlotTransfers) -> tuple:
    """(task columns, compute-part templates by template key, each stage's
    compute run, each device's link chains) of one step. The tables only
    the build reads (slot numbers, parent table, hops by slot, priced
    shapes) end with this frame, before the engine walks the columns."""
    host_time = hw.host_dispatch_time if hw is not None else 0.0

    # Task positions: each slot's compute tasks in schedule order, then the
    # transfers' hops in row order. Parts are derived once per template key,
    # and each key's slots are numbered by micro batch.
    numbered, stage_slots = {}, []  # numbered: template key -> (parts, {micro batch: slot number})
    runs = []  # by stage: slice of its compute task positions
    first, wait = [], []  # by slot number: its first task, the task downstream work waits on
    duration, kind, sync, device = [], [], [], []
    for s, slots in enumerate(schedule):
        stage_slots.append(range(len(first), len(first) + len(slots)))
        for g, sl in enumerate(slots, len(first)):
            key = template_key(sl)
            entry = numbered.get(key)
            if entry is None:
                parts = _slot_parts(key[0], chunk_costs[key[1:]], policy, host_time > 0)
                tpl = _Parts(*zip(*parts), len(parts) - 1 - (parts[-1][2] == "bwd_dw"))
                entry = numbered[key] = (tpl, {})
            tpl, by_batch = entry
            if by_batch.setdefault(sl[2], g) != g:
                raise ValueError(f"duplicate task id {slot_id(sl) + tpl.suffixes[0]!r}")
            f = len(duration)
            first.append(f)
            wait.append(f + tpl.wait)
            duration += tpl.durations
            kind += tpl.kinds
            sync += tpl.syncs
        runs.append(slice(len(device), len(duration)))
        device += [s] * (len(duration) - len(device))
    base = len(duration)
    ends = first[1:] + [base]  # slot number -> end of its compute tasks

    # Hop rows. A hop feeds a slot on its own device and waits on the slot's
    # parent or on the hop before it, which feeds the same slot, so its rows
    # come straight from the columns. Pricing is pure, so each distinct
    # (kind, resource, bytes, group size) is priced once, and its bytes
    # checked then.
    hop_slots, hop_shapes, shapes = transfers.slots, transfers.hops, transfers.shapes
    cost = dict.fromkeys(hop_shapes)  # the shapes in use, in the order of their first hop
    priced = {}
    for h in cost:
        shape = shapes[h][:4]
        if shape not in priced:
            _require_nonnegative(lambda h=h: f"event {transfers.ids()[hop_shapes.index(h)]!r} bytes", shape[2])
            priced[shape] = _comm_seconds(*shape, hw)
        cost[h] = priced[shape]
    links = [sh.resource for sh in shapes]
    chained = [sh.chained for sh in shapes]
    # The parent table: what the first part of each slot waits on, by slot
    # number: its dataflow parent's waited-on part, or nothing at a graph
    # source. The hops feeding a slot, in row order, run on its device just
    # before it, and its first part waits on its parent, then on them.
    up = parents_by_key(numbered, len(schedule), 1 + max((key[2] for key in numbered), default=0))
    parent_wait = [()] * len(first)
    for key, (_, by_batch) in numbered.items():
        parent = numbered.get(template_key(up[key])) if up[key] is not None else None
        if parent is not None:
            for g, pg in zip(by_batch.values(), map(parent[1].get, by_batch)):
                if pg is not None:
                    parent_wait[g] = (wait[pg],)
    fed = [[] for _ in first]  # slot number -> positions of the hops feeding it
    for j, g in zip(count(base), hop_slots):
        fed[g].append(j)
    deps = [()] * base
    for f, dep, hops_in in zip(first, parent_wait, fed):
        deps[f] = (*dep, *hops_in)
    device += map(device.__getitem__, map(first.__getitem__, hop_slots))
    duration += map(cost.__getitem__, hop_shapes)
    resource = [COMPUTE] * base
    resource += map(links.__getitem__, hop_shapes)
    deps += [(j - 1,) if chained[h] else parent_wait[g] for j, g, h in zip(count(base), hop_slots, hop_shapes)]
    kind += ["comm"] * len(hop_slots)
    sync += [False] * len(hop_slots)

    # Every device runs one program: per slot, the hops into it, then its
    # compute tasks. Only the overlap statistic reads the link chains: each
    # device's hops cut by resource, in program order. Without overlap,
    # comm runs alone on its device: each hop waits on the task before it
    # in the program. The task after a hop then waits on it too: a hop by
    # this rule, a slot's first task because it waits on every hop feeding
    # it. The device then runs its program one task at a time, so no
    # compute span covers any part of a hop, and no chain is cut.
    programs, link_chains = {}, {}  # link_chains: device -> its link resources' chains
    serial = not policy.overlap_comm
    for dev, numbers in enumerate(stage_slots):
        if numbers:
            program = programs[dev] = []
            cuts, before = defaultdict(list), None  # before: the last task placed
            for g in numbers:
                hops_in = fed[g]
                if serial:
                    for j in hops_in:
                        if before is not None and before not in deps[j]:
                            deps[j] += (before,)
                        before = j
                else:
                    for j in hops_in:
                        cuts[resource[j]].append(j)
                program += hops_in
                program += range(first[g], ends[g])
                before = program[-1]
            if cuts:
                link_chains[dev] = list(cuts.values())
    columns = engine.TaskColumns(
        duration, [host_time] * len(duration), device, resource, kind, sync, deps, programs, host_time > 0,
    )
    return columns, {key: tpl for key, (tpl, _) in numbered.items()}, runs, link_chains


def simulate_timeline(
    schedule,
    chunk_costs,
    *,
    policy: OverlapPolicy | None = None,
    hw: HardwareDescription | None = None,
    transfers: SlotTransfers | None = None,
) -> StepReport:
    """Execute the schedule plus its transfers and measure the step.

    chunk_costs maps (pp_stage, vpp_stage) to ChunkCost. ``transfers``, a
    ``SlotTransfers`` built on this schedule, take task positions after the
    compute tasks. Each slot's hops go into its device's program just before
    it, in row order. Comm runs on its link resource; with
    policy.overlap_comm False each hop also waits on the task before it in
    its device's program, so a device runs its program one task at a time
    and comm is fully exposed. The overlap statistic sweeps each link chain
    against its device's compute spans, both in order of start, and folds
    the covered lengths in task order; without overlap each is zero. Backward slots are split into an
    immediate part and a deferrable weight-gradient part when
    policy.decouple_dw is set; downstream work waits only on the immediate
    part. Host dispatch is modeled when hw.host_dispatch_time > 0.
    """
    policy = policy or OverlapPolicy()
    transfers = transfers if transfers is not None else SlotTransfers(schedule)
    if transfers.schedule is not schedule and transfers.schedule != schedule:
        raise ValueError("transfers were built on another schedule")
    if transfers and hw is None:
        raise ValueError("hw is required when transfers are present")
    columns, templates, runs, link_chains = _step_program(schedule, chunk_costs, policy, hw, transfers)

    def names():
        return [slot_id(sl) + x for stage in schedule for sl in stage
                for x in templates[template_key(sl)].suffixes] + transfers.ids()

    result = engine.run_columns(columns, names)
    begin, finish, duration = result.begin, result.finish, columns.duration
    base = len(duration) - len(transfers)
    busy = tuple(reduce(add, duration[run], 0) for run in runs)
    bubble = 1.0 - reduce(add, busy, 0) / (len(schedule) * result.makespan) if result.makespan > 0 else 0.0
    total_comm = reduce(add, duration[base:], 0)
    # With overlap every comm task is on one link chain; without, none is,
    # and none is covered. A stage's compute run and each chain run in
    # order of start, so each chain's windows sweep its device's compute
    # spans in one pass, merged once per device.
    covered = [0.0] * (len(duration) - base)  # by hop
    for dev, lanes in link_chains.items():
        spans = engine.merged_intervals(zip(begin[runs[dev]], finish[runs[dev]]))
        for lane in lanes:
            windows = zip(map(begin.__getitem__, lane), map(finish.__getitem__, lane))
            for i, c in zip(lane, engine.covered_lengths(spans, windows)):
                covered[i - base] = c
    overlapped = reduce(add, covered, 0.0)
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
    if not step_time < math.inf:
        raise ValueError(f"step_time is {step_time!r}: the cluster's intra_node_latency, inter_node_latency "
                         "or host_dispatch_time is too large to time a step")
    if plan.global_batch_size <= 0:
        raise ValueError("plan.global_batch_size must be set")
    tokens = plan.global_batch_size * cfg.seq_len
    tps = tokens / step_time
    fwd = flops_per_token(cfg).forward_per_token
    peak = hw.peak_for_dtype_bytes(cfg.dtype_bytes)
    mfu = tps * fwd * 3.0 / (hw.world_size * peak)
    return mfu, tps
