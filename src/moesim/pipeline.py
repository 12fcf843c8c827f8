"""Pipeline schedules and the step timeline simulation.

The schedule is the one-forward-one-backward family: classic 1F1B when
vpp == 1, and the interleaved variant when vpp > 1 (which requires the
micro batch count to divide evenly by the stage count; plans violating
that are rejected at validation). Each device runs one program: for each
slot in schedule order, the hops into it in row order, then its compute
tasks. Every task uses one serial resource (compute, inter_link or
intra_link); each resource runs the program's tasks that use it, in
program order, and the host launches the whole program in that order.

The step is timed by the slot walk, with no task columns: one walk per
device over its slots in schedule order, timing the hops into each slot,
then its compute parts from the template of its key. A walk parks only
on the waited-on part of its slot's dataflow parent, read from one parent
table (``dataflow_parent`` asked once per template key). The same walk
folds each stage's busy time, records each nonzero host delay in host
order, merges the device's compute spans and measures each hop's covered
length once the hop is timed. The times equal `engine.run_columns`'s on
the step's task columns bit for bit; those columns, the general engine's
input, are built only when the timeline's ``columns`` or a view is read.

Tasks are integer positions. Each stage's compute tasks are one
contiguous run, in the order its compute chain runs them; the transfers'
hops follow in row order. The transfers come as ``SlotTransfers`` rows:
each hop names the slot it feeds by its number in schedule order and
carries its kind, resource, bytes and group size. The first hop into a
slot waits on the slot's dataflow parent, and each later hop on the hop
before it. Slot ids (``{phase}:p{stage}:v{chunk}:m{micro_batch}``) only
spell task ids, which are spelled only when a timeline view keyed by id
is read.

The report gives step time, bubble fraction, communication overlap and
host-induced idle time. Every figure that adds floats is a left fold
(``functools.reduce``) in task or host order: from Python 3.12 ``sum()``
compensates its rounding, so its bits depend on the interpreter.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import namedtuple
from dataclasses import dataclass
from functools import reduce
from itertools import accumulate, chain, compress, count, repeat
from operator import add, itemgetter
from typing import NamedTuple

from . import engine
from .cluster import MAX_SECONDS, CommGroup, HardwareDescription, collective_time
from .errors import DeadlockError, FieldError
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


# A chunk's seconds: at most 1e300 (cluster.MAX_SECONDS), so that no step's
# sum of them overflows.
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


# The cluster field whose rate prices a link tier's transfers.
_BANDWIDTH = {"inter_link": "inter_node_bandwidth", "intra_link": "intra_node_bandwidth"}


def _comm_seconds(kind: str, resource: str, nbytes: float, group_size: int, hw: HardwareDescription) -> float:
    """A collective over the transfer's group; a plain transfer is a p2p.
    A link too slow to move the bytes in at most MAX_SECONDS is refused by
    name."""
    kind, size = (kind, group_size) if group_size > 1 else ("p2p", 2)
    latency, bandwidth = hw.tier(resource)
    seconds = collective_time(kind, nbytes, CommGroup(size, latency, bandwidth))
    if not seconds <= MAX_SECONDS:
        raise FieldError(_BANDWIDTH[resource], f"must be large enough to move {nbytes!r} bytes by {kind} in "
                         f"at most 1e300 s, got {bandwidth!r}", "cluster.")
    return seconds


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


def _template(key, chunk_costs, policy: OverlapPolicy, split_fwd: bool) -> _Parts:
    """The compute parts of a template key's slots."""
    parts = _slot_parts(key[0], chunk_costs[key[1:]], policy, split_fwd)
    return _Parts(*zip(*parts), len(parts) - 1 - (parts[-1][2] == "bwd_dw"))


def _hop_seconds(transfers: SlotTransfers, hw: HardwareDescription | None) -> dict:
    """Seconds by shape number, for the shapes in use, in the order of
    their first hop. Pricing is pure, so each distinct (kind, resource,
    bytes, group size) is priced once, and its bytes checked then."""
    hop_shapes, shapes = transfers.hops, transfers.shapes
    cost = dict.fromkeys(hop_shapes)
    priced = {}
    for h in cost:
        shape = shapes[h][:4]
        if shape not in priced:
            _require_nonnegative(lambda h=h: f"event {transfers.ids()[hop_shapes.index(h)]!r} bytes", shape[2])
            priced[shape] = _comm_seconds(*shape, hw)
        cost[h] = priced[shape]
    return cost


def _slot_table(schedule, chunk_costs, policy: OverlapPolicy, split_fwd: bool, hop_count: int) -> tuple:
    """The step's slots by number, in schedule order, as positions.

    Returns (template key -> its name, the number of its first slot; the
    compute parts by key name; each slot's key name; each slot's first
    compute position, then the compute task count; each slot's waited-on
    part, then n, past every task and hop; what each slot's first part
    waits on: its dataflow parent's waited-on part, or n at a graph source
    and for a parent the schedule does not list). A slot listed twice is
    refused once the parts of every slot up to its second listing are
    derived, as a build in schedule order refuses it.
    """
    flat = list(chain.from_iterable(schedule))
    slot_count = len(flat)
    kid = {}  # template key -> its name
    kids = list(map(kid.setdefault, map(template_key, flat), count()))
    number = dict(zip(flat, count()))  # slot -> its number
    if len(number) < slot_count:
        seen = set()
        g = next(g for g, sl in enumerate(flat) if sl in seen or seen.add(sl))
        keys = dict.fromkeys(map(template_key, flat[:g + 1]))
        derived = {key: _template(key, chunk_costs, policy, split_fwd) for key in keys}
        raise ValueError(f"duplicate task id {slot_id(flat[g]) + derived[template_key(flat[g])].suffixes[0]!r}")
    # By key name: its parts, their count, the waited-on one, and all of its
    # parent but the micro batch.
    parts, size, offset = [None] * slot_count, [0] * slot_count, [0] * slot_count
    up_stage, up_chunk, up_phase = [None] * slot_count, [None] * slot_count, [None] * slot_count
    up = parents_by_key(kid, len(schedule), 1 + max((key[2] for key in kid), default=0))
    for key, name in kid.items():
        tpl = parts[name] = _template(key, chunk_costs, policy, split_fwd)
        size[name], offset[name] = len(tpl.durations), tpl.wait
        if up[key] is not None:
            up_stage[name], up_chunk[name], _, up_phase[name] = up[key]
    first = list(accumulate(map(size.__getitem__, kids), initial=0))
    waited = list(map(add, first, map(offset.__getitem__, kids)))
    waited.append(first[-1] + hop_count)
    parents = zip(map(up_stage.__getitem__, kids), map(up_chunk.__getitem__, kids), map(itemgetter(2), flat),
                  map(up_phase.__getitem__, kids))
    parent_wait = list(map(waited.__getitem__, map(number.get, parents, repeat(slot_count))))
    return kid, parts, kids, first, waited, parent_wait


def _step_program(schedule, chunk_costs, policy: OverlapPolicy, hw: HardwareDescription | None,
                  transfers: SlotTransfers) -> engine.TaskColumns:
    """The task columns of one step, for `engine.run_columns` and the
    timeline's views: each slot's compute tasks in schedule order, then the
    transfers' hops in row order."""
    host_time = hw.host_dispatch_time if hw is not None else 0.0
    _, parts, kids, first, _, parent_wait = _slot_table(schedule, chunk_costs, policy, host_time > 0, len(transfers))
    base = first[-1]
    slot_parts = list(map(parts.__getitem__, kids))
    duration = [d for tpl in slot_parts for d in tpl.durations]
    kind = [k for tpl in slot_parts for k in tpl.kinds]
    sync = [y for tpl in slot_parts for y in tpl.syncs]
    stage_slots, g = [], 0
    for slots in schedule:
        stage_slots.append(range(g, g + len(slots)))
        g += len(slots)
    device = [s for s, numbers in enumerate(stage_slots) for _ in range(first[numbers.start], first[numbers.stop])]

    # Hop rows. A hop feeds a slot on its own device and waits on the slot's
    # parent or on the hop before it, which feeds the same slot, so its rows
    # come straight from the columns. A slot's hops, in row order, run on
    # its device just before it, and its first part waits on its parent,
    # then on them.
    hop_slots, hop_shapes, shapes = transfers.slots, transfers.hops, transfers.shapes
    cost = _hop_seconds(transfers, hw)
    links = [sh.resource for sh in shapes]
    chained = [sh.chained for sh in shapes]
    waits = [(w,) if w < base + len(transfers) else () for w in parent_wait]
    fed = [[] for _ in kids]  # slot number -> positions of the hops feeding it
    for j, g in zip(count(base), hop_slots):
        fed[g].append(j)
    deps = [()] * base
    for f, dep, hops_in in zip(first, waits, fed):
        deps[f] = (*dep, *hops_in)
    device += map(device.__getitem__, map(first.__getitem__, hop_slots))
    duration += map(cost.__getitem__, hop_shapes)
    resource = [COMPUTE] * base
    resource += map(links.__getitem__, hop_shapes)
    deps += [(j - 1,) if chained[h] else waits[g] for j, g, h in zip(count(base), hop_slots, hop_shapes)]
    kind += ["comm"] * len(hop_slots)
    sync += [False] * len(hop_slots)

    # Every device runs one program: per slot, the hops into it, then its
    # compute tasks. Without overlap, comm runs alone on its device: each
    # hop waits on the task before it in the program. The task after a hop
    # then waits on it too: a hop by this rule, a slot's first task because
    # it waits on every hop feeding it.
    programs = {}
    serial = not policy.overlap_comm
    for dev, numbers in enumerate(stage_slots):
        if numbers:
            program = programs[dev] = []
            before = None  # the last task placed
            for g in numbers:
                hops_in = fed[g]
                if serial:
                    for j in hops_in:
                        if before is not None and before not in deps[j]:
                            deps[j] += (before,)
                        before = j
                program += hops_in
                program += range(first[g], first[g + 1])
                before = program[-1]
    return engine.TaskColumns(
        duration, [host_time] * len(duration), device, resource, kind, sync, deps, programs, host_time > 0,
    )


def _walk(schedule, chunk_costs, policy: OverlapPolicy, hw: HardwareDescription | None,
          transfers: SlotTransfers) -> tuple:
    """Time one step by walking each device's slots in schedule order, with
    no task columns: (begin, finish, delay by task position, each stage's
    busy time, the comm time, the part of it compute covers, the host idle
    time, the compute parts by template key). Every sum is a left fold in
    task or host order.

    The positions and every time are `engine.run_columns`'s on
    `_step_program`'s columns. A slot's hops are timed in row order, each
    at the latest of its link's previous hop, its slot's dataflow parent
    (for a chained hop: the hop before it), without overlap the task before
    it in the program, and when hosted its dispatch end; then the slot's
    compute parts, the first also after the parent and the slot's hops. A
    lane parks only on its slot's parent, when that is not timed yet. Only
    earlier compute in a device's program can cover one of its hops, since
    a slot's first part waits on every hop into it, so each hop's covered
    length is measured against the spans merged so far once it is timed.
    """
    host_time = hw.host_dispatch_time if hw is not None else 0.0
    hosted, overlap = host_time > 0, policy.overlap_comm
    kid, parts, kids, first, waited, parent_wait = _slot_table(schedule, chunk_costs, policy, hosted, len(transfers))
    steps = [()] * len(kids)  # by key name: (duration, sync) of each part
    for name in kid.values():
        steps[name] = tuple(zip(parts[name].durations, parts[name].syncs))
    base = first[-1]
    n = base + len(transfers)

    # Hop rows by slot number, each slot's in row order, and what each
    # shape in use costs, runs on and waits on.
    cost = _hop_seconds(transfers, hw)
    link = {}  # link resource -> its index in a lane's link finishes
    shape = {h: (c, link.setdefault(transfers.shapes[h].resource, len(link)), transfers.shapes[h].chained)
             for h, c in cost.items()}
    hop_slots = transfers.slots
    rows = sorted(range(len(hop_slots)), key=hop_slots.__getitem__)
    fed = list(map(hop_slots.__getitem__, rows))  # by place in rows: the slot the hop feeds
    fed.append(len(kids))
    hop_shape = list(map(shape.__getitem__, map(transfers.hops.__getitem__, rows)))

    begin = [0.0] * n
    finish = [None] * n  # None until the task has run
    finish.append(0.0)  # position n: what a graph source waits on
    delay = [0.0] * n if hosted else []
    covered = [0.0] * len(hop_slots)  # by row
    busy = [0] * len(schedule)
    host_delays = []  # by device: its nonzero host delays, in program order
    waiters = {}  # task position -> the lanes parked on it
    serial = not overlap
    # A lane is a device's walk: [device, next slot, end of its slots, next
    # place in rows, next compute position, compute finish, link finishes,
    # dispatch floor, busy time, the last finish of its program, the merged
    # compute spans' starts and ends, the end of the span before the last
    # and of the last, its host delays].
    lanes, g = [], 0
    for dev, slots in enumerate(schedule):
        if slots:
            delays = []
            host_delays.append(delays)
            lanes.append([dev, g, g + len(slots), bisect_left(fed, g), first[g], 0.0, [0.0] * len(link), 0.0, 0,
                          0.0, [], [], -math.inf, -math.inf, delays])
            g += len(slots)
    del first  # only the lanes' starts read it: free it before the walk makes its times
    while lanes:
        dev, g, stop, k, i, last, links, floor, spent, before, starts, ends, prior, reach, delays = lanes.pop()
        while g < stop:
            wait = parent_wait[g]
            w = finish[wait]
            if w is None:
                waiters.setdefault(wait, []).append(
                    [dev, g, stop, k, i, last, links, floor, spent, before, starts, ends, prior, reach, delays])
                break
            b = last if last > w else w  # where the first part of the slot may start
            after = w  # what the next hop waits on
            while fed[k] == g:
                d, r, chained = hop_shape[k]
                row = rows[k]
                k += 1
                s = links[r]
                x = after if chained else w
                if x > s:
                    s = x
                if serial and before > s:
                    s = before
                j = base + row
                if hosted:
                    e = floor + host_time
                    if e > s:
                        x = e - s
                        delay[j] = x
                        delays.append(x)
                        s = e
                    floor = e
                begin[j] = s
                f = finish[j] = links[r] = after = before = s + d
                if f > b:
                    b = f
                if reach > s:
                    # The pieces of the merged compute spans the hop
                    # overlaps, added from left to right to 0.0; most often
                    # only the last span reaches it.
                    if prior <= s:
                        a = starts[-1]
                        if a < f:
                            covered[row] = 0.0 + ((f if f < reach else reach) - (s if s > a else a))
                    else:
                        t = len(ends) - 1
                        while t and ends[t - 1] > s:
                            t -= 1
                        c = 0.0
                        for a, z in zip(starts[t:], ends[t:]):
                            if a >= f:
                                break
                            c += (f if f < z else z) - (s if s > a else a)
                        covered[row] = c
            for d, sync in steps[kids[g]]:
                if hosted:
                    e = floor + host_time
                    if e > b:
                        x = e - b
                        delay[i] = x
                        delays.append(x)
                        b = e
                    floor = e
                begin[i] = b
                f = finish[i] = b + d
                spent = spent + d
                if overlap and f > b:
                    if b <= reach:
                        if f > reach:
                            reach = ends[-1] = f
                    else:
                        starts.append(b)
                        ends.append(f)
                        prior, reach = reach, f
                if sync and f > floor:
                    floor = f
                b = f
                i += 1
            last = before = b
            if waited[g] in waiters:
                lanes += waiters.pop(waited[g])
            g += 1
        else:
            busy[dev] = spent
    if waiters:
        raise DeadlockError("dependency cycle in timeline task graph")
    finish.pop()
    comm = reduce(add, map(cost.__getitem__, transfers.hops), 0)
    # Host delays of 0.0 leave the fold's bits as they are, but for its type.
    idle = reduce(add, chain.from_iterable(host_delays), 0.0 if hosted and kids else 0)
    templates = {key: parts[name] for key, name in kid.items()}
    return begin, finish, delay, tuple(busy), comm, reduce(add, covered, 0.0), idle, templates


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
    and comm is fully exposed. The overlap statistic measures each hop's
    window against its device's merged compute spans and folds the covered
    lengths in task order; without overlap each is zero. Backward slots are
    split into an immediate part and a deferrable weight-gradient part when
    policy.decouple_dw is set; downstream work waits only on the immediate
    part. Host dispatch is modeled when hw.host_dispatch_time > 0. The
    timeline's task columns, and the views keyed by task id, are built on
    first read.
    """
    policy = policy or OverlapPolicy()
    transfers = transfers if transfers is not None else SlotTransfers(schedule)
    if transfers.schedule is not schedule and transfers.schedule != schedule:
        raise ValueError("transfers were built on another schedule")
    if transfers and hw is None:
        raise ValueError("hw is required when transfers are present")
    begin, finish, delay, busy, comm, overlapped, idle, templates = _walk(schedule, chunk_costs, policy, hw, transfers)

    def names():
        return [slot_id(sl) + x for stage in schedule for sl in stage
                for x in templates[template_key(sl)].suffixes] + transfers.ids()

    def columns():
        return _step_program(schedule, chunk_costs, policy, hw, transfers)

    result = engine.TimelineResult(columns, names, begin, finish, delay)
    makespan = result.makespan
    return StepReport(
        step_time=makespan,
        bubble_ratio=1.0 - reduce(add, busy, 0) / (len(schedule) * makespan) if makespan > 0 else 0.0,
        comm_overlap_rate=1.0 if comm == 0 else overlapped / comm,
        exposed_comm_time=comm - overlapped,
        host_idle_time=idle,
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
