"""Deterministic task-graph timeline engine.

This is the general engine: `pipeline` times a training step with its own
slot walk, and the tests check that walk against `run_columns` on the
step's task columns, which this engine also turns into the timeline's
views keyed by task id.

Each device runs one program: its tasks in one fixed order. Each task
occupies one serial resource on its device, and each resource runs the
program's tasks that use it in program order, so no two tasks on one
resource can ever overlap. A task's chain predecessor is the last earlier
task of its resource in the program. A task that must also wait for work
on another resource, as comm does when it may not overlap compute, says so
with dependencies. An overlap feature that only removes dependencies while
the programs keep their order can never lengthen the step.
`host_gmm_first` is not one: it reorders a forward's grouped matmul and
permute in the program, so that argument does not cover it.

Host modeling: when the columns are hosted, every task carries a host-side
dispatch cost, and each device's host launches its program in program
order, ahead of device execution (asynchronously), except that a task
marked sync_host stalls the host until that task finishes on the device.

The core, `run_columns`, takes the tasks as flat columns indexed by task
position and walks each program as one lane. A task starts at the latest
of its chain predecessor's finish, its dependencies' finishes and, when
hosted, its dispatch end. Its dispatch begins when the dispatch before it
in the program ends or, after a sync task, when that task finishes; the
lane has timed both already, so dispatch is computed inline. Where the
dispatch end is the latest, the task's host delay is how much later it is
than the rest. A task may wait on earlier tasks of its own program or on
any task of another program: a lane that reaches a dependency not yet
timed parks until it completes. If lanes are left parked when none can
move (a task waits on a later task of its own program, or the programs
wait on each other in a cycle), DeadlockError is raised. Each time is a
max over the same `begin + length` sums whatever order the lanes move in.

`run_tasks` is the adapter for tasks named by string ids. It checks that
each task is in the program of its device once and in no other program.

`covered_lengths` measures how much of each window some merged spans cover,
the reference for the pipeline's overlap statistic. It takes both in order
of start, as a serial chain runs them, so it sorts neither.
"""

from __future__ import annotations

from collections import Counter, defaultdict, namedtuple
from dataclasses import dataclass

from .errors import DeadlockError


@dataclass(frozen=True)
class Task:
    id: str
    device: int
    resource: str  # e.g. "compute" or "intra_link"
    duration: float
    deps: tuple = ()
    kind: str = "op"  # compute | comm | sub-op tags used for metrics
    host_time: float = 0.0
    sync_host: bool = False


# Tasks as one list per field, indexed by task position. deps[i] lists the
# positions task i waits on; programs maps device to its positions in
# program order; hosted turns host dispatch on for every program.
TaskColumns = namedtuple(
    "TaskColumns", "duration host_time device resource kind sync_host deps programs hosted"
)


class TimelineResult:
    """Times of one run, held by task position: `begin` and `finish` for
    every task, and when hosted `delay`, its host delay (0.0 where the
    dispatch did not hold it back; empty when unhosted). `columns` are the
    tasks the times are for; given as a zero-argument function, they are
    built on first read. The views keyed by task id (`start`, `end`,
    `dispatch_end`, `host_delay`, `tasks`, `chains`) are built together on
    first read, which rejects a task id given twice; `host_delay` follows
    host order, `chains` cuts each program by resource in order of first
    use, the others follow task order.
    """

    def __init__(self, columns, names, begin: list, finish: list, delay: list):
        if isinstance(columns, TaskColumns):
            self.columns = columns
        else:
            self._columns = columns
        self.begin, self.finish, self.delay = begin, finish, delay
        self._names = names  # () -> task ids by position
        self.makespan = max(finish, default=0.0)

    def __getattr__(self, name):
        if name == "columns":
            self.columns = self._columns()
            return self.columns
        if name not in ("start", "end", "dispatch_end", "host_delay", "tasks", "chains"):
            raise AttributeError(name)
        c, ids, n = self.columns, self._names(), len(self.finish)
        if len(set(ids)) < n:
            raise ValueError(f"duplicate task id {next(t for t, k in Counter(ids).items() if k > 1)!r}")
        self.start = dict(zip(ids, self.begin))
        self.end = dict(zip(ids, self.finish))
        # The walk's dispatch recurrence again, for the view alone.
        dispatch = {}
        for program in c.programs.values() if c.hosted else ():
            floor = 0.0
            for i in program:
                e = dispatch[i] = floor + c.host_time[i]
                floor = e if e > 0.0 else 0.0
                if c.sync_host[i] and self.finish[i] > floor:
                    floor = self.finish[i]
        self.dispatch_end = {ids[i]: dispatch[i] for i in sorted(dispatch)}
        self.host_delay = {ids[i]: self.delay[i] for i in self._host_order()}
        self.tasks = {
            tid: Task(tid, c.device[i], c.resource[i], c.duration[i], tuple(ids[d] for d in c.deps[i]),
                      c.kind[i], c.host_time[i], c.sync_host[i])
            for i, tid in enumerate(ids)
        }
        self.chains = {}
        for dev, program in c.programs.items():
            cuts = defaultdict(list)
            for i in program:
                cuts[c.resource[i]].append(ids[i])
            self.chains.update(((dev, r), chain) for r, chain in cuts.items())
        return getattr(self, name)

    def _host_order(self) -> list:
        """Every hosted task's position, program by program."""
        return [i for program in self.columns.programs.values() for i in program] if self.columns.hosted else []

    def host_delays(self) -> list:
        """Per task in host order: how long its dispatch ended after its
        chain predecessor and dependencies finished, at least 0."""
        return list(map(self.delay.__getitem__, self._host_order()))


def run_columns(columns: TaskColumns, names) -> TimelineResult:
    """Compute start and end times for tasks given as columns.

    names is a zero-argument function returning the task ids by position;
    it runs only when a view keyed by id is read. Every task must be in
    exactly one program, its device's (`run_tasks` checks). Raises
    DeadlockError when a task waits on a later task of its own program or
    the programs wait on each other in a cycle.
    """
    duration, host_time, sync, deps, resource = (
        columns.duration, columns.host_time, columns.sync_host, columns.deps, columns.resource)
    hosted = columns.hosted
    n = len(duration)
    begin = [0.0] * n
    finish = [None] * n  # None until the task has run
    delay = [0.0] * n if hosted else []
    # A lane is [program, cursor, finish of its last task by resource, floor
    # of its next dispatch's begin]. A lane that reaches a task it cannot
    # time yet parks on the dependency it waits for and resumes when that
    # task completes.
    lanes = [[program, 0, defaultdict(float), 0.0] for program in columns.programs.values() if program]
    waiters = {}  # task position -> parked lanes
    while lanes:
        lane = lanes.pop()
        seq, k, last, floor = lane
        for k in range(k, len(seq)):
            i = seq[k]
            r = resource[i]
            b = last[r]  # the chain predecessor's finish, 0.0 before the first
            for d in deps[i]:
                f = finish[d]
                if f is None:
                    break
                if f > b:
                    b = f
            else:
                if hosted:
                    e = floor + host_time[i]  # dispatch end
                    if e > b:
                        delay[i] = e - b
                        b = e
                    floor = e if e > 0.0 else 0.0
                begin[i] = b
                f = finish[i] = last[r] = b + duration[i]
                if hosted and sync[i] and f > floor:
                    floor = f
                if i in waiters:
                    lanes += waiters.pop(i)
                continue
            waiters.setdefault(d, []).append(lane)
            lane[1], lane[3] = k, floor
            break
    if waiters:
        raise DeadlockError("dependency cycle in timeline task graph")
    return TimelineResult(columns, names, begin, finish, delay)


def run_tasks(tasks, programs, *, hosted=False) -> TimelineResult:
    """Compute start/end times for every task.

    tasks: iterable of Task. programs: {device: [task ids]} giving each
    device's program order; every task must appear exactly once in the
    program of its device and in no other, or ValueError names the task and
    the program. hosted: model host dispatch, each device's host launching
    its program in program order.

    Raises DeadlockError when a task waits on a later task of its own
    program or the programs wait on each other in a cycle.
    """
    by_id = {}
    for t in tasks:
        if t.id in by_id:
            raise ValueError(f"duplicate task id {t.id!r}")
        by_id[t.id] = t
    for dev, program in programs.items():
        for tid in program:
            if tid not in by_id:
                raise ValueError(f"program {dev} references unknown task {tid!r}")
    placed = Counter((dev, tid) for dev, program in programs.items() for tid in program)
    for t in by_id.values():
        count = placed.pop((t.device, t.id), 0)
        if count != 1:
            raise ValueError(f"task {t.id!r} is {'repeated in' if count else 'missing from'} program {t.device}")
    if placed:
        dev, tid = next(iter(placed))
        raise ValueError(f"program {dev} holds task {tid!r}, which runs on device {by_id[tid].device}")
    index = {tid: i for i, tid in enumerate(by_id)}
    items = list(by_id.values())
    for t in items:
        for dep in t.deps:
            if dep not in index:
                raise ValueError(f"task {t.id!r} depends on unknown task {dep!r}")
    ids = list(by_id)
    fields = ("duration", "host_time", "device", "resource", "kind", "sync_host")
    columns = TaskColumns(
        *([getattr(t, field) for t in items] for field in fields),
        deps=[[index[d] for d in t.deps] for t in items],
        programs={dev: [index[tid] for tid in program] for dev, program in programs.items()},
        hosted=bool(hosted),
    )
    return run_columns(columns, lambda: ids)


def merged_intervals(spans):
    """Union of the non-empty (start, end) spans, given in order of start."""
    merged, end = [], None  # end: of the span being grown, which is not in merged yet
    for s, e in spans:
        if e > s:
            if end is not None and s <= end:
                if e > end:
                    end = e
            else:
                if end is not None:
                    merged.append((start, end))
                start, end = s, e
    if end is not None:
        merged.append((start, end))
    return merged


def covered_lengths(merged, windows) -> list:
    """For each (start, end) window, the length of it that the merged
    spans cover, added piece by piece from left to right. The spans come
    as `merged_intervals` returns them, disjoint and in order, and the
    windows in order of start, as a serial chain runs them, so one sweep
    serves: the first merged span a window can reach only moves forward."""
    last, first = len(merged), 0
    covered = []
    for s, e in windows:
        while first < last and merged[first][1] <= s:
            first += 1
        c, i = 0.0, first
        while i < last and merged[i][0] < e:
            a, b = merged[i]
            c += (e if e < b else b) - (s if s > a else a)  # min(b, e) - max(a, s), inlined
            i += 1
        covered.append(c)
    return covered
