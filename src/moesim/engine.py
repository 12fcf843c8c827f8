"""Deterministic task-graph timeline engine.

Each task occupies one serial resource on its device. Execution order per
resource is fixed up front (the chain), so timing reduces to a longest-path
pass over the combined graph of chain edges, dependency edges, and host
dispatch edges, and no two tasks on one resource can ever overlap. A task
that must also wait for work on another resource, as comm does when it
may not overlap compute, says so with dependencies. An overlap feature
that only removes edges while the chains keep their order can never
lengthen the step. `host_gmm_first` is not one: it reorders a forward's
grouped matmul and permute on the chains, so that argument does not cover
it.

Host modeling: every task may carry a host-side dispatch cost. Dispatches
run serially per device in the given host order, ahead of device execution
(asynchronously), except that a task marked sync_host stalls the host until
that task finishes on the device.

The core, `run_columns`, takes the tasks as flat columns indexed by task
position and walks the orders those columns already hold, one lane each:
every chain is a lane of tasks and every host order a lane of dispatches.
A task starts at the latest of its chain predecessor's finish, its
dependencies' finishes and, when it is hosted, its dispatch end. A
dispatch begins when the one before it in its host order ends, or, after a
sync task, when that task finishes, so a host lane runs ahead of
execution. A lane that reaches a task (or a dispatch) it cannot time yet
parks until what it waits for completes; if tasks are left when no lane
can move, the graph has a cycle. Each time is a max over the same
`begin + length` sums whatever order the lanes move in. Node i is task i's
execution and node n + i its dispatch, which has a time only when the task
is in a host order.

`run_tasks` is the adapter for tasks named by string ids. It checks that
each task is in the one chain of its device and resource and in no other,
and refuses a task listed more than once across the host orders.

`covered_lengths` measures how much of each window the union of some spans
covers (the pipeline's overlap statistic). It takes both in order of
start, as a serial chain runs them, so it sorts neither.
"""

from __future__ import annotations

from collections import Counter, namedtuple
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
# positions task i waits on, chains maps (device, resource) and host_order
# maps device to positions in execution or launch order.
TaskColumns = namedtuple(
    "TaskColumns", "duration host_time device resource kind sync_host deps chains host_order"
)


class TimelineResult:
    """Times of one run, held by task position: `begin` for every graph
    node, `finish` for every task, and `ready` for every task: the latest
    finish among its chain predecessor and dependencies, which the host
    delays are measured from. The views keyed by task id (`start`, `end`,
    `dispatch_end`, `host_delay`, `tasks`, `chains`) are built together on
    first read, which rejects a task id given twice; `host_delay` follows
    host order, the others task order.
    """

    def __init__(self, columns: TaskColumns, names, begin: list, finish: list, ready: list):
        self.columns, self.begin, self.finish, self.ready = columns, begin, finish, ready
        self._names = names  # () -> task ids by position
        self.makespan = max(finish, default=0.0)

    def __getattr__(self, name):
        if name not in ("start", "end", "dispatch_end", "host_delay", "tasks", "chains"):
            raise AttributeError(name)
        c, ids, n = self.columns, self._names(), len(self.finish)
        if len(set(ids)) < n:
            raise ValueError(f"duplicate task id {next(t for t, k in Counter(ids).items() if k > 1)!r}")
        hosted = [i for order in c.host_order.values() for i in order]
        self.start = dict(zip(ids, self.begin))
        self.end = dict(zip(ids, self.finish))
        self.dispatch_end = {ids[i]: self.begin[n + i] + c.host_time[i] for i in sorted(set(hosted))}
        self.host_delay = dict(zip([ids[i] for i in hosted], self.host_delays()))
        self.tasks = {
            tid: Task(tid, c.device[i], c.resource[i], c.duration[i], tuple(ids[d] for d in c.deps[i]),
                      c.kind[i], c.host_time[i], c.sync_host[i])
            for i, tid in enumerate(ids)
        }
        self.chains = {key: [ids[i] for i in chain] for key, chain in c.chains.items()}
        return getattr(self, name)

    def host_delays(self) -> list:
        """Per task in host order: how long its dispatch ended after its
        latest execute -> execute predecessor finished, at least 0."""
        begin, host_time, ready, n = self.begin, self.columns.host_time, self.ready, len(self.finish)
        return [max(0.0, begin[n + i] + host_time[i] - ready[i]) for order in self.columns.host_order.values()
                for i in order]


def run_columns(columns: TaskColumns, names) -> TimelineResult:
    """Compute start and end times for tasks given as columns.

    names is a zero-argument function returning the task ids by position;
    it runs only when a view keyed by id is read. Every task must be in
    exactly one chain and in at most one host order (`run_tasks` checks
    both). Raises DeadlockError when the combined graph has a cycle.
    """
    duration, host_time, sync, deps = columns.duration, columns.host_time, columns.sync_host, columns.deps
    n = len(duration)
    orders = [order for order in columns.host_order.values() if order]
    begin = [0.0] * (2 * n if orders else n)
    finish = [None] * n  # None until the task has run
    ready = [0.0] * n
    due = [0.0] * n  # dispatch end; None for a hosted task its host lane has not reached
    for order in orders:
        for i in order:
            due[i] = None
    # A lane is [positions, cursor, dispatches]. A lane that cannot move parks
    # on the node it waits for and resumes when that node completes.
    lanes = [[chain, 0, False] for chain in columns.chains.values() if chain]
    lanes += [[order, 0, True] for order in orders]  # popped first: hosts run ahead
    waiters = {}  # node -> parked lanes
    done = 0
    while lanes:
        lane = lanes.pop()
        seq, k, dispatches = lane
        last = len(seq)
        if dispatches:
            while k < last:
                i = seq[k]
                b = 0.0
                if k:
                    p = seq[k - 1]
                    e = begin[n + p] + host_time[p]
                    if e > b:
                        b = e
                    if sync[p]:
                        f = finish[p]
                        if f is None:
                            waiters.setdefault(p, []).append(lane)
                            break
                        if f > b:
                            b = f
                begin[n + i] = b
                due[i] = b + host_time[i]
                woken = waiters.pop(n + i, None)
                if woken:
                    lanes += woken
                k += 1
        else:
            while k < last:
                i = seq[k]
                b = finish[seq[k - 1]] if k else 0.0  # the chain predecessor has run
                wait = None
                for d in deps[i]:
                    f = finish[d]
                    if f is None:
                        wait = d
                        break
                    if f > b:
                        b = f
                else:
                    e = due[i]
                    if e is None:
                        wait = n + i
                if wait is not None:
                    waiters.setdefault(wait, []).append(lane)
                    break
                ready[i] = b
                if e > b:
                    b = e
                begin[i] = b
                finish[i] = b + duration[i]
                done += 1
                woken = waiters.pop(i, None)
                if woken:
                    lanes += woken
                k += 1
        lane[1] = k
    if done != n:
        raise DeadlockError("dependency cycle in timeline task graph")
    return TimelineResult(columns, names, begin, finish, ready)


def run_tasks(tasks, chains, host_order=None) -> TimelineResult:
    """Compute start/end times for every task.

    tasks: iterable of Task. chains: {(device, resource): [task ids]} giving
    the execution order on each serial resource; every task must appear
    exactly once in the chain (task.device, task.resource) and in no other
    chain, or ValueError names the task and the chain. host_order: {device:
    [task ids]} enables host dispatch modeling for those devices; a task
    listed more than once across the host orders is refused.

    Raises DeadlockError when the combined graph has a cycle.
    """
    by_id = {}
    for t in tasks:
        if t.id in by_id:
            raise ValueError(f"duplicate task id {t.id!r}")
        by_id[t.id] = t
    for key, chain in chains.items():
        for tid in chain:
            if tid not in by_id:
                raise ValueError(f"chain {key} references unknown task {tid!r}")
    placed = Counter((key, tid) for key, chain in chains.items() for tid in chain)
    for t in by_id.values():
        key = (t.device, t.resource)
        count = placed.pop((key, t.id), 0)
        if count != 1:
            raise ValueError(f"task {t.id!r} is {'repeated in' if count else 'missing from'} chain {key}")
    if placed:
        key, tid = next(iter(placed))
        raise ValueError(f"chain {key} holds task {tid!r}, which does not use that resource")
    index = {tid: i for i, tid in enumerate(by_id)}
    items = list(by_id.values())
    for t in items:
        for dep in t.deps:
            if dep not in index:
                raise ValueError(f"task {t.id!r} depends on unknown task {dep!r}")
    host_order = host_order or {}
    hosted = set()
    for order in host_order.values():
        for tid in order:
            if tid not in index:
                raise ValueError(f"host order references unknown task {tid!r}")
            if tid in hosted:
                raise ValueError(f"task {tid!r} is listed more than once in the host orders")
            hosted.add(tid)
    ids = list(by_id)
    fields = ("duration", "host_time", "device", "resource", "kind", "sync_host")
    columns = TaskColumns(
        *([getattr(t, field) for t in items] for field in fields),
        deps=[[index[d] for d in t.deps] for t in items],
        chains={key: [index[tid] for tid in chain] for key, chain in chains.items()},
        host_order={dev: [index[tid] for tid in order] for dev, order in host_order.items()},
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


def covered_lengths(spans, windows) -> list:
    """For each (start, end) window, the length of it that the union of the
    spans covers, added piece by piece from left to right. Spans and
    windows come in order of start, as a serial chain runs them, so one
    sweep serves: the first merged span a window can reach only moves
    forward."""
    merged = merged_intervals(spans)
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
