"""Deterministic task-graph timeline engine.

Tasks occupy one or more serial resources on a device. Execution order per
resource is fixed up front (the chain), so timing reduces to a longest-path
pass over the combined graph of chain edges, dependency edges, and host
dispatch edges. Because enabling an overlap feature only removes edges
while chains stay fixed, features can never lengthen the step, and no two
tasks on one resource can ever overlap.

Host modeling: every task may carry a host-side dispatch cost. Dispatches
run serially per device in the given host order, ahead of device execution
(asynchronously), except that a task marked sync_host stalls the host until
that task finishes on the device.

The core, `run_columns`, takes the tasks as flat columns indexed by task
position. Graph nodes are integers: with n tasks, node i executes task i
and node n + i dispatches it; a dispatch node has edges only when its task
is in a host order. `run_tasks` is the adapter for tasks named by string
ids.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from dataclasses import dataclass

from .errors import DeadlockError


@dataclass(frozen=True)
class Task:
    id: str
    device: int
    resources: tuple  # e.g. ("compute",) or ("compute", "intra_link")
    duration: float
    deps: tuple = ()
    kind: str = "op"  # compute | comm | sub-op tags used for metrics
    host_time: float = 0.0
    sync_host: bool = False


# Tasks as one list per field, indexed by task position. deps[i] lists the
# positions task i waits on, chains maps (device, resource) and host_order
# maps device to positions in execution or launch order.
TaskColumns = namedtuple(
    "TaskColumns", "duration host_time device resources kind sync_host deps chains host_order"
)


class TimelineResult:
    """Times of one run, held by task position: `begin` for every graph
    node, `finish` for every task. The views keyed by task id (`start`,
    `end`, `dispatch_end`, `host_delay`, `tasks`, `chains`) are built
    together on first read, which rejects a task id given twice;
    `host_delay` follows host order, the others task order.
    """

    def __init__(self, columns: TaskColumns, names, begin: list, finish: list):
        self.columns, self.begin, self.finish = columns, begin, finish
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
            tid: Task(tid, c.device[i], c.resources[i], c.duration[i], tuple(ids[d] for d in c.deps[i]),
                      c.kind[i], c.host_time[i], c.sync_host[i])
            for i, tid in enumerate(ids)
        }
        self.chains = {key: [ids[i] for i in chain] for key, chain in c.chains.items()}
        return getattr(self, name)

    def host_delays(self) -> list:
        """Per task in host order: how long its dispatch ended after its
        latest execute -> execute predecessor finished, at least 0."""
        c, finish, n = self.columns, self.finish, len(self.finish)
        hosted = [i for order in c.host_order.values() for i in order]
        ready = [0.0] * n
        if hosted:
            for chain in c.chains.values():
                for prev, nxt in zip(chain, chain[1:]):
                    ready[nxt] = max(ready[nxt], finish[prev])
            for i, deps in enumerate(c.deps):
                for d in deps:
                    ready[i] = max(ready[i], finish[d])
        return [max(0.0, self.begin[n + i] + c.host_time[i] - ready[i]) for i in hosted]


def run_columns(columns: TaskColumns, names) -> TimelineResult:
    """Compute start and end times for tasks given as columns.

    names is a zero-argument function returning the task ids by position;
    it runs only when a view keyed by id is read. Raises DeadlockError
    when the combined graph has a cycle.
    """
    duration, sync = columns.duration, columns.sync_host
    n = len(duration)
    hosted = any(columns.host_order.values())
    size = 2 * n if hosted else n
    length = duration + columns.host_time if hosted else duration
    succ = [[] for _ in range(size)]
    for i, deps in enumerate(columns.deps):
        for d in deps:
            succ[d].append(i)
    for chain in columns.chains.values():
        for prev, nxt in zip(chain, chain[1:]):
            succ[prev].append(nxt)
    for order in columns.host_order.values():
        for i in order:
            succ[n + i].append(i)
        for prev, nxt in zip(order, order[1:]):
            succ[n + prev].append(n + nxt)
            if sync[prev]:
                succ[prev].append(n + nxt)
    indeg = [0] * size
    for out in succ:
        for v in out:
            indeg[v] += 1

    begin = [0.0] * size
    # Kahn's algorithm; the loop visits the nodes it appends.
    visit = [u for u in range(size) if not indeg[u]]
    for u in visit:
        done = begin[u] + length[u]
        for v in succ[u]:
            if done > begin[v]:
                begin[v] = done
            indeg[v] -= 1
            if not indeg[v]:
                visit.append(v)
    if len(visit) != size:
        raise DeadlockError("dependency cycle in timeline task graph")
    finish = [b + d for b, d in zip(begin, duration)]
    return TimelineResult(columns, names, begin, finish)


def run_tasks(tasks, chains, host_order=None) -> TimelineResult:
    """Compute start/end times for every task.

    tasks: iterable of Task. chains: {(device, resource): [task ids]} giving
    the execution order on each serial resource; every task must appear
    exactly once in the chain of each of its resources and in no other
    chain, or ValueError names the task and the chain. host_order:
    {device: [task ids]} enables host dispatch modeling for those devices.

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
        for key in dict.fromkeys((t.device, r) for r in t.resources):
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
    for order in host_order.values():
        for tid in order:
            if tid not in index:
                raise ValueError(f"host order references unknown task {tid!r}")
    ids = list(by_id)
    fields = ("duration", "host_time", "device", "resources", "kind", "sync_host")
    columns = TaskColumns(
        *([getattr(t, field) for t in items] for field in fields),
        deps=[[index[d] for d in t.deps] for t in items],
        chains={key: [index[tid] for tid in chain] for key, chain in chains.items()},
        host_order={dev: [index[tid] for tid in order] for dev, order in host_order.items()},
    )
    return run_columns(columns, lambda: ids)


def merged_intervals(spans):
    """Sorted union of the non-empty (start, end) spans."""
    merged = []
    for s, e in sorted(spans):
        if e > s:
            if merged and s <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], e))
            else:
                merged.append((s, e))
    return merged


def covered_lengths(spans, windows) -> list:
    """For each (start, end) window, the length of it that the union of the
    spans covers, added piece by piece from left to right. One sweep: the
    windows go in order of start, and the first merged span a window can
    reach only moves forward."""
    merged = merged_intervals(spans)
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
