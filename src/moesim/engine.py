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

Graph nodes are integers: with n tasks, node i executes task i (in input
order) and node n + i dispatches it; a dispatch node has edges only when
its task is in a host order.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
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


@dataclass
class TimelineResult:
    start: dict
    end: dict
    dispatch_end: dict
    host_delay: dict
    tasks: dict
    chains: dict
    makespan: float


def run_tasks(tasks, chains, host_order=None) -> TimelineResult:
    """Compute start/end times for every task.

    tasks: iterable of Task. chains: {(device, resource): [task ids]} giving
    the execution order on each serial resource; every task must appear in
    the chain of each of its resources. host_order: {device: [task ids]}
    enables host dispatch modeling for those devices.

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

    items = list(by_id.values())
    index = {tid: i for i, tid in enumerate(by_id)}
    n = len(items)
    succ = [[] for _ in range(2 * n)]
    for i, t in enumerate(items):
        for dep in t.deps:
            if dep not in index:
                raise ValueError(f"task {t.id!r} depends on unknown task {dep!r}")
            succ[index[dep]].append(i)
    for chain in chains.values():
        for prev, nxt in zip(chain, chain[1:]):
            succ[index[prev]].append(index[nxt])
    host_order = host_order or {}
    for order in host_order.values():
        for tid in order:
            if tid not in index:
                raise ValueError(f"host order references unknown task {tid!r}")
        pos = [index[tid] for tid in order]
        for i in pos:
            succ[n + i].append(i)
        for prev, nxt in zip(pos, pos[1:]):
            succ[n + prev].append(n + nxt)
            if items[prev].sync_host:
                succ[prev].append(n + nxt)

    length = [t.duration for t in items] + [t.host_time for t in items]
    indeg = [0] * (2 * n)
    for out in succ:
        for v in out:
            indeg[v] += 1
    ready = [u for u in range(2 * n) if indeg[u] == 0]
    begin = [0.0] * (2 * n)
    # Latest finish over execute -> execute edges, i.e. ignoring dispatch.
    ready_without_host = [0.0] * n
    seen = 0
    while ready:
        u = ready.pop()
        seen += 1
        done = begin[u] + length[u]
        for v in succ[u]:
            if u < n and v < n and done > ready_without_host[v]:
                ready_without_host[v] = done
            if done > begin[v]:
                begin[v] = done
            indeg[v] -= 1
            if indeg[v] == 0:
                ready.append(v)
    if seen != 2 * n:
        raise DeadlockError("dependency cycle in timeline task graph")

    start = dict(zip(by_id, begin))
    end = {tid: begin[i] + length[i] for i, tid in enumerate(by_id)}
    dispatch_end = {tid: begin[n + i] + length[n + i] for i, tid in enumerate(by_id) if succ[n + i]}
    # In host order, so sums over it are the same under any hash seed.
    host_delay = {
        tid: max(0.0, dispatch_end[tid] - ready_without_host[index[tid]])
        for order in host_order.values()
        for tid in order
    }
    return TimelineResult(
        start=start,
        end=end,
        dispatch_end=dispatch_end,
        host_delay=host_delay,
        tasks=by_id,
        chains={k: list(v) for k, v in chains.items()},
        makespan=max(end.values(), default=0.0),
    )


def merged_busy_intervals(result: TimelineResult, device: int, kinds=None):
    """Union of execution intervals of the device's compute chain tasks."""
    raw = []
    for tid in result.chains.get((device, "compute"), ()):
        t = result.tasks[tid]
        if kinds is not None and t.kind not in kinds:
            continue
        if result.end[tid] > result.start[tid]:
            raw.append((result.start[tid], result.end[tid]))
    raw.sort()
    merged = []
    for s, e in raw:
        if merged and s <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], e))
        else:
            merged.append((s, e))
    return merged


def overlap_with(intervals, s: float, e: float) -> float:
    """Length of [s, e] covered by the sorted disjoint intervals."""
    # Start at the first interval ending after s; those before add nothing.
    i = bisect_right(intervals, (s, math.inf))
    if i and intervals[i - 1][1] > s:
        i -= 1
    covered = 0.0
    for a, b in intervals[i : bisect_left(intervals, (e,))]:
        covered += min(b, e) - max(a, s)
    return covered
