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
"""

from __future__ import annotations

from collections import deque
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

    # Graph nodes: "x:" execute nodes, and "d:" dispatch nodes when host
    # ordering is modeled for the task's device.
    host_order = host_order or {}
    edges = {}
    indeg = {}

    def node(name):
        if name not in edges:
            edges[name] = []
            indeg[name] = 0
        return name

    def edge(a, b):
        edges[a].append(b)
        indeg[b] += 1

    for tid, t in by_id.items():
        node(f"x:{tid}")
        for dep in t.deps:
            if dep not in by_id:
                raise ValueError(f"task {tid!r} depends on unknown task {dep!r}")
            edge(node(f"x:{dep}"), f"x:{tid}")
    for chain in chains.values():
        for prev, nxt in zip(chain, chain[1:]):
            edge(f"x:{prev}", f"x:{nxt}")
    for device, order in host_order.items():
        for tid in order:
            if tid not in by_id:
                raise ValueError(f"host order references unknown task {tid!r}")
            edge(node(f"d:{tid}"), f"x:{tid}")
        for prev, nxt in zip(order, order[1:]):
            edge(f"d:{prev}", f"d:{nxt}")
            if by_id[prev].sync_host:
                edge(f"x:{prev}", f"d:{nxt}")

    start = {}
    end = {}
    dispatch_end = {}
    ready_without_host = {}

    finish = {}  # node -> completion time
    order = deque(n for n in edges if indeg[n] == 0)
    seen = 0
    node_start = {n: 0.0 for n in edges}
    while order:
        n = order.popleft()
        seen += 1
        t0 = node_start[n]
        tid = n[2:]
        t = by_id[tid]
        if n.startswith("d:"):
            length = t.host_time
        else:
            length = t.duration
        done = t0 + length
        finish[n] = done
        if n.startswith("x:"):
            start[tid] = t0
            end[tid] = done
        else:
            dispatch_end[tid] = done
        for nxt in edges[n]:
            # Track the latest non-host constraint on execute nodes so the
            # host-attributable delay can be reported.
            if nxt.startswith("x:") and not n.startswith("d:"):
                ready_without_host[nxt] = max(ready_without_host.get(nxt, 0.0), done)
            if done > node_start[nxt]:
                node_start[nxt] = done
            indeg[nxt] -= 1
            if indeg[nxt] == 0:
                order.append(nxt)
    if seen != len(edges):
        raise DeadlockError("dependency cycle in timeline task graph")

    # Filled in host order, not set order, so sums over it do not depend on
    # string hashing.
    host_delay = {}
    for order in host_order.values():
        for tid in order:
            base = ready_without_host.get(f"x:{tid}", 0.0)
            host_delay[tid] = max(0.0, dispatch_end[tid] - base)

    makespan = max(end.values(), default=0.0)
    return TimelineResult(
        start=start,
        end=end,
        dispatch_end=dispatch_end,
        host_delay=host_delay,
        tasks=by_id,
        chains={k: list(v) for k, v in chains.items()},
        makespan=makespan,
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
    covered = 0.0
    for a, b in intervals:
        if b <= s:
            continue
        if a >= e:
            break
        covered += min(b, e) - max(a, s)
    return covered
