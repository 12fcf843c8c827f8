"""The task-graph engine: input checks, deadlocks, a hand-timed host
dispatch case, properties on random DAGs, and `covered_lengths`."""

import random
import re
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moesim.engine import Task, covered_lengths, run_tasks
from moesim.errors import DeadlockError


def compute(tid, device=0, duration=1.0, **kw):
    return Task(tid, device, ("compute",), duration, **kw)


def test_duplicate_task_id_rejected():
    with pytest.raises(ValueError, match="duplicate task id 'a'"):
        run_tasks([compute("a"), compute("a")], {(0, "compute"): ["a"]})


def test_chain_with_unknown_task_rejected():
    with pytest.raises(ValueError, match=r"chain \(0, 'compute'\) references unknown task 'z'"):
        run_tasks([compute("a")], {(0, "compute"): ["a", "z"]})


def test_deps_with_unknown_task_rejected():
    with pytest.raises(ValueError, match="task 'a' depends on unknown task 'z'"):
        run_tasks([compute("a", deps=("z",))], {(0, "compute"): ["a"]})


def test_host_order_with_unknown_task_rejected():
    with pytest.raises(ValueError, match="host order references unknown task 'z'"):
        run_tasks([compute("a")], {(0, "compute"): ["a"]}, {0: ["a", "z"]})


def test_task_missing_from_its_chain_rejected():
    # Without the check, a and b would both run at 0 to 1 on one resource.
    with pytest.raises(ValueError, match=r"task 'b' is missing from chain \(0, 'compute'\)"):
        run_tasks([compute("a"), compute("b")], {(0, "compute"): ["a"]})


def test_task_missing_from_the_chain_of_its_second_resource_rejected():
    both = Task("a", 0, ("compute", "intra_link"), 1.0)
    with pytest.raises(ValueError, match=r"task 'a' is missing from chain \(0, 'intra_link'\)"):
        run_tasks([both], {(0, "compute"): ["a"]})


def test_task_repeated_in_its_chain_rejected():
    # Once reported as a dependency cycle.
    with pytest.raises(ValueError, match=r"task 'a' is repeated in chain \(0, 'compute'\)"):
        run_tasks([compute("a"), compute("b")], {(0, "compute"): ["a", "b", "a"]})


@pytest.mark.parametrize("key", [(1, "compute"), (0, "intra_link")])
def test_task_in_a_foreign_chain_rejected(key):
    """A chain of another device, or of a resource the task does not use."""
    with pytest.raises(ValueError, match=re.escape(f"chain {key} holds task 'a', which does not use that resource")):
        run_tasks([compute("a")], {(0, "compute"): ["a"], key: ["a"]})


def test_input_checks_run_chains_then_deps_then_host_order():
    tasks = [compute("a", deps=("y",))]
    with pytest.raises(ValueError, match="chain"):
        run_tasks(tasks, {(0, "compute"): ["a", "x"]}, {0: ["z"]})
    with pytest.raises(ValueError, match="depends on"):
        run_tasks(tasks, {(0, "compute"): ["a"]}, {0: ["z"]})


def test_chain_against_dependency_deadlocks():
    tasks = [compute("a"), compute("b", deps=("a",))]
    with pytest.raises(DeadlockError):
        run_tasks(tasks, {(0, "compute"): ["b", "a"]})


def test_cycle_through_sync_host_deadlocks():
    # b runs on another device but waits for a; a's host stalls until a
    # finishes, so b's dispatch (after a's) can never happen.
    tasks = [compute("a", deps=("b",), sync_host=True), compute("b", device=1)]
    chains = {(0, "compute"): ["a"], (1, "compute"): ["b"]}
    assert run_tasks(tasks, chains).makespan == 2.0
    with pytest.raises(DeadlockError):
        run_tasks(tasks, chains, {0: ["a", "b"]})


def test_two_device_host_dispatch_hand_timed():
    tasks = [
        compute("a", duration=2.0, host_time=1.0, sync_host=True),
        compute("b", duration=3.0, host_time=1.0),
        compute("c", device=1, duration=1.0, host_time=0.5, deps=("a",)),
        compute("d", device=1, duration=2.0, host_time=5.0),
        compute("e", device=2, duration=4.0, host_time=9.0),
    ]
    chains = {(0, "compute"): ["a", "b"], (1, "compute"): ["c", "d"], (2, "compute"): ["e"]}
    r = run_tasks(tasks, chains, {0: ["a", "b"], 1: ["c", "d"]})
    # a dispatches in [0, 1] and runs in [1, 3]; the host waits for it, so
    # b dispatches in [3, 4]. c waits for a; d's slow dispatch ends at 5.5.
    # e's device has no host order, so its host time costs nothing.
    assert r.start == {"a": 1.0, "b": 4.0, "c": 3.0, "d": 5.5, "e": 0.0}
    assert r.end == {"a": 3.0, "b": 7.0, "c": 4.0, "d": 7.5, "e": 4.0}
    assert r.dispatch_end == {"a": 1.0, "b": 4.0, "c": 0.5, "d": 5.5}
    assert r.host_delay == {"a": 1.0, "b": 1.0, "c": 0.0, "d": 1.5}
    assert r.makespan == 7.5


RESOURCES = [("compute",), ("link",), ("compute", "link")]
TIMES = st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.5, 3.0]) | st.floats(0.0, 10.0)


@st.composite
def task_graphs(draw):
    """(tasks, chains, host_order) for a random DAG. Task i may depend only
    on tasks before it and chains and host orders follow index order, so
    every graph is acyclic; the task list itself comes in random order."""
    n = draw(st.integers(1, 12))
    devices = draw(st.integers(1, 3))
    tasks = []
    for i in range(n):
        deps = draw(st.sets(st.integers(0, i - 1), max_size=3)) if i else set()
        tasks.append(
            Task(
                id=f"t{i}",
                device=draw(st.integers(0, devices - 1)),
                resources=draw(st.sampled_from(RESOURCES)),
                duration=draw(TIMES),
                deps=tuple(f"t{j}" for j in sorted(deps)),
                host_time=draw(TIMES),
                sync_host=draw(st.booleans()),
            )
        )
    chains = {}
    for t in tasks:
        for r in t.resources:
            chains.setdefault((t.device, r), []).append(t.id)
    hosted = draw(st.sets(st.integers(0, devices - 1)))
    host_order = {d: [t.id for t in tasks if t.device == d] for d in sorted(hosted)}
    return draw(st.permutations(tasks)), chains, host_order


PROPERTY = settings(database=None, derandomize=True, max_examples=60, deadline=None)


@PROPERTY
@given(task_graphs())
def test_timeline_keeps_chains_deps_and_host_order(graph):
    tasks, chains, host_order = graph
    r = run_tasks(tasks, chains, host_order)
    for chain in chains.values():
        for prev, nxt in zip(chain, chain[1:]):
            assert r.end[prev] <= r.start[nxt]
    for order in host_order.values():
        for prev, nxt in zip(order, order[1:]):
            after = r.end[prev] if r.tasks[prev].sync_host else r.dispatch_end[prev]
            assert r.dispatch_end[nxt] >= after + r.tasks[nxt].host_time
    for t in tasks:
        assert r.end[t.id] == r.start[t.id] + t.duration
        for dep in t.deps:
            assert r.end[dep] <= r.start[t.id]
        if t.id in r.dispatch_end:
            assert r.dispatch_end[t.id] <= r.start[t.id]
    assert r.makespan == max(r.end.values())


@PROPERTY
@given(task_graphs(), st.data())
def test_dropping_a_dependency_never_lengthens_the_step(graph, data):
    tasks, chains, host_order = graph
    with_deps = [i for i, t in enumerate(tasks) if t.deps]
    if not with_deps:
        return
    i = data.draw(st.sampled_from(with_deps))
    dep = data.draw(st.sampled_from(tasks[i].deps))
    fewer = list(tasks)
    fewer[i] = replace(tasks[i], deps=tuple(d for d in tasks[i].deps if d != dep))
    full = run_tasks(tasks, chains, host_order)
    relaxed = run_tasks(fewer, chains, host_order)
    assert relaxed.makespan <= full.makespan
    for t in tasks:
        assert relaxed.start[t.id] <= full.start[t.id]


@PROPERTY
@given(task_graphs(), st.randoms(use_true_random=False))
def test_task_list_order_changes_no_value(graph, rng):
    tasks, chains, host_order = graph
    shuffled = list(tasks)
    rng.shuffle(shuffled)
    a = run_tasks(tasks, chains, host_order)
    b = run_tasks(shuffled, chains, host_order)
    for field in ("start", "end", "dispatch_end", "host_delay", "tasks", "chains", "makespan"):
        assert getattr(a, field) == getattr(b, field), field


def overlap_reference(intervals, s, e):
    covered = 0.0
    for a, b in intervals:
        if b <= s:
            continue
        if a >= e:
            break
        covered += min(b, e) - max(a, s)
    return covered


def test_covered_lengths_match_left_to_right_scan():
    """The sweep, given the spans in shuffled order and the windows in
    drawn order, returns each window's scan of the sorted spans, bit for
    bit."""
    rng, shuffler = random.Random(7), random.Random(8)
    for _ in range(300):
        intervals, t = [], rng.uniform(-5.0, 5.0)
        for _ in range(rng.randint(0, 12)):
            a = t + rng.choice([rng.uniform(0.01, 3.0), rng.uniform(1e-9, 1e-6)])
            t = a + rng.uniform(0.01, 3.0)
            intervals.append((a, t))
        edges = [x for iv in intervals for x in iv]
        lo, hi = (edges[0], edges[-1]) if edges else (0.0, 1.0)
        starts = [lo - 1.0, hi, hi + 1.0, rng.uniform(lo - 1.0, hi + 1.0)] + edges
        starts += [rng.uniform(a, b) for a, b in intervals]  # inside
        starts += [rng.uniform(b, a) for (_, b), (a, _) in zip(intervals, intervals[1:])]  # gaps
        windows = [(s, e) for s in starts
                   for e in (s, s + rng.uniform(0.0, 1.0), s + rng.uniform(0.0, hi - lo + 2.0), hi + 5.0)]
        spans = shuffler.sample(intervals, len(intervals))
        assert covered_lengths(spans, windows) == [overlap_reference(intervals, s, e) for s, e in windows]
