"""The task-graph engine: input checks, deadlocks, a hand-timed host
dispatch case, properties on random DAGs, the lane walk against the Kahn
pass it replaced, its memory per task, and the overlap sweep."""

import random
import re
import tracemalloc
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_pipeline import random_program

from moesim import engine
from moesim.configio import load_cluster, load_model, load_plan
from moesim.engine import Task, TaskColumns, covered_lengths, merged_intervals, run_columns, run_tasks
from moesim.errors import DeadlockError
from moesim.pipeline import simulate_timeline
from moesim.search import SimulationFeatures, training_report

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


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


def test_task_on_no_resource_rejected():
    # It would be in no chain, so no lane would ever reach it.
    with pytest.raises(ValueError, match="task 'b' uses no resource"):
        run_tasks([compute("a"), Task("b", 0, (), 1.0)], {(0, "compute"): ["a"]})


@pytest.mark.parametrize("host_order", [{0: ["a", "b", "a"]}, {0: ["a"], 1: ["b", "a"]}])
def test_task_in_the_host_orders_twice_rejected(host_order):
    # Once a self-loop deadlock in one order, or a silent max over two.
    tasks = [compute("a"), compute("b", device=1)]
    with pytest.raises(ValueError, match="task 'a' is listed more than once in the host orders"):
        run_tasks(tasks, {(0, "compute"): ["a"], (1, "compute"): ["b"]}, host_order)


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


def kahn_oracle(columns):
    """The engine's earlier core, kept verbatim as the reference: a Kahn
    pass over a successor graph with one node per execution and one per
    dispatch, then the host delays from a second walk over the chains and
    dependencies. Returns (begin, finish, host delays, makespan)."""
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

    c = columns
    hosted = [i for order in c.host_order.values() for i in order]
    ready = [0.0] * n
    if hosted:
        for chain in c.chains.values():
            for prev, nxt in zip(chain, chain[1:]):
                ready[nxt] = max(ready[nxt], finish[prev])
        for i, deps in enumerate(c.deps):
            for d in deps:
                ready[i] = max(ready[i], finish[d])
    delays = [max(0.0, begin[n + i] + c.host_time[i] - ready[i]) for i in hosted]
    return begin, finish, delays, max(finish, default=0.0)


def assert_matches_oracle(columns):
    """run_columns gives the oracle's bits, or both raise DeadlockError;
    returns whether the graph ran."""
    try:
        want = kahn_oracle(columns)
    except DeadlockError:
        with pytest.raises(DeadlockError):
            run_columns(columns, list)
        return False
    r = run_columns(columns, list)
    got = (r.begin, r.finish, r.host_delays(), r.makespan)
    assert list(map(repr, got)) == list(map(repr, want))  # repr: 0.0 and -0.0 differ
    return True


@st.composite
def task_columns(draw):
    """(shape, TaskColumns) with hosted tasks on any device, sync tasks and
    tasks on two resources. "ordered": dependencies, chains and host orders
    follow position order, so the graph is acyclic. "shuffled": a task may
    wait on any other and every order is a random permutation, so cycles
    may form. "cyclic": shuffled, plus two tasks that wait on each other."""
    shape = draw(st.sampled_from(["ordered", "shuffled", "cyclic"]))
    n = draw(st.integers(1, 12))
    devices = draw(st.integers(1, 3))
    device = [draw(st.integers(0, devices - 1)) for _ in range(n)]
    resources = [draw(st.sampled_from(RESOURCES)) for _ in range(n)]
    duration = [draw(TIMES) for _ in range(n)]
    host_time = [draw(TIMES) for _ in range(n)]
    sync = [draw(st.booleans()) for _ in range(n)]
    deps = [sorted(draw(st.sets(st.integers(0, i - 1 if shape == "ordered" else n - 1), max_size=3)) - {i})
            if i or shape != "ordered" else [] for i in range(n)]
    if shape == "cyclic":
        a, b = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        deps[a] = sorted({*deps[a], b})
        deps[b] = sorted({*deps[b], a})
    order = list(range(n)) if shape == "ordered" else draw(st.permutations(range(n)))
    chains = {}
    for i in order:
        for r in resources[i]:
            chains.setdefault((device[i], r), []).append(i)
    hosted = draw(st.lists(st.integers(0, n - 1), unique=True))
    if shape == "ordered":
        hosted.sort()
    host_order = {}
    for i in hosted:
        host_order.setdefault(draw(st.integers(0, devices - 1)), []).append(i)
    kind = ["op"] * n
    return shape, TaskColumns(duration, host_time, device, resources, kind, sync, deps, chains, host_order)


@settings(database=None, derandomize=True, max_examples=300, deadline=None)
@given(task_columns())
def test_lane_walk_matches_the_kahn_oracle(drawn):
    shape, columns = drawn
    ran = assert_matches_oracle(columns)
    assert ran or shape != "ordered"
    assert not ran or shape != "cyclic"


@settings(database=None, derandomize=True, max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans(), st.booleans())
def test_lane_walk_matches_the_kahn_oracle_on_random_programs(seed, hosted, overlap):
    schedule, costs, events, policy, hw = random_program(random.Random(seed))
    hw = replace(hw, host_dispatch_time=0.05 if hosted else 0.0)
    policy = replace(policy, overlap_comm=overlap)
    columns = simulate_timeline(schedule, costs, events, policy, hw).timeline.columns
    assert any(columns.host_order.values()) == hosted
    assert assert_matches_oracle(columns)


def test_engine_memory_per_task_stays_small(monkeypatch):
    """run_columns and host_delays() on the reference step at m = 64 with
    host dispatch allocate at most 250 bytes per task at their peak: the
    times, and no successor list or dispatch node per task (the Kahn pass
    took about 385)."""
    cfg = load_model(CONFIGS / "model_reference.json")
    hw = replace(load_cluster(CONFIGS / "cluster_6144.json"), host_dispatch_time=3e-6)
    plan = replace(load_plan(CONFIGS / "plan_reference.json"), global_batch_size=96 * 64)
    captured = []

    def capture(columns, names):
        captured.append(columns)
        return run_columns(columns, names)

    monkeypatch.setattr(engine, "run_columns", capture)
    training_report(cfg, plan, hw, SimulationFeatures(dispatch_mechanism="alltoall"))
    (columns,) = captured
    n = len(columns.duration)
    assert n > 10_000 and any(columns.host_order.values())
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = run_columns(columns, list)
        result.host_delays()
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak / n <= 250


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
    """The sweep, given the spans and the windows in order of start, as a
    serial chain runs them, returns each window's scan of the spans, bit
    for bit."""
    rng = random.Random(7)
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
        windows.sort(key=lambda w: w[0])
        assert covered_lengths(intervals, windows) == [overlap_reference(intervals, s, e) for s, e in windows]


def test_merged_intervals_join_touching_and_nested_spans():
    """Spans in order of start: empty ones drop out, and touching, nested
    or overlapping ones join into one."""
    spans = [(0.0, 1.0), (1.0, 2.0), (1.5, 1.7), (3.0, 3.0), (4.0, 5.0), (4.5, 6.0), (7.0, 6.5), (8.0, 9.0)]
    assert merged_intervals(spans) == [(0.0, 2.0), (4.0, 6.0), (8.0, 9.0)]
    assert merged_intervals([]) == merged_intervals([(2.0, 2.0)]) == []
