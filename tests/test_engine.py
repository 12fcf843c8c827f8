"""The task-graph engine: input checks, deadlocks, a hand-timed host
dispatch case, properties on random DAGs, the program walk against the
chain-lane walk and the Kahn pass it replaced, the pipeline's slot walk
against the engine on the reference steps, the memory per task of both,
and the overlap sweep."""

import random
import tracemalloc
from collections import namedtuple
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_pipeline import assert_walk_matches_engine, random_program

from moesim import engine, search
from moesim.configio import load_cluster, load_model, load_plan
from moesim.engine import Task, TaskColumns, covered_lengths, merged_intervals, run_columns, run_tasks
from moesim.errors import DeadlockError
from moesim.pipeline import SERIALIZED, OverlapPolicy, simulate_timeline
from moesim.search import SimulationFeatures, training_report

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def compute(tid, device=0, duration=1.0, **kw):
    return Task(tid, device, "compute", duration, **kw)


def test_duplicate_task_id_rejected():
    with pytest.raises(ValueError, match="duplicate task id 'a'"):
        run_tasks([compute("a"), compute("a")], {0: ["a"]})


def test_chain_with_unknown_task_rejected():
    """A program lists every chain of its device."""
    with pytest.raises(ValueError, match="program 0 references unknown task 'z'"):
        run_tasks([compute("a")], {0: ["a", "z"]})


def test_deps_with_unknown_task_rejected():
    with pytest.raises(ValueError, match="task 'a' depends on unknown task 'z'"):
        run_tasks([compute("a", deps=("z",))], {0: ["a"]})


def test_task_missing_from_its_chain_rejected():
    # Without the check, b would never run and never be timed.
    with pytest.raises(ValueError, match="task 'b' is missing from program 0"):
        run_tasks([compute("a"), compute("b")], {0: ["a"]})


def test_task_repeated_in_its_chain_rejected():
    # Once reported as a dependency cycle.
    with pytest.raises(ValueError, match="task 'a' is repeated in program 0"):
        run_tasks([compute("a"), compute("b")], {0: ["a", "b", "a"]})


@pytest.mark.parametrize("host_order", [{0: ["a", "b", "a"], 1: ["b"]}, {0: ["a"], 1: ["b", "a"]}])
def test_task_in_the_host_orders_twice_rejected(host_order):
    """Each program is its device's host order: a task may be listed once,
    and only in the program of its own device."""
    tasks = [compute("a"), compute("b", device=1)]
    message = "task 'a' is repeated in program 0|program 1 holds task 'a', which runs on device 0"
    with pytest.raises(ValueError, match=message):
        run_tasks(tasks, host_order, hosted=True)


def test_input_checks_run_programs_then_deps():
    tasks = [compute("a", deps=("y",))]
    with pytest.raises(ValueError, match="program"):
        run_tasks(tasks, {0: ["a", "x"]})
    with pytest.raises(ValueError, match="depends on"):
        run_tasks(tasks, {0: ["a"]})


def test_chain_against_dependency_deadlocks():
    tasks = [compute("a"), compute("b", deps=("a",))]
    with pytest.raises(DeadlockError):
        run_tasks(tasks, {0: ["b", "a"]})


def test_waiting_on_a_later_task_of_its_own_program_deadlocks():
    """Even on another resource, where no chain orders the two: the walk
    times a program in order, so b can never be timed before a."""
    tasks = [compute("a", deps=("b",)), Task("b", 0, "link", 1.0)]
    assert run_tasks(tasks, {0: ["b", "a"]}).end == {"a": 2.0, "b": 1.0}
    with pytest.raises(DeadlockError):
        run_tasks(tasks, {0: ["a", "b"]})


def test_cross_device_cycle_deadlocks():
    tasks = [compute("a", deps=("b",)), compute("b", device=1, deps=("a",))]
    with pytest.raises(DeadlockError):
        run_tasks(tasks, {0: ["a"], 1: ["b"]})


def test_cycle_through_sync_host_deadlocks():
    # a waits for b on another device, and b for c, which follows a in
    # device 0's program on a link: a's host stalls until a finishes, so
    # c's dispatch never comes. The walk times a program in order, so it
    # refuses the graph unhosted too: the host adds no wait the program
    # order does not already make.
    tasks = [compute("a", deps=("b",), sync_host=True), Task("c", 0, "link", 1.0),
             compute("b", device=1, deps=("c",))]
    for hosted in (False, True):
        with pytest.raises(DeadlockError):
            run_tasks(tasks, {0: ["a", "c"], 1: ["b"]}, hosted=hosted)
    assert run_tasks(tasks, {0: ["c", "a"], 1: ["b"]}, hosted=True).makespan == 3.0


def test_two_device_host_dispatch_hand_timed():
    tasks = [
        compute("a", duration=2.0, host_time=1.0, sync_host=True),
        compute("b", duration=3.0, host_time=1.0),
        compute("c", device=1, duration=1.0, host_time=0.5, deps=("a",)),
        compute("d", device=1, duration=2.0, host_time=5.0),
        compute("e", device=2, duration=4.0, host_time=9.0),
    ]
    r = run_tasks(tasks, {0: ["a", "b"], 1: ["c", "d"], 2: ["e"]}, hosted=True)
    # a dispatches in [0, 1] and runs in [1, 3]; the host waits for it, so
    # b dispatches in [3, 4]. c waits for a; d's slow dispatch ends at 5.5.
    # e's dispatch alone holds it back to 9.
    assert r.start == {"a": 1.0, "b": 4.0, "c": 3.0, "d": 5.5, "e": 9.0}
    assert r.end == {"a": 3.0, "b": 7.0, "c": 4.0, "d": 7.5, "e": 13.0}
    assert r.dispatch_end == {"a": 1.0, "b": 4.0, "c": 0.5, "d": 5.5, "e": 9.0}
    assert r.host_delay == {"a": 1.0, "b": 1.0, "c": 0.0, "d": 1.5, "e": 9.0}
    assert r.makespan == 13.0
    unhosted = run_tasks(tasks, {0: ["a", "b"], 1: ["c", "d"], 2: ["e"]})
    assert unhosted.end == {"a": 2.0, "b": 5.0, "c": 3.0, "d": 5.0, "e": 4.0}
    assert unhosted.dispatch_end == unhosted.host_delay == {}


RESOURCES = ["compute", "link"]
TIMES = st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.5, 3.0]) | st.floats(0.0, 10.0)


@st.composite
def task_graphs(draw):
    """(tasks, programs, hosted) for a random DAG. Task i may depend only
    on tasks before it and programs follow index order, so every graph is
    acyclic; the task list itself comes in random order."""
    n = draw(st.integers(1, 12))
    devices = draw(st.integers(1, 3))
    tasks = []
    for i in range(n):
        deps = draw(st.sets(st.integers(0, i - 1), max_size=3)) if i else set()
        tasks.append(
            Task(
                id=f"t{i}",
                device=draw(st.integers(0, devices - 1)),
                resource=draw(st.sampled_from(RESOURCES)),
                duration=draw(TIMES),
                deps=tuple(f"t{j}" for j in sorted(deps)),
                host_time=draw(TIMES),
                sync_host=draw(st.booleans()),
            )
        )
    programs = {}
    for t in tasks:
        programs.setdefault(t.device, []).append(t.id)
    return draw(st.permutations(tasks)), programs, draw(st.booleans())


PROPERTY = settings(database=None, derandomize=True, max_examples=60, deadline=None)


@PROPERTY
@given(task_graphs())
def test_timeline_keeps_chains_deps_and_host_order(graph):
    tasks, programs, hosted = graph
    r = run_tasks(tasks, programs, hosted=hosted)
    for (dev, res), chain in r.chains.items():
        assert chain == [tid for tid in programs[dev] if r.tasks[tid].resource == res]
        for prev, nxt in zip(chain, chain[1:]):
            assert r.end[prev] <= r.start[nxt]
    assert sum(map(len, r.chains.values())) == len(tasks)
    for order in programs.values() if hosted else ():
        for prev, nxt in zip(order, order[1:]):
            after = r.end[prev] if r.tasks[prev].sync_host else r.dispatch_end[prev]
            assert r.dispatch_end[nxt] >= after + r.tasks[nxt].host_time
    assert list(r.host_delay) == ([tid for order in programs.values() for tid in order] if hosted else [])
    for t in tasks:
        assert r.end[t.id] == r.start[t.id] + t.duration
        for dep in t.deps:
            assert r.end[dep] <= r.start[t.id]
        if t.id in r.dispatch_end:
            assert r.dispatch_end[t.id] <= r.start[t.id]
            assert r.host_delay[t.id] == max(0.0, r.dispatch_end[t.id] - r.start[t.id] + r.host_delay[t.id])
    assert r.makespan == max(r.end.values())


@PROPERTY
@given(task_graphs(), st.data())
def test_dropping_a_dependency_never_lengthens_the_step(graph, data):
    tasks, programs, hosted = graph
    with_deps = [i for i, t in enumerate(tasks) if t.deps]
    if not with_deps:
        return
    i = data.draw(st.sampled_from(with_deps))
    dep = data.draw(st.sampled_from(tasks[i].deps))
    fewer = list(tasks)
    fewer[i] = replace(tasks[i], deps=tuple(d for d in tasks[i].deps if d != dep))
    full = run_tasks(tasks, programs, hosted=hosted)
    relaxed = run_tasks(fewer, programs, hosted=hosted)
    assert relaxed.makespan <= full.makespan
    for t in tasks:
        assert relaxed.start[t.id] <= full.start[t.id]


@PROPERTY
@given(task_graphs(), st.randoms(use_true_random=False))
def test_task_list_order_changes_no_value(graph, rng):
    tasks, programs, hosted = graph
    shuffled = list(tasks)
    rng.shuffle(shuffled)
    a = run_tasks(tasks, programs, hosted=hosted)
    b = run_tasks(shuffled, programs, hosted=hosted)
    for field in ("start", "end", "dispatch_end", "host_delay", "tasks", "chains", "makespan"):
        assert getattr(a, field) == getattr(b, field), field


# The columns as the engine took them before programs: chains maps
# (device, resource) and host_order maps device to positions in execution
# or launch order. Both earlier cores below take this form.
ChainColumns = namedtuple(
    "ChainColumns", "duration host_time device resource kind sync_host deps chains host_order"
)


def chain_form(columns):
    """Program columns in the chain form: each program cut by resource in
    order of first use, and the programs themselves as the host orders
    when hosted."""
    chains = {}
    for dev, program in columns.programs.items():
        for i in program:
            chains.setdefault((dev, columns.resource[i]), []).append(i)
    return ChainColumns(*columns[:7], chains, columns.programs if columns.hosted else {})


def kahn_oracle(columns):
    """The engine's earlier core, kept verbatim as the reference: a Kahn
    pass over a successor graph with one node per execution and one per
    dispatch, then the host delays from a second walk over the chains and
    dependencies. Takes chain-form columns; returns (begin, finish, host
    delays, makespan)."""
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


def chain_lane_walk(columns):
    """The core the program walk replaced, kept verbatim but for what it
    returns: every chain a lane of tasks and every host order a lane of
    dispatches, each parking on the node it waits for. Takes chain-form
    columns; returns (begin, finish, host delays, makespan)."""
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
    delays = [max(0.0, begin[n + i] + host_time[i] - ready[i]) for order in columns.host_order.values()
              for i in order]
    return begin, finish, delays, max(finish, default=0.0)


def walk_order_cycles(columns) -> bool:
    """Whether program order and dependencies together form a cycle: the
    graphs the program walk refuses."""
    succ = [[] for _ in columns.duration]
    for i, deps in enumerate(columns.deps):
        for d in deps:
            succ[d].append(i)
    for program in columns.programs.values():
        for prev, nxt in zip(program, program[1:]):
            succ[prev].append(nxt)
    indeg = [0] * len(succ)
    for out in succ:
        for v in out:
            indeg[v] += 1
    visit = [u for u, k in enumerate(indeg) if not k]
    for u in visit:
        for v in succ[u]:
            indeg[v] -= 1
            if not indeg[v]:
                visit.append(v)
    return len(visit) < len(succ)


def assert_matches_oracles(columns):
    """run_columns gives the bits of both earlier cores, or raises
    DeadlockError exactly where program order and dependencies form a
    cycle; returns whether the graph ran."""
    if walk_order_cycles(columns):
        with pytest.raises(DeadlockError):
            run_columns(columns, list)
        return False
    r = run_columns(columns, list)
    got = list(map(repr, (r.begin, r.finish, r.host_delays(), r.makespan)))
    n = len(r.finish)
    for oracle in (kahn_oracle, chain_lane_walk):
        begin, finish, delays, makespan = oracle(chain_form(columns))
        assert got == list(map(repr, (begin[:n], finish, delays, makespan)))  # repr: 0.0 and -0.0 differ
    return True


@st.composite
def task_columns(draw):
    """(shape, TaskColumns) with sync tasks, each task on one resource,
    hosted or not. "ordered": dependencies and programs follow position
    order, so every dependency on a task of the same program points back
    in it and the graph is acyclic. "shuffled": a task may wait on any
    other and every program is a random permutation of its device's tasks,
    so the walk may refuse the graph. "cyclic": shuffled, plus two tasks
    that wait on each other."""
    shape = draw(st.sampled_from(["ordered", "shuffled", "cyclic"]))
    n = draw(st.integers(1, 12))
    devices = draw(st.integers(1, 3))
    device = [draw(st.integers(0, devices - 1)) for _ in range(n)]
    resource = [draw(st.sampled_from(RESOURCES)) for _ in range(n)]
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
    programs = {}
    for i in order:
        programs.setdefault(device[i], []).append(i)
    kind = ["op"] * n
    return shape, TaskColumns(duration, host_time, device, resource, kind, sync, deps, programs, draw(st.booleans()))


@settings(database=None, derandomize=True, max_examples=300, deadline=None)
@given(task_columns())
def test_lane_walk_matches_the_kahn_oracle(drawn):
    shape, columns = drawn
    if shape == "ordered":
        for program in columns.programs.values():
            where = {i: k for k, i in enumerate(program)}
            assert all(where[d] < where[i] for i in program for d in columns.deps[i] if d in where)
    ran = assert_matches_oracles(columns)
    assert ran or shape != "ordered"
    assert not ran or shape != "cyclic"


@settings(database=None, derandomize=True, max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans(), st.booleans())
def test_lane_walk_matches_the_kahn_oracle_on_random_programs(seed, hosted, overlap):
    args, opts = random_program(random.Random(seed))
    opts["hw"] = replace(opts["hw"], host_dispatch_time=0.05 if hosted else 0.0)
    opts["policy"] = replace(opts["policy"], overlap_comm=overlap)
    columns = simulate_timeline(*args, **opts).timeline.columns
    assert columns.hosted == hosted
    assert assert_matches_oracles(columns)


# The 72 reference steps: 3 mechanisms x host dispatch off or on x three
# overlap policies x both memory modes x m = 16 or 32.
REFERENCE_VARIANTS = [
    (mechanism, host, policy, fine, gbs)
    for mechanism in ("hierarchical", "alltoall", "allgather")
    for host in (0.0, 3e-6)
    for policy in (OverlapPolicy(), SERIALIZED, OverlapPolicy(overlap_comm=False))
    for fine in (True, False)
    for gbs in (1536, 3072)
]


def captured_steps(monkeypatch) -> list:
    """The reports of the step simulations `training_report` runs, kept
    as it returns them."""
    steps = []

    def capture(*args, **kwargs):
        steps.append(simulate_timeline(*args, **kwargs))
        return steps[-1]

    monkeypatch.setattr(search, "simulate_timeline", capture)
    return steps


def test_program_walk_matches_the_chain_lane_walk_on_the_reference_steps(monkeypatch):
    """begin, finish, host delays and makespan by repr, on each reference
    step's own columns."""
    cfg = load_model(CONFIGS / "model_reference.json")
    cluster = load_cluster(CONFIGS / "cluster_6144.json")
    plan = load_plan(CONFIGS / "plan_reference.json")
    steps = captured_steps(monkeypatch)
    assert len(REFERENCE_VARIANTS) == 72
    for mechanism, host, policy, fine, gbs in REFERENCE_VARIANTS:
        features = SimulationFeatures(policy=policy, fine_grained_memory=fine, dispatch_mechanism=mechanism)
        training_report(cfg, replace(plan, global_batch_size=gbs), replace(cluster, host_dispatch_time=host), features)
        columns = steps.pop().timeline.columns
        r = run_columns(columns, list)
        begin, finish, delays, makespan = chain_lane_walk(chain_form(columns))
        got = (r.begin, r.finish, r.host_delays(), r.makespan)
        assert list(map(repr, got)) == list(map(repr, (begin[:len(finish)], finish, delays, makespan)))


def test_the_slot_walk_matches_the_engine_on_the_reference_steps(monkeypatch):
    """Each reference step's slot walk gives `run_columns`'s begin, finish
    and delay on the step's columns, and the report its figures, by repr."""
    cfg = load_model(CONFIGS / "model_reference.json")
    cluster = load_cluster(CONFIGS / "cluster_6144.json")
    plan = load_plan(CONFIGS / "plan_reference.json")
    steps = captured_steps(monkeypatch)
    for mechanism, host, policy, fine, gbs in REFERENCE_VARIANTS:
        features = SimulationFeatures(policy=policy, fine_grained_memory=fine, dispatch_mechanism=mechanism)
        training_report(cfg, replace(plan, global_batch_size=gbs), replace(cluster, host_dispatch_time=host), features)
        assert_walk_matches_engine(steps.pop(), policy.overlap_comm)


def test_a_training_step_never_runs_the_engine(monkeypatch):
    """The report and the timeline's columns come without
    `engine.run_columns`: the slot walk times the step."""

    def refuse(columns, names):
        raise AssertionError("run_columns was called")

    monkeypatch.setattr(engine, "run_columns", refuse)
    steps = captured_steps(monkeypatch)
    cfg = load_model(CONFIGS / "model_reference.json")
    hw = replace(load_cluster(CONFIGS / "cluster_6144.json"), host_dispatch_time=3e-6)
    plan = replace(load_plan(CONFIGS / "plan_reference.json"), global_batch_size=3072)
    for policy in (OverlapPolicy(), OverlapPolicy(overlap_comm=False)):
        training_report(cfg, plan, hw, SimulationFeatures(policy=policy))
        (step,) = steps
        assert step.timeline.columns.hosted and step.timeline.end
        steps.clear()


def test_engine_memory_per_task_stays_small(monkeypatch):
    """run_columns and host_delays() on the reference step at m = 64 with
    host dispatch allocate at most 150 bytes per task at their peak: the
    times and host delays, and no successor list, dispatch node or ready
    time per task (about 72 here; the chain-lane walk took about 109 and
    the Kahn pass about 385)."""
    cfg = load_model(CONFIGS / "model_reference.json")
    hw = replace(load_cluster(CONFIGS / "cluster_6144.json"), host_dispatch_time=3e-6)
    plan = replace(load_plan(CONFIGS / "plan_reference.json"), global_batch_size=96 * 64)
    steps = captured_steps(monkeypatch)
    training_report(cfg, plan, hw, SimulationFeatures(dispatch_mechanism="alltoall"))
    (step,) = steps
    columns = step.timeline.columns
    n = len(columns.duration)
    assert n > 10_000 and columns.hosted
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = run_columns(columns, list)
        result.host_delays()
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak / n <= 150


def test_a_whole_step_memory_per_task_stays_small(monkeypatch):
    """One `simulate_timeline` call on the reference step at m = 64 with
    host dispatch, from the schedule and transfers to the report, its
    tables included, allocates at most 150 bytes per task at its peak
    (about 113; the column build and engine run it replaced took about
    203)."""
    cfg = load_model(CONFIGS / "model_reference.json")
    hw = replace(load_cluster(CONFIGS / "cluster_6144.json"), host_dispatch_time=3e-6)
    plan = replace(load_plan(CONFIGS / "plan_reference.json"), global_batch_size=96 * 64)
    calls = []

    def record(*args, **kwargs):
        calls.append((args, kwargs))
        return simulate_timeline(*args, **kwargs)

    monkeypatch.setattr(search, "simulate_timeline", record)
    training_report(cfg, plan, hw, SimulationFeatures(dispatch_mechanism="alltoall"))
    ((args, kwargs),) = calls
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        step = simulate_timeline(*args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    n = len(step.timeline.finish)
    assert n > 10_000 and step.timeline.delay
    assert peak / n <= 150


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
    """The sweep, given merged spans and the windows in order of start, as
    a serial chain runs them, returns each window's scan of the spans, bit
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
        assert merged_intervals(intervals) == intervals
        assert covered_lengths(intervals, windows) == [overlap_reference(intervals, s, e) for s, e in windows]


def test_merged_intervals_join_touching_and_nested_spans():
    """Spans in order of start: empty ones drop out, and touching, nested
    or overlapping ones join into one."""
    spans = [(0.0, 1.0), (1.0, 2.0), (1.5, 1.7), (3.0, 3.0), (4.0, 5.0), (4.5, 6.0), (7.0, 6.5), (8.0, 9.0)]
    assert merged_intervals(spans) == [(0.0, 2.0), (4.0, 6.0), (8.0, 9.0)]
    assert merged_intervals([]) == merged_intervals([(2.0, 2.0)]) == []


@settings(database=None, derandomize=True, max_examples=200, deadline=None)
@given(st.lists(st.tuples(TIMES, TIMES), max_size=12))
def test_merging_merged_spans_changes_nothing(drawn):
    """covered_lengths takes spans merged once: a second merge of them,
    as it made before, would give the same spans."""
    spans = sorted((s, s + length) for s, length in drawn)
    merged = merged_intervals(spans)
    assert merged_intervals(merged) == merged
    assert all(a < b < c for (a, b), (c, _) in zip(merged, merged[1:]))
