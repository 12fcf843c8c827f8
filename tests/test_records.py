"""Every input record refuses what it cannot hold, naming the field.

One property walks `dataclasses.fields` of every input record, so no field
list is kept by hand: one field set to a hostile value must either make
the record refuse it at construction, with a ValueError naming the field,
or leave every number downstream finite, with warnings as errors. A value
that does not have the field's annotated type (a bool or a float in an int
field, a bool or a NaN in a float field) must be refused at construction.
"""

import dataclasses
import math
import typing
import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from moesim.balance import TraceSpec, generate_trace, run_balance_simulation
from moesim.cluster import COLLECTIVE_KINDS as KINDS, CommGroup, HardwareDescription, collective_time
from moesim.errors import MoesimError
from moesim.memory import MemoryPlan, memory_report
from moesim.model import DesignSpace, MlaDims, ModelConfig, PruningRules, enumerate_design_space
from moesim.parallel import ParallelPlan, assign_chunks, require_valid
from moesim.pipeline import ChunkCost, OverlapPolicy, build_1f1b_schedule, simulate_timeline
from moesim.search import SimulationFeatures, training_report
from test_search import bench_cluster, bench_model, bench_plan

HOSTILE = (math.nan, math.inf, -math.inf, -1, 0, True, 1e308, 2.5, "x")


def train(cfg=None, plan=None, hw=None, features=None):
    rep = training_report(cfg or bench_model(), plan or bench_plan(), hw or bench_cluster(), features)
    return [rep.step_time, rep.tps, rep.mfu, rep.bubble_ratio, rep.comm_overlap_rate, rep.exposed_comm_time,
            rep.memory.total_bytes, rep.memory.time_added]


def enumerate_space(space):
    return [len(enumerate_design_space(space))]


def memory(mem_plan):
    cfg, hw = bench_model(), bench_cluster()
    plan = require_valid(bench_plan(), cfg, hw)
    rep = memory_report(cfg, plan, assign_chunks(cfg, plan), hw, mem_plan)
    return [rep.static_bytes, rep.activation_bytes, rep.time_added]


def step(costs=ChunkCost(1.0, 2.0), policy=None):
    rep = simulate_timeline(build_1f1b_schedule(2, 4), {(0, 0): costs, (1, 0): costs}, policy=policy,
                            hw=bench_cluster(host_dispatch_time=1e-3))
    return [rep.step_time, rep.bubble_ratio, rep.comm_overlap_rate, rep.exposed_comm_time, rep.host_idle_time,
            *rep.per_stage_busy]


def replay(spec):
    trace = generate_trace(spec, 0)
    result = run_balance_simulation(trace, 2)
    return [trace.scores, result.static_cv, result.managed_cv]


RANGES = {"hidden_size": [64, 128], "num_routed_experts": [4, 8]}

# Each input record: a valid instance, and what runs downstream of it.
RECORDS = {
    ModelConfig: (bench_model, lambda cfg: train(cfg=cfg)),
    MlaDims: (lambda: bench_model().mla, lambda mla: train(cfg=bench_model(mla=mla))),
    PruningRules: (PruningRules, lambda rules: enumerate_space(DesignSpace(bench_model(), RANGES, rules))),
    DesignSpace: (lambda: DesignSpace(bench_model(), RANGES), enumerate_space),
    ParallelPlan: (bench_plan, lambda plan: train(plan=plan)),
    HardwareDescription: (bench_cluster, lambda hw: train(hw=hw)),
    CommGroup: (lambda: CommGroup(4, 1e-6, 1e9), lambda group: [collective_time(k, 1e9, group) for k in KINDS]),
    MemoryPlan: (MemoryPlan, memory),
    ChunkCost: (lambda: ChunkCost(1.0, 2.0), step),
    OverlapPolicy: (OverlapPolicy, lambda policy: step(policy=policy)),
    SimulationFeatures: (SimulationFeatures, lambda features: train(features=features)),
    TraceSpec: (lambda: TraceSpec(num_experts=8, tokens_per_step=16, steps=3, top_k=2, num_tasks=2), replay),
}


def all_finite(numbers) -> bool:
    return all(np.isfinite(n).all() for n in numbers)


def has_its_type(hint, value) -> bool:
    """Whether ``value`` has the annotated type ``hint``: an int that is not
    a bool for ``int``, a finite int or float for ``float``."""
    args = typing.get_args(hint)
    kind = args[0] if type(None) in args else hint
    if kind is float:
        return type(value) in (int, float) and math.isfinite(value)
    return type(value) is kind


@settings(max_examples=2000, deadline=None, database=None, derandomize=True)
@given(st.data())
def test_every_field_refuses_a_hostile_value_or_stays_finite(data):
    """The simulator's refusal of a design it can represent (a plan that
    does not fit the memory, a space pruned empty) is a result too; a
    ValueError must name the field."""
    cls = data.draw(st.sampled_from(list(RECORDS)), label="record")
    make, downstream = RECORDS[cls]
    name = data.draw(st.sampled_from([f.name for f in dataclasses.fields(cls)]), label="field")
    value = data.draw(st.sampled_from(HOSTILE), label="value")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            record = dataclasses.replace(make(), **{name: value})
        except ValueError as exc:
            assert name in str(exc), exc
            return
        assert has_its_type(typing.get_type_hints(cls)[name], value), f"{cls.__name__}.{name} accepted {value!r}"
        try:
            numbers = downstream(record)
        except (MoesimError, ValueError) as exc:
            assert not isinstance(exc, ValueError) or name in str(exc), exc
            return
    assert all_finite(numbers), numbers
