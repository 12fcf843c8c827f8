"""Scoring single configurations and ranking a design space.

Training cost comes from the timeline simulator: chunk compute times from
a roofline kernel model, cross-stage activation transfers, and per-slot
expert-dispatch collectives, all scheduled under the interleaved 1F1B
order. Inference cost is a deliberately coarse cluster-level roofline for
batched decode; it ranks design directions rather than predicting
deployment latency. `search_space` scores every candidate in a design
space on both axes, normalizes each axis to its best candidate, and ranks
by the weighted sum.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass
from itertools import chain

from .cluster import HardwareDescription, kernel_time
from .comm import MECHANISMS, dispatch_volumes
from .errors import MoesimError, UnpricedDtypeError
from .memory import (
    MemoryPlan, MemoryReport, infeasible_error, memory_report, select_memory_plan, _item_params_per_device,
)
from .model import DesignSpace, ModelConfig, count_parameters, enumerate_design_space, flops_per_token, model_id
from .parallel import (
    ParallelPlan, StageAssignment, assign_chunks, micro_batch_count, require_valid, tokens_per_device,
)
from .pipeline import (
    ChunkCost, HopShape, OverlapPolicy, SlotTransfers, build_1f1b_schedule, dataflow_parent, simulate_timeline,
    summarize,
)


@dataclass(frozen=True)
class SimulationFeatures:
    """Executor behaviors the simulator can toggle: the overlap policy the
    timeline runs under, per-bucket memory planning, and the dispatch
    mechanism."""

    policy: OverlapPolicy = OverlapPolicy()
    fine_grained_memory: bool = True
    dispatch_mechanism: str = "hierarchical"

    def __post_init__(self):
        if self.dispatch_mechanism not in MECHANISMS:
            raise ValueError(f"dispatch_mechanism must be one of {MECHANISMS}, got {self.dispatch_mechanism!r}")


@dataclass(frozen=True)
class CostReport:
    model: str
    mode: str
    step_time: float
    tps: float
    mfu: float
    bubble_ratio: float = 0.0
    comm_overlap_rate: float = 1.0
    exposed_comm_time: float = 0.0
    memory: MemoryReport | None = None


def chunk_costs_from_model(
    cfg: ModelConfig,
    plan: ParallelPlan,
    assignment: StageAssignment,
    hw: HardwareDescription,
) -> dict:
    """Roofline forward/backward seconds for every (pp, vpp) chunk."""
    profile = flops_per_token(cfg)
    tokens_dev = tokens_per_device(cfg, plan)
    costs = {}
    for chunk in assignment.chunks:
        flops = 0.0
        weight_bytes = 0.0
        for kind, _ in chunk.items:
            flops += profile.per_layer[kind] * tokens_dev
            weight_bytes += _item_params_per_device(cfg, plan, kind) * cfg.dtype_bytes
        act_bytes = 2.0 * cfg.hidden_size * cfg.dtype_bytes * tokens_dev * max(1, len(chunk.items))
        fwd = kernel_time(flops, weight_bytes + act_bytes, hw, dtype_bytes=cfg.dtype_bytes)
        costs[(chunk.pp_stage, chunk.vpp_stage)] = ChunkCost(fwd=fwd, bwd=2.0 * fwd)
    return costs


def _stage_crossing_resource(plan: ParallelPlan, hw: HardwareDescription) -> str:
    if hw.num_nodes > 1 and plan.tp * plan.cp >= hw.devices_per_node:
        return "inter_link"
    return "intra_link"


def _slot_transfers(schedule, shapes: list, per_slot: list) -> SlotTransfers:
    """The transfers into every slot, on the slot's own stage.

    ``per_slot`` lists each slot's transfers, by slot number and in order,
    as indices into ``shapes``: the first is not chained (it waits on the
    slot's dataflow parent), each later one is (it waits on the transfer
    before it).
    """
    slots = [g for g, these in enumerate(per_slot) for _ in these]
    return SlotTransfers(schedule, slots, chain.from_iterable(per_slot), shapes)


def boundary_transfer_events(
    schedule,
    cfg: ModelConfig,
    plan: ParallelPlan,
    hw: HardwareDescription,
) -> SlotTransfers:
    """Point-to-point activation sends along every cross-stage dependency.

    When the model trains an extra next-token prediction stream, its hidden
    state rides along with the main one, doubling the payload.
    """
    tokens_dev = tokens_per_device(cfg, plan)
    streams = 2 if cfg.num_mtp_layers > 0 else 1
    volume = tokens_dev * cfg.hidden_size * cfg.dtype_bytes * streams
    shapes = [HopShape("p2p", _stage_crossing_resource(plan, hw), volume, 0, False, "p2p:", "")]
    parents = ((sl, dataflow_parent(sl, len(schedule), plan.vpp)) for sl in chain.from_iterable(schedule))
    per_slot = [(0,) if up is not None and up.pp_stage != sl.pp_stage else () for sl, up in parents]
    return _slot_transfers(schedule, shapes, per_slot)


def slot_dispatch_events(
    schedule,
    cfg: ModelConfig,
    plan: ParallelPlan,
    assignment: StageAssignment,
    hw: HardwareDescription,
    mechanism: str = "hierarchical",
) -> SlotTransfers:
    """Expert dispatch and combine collectives for every schedule slot.

    Each slot carries one transfer per network tier sized by the chunk's
    expert-routed layers (dispatch plus combine, hence the factor two).
    Transfers depend on the slot's upstream dataflow and gate the slot
    itself, so overlap can only come from other micro batches' compute.
    """
    if plan.ep == 1:
        return SlotTransfers(schedule)
    tokens_dev = tokens_per_device(cfg, plan)
    vols = dispatch_volumes(
        mechanism, tokens_dev, cfg.hidden_size, cfg.dtype_bytes, cfg.top_k, plan.tp, plan.ep
    )
    inter_group = plan.ep * plan.tp if mechanism == "allgather" else plan.ep
    inter_kind = "alltoall" if mechanism == "alltoall" else "allgather"
    intra_group = min(plan.ep * plan.tp, hw.devices_per_node)
    # Per network tier: (id suffix, kind, resource, bytes per dispatch, group
    # size). A slot's intra-node transfer waits for its inter-node one.
    tiers = []
    if hw.num_nodes > 1 and vols.inter_node_bytes > 0:
        tiers.append((":inter", inter_kind, "inter_link", vols.inter_node_bytes, inter_group))
    if vols.intra_node_bytes > 0:
        tiers.append((":intra", "alltoall", "intra_link", vols.intra_node_bytes, intra_group))
    # Each chunk's transfers, as indices into one table of distinct shapes.
    index, chunk_hops = {}, {}  # index: shape -> its place in the table
    for chunk in assignment.chunks:
        layers = sum(1 for kind, _ in chunk.items if kind in ("moe", "mtp"))
        scale = 2.0 * layers
        chunk_hops[(chunk.pp_stage, chunk.vpp_stage)] = tuple(
            index.setdefault(HopShape(kind, res, vol * scale, group, i > 0, "disp:", tier), len(index))
            for i, (tier, kind, res, vol, group) in enumerate(tiers if layers else ())
        )
    per_slot = [chunk_hops[(sl.pp_stage, sl.vpp_stage)] for sl in chain.from_iterable(schedule)]
    return _slot_transfers(schedule, list(index), per_slot)


def training_report(
    cfg: ModelConfig,
    plan: ParallelPlan,
    hw: HardwareDescription,
    features: SimulationFeatures | None = None,
) -> CostReport:
    """Simulate one training step and summarize throughput and MFU.

    Raises InfeasibleMemoryError when the memory plan does not fit.
    """
    features = features or SimulationFeatures()
    plan = require_valid(plan, cfg, hw)
    assignment = assign_chunks(cfg, plan)
    if features.fine_grained_memory:
        mem = select_memory_plan(cfg, plan, hw)
    else:
        mem = memory_report(cfg, plan, assignment, hw, MemoryPlan(full_layer=True))
        if not mem.feasible:
            raise infeasible_error(mem, "with full-layer recompute")
    m = micro_batch_count(plan)
    # The step's slots, hop rows and task columns (tens of thousands) form no
    # reference cycle, and reference counting frees them as this returns; a
    # cyclic collection over them meanwhile would only scan them.
    collecting = gc.isenabled()
    gc.disable()
    try:
        schedule = build_1f1b_schedule(plan.pp, m, plan.vpp)
        costs = chunk_costs_from_model(cfg, plan, assignment, hw)
        transfers = boundary_transfer_events(schedule, cfg, plan, hw)
        transfers += slot_dispatch_events(schedule, cfg, plan, assignment, hw, features.dispatch_mechanism)
        report = simulate_timeline(schedule, costs, policy=features.policy, hw=hw, transfers=transfers)
        step_time = report.step_time + mem.time_added
        mfu, tps = summarize(step_time, cfg, plan, hw)
        return CostReport(
            model=model_id(cfg),
            mode="training",
            step_time=step_time,
            tps=tps,
            mfu=mfu,
            bubble_ratio=report.bubble_ratio,
            comm_overlap_rate=report.comm_overlap_rate,
            exposed_comm_time=report.exposed_comm_time,
            memory=mem,
        )
    finally:
        if collecting:
            gc.enable()


def inference_report(
    cfg: ModelConfig,
    hw: HardwareDescription,
    batch: int = 4096,
) -> CostReport:
    """Cluster-level decode roofline: batched single-token steps.

    Compute is twice the activated matmul parameters plus attention over a
    compressed per-token cache; traffic is one sweep of the weights plus
    the cache reads. The slower of the two bounds sets the step time.
    """
    if batch < 1:
        raise ValueError(f"batch must be >= 1, got {batch}")
    params = count_parameters(cfg)
    ctx = cfg.seq_len
    heads = cfg.num_attention_heads
    mla = cfg.mla
    attn_flops_tok = 2.0 * heads * (mla.kv_rank + mla.rope_dim) * ctx + 2.0 * heads * mla.kv_rank * ctx
    flops_tok = 2.0 * params.activated_matmul + attn_flops_tok * cfg.num_layers
    weight_bytes = params.total * cfg.dtype_bytes
    cache_bytes = float(batch) * cfg.num_layers * ctx * (mla.kv_rank + mla.rope_dim) * cfg.dtype_bytes
    peak = hw.world_size * hw.peak_for_dtype_bytes(cfg.dtype_bytes) * hw.matmul_efficiency
    bw = hw.world_size * hw.hbm_bandwidth
    step = max(batch * flops_tok / peak, (weight_bytes + cache_bytes) / bw)
    tps = batch / step
    mfu = batch * flops_tok / (step * hw.world_size * hw.peak_for_dtype_bytes(cfg.dtype_bytes))
    return CostReport(
        model=model_id(cfg),
        mode="inference",
        step_time=step,
        tps=tps,
        mfu=mfu,
    )


@dataclass(frozen=True)
class RankedCandidate:
    model: str
    score: float
    training: CostReport | None
    inference: CostReport | None


@dataclass(frozen=True)
class SearchOutcome:
    ranked: tuple
    skipped: tuple  # (model_id, reason) pairs

    def top(self, k: int) -> tuple:
        return self.ranked[:k]


def _score_one(args):
    cfg, plan, hw, features, mode = args
    name = model_id(cfg)
    try:
        train = training_report(cfg, plan, hw, features) if mode in ("both", "training") else None
        infer = inference_report(cfg, hw) if mode in ("both", "inference") else None
        return (name, train, infer, None)
    except MoesimError as exc:
        return (name, None, None, f"{type(exc).__name__}: {exc}")


def search_space(
    space: DesignSpace | list,
    plan: ParallelPlan,
    hw: HardwareDescription,
    features: SimulationFeatures | None = None,
    mode: str = "both",
    top: int | None = None,
    workers: int = 1,
) -> SearchOutcome:
    """Score every candidate and rank by normalized combined throughput.

    Candidates whose plan or memory is infeasible, or whose dtype the
    cluster cannot price, are collected with the failure reason instead of
    aborting the search; a cluster that prices none of the candidates
    raises the first one's UnpricedDtypeError before any is scored.
    Ranking normalizes each axis to the best candidate and weighs it 0.5
    in mode "both", 1.0 when it is the only axis; ties break on the model
    id, making the order total and deterministic.
    """
    if mode not in ("both", "training", "inference"):
        raise ValueError(f"unknown mode {mode!r}")
    for name, value in (("top", top), ("workers", workers)):
        if value is not None and value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")
    features = features or SimulationFeatures()
    configs = enumerate_design_space(space) if isinstance(space, DesignSpace) else list(space)
    unpriced = None
    for cfg in configs:
        try:
            hw.peak_for_dtype_bytes(cfg.dtype_bytes)
            break
        except UnpricedDtypeError as exc:
            unpriced = unpriced or exc
    else:
        if unpriced is not None:
            raise unpriced
    jobs = [(cfg, plan, hw, features, mode) for cfg in configs]
    if workers > 1:
        # Imported here: it loads multiprocessing, ~15 ms a serial search does not need
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_score_one, jobs))
    else:
        results = [_score_one(j) for j in jobs]

    scored = [(n, t, i) for n, t, i, err in results if err is None]
    skipped = tuple((n, err) for n, _, _, err in results if err is not None)
    if not scored:
        return SearchOutcome(ranked=(), skipped=skipped)

    max_train = max((t.tps for _, t, _ in scored if t), default=0.0)
    max_inf = max((i.tps for _, _, i in scored if i), default=0.0)
    weight = 0.5 if mode == "both" else 1.0
    ranked = []
    for name, train, infer in scored:
        score = 0.0
        if train and max_train > 0:
            score += weight * train.tps / max_train
        if infer and max_inf > 0:
            score += weight * infer.tps / max_inf
        ranked.append(RankedCandidate(name, score, train, infer))
    ranked.sort(key=lambda r: (-r.score, r.model))
    if top is not None:
        ranked = ranked[:top]
    return SearchOutcome(ranked=tuple(ranked), skipped=skipped)
