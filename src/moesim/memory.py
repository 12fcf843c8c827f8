"""Device memory accounting and recompute/swap plan selection.

Static memory per device is the sharded weight + gradient pair at the
training dtype plus the fp32 master copy and two optimizer moments, the
latter sharded across data parallel ranks:

    bytes = 2 * dtype_bytes * P_device + (4 + 8) * P_device / dp

Activation accounting groups every intra-layer tensor into one of four
releasable buckets (attention path, kv-only subset of it, token
permutation buffers, expert FFN intermediates) plus the router
probabilities, which can be swapped to host memory instead of recomputed.
With every option enabled only the layer-boundary activations remain: the
attention block input and the FFN block input, 2 * hidden * dtype_bytes
per token per layer. Each option is declared once: the buckets it releases
in `_RELEASES`, its per-layer seconds in `plan_time_cost`'s table. Peak
bytes scale with the micro batches a stage keeps alive under the 1F1B
schedule, its warm-up forwards plus one (stage 0 is the worst). The
capacity is always the cluster's `hbm_capacity`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .cluster import HardwareDescription, kernel_time
from .errors import InfeasibleMemoryError, NonDivisibleError
from .model import ModelConfig, flops_per_token, _attention_params, _layer_norm_params
from .parallel import ParallelPlan, StageAssignment, assign_chunks, micro_batch_count, tokens_per_device
from .pipeline import warmup_forwards
from .records import check_fields

RECOMPUTE_OPTIONS = ("mla_qkv", "mla_kv_only", "permute", "swiglu_activation")
SWAP_OPTIONS = ("probs",)

# The activation buckets (see `_activation_buckets`) each option releases.
# Only the layer-boundary bucket is always kept.
_RELEASES = {
    "full_layer": ("mla_kv_only", "mla_q_rest", "permute", "swiglu_activation", "probs"),
    "mla_qkv": ("mla_kv_only", "mla_q_rest"),
    "mla_kv_only": ("mla_kv_only",),
    "permute": ("permute",),
    "swiglu_activation": ("swiglu_activation",),
    "probs": ("probs",),
}


@dataclass(frozen=True)
class MemoryPlan:
    recompute: frozenset = frozenset()
    swap: frozenset = frozenset()
    full_layer: bool = False

    def __post_init__(self):
        check_fields(self)
        unknown = set(self.recompute) - set(RECOMPUTE_OPTIONS)
        if unknown:
            raise ValueError(f"unknown recompute options: {sorted(unknown)}")
        unknown = set(self.swap) - set(SWAP_OPTIONS)
        if unknown:
            raise ValueError(f"unknown swap options: {sorted(unknown)}")
        if "mla_qkv" in self.recompute and "mla_kv_only" in self.recompute:
            raise ValueError("mla_qkv and mla_kv_only are mutually exclusive")

    @staticmethod
    def everything() -> "MemoryPlan":
        return MemoryPlan(
            recompute=frozenset(("mla_qkv", "permute", "swiglu_activation")),
            swap=frozenset(SWAP_OPTIONS),
        )


def _enabled(plan: MemoryPlan) -> frozenset:
    """Every option `plan` turns on, named as in `_RELEASES`."""
    return plan.recompute | plan.swap | ({"full_layer"} if plan.full_layer else frozenset())


@dataclass(frozen=True)
class MemoryReport:
    static_bytes: float
    activation_bytes: float
    capacity_bytes: float
    feasible: bool
    plan: MemoryPlan
    time_added: float = 0.0

    @property
    def total_bytes(self) -> float:
        return self.static_bytes + self.activation_bytes

    @property
    def headroom_bytes(self) -> float:
        return self.capacity_bytes - self.total_bytes


def _item_params_per_device(cfg: ModelConfig, plan: ParallelPlan, kind: str) -> float:
    """Parameters one device owns for a single layer item of ``kind``."""
    h = cfg.hidden_size
    attn = (_attention_params(cfg) + _layer_norm_params(cfg)) / plan.tp
    expert = cfg.expert_param_count
    if kind == "dense":
        return attn + 3 * h * cfg.dense_ffn_intermediate_size / plan.tp
    if kind in ("moe", "mtp"):
        held = cfg.num_routed_experts // (plan.tp * plan.ep)
        value = (
            attn
            + h * cfg.num_routed_experts  # router, replicated
            + held * expert
            + cfg.num_shared_experts * expert / plan.tp
        )
        if kind == "mtp":
            value += (2 * h * h + 2 * h) / plan.tp
        return value
    if kind == "head":
        return h * cfg.vocab_size / plan.tp
    raise ValueError(f"unknown layer item kind {kind!r}")


def static_memory(cfg: ModelConfig, plan: ParallelPlan, assignment: StageAssignment) -> float:
    """Worst per-device static bytes (weights, grads, optimizer shard)."""
    if plan.dp < 1:
        raise ValueError("plan.dp must be resolved (>= 1)")
    per_stage = [0.0] * plan.pp
    for chunk in assignment.chunks:
        for kind, _ in chunk.items:
            per_stage[chunk.pp_stage] += _item_params_per_device(cfg, plan, kind)
    per_stage[0] += cfg.vocab_size * cfg.hidden_size / plan.tp  # input embedding
    worst = max(per_stage)
    return 2 * cfg.dtype_bytes * worst + 12.0 * worst / plan.dp


def _activation_buckets(cfg: ModelConfig, kind: str) -> dict:
    """Stored bytes per token for one layer, grouped by release option."""
    b = cfg.dtype_bytes
    h = cfg.hidden_size
    m = cfg.mla
    heads = cfg.num_attention_heads
    kv_part = (m.kv_rank + m.rope_dim) + (heads * m.head_dim + m.rope_dim) + heads * m.head_dim
    q_part = m.q_rank + heads * (m.head_dim + m.rope_dim)
    ctx = heads * m.head_dim
    buckets = {
        "boundary": 2 * h * b,
        "mla_kv_only": kv_part * b,
        "mla_q_rest": (q_part + ctx) * b,
        "permute": 0.0,
        "swiglu_activation": 0.0,
        "probs": 0.0,
    }
    if kind == "dense":
        buckets["swiglu_activation"] = 2 * cfg.dense_ffn_intermediate_size * b
    else:
        active = cfg.top_k + cfg.num_shared_experts
        buckets["permute"] = (2 * cfg.top_k + cfg.num_shared_experts) * h * b
        buckets["swiglu_activation"] = active * 2 * cfg.expert_intermediate_size * b
        buckets["probs"] = cfg.num_routed_experts * 4.0
    return buckets


def _kept_bytes_per_token(cfg: ModelConfig, kind: str, plan: MemoryPlan) -> float:
    released = {bucket for option in _enabled(plan) for bucket in _RELEASES[option]}
    return sum(v for bucket, v in _activation_buckets(cfg, kind).items() if bucket not in released)


def in_flight_micro_batches(plan: ParallelPlan, stage: int, m: int | None = None) -> int:
    """Forward activations stage ``stage`` holds at the 1F1B peak, counted
    in chunk units: its warm-up forwards plus the first steady-state one."""
    peak = warmup_forwards(plan.pp, stage, plan.vpp) + 1
    return peak if m is None else min(peak, m * plan.vpp)


def _micro_batches(plan: ParallelPlan) -> int | None:
    """The micro batch count, or None while `micro_batch_count` has none."""
    try:
        return micro_batch_count(plan)
    except NonDivisibleError:
        return None


def activation_peak(
    cfg: ModelConfig,
    plan: ParallelPlan,
    assignment: StageAssignment,
    mem_plan: MemoryPlan,
) -> float:
    """Peak activation bytes on the worst (first) pipeline stage."""
    m = _micro_batches(plan)
    tokens = tokens_per_device(cfg, plan)
    stage_chunks = [c for c in assignment.chunks if c.pp_stage == 0]
    per_mb = 0.0
    for chunk in stage_chunks:
        for kind, _ in chunk.items:
            # the head's logits are freed within the micro batch, not accumulated
            if kind != "head":
                per_mb += _kept_bytes_per_token(cfg, kind, mem_plan) * tokens
    per_chunk = per_mb / max(1, len(stage_chunks))
    return in_flight_micro_batches(plan, 0, m) * per_chunk


def plan_time_cost(
    cfg: ModelConfig,
    plan: ParallelPlan,
    hw: HardwareDescription,
    mem_plan: MemoryPlan,
) -> float:
    """Seconds one device adds per step for recompute and swap traffic."""
    m = _micro_batches(plan) or 1  # one micro batch while the count is unknown
    tokens = tokens_per_device(cfg, plan)
    layers_per_stage = math.ceil((cfg.num_layers + cfg.num_mtp_layers) / plan.pp)
    moe_fraction = cfg.num_moe_layers / max(1, cfg.num_layers)
    b = cfg.dtype_bytes
    h = cfg.hidden_size
    layer_fwd = kernel_time(flops_per_token(cfg).per_layer["moe"] * tokens, 0.0, hw, dtype_bytes=b)

    mla = cfg.mla
    kv_params = h * mla.kv_rank + h * mla.rope_dim + 2 * mla.kv_rank * cfg.num_attention_heads * mla.head_dim
    active = cfg.top_k + cfg.num_shared_experts
    probs_transfer = 2.0 * cfg.num_routed_experts * 4.0 * tokens * moe_fraction
    seconds = {
        "full_layer": layer_fwd,
        "mla_qkv": kernel_time(2.0 * _attention_params(cfg) * tokens, 0.0, hw, dtype_bytes=b),
        "mla_kv_only": kernel_time(2.0 * kv_params * tokens, 0.0, hw, dtype_bytes=b),
        "permute": kernel_time(0.0, 2 * cfg.top_k * h * b * tokens * moe_fraction, hw, dtype_bytes=b),
        "swiglu_activation": kernel_time(
            0.0, 3 * active * cfg.expert_intermediate_size * b * tokens * moe_fraction, hw, dtype_bytes=b
        ),
        # the swap hides behind the forward and backward expert compute
        "probs": max(0.0, probs_transfer / hw.host_to_device_bandwidth - 2.0 * layer_fwd),
    }
    enabled = _enabled(mem_plan)
    per_layer = 0.0
    for option, t in seconds.items():  # summed in this order, so the float sum is fixed
        if option in enabled:
            per_layer += t
    return per_layer * layers_per_stage * m


def memory_report(
    cfg: ModelConfig,
    plan: ParallelPlan,
    assignment: StageAssignment,
    hw: HardwareDescription,
    mem_plan: MemoryPlan,
) -> MemoryReport:
    static = static_memory(cfg, plan, assignment)
    act = activation_peak(cfg, plan, assignment, mem_plan)
    return MemoryReport(
        static_bytes=static,
        activation_bytes=act,
        capacity_bytes=hw.hbm_capacity,
        feasible=static + act <= hw.hbm_capacity,
        plan=mem_plan,
        time_added=plan_time_cost(cfg, plan, hw, mem_plan),
    )


def infeasible_error(report: MemoryReport, tried: str) -> InfeasibleMemoryError:
    """The error for a memory plan that does not fit; ``tried`` names it."""
    return InfeasibleMemoryError(
        f"static {report.static_bytes:.3e} + activations {report.activation_bytes:.3e} "
        f"exceed capacity {report.capacity_bytes:.3e} {tried}"
    )


def candidate_plans() -> list:
    """Every valid fine-grained option combination, deterministic order:
    one choice from each of the four groups."""
    groups = (
        (frozenset(), frozenset(("mla_kv_only",)), frozenset(("mla_qkv",))),
        (frozenset(), frozenset(("permute",))),
        (frozenset(), frozenset(("swiglu_activation",))),
        (frozenset(), frozenset(("probs",))),
    )
    return [MemoryPlan(recompute=a | p | f, swap=s) for a, p, f, s in itertools.product(*groups)]


def select_memory_plan(cfg: ModelConfig, plan: ParallelPlan, hw: HardwareDescription) -> MemoryReport:
    """Cheapest feasible fine-grained plan within ``hw.hbm_capacity``.

    Ranked by added time, then fewer options, then kv-only preferred over
    the full attention path, then option names. Raises
    InfeasibleMemoryError when even the maximal set does not fit.
    """
    assignment = assign_chunks(cfg, plan)
    static = static_memory(cfg, plan, assignment)  # the same bytes for every candidate
    reports = []
    for mp in candidate_plans():
        act = activation_peak(cfg, plan, assignment, mp)
        if static + act <= hw.hbm_capacity:  # only a plan that fits is priced
            reports.append(MemoryReport(static, act, hw.hbm_capacity, True, mp, plan_time_cost(cfg, plan, hw, mp)))
    if not reports:
        full = memory_report(cfg, plan, assignment, hw, MemoryPlan.everything())
        raise infeasible_error(full, "even with every option enabled")

    def key(rep: MemoryReport):
        names = sorted(rep.plan.recompute | rep.plan.swap)
        return (
            rep.time_added,
            len(names),
            1 if "mla_qkv" in rep.plan.recompute else 0,
            names,
        )

    return min(reports, key=key)
