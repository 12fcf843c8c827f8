"""Parallelism plan validation and layer-to-chunk assignment.

A plan factorizes the cluster as tp * pp * dp * cp == world_size, with
expert parallelism nested inside data parallelism (dp >= ep, ep | dp) and
experts sharded across tp * ep devices, so num_routed_experts must divide
evenly by tp * ep, and tp * cp devices hold whole shares of a micro batch's
micro_batch_size * seq_len tokens.

Chunk assignment splits the ordered layer items (dense layers, expert
layers, extra-token blocks, then the head+loss) into pp * vpp contiguous
chunks minimizing the maximum chunk weight. The split is exact (the
linear-partition method: a search over run weights with a greedy cover
check), with ties broken toward the earliest split positions. Chunk i maps
to pipeline stage i % pp, virtual stage i // pp.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, replace
from functools import reduce
from operator import add

from .cluster import HardwareDescription
from .errors import InfeasibleChunkingError, NonDivisibleError, PlanError
from .model import ModelConfig
from .records import bounded, check_fields


@dataclass(frozen=True)
class ParallelPlan:
    tp: int = bounded(">= 1", default=1)
    pp: int = bounded(">= 1", default=1)
    vpp: int = bounded(">= 1", default=1)
    ep: int = bounded(">= 1", default=1)
    dp: int = bounded(">= 0", default=0)  # 0 means "derive from world size"
    cp: int = bounded(">= 1", default=1)
    micro_batch_size: int = bounded(">= 1", default=1)
    global_batch_size: int = bounded(">= 0", default=0)  # sequences per step; 0 means unspecified

    def __post_init__(self):
        check_fields(self)


@dataclass(frozen=True)
class PlanCheck:
    ok: bool
    errors: tuple
    plan: ParallelPlan  # with dp resolved when derivable


def validate_plan(plan: ParallelPlan, cfg: ModelConfig, hw: HardwareDescription) -> PlanCheck:
    """Check a plan against the model and cluster; never raises.

    dp == 0 is resolved to world_size / (tp * pp * cp) when that divides
    evenly. The returned plan carries the resolved dp.
    """
    errors = []
    world = hw.world_size
    grid = plan.tp * plan.pp * plan.cp
    dp = plan.dp
    if dp == 0:
        if world % grid == 0:
            dp = world // grid
        else:
            errors.append(
                f"cannot derive dp: tp*pp*cp={grid} does not divide world_size={world}"
            )
            dp = 1
    resolved = replace(plan, dp=dp)

    if plan.tp * plan.pp * dp * plan.cp != world:
        errors.append(
            f"tp*pp*dp*cp={plan.tp * plan.pp * dp * plan.cp} != world_size={world}"
        )
    if dp < plan.ep:
        errors.append(f"dp={dp} < ep={plan.ep}")
    elif dp % plan.ep:
        errors.append(f"ep={plan.ep} does not divide dp={dp}")
    if cfg.num_routed_experts % (plan.tp * plan.ep):
        errors.append(
            f"num_routed_experts={cfg.num_routed_experts} not divisible by "
            f"tp*ep={plan.tp * plan.ep}"
        )
    shards, tokens = plan.tp * plan.cp, plan.micro_batch_size * cfg.seq_len
    if tokens % shards:
        errors.append(f"tp*cp={shards} does not divide micro_batch_size*seq_len={tokens}")
    n_items = cfg.num_layers + cfg.num_mtp_layers + 1
    if n_items < plan.pp * plan.vpp:
        errors.append(
            f"{n_items} layer items cannot fill pp*vpp={plan.pp * plan.vpp} chunks"
        )
    if plan.global_batch_size:
        try:
            m = micro_batch_count(resolved)
        except NonDivisibleError as exc:
            errors.append(str(exc))
        else:
            if plan.vpp > 1 and m % plan.pp:
                errors.append(f"interleaved schedule needs micro_batches % pp == 0, got {m} % {plan.pp}")
    return PlanCheck(not errors, tuple(errors), resolved)


def require_valid(plan: ParallelPlan, cfg: ModelConfig, hw: HardwareDescription) -> ParallelPlan:
    check = validate_plan(plan, cfg, hw)
    if not check.ok:
        raise PlanError(check.errors)
    return check.plan


def micro_batch_count(plan: ParallelPlan) -> int:
    if plan.global_batch_size <= 0:
        raise NonDivisibleError("global_batch_size is not set")
    if plan.dp <= 0:
        raise NonDivisibleError("dp is unresolved; validate the plan first")
    denom = plan.dp * plan.micro_batch_size
    if plan.global_batch_size % denom:
        raise NonDivisibleError(
            f"global_batch_size={plan.global_batch_size} not divisible by "
            f"dp*micro_batch_size={denom}"
        )
    return plan.global_batch_size // denom


@dataclass(frozen=True)
class ChunkAssignment:
    pp_stage: int
    vpp_stage: int
    items: tuple  # (kind, weight) pairs
    weight: float


@dataclass(frozen=True)
class StageAssignment:
    chunks: tuple
    max_chunk_weight: float
    baseline_weight: float

    @property
    def overflow_ratio(self) -> float:
        return self.max_chunk_weight / self.baseline_weight

    def chunk(self, pp_stage: int, vpp_stage: int) -> ChunkAssignment:
        for c in self.chunks:
            if c.pp_stage == pp_stage and c.vpp_stage == vpp_stage:
                return c
        raise KeyError((pp_stage, vpp_stage))


def partition_contiguous(weights, num_chunks: int) -> list[list[int]]:
    """Split indices 0..n-1 into num_chunks contiguous non-empty runs
    minimizing the max run weight; earliest split positions win ties.

    Returns the list of index lists. Exact by linear partition: the optimum
    is the least run weight (a prefix-sum difference) whose greedy cover
    needs at most num_chunks runs; weights must be finite and >= 0.
    """
    n = len(weights)
    if num_chunks < 1:
        raise ValueError("num_chunks must be >= 1")
    if n < num_chunks:
        raise InfeasibleChunkingError(f"{n} items into {num_chunks} chunks")
    prefix = [0.0]
    for i, w in enumerate(weights):
        if not 0 <= w < math.inf:
            raise ValueError(f"weight {i} must be finite and >= 0, got {w!r}")
        prefix.append(prefix[-1] + w)

    def runs_needed(b):  # [j] = fewest runs of weight <= b covering items[j:]
        need, end = [0] * (n + 1), n
        for j in range(n - 1, -1, -1):
            while prefix[end] - prefix[j] > b:
                end -= 1
            need[j] = need[end] + 1 if end > j else n + 1  # n + 1: no cover
        return need

    run_weights = sorted({prefix[e] - prefix[j] for j in range(n) for e in range(j + 1, n + 1)})
    target = run_weights[bisect_left(run_weights, True, key=lambda b: runs_needed(b)[0] <= num_chunks)]

    # Each chunk ends at the earliest position that leaves a suffix the
    # chunks still to place can cover within the optimal bound.
    need, chunks, j = runs_needed(target), [], 0
    for left in range(num_chunks - 1, -1, -1):
        e = next(e for e in range(j + 1, n + 1) if prefix[e] - prefix[j] <= target and need[e] <= left)
        chunks.append(list(range(j, e)))
        j = e
    return chunks


# Every transformer layer weighs one unit in the chunk partition, dense
# included; the extra-prediction block and the loss head carry their
# published relative costs.
MTP_WEIGHT = 1.05
HEAD_WEIGHT = 1.5


def tokens_per_device(cfg: ModelConfig, plan: ParallelPlan) -> float:
    """Tokens one device holds per micro batch, whole for a valid plan."""
    return plan.micro_batch_size * cfg.seq_len / (plan.tp * plan.cp)


def layer_items(cfg: ModelConfig) -> list[tuple]:
    """Ordered (kind, weight) items entering the chunk partition; the kind
    is "dense", "moe", "mtp" or "head"."""
    items = [("dense", 1.0)] * cfg.num_dense_layers + [("moe", 1.0)] * cfg.num_moe_layers
    return items + [("mtp", MTP_WEIGHT)] * cfg.num_mtp_layers + [("head", HEAD_WEIGHT)]


def assign_chunks(cfg: ModelConfig, plan: ParallelPlan) -> StageAssignment:
    items = layer_items(cfg)
    num_chunks = plan.pp * plan.vpp
    runs = partition_contiguous([wt for _, wt in items], num_chunks)
    chunks = []
    for idx, run in enumerate(runs):
        picked = tuple(items[i] for i in run)
        chunks.append(
            ChunkAssignment(
                pp_stage=idx % plan.pp,
                vpp_stage=idx // plan.pp,
                items=picked,
                weight=reduce(add, (wt for _, wt in picked), 0),  # a left fold: the same bits on every Python
            )
        )
    max_weight = max(c.weight for c in chunks)
    baseline = float(math.ceil(len(items) / num_chunks))
    return StageAssignment(tuple(chunks), max_weight, baseline)
