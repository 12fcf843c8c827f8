"""Plan validation, chunk partitioning, and stage assignment."""

import dataclasses
import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moesim.cluster import HardwareDescription
from moesim.errors import NonDivisibleError, PlanError
from moesim.model import ModelConfig
from moesim.parallel import (
    ParallelPlan,
    assign_chunks,
    layer_items,
    micro_batch_count,
    partition_contiguous,
    require_valid,
    validate_plan,
)


def reference_model():
    return ModelConfig(
        num_layers=61,
        hidden_size=7680,
        num_attention_heads=128,
        num_routed_experts=256,
        top_k=8,
        expert_intermediate_size=2048,
    )


def reference_cluster():
    return HardwareDescription(
        name="pod",
        peak_flops={"bf16": 280e12},
        hbm_capacity=64e9,
        hbm_bandwidth=1.6e12,
        intra_node_bandwidth=168e9,
        intra_node_latency=2e-6,
        inter_node_bandwidth=25e9,
        inter_node_latency=6e-6,
        devices_per_node=8,
        num_nodes=768,
    )


def brute_force_minmax(weights, chunks):
    """Optimal contiguous max chunk weight by enumerating split points."""
    n = len(weights)
    best = math.inf
    for cuts in itertools.combinations(range(1, n), chunks - 1):
        bounds = (0,) + cuts + (n,)
        worst = max(sum(weights[a:b]) for a, b in zip(bounds, bounds[1:]))
        best = min(best, worst)
    return best


def test_partition_matches_brute_force_small_instances():
    import random

    rng = random.Random(5)
    for _ in range(120):
        n = rng.randint(1, 12)
        chunks = rng.randint(1, n)
        weights = [rng.choice([0.5, 0.6, 1.0, 1.05, 1.5, 2.0]) for _ in range(n)]
        got = partition_contiguous(weights, chunks)
        got_max = max(sum(weights[i] for i in run) for run in got)
        assert got_max == pytest.approx(brute_force_minmax(weights, chunks))
        # runs must tile 0..n-1 contiguously
        flat = [i for run in got for i in run]
        assert flat == list(range(n))
        assert len(got) == chunks


@st.composite
def partition_instances(draw):
    """(weights, chunks): up to 9 weights from a small set, so values repeat
    and ties are common, and 1 to 4 chunks, never more than the weights.
    Every sum is exact in binary floating point."""
    weights = draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 1.0, 1.5, 2.0, 3.0]), min_size=1, max_size=9))
    return weights, draw(st.integers(1, min(4, len(weights))))


@settings(database=None, derandomize=True, max_examples=300, deadline=None)
@given(partition_instances())
def test_partition_is_the_earliest_optimal_split(instance):
    """Among all splits into contiguous non-empty runs, the partition has
    the least maximum run weight, and of the splits that reach it, the one
    whose cut positions come first in lexicographic order."""
    weights, chunks = instance
    n = len(weights)

    def worst(cuts):
        bounds = (0,) + cuts + (n,)
        return max(sum(weights[a:b]) for a, b in zip(bounds, bounds[1:]))

    splits = list(itertools.combinations(range(1, n), chunks - 1))
    best = min(worst(cuts) for cuts in splits)
    runs = partition_contiguous(weights, chunks)
    assert [i for run in runs for i in run] == list(range(n))
    assert all(runs) and len(runs) == chunks
    cuts = tuple(run[0] for run in runs[1:])
    assert worst(cuts) == best
    assert cuts == next(c for c in splits if worst(c) == best)


def dp_partition(weights, num_chunks):
    """Reference oracle: the exact O(k * n**2) dynamic program over
    contiguous partitions, walking back to the earliest optimal splits."""
    n = len(weights)
    prefix = [0.0]
    for w in weights:
        prefix.append(prefix[-1] + w)

    def seg(i, j):  # weight of items[i:j]
        return prefix[j] - prefix[i]

    # best[k][j] = minimal max chunk weight for items[j:] split into k chunks
    best = [[math.inf] * (n + 1) for _ in range(num_chunks + 1)]
    best[0][n] = 0.0
    for k in range(1, num_chunks + 1):
        for j in range(n - k, -1, -1):
            acc = math.inf
            for e in range(j + 1, n - k + 2):
                cand = max(seg(j, e), best[k - 1][e])
                if cand < acc:
                    acc = cand
            best[k][j] = acc
    target = best[num_chunks][0]
    chunks = []
    j = 0
    for k in range(num_chunks, 0, -1):
        for e in range(j + 1, n - k + 2):
            if seg(j, e) <= target and best[k - 1][e] <= target:
                chunks.append(list(range(j, e)))
                j = e
                break
    return chunks


@st.composite
def weighted_partitions(draw):
    """(weights, chunks): up to 70 non-negative finite weights, either from
    a small set (ties, zeros, and magnitudes that vanish in a prefix sum)
    or spread over the whole float range, and 1 to n chunks."""
    weight = draw(
        st.sampled_from(
            [
                st.sampled_from([0.0, 1e-17, 0.5, 1.0, 1.05, 1.5, 3.0, 1e17]),
                st.floats(0.0, 1e17, allow_nan=False, allow_infinity=False),
            ]
        )
    )
    n = draw(st.integers(1, 70))
    return draw(st.lists(weight, min_size=n, max_size=n)), draw(st.integers(1, n))


@settings(database=None, derandomize=True, max_examples=300, deadline=None)
@given(weighted_partitions())
def test_partition_matches_the_dynamic_program_run_for_run(instance):
    """The linear-partition method compares the same prefix-sum differences
    as the dynamic program, so it returns exactly the same runs."""
    weights, chunks = instance
    assert partition_contiguous(weights, chunks) == dp_partition(weights, chunks)


@pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf])
def test_partition_rejects_negative_or_non_finite_weights(bad):
    with pytest.raises(ValueError, match=r"^weight 2 must be finite and >= 0, got "):
        partition_contiguous([1.0, 0.0, bad, 1.0], 2)


def test_partition_rejects_impossible_split():
    with pytest.raises(Exception):
        partition_contiguous([1.0, 1.0], 3)


def test_reference_layer_chunking_weight():
    """61 weighted layers plus the extra-prediction block and the loss head
    split over 32 chunks: the optimum max chunk weight is 2.05."""
    cfg = reference_model()
    plan = ParallelPlan(tp=8, pp=16, vpp=2, ep=4, dp=48, micro_batch_size=2, global_batch_size=6144)
    assignment = assign_chunks(cfg, plan)
    assert assignment.max_chunk_weight == pytest.approx(2.05)
    assert assignment.baseline_weight == pytest.approx(2.0)
    assert assignment.overflow_ratio == pytest.approx(1.025)
    assert assignment.overflow_ratio <= 1.05


def test_reference_chunking_isolates_head_and_pairs_extra_block():
    cfg = reference_model()
    plan = ParallelPlan(tp=8, pp=16, vpp=2, ep=4, dp=48, micro_batch_size=2, global_batch_size=6144)
    assignment = assign_chunks(cfg, plan)
    # 32 chunks: the loss head sits alone on the last one, and the
    # extra-prediction block shares the second-to-last with one moe layer.
    last = assignment.chunk(pp_stage=15, vpp_stage=1)
    assert last.items == (("head", 1.5),)
    second_last = assignment.chunk(pp_stage=14, vpp_stage=1)
    assert second_last.items == (("moe", 1.0), ("mtp", 1.05))
    # ... and that moe layer is the last one: the other 57 come before it
    assert sum(kind == "moe" for c in assignment.chunks[:-2] for kind, _ in c.items) == 57


def test_chunk_to_stage_mapping_is_round_robin():
    cfg = reference_model()
    plan = ParallelPlan(tp=8, pp=16, vpp=2, ep=4, dp=48, micro_batch_size=2, global_batch_size=6144)
    assignment = assign_chunks(cfg, plan)
    for idx, chunk in enumerate(assignment.chunks):
        assert chunk.pp_stage == idx % 16
        assert chunk.vpp_stage == idx // 16


def test_layer_items_order_and_weights():
    cfg = ModelConfig(
        num_layers=4,
        hidden_size=16,
        num_attention_heads=2,
        num_routed_experts=4,
        top_k=2,
        expert_intermediate_size=8,
        num_dense_layers=2,
        num_mtp_layers=1,
        mla=__import__("moesim").MlaDims(q_rank=12, kv_rank=6, head_dim=4, rope_dim=2),
    )
    assert layer_items(cfg) == [
        ("dense", 1.0),
        ("dense", 1.0),
        ("moe", 1.0),
        ("moe", 1.0),
        ("mtp", 1.05),
        ("head", 1.5),
    ]


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"tp": 1.0, "pp": True}, "tp must be an integer, got 1.0"),
        ({"pp": True}, "pp must be an integer, got True"),
        ({"dp": "48"}, "dp must be an integer, got '48'"),
        ({"global_batch_size": 1536.0}, "global_batch_size must be an integer, got 1536.0"),
    ],
)
def test_plan_fields_must_be_integers(fields, message):
    """Once, ParallelPlan(tp=1.0, pp=True) constructed."""
    with pytest.raises(ValueError, match=f"^{message}$"):
        ParallelPlan(**fields)


def test_validate_plan_resolves_dp():
    plan = ParallelPlan(tp=8, pp=16, vpp=2, ep=4, micro_batch_size=2, global_batch_size=6144)
    check = validate_plan(plan, reference_model(), reference_cluster())
    assert check.ok, check.errors
    assert check.plan.dp == 48


def test_validate_plan_collects_all_errors():
    plan = ParallelPlan(tp=5, pp=16, vpp=2, ep=7, dp=3, micro_batch_size=2, global_batch_size=100)
    check = validate_plan(plan, reference_model(), reference_cluster())
    assert not check.ok
    assert len(check.errors) >= 2
    with pytest.raises(PlanError):
        require_valid(plan, reference_model(), reference_cluster())


def test_validate_rejects_interleaving_with_ragged_micro_batches():
    # vpp > 1 needs the micro batch count divisible by pp
    plan = ParallelPlan(tp=8, pp=16, vpp=2, ep=4, micro_batch_size=2, global_batch_size=6144 - 96)
    check = validate_plan(plan, reference_model(), reference_cluster())
    assert not check.ok
    assert any("divisible" in e or "interleav" in e for e in check.errors)


def test_validate_plan_requires_tp_cp_to_split_micro_batch_tokens():
    """tp = 3 would leave 42.67 of a micro batch's 128 tokens on each device."""
    cfg = ModelConfig(
        num_layers=4,
        hidden_size=16,
        num_attention_heads=2,
        num_routed_experts=6,
        top_k=2,
        expert_intermediate_size=8,
        seq_len=128,
    )
    hw = dataclasses.replace(reference_cluster(), devices_per_node=6, num_nodes=2)
    plan = ParallelPlan(tp=3, pp=2, ep=2, micro_batch_size=1, global_batch_size=8)
    check = validate_plan(plan, cfg, hw)
    assert check.errors == ("tp*cp=3 does not divide micro_batch_size*seq_len=128",)
    assert validate_plan(dataclasses.replace(plan, micro_batch_size=3, global_batch_size=24), cfg, hw).ok


def test_micro_batch_count():
    plan = ParallelPlan(tp=8, pp=16, vpp=2, ep=4, dp=48, micro_batch_size=2, global_batch_size=6144)
    assert micro_batch_count(plan) == 64
    bad = ParallelPlan(tp=8, pp=16, vpp=2, ep=4, dp=48, micro_batch_size=5, global_batch_size=6144)
    with pytest.raises(NonDivisibleError):
        micro_batch_count(bad)


def test_plan_requires_enough_items_for_chunks():
    small = ModelConfig(
        num_layers=4,
        hidden_size=16,
        num_attention_heads=2,
        num_routed_experts=4,
        top_k=2,
        expert_intermediate_size=8,
        num_dense_layers=1,
        num_mtp_layers=0,
    )
    plan = ParallelPlan(tp=1, pp=8, vpp=2, ep=1, dp=1, micro_batch_size=1, global_batch_size=8)
    hw = HardwareDescription(
        name="mini",
        peak_flops={"bf16": 1e12},
        hbm_capacity=16e9,
        hbm_bandwidth=1e12,
        intra_node_bandwidth=50e9,
        intra_node_latency=1e-6,
        inter_node_bandwidth=10e9,
        inter_node_latency=5e-6,
        devices_per_node=8,
        num_nodes=1,
    )
    check = validate_plan(plan, small, hw)
    assert not check.ok
