"""Parameter counting, FLOP accounting, and design space enumeration."""

import math
import re
from dataclasses import replace

import pytest

from moesim.errors import EmptySpaceError
from moesim.model import (
    DesignSpace,
    MlaDims,
    ModelConfig,
    PruningRules,
    count_parameters,
    depth_width_hidden,
    enumerate_design_space,
    flops_per_token,
    model_id,
)

REFERENCE = ModelConfig(
    num_layers=61,
    hidden_size=7680,
    num_attention_heads=128,
    num_routed_experts=256,
    top_k=8,
    expert_intermediate_size=2048,
)


def tiny_config(**overrides):
    base = dict(
        num_layers=3,
        hidden_size=16,
        num_attention_heads=2,
        num_routed_experts=4,
        top_k=2,
        expert_intermediate_size=8,
        num_shared_experts=1,
        num_dense_layers=1,
        dense_ffn_intermediate_size=32,
        mla=MlaDims(q_rank=12, kv_rank=6, head_dim=4, rope_dim=2),
        num_mtp_layers=1,
        vocab_size=100,
        seq_len=64,
    )
    base.update(overrides)
    return ModelConfig(**base)


def test_tiny_config_total_matches_hand_sum():
    """Every matrix of a small config, summed with explicit arithmetic."""
    cfg = tiny_config()
    h, heads = 16, 2
    q_rank, kv_rank, head_dim, rope_dim = 12, 6, 4, 2

    attn = (
        h * q_rank  # q down-projection
        + q_rank * heads * (head_dim + rope_dim)  # q up-projection
        + h * kv_rank  # kv down-projection
        + h * rope_dim  # shared rotary key
        + kv_rank * heads * head_dim  # k up-projection
        + kv_rank * heads * head_dim  # v up-projection
        + heads * head_dim * h  # output projection
    )
    norms_per_layer = 2 * h + q_rank + kv_rank
    expert = 3 * h * 8
    dense_ffn = 3 * h * 32
    router = h * 4

    embedding = 100 * h
    head = h * 100
    dense_layer = attn + dense_ffn
    moe_layer = attn + router + 4 * expert + 1 * expert
    mtp_block = attn + router + (4 + 1) * expert + 2 * h * h + norms_per_layer + 2 * h

    expected_total = (
        embedding
        + head
        + dense_layer
        + 2 * moe_layer
        + mtp_block
        + 3 * norms_per_layer
        + h  # final norm
    )
    counted = count_parameters(cfg)
    assert counted.total == expected_total


def test_tiny_config_activated_matches_hand_sum():
    cfg = tiny_config()
    h = 16
    attn = 16 * 12 + 12 * 2 * 6 + 16 * 6 + 16 * 2 + 6 * 2 * 4 + 6 * 2 * 4 + 2 * 4 * 16
    expert = 3 * h * 8
    norms = 3 * (2 * h + 12 + 6) + h
    expected_activated = (
        100 * h  # embedding
        + 3 * attn
        + 1 * (3 * h * 32)  # dense ffn
        + 2 * (h * 4)  # router on both moe layers
        + 2 * (2 + 1) * expert  # top_k + shared on both moe layers
        + norms
        + h * 100  # head
    )
    counted = count_parameters(cfg)
    assert counted.activated == expected_activated
    assert counted.activated_matmul == expected_activated - 100 * h - norms


def test_activated_excludes_extra_prediction_blocks():
    with_block = tiny_config(num_mtp_layers=1)
    without = tiny_config(num_mtp_layers=0)
    assert count_parameters(with_block).activated == count_parameters(without).activated
    assert count_parameters(with_block).total > count_parameters(without).total


def test_reference_parameter_band():
    counted = count_parameters(REFERENCE)
    assert 682e9 <= counted.total <= 754e9
    assert 37e9 <= counted.activated <= 41e9


def test_component_sum_equals_total():
    counted = count_parameters(REFERENCE)
    assert sum(counted.per_component.values()) == counted.total


def test_activated_minus_router_independent_of_expert_count():
    a = tiny_config(num_routed_experts=4)
    b = tiny_config(num_routed_experts=64, top_k=2)
    ca, cb = count_parameters(a), count_parameters(b)
    router_a = 2 * 16 * 4
    router_b = 2 * 16 * 64
    assert ca.activated - router_a == cb.activated - router_b


def test_total_monotone_in_layers_hidden_and_experts():
    base = count_parameters(tiny_config()).total
    assert count_parameters(tiny_config(num_layers=4)).total > base
    assert count_parameters(tiny_config(hidden_size=32)).total > base
    assert count_parameters(tiny_config(num_routed_experts=8)).total > base


def test_head_only_degenerate_config():
    cfg = tiny_config(num_layers=0, num_dense_layers=0, num_mtp_layers=0)
    counted = count_parameters(cfg)
    h = 16
    assert counted.total == 100 * h + h * 100 + h
    assert counted.activated_matmul == h * 100


def test_forward_flops_per_matmul_oracle():
    """Forward FLOPs of the tiny config rebuilt matrix by matrix."""
    cfg = tiny_config()
    t = 64
    h, heads = 16, 2
    attn_proj = 2 * (16 * 12 + 12 * 2 * 6 + 16 * 6 + 16 * 2 + 6 * 2 * 4 + 6 * 2 * 4 + 2 * 4 * 16)
    attn_scores = 2 * heads * (4 + 2) * t + 2 * heads * 4 * t
    attn = attn_proj + attn_scores
    dense = attn + 6 * h * 32
    moe = attn + 2 * h * 4 + (2 + 1) * 6 * h * 8
    mtp = moe + 2 * (2 * h) * h + 2 * h * 100
    head = 2 * h * 100
    expected_forward = 1 * dense + 2 * moe + 1 * mtp + head

    profile = flops_per_token(cfg)
    assert profile.forward_per_token == pytest.approx(expected_forward)
    assert profile.backward_per_token == pytest.approx(2 * expected_forward)


def test_forward_flops_at_least_twice_activated_matmul():
    for cfg in (
        tiny_config(),
        tiny_config(num_mtp_layers=0),
        tiny_config(num_layers=0, num_dense_layers=0, num_mtp_layers=0),
        REFERENCE,
    ):
        counted = count_parameters(cfg)
        profile = flops_per_token(cfg)
        assert profile.forward_per_token >= 2 * counted.activated_matmul


def test_depth_width_law_values():
    assert depth_width_hidden(0) == pytest.approx(math.exp(5.039))
    assert depth_width_hidden(40) == pytest.approx(math.exp(5.039 + 5.55e-2 * 40))
    ratio = depth_width_hidden(41) / depth_width_hidden(40)
    assert ratio == pytest.approx(math.exp(5.55e-2))


def test_enumerate_design_space_order_and_count():
    space = DesignSpace(
        base=tiny_config(),
        ranges={"num_layers": [3, 4, 5], "hidden_size": [16, 32, 48, 64]},
    )
    configs = enumerate_design_space(space)
    assert len(configs) == 12
    ids = [model_id(c) for c in configs]
    assert ids == sorted(set(ids), key=ids.index)  # no duplicates
    # hidden_size sorts before num_layers, so it is the outer loop
    assert configs[0].hidden_size == 16 and configs[0].num_layers == 3
    assert configs[1].hidden_size == 16 and configs[1].num_layers == 4


def test_enumerate_skips_invalid_combinations():
    space = DesignSpace(
        base=tiny_config(),
        ranges={"num_routed_experts": [1, 4], "top_k": [2]},
    )
    configs = enumerate_design_space(space)
    # top_k=2 with a single routed expert violates the config invariant
    assert all(c.num_routed_experts == 4 for c in configs)


def test_enumerate_empty_space_raises():
    space = DesignSpace(
        base=tiny_config(),
        ranges={"hidden_size": [16, 48]},
        pruning=PruningRules(shape_multiple=1024),
    )
    with pytest.raises(EmptySpaceError):
        enumerate_design_space(space)


def test_pruning_power_of_two_and_band():
    space = DesignSpace(
        base=tiny_config(),
        ranges={"num_routed_experts": [3, 4, 6, 8]},
        pruning=PruningRules(expert_count_power_of_two=True),
    )
    configs = enumerate_design_space(space)
    assert sorted(c.num_routed_experts for c in configs) == [4, 8]

    target = depth_width_hidden(3)
    near = int(round(target))
    space = DesignSpace(
        base=tiny_config(),
        ranges={"hidden_size": [near, near * 10]},
        pruning=PruningRules(depth_width_band=0.5),
    )
    configs = enumerate_design_space(space)
    assert [c.hidden_size for c in configs] == [near]


@pytest.mark.parametrize(
    "ranges, message",
    [
        ({"num_layers": [56.5], "top_k": [True]}, "ranges.num_layers.0 must be an integer, got 56.5"),
        ({"num_layers": [4], "top_k": [2, True]}, "ranges.top_k.1 must be an integer, got True"),
        ({"hidden_size": [16, "32"]}, "ranges.hidden_size.1 must be an integer, got '32'"),
        ({"hidden_size": [16.0]}, "ranges.hidden_size.0 must be an integer, got 16.0"),
    ],
)
def test_design_space_candidates_must_have_their_field_type(ranges, message):
    """The Python API refuses what the JSON loader refuses: once, a 56.5-layer
    candidate with top_k True enumerated as L56.5d3-...-KTrues1-mtp1."""
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        DesignSpace(base=tiny_config(), ranges=ranges)


def test_design_space_names_a_bad_field_before_a_bad_candidate():
    with pytest.raises(ValueError, match=r"^unknown ModelConfig field in ranges: 'mla'$"):
        DesignSpace(base=tiny_config(), ranges={"num_layers": [5.5], "mla": [MlaDims()]})
    with pytest.raises(ValueError, match=r"^empty candidate list for field 'top_k'$"):
        DesignSpace(base=tiny_config(), ranges={"num_layers": [5.5], "top_k": []})


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: replace(tiny_config(), num_layers=4.5), "num_layers must be an integer, got 4.5"),
        (lambda: tiny_config(top_k=True), "top_k must be an integer, got True"),
        (lambda: tiny_config(seq_len="128"), "seq_len must be an integer, got '128'"),
        (lambda: tiny_config(dtype_bytes=2.0), "dtype_bytes must be an integer, got 2.0"),
        (lambda: MlaDims(kv_rank=512.0), "mla.kv_rank must be an integer, got 512.0"),
        (lambda: MlaDims(rope_dim=False), "mla.rope_dim must be an integer, got False"),
    ],
)
def test_integer_fields_refuse_bools_floats_and_strings(build, message):
    """Once, replace(cfg, num_layers=4.5) built a config with model id
    L4.5...; the JSON loader already refused such values."""
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


@pytest.mark.parametrize("width", [0, 3, 8, -2])
def test_dtype_bytes_must_be_a_width_a_cluster_can_price(width):
    with pytest.raises(ValueError, match=f"^dtype_bytes must be one of 1, 2, 4, got {width}$"):
        tiny_config(dtype_bytes=width)


def test_model_id_format():
    assert model_id(REFERENCE) == "L61d3-h7680-a128-E256x2048-K8s1-mtp1"


@pytest.mark.parametrize("size", [-18432, -1, 0])
def test_dense_ffn_size_must_be_at_least_one(size):
    """Once accepted from Python and from JSON, unlike the expert FFN size."""
    with pytest.raises(ValueError, match=f"^dense_ffn_intermediate_size must be an integer >= 1, got {size}$"):
        tiny_config(dense_ffn_intermediate_size=size)


def test_config_validation():
    with pytest.raises(ValueError):
        tiny_config(top_k=5)  # exceeds num_routed_experts
    with pytest.raises(ValueError):
        tiny_config(num_dense_layers=9)
    with pytest.raises(ValueError):
        tiny_config(hidden_size=0)
    with pytest.raises(ValueError):
        MlaDims(q_rank=0)
