"""Dispatch volume accounting across network tiers."""

import math
import random

import pytest

from moesim.comm import dispatch_volumes


def count_token_copies(mechanism, tokens, topk, tp, ep):
    """Independent oracle: walk every token and count the copies that
    cross each tier, in token units."""
    inter = 0
    intra = 0
    for _ in range(tokens):
        if mechanism == "allgather":
            # the token is replicated to every rank of the tp*ep group
            inter += tp * ep
        elif mechanism == "alltoall":
            # one copy per selected expert, worst case all remote
            inter += topk
        else:  # hierarchical
            # one bulk copy to each of the other ep peers, then local fanout
            inter += ep - 1
            intra += topk
    return inter, intra


def test_volumes_match_counting_oracle_randomized():
    rng = random.Random(17)
    for _ in range(300):
        tokens = rng.randint(0, 64)
        topk = rng.randint(1, 16)
        tp = rng.choice([1, 2, 4, 8])
        ep = rng.choice([1, 2, 4, 8, 16, 32])
        hidden = rng.choice([8, 16, 64])
        dtype = rng.choice([1, 2])
        unit = hidden * dtype
        for mechanism in ("allgather", "alltoall", "hierarchical"):
            vols = dispatch_volumes(mechanism, tokens, hidden, dtype, topk, tp, ep)
            inter, intra = count_token_copies(mechanism, tokens, topk, tp, ep)
            assert vols.inter_node_bytes == inter * unit
            assert vols.intra_node_bytes == intra * unit
            assert vols.total_bytes == (inter + intra) * unit


def test_published_operating_point_token_units():
    """Unit hidden size and dtype expose the token-unit table entries."""
    ag = dispatch_volumes("allgather", 4096, 1, 1, 8, 8, 4)
    assert ag.inter_node_bytes == 131072
    a2a = dispatch_volumes("alltoall", 4096, 1, 1, 8, 8, 4)
    assert a2a.inter_node_bytes == 32768
    hier = dispatch_volumes("hierarchical", 4096, 1, 1, 8, 8, 4)
    assert hier.inter_node_bytes == 12288
    assert hier.intra_node_bytes == 32768


def test_hierarchical_beats_alltoall_when_ep_small():
    rng = random.Random(3)
    for _ in range(100):
        tokens = rng.randint(1, 64)
        topk = rng.randint(2, 16)
        ep = rng.randint(2, topk)  # ep - 1 < topk
        hier = dispatch_volumes("hierarchical", tokens, 16, 2, topk, 2, ep)
        flat = dispatch_volumes("alltoall", tokens, 16, 2, topk, 2, ep)
        assert hier.inter_node_bytes < flat.inter_node_bytes


def test_single_expert_group_moves_nothing_across_nodes():
    vols = dispatch_volumes("hierarchical", 128, 16, 2, 4, 2, 1)
    assert vols.inter_node_bytes == 0


@pytest.mark.parametrize("tokens", [0, 16])
@pytest.mark.parametrize("index, name", [(1, "hidden"), (2, "dtype_bytes"), (3, "topk"), (4, "tp"), (5, "ep")])
def test_each_factor_is_checked_even_with_no_tokens(tokens, index, name):
    """With zero tokens every factor check was once skipped, so ep=0 passed."""
    args = [tokens, 16, 2, 2, 1, 2]
    args[index] = 0
    for mechanism in ("hierarchical", "alltoall", "allgather"):
        with pytest.raises(ValueError, match=f"^{name} must be >= 1, got 0$"):
            dispatch_volumes(mechanism, *args)


@pytest.mark.parametrize("tokens", [-1, math.nan, math.inf])
def test_token_count_must_be_a_finite_number_at_least_zero(tokens):
    with pytest.raises(ValueError, match=f"^tokens must be a finite number >= 0, got {tokens!r}$"):
        dispatch_volumes("hierarchical", tokens, 16, 2, 2, 1, 2)


def test_unknown_mechanism_rejected():
    with pytest.raises(ValueError):
        dispatch_volumes("ring", 16, 16, 2, 2, 1, 2)
