"""Routing traces, balance metrics, placement, and the replanning loop."""

import csv
import itertools
import math
import random
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moesim import balance
from moesim.balance import (
    _EXACT_PLACEMENT_LIMIT,
    AuxLossReport,
    Placement,
    RoutingTrace,
    TraceSpec,
    TraceStats,
    _exact_assignment_count,
    _exact_place,
    _stable_top_k,
    aux_loss,
    balance_window_tokens,
    capacity_drop_stats,
    contiguous_placement,
    device_load_stats,
    generate_trace,
    greedy_place,
    placement_loads,
    predict_loads,
    run_balance_simulation,
    trace_statistics,
)
from moesim.cli import main
from moesim.errors import EmptyWindowError, ParseError, SlotMismatchError, ZeroMeanError


def make_trace(expert_rows, num_experts, scores=None, tasks=None):
    """One-step trace from explicit per-token expert tuples."""
    experts = np.array([expert_rows], dtype=np.int64)
    if scores is None:
        k = experts.shape[2]
        scores = np.full(experts.shape, 1.0 / k)
    else:
        scores = np.array([scores], dtype=np.float64)
    if tasks is None:
        tasks = np.zeros(experts.shape[:2], dtype=np.int64)
    return RoutingTrace(num_experts, experts, scores, tasks)


def test_generated_trace_shape_and_normalization():
    spec = TraceSpec(num_experts=16, tokens_per_step=64, steps=5, top_k=4)
    trace = generate_trace(spec, seed=11)
    assert trace.experts.shape == (5, 64, 4)
    assert trace.steps == 5 and trace.tokens_per_step == 64 and trace.top_k == 4
    assert trace.experts.min() >= 0 and trace.experts.max() < 16
    # top-k picks are distinct per token and the gate scores are a
    # probability vector over them
    for s in range(5):
        for t in range(64):
            assert len(set(trace.experts[s, t])) == 4
    assert np.allclose(trace.scores.sum(axis=2), 1.0, atol=1e-12)
    assert (trace.scores >= 0).all()


def test_generated_trace_is_seed_deterministic():
    spec = TraceSpec(num_experts=8, tokens_per_step=32, steps=3, top_k=2)
    a = generate_trace(spec, seed=7)
    b = generate_trace(spec, seed=7)
    c = generate_trace(spec, seed=8)
    assert np.array_equal(a.experts, b.experts)
    assert np.array_equal(a.scores, b.scores)
    assert not np.array_equal(a.experts, c.experts)


@st.composite
def tie_heavy_rows(draw):
    """(values, k): rows drawn from a few values, signed zeros, infinities
    and NaN among them, so most rows tie at their k-th value."""
    rows, width = draw(st.integers(1, 6)), draw(st.integers(1, 12))
    k = draw(st.integers(1, width))
    special = st.sampled_from([0.0, -0.0, 1.0, -1.0, math.inf, -math.inf, math.nan])
    pool = draw(st.lists(special | st.floats(-4, 4, allow_nan=False), min_size=1, max_size=5))
    values = draw(st.lists(st.sampled_from(pool) | st.floats(-4, 4), min_size=rows * width, max_size=rows * width))
    return np.array(values).reshape(rows, width), k


@settings(database=None, derandomize=True, max_examples=300, deadline=None)
@given(tie_heavy_rows())
def test_partial_top_k_equals_the_stable_sort(case):
    values, k = case
    before = values.copy()
    got = _stable_top_k(values, k)
    assert np.array_equal(got, np.argsort(values, axis=1, kind="stable")[:, :k])
    assert np.array_equal(values, before, equal_nan=True)


class TiedGenerator:
    """A seeded generator whose draws tie: every task's expert
    probabilities are uniform, and the Gumbel noise is `gumbel(values)`
    of the real draw. It records the noise it hands out."""

    def __init__(self, seed, gumbel):
        self.real, self.gumbel_of, self.noise = np.random.Generator(np.random.PCG64(seed)), gumbel, []

    def dirichlet(self, alpha, size):
        return np.full((size, len(alpha)), 1.0 / len(alpha))

    def choice(self, *args, **kwargs):
        return self.real.choice(*args, **kwargs)

    def gumbel(self, size):
        self.noise.append(self.gumbel_of(self.real.gumbel(size=size)))
        return self.noise[-1]


@pytest.mark.parametrize("gumbel", [np.round, np.zeros_like], ids=["rounded", "zero"])
def test_generated_picks_break_ties_by_expert_id(monkeypatch, gumbel):
    """With equal probabilities the perturbed logits tie wherever the noise
    does: the picks are those of a full stable sort, and zero noise picks
    experts 0..k-1 in order for every token."""
    made = []

    def tied_rng(seed):
        made.append(TiedGenerator(seed, gumbel))
        return made[-1]

    monkeypatch.setattr(np.random, "default_rng", tied_rng)
    spec = TraceSpec(num_experts=16, tokens_per_step=64, steps=3, top_k=5)
    trace = generate_trace(spec, seed=5)
    logit = np.log(1.0 / 16 + 1e-12)
    tied_rows = 0
    for s, noise in enumerate(made[0].noise):
        perturbed = -(logit + noise)
        want = np.argsort(perturbed, axis=1, kind="stable")[:, :5]
        assert np.array_equal(trace.experts[s], want)
        # rows where an unpicked expert ties the k-th pick
        at_kth = perturbed == np.take_along_axis(perturbed, want[:, -1:], axis=1)
        tied_rows += int((at_kth.sum(axis=1) > np.take_along_axis(at_kth, want, axis=1).sum(axis=1)).sum())
    assert tied_rows > 0
    if gumbel is np.zeros_like:
        assert (trace.experts == np.arange(5)).all()


def test_autocorrelation_carries_popularity_across_steps():
    def mean_step_corr(autocorr):
        spec = TraceSpec(
            num_experts=16, tokens_per_step=512, steps=40, top_k=2,
            concentration=0.3, autocorr=autocorr,
        )
        counts = generate_trace(spec, seed=3).expert_counts().astype(float)
        rs = [np.corrcoef(counts[s], counts[s + 1])[0, 1] for s in range(39)]
        return float(np.mean(rs))

    assert mean_step_corr(0.9) > 0.5
    assert mean_step_corr(0.0) < 0.2


def test_expert_count_conservation():
    spec = TraceSpec(num_experts=12, tokens_per_step=50, steps=4, top_k=3)
    trace = generate_trace(spec, seed=2)
    counts = trace.expert_counts()
    assert counts.shape == (4, 12)
    assert (counts.sum(axis=1) == 50 * 3).all()


def test_aux_loss_uniform_routing_is_exactly_one():
    # every expert selected twice with equal scores
    trace = make_trace([(0, 1), (2, 3), (0, 1), (2, 3)], num_experts=4)
    rep = aux_loss(trace)
    assert abs(rep.mean_loss - 1.0) <= 1e-12


@st.composite
def uniform_routings(draw):
    """A trace and a window (None: the whole trace) that divides its token
    count, where every window picks each expert equally often with equal
    scores: token t takes the k experts at cyclic positions t*k .. t*k + k - 1
    (mod n, shifted and relabelled), and n divides window * k."""
    n = draw(st.integers(1, 16))
    k = draw(st.integers(1, n))
    total = n // math.gcd(n, k) * draw(st.integers(1, 12))
    divisors = [d for d in range(1, total + 1) if total % d == 0]
    window = draw(st.sampled_from([d for d in divisors if d * k % n == 0] + [None]))
    steps = draw(st.sampled_from(divisors))
    shift = draw(st.integers(0, n - 1))
    labels = np.array(draw(st.permutations(range(n))))
    positions = np.arange(total)[:, None] * k + np.arange(k)[None, :] + shift
    experts = labels[positions % n].reshape(steps, total // steps, k)
    trace = RoutingTrace(n, experts, np.full(experts.shape, 1.0 / k), np.zeros(experts.shape[:2], dtype=np.int64))
    return trace, window


@settings(database=None, derandomize=True, max_examples=150, deadline=None)
@given(uniform_routings())
def test_aux_loss_is_one_for_uniform_routing_at_every_window(case):
    trace, window = case
    rep = aux_loss(trace, window)
    assert abs(rep.mean_loss - 1.0) <= 1e-12
    assert np.all(np.abs(rep.per_window - 1.0) <= 1e-12)


def test_aux_loss_fraction_sum_identity():
    # sum_i f_i = N / (k*T) * sum_i count_i = N regardless of the routing
    rng = random.Random(5)
    for _ in range(10):
        n = rng.randint(2, 16)
        k = rng.randint(1, n)
        spec = TraceSpec(num_experts=n, tokens_per_step=rng.randint(4, 40), steps=2, top_k=k)
        trace = generate_trace(spec, seed=rng.randint(0, 99))
        t = trace.steps * trace.tokens_per_step
        counts = trace.expert_counts().sum(axis=0)
        f = n / (k * t) * counts
        assert abs(f.sum() - n) <= 1e-9


def test_aux_loss_penalizes_collapse():
    # all tokens on the same expert pair: f = 2 on two experts, loss 2
    trace = make_trace([(0, 1), (0, 1)], num_experts=4)
    rep = aux_loss(trace)
    assert rep.mean_loss == pytest.approx(2.0, abs=1e-12)


def test_aux_loss_windows_split_the_token_stream():
    spec = TraceSpec(num_experts=8, tokens_per_step=4, steps=2, top_k=2)
    trace = generate_trace(spec, seed=0)
    rep = aux_loss(trace, window_tokens=4)
    assert isinstance(rep, AuxLossReport)
    assert rep.per_window.shape == (2,)
    assert rep.mean_loss == pytest.approx(rep.per_window.mean())
    with pytest.raises(EmptyWindowError):
        aux_loss(trace, window_tokens=9)


def test_balance_window_tokens_levels():
    rng = random.Random(1)
    for _ in range(20):
        t = rng.randint(1, 8192)
        mbs = rng.randint(1, 8)
        ep = rng.randint(1, 64)
        dp = rng.randint(1, 512)
        assert balance_window_tokens("sequence", t, mbs, ep, dp) == t
        assert balance_window_tokens("micro_batch", t, mbs, ep, dp) == mbs * t
        assert balance_window_tokens("ep_group", t, mbs, ep, dp) == ep * mbs * t
        assert balance_window_tokens("dp_group", t, mbs, ep, dp) == dp * mbs * t
    with pytest.raises(ValueError):
        balance_window_tokens("node", 128)


def test_drop_rate_single_hot_closed_form():
    # 64 tokens all routed to expert 0 of 8: rate = 1 - C/N exactly
    trace = make_trace([(0,)] * 64, num_experts=8)
    for c, want in [(1.0, 0.875), (2.0, 0.75), (4.0, 0.5)]:
        stats = capacity_drop_stats(trace, c)
        assert abs(stats.drop_rate - want) <= 1e-12
        assert stats.dropped_per_expert[0] == round(want * 64)


def test_drop_rate_monotone_in_capacity_and_dropless_limit():
    rng = random.Random(9)
    for _ in range(6):
        n = rng.choice([4, 8, 16])
        spec = TraceSpec(
            num_experts=n,
            tokens_per_step=rng.randint(16, 128),
            steps=3,
            top_k=rng.randint(1, min(4, n)),
            concentration=0.3,
        )
        trace = generate_trace(spec, seed=rng.randint(0, 999))
        sweep = [capacity_drop_stats(trace, c).drop_rate for c in np.linspace(0.05, n, 20)]
        assert all(a >= b - 1e-15 for a, b in zip(sweep, sweep[1:]))
        assert capacity_drop_stats(trace, math.inf).drop_rate == 0.0
        assert capacity_drop_stats(trace, float(n)).drop_rate == 0.0


@pytest.mark.parametrize("factor", [-1.0, math.nan])
def test_drop_stats_reject_negative_or_nan_capacity_factor(factor):
    trace = make_trace([(0,), (1,)], num_experts=2)
    with pytest.raises(ValueError, match="capacity_factor must be a non-negative number"):
        capacity_drop_stats(trace, factor)


def test_drops_follow_token_arrival_order():
    # expert 0 receives tokens 0 and 1; capacity 1 keeps the earlier one
    trace = make_trace([(0,), (0,), (1,)], num_experts=2)
    stats = capacity_drop_stats(trace, 2.0 / 3.0)
    assert stats.capacity == 1
    assert list(stats.dropped_per_expert) == [1, 0]
    assert stats.drop_rate == pytest.approx(1.0 / 3.0)


def test_device_load_cv_oracle():
    # mean 5, squared deviations 25+16+0+1, population variance 10.5
    assert device_load_stats([10, 1, 5, 4]) == pytest.approx(math.sqrt(10.5) / 5)
    assert device_load_stats([3, 3, 3]) == 0.0
    with pytest.raises(ZeroMeanError):
        device_load_stats([0.0, 0.0])


def test_predict_loads_window_mean():
    hist = np.array([[4.0, 0.0], [2.0, 2.0], [0.0, 4.0]])
    assert np.allclose(predict_loads(hist, 2), [1.0, 3.0])
    assert np.allclose(predict_loads(hist, 10), [2.0, 2.0])
    with pytest.raises(ValueError, match="steps >= 1"):
        predict_loads(np.empty((0, 4)), 3)


@pytest.mark.parametrize("window", [0, -1])
def test_predict_loads_refuses_a_window_below_one(window):
    """0 once meant the whole history and -1 every step but the first."""
    hist = np.array([[4.0, 0.0], [2.0, 2.0], [0.0, 4.0]])
    with pytest.raises(ValueError, match=f"^window must be >= 1, got {window}$"):
        predict_loads(hist, window)


def test_contiguous_placement_blocks():
    assert list(contiguous_placement(8, 4)) == [0, 0, 1, 1, 2, 2, 3, 3]
    with pytest.raises(SlotMismatchError):
        contiguous_placement(7, 2)


def test_greedy_place_small_hand_case():
    placed = greedy_place([10, 5, 4, 1], num_devices=2, slots_per_device=2)
    assert sorted(placed.device_loads) == [9.0, 11.0]
    assert placed.cv == pytest.approx(0.1)
    # 10 pairs with 1, so both experts moved off the contiguous layout
    assert placed.moved_experts == 2


def test_exact_placement_beats_slot_constrained_greedy():
    # heaviest-first fills devices to 23/17; the optimum splits 21/21
    placed = greedy_place([10, 9, 8, 7, 6, 2], num_devices=2, slots_per_device=3)
    assert max(placed.device_loads) == pytest.approx(21.0)


def brute_force_best_max_load(arr, num_devices, slots):
    n = len(arr)
    best = math.inf

    def recurse(remaining, loads):
        nonlocal best
        if not remaining:
            best = min(best, max(loads))
            return
        head = remaining[0]
        rest = remaining[1:]
        for combo in itertools.combinations(rest, slots - 1):
            group = (head,) + combo
            left = tuple(i for i in remaining if i not in group)
            recurse(left, loads + [sum(arr[i] for i in group)])

    recurse(tuple(range(n)), [])
    return best


def test_placement_matches_brute_force_on_small_instances():
    rng = random.Random(23)
    for _ in range(40):
        devices = rng.randint(1, 4)
        slots = rng.randint(1, 8 // devices)
        n = devices * slots
        loads = [rng.randint(0, 50) / 2 for _ in range(n)]
        placed = greedy_place(loads, devices, slots)
        want = brute_force_best_max_load(loads, devices, slots)
        assert max(placed.device_loads) == pytest.approx(want)


def test_placement_slot_mismatch_rejected():
    with pytest.raises(SlotMismatchError):
        greedy_place([1, 2, 3], num_devices=2, slots_per_device=2)


def test_swap_accounting_against_previous_layout():
    previous = np.array([0, 0, 1, 1])
    placed = greedy_place([10, 5, 4, 1], 2, 2, previous=previous)
    # the exact layout pairs 10 with 1: experts 1 and 3 change devices
    assert placed.moved_experts == 2
    stay = greedy_place([1.0, 1.0, 1.0, 1.0], 2, 2, previous=np.array([0, 0, 1, 1]))
    assert stay.moved_experts == 0


def reference_lpt_place(arr, num_devices, slots):
    """`_lpt_place` before its device choice and swap mask were vectorised."""
    n = arr.shape[0]
    order = sorted(range(n), key=lambda i: (-arr[i], i))
    device_of = np.zeros(n, dtype=np.int64)
    dev_load = np.zeros(num_devices)
    dev_free = np.full(num_devices, slots, dtype=np.int64)
    for i in order:
        best = min(
            (d for d in range(num_devices) if dev_free[d] > 0),
            key=lambda d: (dev_load[d], d),
        )
        device_of[i] = best
        dev_load[best] += arr[i]
        dev_free[best] -= 1

    # Swapping experts i and j changes the squared-load sum by
    # 2*delta*(L[di] - L[dj]) + 2*delta^2 with delta = arr[j] - arr[i].
    for _ in range(4 * n):
        delta = arr[None, :] - arr[:, None]
        per_dev = dev_load[device_of]
        gain = 2.0 * delta * (per_dev[:, None] - per_dev[None, :]) + 2.0 * delta * delta
        gain[device_of[:, None] == device_of[None, :]] = np.inf
        gain[np.tril_indices(n)] = np.inf
        flat = int(np.argmin(gain))
        i, j = divmod(flat, n)
        if gain[i, j] >= -1e-12:
            break
        di, dj = device_of[i], device_of[j]
        dev_load[di] += arr[j] - arr[i]
        dev_load[dj] -= arr[j] - arr[i]
        device_of[i], device_of[j] = dj, di
    return device_of


def reference_greedy_place(loads, num_devices, slots_per_device, previous=None):
    """`greedy_place` as it was, calling `reference_lpt_place`."""
    arr = np.asarray(loads, dtype=np.float64)
    n = arr.shape[0]
    if num_devices * slots_per_device != n:
        raise SlotMismatchError(
            f"{num_devices} devices x {slots_per_device} slots != {n} experts"
        )
    if _exact_assignment_count(n, num_devices, slots_per_device) <= _EXACT_PLACEMENT_LIMIT:
        device_of = _exact_place(arr, num_devices, slots_per_device)
    else:
        device_of = reference_lpt_place(arr, num_devices, slots_per_device)
    dev_load = np.bincount(device_of, weights=arr, minlength=num_devices)
    base = previous if previous is not None else contiguous_placement(n, num_devices)
    moved = int(np.count_nonzero(device_of != np.asarray(base)))
    return Placement(device_of_expert=device_of, device_loads=dev_load, moved_experts=moved)


# (devices, slots): the first four are solved exactly, the rest by the
# heaviest-first greedy with swap refinement.
PLACEMENT_SHAPES = [(1, 4), (2, 2), (2, 3), (3, 2), (2, 10), (3, 6), (4, 4), (6, 3), (8, 2), (5, 5), (8, 8)]


@st.composite
def placement_instances(draw):
    devices, slots = draw(st.sampled_from(PLACEMENT_SHAPES))
    # Few distinct values, so equal loads and equal device totals are common.
    value = st.one_of(st.integers(0, 6).map(lambda x: x / 2), st.floats(0.0, 1e3))
    loads = draw(st.lists(value, min_size=devices * slots, max_size=devices * slots))
    previous = draw(st.permutations(contiguous_placement(devices * slots, devices).tolist()))
    return loads, devices, slots, np.array(previous)


def test_placement_shapes_cover_both_solvers():
    exact = [_exact_assignment_count(d * s, d, s) <= _EXACT_PLACEMENT_LIMIT for d, s in PLACEMENT_SHAPES]
    assert exact == [True] * 4 + [False] * (len(PLACEMENT_SHAPES) - 4)


@settings(database=None, derandomize=True, max_examples=150, deadline=None)
@given(placement_instances())
def test_greedy_place_matches_the_reference_copy(instance):
    loads, devices, slots, previous = instance
    got = greedy_place(loads, devices, slots, previous=previous)
    want = reference_greedy_place(loads, devices, slots, previous=previous)
    assert np.array_equal(got.device_of_expert, want.device_of_expert)
    assert np.array_equal(got.device_loads, want.device_loads)
    assert got.moved_experts == want.moved_experts


def test_placement_loads_aggregation():
    loads = placement_loads(np.array([5, 1, 2, 2]), np.array([0, 1, 1, 0]), 2)
    assert list(loads) == [7.0, 3.0]


def test_trace_round_trip_is_exact(tmp_path):
    spec = TraceSpec(num_experts=8, tokens_per_step=16, steps=3, top_k=2, num_tasks=2)
    trace = generate_trace(spec, seed=4)
    path = tmp_path / "trace.csv"
    trace.save(path)
    back = RoutingTrace.load(path)
    assert back.num_experts == 8
    assert np.array_equal(back.experts, trace.experts)
    assert np.array_equal(back.tasks, trace.tasks)
    assert np.array_equal(back.scores, trace.scores)


@pytest.mark.parametrize("bad", [16, -1])
def test_trace_rejects_expert_ids_out_of_range(bad):
    with pytest.raises(ValueError, match=rf"expert id {bad} outside \[0, num_experts=16\)"):
        make_trace([(0, 15), (3, bad), (bad, 4)], 16)


def test_trace_load_rejects_foreign_file(tmp_path):
    path = tmp_path / "junk.csv"
    path.write_text("step,token\n0,0\n")
    with pytest.raises(ParseError):
        RoutingTrace.load(path)


def reference_save(trace, path):
    """The csv.writer loop `RoutingTrace.save` replaced, kept as its byte oracle."""
    with open(path, "w", newline="") as fh:
        fh.write("# moesim-trace v1" + "\n")
        fh.write(f"# num_experts={trace.num_experts}\n")
        writer = csv.writer(fh)
        writer.writerow(["step", "token", "task", "experts", "scores"])
        for s in range(trace.steps):
            for t in range(trace.tokens_per_step):
                writer.writerow(
                    [
                        s,
                        t,
                        int(trace.tasks[s, t]),
                        " ".join(str(int(e)) for e in trace.experts[s, t]),
                        " ".join(repr(float(x)) for x in trace.scores[s, t]),
                    ]
                )


@st.composite
def routing_traces(draw):
    # Up to the balance demo's top-8, and 64 tokens per step.
    steps, tokens, k = draw(st.integers(1, 4)), draw(st.integers(1, 64)), draw(st.integers(1, 8))
    n = draw(st.integers(k, 12))
    cells = steps * tokens
    token_ids = st.lists(st.integers(0, n - 1), min_size=k, max_size=k, unique=True)
    experts = draw(st.lists(token_ids, min_size=cells, max_size=cells))
    tasks = draw(st.lists(st.integers(0, 5), min_size=cells, max_size=cells))
    # Weights spanning subnormals to 1, one of them lifted so no row is all zero.
    raw = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=cells * k, max_size=cells * k))).reshape(cells, k)
    raw[np.arange(cells), draw(st.lists(st.integers(0, k - 1), min_size=cells, max_size=cells))] += 1.0
    scores = raw / raw.sum(axis=1, keepdims=True)
    return RoutingTrace(
        n,
        np.array(experts, dtype=np.int64).reshape(steps, tokens, k),
        scores.reshape(steps, tokens, k),
        np.array(tasks, dtype=np.int64).reshape(steps, tokens),
    )


@settings(database=None, derandomize=True, max_examples=80, deadline=None)
@given(routing_traces())
def test_trace_save_matches_csv_writer_and_loads_back_exactly(trace):
    with tempfile.TemporaryDirectory() as tmp:
        ours, oracle = Path(tmp) / "ours.csv", Path(tmp) / "oracle.csv"
        trace.save(ours)
        reference_save(trace, oracle)
        assert ours.read_bytes() == oracle.read_bytes()
        back = RoutingTrace.load(ours)
    assert back.num_experts == trace.num_experts
    for name in ("experts", "scores", "tasks"):
        got, want = getattr(back, name), getattr(trace, name)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


def test_expert_counts_match_per_step_bincount():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        steps, tokens, k = rng.integers(1, 6), rng.integers(1, 40), rng.integers(1, 5)
        n = int(rng.integers(k, 20))
        experts = rng.random((steps, tokens, n)).argsort(axis=2)[:, :, :k]
        trace = RoutingTrace(n, experts, np.full(experts.shape, 1.0 / k), np.zeros((steps, tokens), dtype=np.int64))
        counts = trace.expert_counts()
        assert counts.shape == (steps, n)
        for s in range(steps):
            assert np.array_equal(counts[s], np.bincount(experts[s].ravel(), minlength=n))


# A 2-step, 3-token, k = 2 trace body and edits that each break one rule.
GOOD_ROWS = [
    "0,0,0,0 1,0.5 0.5",
    "0,1,1,2 3,0.25 0.75",
    "0,2,0,1 2,0.5 0.5",
    "1,0,0,3 0,0.5 0.5",
    "1,1,1,0 2,0.5 0.5",
    "1,2,0,1 3,0.5 0.5",
]
BAD_BODIES = {
    "missing row": (GOOD_ROWS[:1] + GOOD_ROWS[2:], "step 0 token 2: .*step 0 token 1 is due"),
    "missing last row": (GOOD_ROWS[:-1], "end: .*step 1 token 2 is due"),
    "repeated row": (GOOD_ROWS[:2] + GOOD_ROWS[1:], "step 0 token 1: .*step 0 token 2 is due"),
    "out-of-order rows": ([GOOD_ROWS[1], GOOD_ROWS[0]] + GOOD_ROWS[2:], "step 0 token 1: .*step 0 token 0 is due"),
    "ragged k": (GOOD_ROWS[:4] + ["1,1,1,0 2 3,0.5 0.25 0.25"] + GOOD_ROWS[5:], "step 1 token 1: .*2 expert ids and 2 scores"),
    "ids and scores of unequal k": (GOOD_ROWS[:4] + ["1,1,1,0 2 3,1.0"] + GOOD_ROWS[5:], "step 1 token 1: .*2 expert ids"),
    "non-integer expert id": (GOOD_ROWS[:2] + ["0,2,0,1.5 2,0.5 0.5"] + GOOD_ROWS[3:], "step 0 token 2: .*integers"),
    "inf in the step column": (GOOD_ROWS[:3] + ["inf,0,0,3 0,0.5 0.5"] + GOOD_ROWS[4:], "step inf token 0: .*integers"),
    "negative task": (GOOD_ROWS[:1] + ["0,1,-1,2 3,0.25 0.75"] + GOOD_ROWS[2:], "step 0 token 1: .*integers"),
    "nan score": (GOOD_ROWS[:5] + ["1,2,0,1 3,nan 0.5"], "step 1 token 2: .*finite and sum to 1"),
    "scores summing to 0.9": (GOOD_ROWS[:1] + ["0,1,1,2 3,0.25 0.65"] + GOOD_ROWS[2:], "step 0 token 1: .*sum to 1"),
    "text in a field": (GOOD_ROWS[:1] + ["0,1,x,2 3,0.25 0.75"] + GOOD_ROWS[2:], "could not convert"),
    # 4 commas and 2 spaces, one after the last comma, as a k = 2 row has,
    # but the ids' space moved after them: loadtxt meets an empty field
    "a misplaced space": (
        GOOD_ROWS[:1] + ["0,1,1,23 ,0.25 0.75"] + GOOD_ROWS[2:],
        r": could not convert string '' to float64 at row 1, column 5\.$",
    ),
    "empty body": ([], "trace has no rows"),
}


def write_rows(path, rows):
    head = "# moesim-trace v1\n# num_experts=4\nstep,token,task,experts,scores\r\n"
    path.write_bytes((head + "".join(row + "\r\n" for row in rows)).encode())
    return path


def test_trace_load_reads_the_unbroken_rows(tmp_path):
    trace = RoutingTrace.load(write_rows(tmp_path / "trace.csv", GOOD_ROWS))
    assert (trace.steps, trace.tokens_per_step, trace.top_k, trace.num_experts) == (2, 3, 2, 4)
    assert trace.experts[1, 0].tolist() == [3, 0]
    assert trace.scores[0, 1].tolist() == [0.25, 0.75]
    assert trace.tasks.tolist() == [[0, 1, 0], [0, 1, 0]]


@pytest.mark.parametrize("case", list(BAD_BODIES))
def test_trace_load_rejects_malformed_rows(tmp_path, capsys, case):
    rows, message = BAD_BODIES[case]
    path = write_rows(tmp_path / "trace.csv", rows)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParseError, match=message) as info:
            RoutingTrace.load(path)
    assert str(info.value).startswith(f"{path}: ")
    assert main(["trace-stats", "--trace", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


@pytest.mark.parametrize("block", [1, 2, 5])
def test_trace_codec_is_the_same_in_any_block_size(tmp_path, monkeypatch, block):
    """Save and load work in blocks of TRACE_BLOCK_ROWS rows; blocks that
    split steps and rows write the same bytes, load the same arrays and
    report the same first bad row."""
    monkeypatch.setattr(balance, "TRACE_BLOCK_ROWS", block)
    trace = generate_trace(TraceSpec(num_experts=8, tokens_per_step=7, steps=3, top_k=3, num_tasks=2), seed=9)
    ours, oracle = tmp_path / "ours.csv", tmp_path / "oracle.csv"
    trace.save(ours)
    reference_save(trace, oracle)
    assert ours.read_bytes() == oracle.read_bytes()
    back = RoutingTrace.load(ours)
    for name in ("experts", "scores", "tasks"):
        assert np.array_equal(getattr(back, name), getattr(trace, name))
    for rows, message in BAD_BODIES.values():
        with pytest.raises(ParseError, match=message):
            RoutingTrace.load(write_rows(tmp_path / "bad.csv", rows))


def test_trace_statistics_hand_case():
    trace = make_trace([(0, 1), (0, 2)], num_experts=3)
    stats = trace_statistics(trace)
    assert stats.coactivation[0, 0] == pytest.approx(1.0)
    assert stats.coactivation[0, 1] == pytest.approx(0.5)
    assert stats.coactivation[0, 2] == pytest.approx(0.5)
    assert stats.coactivation[1, 0] == pytest.approx(1.0)
    assert np.allclose(stats.task_expert_share[0], [0.5, 0.25, 0.25])
    assert stats.uniform_share == pytest.approx(1.0 / 3.0)


@pytest.mark.parametrize(
    "num_experts, last_task, table",
    [(4, 3, None), (5, 0, "5 x 5 coactivation"), (4, 4, "5 x 4 task_expert_share")],
)
def test_trace_statistics_refuses_a_table_over_the_cell_limit(monkeypatch, num_experts, last_task, table):
    """With the limit at 16 cells, 4 experts and task ids up to 3 fill both
    tables exactly; one more expert or task id is refused."""
    monkeypatch.setattr(balance, "TRACE_TABLE_CELLS", 16)
    trace = make_trace([(0, 1), (2, 3)], num_experts=num_experts, tasks=np.array([[0, last_task]]))
    if table is None:
        assert trace_statistics(trace).task_expert_share.shape == (4, 4)
    else:
        with pytest.raises(ValueError, match=f"need a {table} table, over the 16-cell limit"):
            trace_statistics(trace)


def reference_trace_statistics(trace):
    """`trace_statistics` as it was: a dense one-hot, its Gram matrix and a
    loop over tasks."""
    n = trace.num_experts
    flat_e = trace.experts.reshape(-1, trace.top_k)
    onehot = np.zeros((flat_e.shape[0], n), dtype=np.float64)
    rows = np.repeat(np.arange(flat_e.shape[0]), trace.top_k)
    onehot[rows, flat_e.ravel()] = 1.0
    joint = onehot.T @ onehot
    selected = np.diag(joint).copy()
    with np.errstate(divide="ignore", invalid="ignore"):
        coact = np.where(selected[:, None] > 0, joint / selected[:, None], 0.0)
    flat_t = trace.tasks.ravel()
    num_tasks = int(flat_t.max()) + 1 if flat_t.size else 1
    share = np.zeros((num_tasks, n))
    for t in range(num_tasks):
        mask = flat_t == t
        if mask.any():
            ids = flat_e[mask].ravel()
            counts = np.bincount(ids, minlength=n).astype(np.float64)
            share[t] = counts / counts.sum()
    return TraceStats(coact, share, 1.0 / n)


@settings(database=None, derandomize=True, max_examples=150, deadline=None)
@given(routing_traces())
def test_trace_statistics_matches_the_reference_copy(trace):
    got, want = trace_statistics(trace), reference_trace_statistics(trace)
    for name in ("coactivation", "task_expert_share"):
        assert getattr(got, name).dtype == getattr(want, name).dtype
        assert np.array_equal(getattr(got, name), getattr(want, name))
    assert got.uniform_share == want.uniform_share


def test_trace_rejects_an_expert_repeated_within_a_token():
    with pytest.raises(ValueError, match="step 0 token 2: an expert id appears twice"):
        make_trace([(0, 1, 2), (3, 1, 0), (2, 3, 2)], num_experts=4)


@pytest.mark.parametrize("shape", [(1, 2, 0), (1, 2)])
def test_trace_rejects_experts_without_a_k_axis(shape):
    with pytest.raises(ValueError, match=r"\(steps, tokens, k >= 1\)"):
        RoutingTrace(4, np.zeros(shape, dtype=np.int64), np.zeros(shape), np.zeros((1, 2), dtype=np.int64))


def test_trace_rejects_negative_task_ids():
    with pytest.raises(ValueError, match="task id -1"):
        make_trace([(0, 1), (2, 3)], num_experts=4, tasks=np.array([[0, -1]]))


def test_replanning_tracks_a_drifting_trace():
    spec = TraceSpec(
        num_experts=32, tokens_per_step=1024, steps=60, top_k=4,
        concentration=0.3, autocorr=0.9,
    )
    res = run_balance_simulation(generate_trace(spec, 0), num_devices=8)
    assert res.mean_cv_reduction > 0.4
    assert res.managed_cv.mean() < res.static_cv.mean()
    assert len(res.replan_steps) > 0


def test_replanning_requires_even_expert_split():
    spec = TraceSpec(num_experts=10, tokens_per_step=16, steps=2, top_k=2)
    with pytest.raises(SlotMismatchError):
        run_balance_simulation(generate_trace(spec, 0), num_devices=4)


@pytest.mark.parametrize(
    "kwargs, name",
    [
        ({"num_devices": 0}, "num_devices"),
        ({"num_devices": -4}, "num_devices"),
        ({"num_devices": 4, "replan_interval": 0}, "replan_interval"),
        ({"num_devices": 4, "history_window": 0}, "history_window"),
        ({"num_devices": 4, "history_window": -2}, "history_window"),
    ],
)
def test_replanning_rejects_counts_below_one(kwargs, name):
    trace = generate_trace(TraceSpec(num_experts=8, tokens_per_step=16, steps=3, top_k=2), 0)
    with pytest.raises(ValueError, match=rf"^{name} must be >= 1, got -?\d+$"):
        run_balance_simulation(trace, **kwargs)


def test_spec_validation():
    with pytest.raises(ValueError):
        TraceSpec(num_experts=4, tokens_per_step=8, steps=1, top_k=5)
    with pytest.raises(ValueError):
        TraceSpec(num_experts=4, tokens_per_step=8, steps=1, top_k=2, autocorr=1.0)
    with pytest.raises(ValueError):
        TraceSpec(num_experts=4, tokens_per_step=8, steps=1, top_k=2, concentration=0.0)
    with pytest.raises(ValueError):
        TraceSpec(num_experts=4, tokens_per_step=8, steps=0, top_k=2)
    with pytest.raises(ValueError):
        TraceSpec(num_experts=4, tokens_per_step=8, steps=1, top_k=2, num_tasks=2, task_mix=(1.0,))


@pytest.mark.parametrize("field, value, message", [
    ("concentration", math.nan, "concentration must be a finite number in (0, 1e6], got nan"),
    ("concentration", math.inf, "concentration must be a finite number in (0, 1e6], got inf"),
    ("concentration", -math.inf, "concentration must be a finite number in (0, 1e6], got -inf"),
    ("concentration", True, "concentration must be a finite number in (0, 1e6], got True"),
    ("concentration", 1.000001e6, "concentration must be a finite number in (0, 1e6], got 1000001.0"),
    ("tokens_per_step", math.nan, "tokens_per_step must be an integer, got nan"),
    ("steps", True, "steps must be an integer, got True"),
    ("top_k", True, "top_k must be an integer, got True"),
    ("num_experts", 1e308, "num_experts must be an integer, got 1e+308"),
    ("num_tasks", 2.0, "num_tasks must be an integer, got 2.0"),
])
def test_spec_refuses_what_it_cannot_sample(field, value, message):
    """A non-finite concentration once gave all-NaN gate scores, and a
    float or bool count a bare TypeError from numpy, naming no field."""
    spec = dict(num_experts=4, tokens_per_step=8, steps=2, top_k=2)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        TraceSpec(**{**spec, field: value})


def test_the_concentration_ceiling_still_samples():
    """1e308 once gave NaN gate scores and a numpy RuntimeWarning: on 64
    experts the sum of one Dirichlet draw overflows from about 1e307. At
    the 1e6 ceiling every score is finite and nothing warns."""
    spec = TraceSpec(num_experts=64, tokens_per_step=32, steps=3, top_k=4, concentration=1e6, num_tasks=2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        trace = generate_trace(spec, 0)
        result = run_balance_simulation(trace, 4)
    assert np.isfinite(trace.scores).all()
    assert np.allclose(trace.scores.sum(axis=2), 1.0)
    assert np.isfinite(result.static_cv).all() and np.isfinite(result.managed_cv).all()


@pytest.mark.parametrize("mix, message", [
    ((0, 0), "task_mix must have a finite sum > 0, got [0, 0]"),
    ((0.0, 0.0), "task_mix must have a finite sum > 0, got [0.0, 0.0]"),
    ((1e308, 1e308), "task_mix must have a finite sum > 0, got [1e+308, 1e+308]"),
    ((-1, 2), "task_mix[0] must be a finite number >= 0, got -1"),
    ((1.0, math.nan), "task_mix[1] must be a finite number >= 0, got nan"),
    ((math.inf, 1.0), "task_mix[0] must be a finite number >= 0, got inf"),
    ((1.0, True), "task_mix[1] must be a finite number >= 0, got True"),
])
def test_spec_refuses_a_task_mix_it_cannot_draw_from(mix, message):
    """Such a mix once reached numpy's sampler, which warned and then failed
    naming neither the spec nor the field."""
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        TraceSpec(num_experts=4, tokens_per_step=8, steps=1, top_k=2, num_tasks=2, task_mix=mix)
    weights = TraceSpec(num_experts=4, tokens_per_step=8, steps=1, top_k=2, num_tasks=2, task_mix=(0, 3))
    assert generate_trace(weights, 0).tasks.tolist() == [[1] * 8]
