"""Acceptance gate: one test per shipped guarantee.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass or fail
line per guarantee. Every numeric target is stated inline, and every
check is made against an independent oracle computed here rather than
against the library's own intermediate results.
"""

import itertools
import json
import math
import random
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from moesim.balance import (
    RoutingTrace,
    TraceSpec,
    aux_loss,
    balance_window_tokens,
    capacity_drop_stats,
    generate_trace,
    greedy_place,
    run_balance_simulation,
)
from moesim.cli import main
from moesim.comm import dispatch_volumes
from moesim.configio import load_cluster, load_model, load_plan, load_trace_spec
from moesim.model import count_parameters
from moesim.parallel import assign_chunks, partition_contiguous
from moesim.pipeline import (
    OverlapPolicy,
    analytic_bubble_ratio,
    build_1f1b_schedule,
    simulate_timeline,
    uniform_chunk_costs,
)
from moesim.search import SimulationFeatures, training_report
from test_pipeline import random_transfers

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def test_c01_interleaved_bubble_ratio_matches_reference_points():
    """(p-1)/(v*m+p-1) at p=16, m=64 and the simulator agree with it."""
    t0 = time.perf_counter()
    assert abs(analytic_bubble_ratio(16, 64, 1) - 0.1898) <= 0.0005
    assert abs(analytic_bubble_ratio(16, 64, 2) - 0.1049) <= 0.0005
    for v in (1, 2):
        schedule = build_1f1b_schedule(16, 64, v)
        costs = uniform_chunk_costs(16, v, 1e-3, 2e-3)
        report = simulate_timeline(schedule, costs, policy=OverlapPolicy(decouple_dw=False))
        expected = analytic_bubble_ratio(16, 64, v)
        assert abs(report.bubble_ratio - expected) <= 1e-9 * expected
    assert time.perf_counter() - t0 < 1.0


def test_c02_dispatch_volumes_match_per_token_counting_oracle():
    """200 random (seq, tp, ep, topk) tuples, all three mechanisms exact."""
    t0 = time.perf_counter()
    rng = random.Random(2024)
    cheaper_cases = 0
    for i in range(200):
        tokens = rng.randint(1, 8192)
        tp = rng.choice([1, 2, 4, 8])
        topk = rng.randint(1, 16)
        if i % 2:
            topk = max(topk, 2)
            ep = rng.randint(2, topk)  # forces ep - 1 < topk
        else:
            ep = rng.choice([1, 2, 4, 8, 16, 32])
        hidden = rng.choice([1, 16, 7168])
        dtype = rng.choice([1, 2])
        unit = hidden * dtype

        # Per-token counting oracle, token units.
        inter = {"allgather": tp * ep, "alltoall": topk, "hierarchical": ep - 1}
        intra = {"allgather": 0, "alltoall": 0, "hierarchical": topk}
        for mech in ("allgather", "alltoall", "hierarchical"):
            vols = dispatch_volumes(mech, tokens, hidden, dtype, topk, tp, ep)
            assert vols.inter_node_bytes == tokens * inter[mech] * unit
            assert vols.intra_node_bytes == tokens * intra[mech] * unit

        if ep > 1 and ep - 1 < topk:
            cheaper_cases += 1
            hier = dispatch_volumes("hierarchical", tokens, hidden, dtype, topk, tp, ep)
            flat = dispatch_volumes("alltoall", tokens, hidden, dtype, topk, tp, ep)
            assert hier.inter_node_bytes < flat.inter_node_bytes
    assert cheaper_cases >= 100
    assert time.perf_counter() - t0 < 5.0


def test_c03_balance_loss_invariants_and_window_sizes():
    """Uniform routing scores 1.0, frequencies sum to N, windows follow
    the sequence/micro-batch/ep-group/dp-group formulas."""
    n, k, tokens = 8, 2, 64
    experts = np.array(
        [[[(2 * t) % n, (2 * t + 1) % n] for t in range(tokens)]], dtype=np.int64
    )
    scores = np.full(experts.shape, 0.5)
    tasks = np.zeros(experts.shape[:2], dtype=np.int64)
    uniform = RoutingTrace(n, experts, scores, tasks)
    assert abs(aux_loss(uniform).mean_loss - 1.0) <= 1e-12

    for seed in range(5):
        spec = TraceSpec(
            num_experts=16, tokens_per_step=256, steps=4, top_k=4, concentration=0.5
        )
        trace = generate_trace(spec, seed)
        total = trace.steps * trace.tokens_per_step
        counts = np.bincount(trace.experts.ravel(), minlength=16).astype(np.float64)
        f = 16.0 / (4 * total) * counts
        assert abs(f.sum() - 16.0) <= 1e-9

    rng = random.Random(5)
    for _ in range(50):
        t = rng.choice([128, 1024, 4096, 8192])
        mbs = rng.randint(1, 4)
        ep = rng.choice([1, 2, 4, 8, 16])
        dp = ep * rng.randint(1, 8)
        assert balance_window_tokens("sequence", t, mbs, ep, dp) == t
        assert balance_window_tokens("micro_batch", t, mbs, ep, dp) == mbs * t
        assert balance_window_tokens("ep_group", t, mbs, ep, dp) == ep * mbs * t
        assert balance_window_tokens("dp_group", t, mbs, ep, dp) == dp * mbs * t


def test_c04_capacity_drop_mechanics():
    """Drop rate never rises with capacity, vanishes in the dropless
    limit, and matches 1 - C/N for single-hot routing."""
    for seed in range(10):
        n = random.Random(seed).choice([8, 16, 32])
        spec = TraceSpec(
            num_experts=n,
            tokens_per_step=128,
            steps=3,
            top_k=4,
            concentration=0.3,
            autocorr=0.5,
        )
        trace = generate_trace(spec, seed)
        rates = [
            capacity_drop_stats(trace, c).drop_rate for c in np.linspace(0.05, n, 20)
        ]
        for lo, hi in zip(rates[1:], rates):
            assert lo <= hi + 1e-12
        assert capacity_drop_stats(trace, math.inf).drop_rate == 0.0
        assert capacity_drop_stats(trace, float(n)).drop_rate == 0.0

    n, tokens = 8, 64
    experts = np.zeros((1, tokens, 1), dtype=np.int64)
    scores = np.ones((1, tokens, 1))
    tasks = np.zeros((1, tokens), dtype=np.int64)
    single_hot = RoutingTrace(n, experts, scores, tasks)
    for c in (0.5, 1.0, 2.0, 4.0):
        stats = capacity_drop_stats(single_hot, c)
        assert abs(stats.drop_rate - (1.0 - c / n)) <= 1e-12


def _best_max_load(loads, devices, slots):
    """Exhaustive assignment oracle: minimal possible max device load."""
    order = sorted(loads, reverse=True)
    best = [math.inf]

    def recurse(i, dev_loads, free):
        if max(dev_loads) >= best[0] and i < len(order):
            if max(dev_loads) > best[0]:
                return
        if i == len(order):
            best[0] = min(best[0], max(dev_loads))
            return
        seen = set()
        for d in range(devices):
            state = (dev_loads[d], free[d])
            if free[d] == 0 or state in seen:
                continue
            seen.add(state)
            dev_loads[d] += order[i]
            free[d] -= 1
            if max(dev_loads) < best[0]:
                recurse(i + 1, dev_loads, free)
            dev_loads[d] -= order[i]
            free[d] += 1

    recurse(0, [0.0] * devices, [slots] * devices)
    return best[0]


def test_c05_placement_optimality_and_replanning_benchmark():
    """greedy_place matches the exhaustive optimum on every shape up to
    8 experts and 4 devices, then cuts mean CV by at least half on the
    skewed autocorrelated benchmark."""
    shapes = [
        (d, s)
        for d in range(1, 5)
        for s in range(1, 9)
        if d * s <= 8
    ]
    for devices, slots in shapes:
        n = devices * slots
        if n <= 6:
            for combo in itertools.combinations_with_replacement((1.0, 2.0, 3.0), n):
                placed = greedy_place(list(combo), devices, slots)
                assert max(placed.device_loads) == pytest.approx(
                    _best_max_load(combo, devices, slots), abs=1e-9
                )
        rng = np.random.default_rng(1000 + devices * 10 + slots)
        for _ in range(3):
            loads = rng.uniform(0.0, 10.0, size=n)
            placed = greedy_place(loads, devices, slots)
            assert max(placed.device_loads) == pytest.approx(
                _best_max_load(loads, devices, slots), abs=1e-9
            )

    spec = load_trace_spec(str(CONFIGS / "balance_demo.json"))
    assert (spec.num_experts, spec.steps, spec.top_k) == (64, 200, 8)
    assert (spec.concentration, spec.autocorr) == (0.3, 0.9)
    result = run_balance_simulation(generate_trace(spec, 0), 8)
    assert result.mean_cv_reduction >= 0.50
    print(
        f"replanning cut mean device-load CV by {result.mean_cv_reduction:.1%} "
        f"(reference range at cluster scale: 80-90%)"
    )


def test_c06_chunk_balancing_point_and_partition_oracle():
    """The 61-layer stack with extra-prediction and head weights splits
    into 16x2 chunks with max weight 2.05, and the partitioner is exact
    on every instance up to 12 items."""
    cfg = load_model(str(CONFIGS / "model_reference.json"))
    plan = load_plan(str(CONFIGS / "plan_reference.json"))
    assert cfg.num_layers == 61 and plan.pp == 16 and plan.vpp == 2
    assignment = assign_chunks(cfg, plan)
    assert assignment.max_chunk_weight == pytest.approx(2.05, abs=1e-12)
    assert assignment.overflow_ratio == pytest.approx(1.025, abs=1e-12)
    assert assignment.overflow_ratio <= 1.05

    rng = random.Random(66)
    for _ in range(80):
        n = rng.randint(1, 12)
        weights = [rng.choice([0.5, 1.0, 1.05, 1.5, 2.0]) for _ in range(n)]
        chunks = rng.randint(1, n)
        runs = partition_contiguous(weights, chunks)
        assert [i for run in runs for i in run] == list(range(n))
        achieved = max(sum(weights[i] for i in run) for run in runs)
        optimal = min(
            max(
                sum(weights[a:b])
                for a, b in zip((0,) + cuts, cuts + (n,))
            )
            for cuts in itertools.combinations(range(1, n), chunks - 1)
        )
        assert achieved == pytest.approx(optimal, abs=1e-12)


def test_c07_reference_model_parameter_bands():
    """Total and activated parameter counts land in the quoted bands."""
    cfg = load_model(str(CONFIGS / "model_reference.json"))
    pc = count_parameters(cfg)
    assert 682e9 <= pc.total <= 754e9
    assert 37e9 <= pc.activated <= 41e9


def _scan_for_conflicts(timeline, comm_holds_compute=False):
    """Brute-force interval scan: no resource double-occupancy and no
    dependency violation anywhere in the executed task set. With
    comm_holds_compute, as without comm overlap, each comm task also holds
    its device's compute stream."""
    occupancy = {}
    for task in timeline.tasks.values():
        occupancy.setdefault((task.device, task.resource), []).append(task.id)
        if comm_holds_compute and task.kind == "comm":
            occupancy.setdefault((task.device, "compute"), []).append(task.id)
    for key, ids in occupancy.items():
        spans = sorted((timeline.start[t], timeline.end[t], t) for t in ids)
        for (s0, e0, a), (s1, e1, b) in zip(spans, spans[1:]):
            assert s1 >= e0 - 1e-9, f"{a} and {b} overlap on {key}"
    for task in timeline.tasks.values():
        for dep in task.deps:
            assert timeline.end[dep] <= timeline.start[task.id] + 1e-9


def test_c08_scheduler_soundness_on_randomized_simulations():
    """1,000 random schedules: zero double-occupancy, zero dependency
    violations, and enabling overlap never increases the step time."""
    from moesim.cluster import HardwareDescription

    rng = random.Random(88)
    checked = 0
    for _ in range(1000):
        p = rng.randint(1, 3)
        v = rng.choice([1, 2])
        m = p * rng.randint(1, 2) if v > 1 else rng.randint(1, 4)
        schedule = build_1f1b_schedule(p, m, v)
        costs = {
            (s, vv): replace(
                uniform_chunk_costs(p, v, 1.0, 2.0)[(s, vv)],
                fwd=rng.uniform(0.5, 3.0),
                bwd=rng.uniform(0.5, 6.0),
            )
            for s in range(p)
            for vv in range(v)
        }
        hw = HardwareDescription(
            name="rand",
            peak_flops={"bf16": 1e12},
            hbm_capacity=16e9,
            hbm_bandwidth=1e12,
            intra_node_bandwidth=100e9,
            intra_node_latency=1e-6,
            inter_node_bandwidth=20e9,
            inter_node_latency=5e-6,
            devices_per_node=8,
            num_nodes=1,
            host_dispatch_time=rng.choice([0.0, 0.05]),
        )
        transfers = random_transfers(rng, schedule, range(2 * m * v * p))
        base = dict(
            decouple_dw=rng.random() < 0.5,
            host_gmm_first=rng.random() < 0.5,
        )
        on = simulate_timeline(
            schedule, costs, policy=OverlapPolicy(overlap_comm=True, **base), hw=hw, transfers=transfers
        )
        off = simulate_timeline(
            schedule, costs, policy=OverlapPolicy(overlap_comm=False, **base), hw=hw, transfers=transfers
        )
        for report, exposed in ((on, False), (off, True)):
            _scan_for_conflicts(report.timeline, comm_holds_compute=exposed)
            assert report.step_time == pytest.approx(report.timeline.makespan)
        assert on.step_time <= off.step_time + 1e-9
        checked += 1
    assert checked == 1000


def test_c09_model_ranking_and_feature_toggle_directions():
    """The 61-layer design beats the 66-layer one by a 5 to 30 percent
    training-throughput gap, and each executor feature helps MFU."""
    cfg_a = load_model(str(CONFIGS / "model_reference.json"))
    cfg_b = replace(cfg_a, num_layers=66)
    hw = load_cluster(str(CONFIGS / "cluster_6144.json"))
    plan = load_plan(str(CONFIGS / "plan_reference.json"))

    rep_a = training_report(cfg_a, plan, hw)
    rep_b = training_report(cfg_b, plan, hw)
    gap = (rep_a.tps - rep_b.tps) / rep_b.tps
    assert 0.05 <= gap <= 0.30
    print(f"61-layer beats 66-layer by {gap:.1%} training throughput")

    baseline = training_report(cfg_a, plan, hw, SimulationFeatures()).mfu
    for toggle in (
        SimulationFeatures(policy=OverlapPolicy(overlap_comm=False)),
        SimulationFeatures(fine_grained_memory=False),
        SimulationFeatures(policy=OverlapPolicy(host_gmm_first=False)),
    ):
        downgraded = training_report(cfg_a, plan, hw, toggle).mfu
        assert downgraded <= baseline + 1e-12, toggle


def test_c10_cli_is_byte_identical_across_reruns(tmp_path, capsys):
    """Every command run twice with the same seed prints the same bytes
    and writes the same files."""
    model = {
        "num_layers": 4,
        "hidden_size": 64,
        "num_attention_heads": 4,
        "num_routed_experts": 4,
        "top_k": 2,
        "expert_intermediate_size": 32,
        "num_shared_experts": 1,
        "num_dense_layers": 1,
        "dense_ffn_intermediate_size": 32,
        "mla": {"q_rank": 24, "kv_rank": 12, "head_dim": 8, "rope_dim": 4},
        "num_mtp_layers": 1,
        "vocab_size": 256,
        "seq_len": 128,
    }
    cluster = {
        "name": "bench8",
        "peak_flops": {"bf16": 5e12},
        "hbm_capacity": 8e9,
        "hbm_bandwidth": 400e9,
        "intra_node_bandwidth": 50e9,
        "intra_node_latency": 2e-6,
        "inter_node_bandwidth": 12e9,
        "inter_node_latency": 8e-6,
        "devices_per_node": 4,
        "num_nodes": 2,
    }
    plan = {"tp": 1, "pp": 2, "vpp": 1, "ep": 2, "cp": 1, "micro_batch_size": 1, "global_batch_size": 16}
    space = {"base": model, "ranges": {"num_layers": [3, 4]}}
    spec = {"num_experts": 8, "tokens_per_step": 256, "steps": 20, "top_k": 2, "concentration": 0.3, "autocorr": 0.9}
    paths = {}
    for name, payload in (("model", model), ("cluster", cluster), ("plan", plan), ("space", space), ("spec", spec)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(payload))
        paths[name] = str(path)

    def run_all(tag):
        outdir = tmp_path / tag
        outdir.mkdir()
        argvs = [
            ["validate", "--model", paths["model"], "--cluster", paths["cluster"],
             "--plan", paths["plan"], "--out", str(outdir / "validate.json")],
            ["simulate", "--model", paths["model"], "--cluster", paths["cluster"],
             "--plan", paths["plan"], "--out", str(outdir / "train.json")],
            ["simulate", "--model", paths["model"], "--cluster", paths["cluster"],
             "--mode", "inference", "--batch", "16", "--out", str(outdir / "decode.json")],
            ["search", "--cluster", paths["cluster"], "--plan", paths["plan"],
             "--space", paths["space"], "--out", str(outdir / "results.json")],
            ["balance", "--spec", paths["spec"], "--devices", "4", "--seed", "11",
             "--save-trace", str(outdir / "trace.csv"), "--out", str(outdir / "balance.json")],
        ]
        printed = []
        for argv in argvs:
            assert main(argv) == 0
            printed.append(capsys.readouterr().out)
        assert main(["trace-stats", "--trace", str(outdir / "trace.csv"),
                     "--out", str(outdir / "stats.json")]) == 0
        printed.append(capsys.readouterr().out)
        return printed, {p.name: p.read_bytes() for p in sorted(outdir.iterdir())}

    first_printed, first_files = run_all("first")
    second_printed, second_files = run_all("second")
    assert first_printed == second_printed
    assert first_files == second_files
    assert len(first_files) == 8
