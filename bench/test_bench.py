"""Self-tests for the benchmark: python3 -m pytest -q bench"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import stats  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, OpResult, execute, problems_of  # noqa: E402


def span(name, start, end, parent=None):
    return (name, start, end, parent, 0)


def test_self_time_subtracts_the_union_of_direct_children():
    spans = [
        span("root", 0.0, 10.0),
        span("a", 1.0, 4.0, 0),
        span("b", 3.0, 5.0, 0),  # overlaps a: union 1..5
        span("a.child", 1.5, 2.0, 1),  # grandchild: not subtracted from root
        span("c", 9.0, 12.0, 0),  # clipped to the parent's end
    ]
    assert stats.self_times(spans) == pytest.approx([10.0 - 4.0 - 1.0, 3.0 - 0.5, 2.0, 0.5, 3.0])


def test_tail_percentile_keeps_ten_samples_above():
    samples = list(range(1, 41))  # 40 samples
    assert stats.tail_percentile(samples) == (75.0, 30, 10)
    assert stats.tail_percentile(list(range(11))) == (100.0 / 11, 0, 10)
    # Fewer than 11 samples: the maximum, so a slow op still moves it.
    assert stats.tail_percentile([5.0, 1.0, 3.0]) == (100.0, 5.0, 0)


def _run_op(wl, opdir):
    opdir.mkdir()
    op = wl.warmup(opdir)
    res, _ = execute(op)
    return op, res


def test_perturbed_balance_output_counts_as_a_failure(tmp_path):
    wl = WORKLOADS["balance_replay"]
    op, res = _run_op(wl, tmp_path / "op")
    reference = json.loads((BENCH / "reference.json").read_text())[wl.name]["warmup"]
    assert problems_of(wl, op, res, reference) == []

    out = json.loads(res.files[op.outputs[0]])
    out["managed_cv"][0] += 1e-9
    bad = OpResult(res.codes, res.stdout, {op.outputs[0]: json.dumps(out).encode()})
    assert any("mean CV" in p for p in problems_of(wl, op, bad, None))

    flipped = OpResult(res.codes, [res.stdout[0].replace("replans", "replan ")], res.files)
    assert problems_of(wl, op, flipped, reference)

    failed_exit = OpResult([1], res.stdout, res.files)
    assert problems_of(wl, op, failed_exit, None) == ["exit codes [1], expected 0"]


def test_perturbed_training_report_counts_as_a_failure():
    rep = {"step_time": 2.0, "tps": 64 * 8192 / 2.0, "mfu": 0.4, "bubble_ratio": 0.3,
           "comm_overlap_rate": 0.7, "exposed_comm_time": 0.1}
    assert workloads._training_problems(rep, 64, 8192, "x") == []
    for key, value in (("tps", rep["tps"] * (1 + 1e-12)), ("bubble_ratio", 1.0), ("mfu", float("nan"))):
        assert workloads._training_problems(dict(rep, **{key: value}), 64, 8192, "x"), key


@pytest.mark.parametrize("seed", [3, 17, 2024, 99991])
def test_generated_plans_pass_validation_where_expected(tmp_path, seed):
    from moesim import enumerate_design_space, load_cluster, load_model, load_plan, load_space, validate_plan

    sim, search = WORKLOADS["simulate_sweep"], WORKLOADS["design_search"]
    for i in range(2 * len(sim.CYCLE)):
        opdir = tmp_path / f"sim{i}"
        opdir.mkdir()
        argv = sim.build(seed, i, opdir).calls[0]
        paths = dict(zip(argv[1::2], argv[2::2]))
        hw = load_cluster(paths["--cluster"])
        check = validate_plan(load_plan(paths["--plan"]), load_model(paths["--model"]), hw)
        assert check.ok, check.errors
    for i in range(2 * len(search.CYCLE)):
        opdir = tmp_path / f"search{i}"
        opdir.mkdir()
        op = search.build(seed, i, opdir)
        paths = dict(zip(op.calls[0][1::2], op.calls[0][2::2]))
        hw, plan = load_cluster(paths["--cluster"]), load_plan(paths["--plan"])
        verdicts = [
            (cfg.num_layers == op.expect["rejected_layers"], validate_plan(plan, cfg, hw).ok)
            for cfg in enumerate_design_space(load_space(paths["--space"]))
        ]
        assert all(rejected != ok for rejected, ok in verdicts)
        assert sum(r for r, _ in verdicts) == op.expect["rejected"]
        assert sum(ok for _, ok in verdicts) == op.expect["feasible"]


def test_inputs_are_seeded_and_distinct_within_a_run(tmp_path):
    for wl in WORKLOADS.values():
        seen = set()
        for i in range(2 * len(wl.CYCLE)):
            texts = []
            for run in ("a", "b"):
                opdir = tmp_path / f"{wl.name}-{run}-{i}"
                opdir.mkdir()
                calls = wl.build(5, i, opdir).calls
                argv = tuple(a.replace(str(opdir), "") for call in calls for a in call)
                texts.append((argv, tuple(sorted(f.read_text() for f in opdir.iterdir()))))
            assert texts[0] == texts[1]
            seen.add(texts[0])
        assert len(seen) == 2 * len(wl.CYCLE), wl.name


def test_tracer_records_spans_and_restores_the_program(tmp_path):
    import moesim.balance
    import moesim.search

    original = moesim.search.assign_chunks
    load = moesim.balance.RoutingTrace.__dict__["load"]
    wl = WORKLOADS["trace_roundtrip"]
    opdir = tmp_path / "op"
    opdir.mkdir()
    tracer = Tracer()
    res, _ = execute(wl.warmup(opdir), tracer, 0)
    assert res.error is None and res.codes == [0, 0]
    assert moesim.search.assign_chunks is original
    assert moesim.balance.RoutingTrace.__dict__["load"] is load
    names = {s[0] for s in tracer.spans}
    assert {"cli.main", "balance.replay", "balance.trace_save", "balance.trace_load"} <= names
    assert all(s[3] is None for s in tracer.spans if s[0] == "cli.main")
    layers = tracer.layer_metrics(1)
    assert layers["balance.generate_trace_calls"] == 2  # replay, then again for --save-trace
    assert layers["balance.trace_rows"] == 2 * 20 * 256  # saved, then loaded


def test_each_op_runs_in_a_process_of_its_own(tmp_path):
    import os

    import moesim.balance
    import run

    def leave_state_behind():
        moesim.balance.left_by_an_earlier_op = True
        return os.getpid()

    assert run.in_child(leave_state_behind) != os.getpid()
    assert not hasattr(moesim.balance, "left_by_an_earlier_op")

    wl = WORKLOADS["trace_roundtrip"]
    tracer = Tracer()
    for i in range(2):
        opdir = tmp_path / f"op{i}"
        opdir.mkdir()
        op = wl.warmup(opdir)
        out = run.in_child(lambda: run.run_op(wl, op, None, i, traced=True))
        assert out["problems"] == [] and out["seconds"] > 0 and out["rss_mb"] > 0
        tracer.absorb(*out["trace"])
    assert all(p is None or tracer.spans[p][4] == op_id for _, _, _, p, op_id in tracer.spans)
    assert tracer.layer_metrics(2)["balance.generate_trace_calls"] == 2
