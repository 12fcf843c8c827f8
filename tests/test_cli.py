"""End-to-end checks for the command line entry point.

Each test drives ``main(argv)`` in process with small JSON configs written
to ``tmp_path``, then asserts on the exit code, the printed report, and any
files the command wrote. The cold-start checks also run it in a fresh
interpreter, to see which modules a command loads. The final test reruns
every subcommand with the same seed and requires byte-identical output.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from moesim.balance import RoutingTrace
from moesim.cli import main
from moesim.configio import load_cluster, load_model, load_plan
from moesim.search import SimulationFeatures, training_report

ROOT = Path(__file__).resolve().parents[1]

MODEL = {
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

CLUSTER = {
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

PLAN = {
    "tp": 1,
    "pp": 2,
    "vpp": 1,
    "ep": 2,
    "cp": 1,
    "micro_batch_size": 1,
    "global_batch_size": 16,
}

SPACE = {
    "base": MODEL,
    "ranges": {"num_layers": [3, 4], "num_routed_experts": [4, 5]},
}

TRACE_SPEC = {
    "num_experts": 8,
    "tokens_per_step": 256,
    "steps": 30,
    "top_k": 2,
    "concentration": 0.3,
    "autocorr": 0.9,
}


def write_configs(tmp_path):
    paths = {}
    for name, payload in (
        ("model", MODEL),
        ("cluster", CLUSTER),
        ("plan", PLAN),
        ("space", SPACE),
        ("spec", TRACE_SPEC),
    ):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(payload))
        paths[name] = str(path)
    return paths


def test_validate_reports_resolved_data_parallel(tmp_path, capsys):
    paths = write_configs(tmp_path)
    rc = main(
        ["validate", "--model", paths["model"], "--cluster", paths["cluster"], "--plan", paths["plan"]]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert out.startswith("plan ok:")
    assert "dp=4" in out
    assert "world=8" in out
    assert "micro_batch_size=1" in out


def test_validate_rejects_bad_plan(tmp_path, capsys):
    paths = write_configs(tmp_path)
    bad = tmp_path / "bad_plan.json"
    bad.write_text(json.dumps({**PLAN, "tp": 3}))
    rc = main(
        ["validate", "--model", paths["model"], "--cluster", paths["cluster"], "--plan", str(bad)]
    )
    out = capsys.readouterr().out
    assert rc == 1
    assert "invalid:" in out
    assert "plan ok" not in out


def test_missing_config_exits_two(tmp_path, capsys):
    paths = write_configs(tmp_path)
    rc = main(
        [
            "validate",
            "--model",
            str(tmp_path / "nope.json"),
            "--cluster",
            paths["cluster"],
            "--plan",
            paths["plan"],
        ]
    )
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error:")


def test_unknown_field_is_named_in_the_error(tmp_path, capsys):
    paths = write_configs(tmp_path)
    typo = dict(MODEL)
    typo["hiden_size"] = typo.pop("hidden_size")
    bad = tmp_path / "typo.json"
    bad.write_text(json.dumps(typo))
    rc = main(
        ["validate", "--model", str(bad), "--cluster", paths["cluster"], "--plan", paths["plan"]]
    )
    err = capsys.readouterr().err
    assert rc == 1
    assert "hiden_size" in err


def test_simulate_training_prints_the_report(tmp_path, capsys):
    paths = write_configs(tmp_path)
    out_file = tmp_path / "report.json"
    rc = main(
        [
            "simulate",
            "--model",
            paths["model"],
            "--cluster",
            paths["cluster"],
            "--plan",
            paths["plan"],
            "--out",
            str(out_file),
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0

    cfg = load_model(paths["model"])
    hw = load_cluster(paths["cluster"])
    plan = load_plan(paths["plan"])
    report = training_report(cfg, plan, hw, SimulationFeatures(dispatch_mechanism="hierarchical"))
    assert out.startswith(f"model {report.model}\n")
    assert f"mfu {report.mfu:.4f}" in out
    assert f"bubble {report.bubble_ratio:.4f}" in out
    assert "tokens/s" in out
    assert "memory" in out

    data = json.loads(out_file.read_text())
    assert data["mfu"] == report.mfu
    assert data["step_time"] == report.step_time
    assert data["memory"]["feasible"] is True


def readme_block(command):
    """The output lines of the README example that starts with `command`."""
    text = (ROOT / "README.md").read_text()
    block = next(b for b in text.split("```")[1::2] if b.lstrip("\n").startswith(command))
    lines = block.strip("\n").split("\n")
    start = next(i for i, line in enumerate(lines) if not line.endswith("\\")) + 1
    return "".join(line + "\n" for line in lines[start:])


def test_readme_simulate_block_is_the_reference_output(capsys):
    configs = ROOT / "configs"
    argv = ["simulate", "--model", str(configs / "model_reference.json"),
            "--cluster", str(configs / "cluster_6144.json"), "--plan", str(configs / "plan_reference.json")]
    assert main(argv) == 0
    expected = readme_block("$ moesim simulate")
    assert "step 28.809454 s\n" in expected and "mfu 0.3773\n" in expected
    assert capsys.readouterr().out == expected


# Runs `moesim.cli.main` on each argv in a fresh interpreter with `src/` on
# the path. Prints one JSON object: each call's exit code and stdout, and
# which of the watched modules were loaded that were not loaded before
# `moesim.cli` was imported (a .pth file may load modules at start-up).
COLD_START = r"""
import contextlib, io, json, sys
baseline = set(sys.modules)
import moesim.cli
runs = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = moesim.cli.main(argv)
    runs.append([code, out.getvalue()])
watched = ("numpy", "concurrent.futures", "multiprocessing")
print(json.dumps({"runs": runs, "loaded": [m for m in watched if m in sys.modules and m not in baseline]}))
"""


def cold_start(argvs):
    pythonpath = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", COLD_START, json.dumps(argvs)], cwd=ROOT, capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": pythonpath}, check=True)
    return json.loads(done.stdout)


def test_simulate_and_serial_search_start_without_numpy_or_a_process_pool(tmp_path, capsys):
    """Only balance, trace-stats and search --workers N > 1 need numpy or a
    process pool; a fresh simulate or serial search loads neither."""
    paths = write_configs(tmp_path)
    configs = ROOT / "configs"
    simulate = ["simulate", "--model", str(configs / "model_reference.json"),
                "--cluster", str(configs / "cluster_6144.json"), "--plan", str(configs / "plan_reference.json")]
    search = ["search", "--cluster", paths["cluster"], "--plan", paths["plan"], "--space", paths["space"],
              "--workers", "1"]
    cold = cold_start([simulate, search])
    assert cold["loaded"] == []
    assert cold["runs"][0] == [0, readme_block("$ moesim simulate")]
    assert main(search) == 0
    assert cold["runs"][1] == [0, capsys.readouterr().out]


def test_balance_loads_numpy_on_first_use(tmp_path, capsys):
    paths = write_configs(tmp_path)
    balance = ["balance", "--spec", paths["spec"], "--devices", "4", "--seed", "3"]
    cold = cold_start([balance])
    assert "numpy" in cold["loaded"]
    assert main(balance) == 0
    assert cold["runs"] == [[0, capsys.readouterr().out]]
    assert "cv reduction" in cold["runs"][0][1]


def test_readme_python_block_runs(monkeypatch, capsys):
    text = (ROOT / "README.md").read_text()
    block = next(b for b in text.split("```")[1::2] if b.startswith("python\n"))
    monkeypatch.chdir(ROOT)
    exec(block[len("python\n"):], {})
    assert len(capsys.readouterr().out.split()) == 3


def test_simulate_inference_mode(tmp_path, capsys):
    paths = write_configs(tmp_path)
    rc = main(
        [
            "simulate",
            "--model",
            paths["model"],
            "--cluster",
            paths["cluster"],
            "--mode",
            "inference",
            "--batch",
            "16",
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "decode step" in out
    assert "mfu" in out


def test_simulate_training_without_plan_is_a_usage_error(tmp_path, capsys):
    paths = write_configs(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--model", paths["model"], "--cluster", paths["cluster"]])
    assert exc.value.code == 2
    assert "--plan" in capsys.readouterr().err


def test_search_ranks_candidates_and_writes_json_plus_csv(tmp_path, capsys):
    paths = write_configs(tmp_path)
    out_file = tmp_path / "results.json"
    rc = main(
        [
            "search",
            "--cluster",
            paths["cluster"],
            "--plan",
            paths["plan"],
            "--space",
            paths["space"],
            "--out",
            str(out_file),
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "  1. " in out
    assert "score" in out
    assert "skipped" in out

    data = json.loads(out_file.read_text())
    assert len(data["ranked"]) == 2
    assert len(data["skipped"]) == 2
    assert data["ranked"][0]["score"] == 1.0

    csv_lines = (tmp_path / "results.csv").read_text().splitlines()
    assert csv_lines[0] == "# moesim-csv v1"
    assert csv_lines[1] == "rank,model,score,train_tps,train_mfu,train_step_time,inference_tps,inference_mfu"
    assert len(csv_lines) == 4
    assert csv_lines[2].startswith("1,")


def test_search_with_two_workers_writes_the_serial_bytes(tmp_path, capsys):
    """The process pool is imported only for --workers above one; its
    report must not differ from the in-process one by a byte."""
    paths = write_configs(tmp_path)
    written = []
    for workers in ("1", "2"):
        out_file = tmp_path / f"workers{workers}.json"
        argv = ["search", "--cluster", paths["cluster"], "--plan", paths["plan"], "--space", paths["space"],
                "--workers", workers, "--out", str(out_file)]
        assert main(argv) == 0
        csv_file = tmp_path / f"workers{workers}.csv"
        written.append((capsys.readouterr().out, out_file.read_bytes(), csv_file.read_bytes()))
    assert written[0] == written[1]
    assert len(json.loads(written[0][1])["ranked"]) == 2


def test_search_with_no_feasible_candidate_exits_one(tmp_path, capsys):
    paths = write_configs(tmp_path)
    wide = tmp_path / "plan_ep8.json"
    wide.write_text(json.dumps({**PLAN, "ep": 8}))
    rc = main(
        [
            "search",
            "--cluster",
            paths["cluster"],
            "--plan",
            str(wide),
            "--space",
            paths["space"],
        ]
    )
    out = capsys.readouterr().out
    assert rc == 1
    assert "no feasible candidate" in out
    assert out.count("skipped") == 4


def test_search_ranks_the_candidates_the_cluster_can_price(tmp_path, capsys):
    """A 1-byte candidate on the bf16-only cluster is skipped, not an error
    for the whole search."""
    paths = write_configs(tmp_path)
    Path(paths["space"]).write_text(json.dumps({"base": MODEL, "ranges": {"dtype_bytes": [1, 2]}}))
    rc = main(["search", "--cluster", paths["cluster"], "--plan", paths["plan"], "--space", paths["space"]])
    out = capsys.readouterr().out.splitlines()
    assert rc == 0
    assert len(out) == 2
    assert out[0].startswith("  1. ")
    assert out[1].startswith("skipped ")
    assert out[1].endswith(": UnpricedDtypeError: peak_flops lists no 'fp8' rate for the model's 1-byte dtype")


def test_balance_saves_trace_and_report(tmp_path, capsys):
    paths = write_configs(tmp_path)
    trace_file = tmp_path / "trace.csv"
    out_file = tmp_path / "balance.json"
    rc = main(
        [
            "balance",
            "--spec",
            paths["spec"],
            "--devices",
            "4",
            "--seed",
            "3",
            "--save-trace",
            str(trace_file),
            "--out",
            str(out_file),
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "cv reduction" in out
    assert "replans" in out

    trace = RoutingTrace.load(str(trace_file))
    assert trace.steps == 30
    assert trace.num_experts == 8
    assert trace.top_k == 2

    data = json.loads(out_file.read_text())
    assert set(data) >= {"static_mean_cv", "managed_mean_cv", "mean_cv_reduction", "replan_steps"}
    assert data["static_mean_cv"] >= data["managed_mean_cv"]


def test_trace_stats_reads_a_saved_trace(tmp_path, capsys):
    paths = write_configs(tmp_path)
    trace_file = tmp_path / "trace.csv"
    main(
        [
            "balance",
            "--spec",
            paths["spec"],
            "--devices",
            "4",
            "--save-trace",
            str(trace_file),
        ]
    )
    capsys.readouterr()
    rc = main(["trace-stats", "--trace", str(trace_file)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "steps 30 tokens/step 256 top_k 2" in out
    assert "aux loss" in out
    assert "hottest expert share" in out


def test_trace_stats_rejects_out_of_range_expert_id(tmp_path, capsys):
    trace_file = tmp_path / "trace.csv"
    experts = np.array([[[0, 15], [3, 4]]], dtype=np.int64)
    RoutingTrace(16, experts, np.full(experts.shape, 0.5), np.zeros((1, 2), dtype=np.int64)).save(trace_file)
    text = trace_file.read_text()
    assert text.count(",0 15,") == 1
    trace_file.write_text(text.replace(",0 15,", ",0 16,"))
    rc = main(["trace-stats", "--trace", str(trace_file)])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert "expert id 16" in captured.err


def assert_rejected(capsys, argv, *fragments):
    """The command exits 1 with one `error:` line naming each fragment and
    prints nothing to stdout."""
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert captured.err.count("\n") == 1
    for fragment in fragments:
        assert fragment in captured.err


def write_trace(path, meta, rows):
    path.write_text(f"# moesim-trace v1\n{meta}\nstep,token,task,experts,scores\r\n" + "".join(r + "\r\n" for r in rows))
    return str(path)


def test_trace_stats_rejects_an_expert_repeated_within_a_token(tmp_path, capsys):
    trace_file = write_trace(tmp_path / "trace.csv", "# num_experts=4", ["0,0,0,2 3,0.5 0.5", "0,1,0,1 1,0.5 0.5"])
    assert_rejected(capsys, ["trace-stats", "--trace", trace_file], f"{trace_file}: step 0 token 1:", "twice")


@pytest.mark.parametrize("value", ["abc", "0", "-3", "", "4.0", " 4"])
def test_trace_stats_names_the_file_on_a_bad_num_experts_line(tmp_path, capsys, value):
    trace_file = write_trace(tmp_path / "trace.csv", f"# num_experts={value}", ["0,0,0,0 1,0.5 0.5"])
    assert_rejected(capsys, ["trace-stats", "--trace", trace_file], f"{trace_file}: num_experts", repr(value))


@pytest.mark.parametrize(
    "meta, row, fragment",
    [
        ("# num_experts=4", f"0,0,{2**40},0 1,0.5 0.5", f"4 experts and task ids up to {2**40} need"),
        ("# num_experts=100000000", "0,0,0,0 1,0.5 0.5", "need a 100000000 x 100000000 coactivation"),
    ],
    ids=["task_id", "num_experts"],
)
def test_trace_stats_names_the_file_when_a_table_is_over_the_cell_limit(tmp_path, capsys, meta, row, fragment):
    """With --out, task id 2**40 would need a (2**40 + 1) x 4 share table
    and 1e8 experts a 1e16-cell coactivation table: both are refused before
    anything is allocated, and no report is written."""
    trace_file = write_trace(tmp_path / "trace.csv", meta, [row])
    out_file = tmp_path / "stats.json"
    argv = ["trace-stats", "--trace", trace_file, "--out", str(out_file)]
    assert_rejected(capsys, argv, f"error: {trace_file}: ", fragment, "cell limit")
    assert not out_file.exists()


def test_trace_stats_without_out_builds_no_statistics_table(tmp_path, capsys):
    """stdout needs only 1 / num_experts from the statistics, so task id
    2**40 is no reason to refuse a run that writes no report."""
    trace_file = write_trace(tmp_path / "trace.csv", "# num_experts=4", [f"0,0,{2**40},0 1,0.5 0.5"])
    assert main(["trace-stats", "--trace", trace_file]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out == (
        "steps 1 tokens/step 1 top_k 2\n"
        "experts 4\n"
        "aux loss 2.000000\n"
        "hottest expert share 0.5000 (uniform 0.2500)\n"
    )


def test_trace_stats_without_out_refuses_an_expert_count_table_over_the_cell_limit(tmp_path, capsys):
    trace_file = write_trace(tmp_path / "trace.csv", "# num_experts=100000000", ["0,0,0,0 1,0.5 0.5"])
    fragment = "1 steps of 100000000 experts need a 1 x 100000000 expert count table"
    assert_rejected(capsys, ["trace-stats", "--trace", trace_file], f"error: {trace_file}: ", fragment, "cell limit")


REASON = "tp*cp=3 does not divide micro_batch_size*seq_len=128"


@pytest.mark.parametrize(
    "command, out, err",
    [("validate", f"invalid: {REASON}\n", ""), ("simulate", "", f"error: {REASON}\n")],
    ids=["validate", "simulate"],
)
def test_plan_splitting_micro_batch_tokens_unevenly_exits_one(tmp_path, capsys, command, out, err):
    """cp = 3 would leave 42.67 of a micro batch's 128 tokens on each device."""
    paths = write_configs(tmp_path)
    cluster = tmp_path / "cluster12.json"
    cluster.write_text(json.dumps({**CLUSTER, "devices_per_node": 6}))
    plan = tmp_path / "plan_cp3.json"
    plan.write_text(json.dumps({**PLAN, "cp": 3}))
    rc = main([command, "--model", paths["model"], "--cluster", str(cluster), "--plan", str(plan)])
    captured = capsys.readouterr()
    assert (rc, captured.out, captured.err) == (1, out, err)


@pytest.mark.parametrize(
    "flag, value, name",
    [
        ("--interval", "0", "replan_interval"),
        ("--devices", "0", "num_devices"),
        ("--devices", "-8", "num_devices"),
        ("--window", "0", "history_window"),
        ("--window", "-2", "history_window"),
    ],
)
def test_balance_rejects_counts_below_one(tmp_path, capsys, flag, value, name):
    paths = write_configs(tmp_path)
    out_file = tmp_path / "balance.json"
    argv = ["balance", "--spec", paths["spec"], flag, value, "--out", str(out_file)]
    assert_rejected(capsys, argv, f"{name} must be >= 1, got {value}")
    assert not out_file.exists()


@pytest.mark.parametrize(
    "path, literal",
    [
        ("hbm_bandwidth", "NaN"),
        ("inter_node_latency", "-Infinity"),
        ("hbm_capacity", "1e999"),
        ("peak_flops.bf16", "Infinity"),
    ],
)
def test_non_finite_cluster_value_is_named_in_the_error(tmp_path, capsys, path, literal):
    paths = write_configs(tmp_path)
    cluster = json.loads(json.dumps(CLUSTER))
    owner = cluster
    *parents, key = path.split(".")
    for name in parents:
        owner = owner[name]
    owner[key] = "PLACEHOLDER"
    bad = tmp_path / "cluster_bad.json"
    bad.write_text(json.dumps(cluster).replace('"PLACEHOLDER"', literal))
    rc = main(["simulate", "--model", paths["model"], "--cluster", str(bad), "--plan", paths["plan"]])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert f"cluster.{path} must be a finite number" in captured.err


@pytest.mark.parametrize(
    "config, field, value",
    [
        ("plan", "tp", 8.0),
        ("plan", "global_batch_size", 6144.0),
        ("model", "num_layers", 61.5),
        ("cluster", "num_nodes", 768.0),
        ("cluster", "peak_flops", [1, 2]),
        ("model", "mla", 5),
        ("plan", "tp", "8"),
        ("cluster", "name", 5),
    ],
)
def test_value_of_the_wrong_json_type_is_named_in_the_error(tmp_path, capsys, config, field, value):
    paths = {
        "model": ROOT / "configs" / "model_reference.json",
        "cluster": ROOT / "configs" / "cluster_6144.json",
        "plan": ROOT / "configs" / "plan_reference.json",
    }
    data = json.loads(paths[config].read_text())
    data[field] = value
    paths[config] = tmp_path / f"{config}.json"
    paths[config].write_text(json.dumps(data))
    rc = main(["validate", "--model", str(paths["model"]), "--cluster", str(paths["cluster"]),
               "--plan", str(paths["plan"])])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err.startswith(f"error: {config}.{field} must be ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "path, value, message",
    [
        ("cluster.peak_flops.bf16", True, "must be a number, got a boolean"),
        ("cluster.peak_flops.bf16", "x", "must be a number, got a string"),
        ("space.ranges.num_layers.0", 56.5, "must be an integer, got 56.5"),
        ("space.ranges.hidden_size.1", True, "must be a number, got a boolean"),
    ],
)
def test_nested_value_of_the_wrong_json_type_is_named_in_the_error(tmp_path, capsys, path, value, message):
    """Values inside a typed object (a peak FLOP rate) or a design space's
    candidate list are checked against the field they fill."""
    paths = {
        "cluster": ROOT / "configs" / "cluster_6144.json",
        "plan": ROOT / "configs" / "plan_reference.json",
        "space": ROOT / "configs" / "space_small.json",
    }
    config, *keys, last = path.split(".")
    data = json.loads(paths[config].read_text())
    owner = data
    for key in keys:
        owner = owner[key]
    owner[int(last) if isinstance(owner, list) else last] = value
    paths[config] = tmp_path / f"{config}.json"
    paths[config].write_text(json.dumps(data))
    rc = main(["search", "--cluster", str(paths["cluster"]), "--plan", str(paths["plan"]),
               "--space", str(paths["space"])])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err == f"error: {path} {message}\n"


@pytest.mark.parametrize("batch", ["-4096", "0"])
def test_inference_batch_below_one_is_refused(tmp_path, capsys, batch):
    """A decode batch below one has no step time; it is refused, not
    printed as a negative step or zero tokens per second."""
    paths = write_configs(tmp_path)
    rc = main(["simulate", "--model", paths["model"], "--cluster", paths["cluster"], "--mode", "inference",
               "--batch", batch])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err == f"error: batch must be >= 1, got {batch}\n"


@pytest.mark.parametrize(
    "flag, value", [("--top", "-1"), ("--top", "0"), ("--workers", "0"), ("--workers", "-2")]
)
def test_search_top_and_workers_below_one_are_refused(capsys, flag, value):
    """--top below one would drop feasible candidates (or all of them) and
    --workers below one would silently run serially."""
    rc = main(["search", "--cluster", str(ROOT / "configs" / "cluster_6144.json"),
               "--plan", str(ROOT / "configs" / "plan_reference.json"),
               "--space", str(ROOT / "configs" / "space_small.json"), flag, value])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err == f"error: {flag[2:]} must be >= 1, got {value}\n"


@pytest.mark.parametrize(
    "command",
    [
        ["simulate", "--plan", "{plan}"],
        ["simulate", "--mode", "inference"],
        ["search", "--plan", "{plan}", "--space", "{space}"],
    ],
)
@pytest.mark.parametrize(
    "model, cluster, fragment",
    [
        ({"dtype_bytes": 3}, {}, "dtype_bytes must be one of 1, 2, 4, got 3"),
        ({}, {"peak_flops": {"fp8": 5e12}}, "peak_flops lists no 'bf16' or 'fp16' rate for the model's 2-byte dtype"),
        ({"dtype_bytes": 4}, {}, "peak_flops lists no 'fp32' rate for the model's 4-byte dtype"),
    ],
)
def test_a_dtype_the_cluster_cannot_price_exits_one(tmp_path, capsys, command, model, cluster, fragment):
    """Once a KeyError traceback from the peak rate lookup."""
    paths = write_configs(tmp_path)
    for name, payload in (("model", {**MODEL, **model}), ("cluster", {**CLUSTER, **cluster})):
        Path(paths[name]).write_text(json.dumps(payload))
    Path(paths["space"]).write_text(json.dumps({**SPACE, "base": {**MODEL, **model}}))
    argv = [command[0], "--cluster", paths["cluster"]] + [arg.format(**paths) for arg in command[1:]]
    if command[0] == "simulate":
        argv += ["--model", paths["model"]]
    assert_rejected(capsys, argv, fragment)


def test_every_command_is_byte_identical_across_reruns(tmp_path, capsys):
    paths = write_configs(tmp_path)

    def run_all(tag):
        outdir = tmp_path / tag
        outdir.mkdir()
        argvs = [
            [
                "validate",
                "--model", paths["model"],
                "--cluster", paths["cluster"],
                "--plan", paths["plan"],
                "--out", str(outdir / "validate.json"),
            ],
            [
                "simulate",
                "--model", paths["model"],
                "--cluster", paths["cluster"],
                "--plan", paths["plan"],
                "--out", str(outdir / "train.json"),
            ],
            [
                "simulate",
                "--model", paths["model"],
                "--cluster", paths["cluster"],
                "--mode", "inference",
                "--batch", "16",
                "--out", str(outdir / "decode.json"),
            ],
            [
                "search",
                "--cluster", paths["cluster"],
                "--plan", paths["plan"],
                "--space", paths["space"],
                "--out", str(outdir / "results.json"),
            ],
            [
                "balance",
                "--spec", paths["spec"],
                "--devices", "4",
                "--seed", "7",
                "--save-trace", str(outdir / "trace.csv"),
                "--out", str(outdir / "balance.json"),
            ],
        ]
        printed = []
        for argv in argvs:
            assert main(argv) == 0
            printed.append(capsys.readouterr().out)
        assert main(["trace-stats", "--trace", str(outdir / "trace.csv"), "--out", str(outdir / "stats.json")]) == 0
        printed.append(capsys.readouterr().out)
        files = {p.name: p.read_bytes() for p in sorted(outdir.iterdir())}
        return printed, files

    first_printed, first_files = run_all("first")
    second_printed, second_files = run_all("second")
    assert first_printed == second_printed
    assert first_files == second_files
    assert set(first_files) == {
        "validate.json",
        "train.json",
        "decode.json",
        "results.json",
        "results.csv",
        "trace.csv",
        "balance.json",
        "stats.json",
    }
