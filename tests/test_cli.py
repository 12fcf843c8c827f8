"""End-to-end checks for the command line entry point.

Each test drives ``main(argv)`` in process with small JSON configs written
to ``tmp_path``, then asserts on the exit code, the printed report, and any
files the command wrote. The final test reruns every subcommand with the
same seed and requires byte-identical output.
"""

import json

import numpy as np
import pytest

from moesim.balance import RoutingTrace
from moesim.cli import main
from moesim.configio import load_cluster, load_model, load_plan
from moesim.search import SimulationFeatures, training_report

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
