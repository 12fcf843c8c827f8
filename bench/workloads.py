"""Seeded inputs, operations and output checks for the four workloads.

An operation is one or more `moesim.cli.main(argv)` calls on input files
the benchmark writes from (workload, seed, op index). Inputs come in pairs
that share every property that sets the op's cost (micro-batch count, host
dispatch, candidate count, trace shape) and differ only in a salt that
changes no cost, so that the traced run can time a traced op against an
untraced twin. No two ops of a run share identical inputs, so a memo kept
across calls cannot serve one op from an earlier one. The cost-setting
properties follow a fixed cycle and the seed picks the rest, which keeps
the op mix, and with it the medians, the same from seed to seed.

Every op is checked: exit codes, invariants that hold on any seed, and,
for the fixed warm-up op and the default seed, the simulated fields and
output bytes recorded in reference.json.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import math
import random
import traceback
from pathlib import Path
from time import perf_counter

DEFAULT_SEED = 0

REF_MODEL = {
    "num_layers": 61,
    "hidden_size": 7680,
    "num_attention_heads": 128,
    "num_routed_experts": 256,
    "top_k": 8,
    "expert_intermediate_size": 2048,
    "num_shared_experts": 1,
    "num_dense_layers": 3,
    "dense_ffn_intermediate_size": 18432,
    "mla": {"q_rank": 1536, "kv_rank": 512, "head_dim": 128, "rope_dim": 64},
    "num_mtp_layers": 1,
    "vocab_size": 153600,
    "seq_len": 8192,
    "dtype_bytes": 2,
}
REF_CLUSTER = {
    "name": "ascend-superpod-6144",
    "peak_flops": {"bf16": 2.8e14, "fp16": 2.8e14, "fp8": 5.6e14, "fp32": 1.4e14},
    "hbm_capacity": 64e9,
    "hbm_bandwidth": 1.6e12,
    "intra_node_bandwidth": 1.68e11,
    "intra_node_latency": 2e-06,
    "inter_node_bandwidth": 2.5e10,
    "inter_node_latency": 6e-06,
    "devices_per_node": 8,
    "num_nodes": 768,
    "matmul_efficiency": 0.55,
    "host_dispatch_time": 0.0,
    "host_to_device_bandwidth": 6.4e10,
}
REF_PLAN = {
    "tp": 8,
    "pp": 16,
    "vpp": 2,
    "ep": 4,
    "cp": 1,
    "micro_batch_size": 2,
    "global_batch_size": 6144,
}
# dp * micro_batch_size of the reference plan on 6144 devices (dp = 48).
SEQS_PER_MICRO_BATCH = 96

# The `simulate` output the README documents for the reference configs.
README_SIMULATE = (
    "model L61d3-h7680-a128-E256x2048-K8s1-mtp1\n"
    "step 28.809454 s\n"
    "tokens/s 1.747053e+06\n"
    "mfu 0.3773\n"
    "bubble 0.3122\n"
    "comm overlap 0.7118\n"
    "memory 56.46 GB of 64.00 GB, plan [permute]\n"
)


@dataclasses.dataclass
class Op:
    """One benchmark operation: CLI calls in order, each expected to exit 0."""

    calls: list  # argv lists for moesim.cli.main
    outputs: list  # output files the calls write, in digest order
    expect: dict  # what the generator knows about the right answer


@dataclasses.dataclass
class OpResult:
    codes: list
    stdout: list
    files: dict  # output path -> bytes
    error: str | None = None

    def digest(self) -> str:
        h = hashlib.sha256()
        for out in self.stdout:
            h.update(out.encode())
            h.update(b"\0")
        for name in sorted(self.files):
            h.update(Path(name).name.encode())
            h.update(b"\0")
            h.update(self.files[name])
            h.update(b"\0")
        return h.hexdigest()


def _rng(workload: str, seed: int, pair: int) -> random.Random:
    # String seeds hash with SHA-512, so inputs do not depend on PYTHONHASHSEED.
    return random.Random(f"{workload}:{seed}:{pair}")


def _write_json(path: Path, data) -> str:
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    return str(path)


def _sha(data) -> str:
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()


def _load_out(res: OpResult, op: Op, k: int):
    return json.loads(res.files[op.outputs[k]])


def _finite(*values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def _training_problems(rep: dict, gbs: int, seq_len: int, where: str) -> list:
    p = []
    keys = ("step_time", "tps", "mfu", "bubble_ratio", "comm_overlap_rate", "exposed_comm_time")
    if not _finite(*(rep.get(k) for k in keys)):
        return [f"{where}: non-finite training field"]
    if not rep["step_time"] > 0:
        p.append(f"{where}: step_time {rep['step_time']} <= 0")
    if not 0 <= rep["bubble_ratio"] < 1:
        p.append(f"{where}: bubble {rep['bubble_ratio']} outside [0, 1)")
    if not 0 <= rep["comm_overlap_rate"] <= 1:
        p.append(f"{where}: overlap {rep['comm_overlap_rate']} outside [0, 1]")
    if not 0 < rep["mfu"] < 1:
        p.append(f"{where}: mfu {rep['mfu']} outside (0, 1)")
    if rep["exposed_comm_time"] < 0:
        p.append(f"{where}: negative exposed comm")
    if rep["tps"] != gbs * seq_len / rep["step_time"]:
        p.append(f"{where}: tps != global_batch * seq_len / step_time")
    mem = rep.get("memory")
    if mem is not None:
        if not mem["feasible"] or mem["static_bytes"] + mem["activation_bytes"] > mem["capacity_bytes"]:
            p.append(f"{where}: memory plan does not fit")
    return p


class SimulateSweep:
    name = "simulate_sweep"
    # Cost-setting properties per cycle position: micro-batch count (a
    # multiple of pp = 16), host dispatch on or off, dispatch mechanism,
    # --no-overlap. Host dispatch and the hierarchical mechanism add work,
    # so they go with the smaller counts; that keeps op costs close
    # together and the median steady.
    CYCLE = (
        (64, True, "alltoall", False),
        (256, False, "allgather", False),
        (112, True, "hierarchical", False),
        (176, False, "hierarchical", True),
    )

    def warmup(self, opdir: Path) -> Op:
        return self._op(opdir, REF_MODEL, REF_CLUSTER, REF_PLAN, "hierarchical", False, readme=True)

    def build(self, seed: int, index: int, opdir: Path) -> Op:
        pair = index // 2
        rng = _rng(self.name, seed, pair)
        m, hosted, dispatch, no_overlap = self.CYCLE[pair % len(self.CYCLE)]
        model = dict(
            REF_MODEL,
            num_layers=rng.randint(56, 66),
            hidden_size=rng.choice((7168, 7424, 7680, 7936)),
            vocab_size=REF_MODEL["vocab_size"] + 128 * (index + 1),
        )
        cluster = dict(REF_CLUSTER, host_dispatch_time=rng.choice((1e-6, 2e-6, 3e-6, 4e-6, 5e-6)) if hosted else 0.0)
        plan = dict(REF_PLAN, global_batch_size=SEQS_PER_MICRO_BATCH * m)
        return self._op(opdir, model, cluster, plan, dispatch, no_overlap)

    def _op(self, opdir, model, cluster, plan, dispatch, no_overlap, readme=False) -> Op:
        out = str(opdir / "report.json")
        argv = [
            "simulate",
            "--model", _write_json(opdir / "model.json", model),
            "--cluster", _write_json(opdir / "cluster.json", cluster),
            "--plan", _write_json(opdir / "plan.json", plan),
            "--dispatch", dispatch,
            "--out", out,
        ]
        if no_overlap:
            argv.append("--no-overlap")
        expect = {"gbs": plan["global_batch_size"], "seq_len": model["seq_len"], "readme": readme}
        return Op([argv], [out], expect)

    def check(self, op: Op, res: OpResult) -> list:
        rep = _load_out(res, op, 0)
        p = _training_problems(rep, op.expect["gbs"], op.expect["seq_len"], "simulate")
        lines = res.stdout[0].splitlines()
        if f"step {rep['step_time']:.6f} s" not in lines or f"mfu {rep['mfu']:.4f}" not in lines:
            p.append("simulate: stdout disagrees with the JSON report")
        if op.expect["readme"] and res.stdout[0] != README_SIMULATE:
            p.append(f"simulate: reference op does not reproduce the README output: {res.stdout[0]!r}")
        return p

    def fields(self, op: Op, res: OpResult) -> dict:
        rep = _load_out(res, op, 0)
        mem = rep["memory"]
        return {
            "step_time": rep["step_time"],
            "tps": rep["tps"],
            "mfu": rep["mfu"],
            "bubble_ratio": rep["bubble_ratio"],
            "comm_overlap_rate": rep["comm_overlap_rate"],
            "exposed_comm_time": rep["exposed_comm_time"],
            "memory_bytes": [mem["static_bytes"], mem["activation_bytes"]],
            "memory_plan": sorted(mem["plan"]["recompute"]) + sorted(mem["plan"]["swap"]),
        }


class DesignSearch:
    name = "design_search"
    # (feasible layer counts, hidden sizes) per cycle position; with the
    # rejected layer count that makes 3, 4, 6 and 4 candidates, of which
    # 2, 3, 4 and 3 are feasible. The median op is then a 3-candidate one.
    CYCLE = ((2, 1), (3, 1), (2, 2), (3, 1))
    # Too few layer items to fill pp * vpp = 32 chunks: plan validation rejects it.
    REJECTED_LAYERS = (24, 26, 28)
    PLAN = dict(REF_PLAN, global_batch_size=SEQS_PER_MICRO_BATCH * REF_PLAN["pp"])

    def warmup(self, opdir: Path) -> Op:
        return self._op(opdir, dict(REF_MODEL), [24, 61], [7680])

    def build(self, seed: int, index: int, opdir: Path) -> Op:
        pair = index // 2
        rng = _rng(self.name, seed, pair)
        n_layers, n_hidden = self.CYCLE[pair % len(self.CYCLE)]
        layers = rng.sample(range(56, 67), n_layers)
        hidden = rng.sample((7168, 7424, 7680, 7936), n_hidden)
        base = dict(REF_MODEL, vocab_size=REF_MODEL["vocab_size"] + 128 * (index + 1))
        return self._op(opdir, base, [rng.choice(self.REJECTED_LAYERS)] + layers, hidden)

    def _op(self, opdir, base, layers, hidden) -> Op:
        space = {
            "base": base,
            "ranges": {"num_layers": layers, "hidden_size": hidden},
            "pruning": {"shape_multiple": 256},
        }
        out = str(opdir / "search.json")
        argv = [
            "search",
            "--cluster", _write_json(opdir / "cluster.json", REF_CLUSTER),
            "--plan", _write_json(opdir / "plan.json", self.PLAN),
            "--space", _write_json(opdir / "space.json", space),
            "--workers", "1",
            "--out", out,
        ]
        expect = {
            "rejected_layers": layers[0],
            "feasible": (len(layers) - 1) * len(hidden),
            "rejected": len(hidden),
            "seq_len": base["seq_len"],
        }
        return Op([argv], [out, str(opdir / "search.csv")], expect)

    def check(self, op: Op, res: OpResult) -> list:
        outcome = _load_out(res, op, 0)
        ranked, skipped = outcome["ranked"], outcome["skipped"]
        e = op.expect
        p = []
        if len(ranked) != e["feasible"]:
            p.append(f"search: {len(ranked)} ranked, expected {e['feasible']}")
        if len(skipped) != e["rejected"]:
            p.append(f"search: {len(skipped)} skipped, expected {e['rejected']}")
        for name, reason in skipped:
            if not name.startswith(f"L{e['rejected_layers']}d") or not reason.startswith("PlanError"):
                p.append(f"search: unexpected skip {name}: {reason}")
        if not ranked:
            return p
        max_t = max(c["training"]["tps"] for c in ranked)
        max_i = max(c["inference"]["tps"] for c in ranked)
        for c in ranked:
            p += _training_problems(c["training"], self.PLAN["global_batch_size"], e["seq_len"], c["model"])
            if c["score"] != 0.5 * c["training"]["tps"] / max_t + 0.5 * c["inference"]["tps"] / max_i:
                p.append(f"search: score of {c['model']} is not the weighted normalized tps")
        if [c["model"] for c in ranked] != [c["model"] for c in sorted(ranked, key=lambda c: (-c["score"], c["model"]))]:
            p.append("search: ranking is not ordered by (-score, model)")
        rows = res.files[op.outputs[1]].decode().splitlines()
        body = list(csv.reader(io.StringIO("\n".join(rows[2:]))))
        want = [
            [str(r), c["model"], repr(c["score"]), repr(c["training"]["tps"]), repr(c["training"]["mfu"]),
             repr(c["training"]["step_time"]), repr(c["inference"]["tps"]), repr(c["inference"]["mfu"])]
            for r, c in enumerate(ranked, start=1)
        ]
        if rows[0] != "# moesim-csv v1" or body != want:
            p.append("search: CSV disagrees with the JSON report")
        return p

    def fields(self, op: Op, res: OpResult) -> dict:
        outcome = _load_out(res, op, 0)
        return {
            "ranking": [c["model"] for c in outcome["ranked"]],
            "scores": [c["score"] for c in outcome["ranked"]],
            "step_times": [c["training"]["step_time"] for c in outcome["ranked"]],
            "skipped": outcome["skipped"],
            "csv_sha256": hashlib.sha256(res.files[op.outputs[1]]).hexdigest(),
        }


def _balance_problems(out: dict, stdout: str, spec: dict, interval: int) -> list:
    import numpy as np

    static = np.asarray(out["static_cv"], dtype=np.float64)
    managed = np.asarray(out["managed_cv"], dtype=np.float64)
    p = []
    if static.shape != (spec["steps"],) or managed.shape != (spec["steps"],):
        return ["balance: CV series length differs from the step count"]
    if not (np.isfinite(static).all() and np.isfinite(managed).all()) or static.min() < 0 or managed.min() < 0:
        p.append("balance: CV series not finite and non-negative")
    steps = out["replan_steps"]
    if steps != sorted(set(steps)) or any(s % interval or not 0 < s < spec["steps"] for s in steps):
        p.append(f"balance: replan steps {steps} are not increasing multiples of {interval}")
    if out["static_mean_cv"] != float(static.mean()) or out["managed_mean_cv"] != float(managed.mean()):
        p.append("balance: mean CV disagrees with the CV series")
    if out["mean_cv_reduction"] != 1.0 - managed.mean() / static.mean():
        p.append("balance: cv reduction disagrees with the CV series")
    want = [
        f"static mean cv  {static.mean():.4f}",
        f"managed mean cv {managed.mean():.4f}",
        f"cv reduction    {out['mean_cv_reduction']:.4f}",
        f"replans         {len(steps)}",
    ]
    if stdout.splitlines() != want:
        p.append("balance: stdout disagrees with the JSON report")
    return p


class BalanceReplay:
    name = "balance_replay"
    # (experts, devices, top_k, replan interval, tokens per step) per cycle
    # position. Specs small enough for the exact placement search alternate
    # with ones that take the heuristic (largest first, then pairwise swaps).
    CYCLE = (
        (8, 2, 2, 1, 6144), (32, 4, 4, 1, 2048), (8, 4, 2, 4, 1024), (64, 8, 8, 2, 1024),
        (6, 3, 2, 1, 6144), (48, 8, 6, 1, 1024), (6, 2, 1, 1, 12288), (64, 4, 4, 3, 1024),
    )
    STEPS = 60

    def warmup(self, opdir: Path) -> Op:
        spec = {"num_experts": 16, "tokens_per_step": 256, "steps": 20, "top_k": 2,
                "concentration": 0.3, "autocorr": 0.9}
        return self._op(opdir, spec, devices=4, interval=2, window=2, trace_seed=7)

    def build(self, seed: int, index: int, opdir: Path) -> Op:
        pair = index // 2
        rng = _rng(self.name, seed, pair)
        experts, devices, top_k, interval, tokens = self.CYCLE[pair % len(self.CYCLE)]
        spec = {
            "num_experts": experts,
            "tokens_per_step": tokens,
            "steps": self.STEPS,
            "top_k": top_k,
            "concentration": round(rng.uniform(0.1, 1.0), 3),
            "autocorr": round(rng.uniform(0.0, 0.95), 3),
        }
        return self._op(opdir, spec, devices, interval, rng.randint(1, 4), trace_seed=1000 * seed + index)

    def _op(self, opdir, spec, devices, interval, window, trace_seed) -> Op:
        out = str(opdir / "balance.json")
        argv = [
            "balance",
            "--spec", _write_json(opdir / "spec.json", spec),
            "--devices", str(devices),
            "--interval", str(interval),
            "--window", str(window),
            "--seed", str(trace_seed),
            "--out", out,
        ]
        return Op([argv], [out], {"spec": spec, "interval": interval, "seed": trace_seed})

    def check(self, op: Op, res: OpResult) -> list:
        return _balance_problems(_load_out(res, op, 0), res.stdout[0], op.expect["spec"], op.expect["interval"])

    def fields(self, op: Op, res: OpResult) -> dict:
        out = _load_out(res, op, 0)
        return {
            "static_cv_sha256": _sha(out["static_cv"]),
            "managed_cv_sha256": _sha(out["managed_cv"]),
            "mean_cv_reduction": out["mean_cv_reduction"],
            "replan_steps": out["replan_steps"],
        }


class TraceRoundtrip(BalanceReplay):
    name = "trace_roundtrip"
    CYCLE = ((16, 4, 2, 1, 384), (64, 8, 4, 3, 192), (32, 4, 4, 2, 256), (32, 8, 2, 1, 256))
    STEPS = 24

    def _op(self, opdir, spec, devices, interval, window, trace_seed) -> Op:
        op = super()._op(opdir, spec, devices, interval, window, trace_seed)
        trace = str(opdir / "trace.csv")
        stats = str(opdir / "stats.json")
        op.calls[0] += ["--save-trace", trace]
        op.calls.append(["trace-stats", "--trace", trace, "--out", stats])
        op.outputs += [stats, trace]
        return op

    def check(self, op: Op, res: OpResult) -> list:
        import numpy as np
        from moesim.balance import RoutingTrace, TraceSpec, aux_loss, generate_trace

        spec = op.expect["spec"]
        p = super().check(op, res)
        stats = _load_out(res, op, 1)
        counts = stats["expert_token_counts"]
        rows = spec["steps"] * spec["tokens_per_step"]
        if len(counts) != spec["num_experts"] or sum(counts) != rows * spec["top_k"]:
            p.append("trace-stats: expert counts do not add up to steps * tokens * top_k")
        if stats["uniform_share"] != 1.0 / spec["num_experts"]:
            p.append("trace-stats: uniform share is not 1 / num_experts")
        head = f"steps {spec['steps']} tokens/step {spec['tokens_per_step']} top_k {spec['top_k']}"
        if res.stdout[1].splitlines()[0] != head:
            p.append("trace-stats: stdout shape line disagrees with the spec")
        loaded = RoutingTrace.load(op.outputs[2])
        want = generate_trace(TraceSpec(**spec), op.expect["seed"])
        same = loaded.num_experts == want.num_experts and all(
            np.array_equal(getattr(loaded, a), getattr(want, a)) for a in ("experts", "scores", "tasks")
        )
        if not same:
            p.append("trace: loaded trace differs from generate_trace(spec, seed)")
        elif stats["aux_loss"] != aux_loss(want).mean_loss:
            p.append("trace-stats: aux loss differs from aux_loss of the generated trace")
        return p

    def fields(self, op: Op, res: OpResult) -> dict:
        out = super().fields(op, res)
        stats = _load_out(res, op, 1)
        out["aux_loss"] = stats["aux_loss"]
        out["expert_token_counts_sha256"] = _sha(stats["expert_token_counts"])
        out["trace_csv_sha256"] = hashlib.sha256(res.files[op.outputs[2]]).hexdigest()
        return out


def execute(op: Op, tracer=None, op_id=None) -> tuple[OpResult, float]:
    """Run the op's CLI calls, traced when a Tracer is given; returns the
    result and its wall seconds."""
    from moesim.cli import main

    codes, outs, error = [], [], None
    ctx = tracer.installed(op_id) if tracer else contextlib.nullcontext()
    start = perf_counter()
    try:
        with ctx:
            for argv in op.calls:
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                    codes.append(main(argv))
                outs.append(buf.getvalue())
    except (Exception, SystemExit):
        error = traceback.format_exc(limit=4)
    elapsed = perf_counter() - start
    files = {p: Path(p).read_bytes() for p in op.outputs if Path(p).exists()}
    return OpResult(codes, outs, files, error), elapsed


def problems_of(wl, op: Op, res: OpResult, expected: dict | None) -> list:
    """Everything wrong with one op's result; empty when it passed."""
    if res.error:
        return [f"exception: {res.error}"]
    if res.codes != [0] * len(op.calls):
        return [f"exit codes {res.codes}, expected 0"]
    if len(res.files) != len(op.outputs):
        return ["missing output files"]
    try:
        found = wl.check(op, res)
        if expected is not None:
            fields = wl.fields(op, res)
            if fields != expected["fields"]:
                diff = sorted(k for k in expected["fields"] if fields.get(k) != expected["fields"][k])
                found.append(f"simulated fields differ from reference.json: {diff}")
            elif res.digest() != expected["digest"]:
                found.append("output bytes differ from reference.json")
    except Exception:
        found = [f"check raised: {traceback.format_exc(limit=4)}"]
    return found


WORKLOADS = {w.name: w for w in (SimulateSweep(), DesignSearch(), BalanceReplay(), TraceRoundtrip())}
