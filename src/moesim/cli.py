"""Command line front end.

Subcommands map onto the library's main entry points:

* ``validate``    check a parallel plan against a model and cluster
* ``simulate``    one training step or a decode roofline for one model
* ``search``      rank a design space, writing a JSON and a CSV report
* ``balance``     run the expert placement benchmark on a synthetic trace
* ``trace-stats`` balance metrics for a saved routing trace

Exit codes: 0 success, 1 invalid content (bad config, infeasible plan),
2 missing or unreadable files. All file output is deterministic: reruns
with the same inputs produce byte-identical bytes.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from .balance import RoutingTrace, aux_loss, generate_trace, run_balance_simulation, trace_statistics
from .comm import MECHANISMS
from .configio import load_cluster, load_model, load_plan, load_space, load_trace_spec
from .errors import MoesimError
from .parallel import validate_plan
from .pipeline import SERIALIZED, OverlapPolicy
from .search import SimulationFeatures, inference_report, search_space, training_report

CSV_HEADER = "# moesim-csv v1"


def _jsonable(obj):
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: _jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, (frozenset, set)):
        return sorted(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonable(x) for x in obj.tolist()]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(x) for x in obj]
    return obj


def _write_json(path: str, payload) -> None:
    text = json.dumps(_jsonable(payload), indent=2, sort_keys=True) + "\n"
    with open(path, "w") as fh:
        fh.write(text)


def _features(args: argparse.Namespace) -> SimulationFeatures:
    policy = SERIALIZED if args.no_overlap else OverlapPolicy()
    return SimulationFeatures(policy=policy, dispatch_mechanism=args.dispatch)


def _cmd_validate(args: argparse.Namespace) -> int:
    cfg = load_model(args.model)
    hw = load_cluster(args.cluster)
    plan = load_plan(args.plan)
    check = validate_plan(plan, cfg, hw)
    if not check.ok:
        for err in check.errors:
            print(f"invalid: {err}")
        return 1
    r = check.plan
    print(
        f"plan ok: tp={r.tp} pp={r.pp} vpp={r.vpp} ep={r.ep} cp={r.cp} "
        f"dp={r.dp} micro_batch_size={r.micro_batch_size} "
        f"world={hw.world_size}"
    )
    if args.out:
        _write_json(args.out, {"ok": True, "plan": r})
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    cfg = load_model(args.model)
    hw = load_cluster(args.cluster)
    if args.mode == "inference":
        report = inference_report(cfg, hw) if args.batch is None else inference_report(cfg, hw, args.batch)
        print(f"model {report.model}")
        print(f"decode step {report.step_time:.6f} s")
        print(f"tokens/s {report.tps:.6e}")
        print(f"mfu {report.mfu:.4f}")
    else:
        plan = load_plan(args.plan)
        report = training_report(cfg, plan, hw, _features(args))
        print(f"model {report.model}")
        print(f"step {report.step_time:.6f} s")
        print(f"tokens/s {report.tps:.6e}")
        print(f"mfu {report.mfu:.4f}")
        print(f"bubble {report.bubble_ratio:.4f}")
        print(f"comm overlap {report.comm_overlap_rate:.4f}")
        mem = report.memory
        print(
            f"memory {mem.total_bytes / 1e9:.2f} GB of {mem.capacity_bytes / 1e9:.2f} GB, "
            f"plan [{', '.join(sorted(mem.plan.recompute | mem.plan.swap)) or 'none'}]"
        )
    if args.out:
        _write_json(args.out, report)
    return 0


def _csv_cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _cmd_search(args: argparse.Namespace) -> int:
    space = load_space(args.space)
    hw = load_cluster(args.cluster)
    plan = load_plan(args.plan)
    outcome = search_space(
        space, plan, hw, features=_features(args), mode=args.mode, top=args.top, workers=args.workers
    )
    for i, cand in enumerate(outcome.ranked, start=1):
        t = f"train {cand.training.tps:.3e} tok/s" if cand.training else ""
        d = f"decode {cand.inference.tps:.3e} tok/s" if cand.inference else ""
        parts = " ".join(x for x in (t, d) if x)
        print(f"{i:3d}. {cand.model} score {cand.score:.4f} {parts}")
    for name, reason in outcome.skipped:
        print(f"skipped {name}: {reason}")
    if args.out:
        _write_json(args.out, outcome)
        csv_path = args.out[: -len(".json")] + ".csv" if args.out.endswith(".json") else args.out + ".csv"
        rows = [
            CSV_HEADER,
            "rank,model,score,train_tps,train_mfu,train_step_time,inference_tps,inference_mfu",
        ]
        for i, cand in enumerate(outcome.ranked, start=1):
            t, d = cand.training, cand.inference
            cells = [cand.score, *((t.tps, t.mfu, t.step_time) if t else ("",) * 3)]
            cells += (d.tps, d.mfu) if d else ("",) * 2
            rows.append(",".join([str(i), cand.model] + [_csv_cell(c) for c in cells]))
        with open(csv_path, "w") as fh:
            fh.write("\n".join(rows) + "\n")
    if not outcome.ranked:
        print("no feasible candidate")
        return 1
    return 0


def _cmd_balance(args: argparse.Namespace) -> int:
    trace = generate_trace(load_trace_spec(args.spec), args.seed)
    result = run_balance_simulation(trace, args.devices, replan_interval=args.interval, history_window=args.window)
    print(f"static mean cv  {result.static_cv.mean():.4f}")
    print(f"managed mean cv {result.managed_cv.mean():.4f}")
    print(f"cv reduction    {result.mean_cv_reduction:.4f}")
    print(f"replans         {len(result.replan_steps)}")
    if args.save_trace:
        trace.save(args.save_trace)
    if args.out:
        _write_json(
            args.out,
            {
                "static_mean_cv": float(result.static_cv.mean()),
                "managed_mean_cv": float(result.managed_cv.mean()),
                "mean_cv_reduction": result.mean_cv_reduction,
                "replan_steps": list(result.replan_steps),
                "static_cv": result.static_cv,
                "managed_cv": result.managed_cv,
            },
        )
    return 0


def _cmd_trace_stats(args: argparse.Namespace) -> int:
    trace = RoutingTrace.load(args.trace)
    try:  # first, as these refuse oversized tables before allocating; only --out writes the statistics
        stats = trace_statistics(trace) if args.out else None
        counts = trace.expert_counts().sum(axis=0)
    except ValueError as exc:
        raise MoesimError(f"{args.trace}: {exc}") from None
    loss = aux_loss(trace)
    print(f"steps {trace.steps} tokens/step {trace.tokens_per_step} top_k {trace.top_k}")
    print(f"experts {trace.num_experts}")
    print(f"aux loss {loss.mean_loss:.6f}")
    print(f"hottest expert share {counts.max() / counts.sum():.4f} (uniform {1.0 / trace.num_experts:.4f})")
    if args.out:
        _write_json(
            args.out,
            {
                "aux_loss": loss.mean_loss,
                "expert_token_counts": counts,
                "task_expert_share": stats.task_expert_share,
                "uniform_share": stats.uniform_share,
            },
        )
    return 0


_COMMANDS = {
    "validate": _cmd_validate,
    "simulate": _cmd_simulate,
    "search": _cmd_search,
    "balance": _cmd_balance,
    "trace-stats": _cmd_trace_stats,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="moesim", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, *names):
        if "model" in names:
            p.add_argument("--model", required=True, help="model config JSON")
        if "cluster" in names:
            p.add_argument("--cluster", required=True, help="cluster description JSON")
        if "plan" in names:
            p.add_argument("--plan", required=True, help="parallel plan JSON")
        p.add_argument("--out", help="write a JSON report here")

    p = sub.add_parser("validate", help="check a plan against a model and cluster")
    add_common(p, "model", "cluster", "plan")

    p = sub.add_parser("simulate", help="simulate one training step or decode throughput")
    add_common(p, "model", "cluster")
    p.add_argument("--plan", help="parallel plan JSON (training mode)")
    p.add_argument("--mode", choices=("training", "inference"), default="training")
    p.add_argument("--batch", type=int, help="decode batch size (inference mode)")
    p.add_argument("--dispatch", choices=MECHANISMS, default="hierarchical")
    p.add_argument("--no-overlap", action="store_true", help="serialize comm with compute")

    p = sub.add_parser("search", help="rank every model in a design space")
    add_common(p, "cluster", "plan")
    p.add_argument("--space", required=True, help="design space JSON")
    p.add_argument("--mode", choices=("both", "training", "inference"), default="both")
    p.add_argument("--top", type=int, help="keep only the best N candidates")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--dispatch", choices=MECHANISMS, default="hierarchical")
    p.add_argument("--no-overlap", action="store_true")

    p = sub.add_parser("balance", help="expert placement benchmark on a synthetic trace")
    p.add_argument("--spec", required=True, help="trace spec JSON")
    p.add_argument("--devices", type=int, default=8)
    p.add_argument("--interval", type=int, default=1, help="replan every N steps")
    p.add_argument("--window", type=int, default=1, help="load history window")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--save-trace", dest="save_trace", help="also save the generated trace CSV")
    p.add_argument("--out", help="write a JSON report here")

    p = sub.add_parser("trace-stats", help="balance metrics for a saved trace")
    p.add_argument("--trace", required=True, help="routing trace CSV")
    p.add_argument("--out", help="write a JSON report here")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "simulate" and args.mode == "training" and not args.plan:
        parser.error("simulate --mode training requires --plan")
    try:
        return _COMMANDS[args.command](args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (MoesimError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
