"""Host-time benchmark for moesim's command line flows.

    python3 bench/run.py --workload simulate_sweep --seed 1 --seconds 40 --trace 0

Runs `moesim.cli.main(argv)` as a closed loop with one client: each op
starts when the previous one returns, in its own process forked from this
one, which has imported moesim and runs no op. Inputs come from the seed
(see workloads.py) and every op's output is checked. With --trace 0 the
last stdout line reports the end-to-end metrics; with --trace 1 ops
alternate between traced and untraced and it reports the per-layer
metrics. Each run also writes bench/out/<run>/result.json (and, traced,
spans.jsonl.gz); bench/README.md documents both.

    python3 bench/run.py --workload simulate_sweep --record-reference

re-records the default seed's expected outputs into bench/reference.json.
"""

from __future__ import annotations

import os

# Before numpy loads: trace_statistics does a large matmul, and a BLAS
# thread pool would make timings depend on the machine's core count.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import pickle  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

from stats import tail_percentile  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, OpResult, execute, problems_of  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE = BENCH / "reference.json"
REFERENCE_OPS = 64  # default-seed ops whose outputs reference.json records
SETUP_SAMPLES = 11

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Fresh interpreter: time `import moesim` plus the first (cold) op.
SETUP_SNIPPET = r"""
import json, sys, time
src, calls = sys.argv[1], json.loads(sys.argv[2])
t0 = time.perf_counter()
sys.path.insert(0, src)
import contextlib, io
import moesim.cli
codes, outs = [], []
for argv in calls:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        codes.append(moesim.cli.main(argv))
    outs.append(buf.getvalue())
print(json.dumps({"setup_s": time.perf_counter() - t0, "codes": codes, "stdout": outs}))
"""


def setup_sample(wl, opdir: Path) -> tuple[float, OpResult]:
    opdir.mkdir(parents=True)
    op = wl.warmup(opdir)
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_SNIPPET, str(SRC), json.dumps(op.calls)],
        capture_output=True, text=True, timeout=150, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up sample failed: {proc.stderr[-2000:]}")
    out = json.loads(proc.stdout.splitlines()[-1])
    files = {p: Path(p).read_bytes() for p in op.outputs if Path(p).exists()}
    return out["setup_s"], OpResult(out["codes"], out["stdout"], files)


def git_commit() -> str | None:
    # The ceiling keeps git from reporting a repository that merely encloses ROOT.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def in_child(fn):
    """fn(), computed in a child forked from this process.

    This process imports moesim but runs no op itself, so every op starts
    from the same state, as a fresh CLI process would: nothing that one op
    leaves behind (a memo, a cache, a grown heap) can serve a later one.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(read_fd)
            try:
                out = ("ok", fn())
            except BaseException:
                out = ("error", traceback.format_exc())
            with os.fdopen(write_fd, "wb") as fh:
                pickle.dump(out, fh)
        finally:
            os._exit(0)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as fh:
        data = fh.read()
    os.waitpid(pid, 0)
    if not data:
        raise RuntimeError("op process ended without a result")
    status, value = pickle.loads(data)
    if status != "ok":
        raise RuntimeError(f"op process failed: {value}")
    return value


def run_op(wl, op, expected, op_id=None, traced=False) -> dict:
    """Run one op and check its output; called in the op's own process."""
    tracer = Tracer() if traced else None
    res, seconds = execute(op, tracer, op_id)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out = {"seconds": seconds, "rss_mb": rss_mb, "digest": res.digest(),
           "problems": problems_of(wl, op, res, expected)}
    if tracer:
        out["trace"] = (tracer.spans, tracer.counts)
    return out


def source_record() -> dict:
    files = sorted((SRC / "moesim").glob("*.py"))
    h = hashlib.sha256()
    lines = 0
    for f in files:
        text = f.read_bytes()
        h.update(f.name.encode() + b"\0" + text)
        lines += sum(1 for line in text.decode().splitlines() if line.strip())
    return {"src_lines": lines, "src_sha256": h.hexdigest()}


def load_reference(workload: str) -> dict:
    if not REFERENCE.is_file():
        return {}
    return json.loads(REFERENCE.read_text()).get(workload, {})


def dump_reference(data: dict) -> str:
    """reference.json text with one line per op, so a re-recording diffs op by op."""
    parts = []
    for name, entry in sorted(data.items()):
        ops = ",\n".join("   " + json.dumps(op, sort_keys=True) for op in entry["ops"])
        parts.append(f' "{name}": {{"seed": {entry["seed"]}, "warmup": {json.dumps(entry["warmup"], sort_keys=True)},\n'
                     f'  "ops": [\n{ops}\n  ]}}')
    return "{\n" + ",\n".join(parts) + "\n}\n"


def record_reference(wl, tmp: Path) -> int:
    """Re-record the warm-up op and the default seed's first REFERENCE_OPS ops."""
    entries = []
    for i in range(-1, REFERENCE_OPS):
        opdir = tmp / f"op{i}"
        opdir.mkdir(parents=True)
        op = wl.warmup(opdir) if i < 0 else wl.build(DEFAULT_SEED, i, opdir)
        res, _ = execute(op)
        found = problems_of(wl, op, res, None)
        if found:
            print(f"op {i} fails its checks: {found}", file=sys.stderr)
            return 1
        entries.append({"fields": wl.fields(op, res), "digest": res.digest()})
        shutil.rmtree(opdir)
    data = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    data[wl.name] = {"seed": DEFAULT_SEED, "warmup": entries[0], "ops": entries[1:]}
    REFERENCE.write_text(dump_reference(data))
    print(f"recorded warm-up and {REFERENCE_OPS} ops of {wl.name} into {REFERENCE.name}", file=sys.stderr)
    return 0


def run(args, wl, run_dir: Path, import_s: float) -> dict:
    import numpy

    tmp = run_dir / "tmp"
    reference = load_reference(wl.name)
    ref_ops = reference.get("ops", []) if args.seed == reference.get("seed") else []
    problems = []

    warm_dir = tmp / "warm"
    warm_dir.mkdir(parents=True)
    warm_op = wl.warmup(warm_dir)
    warm = in_child(lambda: run_op(wl, warm_op, reference.get("warmup")))
    problems += [f"warm-up: {p}" for p in warm["problems"]]
    if not reference:
        problems.append(f"reference.json has no entry for {wl.name}")

    setup = []

    def take_setup_sample():
        k = len(setup)
        seconds, res = setup_sample(wl, tmp / f"setup{k}")
        setup.append(seconds)
        if res.digest() != warm["digest"]:
            problems.append(f"set-up sample {k}: output differs from the warm-up op")

    tracer = Tracer() if args.trace else None
    ops = []
    rss_mb = [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0]
    first_digest = None
    # Inputs come in pairs of twins (see workloads.py). A traced run runs
    # both twins, tracing one; an untraced run runs one op of each pair.
    step = 1 if args.trace else 2
    # Whole cycles only: every run then has the same op mix, whatever its seed.
    cycle = 2 * len(wl.CYCLE) // step
    start = perf_counter()
    paused = 0.0  # set-up samples do not count as measuring time
    while len(ops) % cycle or perf_counter() - start - paused < args.seconds:
        # Spread the set-up samples over the run, so that they see the
        # same machine as the ops do.
        due = len(setup) * args.seconds / SETUP_SAMPLES
        if not args.trace and len(setup) < SETUP_SAMPLES and perf_counter() - start - paused >= due:
            t = perf_counter()
            take_setup_sample()
            paused += perf_counter() - t
        i = step * len(ops)
        opdir = tmp / f"op{i}"
        opdir.mkdir()
        op = wl.build(args.seed, i, opdir)
        traced = bool(args.trace) and (i % 2) != (i // 2) % 2
        out = in_child(lambda: run_op(wl, op, ref_ops[i] if i < len(ref_ops) else None, i, traced))
        if traced:
            tracer.absorb(*out["trace"])
        if i == 0:
            first_digest = out["digest"]
        rss_mb.append(out["rss_mb"])
        ops.append({"index": i, "seconds": out["seconds"], "traced": traced, "problems": out["problems"]})
        shutil.rmtree(opdir)

    while not args.trace and len(setup) < SETUP_SAMPLES:
        take_setup_sample()

    repeat_dir = tmp / "repeat"
    repeat_dir.mkdir()
    repeat_op = wl.build(args.seed, 0, repeat_dir)
    if in_child(lambda: run_op(wl, repeat_op, None))["digest"] != first_digest:
        problems.append("determinism: repeating op 0 gave different output bytes")

    timed = [o for o in ops if not o["traced"]]
    times = [o["seconds"] for o in timed]
    failed = sum(1 for o in ops if o["problems"])
    pct, tail, above = tail_percentile(times)
    record = {
        "schema": 1,
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": git_commit(),
        **source_record(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "import_s": import_s,
        "setup_samples_s": setup,
        "tail": {"percentile": pct, "value_s": tail, "samples_above": above, "samples": len(times)},
        "attempted": len(ops),
        "failed": failed,
        "error_rate": failed / len(ops),
        "correct": failed == 0 and not problems,
        "problems": problems + [f"op {o['index']}: {p}" for o in ops for p in o["problems"]],
        "ops": ops,
    }
    record["end_to_end"] = {
        "ops_per_s": len(times) / sum(times),
        "op_p50_s": statistics.median(times),
        "op_tail_s": tail,
        "peak_rss_mb": max(rss_mb),
    }
    if setup:
        record["end_to_end"]["setup_s"] = statistics.median(setup)
    if tracer:
        # Twins are ops j and j + 1 for even j; exactly one of them is traced.
        overhead = [sum(o["seconds"] if o["traced"] else -o["seconds"] for o in ops[j:j + 2])
                    for j in range(0, len(ops), 2)]
        layers = tracer.layer_metrics(sum(o["traced"] for o in ops))
        layers["trace.overhead_s"] = statistics.median(overhead)
        layers["src.lines"] = record["src_lines"]
        record["per_layer"] = layers
        tracer.write(run_dir / "spans.jsonl.gz")
    return record


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help=f"re-record the default seed's first {REFERENCE_OPS} ops into reference.json and exit")
    args = parser.parse_args()

    if not (SRC / "moesim" / "__init__.py").is_file():
        print(f"error: no moesim sources under {SRC}", file=sys.stderr)
        return 1
    sys.path.insert(0, str(SRC))
    t0 = perf_counter()
    import moesim
    import moesim.cli  # noqa: F401

    import_s = perf_counter() - t0
    # Ops run in forked children; frozen objects stay out of their
    # collections, so the children do not copy pages just to scan them.
    gc.freeze()
    if Path(moesim.__file__).resolve().parent != SRC / "moesim":
        print(f"error: imported moesim from {moesim.__file__}, not {SRC}", file=sys.stderr)
        return 1

    wl = WORKLOADS[args.workload]
    if args.record_reference:
        run_dir = BENCH / "out" / f"record-{wl.name}-{os.getpid()}"
    else:
        run_dir = BENCH / "out" / f"{wl.name}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    tmp = run_dir / "tmp"
    tmp.mkdir(parents=True)
    try:
        if args.record_reference:
            return record_reference(wl, tmp)
        record = run(args, wl, run_dir, import_s)
    finally:
        shutil.rmtree(run_dir if args.record_reference else tmp, ignore_errors=True)
    (run_dir / "result.json").write_text(json.dumps(record, indent=1) + "\n")

    if args.trace:
        metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in sorted(record["per_layer"].items())}
    else:
        metrics = {k: {"value": record["end_to_end"][k], "unit": u} for k, u in END_TO_END_UNITS.items()}
    tail = record["tail"]
    print(
        f"{wl.name} seed {args.seed}: {record['attempted']} ops, {record['failed']} failed, "
        f"tail p{tail['percentile']:.1f} over {tail['samples']} samples; {run_dir / 'result.json'}",
        file=sys.stderr,
    )
    for p in record["problems"][:20]:
        print(f"problem: {p}", file=sys.stderr)
    print(json.dumps({"correct": record["correct"], "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("us_per_task"):
        return "us"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
