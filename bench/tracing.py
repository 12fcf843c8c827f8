"""Span tracing from outside the program, for the per-layer metrics.

`Tracer.installed()` replaces public functions at the module attribute
where their callers look them up (for example `moesim.search.assign_chunks`
and `moesim.memory.assign_chunks` for the two modules that call it) with
wrappers that record a span: name, start, end, parent span and op id. The
originals are restored on exit, so untraced ops run the program untouched.
Each op is traced in its own forked process; `absorb` gathers its spans and
counts into the run's tracer, where they stay in memory until `write` saves
them at the end of the run.
"""

from __future__ import annotations

import gzip
import importlib
import json
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

from stats import self_times


def _host_tasks(args, kwargs) -> int:
    order = kwargs.get("host_order", args[2] if len(args) > 2 else None) or {}
    return sum(len(v) for v in order.values())


# (owner, attribute, span name, observer). The owner is a module or a
# class in a module; an observer adds counts taken from the call.
POINTS = [
    ("moesim.cli", "load_model", "configio.load", None),
    ("moesim.cli", "load_cluster", "configio.load", None),
    ("moesim.cli", "load_plan", "configio.load", None),
    ("moesim.cli", "load_space", "configio.load", None),
    ("moesim.cli", "load_trace_spec", "configio.load", None),
    ("moesim.search", "assign_chunks", "parallel.assign_chunks", "chunks"),
    ("moesim.memory", "assign_chunks", "parallel.assign_chunks", "chunks"),
    ("moesim.parallel", "validate_plan", "parallel.validate_plan", None),
    ("moesim.search", "select_memory_plan", "memory.select_memory_plan", None),
    ("moesim.search", "memory_report", "memory.memory_report", "memory"),
    ("moesim.memory", "memory_report", "memory.memory_report", "memory"),
    ("moesim.cli", "search_space", "search.search_space", "skipped"),
    ("moesim.cli", "training_report", "search.training_report", None),
    ("moesim.search", "training_report", "search.training_report", None),
    ("moesim.cli", "inference_report", "search.inference_report", None),
    ("moesim.search", "inference_report", "search.inference_report", None),
    ("moesim.search", "boundary_transfer_events", "search.event_build", "events"),
    ("moesim.search", "slot_dispatch_events", "search.event_build", "events"),
    ("moesim.search", "build_1f1b_schedule", "pipeline.build_1f1b_schedule", "slots"),
    ("moesim.search", "simulate_timeline", "pipeline.simulate_timeline", None),
    ("moesim.pipeline", "collective_time", "cluster.collective_time", None),
    ("moesim.engine", "run_tasks", "engine.run_tasks", "tasks"),
    ("moesim.cli", "run_balance_simulation", "balance.replay", None),
    ("moesim.cli", "generate_trace", "balance.generate_trace", None),
    ("moesim.balance", "generate_trace", "balance.generate_trace", None),
    ("moesim.balance", "greedy_place", "balance.greedy_place", "moved"),
    ("moesim.balance", "RoutingTrace.save", "balance.trace_save", "rows_saved"),
    ("moesim.balance", "RoutingTrace.load", "balance.trace_load", "rows_loaded"),
    ("moesim.cli", "aux_loss", "balance.aux_loss", None),
    ("moesim.cli", "trace_statistics", "balance.trace_statistics", None),
]


def _observe(kind, counts, distinct, args, kwargs, result):
    if kind == "chunks":
        distinct.add((args, tuple(sorted(kwargs.items()))))
    elif kind == "memory":
        counts["memory.feasible"] += bool(result.feasible)
    elif kind == "skipped":
        counts["search.candidates"] += len(result.ranked) + len(result.skipped)
        counts["search.skipped"] += len(result.skipped)
    elif kind == "events":
        counts["search.comm_events"] += len(result)
    elif kind == "slots":
        counts["pipeline.slots"] += sum(len(s) for s in result)
    elif kind == "tasks":
        counts["engine.tasks"] += len(result.tasks)
        counts["engine.hosted_tasks"] += _host_tasks(args, kwargs)
    elif kind == "moved":
        counts["balance.moved"] += result.moved_experts > 0
    elif kind == "rows_saved":
        counts["balance.trace_rows"] += args[0].steps * args[0].tokens_per_step
    elif kind == "rows_loaded":
        counts["balance.trace_rows"] += result.steps * result.tokens_per_step


class Tracer:
    def __init__(self):
        self.spans = []  # (name, start, end, parent index, op id)
        self.counts = Counter()
        self.op_id = None
        self._distinct_chunks = set()  # assign_chunks inputs of the current op
        self._stack = []

    def _wrap(self, name, fn, kind):
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if kind:
                _observe(kind, self.counts, self._distinct_chunks, args, kwargs, result)
            return result

        return wrapper

    @contextmanager
    def installed(self, op_id):
        """Trace one op: wrap every point, and restore the originals after."""
        saved = []
        self.op_id = op_id
        try:
            for module, attr, name, kind in POINTS:
                owner = importlib.import_module(module)
                cls, _, attr = attr.rpartition(".")
                if cls:
                    owner = getattr(owner, cls)
                raw = owner.__dict__[attr]
                saved.append((owner, attr, raw))
                fn = raw.__func__ if isinstance(raw, staticmethod) else raw
                wrapped = self._wrap(name, fn, kind)
                setattr(owner, attr, staticmethod(wrapped) if isinstance(raw, staticmethod) else wrapped)
            with self.span("cli.main"):
                yield
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)
            self.op_id = None
            self.counts["parallel.assign_chunks_distinct"] += len(self._distinct_chunks)
            self._distinct_chunks.clear()

    def absorb(self, spans, counts):
        """Add the spans and counts another tracer recorded."""
        base = len(self.spans)
        self.spans += [(n, s, e, None if p is None else p + base, op) for n, s, e, p, op in spans]
        self.counts.update(counts)

    @contextmanager
    def span(self, name):
        """Record one span around the body, as a child of the open span."""
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent, self.op_id)

    def write(self, path):
        with gzip.open(path, "wt") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent, "op": op}) + "\n")

    def layer_metrics(self, ops: int) -> dict:
        """Per-op means of every per-layer metric over `ops` traced ops."""
        total = defaultdict(float)
        own = defaultdict(float)
        calls = Counter()
        for span, self_s in zip(self.spans, self_times(self.spans)):
            total[span[0]] += span[2] - span[1]
            own[span[0]] += self_s
            calls[span[0]] += 1
        c = self.counts

        def ratio(num, den):
            return num / den if den else 0.0

        per_op = {
            "cli.self_s": own["cli.main"],
            "configio.load_s": total["configio.load"],
            "parallel.assign_chunks_s": total["parallel.assign_chunks"],
            "parallel.assign_chunks_calls": calls["parallel.assign_chunks"],
            "parallel.validate_plan_s": total["parallel.validate_plan"],
            "memory.select_memory_plan_s": total["memory.select_memory_plan"],
            "memory.memory_report_calls": calls["memory.memory_report"],
            "search.training_report_self_s": own["search.training_report"],
            "search.event_build_s": own["search.event_build"],
            "search.comm_events": c["search.comm_events"],
            "search.inference_report_s": total["search.inference_report"],
            "pipeline.build_1f1b_schedule_s": total["pipeline.build_1f1b_schedule"],
            "pipeline.simulate_timeline_self_s": own["pipeline.simulate_timeline"],
            "pipeline.slots": c["pipeline.slots"],
            "cluster.collective_time_s": total["cluster.collective_time"],
            "cluster.collective_time_calls": calls["cluster.collective_time"],
            "engine.run_tasks_s": total["engine.run_tasks"],
            "engine.tasks": c["engine.tasks"],
            "engine.hosted_tasks": c["engine.hosted_tasks"],
            "balance.generate_trace_s": total["balance.generate_trace"],
            "balance.generate_trace_calls": calls["balance.generate_trace"],
            "balance.greedy_place_s": total["balance.greedy_place"],
            "balance.greedy_place_calls": calls["balance.greedy_place"],
            "balance.replay_self_s": own["balance.replay"],
            "balance.trace_save_s": total["balance.trace_save"],
            "balance.trace_load_s": total["balance.trace_load"],
            "balance.trace_rows": c["balance.trace_rows"],
            "balance.aux_loss_s": total["balance.aux_loss"],
            "balance.trace_statistics_s": total["balance.trace_statistics"],
        }
        out = {k: v / ops for k, v in per_op.items()}
        out.update(
            {
                "parallel.assign_chunks_distinct_ratio": ratio(c["parallel.assign_chunks_distinct"],
                                                               calls["parallel.assign_chunks"]),
                "memory.feasible_ratio": ratio(c["memory.feasible"], calls["memory.memory_report"]),
                "search.skipped_ratio": ratio(c["search.skipped"], c["search.candidates"]),
                "engine.us_per_task": ratio(1e6 * total["engine.run_tasks"], c["engine.tasks"]),
                "balance.replan_moved_ratio": ratio(c["balance.moved"], calls["balance.greedy_place"]),
                "trace.spans": len(self.spans) / ops,
            }
        )
        return out
