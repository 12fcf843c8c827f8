"""Expert routing traces, balance metrics, and placement policies.

A routing trace records, for every step and token, the top-k expert ids
and their normalized gate scores. Traces come from `generate_trace`
(synthetic, seeded) or from a saved file. On top of a trace the module
computes the auxiliary balance loss at a chosen accounting window,
capacity-overflow drop rates, device load imbalance for a given expert
placement, and runs a replanning benchmark that compares a managed
placement against a static one.

numpy is imported inside the functions that use it, not at module level,
so `import moesim.cli` and the commands that never call this module
(validate, simulate, search) do not load it: numpy was about 40 % of a
fresh `moesim simulate`. `cli` must keep importing this module at module
level: `bench/tracing.py` patches `generate_trace` and its siblings in
`cli`'s namespace, and a process that imports `cli` before it forks
compiles this module once, not in every child.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .errors import EmptyWindowError, ParseError, SlotMismatchError, ZeroMeanError
from .records import _require_nonnegative, bounded, check_fields

TRACE_HEADER = "# moesim-trace v1"
TRACE_COLUMNS = "step,token,task,experts,scores"
TRACE_TABLE_CELLS = 2**26  # the most cells `trace_statistics` gives one table
# Rows per block when a trace is saved or its row shapes are checked on load:
# a block's cells and text are a few MB, so no step holds a file-sized copy.
TRACE_BLOCK_ROWS = 2**12
_NOT_SHAPE = bytes(c for c in range(256) if c not in b", \n")  # what a row's shape drops
# The Dirichlet concentration's range. From 1e3 on each expert's share is
# within a few percent of uniform; once num_experts * concentration passes
# the largest float, the sum of one draw overflows and the scores turn NaN.
CONCENTRATION = "in (0, 1e6]"


@dataclass(frozen=True)
class TraceSpec:
    num_experts: int = bounded(">= 1")
    tokens_per_step: int = bounded(">= 1")
    steps: int = bounded(">= 1")
    top_k: int = bounded(">= 1")
    concentration: float = bounded(CONCENTRATION, default=0.3)
    autocorr: float = bounded("in [0, 1)", default=0.0)
    num_tasks: int = bounded(">= 1", default=1)
    task_mix: tuple = ()

    def __post_init__(self):
        check_fields(self)
        if self.top_k > self.num_experts:
            raise ValueError("top_k must be in [1, num_experts]")
        if self.task_mix and len(self.task_mix) != self.num_tasks:
            raise ValueError("task_mix length must equal num_tasks")
        for i, weight in enumerate(self.task_mix):
            _require_nonnegative(f"task_mix[{i}]", weight)
        if self.task_mix and not 0 < sum(self.task_mix) < math.inf:
            raise ValueError(f"task_mix must have a finite sum > 0, got {list(self.task_mix)}")


@dataclass
class RoutingTrace:
    num_experts: int
    experts: np.ndarray  # (steps, tokens, k) int
    scores: np.ndarray  # (steps, tokens, k) float, rows sum to 1
    tasks: np.ndarray  # (steps, tokens) int

    def __post_init__(self):
        import numpy as np
        if self.experts.ndim != 3 or not self.experts.shape[2]:
            raise ValueError("experts must be a (steps, tokens, k >= 1) array")
        if self.experts.shape != self.scores.shape:
            raise ValueError("experts and scores shapes differ")
        if self.tasks.shape != self.experts.shape[:2]:
            raise ValueError("tasks shape must be (steps, tokens)")
        if self.experts.size and (self.experts.min() < 0 or self.experts.max() >= self.num_experts):
            bad = self.experts[(self.experts < 0) | (self.experts >= self.num_experts)][0]
            raise ValueError(f"expert id {bad} outside [0, num_experts={self.num_experts})")
        if self.tasks.size and self.tasks.min() < 0:
            raise ValueError(f"task id {self.tasks.min()} is negative")
        repeated = np.zeros(self.tasks.shape, dtype=bool)
        for a, b in itertools.combinations(range(self.top_k), 2):
            repeated |= self.experts[:, :, a] == self.experts[:, :, b]
        if repeated.any():
            step, token = np.argwhere(repeated)[0]
            raise ValueError(f"step {step} token {token}: an expert id appears twice")

    @property
    def steps(self) -> int:
        return self.experts.shape[0]

    @property
    def tokens_per_step(self) -> int:
        return self.experts.shape[1]

    @property
    def top_k(self) -> int:
        return self.experts.shape[2]

    def expert_counts(self) -> np.ndarray:
        """Tokens routed to each expert, per step: a (steps, num_experts)
        array. One of more than TRACE_TABLE_CELLS cells raises ValueError
        before anything is allocated."""
        import numpy as np
        n = self.num_experts
        if self.steps * n > TRACE_TABLE_CELLS:
            need = f"{self.steps} steps of {n} experts need a {self.steps} x {n} expert count table"
            raise ValueError(f"{need}, over the {TRACE_TABLE_CELLS}-cell limit")
        offsets = np.arange(self.steps)[:, None, None] * n
        return np.bincount((self.experts + offsets).ravel(), minlength=self.steps * n).reshape(self.steps, n)

    def save(self, path) -> None:
        """One row per (step, token) in order; ids and scores space-separated,
        scores as `repr(float)`, rows ending in CRLF. Each block of
        TRACE_BLOCK_ROWS rows is one `%` call: the row template repeated for
        every row, over the block's cells as Python ints and floats."""
        import numpy as np
        k = self.top_k
        tasks, experts, scores = self.tasks.reshape(-1), self.experts.reshape(-1, k), self.scores.reshape(-1, k)
        row = "%d,%d,%d," + " ".join(["%d"] * k) + "," + " ".join(["%r"] * k) + "\r\n"
        with open(path, "w", newline="") as fh:
            fh.write(f"{TRACE_HEADER}\n# num_experts={self.num_experts}\n{TRACE_COLUMNS}\r\n")
            for lo in range(0, len(tasks), TRACE_BLOCK_ROWS):
                block = slice(lo, lo + TRACE_BLOCK_ROWS)
                cells = np.empty((len(tasks[block]), 3 + 2 * k), dtype=object)
                cells[:, 0], cells[:, 1] = np.divmod(np.arange(lo, lo + len(cells)), self.tokens_per_step)
                cells[:, 2] = tasks[block]
                cells[:, 3 : 3 + k] = experts[block]
                cells[:, 3 + k :] = scores[block]
                fh.write((row * len(cells)) % tuple(cells.ravel().tolist()))

    @staticmethod
    def load(path) -> "RoutingTrace":
        """Read a trace `save` wrote. Rejects, naming the first bad step and
        token: missing, repeated or out-of-order rows, rows whose id and score
        columns do not all hold the same k >= 1 values, step, token, task or
        expert fields that are not integers in [0, 2**53), scores that are
        not finite or do not sum to 1 within 1e-6, and an expert id repeated
        within a token. Every error names the file, including a
        `num_experts` line that is not an integer >= 1 and an expert id
        outside [0, num_experts)."""
        import numpy as np
        with open(path, newline="") as fh:
            first = fh.readline().rstrip("\n")
            if first != TRACE_HEADER:
                raise ParseError(f"{path}: not a routing trace file: header {first!r}")
            meta = fh.readline().rstrip("\n")
            if not meta.startswith("# num_experts="):
                raise ParseError(f"{path}: missing num_experts line")
            value = meta.split("=", 1)[1]
            if not value.isdecimal() or int(value) < 1:
                raise ParseError(f"{path}: num_experts must be an integer >= 1, got {value!r}")
            num_experts = int(value)
            if fh.readline().rstrip("\r\n") != TRACE_COLUMNS:
                raise ParseError(f"{path}: unexpected trace columns")
            rows = fh.read().splitlines()
        if not rows:
            raise ParseError(f"{path}: trace has no rows")

        def reject(i, problem):
            where = "step {} token {}".format(*(rows[i].split(",") + ["?", "?"])[:2]) if i < len(rows) else "end"
            raise ParseError(f"{path}: {where}: {problem}")

        def count(sub, *span):
            return np.fromiter(map(str.count, rows, itertools.repeat(sub), *span), np.int64, len(rows))

        # A row with k ids and k scores has 4 commas and 2 (k - 1) spaces,
        # k - 1 of them after the last comma, among the scores. Of its commas
        # and spaces a row as `save` writes it keeps exactly ",,," + (k - 1)
        # spaces + "," + (k - 1) spaces, checked for a block of rows in one C
        # pass; only a file with another row counts them row by row.
        k = rows[0].count(" ", rows[0].rfind(",")) + 1
        shape = b",,," + b" " * (k - 1) + b"," + b" " * (k - 1)

        def misshaped(block):
            kept = "\n".join(block).encode().translate(None, _NOT_SHAPE)
            return kept != b"\n".join(itertools.repeat(shape, len(block)))

        if any(misshaped(rows[lo : lo + TRACE_BLOCK_ROWS]) for lo in range(0, len(rows), TRACE_BLOCK_ROWS)):
            score_gaps = count(" ", map(str.rfind, rows, itertools.repeat(",")))
            ragged = (count(",") != 4) | (count(" ") != 2 * (k - 1)) | (score_gaps != k - 1)
            if ragged.any():
                reject(int(ragged.argmax()), f"expected 5 columns with {k} expert ids and {k} scores")
        spaced = map(str.replace, rows, itertools.repeat(" "), itertools.repeat(","))
        try:
            table = np.loadtxt(spaced, delimiter=",", comments=None, ndmin=2)
        except ValueError as exc:
            raise ParseError(f"{path}: {exc}") from None
        ids, scores = table[:, : 3 + k], table[:, 3 + k :]
        bad = ~((ids >= 0) & (ids < 2**53) & (ids == np.floor(ids))).all(axis=1)
        if bad.any():
            reject(int(bad.argmax()), "step, token, task and expert ids must be integers in [0, 2**53)")
        ids = ids.astype(np.int64)
        steps, tokens = (int(x) + 1 for x in ids[:, :2].max(axis=0))
        cell = np.arange(len(rows))
        bad = (ids[:, 0] != cell // tokens) | (ids[:, 1] != cell % tokens)
        if bad.any() or len(rows) != steps * tokens:
            i = int(bad.argmax()) if bad.any() else len(rows)
            due = f"step {i // tokens} token {i % tokens}"
            reject(i, f"rows must hold each step and token once, in order; {due} is due")
        bad = ~(np.abs(scores.sum(axis=1) - 1.0) <= 1e-6)
        if bad.any():
            reject(int(bad.argmax()), "scores must be finite and sum to 1")
        try:
            return RoutingTrace(
                num_experts,
                ids[:, 3:].reshape(steps, tokens, k),
                scores.reshape(steps, tokens, k),
                ids[:, 2].reshape(steps, tokens),
            )
        except ValueError as exc:
            raise ParseError(f"{path}: {exc}") from None


def _stable_top_k(values: np.ndarray, k: int) -> np.ndarray:
    """The first k columns of `np.argsort(values, axis=1, kind="stable")`:
    each row's k smallest values, ties to the lower index. A partition
    picks k per row, put in index order and stable-sorted by value; a row
    where an unpicked value ties the k-th, or any value is NaN, is sorted in
    full instead. k equal to the row length is always sorted in full."""
    import numpy as np
    if k == values.shape[1]:
        return np.argsort(values, axis=1, kind="stable")
    picked = np.sort(np.argpartition(values, k - 1, axis=1)[:, :k], axis=1)
    picked_values = np.take_along_axis(values, picked, axis=1)
    order = np.argsort(picked_values, axis=1, kind="stable")
    picked = np.take_along_axis(picked, order, axis=1)
    kth = np.take_along_axis(picked_values, order[:, -1:], axis=1)
    tied = np.count_nonzero(values > kth, axis=1) != values.shape[1] - k
    if tied.any():
        picked[tied] = np.argsort(values[tied], axis=1, kind="stable")[:, :k]
    return picked


def generate_trace(spec: TraceSpec, seed: int = 0) -> RoutingTrace:
    """Synthetic routing with skewed, drifting expert popularity.

    Each task holds a probability vector over experts drawn from a
    symmetric Dirichlet (low concentration gives heavy skew). Per step the
    vector follows an AR(1) blend with a fresh draw. Tokens pick k distinct
    experts via Gumbel perturbation of the log probabilities and carry
    softmax-normalized scores over the selected set.
    """
    import numpy as np
    rng = np.random.default_rng(seed)
    e, k = spec.num_experts, spec.top_k
    alpha = np.full(e, spec.concentration)
    state = rng.dirichlet(alpha, size=spec.num_tasks)
    mix = np.asarray(spec.task_mix, dtype=np.float64) if spec.task_mix else None
    if mix is not None:
        mix = mix / mix.sum()

    experts = np.zeros((spec.steps, spec.tokens_per_step, k), dtype=np.int64)
    scores = np.zeros((spec.steps, spec.tokens_per_step, k), dtype=np.float64)
    tasks = np.zeros((spec.steps, spec.tokens_per_step), dtype=np.int64)
    tiny = 1e-12
    for s in range(spec.steps):
        if s > 0:
            fresh = rng.dirichlet(alpha, size=spec.num_tasks)
            state = spec.autocorr * state + (1.0 - spec.autocorr) * fresh
            state = state / state.sum(axis=1, keepdims=True)
        step_tasks = rng.choice(spec.num_tasks, size=spec.tokens_per_step, p=mix)
        logits = np.log(state[step_tasks] + tiny)
        gumbel = rng.gumbel(size=(spec.tokens_per_step, e))
        picked = _stable_top_k(-(logits + gumbel), k)
        picked_logits = np.take_along_axis(logits, picked, axis=1)
        shifted = picked_logits - picked_logits.max(axis=1, keepdims=True)
        weights = np.exp(shifted)
        tasks[s] = step_tasks
        experts[s] = picked
        scores[s] = weights / weights.sum(axis=1, keepdims=True)
    return RoutingTrace(e, experts, scores, tasks)


def balance_window_tokens(
    level: str,
    seq_len: int,
    micro_batch_size: int = 1,
    ep: int = 1,
    dp: int = 1,
) -> int:
    """Token count over which the balance loss statistics are pooled."""
    sizes = {
        "sequence": seq_len,
        "micro_batch": micro_batch_size * seq_len,
        "ep_group": ep * micro_batch_size * seq_len,
        "dp_group": dp * micro_batch_size * seq_len,
    }
    if level not in sizes:
        raise ValueError(f"unknown balance level {level!r}, expected one of {sorted(sizes)}")
    return sizes[level]


@dataclass(frozen=True)
class AuxLossReport:
    mean_loss: float
    per_window: np.ndarray
    window_tokens: int


def aux_loss(trace: RoutingTrace, window_tokens: int | None = None) -> AuxLossReport:
    """Mean auxiliary balance loss over consecutive token windows.

    Per window of T tokens: loss = sum_i f_i * p_i with
    f_i = N / (k * T) * count_i and p_i the sum of expert i's gate scores
    divided by T. Perfectly uniform routing gives exactly 1.
    """
    import numpy as np
    n = trace.num_experts
    k = trace.top_k
    flat_e = trace.experts.reshape(-1, k)
    flat_s = trace.scores.reshape(-1, k)
    total = flat_e.shape[0]
    if window_tokens is None:
        window_tokens = total
    if window_tokens < 1:
        raise ValueError("window_tokens must be >= 1")
    num_windows = total // window_tokens
    if num_windows == 0:
        raise EmptyWindowError(
            f"trace has {total} tokens, fewer than one window of {window_tokens}"
        )
    losses = np.zeros(num_windows)
    for w in range(num_windows):
        lo, hi = w * window_tokens, (w + 1) * window_tokens
        ids = flat_e[lo:hi].ravel()
        counts = np.bincount(ids, minlength=n).astype(np.float64)
        score_sums = np.bincount(ids, weights=flat_s[lo:hi].ravel(), minlength=n)
        f = n / (k * window_tokens) * counts
        p = score_sums / window_tokens
        losses[w] = float(f @ p)
    return AuxLossReport(float(losses.mean()), losses, window_tokens)


@dataclass(frozen=True)
class DropStats:
    drop_rate: float
    dropped_per_expert: np.ndarray
    capacity: float


def capacity_drop_stats(trace: RoutingTrace, capacity_factor: float) -> DropStats:
    """Tokens dropped when each expert accepts at most
    ceil(capacity_factor * T * k / N) routed tokens per step, in arrival
    (token index) order."""
    import numpy as np
    if not capacity_factor >= 0:
        raise ValueError(f"capacity_factor must be a non-negative number, got {capacity_factor}")
    n, k = trace.num_experts, trace.top_k
    t = trace.tokens_per_step
    if math.isinf(capacity_factor):
        return DropStats(0.0, np.zeros(n, dtype=np.int64), math.inf)
    cap = math.ceil(capacity_factor * t * k / n)
    over = np.maximum(trace.expert_counts() - cap, 0)
    return DropStats(int(over.sum()) / (trace.steps * t * k), over.sum(axis=0), float(cap))


def device_load_stats(loads) -> float:
    """Coefficient of variation (population std over mean) of device loads."""
    import numpy as np
    arr = np.asarray(loads, dtype=np.float64)
    mean = arr.mean()
    if mean == 0:
        raise ZeroMeanError("device loads sum to zero")
    return float(arr.std() / mean)


def predict_loads(history: np.ndarray, window: int) -> np.ndarray:
    """Mean per-expert load over the last `window` observed steps."""
    import numpy as np
    hist = np.asarray(history, dtype=np.float64)
    if hist.ndim != 2 or not hist.shape[0]:
        raise ValueError("history must be (steps >= 1, num_experts)")
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    return hist[-window:].mean(axis=0)


@dataclass(frozen=True)
class Placement:
    device_of_expert: np.ndarray
    device_loads: np.ndarray
    moved_experts: int

    @property
    def cv(self) -> float:
        return device_load_stats(self.device_loads)


def contiguous_placement(num_experts: int, num_devices: int) -> np.ndarray:
    import numpy as np
    if num_experts % num_devices != 0:
        raise SlotMismatchError(
            f"{num_experts} experts do not split evenly over {num_devices} devices"
        )
    per = num_experts // num_devices
    return np.repeat(np.arange(num_devices), per)


_EXACT_PLACEMENT_LIMIT = 100_000


def _exact_assignment_count(n: int, devices: int, slots: int) -> float:
    total = 1.0
    remaining = n
    for _ in range(devices):
        total *= math.comb(remaining, slots)
        remaining -= slots
        if total > _EXACT_PLACEMENT_LIMIT:
            return math.inf
    return total


def _exact_place(arr: np.ndarray, num_devices: int, slots: int) -> np.ndarray:
    """Minimum max-load assignment by exhaustive slot-respecting search.

    Ties prefer the flattest sorted load vector, then the lexicographically
    smallest expert-to-device map, so the result is deterministic."""
    import numpy as np
    n = arr.shape[0]
    best_key = None
    best = None
    device_of = np.zeros(n, dtype=np.int64)

    def recurse(remaining: tuple, device: int):
        nonlocal best_key, best
        if device == num_devices:
            loads = np.bincount(device_of, weights=arr, minlength=num_devices)
            key = (tuple(sorted(loads, reverse=True)), tuple(device_of))
            if best_key is None or key < best_key:
                best_key = key
                best = device_of.copy()
            return
        for combo in itertools.combinations(remaining, slots):
            for i in combo:
                device_of[i] = device
            rest = tuple(i for i in remaining if i not in combo)
            recurse(rest, device + 1)

    recurse(tuple(range(n)), 0)
    return best


def _lpt_place(arr: np.ndarray, num_devices: int, slots: int) -> np.ndarray:
    """Heaviest expert first onto the least-loaded device with a free slot,
    then pairwise swaps while any swap reduces the sum of squared device
    loads (the mean is fixed, so this descends directly on the CV)."""
    import numpy as np
    n = arr.shape[0]
    device_of = np.zeros(n, dtype=np.int64)
    dev_load = np.zeros(num_devices)
    dev_free = np.full(num_devices, slots, dtype=np.int64)
    for i in np.argsort(-arr, kind="stable"):
        best = np.where(dev_free > 0, dev_load, np.inf).argmin()
        device_of[i] = best
        dev_load[best] += arr[i]
        dev_free[best] -= 1

    # Swapping experts i and j changes the squared-load sum by
    # 2*delta*(L[di] - L[dj]) + 2*delta^2 with delta = arr[j] - arr[i].
    delta = arr[None, :] - arr[:, None]
    lower = np.tri(n, dtype=bool)
    for _ in range(4 * n):
        per_dev = dev_load[device_of]
        gain = 2.0 * delta * (per_dev[:, None] - per_dev[None, :]) + 2.0 * delta * delta
        gain[lower | (device_of[:, None] == device_of[None, :])] = np.inf
        flat = int(np.argmin(gain))
        i, j = divmod(flat, n)
        if gain[i, j] >= -1e-12:
            break
        di, dj = device_of[i], device_of[j]
        dev_load[di] += arr[j] - arr[i]
        dev_load[dj] -= arr[j] - arr[i]
        device_of[i], device_of[j] = dj, di
    return device_of


def greedy_place(
    loads,
    num_devices: int,
    slots_per_device: int,
    previous: np.ndarray | None = None,
) -> Placement:
    """Assign experts to devices minimizing the heaviest device.

    Small instances are solved exactly by exhaustive search; larger ones
    fall back to heaviest-first greedy placement followed by pairwise swap
    refinement. The result is deterministic for a given input."""
    import numpy as np
    arr = np.asarray(loads, dtype=np.float64)
    n = arr.shape[0]
    if num_devices * slots_per_device != n:
        raise SlotMismatchError(
            f"{num_devices} devices x {slots_per_device} slots != {n} experts"
        )
    if _exact_assignment_count(n, num_devices, slots_per_device) <= _EXACT_PLACEMENT_LIMIT:
        device_of = _exact_place(arr, num_devices, slots_per_device)
    else:
        device_of = _lpt_place(arr, num_devices, slots_per_device)
    dev_load = np.bincount(device_of, weights=arr, minlength=num_devices)
    base = previous if previous is not None else contiguous_placement(n, num_devices)
    moved = int(np.count_nonzero(device_of != np.asarray(base)))
    return Placement(device_of_expert=device_of, device_loads=dev_load, moved_experts=moved)


def placement_loads(counts: np.ndarray, device_of_expert: np.ndarray, num_devices: int) -> np.ndarray:
    import numpy as np
    return np.bincount(
        np.asarray(device_of_expert), weights=np.asarray(counts, dtype=np.float64), minlength=num_devices
    )


@dataclass(frozen=True)
class TraceStats:
    _coactivation: object  # the (experts, experts) table, or a function that builds it
    task_expert_share: np.ndarray
    uniform_share: float

    @property
    def coactivation(self) -> np.ndarray:
        """Built on first read, so a caller that reads only the shares
        (`trace-stats --out`) never counts the k² slot pairs."""
        if callable(self._coactivation):
            object.__setattr__(self, "_coactivation", self._coactivation())
        return self._coactivation


def trace_statistics(trace: RoutingTrace) -> TraceStats:
    """Pairwise co-selection probabilities and per-task routing shares.

    coactivation[i, j] is P(expert j also selected | expert i selected)
    over tokens. task_expert_share[t, i] is the fraction of task t's
    routed slots that went to expert i; a perfectly uniform router puts
    every entry at 1/N (= top_k / (N * top_k)). A table of more than
    TRACE_TABLE_CELLS cells raises ValueError before anything is allocated;
    the coactivation table is built from `trace` on its first read."""
    import numpy as np
    n = trace.num_experts
    num_tasks = int(trace.tasks.max(initial=0)) + 1
    for table, rows in (("coactivation", n), ("task_expert_share", num_tasks)):
        if rows * n > TRACE_TABLE_CELLS:
            need = f"{n} experts and task ids up to {num_tasks - 1} need a {rows} x {n} {table} table"
            raise ValueError(f"{need}, over the {TRACE_TABLE_CELLS}-cell limit")
    cells = trace.tasks[:, :, None] * n + trace.experts
    counts = np.bincount(cells.ravel(), minlength=num_tasks * n).reshape(num_tasks, n)
    # A task with no tokens has an all-zero row; dividing it by 1 keeps it at 0.
    share = counts / np.maximum(counts.sum(axis=1, keepdims=True), 1)
    return TraceStats(lambda: _coactivation(trace), share, 1.0 / n)


def _coactivation(trace: RoutingTrace) -> np.ndarray:
    """`trace_statistics`' co-selection table, whose size it has checked."""
    import numpy as np
    n, k = trace.num_experts, trace.top_k
    slot_ids = np.ascontiguousarray(trace.experts.reshape(-1, k).T)  # (k, tokens)
    # Ids within a token are distinct, so slot pair (a, a) counts each
    # expert's selections (the diagonal) and pairs a != b count co-selections.
    joint = np.zeros(n * n, dtype=np.int64)
    rows = slot_ids * n
    for a, b in itertools.product(range(k), repeat=2):
        joint += np.bincount(rows[a] + slot_ids[b], minlength=n * n)
    joint = joint.reshape(n, n)
    # An expert never selected has an all-zero row; dividing it by 1 keeps it at 0.
    return joint / np.maximum(np.diag(joint), 1)[:, None]


@dataclass(frozen=True)
class BalanceRunResult:
    static_cv: np.ndarray
    managed_cv: np.ndarray
    replan_steps: tuple

    @property
    def mean_cv_reduction(self) -> float:
        return 1.0 - self.managed_cv.mean() / self.static_cv.mean()


def run_balance_simulation(
    trace: RoutingTrace,
    num_devices: int,
    replan_interval: int = 1,
    history_window: int = 1,
) -> BalanceRunResult:
    """Replay a trace against a static placement and a managed one that
    replans from recent load history every `replan_interval` steps."""
    import numpy as np
    args = {"num_devices": num_devices, "replan_interval": replan_interval, "history_window": history_window}
    for name, value in args.items():
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")
    n = trace.num_experts
    if n % num_devices != 0:
        raise SlotMismatchError(f"{n} experts do not split evenly over {num_devices} devices")
    slots = n // num_devices
    counts = trace.expert_counts()
    static = contiguous_placement(n, num_devices)
    managed = static.copy()
    static_cv = np.zeros(trace.steps)
    managed_cv = np.zeros(trace.steps)
    replans = []
    for s in range(trace.steps):
        if s > 0 and s % replan_interval == 0:
            pred = predict_loads(counts[:s], history_window)
            placed = greedy_place(pred, num_devices, slots, previous=managed)
            if placed.moved_experts:
                replans.append(s)
            managed = placed.device_of_expert
        static_cv[s] = device_load_stats(placement_loads(counts[s], static, num_devices))
        managed_cv[s] = device_load_stats(placement_loads(counts[s], managed, num_devices))
    return BalanceRunResult(static_cv, managed_cv, tuple(replans))
