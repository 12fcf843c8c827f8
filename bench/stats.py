"""Summary statistics shared by the benchmark and its self-tests.

Stdlib only, so the tests can import it without moesim or numpy.
"""

from __future__ import annotations

TAIL_MIN_ABOVE = 10


def tail_percentile(samples) -> tuple[float, float, int]:
    """The highest percentile that still has at least ten samples above it.

    Returns (percentile, value, samples above). With n samples the rank
    r = n - 10 (1-based) leaves exactly ten samples above it; the
    percentile reported is 100 * r / n. Fewer than eleven samples leave
    no such rank, so the maximum is used (percentile 100, none above);
    the caller records the sample count beside it.
    """
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        raise ValueError("no samples")
    rank = n - TAIL_MIN_ABOVE if n > TAIL_MIN_ABOVE else n
    return 100.0 * rank / n, xs[rank - 1], n - rank


def self_times(spans) -> list[float]:
    """Self time of every span: its duration minus the union of the
    intervals its direct children cover, clipped to the span.

    `spans` is a sequence of (name, start, end, parent_index, op_id).
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for _, start, end, parent, _ in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = []
    for idx, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        cur_s = cur_e = None
        for cs, ce in sorted(children.get(idx, ())):
            cs, ce = max(cs, start), min(ce, end)
            if ce <= cs:
                continue
            if cur_e is None or cs > cur_e:
                if cur_e is not None:
                    covered += cur_e - cur_s
                cur_s, cur_e = cs, ce
            else:
                cur_e = max(cur_e, ce)
        if cur_e is not None:
            covered += cur_e - cur_s
        out.append((end - start) - covered)
    return out
