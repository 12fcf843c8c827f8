"""Expert dispatch traffic models.

Volumes are counted in token units and scaled by hidden_size * dtype_bytes.
``tokens`` always means tokens held by one device for one micro batch.
Three dispatch mechanisms are modeled:

* allgather: every device in the tp*ep group receives the full gathered
  token buffer, so the buffer spans tokens * tp * ep token units and the
  traffic is charged to the slower tier the group spans.
* alltoall: each token travels once per selected expert, tokens * top_k.
* hierarchical: an inter-node allgather among the ep peer devices
  (tokens * (ep - 1) received token units) followed by an intra-node
  alltoall of the selected copies (tokens * top_k). The inter phase of one
  direction is independent of the intra phase of the opposite direction,
  which is what lets forward and backward dispatch overlap.
"""

from __future__ import annotations

from dataclasses import dataclass

from .records import _require_nonnegative

MECHANISMS = ("hierarchical", "alltoall", "allgather")


@dataclass(frozen=True)
class DispatchVolumes:
    mechanism: str
    inter_node_bytes: float
    intra_node_bytes: float

    @property
    def total_bytes(self) -> float:
        return self.inter_node_bytes + self.intra_node_bytes


def dispatch_volumes(
    mechanism: str,
    tokens: int,
    hidden: int,
    dtype_bytes: int,
    topk: int,
    tp: int,
    ep: int,
) -> DispatchVolumes:
    """Bytes crossing each network tier to dispatch one device's tokens."""
    if mechanism not in MECHANISMS:
        raise ValueError(f"unknown dispatch mechanism {mechanism!r}")
    _require_nonnegative("tokens", tokens)
    for name, factor in zip(("hidden", "dtype_bytes", "topk", "tp", "ep"), (hidden, dtype_bytes, topk, tp, ep)):
        if factor < 1:
            raise ValueError(f"{name} must be >= 1, got {factor!r}")
    unit = hidden * dtype_bytes
    if mechanism == "allgather":
        inter_units = tokens * tp * ep
        intra_units = 0
    elif mechanism == "alltoall":
        inter_units = tokens * topk
        intra_units = 0
    else:
        inter_units = tokens * (ep - 1)
        intra_units = tokens * topk
    return DispatchVolumes(mechanism, inter_units * unit, intra_units * unit)
