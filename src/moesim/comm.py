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
from typing import NamedTuple

MECHANISMS = ("hierarchical", "alltoall", "allgather")


@dataclass(frozen=True)
class DispatchVolumes:
    mechanism: str
    inter_node_bytes: float
    intra_node_bytes: float

    @property
    def total_bytes(self) -> float:
        return self.inter_node_bytes + self.intra_node_bytes


class CommEvent(NamedTuple):
    """One hand-built communication op for the timeline simulator, as a
    plain record.

    ``dependencies`` hold the schedule slots (``ScheduleSlot`` records)
    and the ids of the events this event waits for; ``feeds`` optionally
    holds the slot or event id that must wait for this event, and must
    refer to one that exists. An id names another CommEvent, never a hop
    of the ``pipeline.SlotTransfers`` rows the training step is built
    from. ``simulate_timeline`` resolves each reference once per call.
    ``group_size`` > 1 makes the duration follow the collective cost
    model; otherwise the event is a plain transfer.
    """

    id: str
    kind: str  # allgather | alltoall | p2p | ...
    resource: str  # inter_link | intra_link
    bytes: float
    dependencies: tuple = ()
    device: int = 0
    group_size: int = 0
    feeds: tuple | str | None = None  # a ScheduleSlot, an event id or None


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
    if min(tokens, hidden, dtype_bytes, topk, tp, ep) < 1 and tokens != 0:
        raise ValueError("tokens may be zero; all other factors must be >= 1")
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
