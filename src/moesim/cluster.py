"""Abstract cluster description and first-order cost primitives.

Collective costs follow the latency/bandwidth model. ``volume`` is always
the full logical payload in bytes (the gathered buffer for allgather, the
per-rank send buffer for alltoall); the wire only carries the (g-1)/g
fraction that is not already local, which the formulas account for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import FieldError, UnpricedDtypeError
from .records import _require_nonnegative, bounded, check_fields, parse_bound, require


# The value widths a model may declare, by the peak_flops key each is priced at.
DTYPE_NAMES = {1: "fp8", 2: "bf16", 4: "fp32"}

COLLECTIVE_KINDS = ("allgather", "reducescatter", "allreduce", "alltoall", "p2p")

# A link latency in seconds: at most 1 s, far above any real link, so the
# (g - 1) latency terms of a collective stay finite.
LATENCY = "in [0, 1]"
# The longest price in seconds: ChunkCost's bound, so that no step's sum of
# prices overflows.
MAX_SECONDS = 1e300
_RATE = parse_bound("> 0")


@dataclass(frozen=True)
class CommGroup:
    size: int = bounded(">= 1")
    latency: float = bounded(LATENCY)
    bandwidth: float = bounded("> 0")

    def __post_init__(self):
        check_fields(self)


@dataclass(frozen=True)
class HardwareDescription:
    name: str
    peak_flops: dict[str, float]  # dtype name -> FLOP/s per device
    hbm_capacity: float = bounded("> 0")  # bytes per device
    hbm_bandwidth: float = bounded("> 0")  # bytes/s per device
    intra_node_bandwidth: float = bounded("> 0")  # bytes/s per device
    intra_node_latency: float = bounded(LATENCY)  # seconds
    inter_node_bandwidth: float = bounded("> 0")  # bytes/s per device
    inter_node_latency: float = bounded(LATENCY)  # seconds
    devices_per_node: int = bounded(">= 1")
    num_nodes: int = bounded(">= 1")
    matmul_efficiency: float = bounded("in (0, 1]", default=1.0)
    host_dispatch_time: float = bounded(">= 0", default=0.0)  # host-side seconds to launch one op
    host_to_device_bandwidth: float = bounded("> 0", default=64e9)

    def __post_init__(self):
        check_fields(self)
        if not self.peak_flops:
            raise ValueError("peak_flops must list at least one dtype")
        for dtype, rate in self.peak_flops.items():
            require(f"peak_flops.{dtype}", rate, float, _RATE)

    @property
    def world_size(self) -> int:
        return self.devices_per_node * self.num_nodes

    def peak_for_dtype_bytes(self, dtype_bytes: int) -> float:
        """The peak rate for values of this width; a 2-byte dtype falls
        back from bf16 to fp16."""
        return self.peak_flops[self._peak_name(dtype_bytes)]

    def _peak_name(self, dtype_bytes: int) -> str:
        """The peak_flops key that prices values of this width."""
        name = DTYPE_NAMES.get(dtype_bytes)
        if name in self.peak_flops:
            return name
        if dtype_bytes == 2 and "fp16" in self.peak_flops:
            return "fp16"
        if name is None:
            raise ValueError(f"dtype_bytes must be one of {', '.join(map(str, DTYPE_NAMES))}, got {dtype_bytes!r}")
        alias = " or 'fp16'" if dtype_bytes == 2 else ""
        raise UnpricedDtypeError(f"peak_flops lists no {name!r}{alias} rate for the model's {dtype_bytes}-byte dtype")

    def tier(self, resource: str) -> tuple[float, float]:
        """(latency, bandwidth) of a link tier named by its resource."""
        if resource == "inter_link":
            return self.inter_node_latency, self.inter_node_bandwidth
        if resource == "intra_link":
            return self.intra_node_latency, self.intra_node_bandwidth
        raise ValueError(f"unknown link resource {resource!r}")


def collective_time(kind: str, volume_bytes: float, group: CommGroup) -> float:
    """Seconds for one collective of the given logical payload.

    A group of size 1 costs nothing regardless of kind or volume.
    """
    _require_nonnegative("volume_bytes", volume_bytes)
    if kind not in COLLECTIVE_KINDS:
        raise ValueError(f"unknown collective kind {kind!r}")
    g = group.size
    if g <= 1:
        return 0.0
    ring = (g - 1) * group.latency + ((g - 1) / g) * volume_bytes / group.bandwidth
    if kind in ("allgather", "reducescatter"):
        return ring
    if kind == "allreduce":
        return 2.0 * ring
    if kind == "alltoall":
        return group.latency + ((g - 1) / g) * volume_bytes / group.bandwidth
    # p2p: pairwise transfer of the whole payload
    return group.latency + volume_bytes / group.bandwidth


def kernel_time(flops: float, bytes_moved: float, hw: HardwareDescription, dtype_bytes: int = 2) -> float:
    """Roofline estimate: slower of the compute and HBM traffic terms. A
    rate too low to give either term in at most MAX_SECONDS is refused by
    its cluster field."""
    _require_nonnegative("flops", flops)
    _require_nonnegative("bytes_moved", bytes_moved)
    name = hw._peak_name(dtype_bytes)
    peak = hw.peak_flops[name]
    rate = peak * hw.matmul_efficiency  # 0.0 when both are tiny enough to underflow
    compute = flops / rate if rate > 0 else math.inf
    if not compute <= MAX_SECONDS:
        raise FieldError(f"peak_flops.{name}", f"must be large enough to run {flops!r} FLOPs in at most 1e300 s "
                         f"at matmul_efficiency {hw.matmul_efficiency!r}, got {peak!r}", "cluster.")
    memory = bytes_moved / hw.hbm_bandwidth
    if not memory <= MAX_SECONDS:
        raise FieldError("hbm_bandwidth", f"must be large enough to move {bytes_moved!r} bytes in at most "
                         f"1e300 s, got {hw.hbm_bandwidth!r}", "cluster.")
    return max(compute, memory)
