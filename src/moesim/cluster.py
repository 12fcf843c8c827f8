"""Abstract cluster description and first-order cost primitives.

Collective costs follow the latency/bandwidth model. ``volume`` is always
the full logical payload in bytes (the gathered buffer for allgather, the
per-rank send buffer for alltoall); the wire only carries the (g-1)/g
fraction that is not already local, which the formulas account for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import UnpricedDtypeError


# The value widths a model may declare, by the peak_flops key each is priced at.
DTYPE_NAMES = {1: "fp8", 2: "bf16", 4: "fp32"}

COLLECTIVE_KINDS = ("allgather", "reducescatter", "allreduce", "alltoall", "p2p")

# The float fields of a HardwareDescription besides the peak FLOP rates:
# rates, capacities and the efficiency must be finite and positive,
# latencies and host time finite and at least 0.
_RATES = (
    "hbm_capacity", "hbm_bandwidth", "intra_node_bandwidth", "inter_node_bandwidth", "host_to_device_bandwidth",
    "matmul_efficiency",
)
_DELAYS = ("intra_node_latency", "inter_node_latency", "host_dispatch_time")


def _require_nonnegative(name, value) -> None:
    """name is the string the error names, or a function spelling it."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not 0 <= value < math.inf:
        raise ValueError(f"{name() if callable(name) else name} must be a finite number >= 0, got {value!r}")


@dataclass(frozen=True)
class CommGroup:
    size: int
    latency: float
    bandwidth: float

    def __post_init__(self):
        if self.size < 1:
            raise ValueError("group size must be >= 1")
        _require_nonnegative("latency", self.latency)
        _require_nonnegative("bandwidth", self.bandwidth)
        if not self.bandwidth:
            raise ValueError(f"bandwidth must be > 0, got {self.bandwidth!r}")


@dataclass(frozen=True)
class HardwareDescription:
    name: str
    peak_flops: dict[str, float]  # dtype name -> FLOP/s per device
    hbm_capacity: float  # bytes per device
    hbm_bandwidth: float  # bytes/s per device
    intra_node_bandwidth: float  # bytes/s per device
    intra_node_latency: float  # seconds
    inter_node_bandwidth: float  # bytes/s per device
    inter_node_latency: float  # seconds
    devices_per_node: int
    num_nodes: int
    matmul_efficiency: float = 1.0
    host_dispatch_time: float = 0.0  # host-side seconds to launch one op
    host_to_device_bandwidth: float = field(default=64e9)

    def __post_init__(self):
        if self.devices_per_node < 1 or self.num_nodes < 1:
            raise ValueError("devices_per_node and num_nodes must be >= 1")
        if not self.peak_flops:
            raise ValueError("peak_flops must list at least one dtype")
        values = {f"peak_flops[{dtype!r}]": rate for dtype, rate in self.peak_flops.items()}
        values.update((name, getattr(self, name)) for name in (*_RATES, *_DELAYS))
        for name, value in values.items():
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ValueError(f"{name} must be a number, got {value!r}")
            if not math.isfinite(value) or (value < 0 if name in _DELAYS else value <= 0):
                raise ValueError(f"{name} must be finite and {'>= 0' if name in _DELAYS else '> 0'}, got {value}")
        if self.matmul_efficiency > 1:
            raise ValueError(f"matmul_efficiency must be in (0, 1], got {self.matmul_efficiency}")

    @property
    def world_size(self) -> int:
        return self.devices_per_node * self.num_nodes

    def peak_for_dtype_bytes(self, dtype_bytes: int) -> float:
        """The peak rate for values of this width; a 2-byte dtype falls
        back from bf16 to fp16."""
        name = DTYPE_NAMES.get(dtype_bytes)
        if name in self.peak_flops:
            return self.peak_flops[name]
        if dtype_bytes == 2 and "fp16" in self.peak_flops:
            return self.peak_flops["fp16"]
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
    """Roofline estimate: slower of the compute and HBM traffic terms."""
    _require_nonnegative("flops", flops)
    _require_nonnegative("bytes_moved", bytes_moved)
    peak = hw.peak_for_dtype_bytes(dtype_bytes)
    return max(flops / (peak * hw.matmul_efficiency), bytes_moved / hw.hbm_bandwidth)
