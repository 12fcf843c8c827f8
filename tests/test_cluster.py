"""Collective cost model and device roofline."""

import math
import re
from dataclasses import replace

import pytest

from moesim.cluster import CommGroup, HardwareDescription, collective_time, kernel_time


def make_hw(**overrides):
    base = dict(
        name="test",
        peak_flops={"bf16": 100e12, "fp8": 200e12, "fp32": 50e12},
        hbm_capacity=64e9,
        hbm_bandwidth=1e12,
        intra_node_bandwidth=100e9,
        intra_node_latency=1e-6,
        inter_node_bandwidth=20e9,
        inter_node_latency=5e-6,
        devices_per_node=8,
        num_nodes=4,
    )
    base.update(overrides)
    return HardwareDescription(**base)


def test_allgather_alpha_beta_hand_value():
    group = CommGroup(size=4, latency=1e-6, bandwidth=100e9)
    vol = 4e9
    # 3 latency hops plus 3/4 of the payload over the wire
    expected = 3 * 1e-6 + (3 / 4) * vol / 100e9
    assert collective_time("allgather", vol, group) == pytest.approx(expected)
    assert collective_time("reducescatter", vol, group) == pytest.approx(expected)


def test_allreduce_is_twice_allgather():
    group = CommGroup(size=8, latency=5e-6, bandwidth=20e9)
    vol = 1e9
    ag = collective_time("allgather", vol, group)
    assert collective_time("allreduce", vol, group) == pytest.approx(2 * ag)


def test_alltoall_single_latency_term():
    group = CommGroup(size=4, latency=1e-6, bandwidth=100e9)
    vol = 4e9
    expected = 1e-6 + (3 / 4) * vol / 100e9
    assert collective_time("alltoall", vol, group) == pytest.approx(expected)


def test_p2p_full_payload():
    group = CommGroup(size=2, latency=5e-6, bandwidth=20e9)
    assert collective_time("p2p", 1e9, group) == pytest.approx(5e-6 + 1e9 / 20e9)


def test_single_member_group_costs_nothing():
    group = CommGroup(size=1, latency=1e-6, bandwidth=100e9)
    for kind in ("allgather", "reducescatter", "allreduce", "alltoall"):
        assert collective_time(kind, 1e9, group) == 0.0


def test_unknown_collective_rejected():
    group = CommGroup(size=2, latency=1e-6, bandwidth=100e9)
    with pytest.raises(ValueError):
        collective_time("broadcast-tree", 1e9, group)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0, True])
@pytest.mark.parametrize("name", ["flops", "bytes_moved"])
def test_kernel_time_rejects_what_it_cannot_price(name, bad):
    """A NaN flop count once came back as a NaN time, and a NaN byte count
    was dropped by `max`, leaving the compute bound."""
    args = {"flops": 1e12, "bytes_moved": 1.0, name: bad}
    with pytest.raises(ValueError, match=rf"^{name} must be a finite number >= 0, got {re.escape(repr(bad))}$"):
        kernel_time(**args, hw=make_hw())


@pytest.mark.parametrize("field", ["peak_flops", "hbm_bandwidth"])
def test_kernel_time_refuses_a_rate_too_small_to_price(field):
    """A rate that makes either roofline term inf is named, as the
    cluster config spells it."""
    hw = make_hw()
    hw = replace(hw, peak_flops={"bf16": 1e-300}) if field == "peak_flops" else replace(hw, hbm_bandwidth=1e-300)
    name = "peak_flops.bf16" if field == "peak_flops" else field
    with pytest.raises(ValueError, match=rf"^cluster\.{re.escape(name)} must be large enough to .* got 1e-300$"):
        kernel_time(1e12, 1e9, hw)


@pytest.mark.parametrize("kind", ["p2p", "allgather"])
@pytest.mark.parametrize("volume", [math.nan, math.inf, -1.0])
def test_collective_time_rejects_a_non_finite_volume(kind, volume):
    """Once a NaN or an infinite time."""
    with pytest.raises(ValueError, match=rf"^volume_bytes must be a finite number >= 0, got {volume!r}$"):
        collective_time(kind, volume, CommGroup(4, 1e-6, 1e9))


@pytest.mark.parametrize("latency, bandwidth, message", [
    (math.nan, 1e9, "latency must be a finite number in [0, 1], got nan"),
    (math.inf, 1e9, "latency must be a finite number in [0, 1], got inf"),
    (-1e-6, 1e9, "latency must be a finite number in [0, 1], got -1e-06"),
    (1e308, 1e9, "latency must be a finite number in [0, 1], got 1e+308"),
    (0.0, math.nan, "bandwidth must be a finite number > 0, got nan"),
    (0.0, math.inf, "bandwidth must be a finite number > 0, got inf"),
    (0.0, 0.0, "bandwidth must be a finite number > 0, got 0.0"),
])
def test_comm_group_rejects_a_bad_link(latency, bandwidth, message):
    """NaN latencies and bandwidths were once accepted, and a 1e308
    latency gave an infinite collective time."""
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        CommGroup(4, latency, bandwidth)


def test_kernel_time_is_max_of_bounds():
    hw = make_hw()
    # compute bound: 1e12 flops at 100 TFLOP/s = 10 ms, traffic tiny
    assert kernel_time(1e12, 1e6, hw) == pytest.approx(1e12 / 100e12)
    # bandwidth bound: 1e10 bytes at 1 TB/s = 10 ms, flops tiny
    assert kernel_time(1e6, 1e10, hw) == pytest.approx(1e10 / 1e12)


def test_kernel_time_efficiency_and_dtype():
    hw = make_hw(matmul_efficiency=0.5)
    assert kernel_time(1e12, 0, hw) == pytest.approx(1e12 / (100e12 * 0.5))
    # fp8 doubles the peak
    assert kernel_time(1e12, 0, hw, dtype_bytes=1) == pytest.approx(1e12 / (200e12 * 0.5))
    # the sheet's efficiency is the only one
    assert kernel_time(1e12, 0, replace(hw, matmul_efficiency=1.0)) == pytest.approx(1e12 / 100e12)


def test_world_size_and_tier_lookup():
    hw = make_hw()
    assert hw.world_size == 32
    lat, bw = hw.tier("intra_link")
    assert (lat, bw) == (1e-6, 100e9)
    lat, bw = hw.tier("inter_link")
    assert (lat, bw) == (5e-6, 20e9)


def test_peak_for_dtype_bytes():
    hw = make_hw()
    assert hw.peak_for_dtype_bytes(2) == 100e12
    assert hw.peak_for_dtype_bytes(1) == 200e12
    assert hw.peak_for_dtype_bytes(4) == 50e12
    assert make_hw(peak_flops={"fp16": 80e12}).peak_for_dtype_bytes(2) == 80e12


@pytest.mark.parametrize(
    "width, message",
    [
        (2, "peak_flops lists no 'bf16' or 'fp16' rate for the model's 2-byte dtype"),
        (4, "peak_flops lists no 'fp32' rate for the model's 4-byte dtype"),
        (3, "dtype_bytes must be one of 1, 2, 4, got 3"),
    ],
)
def test_a_dtype_the_cluster_cannot_price_is_a_value_error(width, message):
    """Once a KeyError, which the command line reported as a traceback."""
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make_hw(peak_flops={"fp8": 200e12}).peak_for_dtype_bytes(width)


def test_invalid_hardware_rejected():
    with pytest.raises(ValueError):
        make_hw(devices_per_node=0)
    with pytest.raises(ValueError):
        make_hw(peak_flops={})


@pytest.mark.parametrize("rate", [True, "x", None])
def test_peak_flops_rate_must_be_a_number(rate):
    """The Python API refuses what the JSON loader refuses, naming the dtype."""
    with pytest.raises(ValueError, match=r"^peak_flops\.fp8 must be a finite number > 0, got "):
        make_hw(peak_flops={"bf16": 100e12, "fp8": rate})


FLOAT_FIELDS = (
    "hbm_capacity", "hbm_bandwidth", "intra_node_bandwidth", "intra_node_latency", "inter_node_bandwidth",
    "inter_node_latency", "matmul_efficiency", "host_dispatch_time", "host_to_device_bandwidth",
)
# Each float field's bound as its errors state it: rates and capacities are
# positive, latencies at most 1 s, the efficiency at most 1.
BOUNDS = {
    **dict.fromkeys(FLOAT_FIELDS, "> 0"), "intra_node_latency": "in [0, 1]", "inter_node_latency": "in [0, 1]",
    "matmul_efficiency": "in (0, 1]", "host_dispatch_time": ">= 0",
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", FLOAT_FIELDS)
def test_non_finite_hardware_value_is_named(name, value):
    """NaN once turned the step into nan, or silently into another step
    (a nan latency) or into no host dispatch at all (a nan host time)."""
    with pytest.raises(ValueError, match=rf"^{name} must be a finite number {re.escape(BOUNDS[name])}, got {value}$"):
        make_hw(**{name: value})


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_non_finite_peak_flop_rate_is_named(value):
    with pytest.raises(ValueError, match=rf"^peak_flops\.bf16 must be a finite number > 0, got {value}$"):
        make_hw(peak_flops={"bf16": value})


@pytest.mark.parametrize("name", ["intra_node_latency", "inter_node_latency", "host_dispatch_time"])
def test_negative_delay_is_named(name):
    """A negative latency once failed only when an event was priced, in a
    message naming no field."""
    with pytest.raises(ValueError, match=rf"^{name} must be a finite number {re.escape(BOUNDS[name])}, got -0.001$"):
        make_hw(**{name: -1e-3})
    assert getattr(make_hw(**{name: 0.0}), name) == 0.0


@pytest.mark.parametrize("name", [f for f in FLOAT_FIELDS if "latency" not in f and f != "host_dispatch_time"])
def test_rates_and_capacities_must_be_positive(name):
    with pytest.raises(ValueError, match=rf"^{name} must be a finite number {re.escape(BOUNDS[name])}, got 0$"):
        make_hw(**{name: 0})


@pytest.mark.parametrize("name", ["intra_node_latency", "inter_node_latency"])
def test_link_latency_is_at_most_one_second(name):
    """At 1e308 s a collective's latency terms once summed to an infinite
    step; the ceiling sits far above any real link."""
    assert getattr(make_hw(**{name: 1.0}), name) == 1.0
    with pytest.raises(ValueError, match=rf"^{name} must be a finite number in \[0, 1\], got 1.5$"):
        make_hw(**{name: 1.5})


@pytest.mark.parametrize("name", ["devices_per_node", "num_nodes"])
@pytest.mark.parametrize("value", [2.5, 8.0, True, math.nan])
def test_device_counts_must_be_integers(name, value):
    """devices_per_node=2.5 was once accepted, and validate_plan on the
    reference plan then named the derived dp: "dp must be an integer, got
    15.0"."""
    with pytest.raises(ValueError, match=rf"^{name} must be an integer, got {re.escape(repr(value))}$"):
        make_hw(**{name: value})


@pytest.mark.parametrize("size", [2.5, 4.0, math.nan, math.inf, True, "4"])
def test_comm_group_size_must_be_an_integer(size):
    """A NaN or infinite size once priced a collective at NaN seconds, True
    at 0 s and 2.5 at 0.6 s; a string raised a bare TypeError."""
    with pytest.raises(ValueError, match=rf"^size must be an integer, got {re.escape(repr(size))}$"):
        CommGroup(size, 1e-6, 1e9)


def test_matmul_efficiency_at_most_one():
    with pytest.raises(ValueError, match=r"^matmul_efficiency must be a finite number in \(0, 1\], got 1.5$"):
        make_hw(matmul_efficiency=1.5)
