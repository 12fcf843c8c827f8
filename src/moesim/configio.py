"""Strict JSON loading for the public config formats.

Every loader maps a JSON object onto a frozen dataclass and rejects keys
the dataclass does not declare, so a typo fails loudly with the offending
path instead of silently falling back to a default. Booleans are rejected
where numbers are expected (JSON `true` is not a count), as are NaN,
infinities and literals too large for a float, and nested objects
recurse with a dotted path in error messages.
"""

from __future__ import annotations

import dataclasses
import json
import math

from .balance import TraceSpec
from .cluster import HardwareDescription
from .errors import ParseError
from .model import DesignSpace, MlaDims, ModelConfig, PruningRules
from .parallel import ParallelPlan

_NESTED = {
    "mla": MlaDims,
    "pruning": PruningRules,
    "base": ModelConfig,
}

_TUPLE_FIELDS = {"task_mix"}

_BOOL_FIELDS = {
    PruningRules: ("expert_count_power_of_two",),
}


def _reject_non_finite(value, path: str) -> None:
    if isinstance(value, float) and not math.isfinite(value):
        raise ParseError(f"{path} must be a finite number, got {value}")
    if isinstance(value, (dict, list)):
        for key, item in value.items() if isinstance(value, dict) else enumerate(value):
            _reject_non_finite(item, f"{path}.{key}")


def _build(cls, data, where: str):
    if not isinstance(data, dict):
        raise ParseError(f"{where} must be an object, got {type(data).__name__}")
    declared = {f.name: f for f in dataclasses.fields(cls)}
    kwargs = {}
    for key, value in data.items():
        if key not in declared:
            raise ParseError(f"unknown field {where}.{key}")
        path = f"{where}.{key}"
        if key in _NESTED and isinstance(value, dict):
            kwargs[key] = _build(_NESTED[key], value, path)
            continue
        _reject_non_finite(value, path)
        if isinstance(value, bool) and key not in _BOOL_FIELDS.get(cls, ()):
            raise ParseError(f"{path} must be a number, got a boolean")
        if isinstance(value, list) and key in _TUPLE_FIELDS:
            value = tuple(value)
        kwargs[key] = value
    try:
        return cls(**kwargs)
    except TypeError as exc:
        raise ParseError(f"{where}: {exc}") from exc
    except ValueError as exc:
        raise ParseError(f"{where}: {exc}") from exc


def _read_json(path) -> dict:
    with open(path) as fh:
        text = fh.read()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON: {exc}") from exc


def load_model(path) -> ModelConfig:
    return _build(ModelConfig, _read_json(path), "model")


def load_cluster(path) -> HardwareDescription:
    return _build(HardwareDescription, _read_json(path), "cluster")


def load_plan(path) -> ParallelPlan:
    return _build(ParallelPlan, _read_json(path), "plan")


def load_space(path) -> DesignSpace:
    data = _read_json(path)
    if "base" not in data:
        raise ParseError("space.base is required")
    return _build(DesignSpace, data, "space")


def load_trace_spec(path) -> TraceSpec:
    return _build(TraceSpec, _read_json(path), "trace_spec")
