"""Strict JSON loading for the public config formats.

Every loader maps a JSON object onto a frozen dataclass and rejects keys
the dataclass does not declare, so a typo fails loudly with the offending
path instead of silently falling back to a default; a missing required
field is rejected too. The loader only converts JSON types: an object in a
field declared as a record becomes that record, an array in a tuple field
a tuple (a dict field takes an object), and every other value goes to the
record as JSON gave it. The
records refuse what they cannot hold, from JSON and from Python alike:
each declares its fields' kinds and bounds (see `moesim.records`), so
`8.0` in a count, `true` in a number, and NaN, infinities or a literal too
large for a float in any number are refused there. The loader puts the
dotted path of the record in front of the field the error names.
"""

from __future__ import annotations

import dataclasses
import json

from .balance import TraceSpec
from .cluster import HardwareDescription
from .errors import FieldError, ParseError
from .model import DesignSpace, ModelConfig
from .parallel import ParallelPlan
from .records import declared


def _build(cls, data, where: str):
    """The record ``cls`` from a JSON object found at path ``where``."""
    if not isinstance(data, dict):
        raise ParseError(f"{where} must be an object, got {type(data).__name__}")
    kinds = declared(cls)
    kwargs = {}
    for key, value in data.items():
        if key not in kinds:
            raise ParseError(f"unknown field {where}.{key}")
        kind = kinds[key][0]
        if dataclasses.is_dataclass(kind):
            value = _build(kind, value, f"{where}.{key}")
        elif kind is dict or kind is tuple:
            json_type, noun = (dict, "an object") if kind is dict else (list, "an array")
            if not isinstance(value, json_type):
                raise ParseError(f"{where}.{key} must be {noun}, got {type(value).__name__}")
            value = tuple(value) if kind is tuple else value
        kwargs[key] = value
    for f in dataclasses.fields(cls):
        if f.name not in data and f.default is f.default_factory is dataclasses.MISSING:
            raise ParseError(f"{where}.{f.name} is required")
    try:
        return cls(**kwargs)
    except FieldError as exc:
        raise ParseError(f"{where}.{exc.name} {exc.problem}") from exc
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
    return _build(DesignSpace, _read_json(path), "space")


def load_trace_spec(path) -> TraceSpec:
    return _build(TraceSpec, _read_json(path), "trace_spec")
