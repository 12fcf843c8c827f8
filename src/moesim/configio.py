"""Strict JSON loading for the public config formats.

Every loader maps a JSON object onto a frozen dataclass and rejects keys
the dataclass does not declare, so a typo fails loudly with the offending
path instead of silently falling back to a default. The dataclass's type
hints are the one declaration of each field's kind: a dataclass hint is a
nested object, a dict hint an object whose values have the declared type,
a tuple hint takes a JSON array, and every value must have its field's
JSON type (integers for counts, so `8.0` is rejected; `true` only where
the field is a bool). A design space's candidates must have the type of
the model field they replace. NaN, infinities and literals too large for
a float are rejected anywhere, and every error names the dotted path.
"""

from __future__ import annotations

import dataclasses
import json
import math
import typing

from .balance import TraceSpec
from .cluster import HardwareDescription
from .errors import ParseError
from .model import DesignSpace, ModelConfig, range_kinds
from .parallel import ParallelPlan

# The JSON values each declared field type accepts, and how errors name them.
_JSON_TYPES = {
    bool: (bool, "true or false"),
    int: (int, "an integer"),
    float: ((int, float), "a number"),
    str: (str, "a string"),
    dict: (dict, "an object"),
    list: (list, "an array"),
    tuple: (list, "an array"),
}
_JSON_NAMES = {bool: "a boolean", type(None): "null", str: "a string", list: "an array", dict: "an object"}


def _reject_non_finite(value, path: str) -> None:
    if isinstance(value, float) and not math.isfinite(value):
        raise ParseError(f"{path} must be a finite number, got {value}")
    if isinstance(value, (dict, list)):
        for key, item in value.items() if isinstance(value, dict) else enumerate(value):
            _reject_non_finite(item, f"{path}.{key}")


def _field_value(hint, value, path: str):
    """Check one JSON value against its field's type hint and convert it."""
    if dataclasses.is_dataclass(hint):
        return _build(hint, value, path)
    _reject_non_finite(value, path)
    args = typing.get_args(hint)
    kind, *optional = (dict,) if typing.get_origin(hint) is dict else args or (hint,)
    if value is None and optional == [type(None)]:
        return None
    if isinstance(value, bool) and kind in (int, float):
        raise ParseError(f"{path} must be a number, got a boolean")
    accepted, expected = _JSON_TYPES[kind]
    if not isinstance(value, accepted):
        raise ParseError(f"{path} must be {expected}, got {_JSON_NAMES.get(type(value), value)}")
    if kind is dict and args:
        return {key: _field_value(args[1], item, f"{path}.{key}") for key, item in value.items()}
    return tuple(value) if kind is tuple else value


def _build(cls, data, where: str, check=None):
    """The dataclass `cls` from a JSON object; ``check(kwargs, where)``, if
    given, runs on the checked fields just before construction."""
    if not isinstance(data, dict):
        raise ParseError(f"{where} must be an object, got {type(data).__name__}")
    hints = typing.get_type_hints(cls)
    kwargs = {}
    for key, value in data.items():
        if key not in hints:
            raise ParseError(f"unknown field {where}.{key}")
        kwargs[key] = _field_value(hints[key], value, f"{where}.{key}")
    for f in dataclasses.fields(cls):
        if f.name not in data and f.default is f.default_factory is dataclasses.MISSING:
            raise ParseError(f"{where}.{f.name} is required")
    try:
        if check:
            check(kwargs, where)
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


def _check_candidates(kwargs, where: str) -> None:
    """A design space's candidates against the field each replaces, before
    DesignSpace checks them in errors that name no JSON path."""
    for name, kind in range_kinds(kwargs["ranges"]).items():
        for i, value in enumerate(kwargs["ranges"][name]):
            _field_value(kind, value, f"{where}.ranges.{name}.{i}")


def load_space(path) -> DesignSpace:
    return _build(DesignSpace, _read_json(path), "space", _check_candidates)


def load_trace_spec(path) -> TraceSpec:
    return _build(TraceSpec, _read_json(path), "trace_spec")
