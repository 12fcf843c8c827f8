"""What every input record accepts: each field's declared kind and bound,
and the one check that refuses a value outside them.

A field's kind is its type hint: `int`, `float`, `bool`, `str`, a record,
or a container (`dict`, `tuple`, `frozenset`); `float | None` admits None.
A number's bound is declared next to the field, as `bounded(">= 1")` or
`bounded("in (0, 1]")`, and a float must be finite besides. Each record's
`__post_init__` calls `check_fields` before the rules that compare its
fields; the check reads a class's declarations once, on first use. It
refuses a value of another kind (a bool where a number is declared), a
float that is not finite, and a number outside its bound, raising a
`FieldError` that names the field, so the JSON loader can put the path in
front of it.
"""

from __future__ import annotations

import functools
import math
import re
import typing
from dataclasses import field, fields

from .errors import FieldError

_NOUNS = {int: "an integer", float: "a finite number", bool: "true or false", str: "a string"}
_BOUND = re.compile(r"(>=?) (\S+)|in ([\[(])(\S+), (\S+)([\])])")


def parse_bound(text: str) -> tuple:
    """(text, low, low excluded, high, high excluded) of a bound written as
    ">= 1", "> 0" or "in (0, 1]"; the empty text bounds nothing."""
    if not text:
        return "", -math.inf, True, math.inf, True
    m = _BOUND.fullmatch(text)
    if m[1]:
        return " " + text, float(m[2]), m[1] == ">", math.inf, True
    return " " + text, float(m[4]), m[3] == "(", float(m[5]), m[6] == ")"


def bounded(bound: str, **kwargs):
    """A dataclass field whose number must lie within ``bound``."""
    return field(metadata={"bound": bound}, **kwargs)


@functools.cache
def declared(cls) -> dict:
    """Each field of the record class ``cls``, by name: its kind, whether
    None is admitted, and its parsed bound, read once per class."""
    hints, rules = typing.get_type_hints(cls), {}
    for f in fields(cls):
        args = typing.get_args(hints[f.name])
        optional = type(None) in args
        kind = args[0] if optional else typing.get_origin(hints[f.name]) or hints[f.name]
        rules[f.name] = (kind, optional, parse_bound(f.metadata.get("bound", "")))
    return rules


def require(name, value, kind, bound: tuple, prefix: str = "") -> None:
    """Raise FieldError unless ``value`` is a ``kind`` within the parsed
    ``bound``. ``name`` is the string the error names, or a function
    spelling it; ``prefix`` goes before it in the message. A float's error
    always states its bound, an integer's only when the value is one."""
    text, low, low_open, high, high_open = bound
    if isinstance(value, bool) and kind is not bool or not isinstance(value, (int, float) if kind is float else kind):
        problem = f"must be {_NOUNS.get(kind) or 'of type ' + kind.__name__}{text if kind is float else ''}"
    elif (kind is int or kind is float) and not (
        (low < value if low_open else low <= value) and (value < high if high_open else value <= high)
    ):
        problem = f"must be {_NOUNS[kind]}{text}"
    else:
        return
    raise FieldError(name() if callable(name) else name, f"{problem}, got {value!r}", prefix)


def check_fields(record, prefix: str = "") -> None:
    """Refuse the first field of ``record`` whose value is not of its
    declared kind within its bound."""
    for name, (kind, optional, bound) in declared(type(record)).items():
        value = getattr(record, name)
        if value is not None or not optional:
            require(name, value, kind, bound, prefix)


UNBOUNDED = parse_bound("")
_AT_LEAST_ZERO = parse_bound(">= 0")


def _require_nonnegative(name, value) -> None:
    """The rule for a float argument that is no field: finite and >= 0."""
    require(name, value, float, _AT_LEAST_ZERO)
