"""Rules for values read from outside: the one type rule for every settings
and record field, read from its dataclass annotation, and the one
JSON-lines reader."""

from __future__ import annotations

import functools
import json
import sys
from dataclasses import fields
from typing import Iterator


def is_int(value) -> bool:
    """An integer: 2.0 and True are not."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_number(value) -> bool:
    """A number a float holds finitely: True, "3", NaN, inf and 10**400 are not."""
    return (is_int(value) or isinstance(value, float)) and abs(value) <= sys.float_info.max


# Annotation -> (test, what the field must be, in a config author's words).
_RULES = {
    "int": (is_int, "an integer"),
    "float": (is_number, "a finite number"),
    "tuple[int, int]": (
        lambda v: isinstance(v, (tuple, list)) and len(v) == 2 and all(map(is_int, v)),
        "a list of two integers",
    ),
    "dict[str, float]": (
        lambda v: isinstance(v, dict) and all(map(is_number, v.values())),
        "an object of finite numbers",
    ),
    "str": (lambda v: isinstance(v, str), "a string"),
    "str | None": (lambda v: v is None or isinstance(v, str), "a string or null"),
    "bool": (lambda v: isinstance(v, bool), "true or false"),
}


@functools.cache
def _ruled_fields(cls) -> tuple:
    """(name, test, what) for each field of a dataclass that has a rule, in field order."""
    return tuple((f.name, *_RULES[f.type]) for f in fields(cls) if f.type in _RULES)


def check_types(instance) -> None:
    """Raise ValueError naming the first field of a dataclass that breaks the
    rule for its annotation string (the package postpones them); settings
    and record classes call this first in __post_init__, then check ranges."""
    for name, test, what in _ruled_fields(type(instance)):
        value = getattr(instance, name)
        if not test(value):
            raise ValueError(f"{name} must be {what}, got {value!r}")


def json_lines(path) -> Iterator[tuple[str, object]]:
    """Yield ("<path>: line N", value) for each nonblank line of a JSON-lines
    file; a line that is not UTF-8 or not JSON raises ValueError naming it.
    Callers prefix the first item to their own record errors."""
    # Undecodable bytes come through as lone surrogates, so the bad line can be named.
    with open(path, encoding="utf-8", errors="surrogateescape") as handle:
        for line_number, line in enumerate(handle, start=1):
            where = f"{path}: line {line_number}"
            try:
                line.encode("utf-8", "surrogateescape").decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ValueError(f"{where}: not valid UTF-8: {exc}") from None
            if not line.strip():
                continue
            try:
                value = json.loads(line)
            except (json.JSONDecodeError, RecursionError) as exc:
                raise ValueError(f"{where}: invalid JSON: {exc}") from None
            yield where, value
