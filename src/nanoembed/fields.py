"""The one type rule for every settings field, read from its dataclass annotation."""

from __future__ import annotations

import sys
from dataclasses import fields


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
}


def check_types(settings) -> None:
    """Raise ValueError naming the first field of a settings dataclass that
    breaks the rule for its annotation string (the package postpones them);
    settings classes call this first in __post_init__, then check ranges."""
    for f in fields(settings):
        if f.type in _RULES:
            test, what = _RULES[f.type]
            value = getattr(settings, f.name)
            if not test(value):
                raise ValueError(f"{f.name} must be {what}, got {value!r}")
