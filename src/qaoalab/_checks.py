"""The input rules: an integer, a finite number, a seed, a flag and a choice, each written once.

A rule returns the value (an integer, number or flag as a plain int,
float or bool), or raises a ValueError whose message starts with
``name``. A bool is never an integer or a number. This module imports
nothing from the package.
"""

from __future__ import annotations

import math
from numbers import Integral, Real


def _span(lo, hi) -> str:
    return "" if lo is None else f" >= {lo}" if hi is None else f" in [{lo}, {hi}]"


def is_integer(value) -> bool:
    """True for a Python or numpy integer, not a bool; a plain int skips the ABC checks."""
    return type(value) is int or (isinstance(value, Integral) and not isinstance(value, bool))


def integer(value, name: str, lo: int | None = None, hi: int | None = None) -> int:
    """``value`` as an int within the inclusive bounds ``lo`` and ``hi``."""
    if not (is_integer(value) and (lo is None or value >= lo) and (hi is None or value <= hi)):
        raise ValueError(f"{name} must be an integer{_span(lo, hi)}, got {value!r}")
    return int(value)


def real(value, name: str, lo=None, hi=None) -> float:
    """``value`` as a finite float within the inclusive bounds; a string is no number."""
    number = math.nan
    if type(value) is float or (isinstance(value, Real) and not isinstance(value, bool)):
        try:
            number = float(value)
        except OverflowError:  # an integer beyond the float range
            number = math.inf
    if not (math.isfinite(number) and (lo is None or number >= lo)
            and (hi is None or number <= hi)):
        raise ValueError(f"{name} must be a finite number{_span(lo, hi)}, got {value!r}")
    return number


def seed(value, name: str = "seed") -> int:
    """``value`` as an int in [0, 2**64): the RNG keeps a seed's low 64 bits only."""
    if not (is_integer(value) and 0 <= int(value) < 2**64):
        raise ValueError(f"{name} must be an integer in [0, 2**64), got {value!r}")
    return int(value)


def flag(value, name: str) -> bool:
    if value is not True and value is not False:
        raise ValueError(f"{name} must be true or false, got {value!r}")
    return value


def one_of(value, choices, name: str):
    """``value`` if it equals one of ``choices``; an unhashable value (a list, an array) is none."""
    try:
        hash(value)
        found = value in choices
    except TypeError:
        found = False
    if not found:
        raise ValueError(f"{name} must be one of {choices}, got {value!r}")
    return value
