"""The input rules: an integer, a finite number, a seed, a flag, a choice, a bitstring and counts, each written once.

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


def is_bits(text: str) -> bool:
    """True when ``text`` holds only "0" and "1" characters; one scan of a joined string checks many keys."""
    return not text.encode().translate(None, b"01")


def bitstring(value, name: str, width: int | None = None) -> str:
    """``value`` if it is a non-empty string of "0" and "1", exactly ``width`` characters when given."""
    if not (isinstance(value, str) and value and (width is None or len(value) == width)
            and is_bits(value)):
        wide = "" if width is None else f" {width}-character"
        raise ValueError(f"{name} must be a{wide} bitstring of 0 and 1, got {value!r}")
    return value


def counts(value: dict, name: str, width: int | None = None) -> int:
    """The shots of ``value``, a bitstring histogram: the sum, as an int, of its counts.

    Each count is an integer >= 0; numpy counts are summed as Python
    ints, so no dtype wraps. When ``width`` is given, each key is a
    bitstring of that width. There must be a shot. A message names the
    key it refuses. Each scan but the counts' runs in C.
    """
    exact = True
    for key, count in value.items():
        if type(count) is not int or count < 0:
            integer(count, f"{name}[{key!r}]", 0)
            exact = False  # a numpy integer
    shots = sum(value.values()) if exact else sum(map(int, value.values()))
    if width is not None:
        try:
            fit = width > 0 and set(map(len, value)) <= {width} and is_bits("".join(value))
        except TypeError:  # a key that is no string
            fit = False
        if not fit:
            for key in value:
                bitstring(key, f"{name}[{key!r}]", width)
    if shots < 1:
        raise ValueError(f"{name} carry no shots")
    return shots


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
