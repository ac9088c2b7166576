"""The input rules: an integer, a finite number, a real array, a seed, a flag, a choice, a bitstring, counts, a type, a sequence and a text file, each written once.

A rule returns the value (an integer, number or flag as a plain int,
float or bool, a real array as a float array, a file as its text), or
raises a ValueError whose message starts with ``name``. A bool is never
an integer or a number.
This module imports nothing from the package.
"""

from __future__ import annotations

import math
import os
from collections.abc import Sequence
from numbers import Integral, Real

import numpy as np


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


def real_array(value, name: str) -> np.ndarray:
    """``value`` as a float array, if it is an array or nesting of integers and floats.

    A complex, bool, string or object array is no real array: a float
    conversion would drop an imaginary part or read "1.5" as a number.
    Its shape and values are the caller's to check.
    """
    try:
        array = np.asarray(value)
    except ValueError:  # a ragged nesting
        array = np.asarray(None)
    if array.dtype.kind not in "iuf":
        raise ValueError(f"{name} must be an array of real numbers, got {value!r}")
    return array.astype(float, copy=False)


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
    ints, so no dtype wraps. Each key is a string, and when ``width`` is
    given, a bitstring of that width. There must be a shot. A message
    names the key it refuses. Each scan but the counts' runs in C.
    """
    if not isinstance(value, dict):
        raise ValueError(f"{name} must be a dict of bitstring counts, got {value!r}")
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
    elif not set(map(type, value)) <= {str}:
        for key in value:
            if not isinstance(key, str):
                raise ValueError(f"{name}[{key!r}] must be keyed by a string, got {key!r}")
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


def of_type(value, cls, name: str):
    """``value`` if it is an instance of ``cls``, a class or a tuple of them.

    The one rule for a package object that enters (a circuit, an op, a
    noise config, an instance, angles, an experiment config) and for a
    plain ``str``, set, tuple or list: the object checked its own fields
    when it was built.
    """
    if not isinstance(value, cls):
        names = " or ".join(c.__name__ for c in (cls if isinstance(cls, tuple) else (cls,)))
        article = "an" if names[0] in "AEIOU" else "a"
        raise ValueError(f"{name} must be {article} {names}, got {value!r}")
    return value


def sequence(value, name: str):
    """``value`` if it is a list, tuple or other sequence, or an array of one or more dimensions; no string."""
    if isinstance(value, (str, bytes)) or not isinstance(value, Sequence) and getattr(value, "ndim", 0) < 1:
        raise ValueError(f"{name} must be a sequence, got {value!r}")
    return value


def text_file(path, name: str) -> str:
    """The UTF-8 text of the regular file that ``path``, a str or os.PathLike, names.

    The one rule for a file that enters: a config, a graph, counts or a
    trace. The text keeps its line ends as written. A message names the
    path it refuses: one that is missing, one that is no regular file
    (a directory, a pipe), or bytes that are not UTF-8. Any other OS
    error, such as a file that may not be read, is raised as it is.
    """
    if not isinstance(path, (str, os.PathLike)):
        raise ValueError(f"{name} must be a string path, got {path!r}")
    if not os.path.isfile(path):
        raise ValueError(f"{name} {'not a file' if os.path.exists(path) else 'not found'}: {path}")
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{name} not UTF-8 text: {path} ({exc.reason})") from None
