"""MaxCut instances: cut evaluation, a brute-force oracle, and edge-list text I/O.

Assignments are bitstrings whose leftmost character is node 0. The same
ordering is used for statevector basis indices, so ``cut_value_table``
can be consumed directly as a diagonal observable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import _checks

# Exhaustive enumeration and dense simulation share this ceiling.
ENUMERATION_LIMIT = 24


class ParseError(ValueError):
    """Malformed edge-list text; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class CapacityError(ValueError):
    """Instance too large for exhaustive enumeration."""


def _check_edge(n: int, edge, weight, seen: set[tuple[int, int]]) -> tuple[int, int]:
    """The rules for one edge of an n-node graph; returns its (min, max) key, added to ``seen``.

    Both endpoints are integers (``_checks.integer``) in 0..n-1, the
    edge is no self-loop and no repeat of an edge in ``seen``, and its
    weight is a finite number (``_checks.real``).
    """
    try:
        u, v = edge
    except (TypeError, ValueError):
        raise ValueError(f"edge {edge!r} is not a pair") from None
    u, v = (_checks.integer(node, f"endpoint {node!r} of edge {edge!r}") for node in (u, v))
    if not (0 <= u < n) or not (0 <= v < n):
        raise ValueError(f"edge {edge!r} references a node outside 0..{n - 1}")
    if u == v:
        raise ValueError(f"self-loop on node {u}")
    key = (min(u, v), max(u, v))
    if key in seen:
        raise ValueError(f"duplicate edge {key}")
    _checks.real(weight, f"weight of edge {key}")
    seen.add(key)
    return key


@dataclass(frozen=True)
class MaxCutInstance:
    """Undirected weighted graph on nodes 0..n-1.

    Edges are stored as (min, max) pairs and must be unique after that
    normalization; weights align with edges and default to 1.0 each.
    Each weight is a finite number, and so is the sum of their absolute
    values (``math.fsum``), so no cut value overflows.
    """

    n: int
    edges: tuple[tuple[int, int], ...]
    weights: tuple[float, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "n", _checks.integer(self.n, "node count", 1))
        _checks.sequence(self.edges, "edges")
        weights = _checks.sequence(self.weights, "weights") or (1.0,) * len(self.edges)
        if len(weights) != len(self.edges):
            raise ValueError(f"{len(weights)} weights for {len(self.edges)} edges")
        seen: set[tuple[int, int]] = set()
        edges = tuple(_check_edge(self.n, e, w, seen) for e, w in zip(self.edges, weights))
        weights = tuple(float(w) for w in weights)
        try:
            math.fsum(map(abs, weights))  # raises where the exact sum passes the float range
        except OverflowError:
            raise ValueError("weights must have a finite total |weight|, so that no cut "
                             "overflows; theirs passes the float range") from None
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "weights", weights)


def cut_value(instance: MaxCutInstance, assignment: str) -> float:
    """Total weight of edges whose endpoints land on opposite sides."""
    _checks.of_type(instance, MaxCutInstance, "instance")
    _checks.bitstring(assignment, "assignment", instance.n)
    total = 0.0
    for (u, v), w in zip(instance.edges, instance.weights):
        if assignment[u] != assignment[v]:
            total += w
    return total


@lru_cache(maxsize=128)
def cut_value_table(instance: MaxCutInstance) -> np.ndarray:
    """Cut value for every basis index 0..2^n-1, leftmost bit = node 0.

    Each edge (u, v), u < v, adds its weight in place to the two
    quarters of the table where bits u and v differ, read on its
    (2^u, 2, 2^(v-u-1), 2, 2^(n-1-v)) view, so no index array or
    per-edge temporary is made. Every entry sums its cut edges' weights
    in edge order, each a plain float add. Cached per instance; the
    returned array is read-only.
    """
    n = instance.n
    if n > ENUMERATION_LIMIT:
        raise CapacityError(
            f"n={n} exceeds the enumeration limit of {ENUMERATION_LIMIT}"
        )
    table = np.zeros(1 << n)
    for (u, v), w in zip(instance.edges, instance.weights):
        view = table.reshape(1 << u, 2, 1 << (v - u - 1), 2, 1 << (n - 1 - v))
        view[:, 0, :, 1] += w
        view[:, 1, :, 0] += w
    table.flags.writeable = False
    return table


def cut_levels(instance: MaxCutInstance) -> tuple[np.ndarray, np.ndarray]:
    """The first half of ``cut_value_table`` as (levels, index): its distinct values, and each entry's position.

    The half is the 2^(n-1) entries with node 0 = 0. A complement has the
    same cut value, so the levels are every distinct value of the whole
    table, and the half reversed is the second half: ``levels[index]``
    is the first half. A function of the cut value needs evaluating only
    at the levels, which are few for small integer weights (17 on a
    3-regular 14-node graph). The pair is ``np.unique(half,
    return_inverse=True)``, found from one argsort of the half: its
    sorted values give the levels, where a value differs from the one
    before it, and each value's place among them, searched in ascending
    order. At most three arrays of the half's size are alive at once,
    besides the table and the levels. The arrays are read-only, so a
    caller may cache and share them.
    """
    half = cut_value_table(instance)[:1 << (instance.n - 1)]
    order = np.argsort(half)
    ordered = half[order]
    levels = ordered[np.concatenate(([True], ordered[1:] != ordered[:-1]))]
    places = np.searchsorted(levels, ordered)
    del ordered  # freed before the index is made
    index = np.empty_like(order)
    index[order] = places
    levels.flags.writeable = False
    index.flags.writeable = False
    return levels, index


@lru_cache(maxsize=128)
def cut_peak(instance: MaxCutInstance) -> float:
    """The largest |cut value| of ``instance``, found once per instance (cached)."""
    return float(np.abs(cut_value_table(instance)).max())


def brute_force_maxcut(instance: MaxCutInstance) -> tuple[float, set[str]]:
    """Exhaustive optimum: (max cut value, set of all optimal assignments).

    Complement pairs always appear together. Raises CapacityError above
    the enumeration limit. Ties are exact float ties, which is safe here
    because complements sum the same weights in the same order.
    """
    _checks.of_type(instance, MaxCutInstance, "instance")
    table = cut_value_table(instance)
    best = float(table.max())
    width = instance.n
    optima = {format(i, f"0{width}b") for i in np.flatnonzero(table == best)}
    return best, optima


def canonical_instance() -> MaxCutInstance:
    """The 5-node complete bipartite benchmark graph K_{2,3}.

    All six unit edges between parts {0, 1, 2} and {3, 4}; max cut 6,
    attained exactly at 00011 and 11100.
    """
    return MaxCutInstance(
        n=5,
        edges=((0, 3), (0, 4), (1, 3), (1, 4), (2, 3), (2, 4)),
    )


# ---------------------------------------------------------------------------
# edge-list text format
# ---------------------------------------------------------------------------
# Line 1: node count. Each further line: "u v" or "u v weight".
# '#' starts a comment; blank lines are ignored.


def parse_edge_list(text: str) -> MaxCutInstance:
    """Parse edge-list text; raise ParseError with a line number on bad input."""
    _checks.of_type(text, str, "text")
    n = None
    edges: list[tuple[int, int]] = []
    weights: list[float] = []
    seen: set[tuple[int, int]] = set()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if n is None:
            if len(tokens) != 1:
                raise ParseError(line_no, f"expected a single node count, got {raw.strip()!r}")
            try:
                n = int(tokens[0])
            except ValueError:
                raise ParseError(line_no, f"node count {tokens[0]!r} is not an integer") from None
            if n < 1:
                raise ParseError(line_no, f"node count must be positive, got {n}")
            continue
        if len(tokens) not in (2, 3):
            raise ParseError(line_no, f"expected 'u v' or 'u v weight', got {raw.strip()!r}")
        try:
            u, v = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise ParseError(line_no, f"endpoints {tokens[0]!r} {tokens[1]!r} must be integers") from None
        weight = 1.0
        if len(tokens) == 3:
            try:
                weight = float(tokens[2])
            except ValueError:
                raise ParseError(line_no, f"weight {tokens[2]!r} is not a number") from None
        try:
            edges.append(_check_edge(n, (u, v), weight, seen))
        except ValueError as exc:
            raise ParseError(line_no, str(exc)) from None
        weights.append(weight)
    if n is None:
        raise ParseError(1, "empty input: missing node count")
    return MaxCutInstance(n=n, edges=tuple(edges), weights=tuple(weights))


def serialize_edge_list(instance: MaxCutInstance) -> str:
    """Inverse of parse_edge_list; unit weights are omitted."""
    _checks.of_type(instance, MaxCutInstance, "instance")
    lines = [str(instance.n)]
    for (u, v), w in zip(instance.edges, instance.weights):
        if w == 1.0:
            lines.append(f"{u} {v}")
        else:
            lines.append(f"{u} {v} {w!r}")
    return "\n".join(lines) + "\n"
