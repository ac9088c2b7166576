"""Standalone SVG renderings of counts histograms and optimization traces.

Output is plain hand-assembled SVG so results can be checked
structurally: probability bars are <rect class="bar"> (solution
bitstrings get class="bar solution"), trace curves are
<polyline class="series"> with one <text class="label"> per series.
Titles and series names are XML-escaped, and bars are keyed by
bitstrings, so every rendering parses as XML.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
from pathlib import Path

from . import _checks
from .graph import brute_force_maxcut, parse_edge_list

_WIDTH = 720
_HEIGHT = 440
_MARGIN_L = 64
_MARGIN_R = 24
_MARGIN_T = 40
_MARGIN_B = 96
_PLOT_W = _WIDTH - _MARGIN_L - _MARGIN_R
_PLOT_H = _HEIGHT - _MARGIN_T - _MARGIN_B
_BASE_Y = _MARGIN_T + _PLOT_H
# the x and y axes of every chart
_AXES = [
    f'<line class="axis" x1="{_MARGIN_L}" y1="{_BASE_Y:.2f}" x2="{_WIDTH - _MARGIN_R}" y2="{_BASE_Y:.2f}"/>',
    f'<line class="axis" x1="{_MARGIN_L}" y1="{_MARGIN_T}" x2="{_MARGIN_L}" y2="{_BASE_Y:.2f}"/>',
]


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _svg(body: list[str]) -> str:
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">\n'
        '<style>text{font-family:sans-serif;font-size:11px}'
        ".bar{fill:#4878a8}.bar.solution{fill:#d9542b}"
        ".series{fill:none;stroke-width:1.5}.axis{stroke:#333;stroke-width:1}"
        "</style>\n"
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>\n'
    )
    return head + "\n".join(body) + "\n</svg>\n"


def render_histogram(counts: dict[str, int], highlight: frozenset[str] | set[str] = frozenset(), title: str = "") -> str:
    """Probability bars (count over the counts' sum) per bitstring, lexicographic order, highlights flagged.

    The counts are checked by the histogram rule (``_checks.counts``) as
    a counts file's are: keys are bitstrings as wide as the first, and a
    histogram with no shots is refused. ``highlight`` is a set of keys
    and ``title`` a string (``_checks.of_type``).
    """
    _checks.of_type(highlight, (set, frozenset), "highlight")
    _checks.of_type(title, str, "title")
    return _histogram(counts, _checks.counts(counts, "counts"), highlight, title)


def _histogram(counts: dict[str, int], shots: int, highlight, title: str) -> str:
    """The SVG of checked counts that sum to ``shots`` >= 1.

    A histogram can carry thousands of bars but few distinct counts, so
    a bar's y and height are formatted once per count and each bar is
    one format of its class, x, label x and key.
    """
    from xml.sax.saxutils import escape  # loaded on first use: it imports urllib.request

    items = sorted(counts.items())
    y_max = max(counts.values()) / shots * 1.1  # division keeps order: the largest probability
    slot = _PLOT_W / len(items)
    bar_w = slot * 0.8
    body = []
    if title:
        body.append(f'<text x="{_WIDTH / 2:.1f}" y="20" text-anchor="middle">{escape(title)}</text>')
    body += _AXES
    for tick in (0.25, 0.5, 0.75, 1.0):
        v = tick * y_max
        y = _BASE_Y - tick * _PLOT_H
        body.append(f'<line class="axis" x1="{_MARGIN_L - 4}" y1="{_fmt(y)}" x2="{_MARGIN_L}" y2="{_fmt(y)}"/>')
        body.append(f'<text x="{_MARGIN_L - 8}" y="{_fmt(y + 4)}" text-anchor="end">{v:.3f}</text>')
    heights = {}  # count -> the bar's y, width and height attributes
    for c in set(counts.values()):
        h = c / shots / y_max * _PLOT_H
        heights[c] = f'{_BASE_Y - h:.2f}" width="{_fmt(bar_w)}" height="{h:.2f}'
    label_y = _fmt(_BASE_Y + 12)
    bar = ('<rect class="%s" x="%.2f" y="%s"/>\n'
           f'<text x="%.2f" y="{label_y}" text-anchor="end" transform="rotate(-60 %.2f {label_y})">%s</text>')
    gap, half = (slot - bar_w) / 2, bar_w / 2
    for i, (key, c) in enumerate(items):
        x = _MARGIN_L + i * slot + gap
        body.append(bar % ("bar solution" if key in highlight else "bar", x, heights[c],
                           x + half, x + half, key))
    body.append(
        f'<text x="{_MARGIN_L - 48}" y="{_MARGIN_T - 12}">probability</text>'
    )
    return _svg(body)


def _read_counts(counts_path) -> tuple[dict[str, int], int, frozenset[str]]:
    """The bitstring counts of a counts JSON file, its shots, and its instance's optima if any.

    ``shots`` is an integer >= 1, and the counts pass the histogram rule
    (``_checks.counts``: integers >= 0, no bool or float, keys bitstrings
    as wide as the first) and sum to ``shots``. The instance, when given,
    is edge-list text of a graph with a node per bit of a key. A
    ValueError names the file and the field it refuses.
    """
    try:
        payload = json.loads(_checks.text_file(counts_path, "counts file:"))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{counts_path}: not valid JSON ({exc})") from None
    if not isinstance(payload, dict) or not isinstance(payload.get("counts"), dict):
        raise ValueError(f"{counts_path}: counts must be an object of bitstring counts")
    tally = payload["counts"]
    shots = _checks.integer(payload.get("shots"), f"{counts_path}: shots", 1)
    total = _checks.counts(tally, f"{counts_path}: counts")
    if total != shots:
        raise ValueError(f"{counts_path}: shots is {shots}, but the counts sum to {total}")
    instance = payload.get("instance")
    if instance is None:
        return tally, shots, frozenset()
    if not isinstance(instance, str):
        raise ValueError(f"{counts_path}: instance must be edge-list text, got {instance!r}")
    try:
        graph = parse_edge_list(instance)
        width = len(next(iter(tally)))
        if graph.n != width:
            raise ValueError(f"{graph.n} nodes, but the counts are keyed by {width} bits")
        return tally, shots, frozenset(brute_force_maxcut(graph)[1])
    except ValueError as exc:
        raise ValueError(f"{counts_path}: instance: {exc}") from None


def plot_histogram(counts_path) -> str:
    """Render the histogram for a counts JSON file, checked once, by ``_read_counts``.

    When the file carries its instance, the brute-force optima are
    highlighted. The title is the file's directory name and its own
    name, so a run's SVG does not depend on where its output went.
    """
    counts, shots, highlight = _read_counts(counts_path)
    path = Path(counts_path)
    return _histogram(counts, shots, highlight, Path(path.parent.name, path.name).as_posix())


_SERIES_KINDS = ("energy", "params")


def _trace_row(row: dict, fields: list, name: str) -> dict:
    """The trace rule: ``row`` has just ``fields``, ``eval`` an integer >= 0, every other a finite number.

    ``energy`` may also be NaN: the engine scores NaN a point whose cost
    products overflow, and the optimizer logs it. ``row`` is a line of a
    trace file as ``plot_trace`` parses it: a missing column reads None
    and an extra one sits under the key None. Returns the row with each
    value as its rule returns it. A message starts with ``name`` and
    then the field it refuses.
    """
    if row.keys() != set(fields):
        raise ValueError(f"{name} fields must be {fields}, got {row!r}")
    return {k: _checks.integer(v, f"{name} eval", 0) if k == "eval" else
            v if k == "energy" and type(v) is float and math.isnan(v) else
            _checks.real(v, f"{name} {k}")
            for k, v in row.items()}


def _trace(rows: list[dict], series: str) -> str:
    """The SVG of checked trace rows; a point of NaN energy is left out of the energy curve."""
    from xml.sax.saxutils import escape  # loaded on first use: it imports urllib.request

    _checks.one_of(series, _SERIES_KINDS, "series")
    param_names = [k for k in rows[0] if k not in ("eval", "energy")]
    # each curve's (row index, value) points: the x of a point is its row's
    if series == "energy":
        curves = {"energy": [(i, r["energy"]) for i, r in enumerate(rows)
                             if not math.isnan(r["energy"])]}
        if not curves["energy"]:
            raise ValueError("trace has no finite energy")
    else:
        if not param_names:
            raise ValueError("trace has no parameter columns")
        curves = {name: list(enumerate(r[name] for r in rows)) for name in param_names}
    lo = min(v for vs in curves.values() for _, v in vs)
    hi = max(v for vs in curves.values() for _, v in vs)
    # from 2**1020 up the padded span overflows: lay the axis out in values scaled
    # by a power of two, which is exact, and label it in the values, clamped to floats
    scale = 1.0 if max(-lo, hi) < 2.0**1020 else 2.0**-4
    lo, hi = lo * scale, hi * scale
    if hi == lo:
        hi = max(lo + 1.0, math.nextafter(lo, math.inf))  # lo + 1.0 is lo from 2**53 up
    pad = 0.05 * (hi - lo)
    lo, hi = lo - pad, hi + pad
    n_pts = len(rows)

    def to_xy(i: int, v: float) -> str:
        x = _MARGIN_L + (_PLOT_W * i / max(n_pts - 1, 1))
        y = _BASE_Y - (v * scale - lo) / (hi - lo) * _PLOT_H
        return f"{_fmt(x)},{_fmt(y)}"

    body = [
        *_AXES,
        f'<text x="{_WIDTH / 2:.1f}" y="{_HEIGHT - 40}" text-anchor="middle">evaluation</text>',
    ]
    for tick in (0.0, 0.5, 1.0):
        v = min(max((lo + tick * (hi - lo)) / scale, -sys.float_info.max), sys.float_info.max)
        y = _BASE_Y - tick * _PLOT_H
        body.append(f'<text x="{_MARGIN_L - 8}" y="{_fmt(y + 4)}" text-anchor="end">{v:.4g}</text>')
    for ci, (name, vs) in enumerate(curves.items()):
        color = "#36414f" if series == "energy" else f"hsl({(ci * 137) % 360},65%,42%)"
        pts = " ".join(to_xy(i, v) for i, v in vs)
        body.append(f'<polyline class="series" stroke="{color}" points="{pts}"/>')
        lx = _WIDTH - _MARGIN_R - 80
        ly = _MARGIN_T + 14 * ci
        body.append(f'<line x1="{lx - 18}" y1="{ly - 4}" x2="{lx - 4}" y2="{ly - 4}" stroke="{color}" stroke-width="2"/>')
        body.append(f'<text class="label" x="{lx}" y="{ly}">{escape(name)}</text>')
    return _svg(body)


def _parsed(text, parse):
    """``text`` parsed by ``parse``, or ``text`` itself when it does not parse, for the rule to refuse."""
    try:
        return parse(text)
    except (TypeError, ValueError):
        return text


def plot_trace(trace_path, series: str = "energy") -> str:
    """Render a trace CSV file written by the experiment harness, read by ``_checks.text_file``.

    Each row is checked once, by the trace rule (``_trace_row``), and
    drawn without checking again; a ValueError names the file, the line
    and the field it refuses.
    """
    reader = csv.DictReader(io.StringIO(_checks.text_file(trace_path, "trace file:"), newline=""))
    fields = reader.fieldnames
    if fields is None or fields[:2] != ["eval", "energy"]:
        raise ValueError(f"{trace_path}: expected header starting 'eval,energy'")
    for i, name in enumerate(fields):  # a reader keeps only the last column of a name
        if name in fields[:i]:
            raise ValueError(f"{trace_path}: header repeats column {name!r}")
    rows = [_trace_row({k: _parsed(v, int if k == "eval" else float) for k, v in raw.items()},
                       fields, f"{trace_path}: line {line},")
            for line, raw in enumerate(reader, start=2)]
    if not rows:
        raise ValueError(f"{trace_path}: no evaluation rows after the header")
    return _trace(rows, series)
