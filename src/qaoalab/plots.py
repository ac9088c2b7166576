"""Standalone SVG renderings of counts histograms and optimization traces.

Output is plain hand-assembled SVG so results can be checked
structurally: probability bars are <rect class="bar"> (solution
bitstrings get class="bar solution"), trace curves are
<polyline class="series"> with one <text class="label"> per series.
Text that comes from outside (titles, bitstrings, series names) is
XML-escaped, so every rendering parses as XML.
"""

from __future__ import annotations

import csv
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


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _bits_only(keys) -> bool:
    """True when every key holds only "0" and "1" characters."""
    return not "".join(keys).encode().translate(None, b"01")


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

    The counts are checked by the count rule (``_checks.counts``) and
    must carry a shot.
    """
    shots = sum(_checks.counts(counts, "counts").values())
    if shots < 1:
        raise ValueError("counts carry no shots")
    return _histogram(counts, shots, highlight, title)


def _histogram(counts: dict[str, int], shots: int, highlight, title: str) -> str:
    """The SVG of checked counts that sum to ``shots`` >= 1.

    A histogram can carry thousands of bars but few distinct counts, so
    a bar's y and height are formatted once per count and each bar is
    one format of its class, x, label x and key. Keys are XML-escaped
    only when some key is not a plain 0/1 string.
    """
    from xml.sax.saxutils import escape  # loaded on first use: it imports urllib.request

    items = sorted(counts.items())
    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B
    y_max = max(counts.values()) / shots * 1.1  # division keeps order: the largest probability
    slot = plot_w / len(items)
    bar_w = slot * 0.8
    body = []
    if title:
        body.append(f'<text x="{_WIDTH / 2:.1f}" y="20" text-anchor="middle">{escape(title)}</text>')
    base_y = _MARGIN_T + plot_h
    body.append(
        f'<line class="axis" x1="{_MARGIN_L}" y1="{base_y:.2f}" x2="{_WIDTH - _MARGIN_R}" y2="{base_y:.2f}"/>'
    )
    body.append(
        f'<line class="axis" x1="{_MARGIN_L}" y1="{_MARGIN_T}" x2="{_MARGIN_L}" y2="{base_y:.2f}"/>'
    )
    for tick in (0.25, 0.5, 0.75, 1.0):
        v = tick * y_max
        y = base_y - tick * plot_h
        body.append(f'<line class="axis" x1="{_MARGIN_L - 4}" y1="{_fmt(y)}" x2="{_MARGIN_L}" y2="{_fmt(y)}"/>')
        body.append(f'<text x="{_MARGIN_L - 8}" y="{_fmt(y + 4)}" text-anchor="end">{v:.3f}</text>')
    heights = {}  # count -> the bar's y, width and height attributes
    for c in set(counts.values()):
        h = c / shots / y_max * plot_h
        heights[c] = f'{base_y - h:.2f}" width="{_fmt(bar_w)}" height="{h:.2f}'
    label_y = _fmt(base_y + 12)
    bar = ('<rect class="%s" x="%.2f" y="%s"/>\n'
           f'<text x="%.2f" y="{label_y}" text-anchor="end" transform="rotate(-60 %.2f {label_y})">%s</text>')
    plain = _bits_only(counts)
    gap, half = (slot - bar_w) / 2, bar_w / 2
    for i, (key, c) in enumerate(items):
        x = _MARGIN_L + i * slot + gap
        body.append(bar % ("bar solution" if key in highlight else "bar", x, heights[c],
                           x + half, x + half, key if plain else escape(key)))
    body.append(
        f'<text x="{_MARGIN_L - 48}" y="{_MARGIN_T - 12}">probability</text>'
    )
    return _svg(body)


def _read_counts(counts_path) -> tuple[dict[str, int], int, str | None]:
    """The bitstring counts of a counts JSON file, its shots, and its instance's edge-list text if any.

    ``shots`` is an integer >= 1 and each count an integer >= 0 (the
    ``_checks`` rules, so no bool or float), the counts sum to ``shots``,
    and the keys are bitstrings of one width. A ValueError names the
    file and the field it refuses.
    """
    with open(counts_path, encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{counts_path}: not valid JSON ({exc})") from None
    if not isinstance(payload, dict) or not isinstance(payload.get("counts"), dict):
        raise ValueError(f"{counts_path}: counts must be an object of bitstring counts")
    tally = payload["counts"]
    shots = _checks.integer(payload.get("shots"), f"{counts_path}: shots", 1)
    _checks.counts(tally, f"{counts_path}: counts")
    total = sum(tally.values())
    if total != shots:
        raise ValueError(f"{counts_path}: shots is {shots}, but the counts sum to {total}")
    width = len(next(iter(tally)))  # there is a key: the counts sum to shots >= 1
    if not width or set(map(len, tally)) != {width} or not _bits_only(tally):
        key = next(k for k in tally if len(k) != width or not k or set(k) - {"0", "1"})
        raise ValueError(f"{counts_path}: counts[{key!r}]: keys must be bitstrings of 0 and 1, "
                         f"all as wide as the first ({width})")
    instance = payload.get("instance")
    if instance is not None and not isinstance(instance, str):
        raise ValueError(f"{counts_path}: instance must be edge-list text, got {instance!r}")
    return tally, shots, instance


def plot_histogram(counts_path) -> str:
    """Render the histogram for a counts JSON file, checked once, by ``_read_counts``.

    When the file carries its instance, the brute-force optima are
    highlighted. The title is the file's directory name and its own
    name, so a run's SVG does not depend on where its output went.
    """
    counts, shots, instance = _read_counts(counts_path)
    highlight: frozenset[str] = frozenset()
    if instance is not None:
        try:
            _, optima = brute_force_maxcut(parse_edge_list(instance))
        except ValueError as exc:
            raise ValueError(f"{counts_path}: instance: {exc}") from None
        highlight = frozenset(optima)
    path = Path(counts_path)
    return _histogram(counts, shots, highlight, Path(path.parent.name, path.name).as_posix())


_SERIES_KINDS = ("energy", "params")


def render_trace(rows: list[dict], series: str = "energy") -> str:
    """Line chart of a parsed trace: energy or all parameter curves."""
    from xml.sax.saxutils import escape  # loaded on first use: it imports urllib.request

    _checks.one_of(series, _SERIES_KINDS, "series")
    if not rows:
        raise ValueError("trace is empty")
    param_names = [k for k in rows[0] if k not in ("eval", "energy")]
    if series == "energy":
        curves = {"energy": [r["energy"] for r in rows]}
    else:
        if not param_names:
            raise ValueError("trace has no parameter columns")
        curves = {name: [r[name] for r in rows] for name in param_names}
    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B
    lo = min(min(vs) for vs in curves.values())
    hi = max(max(vs) for vs in curves.values())
    # from 2**1020 up the padded span overflows: lay the axis out in values scaled
    # by a power of two, which is exact, and label it in the values, clamped to floats
    scale = 1.0 if max(-lo, hi) < 2.0**1020 else 2.0**-4
    lo, hi = lo * scale, hi * scale
    if hi == lo:
        hi = max(lo + 1.0, math.nextafter(lo, math.inf))  # lo + 1.0 is lo from 2**53 up
    pad = 0.05 * (hi - lo)
    lo, hi = lo - pad, hi + pad
    n_pts = len(rows)
    base_y = _MARGIN_T + plot_h

    def to_xy(i: int, v: float) -> str:
        x = _MARGIN_L + (plot_w * i / max(n_pts - 1, 1))
        y = base_y - (v * scale - lo) / (hi - lo) * plot_h
        return f"{_fmt(x)},{_fmt(y)}"

    body = [
        f'<line class="axis" x1="{_MARGIN_L}" y1="{base_y:.2f}" x2="{_WIDTH - _MARGIN_R}" y2="{base_y:.2f}"/>',
        f'<line class="axis" x1="{_MARGIN_L}" y1="{_MARGIN_T}" x2="{_MARGIN_L}" y2="{base_y:.2f}"/>',
        f'<text x="{_WIDTH / 2:.1f}" y="{_HEIGHT - 40}" text-anchor="middle">evaluation</text>',
    ]
    for tick in (0.0, 0.5, 1.0):
        v = min(max((lo + tick * (hi - lo)) / scale, -sys.float_info.max), sys.float_info.max)
        y = base_y - tick * plot_h
        body.append(f'<text x="{_MARGIN_L - 8}" y="{_fmt(y + 4)}" text-anchor="end">{v:.4g}</text>')
    for ci, (name, vs) in enumerate(curves.items()):
        color = "#36414f" if series == "energy" else f"hsl({(ci * 137) % 360},65%,42%)"
        pts = " ".join(to_xy(i, v) for i, v in enumerate(vs))
        body.append(f'<polyline class="series" stroke="{color}" points="{pts}"/>')
        lx = _WIDTH - _MARGIN_R - 80
        ly = _MARGIN_T + 14 * ci
        body.append(f'<line x1="{lx - 18}" y1="{ly - 4}" x2="{lx - 4}" y2="{ly - 4}" stroke="{color}" stroke-width="2"/>')
        body.append(f'<text class="label" x="{lx}" y="{ly}">{escape(name)}</text>')
    return _svg(body)


def _field(text, parse, rule, name: str, *bounds):
    """``text`` parsed by ``parse`` and checked by ``rule``, which refuses text that does not parse."""
    try:
        value = parse(text)
    except (TypeError, ValueError):
        value = text
    return rule(value, name, *bounds)


def plot_trace(trace_path, series: str = "energy") -> str:
    """Render a trace CSV file written by the experiment harness.

    Each ``eval`` is an integer >= 0 and every other field a finite
    number (the ``_checks`` rules); a ValueError names the file, the
    line and the field it refuses.
    """
    with open(trace_path, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or reader.fieldnames[:2] != ["eval", "energy"]:
            raise ValueError(f"{trace_path}: expected header starting 'eval,energy'")
        rows = []
        for line, raw in enumerate(reader, start=2):
            where = f"{trace_path}: line {line},"
            rows.append({k: _field(v, int, _checks.integer, f"{where} eval", 0) if k == "eval"
                         else _field(v, float, _checks.real, f"{where} {k}")
                         for k, v in raw.items()})
    if not rows:
        raise ValueError(f"{trace_path}: no evaluation rows after the header")
    return render_trace(rows, series)
