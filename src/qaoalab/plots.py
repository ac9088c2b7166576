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
from pathlib import Path

from . import _checks
from .graph import brute_force_maxcut, parse_edge_list
from .statevec import Counts

_WIDTH = 720
_HEIGHT = 440
_MARGIN_L = 64
_MARGIN_R = 24
_MARGIN_T = 40
_MARGIN_B = 96


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


def render_histogram(counts: Counts, highlight: frozenset[str] | set[str] = frozenset(), title: str = "") -> str:
    """Probability bars per bitstring, lexicographic order, highlights flagged."""
    from xml.sax.saxutils import escape  # loaded on first use: it imports urllib.request

    if counts.shots < 1:
        raise ValueError("counts carry no shots")
    probs = counts.probabilities()
    keys = sorted(probs)
    if not keys:
        raise ValueError("counts are empty")
    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B
    y_max = max(probs.values()) * 1.1
    slot = plot_w / len(keys)
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
    # one histogram can carry thousands of bars: format what they share once
    width = _fmt(bar_w)
    label_y = _fmt(base_y + 12)
    for i, key in enumerate(keys):
        h = probs[key] / y_max * plot_h
        x = _MARGIN_L + i * slot + (slot - bar_w) / 2
        cls = "bar solution" if key in highlight else "bar"
        lx = f"{x + bar_w / 2:.2f}"
        body.append(
            f'<rect class="{cls}" x="{x:.2f}" y="{base_y - h:.2f}" width="{width}" height="{h:.2f}"/>'
        )
        body.append(
            f'<text x="{lx}" y="{label_y}" text-anchor="end" '
            f'transform="rotate(-60 {lx} {label_y})">{escape(key)}</text>'
        )
    body.append(
        f'<text x="{_MARGIN_L - 48}" y="{_MARGIN_T - 12}">probability</text>'
    )
    return _svg(body)


def plot_histogram(counts_path) -> str:
    """Render the histogram for a counts JSON file.

    When the file carries its instance, the brute-force optima are
    highlighted. The title is the file's directory name and its own
    name, so a run's SVG does not depend on where its output went.
    """
    with open(counts_path, encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{counts_path}: not valid JSON ({exc})") from None
    try:
        counts = Counts({str(k): int(v) for k, v in payload["counts"].items()}, int(payload["shots"]))
    except (KeyError, TypeError, AttributeError) as exc:
        raise ValueError(f"{counts_path}: missing or malformed counts fields ({exc!r})") from None
    highlight: frozenset[str] = frozenset()
    if "instance" in payload:
        _, optima = brute_force_maxcut(parse_edge_list(payload["instance"]))
        highlight = frozenset(optima)
    path = Path(counts_path)
    return render_histogram(counts, highlight, title=Path(path.parent.name, path.name).as_posix())


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
    if hi == lo:
        hi = lo + 1.0
    pad = 0.05 * (hi - lo)
    lo, hi = lo - pad, hi + pad
    n_pts = len(rows)
    base_y = _MARGIN_T + plot_h

    def to_xy(i: int, v: float) -> str:
        x = _MARGIN_L + (plot_w * i / max(n_pts - 1, 1))
        y = base_y - (v - lo) / (hi - lo) * plot_h
        return f"{_fmt(x)},{_fmt(y)}"

    body = [
        f'<line class="axis" x1="{_MARGIN_L}" y1="{base_y:.2f}" x2="{_WIDTH - _MARGIN_R}" y2="{base_y:.2f}"/>',
        f'<line class="axis" x1="{_MARGIN_L}" y1="{_MARGIN_T}" x2="{_MARGIN_L}" y2="{base_y:.2f}"/>',
        f'<text x="{_WIDTH / 2:.1f}" y="{_HEIGHT - 40}" text-anchor="middle">evaluation</text>',
    ]
    for tick in (0.0, 0.5, 1.0):
        v = lo + tick * (hi - lo)
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


def plot_trace(trace_path, series: str = "energy") -> str:
    """Render a trace CSV file written by the experiment harness."""
    with open(trace_path, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or reader.fieldnames[:2] != ["eval", "energy"]:
            raise ValueError(f"{trace_path}: expected header starting 'eval,energy'")
        rows = []
        for raw in reader:
            try:
                rows.append({k: float(v) if k != "eval" else int(v) for k, v in raw.items()})
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{trace_path}: bad row {raw!r} ({exc})") from None
    return render_trace(rows, series)
