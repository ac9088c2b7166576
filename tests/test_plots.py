"""SVG rendering: structural checks on bars, polylines, labels."""

import hashlib
import json
import math
import re
import sys
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from qaoalab import plots
from qaoalab.harness import main, write_trace_csv
from qaoalab.plots import plot_histogram, plot_trace, render_histogram

from conftest import assert_same_text

SVG_NS = "{http://www.w3.org/2000/svg}"


def parse_svg(svg: str) -> ET.Element:
    return ET.fromstring(svg)


def rects_by_class(root, cls: str):
    return [el for el in root.iter(f"{SVG_NS}rect") if el.get("class") == cls]


def polylines(root):
    return list(root.iter(f"{SVG_NS}polyline"))


# -- histogram ---------------------------------------------------------------


def test_histogram_bar_per_bitstring():
    counts = {"00": 10, "01": 20, "11": 5}
    root = parse_svg(render_histogram(counts))
    bars = rects_by_class(root, "bar") + rects_by_class(root, "bar solution")
    assert len(bars) == 3


def test_histogram_highlights_solutions():
    counts = {"00011": 512, "11100": 488}
    svg = render_histogram(counts, highlight={"00011", "11100"})
    root = parse_svg(svg)
    assert len(rects_by_class(root, "bar solution")) == 2
    assert len(rects_by_class(root, "bar")) == 0


def test_histogram_orders_keys_lexicographically():
    counts = {"10": 1, "00": 1, "01": 1}
    svg = render_histogram(counts)
    assert svg.index(">00<") < svg.index(">01<") < svg.index(">10<")


def test_histogram_bytes_are_pinned():
    # 1013 bars, highlights and an escaped title: a faster rendering must
    # still write these bytes
    counts = {format(i, "010b"): (i * i * 7919) % 97 for i in range(1024)}
    counts = {k: v for k, v in counts.items() if v}
    svg = render_histogram(counts,
                           highlight={"0000000001", "1111111110"}, title="runs/a&b<1>/counts.json")
    assert len(counts) == 1013 and len(svg) == 175478
    assert hashlib.sha256(svg.encode()).hexdigest() == (
        "598a3433d4387452d7a537dd8233b8ff237de55692c64df48d0b4c5672ae4036")


def per_bar_histogram(counts, highlight=frozenset(), title=""):
    """The histogram as rendered before per-count formatting: each bar formatted and escaped alone."""
    from xml.sax.saxutils import escape

    shots = sum(counts.values())
    probs = {b: c / shots for b, c in counts.items()}
    keys = sorted(probs)
    plot_w = plots._WIDTH - plots._MARGIN_L - plots._MARGIN_R
    plot_h = plots._HEIGHT - plots._MARGIN_T - plots._MARGIN_B
    y_max = max(probs.values()) * 1.1
    slot = plot_w / len(keys)
    bar_w = slot * 0.8
    body = []
    if title:
        body.append(f'<text x="{plots._WIDTH / 2:.1f}" y="20" text-anchor="middle">{escape(title)}</text>')
    base_y = plots._MARGIN_T + plot_h
    left = plots._MARGIN_L
    body.append(f'<line class="axis" x1="{left}" y1="{base_y:.2f}" '
                f'x2="{plots._WIDTH - plots._MARGIN_R}" y2="{base_y:.2f}"/>')
    body.append(f'<line class="axis" x1="{left}" y1="{plots._MARGIN_T}" x2="{left}" y2="{base_y:.2f}"/>')
    for tick in (0.25, 0.5, 0.75, 1.0):
        v = tick * y_max
        y = base_y - tick * plot_h
        body.append(f'<line class="axis" x1="{left - 4}" y1="{y:.2f}" x2="{left}" y2="{y:.2f}"/>')
        body.append(f'<text x="{left - 8}" y="{y + 4:.2f}" text-anchor="end">{v:.3f}</text>')
    label_y = f"{base_y + 12:.2f}"
    for i, key in enumerate(keys):
        h = probs[key] / y_max * plot_h
        x = left + i * slot + (slot - bar_w) / 2
        cls = "bar solution" if key in highlight else "bar"
        lx = f"{x + bar_w / 2:.2f}"
        body.append(f'<rect class="{cls}" x="{x:.2f}" y="{base_y - h:.2f}" width="{bar_w:.2f}" '
                    f'height="{h:.2f}"/>')
        body.append(f'<text x="{lx}" y="{label_y}" text-anchor="end" '
                    f'transform="rotate(-60 {lx} {label_y})">{escape(key)}</text>')
    body.append(f'<text x="{left - 48}" y="{plots._MARGIN_T - 12}">probability</text>')
    return plots._svg(body)


def seeded_counts(n: int, keys: int, seed: int) -> dict[str, int]:
    gen = np.random.default_rng(seed)
    hit = np.sort(gen.choice(1 << n, keys, replace=False))
    return {format(int(i), f"0{n}b"): int(c) for i, c in zip(hit, gen.integers(1, 7, keys))}


@pytest.mark.parametrize("n, keys, seed", [(12, 3634, 1), (14, 2000, 2), (14, 1, 3), (3, 8, 4)])
def test_histogram_equals_the_per_bar_rendering(tmp_path, n, keys, seed):
    counts = seeded_counts(n, keys, seed)
    highlight = set(list(counts)[::997]) | {"0" * n}
    title = "runs/a&b<1>/counts.json"
    assert_same_text(render_histogram(counts, highlight, title),
                     per_bar_histogram(counts, highlight, title))
    # the file reader's path: counts checked once, titled by the file's place
    path = tmp_path / "run" / "counts.json"
    path.parent.mkdir()
    path.write_text(json.dumps({"shots": sum(counts.values()), "counts": counts}))
    assert_same_text(plot_histogram(path), per_bar_histogram(counts, frozenset(), "run/counts.json"))


@pytest.mark.parametrize("marked", ["<", "&", '"', "all"])
def test_histogram_refuses_a_marked_key_by_name(marked):
    # markup in a key is no bitstring: refused, not escaped, however many keys are fine
    counts = seeded_counts(12, 3000, 5)
    if marked == "all":
        counts = {f"<{key}&>": c for key, c in counts.items()}
    else:
        for j, key in enumerate(list(counts)[1::500]):
            counts[key[:j] + marked + key[j:]] = counts.pop(key) + 1
    key = next(k for k in counts if set(k) - {"0", "1"})
    width = len(next(iter(counts)))
    with pytest.raises(ValueError, match=rf"^counts\[{re.escape(repr(key))}\] must be a "
                                         rf"{width}-character bitstring of 0 and 1, got "):
        render_histogram(counts, {key}, "t")


@pytest.mark.parametrize("counts, key", [({"01": 1, "0x": 2}, "0x"), ({"a<b": 1}, "a<b"),
                                         ({"01": 1, "011": 2}, "011")])
def test_histogram_refuses_a_key_that_is_no_bitstring_of_the_first_keys_width(counts, key):
    # the counts.json reader's rule and message: keys as wide as the first
    width = len(next(iter(counts)))
    message = f"counts[{key!r}] must be a {width}-character bitstring of 0 and 1, got {key!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        render_histogram(counts)


@pytest.mark.parametrize("key", [5, b"01", None, ("0", "1")])
def test_histogram_refuses_a_key_that_is_no_string_by_name(key):
    message = f"counts[{key!r}] must be a 2-character bitstring of 0 and 1, got {key!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        render_histogram({"01": 2, key: 3})


def test_histogram_rejects_empty():
    with pytest.raises(ValueError):
        render_histogram({})


def test_plot_histogram_file_round_trip(tmp_path):
    payload = {
        "shots": 1000,
        "counts": {"00011": 512, "11100": 488},
        "config_hash": "abc",
        "seed": 0,
        "instance": "5\n0 3\n0 4\n1 3\n1 4\n2 3\n2 4\n",
    }
    path = tmp_path / "counts.json"
    path.write_text(json.dumps(payload))
    root = parse_svg(plot_histogram(path))
    # the embedded instance drives brute-force highlighting of both bars
    assert len(rects_by_class(root, "bar solution")) == 2


def test_plot_histogram_bytes_do_not_depend_on_the_output_directory(tmp_path):
    payload = {"shots": 10, "counts": {"01": 7, "10": 3}, "config_hash": "x", "seed": 1}
    svgs = []
    for out in ("a", "b/c"):
        path = tmp_path / out / "cell_000_single" / "counts.json"
        path.parent.mkdir(parents=True)
        path.write_text(json.dumps(payload))
        svgs.append(plot_histogram(path))
    assert svgs[0] == svgs[1]
    assert "cell_000_single/counts.json" in svgs[0]


def test_plot_histogram_without_instance_highlights_nothing(tmp_path):
    payload = {"shots": 10, "counts": {"01": 10}, "config_hash": "x", "seed": 1}
    path = tmp_path / "counts.json"
    path.write_text(json.dumps(payload))
    root = parse_svg(plot_histogram(path))
    assert len(rects_by_class(root, "bar")) == 1
    assert len(rects_by_class(root, "bar solution")) == 0


def test_plot_histogram_rejects_malformed(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ValueError):
        plot_histogram(path)
    path.write_text(json.dumps({"shots": 10}))
    with pytest.raises(ValueError):
        plot_histogram(path)


GOOD_COUNTS = {"shots": 10, "counts": {"01": 7, "10": 3}, "config_hash": "x", "seed": 1}


@pytest.mark.parametrize("change, field", [
    ({"counts": {"01": 17, "10": -7}}, "counts['10']"),
    ({"counts": {"01": True, "10": 9}}, "counts['01']"),
    ({"counts": {"01": 7.0, "10": 3}}, "counts['01']"),
    ({"counts": {"01": "x", "10": 3}}, "counts['01']"),
    ({"shots": True}, "shots"),
    ({"shots": 11}, "shots"),
    ({"counts": {"01": 7, "100": 3}}, "counts['100']"),
    ({"counts": {"01": 7, "1x": 3}}, "counts['1x']"),
    ({"counts": {"": 10}}, "counts['']"),
    ({"instance": 5}, "instance"),
    ({"instance": "x"}, "instance: line 1: node count 'x'"),
    ({"instance": "3\n0 1\n"}, "instance: 3 nodes, but the counts are keyed by 2 bits"),
], ids=["negative", "bool", "float", "string", "bool-shots", "shots-not-the-sum",
        "mixed-width", "not-binary", "empty-key", "instance-not-text", "instance-not-a-graph",
        "instance-of-other-width"])
def test_plot_histogram_names_the_file_and_field_it_refuses(tmp_path, change, field):
    path = tmp_path / "counts.json"
    path.write_text(json.dumps(dict(GOOD_COUNTS, **change)))
    with pytest.raises(ValueError) as err:
        plot_histogram(path)
    assert str(err.value).startswith(f"{path}: {field}")


def test_cli_plot_names_the_file_and_field_of_a_bad_count(tmp_path, capsys):
    path = tmp_path / "counts.json"
    path.write_text(json.dumps(dict(GOOD_COUNTS, counts={"01": "x", "10": 3})))
    assert main(["plot", "--in", str(path), "--out", str(tmp_path / "h.svg")]) == 1
    assert capsys.readouterr().err == (
        f"error: {path}: counts['01'] must be an integer >= 0, got 'x'\n")
    assert not (tmp_path / "h.svg").exists()


# -- traces ------------------------------------------------------------------


def trace_file(tmp_path, n_evals: int, p: int, energies=None) -> Path:
    """A trace.csv that ``write_trace_csv`` writes: ``n_evals`` rows of 2p angle columns.

    Row i's energy is ``energies[i]``, by default -1 - 0.1 i; its beta_j
    is 0.1 i + j - 1 and its gamma_j 0.2 i + j - 1.
    """
    i = np.arange(n_evals)[:, None]
    thetas = np.hstack([0.1 * i + np.arange(p), 0.2 * i + np.arange(p)])
    path = tmp_path / "trace.csv"
    write_trace_csv(path, thetas, np.array(energies if energies is not None else -1.0 - 0.1 * i[:, 0]))
    return path


def test_energy_trace_polyline_has_one_vertex_per_evaluation(tmp_path):
    root = parse_svg(plot_trace(trace_file(tmp_path, 10, 1), "energy"))
    lines = polylines(root)
    assert len(lines) == 1
    assert len(lines[0].get("points").split()) == 10


def test_params_trace_has_labeled_series_per_parameter(tmp_path):
    root = parse_svg(plot_trace(trace_file(tmp_path, 6, 5), "params"))
    assert len(polylines(root)) == 10
    labels = [el.text for el in root.iter(f"{SVG_NS}text") if el.get("class") == "label"]
    assert sorted(labels) == sorted(
        [f"beta_{i}" for i in range(1, 6)] + [f"gamma_{i}" for i in range(1, 6)]
    )


def test_trace_rejects_bad_series_and_empty(tmp_path):
    with pytest.raises(ValueError):
        plot_trace(trace_file(tmp_path, 5, 1), "momentum")
    with pytest.raises(ValueError):
        plot_trace(trace_file(tmp_path, 0, 1), "energy")


@pytest.mark.parametrize("text", [None, "eval,energy,beta_1\n0.0,1,0.5\n"],
                         ids=["missing-file", "malformed-row"])
def test_plot_trace_refuses_a_bad_series_before_it_reads_the_file(tmp_path, text):
    path = tmp_path / "trace.csv"
    if text is not None:
        path.write_text(text)
    with pytest.raises(ValueError, match=r"^series must be one of .*, got 'bogus'$"):
        plot_trace(path, series="bogus")


@pytest.mark.parametrize("line, message", [
    ("0.0,1,0.5", "eval must be an integer >= 0, got '0.0'"),
    ("0,inf,0.5", "energy must be a finite number, got inf"),
    ("0,1", "beta_1 must be a finite number, got None"),
    ("0,1,0.5,7", "fields must be ['eval', 'energy', 'beta_1'], got "),
], ids=["non-integer-eval", "non-finite-value", "missing-column", "extra-column"])
def test_plot_trace_refuses_a_row_by_the_trace_rule(tmp_path, line, message):
    # eval an integer >= 0, every other field a finite number (an energy may
    # be NaN), and just the header's fields: a missing column reads None, an
    # extra one is no field
    path = tmp_path / "trace.csv"
    path.write_text(f"eval,energy,beta_1\n{line}\n1,1,0.5\n")
    with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: line 2, {message}')}"):
        plot_trace(path)


@pytest.mark.parametrize("header", ["eval,energy,beta_1,beta_1", "eval,energy,eval"])
def test_plot_trace_refuses_a_header_that_repeats_a_column(tmp_path, header):
    # csv.DictReader keeps the last value of a repeated name, so each row
    # would pass the fields check and draw that column once
    path = tmp_path / "trace.csv"
    width = header.count(",") + 1
    path.write_text(f"{header}\n" + "".join(f"{i},{','.join(['-1'] * (width - 1))}\n" for i in range(2)))
    column = header.rsplit(",", 1)[1]
    with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: header repeats column {column!r}')}$"):
        plot_trace(path, "params")


def test_plot_trace_checks_each_row_once(tmp_path, monkeypatch):
    path = tmp_path / "trace.csv"
    path.write_text("eval,energy\n0,-1\n1,-2\n2,-3\n")
    checked = []
    rule = plots._trace_row
    monkeypatch.setattr(plots, "_trace_row", lambda *args: checked.append(args[0]) or rule(*args))
    plot_trace(path)
    assert len(checked) == 3


def test_a_params_trace_without_parameter_columns_is_refused(tmp_path):
    with pytest.raises(ValueError, match="^trace has no parameter columns$"):
        plot_trace(trace_file(tmp_path, 4, 0), "params")


def test_flat_trace_still_renders(tmp_path):
    root = parse_svg(plot_trace(trace_file(tmp_path, 4, 0, [-2.0] * 4), "energy"))
    assert len(polylines(root)) == 1
    # a flat trace at v spans [v, v + 1] before the 5% pads
    assert axis_labels(root) == ["-2.05", "-1.5", "-0.95"]


def axis_labels(root):
    return [el.text for el in root.iter(f"{SVG_NS}text") if el.get("text-anchor") == "end"]


def coordinates(root):
    """Every number of every element's position, size and polyline points."""
    found = []
    for el in root.iter():
        for key, value in el.attrib.items():
            if key == "points":
                found += [float(v) for point in value.split() for v in point.split(",")]
            elif key in ("x", "y", "x1", "y1", "x2", "y2", "width", "height"):
                found.append(float(value))
    return found


@pytest.mark.parametrize("energies", [
    [-5e307] * 20, [1e16, 1e16], [-2.0**53] * 3, [-1.7e308, 1.7e308],
    [sys.float_info.max] * 2, [-sys.float_info.max, sys.float_info.max],
], ids=["flat-5e307", "flat-1e16", "flat-2**53", "span-overflows", "flat-at-max", "full-range"])
def test_a_trace_far_from_zero_has_finite_coordinates_and_labels(tmp_path, energies):
    # lo + 1.0 is lo from 2**53 up, and the span of +-1.7e308 overflows. The
    # energies are written in full: 9 digits, as write_trace_csv writes them,
    # cannot carry the largest float
    path = tmp_path / "trace.csv"
    path.write_text("eval,energy\n" + "".join(f"{i},{e!r}\n" for i, e in enumerate(energies)))
    root = parse_svg(plot_trace(path))
    values = coordinates(root)
    assert len(values) > 2 * len(energies)
    assert all(map(math.isfinite, values))
    # the labels are 4-digit text, so the largest float prints as 1.798e+308
    assert not any(re.search("inf|nan", label) for label in axis_labels(root))


def test_cli_plots_the_flat_trace_of_a_huge_weight(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "instance": {"inline": {"n": 2, "edges": [[0, 1]], "weights": [1e308]}},
        "p": 1, "init": [0.5, 0.0], "method": "powell", "max_evals": 20}))
    with warnings.catch_warnings():  # the final energy's sum is scored in scaled values
        warnings.simplefilter("error")
        assert main(["solve", "--config", str(config), "--out", str(tmp_path)]) == 0
    assert math.isfinite(json.loads((tmp_path / "summary.json").read_text())["final_energy"])
    trace = tmp_path / "trace.csv"
    assert {line.split(",")[1] for line in trace.read_text().splitlines()[1:]} == {"-5e+307"}
    assert main(["plot", "--in", str(trace), "--out", str(tmp_path / "trace.svg")]) == 0
    assert all(map(math.isfinite, coordinates(parse_svg((tmp_path / "trace.svg").read_text()))))


def test_plot_trace_draws_a_solved_trace_that_logs_nan_energies(tmp_path):
    # the cost products of weights 1e300 overflow: the engine scores those
    # points NaN and cg logs them. The energy curve leaves them out, and every
    # other point keeps the x of its row
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "instance": {"inline": {"n": 5, "edges": [[0, 3], [0, 4], [1, 3], [1, 4], [2, 3], [2, 4]],
                                "weights": [1e300] * 6}},
        "p": 1, "method": "cg", "mode": "exact", "seed": 3, "max_evals": 400}))
    assert main(["solve", "--config", str(config), "--out", str(tmp_path)]) == 0
    energies = [float(line.split(",")[1])
                for line in (tmp_path / "trace.csv").read_text().splitlines()[1:]]
    finite = [i for i, e in enumerate(energies) if not math.isnan(e)]
    assert 0 < len(finite) < len(energies)
    root = parse_svg(plot_trace(tmp_path / "trace.csv"))
    assert all(map(math.isfinite, coordinates(root)))
    xs = [float(point.split(",")[0]) for point in polylines(root)[0].get("points").split()]
    step = plots._PLOT_W / (len(energies) - 1)
    assert xs == pytest.approx([plots._MARGIN_L + step * i for i in finite], abs=0.005)


def test_a_trace_without_a_finite_energy_draws_only_its_parameters(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("eval,energy,beta_1\n0,nan,0.5\n1,nan,0.25\n")
    with pytest.raises(ValueError, match="^trace has no finite energy$"):
        plot_trace(path)
    assert len(polylines(parse_svg(plot_trace(path, "params")))) == 1


def test_plot_trace_file_round_trip(tmp_path):
    path = tmp_path / "trace.csv"
    lines = ["eval,energy,beta_1,gamma_1"]
    lines += [f"{i},{-1.0 - 0.3 * i},{0.1 * i},{0.2 * i}" for i in range(10)]
    path.write_text("\n".join(lines) + "\n")
    root = parse_svg(plot_trace(path, "energy"))
    assert len(polylines(root)[0].get("points").split()) == 10
    root = parse_svg(plot_trace(path, "params"))
    assert len(polylines(root)) == 2


def test_plot_trace_rejects_wrong_header(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("step,value\n0,1\n")
    with pytest.raises(ValueError):
        plot_trace(path)
    path.write_text("eval,energy\n0,nope\n")
    with pytest.raises(ValueError):
        plot_trace(path)


@pytest.mark.parametrize("column, value", [
    (column, value) for column in ("energy", "beta_1") for value in ("nan", "inf", "-inf", "x", "")
    if (column, value) != ("energy", "nan")])  # a NaN energy is a point the engine scored NaN
def test_plot_trace_names_the_file_line_and_field_it_refuses(tmp_path, column, value):
    path = tmp_path / "trace.csv"
    row = {"eval": "1", "energy": "-1.5", "beta_1": "0.5", "gamma_1": "0.25", column: value}
    path.write_text("eval,energy,beta_1,gamma_1\n0,-1,0.1,0.2\n" + ",".join(row.values()) + "\n")
    with pytest.raises(ValueError) as err:
        plot_trace(path)
    assert str(err.value).startswith(f"{path}: line 3, {column} must be a finite number")


def test_plot_trace_names_the_file_of_a_trace_without_rows(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("eval,energy,beta_1,gamma_1\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: no evaluation rows"):
        plot_trace(path)


@pytest.mark.parametrize("value", ["-1", "1.5", "x"])
def test_plot_trace_refuses_an_eval_that_is_no_count(tmp_path, value):
    path = tmp_path / "trace.csv"
    path.write_text(f"eval,energy\n{value},-1\n")
    with pytest.raises(ValueError, match=r": line 2, eval must be an integer >= 0"):
        plot_trace(path)


def test_svg_is_well_formed_xml(tmp_path):
    counts = {"0": 3, "1": 5}
    parse_svg(render_histogram(counts, title="demo"))
    parse_svg(render_histogram(counts, title="runs/a&b<1>/counts.json"))
    parse_svg(plot_trace(trace_file(tmp_path, 3, 2), "params"))
