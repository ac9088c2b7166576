"""The one-process-per-figure probe of ``tests/scale_probe.py``, at a small n."""

import json

import pytest

from scale_probe import FIGURES, WEIGHTS, main


def test_every_figure_prints_its_fields(capsys):
    assert main(["--n", "6"]) == 0
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [(row["weights"], row["figure"]) for row in rows] == [
        (weights, figure) for weights in WEIGHTS for figure in FIGURES]
    for row in rows:
        assert row["n"] == 6 and row["edges"] == 9 and "error" not in row
        timed = {"build": ["build_s"], "plot": ["plot_s"]}.get(row["figure"], ["build_s", "row_s", "row_mb"])
        assert set(row) == {"figure", "n", "weights", "edges", "peak_mb", *timed}
        assert all(row[key] >= 0 for key in ["peak_mb", *timed])


def test_an_odd_n_is_refused(capsys):
    with pytest.raises(SystemExit):
        main(["--n", "7"])
    assert "--n: a 3-regular graph needs an even n >= 4" in capsys.readouterr().err
