"""Config schema, experiment pipeline, sweeps, and the CLI."""

import csv
import json
import math

import pytest

from qaoalab.graph import cut_value
from qaoalab.harness import (
    NOISE_PRESETS,
    PAPER_P5_THETA,
    ConfigError,
    load_config,
    main,
    parse_config,
    run_experiment,
    run_sweep,
)

from conftest import GROUND_PAIR


def small_raw(**overrides):
    raw = {"p": 1, "method": "cobyla", "mode": "exact", "shots": 200, "seed": 42}
    raw.update(overrides)
    return raw


# -- config schema -----------------------------------------------------------


def test_defaults(canonical):
    config = parse_config({})
    assert config.instance == canonical
    assert config.p == 1
    assert config.method == "cobyla"
    assert config.mode == "exact"
    assert config.shots == 1000
    assert config.seed == 0
    assert config.restarts == 1


def test_unknown_top_level_field_is_named():
    with pytest.raises(ConfigError, match="shotz"):
        parse_config({"shotz": 100})


def test_unknown_nested_fields_are_named():
    with pytest.raises(ConfigError, match="pq1"):
        parse_config({"noise": {"pq1": 0.1}})
    with pytest.raises(ConfigError, match="nodes"):
        parse_config({"instance": {"inline": {"nodes": 3}}})
    with pytest.raises(ConfigError, match="depth"):
        parse_config({"sweep": {"depth": [1, 2]}})


@pytest.mark.parametrize(
    "raw,needle",
    [
        ({"version": 99}, "version"),
        ({"p": -1}, "p"),
        ({"p": 1.5}, "p"),
        ({"method": "adam"}, "method"),
        ({"restarts": 0}, "restarts"),
        ({"shots": 0}, "shots"),
        ({"mode": "fuzzy"}, "mode"),
        ({"seed": "abc"}, "seed"),
        ({"max_evals": 0}, "max_evals"),
        ({"init": "warm"}, "init"),
        ({"init": [0.1, 0.2, 0.3]}, "init"),
        ({"sweep": {"p": []}}, "sweep.p"),
        ({"noise": "loud"}, "noise"),
        ({"p": 3, "max_evals": 5}, "max_evals"),
        ({"sweep": {"noise": ["none", "ibm-bounds"]}}, "sweep.noise"),
        ({"mode": "sampled", "sweep": {"noise": ["none"]}}, "sweep.noise"),
        ({"p": 1, "init": [math.nan, True]}, "^init: "),
        ({"p": 1, "init": [0.5, True]}, "^init: "),
        ({"p": 1, "init": ["0.5", 1]}, "^init: "),
        ({"p": 1, "init": [math.inf, 0]}, "^init: "),
        ({"p": 1, "init": [0.3, -math.inf]}, "^init: "),
        ({"seed": -1}, "^seed: "),
        ({"seed": 2**64}, "^seed: "),
        ({"seed": -2**64}, "^seed: "),
        ({"noise": "ibm-bounds"}, "^noise: "),
        ({"mode": "sampled", "noise": {"p_readout": 0.1}}, "^noise: "),
    ],
)
def test_invalid_values_name_the_field(raw, needle):
    with pytest.raises(ConfigError, match=needle):
        parse_config(raw)


@pytest.mark.parametrize("field", ["p", "shots", "restarts", "max_evals", "seed"])
@pytest.mark.parametrize("value", [True, False])
def test_boolean_counts_are_rejected(field, value):
    with pytest.raises(ConfigError, match=f"^{field}: "):
        parse_config({field: value})


@pytest.mark.parametrize("weight", [math.nan, math.inf, -math.inf])
def test_inline_instance_rejects_non_finite_weights(weight):
    inline = {"n": 2, "edges": [[0, 1]], "weights": [weight]}
    with pytest.raises(ConfigError, match="^instance.inline: weight"):
        parse_config({"instance": {"inline": inline}})


@pytest.mark.parametrize("weight", [True, "2.5"])
def test_inline_instance_rejects_bool_and_string_weights(weight):
    inline = {"n": 2, "edges": [[0, 1]], "weights": [weight]}
    with pytest.raises(ConfigError, match=rf"^instance.inline: weight {weight!r} of edge \(0, 1\) "
                                          "is not a real number"):
        parse_config({"instance": {"inline": inline}})


@pytest.mark.parametrize("inline", [
    {"n": True, "edges": []},
    {"n": 3, "edges": [[True, 2]]},
])
def test_inline_instance_rejects_boolean_nodes(inline):
    with pytest.raises(ConfigError, match="^instance.inline: "):
        parse_config({"instance": {"inline": inline}})


def test_inline_noise_config_rejects_non_finite_rates():
    with pytest.raises(ConfigError, match="^noise: sigma_dephase"):
        parse_config({"mode": "noisy", "noise": {"sigma_dephase": math.nan}})


def test_paper_preset_requires_depth_five():
    config = parse_config({"p": 5, "init": "paper-p5"})
    assert config.init == "paper-p5"
    with pytest.raises(ConfigError, match="paper-p5"):
        parse_config({"p": 3, "init": "paper-p5"})


def test_explicit_init_vector():
    config = parse_config({"p": 2, "init": [0.1, 0.2, 1.0, 2.0]})
    assert config.init == (0.1, 0.2, 1.0, 2.0)


def test_inline_instance():
    config = parse_config(
        {"instance": {"inline": {"n": 3, "edges": [[0, 1], [1, 2]], "weights": [1.0, 2.0]}}}
    )
    assert config.instance.n == 3
    assert config.instance.weights == (1.0, 2.0)


def test_instance_from_file(tmp_path, canonical):
    path = tmp_path / "graph.txt"
    path.write_text("5\n0 3\n0 4\n1 3\n1 4\n2 3\n2 4\n")
    config = parse_config({"instance": {"file": str(path)}})
    assert config.instance == canonical


def test_noise_presets():
    assert NOISE_PRESETS["none"].p1q == 0.0
    ibm = NOISE_PRESETS["ibm-bounds"]
    assert (ibm.p1q, ibm.p2q, ibm.p_readout) == (0.005, 0.025, 0.05)
    assert NOISE_PRESETS["coherent-only"].epsilon_coherent == 0.05
    assert NOISE_PRESETS["dephase-only"].sigma_dephase == 0.1
    config = parse_config({"mode": "noisy", "noise": "ibm-bounds"})
    assert config.noise == ibm
    custom = parse_config({"mode": "noisy", "noise": {"p2q": 0.1, "twirling": True}})
    assert custom.noise.p2q == 0.1 and custom.noise.twirling


def test_config_hash_tracks_content():
    a = parse_config(small_raw())
    b = parse_config(small_raw())
    c = parse_config(small_raw(seed=43))
    assert a.config_hash == b.config_hash
    assert a.config_hash != c.config_hash
    assert len(a.config_hash) == 64


def test_load_config_errors(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    with pytest.raises(ConfigError, match="JSON"):
        load_config(bad)
    listy = tmp_path / "list.json"
    listy.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="object"):
        load_config(listy)


def test_paper_theta_vector():
    assert len(PAPER_P5_THETA) == 10
    assert PAPER_P5_THETA[0] == 2.083 and PAPER_P5_THETA[5] == 2.281


# -- run_experiment ------------------------------------------------------------


def test_depth_zero_final_distribution_is_uniform(tmp_path):
    shots = 2000
    config = parse_config({"p": 0, "shots": shots, "seed": 5})
    artifacts = run_experiment(config, out_dir=tmp_path)
    counts = json.loads(artifacts.counts_path.read_text())["counts"]
    expected = shots / 32
    sigma = math.sqrt(shots * (1 / 32) * (31 / 32))
    for i in range(32):
        observed = counts.get(format(i, "05b"), 0)
        assert abs(observed - expected) <= 4 * sigma
    assert artifacts.summary["best_energy"] == pytest.approx(-3.0)
    assert artifacts.summary["evals_used"] == 1


def test_experiment_artifacts_and_summary(tmp_path):
    config = parse_config(small_raw(p=2, restarts=2))
    artifacts = run_experiment(config, out_dir=tmp_path)
    for path in (artifacts.counts_path, artifacts.trace_path, artifacts.summary_path):
        assert path.exists()

    payload = json.loads(artifacts.counts_path.read_text())
    assert set(payload) == {"shots", "counts", "config_hash", "seed", "instance"}
    assert payload["config_hash"] == config.config_hash
    assert sum(payload["counts"].values()) == 200

    summary = json.loads(artifacts.summary_path.read_text())
    assert 0.0 <= summary["approx_ratio"] <= 1.0
    with open(artifacts.trace_path, encoding="utf-8", newline="") as fh:
        energies = [float(row["energy"]) for row in csv.DictReader(fh)]
    assert summary["best_energy"] == pytest.approx(min(energies))
    assert summary["max_cut"] == 6.0
    assert len(summary["theta"]) == 4
    assert "wall_time_s" not in summary
    assert summary["total_evals"] >= summary["evals_used"]


def test_optimized_depth2_finds_the_solution_pair(tmp_path):
    config = parse_config(small_raw(p=2, shots=1000))
    artifacts = run_experiment(config, out_dir=tmp_path)
    assert set(artifacts.summary["best_bitstrings"]) <= set(GROUND_PAIR)
    assert artifacts.summary["approx_ratio"] == 1.0


def test_trace_csv_format(tmp_path):
    config = parse_config(small_raw(p=2))
    artifacts = run_experiment(config, out_dir=tmp_path)
    with open(artifacts.trace_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["eval", "energy", "beta_1", "beta_2", "gamma_1", "gamma_2"]
    assert len(rows) - 1 == artifacts.summary["evals_used"]
    assert [int(r[0]) for r in rows[1:]] == list(range(len(rows) - 1))
    for r in rows[1:]:
        for cell in r[1:]:
            float(cell)


def test_rerun_is_byte_identical(tmp_path):
    config = parse_config(small_raw(mode="sampled", max_evals=60))
    a = run_experiment(config, out_dir=tmp_path / "a")
    b = run_experiment(config, out_dir=tmp_path / "b")
    assert a.counts_path.read_bytes() == b.counts_path.read_bytes()
    assert a.trace_path.read_bytes() == b.trace_path.read_bytes()
    assert a.summary_path.read_bytes() == b.summary_path.read_bytes()


def test_noisy_mode_runs_end_to_end(tmp_path):
    config = parse_config(
        small_raw(mode="noisy", shots=64, max_evals=30, noise={"p2q": 0.02, "twirling": True})
    )
    artifacts = run_experiment(config, out_dir=tmp_path)
    assert sum(json.loads(artifacts.counts_path.read_text())["counts"].values()) == 64


# -- run_sweep --------------------------------------------------------------------


def test_sweep_writes_per_cell_artifacts(tmp_path):
    config = parse_config({"p": 0, "seed": 3, "shots": 64, "sweep": {"shots": [32, 64]}})
    rows = run_sweep(config, out_dir=tmp_path)
    assert [row["shots"] for row in rows] == [32, 64]
    assert len({row["seed"] for row in rows}) == 2
    for row in rows:
        cell_dir = tmp_path / f"cell_{row['cell']:03d}_shots{row['shots']}"
        assert (cell_dir / "counts.json").exists()
        assert (cell_dir / "trace.csv").exists()
        assert (cell_dir / "summary.json").exists()
    with open(tmp_path / "sweep.csv", newline="") as fh:
        parsed = list(csv.DictReader(fh))
    assert len(parsed) == 2
    assert parsed[0]["status"] == "converged"
    assert float(parsed[0]["f_best"]) == pytest.approx(rows[0]["f_best"])


def test_sweep_without_axes_equals_single_run(tmp_path):
    config = parse_config(small_raw(max_evals=40))
    rows = run_sweep(config, out_dir=tmp_path / "sweep")
    direct = run_experiment(config, out_dir=tmp_path / "direct")
    assert len(rows) == 1
    cell_dir = tmp_path / "sweep" / "cell_000_single"
    assert (cell_dir / "counts.json").read_bytes() == direct.counts_path.read_bytes()
    assert (cell_dir / "summary.json").read_bytes() == direct.summary_path.read_bytes()


def test_sweep_cell_limit():
    config = parse_config({"sweep": {"shots": [1] * 1001}})
    with pytest.raises(ConfigError, match="exceeds"):
        run_sweep(config)


@pytest.mark.parametrize(
    "raw,needle",
    [
        ({"sweep": {"p": [1, -1]}}, "^p: "),
        ({"mode": "noisy", "shots": 16, "sweep": {"noise": ["none", "bogus"]}}, "^noise: "),
        ({"max_evals": 5, "sweep": {"p": [1, 3]}}, "^max_evals: "),
    ],
)
def test_sweep_rejects_a_bad_cell_before_running_any(tmp_path, raw, needle):
    config = parse_config(raw)
    with pytest.raises(ConfigError, match=needle):
        run_sweep(config, out_dir=tmp_path / "out")
    assert not list(tmp_path.rglob("cell_*"))


def test_cli_sweep_labels_inline_noise_objects(tmp_path, capsys):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({
        "p": 1, "mode": "noisy", "shots": 16, "max_evals": 4, "seed": 3,
        "sweep": {"noise": ["none", "ibm-bounds", {"sigma_dephase": 0.2, "dd": True}]},
    }))
    out = tmp_path / "sweep_out"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    names = sorted(d.name for d in out.glob("cell_*"))
    assert names == ["cell_000_noisenone", "cell_001_noiseibm-bounds", "cell_002_noisecustom2"]
    assert not any(c in name for name in names for c in "{}'\" ")
    with open(out / "sweep.csv", newline="") as fh:
        assert [row["noise"] for row in csv.DictReader(fh)] == ["none", "ibm-bounds", "custom2"]
    assert "noise=custom2" in printed


def test_sweep_without_noise_axis_labels_noise_custom(tmp_path):
    config = parse_config({"p": 0, "shots": 16, "sweep": {"shots": [8]}})
    assert [row["noise"] for row in run_sweep(config, out_dir=tmp_path)] == ["custom"]


def test_best_bitstrings_use_weighted_cut_values(tmp_path):
    inline = {"n": 4, "edges": [[0, 1], [1, 2], [2, 3], [0, 3], [0, 2]],
              "weights": [0.3, 1.7, 0.45, 2.2, 0.9]}
    config = parse_config(small_raw(mode="sampled", shots=64, max_evals=10,
                                    instance={"inline": inline}))
    summary = run_experiment(config, out_dir=tmp_path).summary
    counts = json.loads((tmp_path / "counts.json").read_text())["counts"]
    cuts = {bits: cut_value(config.instance, bits) for bits in counts}
    best = max(cuts.values())
    assert summary["best_bitstrings"] == sorted(b for b, c in cuts.items() if c == best)
    assert summary["approx_ratio"] == best / summary["max_cut"]


def test_method_sweep_from_published_start(paper_sweep_rows):
    assert len(paper_sweep_rows) == 3
    assert [row["method"] for row in paper_sweep_rows] == ["powell", "cobyla", "cg"]
    for row in paper_sweep_rows:
        assert row["f_best"] <= -5.0
        assert row["evals_used"] <= 5000


def test_depth_sweep_concentrates_mass(p_sweep_rows):
    assert [row["p"] for row in p_sweep_rows] == [1, 2, 3, 4, 5]
    by_p = {row["p"]: row["ground_pair_prob"] for row in p_sweep_rows}
    assert by_p[5] >= by_p[1]


# -- CLI ----------------------------------------------------------------------------


def test_cli_brute_force_canonical(capsys):
    assert main(["brute-force", "--graph", "canonical"]) == 0
    assert capsys.readouterr().out.strip() == "6 00011 11100"


def test_cli_brute_force_graph_file(tmp_path, capsys):
    path = tmp_path / "g.txt"
    path.write_text("2\n0 1\n")
    assert main(["brute-force", "--graph", str(path)]) == 0
    assert capsys.readouterr().out.strip() == "1 01 10"


def test_cli_brute_force_missing_file(tmp_path, capsys):
    assert main(["brute-force", "--graph", str(tmp_path / "none.txt")]) == 1
    assert "none.txt" in capsys.readouterr().err


def test_cli_solve_and_plot(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(small_raw(max_evals=40)))
    out = tmp_path / "run_out"
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
    assert "best_energy" in capsys.readouterr().out
    svg = tmp_path / "hist.svg"
    assert main(["plot", "--in", str(out / "counts.json"), "--out", str(svg)]) == 0
    assert svg.read_text().startswith("<svg")
    svg2 = tmp_path / "params.svg"
    assert main([
        "plot", "--in", str(out / "trace.csv"), "--out", str(svg2), "--series", "params",
    ]) == 0
    assert "polyline" in svg2.read_text()


def test_cli_seed_and_out_override_the_config_file(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    raw = small_raw(seed=42, out_dir="from_file", max_evals=10)
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(raw))
    out = tmp_path / "X"
    assert main(["solve", "--config", str(cfg), "--seed", "7", "--out", str(out)]) == 0
    capsys.readouterr()
    assert sorted(path.name for path in out.iterdir()) == [
        "counts.json", "summary.json", "trace.csv"]
    assert not (tmp_path / "from_file").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["seed"] == 7
    assert summary["config_hash"] == parse_config(dict(raw, seed=7)).config_hash
    assert main(["solve", "--config", str(cfg), "--seed", "-1", "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: seed: ")


def test_cli_solve_missing_config(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert main(["solve", "--config", str(missing)]) == 1
    assert str(missing) in capsys.readouterr().err


def test_cli_solve_bad_config_field(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"shotz": 10}))
    assert main(["solve", "--config", str(cfg)]) == 1
    assert "shotz" in capsys.readouterr().err


def test_cli_usage_errors(capsys):
    assert main([]) == 1
    assert main(["conquer"]) == 1
    assert main(["solve"]) == 1
    assert main(["plot", "--in", "x.json"]) == 1
    capsys.readouterr()


def test_cli_plot_missing_input(tmp_path, capsys):
    assert main(["plot", "--in", str(tmp_path / "x.json"), "--out", str(tmp_path / "x.svg")]) == 1
    capsys.readouterr()


def test_cli_sweep(tmp_path, capsys):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"p": 0, "shots": 32, "sweep": {"shots": [32, 48]}}))
    out = tmp_path / "sweep_out"
    assert main(["sweep", "--config", str(cfg), "--out", str(out), "--seed", "9"]) == 0
    assert (out / "sweep.csv").exists()
    assert "cell" in capsys.readouterr().out
