"""Config schema, experiment pipeline, sweeps, and the CLI."""

import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qaoalab
from qaoalab import harness, rng
from qaoalab.ansatz import QaoaParams
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
    sweep_cells,
)
from qaoalab.objective import Engine, evaluate_qaoa
from qaoalab.optim import STATUS_BUDGET, STATUS_CONVERGED, STATUS_STALLED
from qaoalab.plots import plot_histogram, plot_trace
from qaoalab.statevec import MAX_QUBITS, counts_from_tally

from conftest import GROUND_PAIR, assert_same_text


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
    with pytest.raises(ConfigError, match=r"^instance.inline: weight of edge \(0, 1\) must be a "
                                          rf"finite number, got {re.escape(repr(weight))}$"):
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


@pytest.mark.parametrize("raw", [
    small_raw(p=2, max_evals=30),
    small_raw(mode="sampled", shots=128, max_evals=30),
    small_raw(p=0, mode="sampled", shots=128),
    small_raw(mode="noisy", shots=64, max_evals=20,
              noise={"p2q": 0.02, "sigma_dephase": 0.1, "twirling": True, "dd": True}),
], ids=["exact", "sampled", "sampled-p0", "noisy"])
def test_final_counts_and_energy_are_evaluate_qaoa_at_the_final_seed(tmp_path, raw):
    config = parse_config(raw)
    summary = run_experiment(config, out_dir=tmp_path).summary
    # an exact run samples its final counts from the exact state, as a sampled run does
    final = evaluate_qaoa(config.instance, QaoaParams.from_vector(np.array(summary["theta"])),
                          "sampled" if config.mode == "exact" else config.mode,
                          shots=config.shots, noise=config.noise,
                          seed=rng.derive_key(config.seed, rng.STREAM_FINAL))
    assert json.loads((tmp_path / "counts.json").read_text())["counts"] == (
        counts_from_tally(final.tally))
    assert summary["final_energy"] == final.energy


class EngineBuilds:
    """Counts the ``objective.Engine`` objects built."""

    def __init__(self, monkeypatch):
        self.built = 0
        init = Engine.__init__

        def counted(engine, *args, **kwargs):
            self.built += 1
            init(engine, *args, **kwargs)

        monkeypatch.setattr(Engine, "__init__", counted)


@pytest.mark.parametrize("raw", [
    small_raw(p=2, restarts=2, max_evals=20),
    small_raw(mode="sampled", restarts=2, max_evals=20),
    small_raw(mode="noisy", shots=32, max_evals=12, noise={"p1q": 0.01, "dd": True}),
], ids=["exact", "sampled", "noisy"])
def test_a_run_builds_one_engine(tmp_path, monkeypatch, raw):
    engines = EngineBuilds(monkeypatch)
    run_experiment(parse_config(raw), out_dir=tmp_path)
    assert engines.built == 1


@pytest.mark.parametrize("raw", [
    small_raw(p=0),
    small_raw(p=0, mode="sampled", shots=128),
    small_raw(p=0, mode="noisy", shots=128, noise="ibm-bounds"),
], ids=["exact", "sampled", "noisy"])
def test_a_depth_zero_run_scores_its_one_entry_on_its_own_engine(tmp_path, monkeypatch, raw):
    # the uniform state is scored as restart 0's first evaluation, in the run's own mode
    engines = EngineBuilds(monkeypatch)
    config = parse_config(dict(raw, sweep={"method": ["powell", "cobyla"]}))
    rows = run_sweep(config, out_dir=tmp_path)
    assert engines.built == 1
    for (name, _, cell), row in zip(sweep_cells(config), rows):
        seed = (None if cell.mode == "exact" else
                rng.eval_seeds(rng.derive_key(cell.seed, rng.STREAM_EVAL, 0), 0, 1)[0])
        energy = evaluate_qaoa(cell.instance, QaoaParams((), ()), cell.mode, shots=cell.shots,
                               seed=seed, noise=cell.noise).energy
        assert row["f_best"] == energy
        trace = (tmp_path / name / "trace.csv").read_text(encoding="utf-8").splitlines()
        assert trace[1:] == [f"0,{energy:.9g}"]
    if config.mode == "exact":
        assert rows[0]["f_best"] == -3.000000000000001


@pytest.mark.parametrize("raw, groups", [
    (small_raw(max_evals=12, sweep={"method": ["powell", "cobyla", "cg"]}), 1),
    (small_raw(mode="sampled", max_evals=12,
               sweep={"p": [1, 2], "method": ["powell", "cg"], "shots": [32, 64]}), 4),
    (small_raw(mode="noisy", shots=16, max_evals=8,
               sweep={"method": ["cg", "cobyla"], "noise": ["ibm-bounds", "dephase-only"]}), 2),
], ids=["exact", "sampled", "noisy"])
def test_each_group_of_a_sweep_builds_one_engine(tmp_path, monkeypatch, raw, groups):
    engines = EngineBuilds(monkeypatch)
    run_sweep(parse_config(raw), out_dir=tmp_path)
    assert engines.built == groups


def test_a_sweep_is_one_lockstep_run_with_one_engine_per_argument_tuple(tmp_path, monkeypatch):
    engines = EngineBuilds(monkeypatch)
    lockstep = []
    real = harness.minimize_lockstep

    def spy(searches):
        searches = list(searches)
        lockstep.append(searches)
        return real(searches)

    monkeypatch.setattr(harness, "minimize_lockstep", spy)
    config = parse_config(small_raw(mode="sampled", max_evals=8, sweep={
        "p": [0, 1, 2], "method": ["powell", "cg"], "shots": [32, 64]}))
    assert len(run_sweep(config, out_dir=tmp_path)) == 12
    [searches] = lockstep
    # cells that differ only in method share the engine of their (p, shots)
    assert engines.built == 6
    objectives = {id(problem.objective): problem.objective for _, problem in searches}
    assert sorted((e.p, e.shots) for e in objectives.values()) == [
        (p, shots) for p in (0, 1, 2) for shots in (32, 64)]


def test_a_depth_zero_run_is_one_search_whatever_its_restarts(tmp_path):
    # no angles to restart: the one evaluation keeps restart 0's first seed
    config = parse_config(small_raw(p=0, mode="sampled", shots=128, restarts=3))
    summary = run_experiment(config, out_dir=tmp_path).summary
    assert (summary["total_evals"], summary["evals_used"]) == (1, 1)
    assert summary["status"] == STATUS_CONVERGED
    seed = rng.eval_seeds(rng.derive_key(config.seed, rng.STREAM_EVAL, 0), 0, 1)[0]
    energy = evaluate_qaoa(config.instance, QaoaParams((), ()), "sampled", shots=128,
                           seed=seed).energy
    assert summary["best_energy"] == energy


def csv_writer_text(header, rows) -> str:
    """The artifacts' CSV text as ``csv.writer`` writes it: floats as .9g, the rest str."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([f"{v:.9g}" if isinstance(v, float) else str(v) for v in row])
    return buf.getvalue()


SPECIAL_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 2.5e-310,
                  sys.float_info.min, sys.float_info.max, 1e-300, -123456789.123456789]
STRINGS = [STATUS_CONVERGED, STATUS_BUDGET, STATUS_STALLED, "powell", "cobyla", "cg",
           "custom", "custom3", *NOISE_PRESETS]
floats = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats())
ints = st.one_of(st.sampled_from([0, 2**63, 2**64 - 1, -2**70]), st.integers())
# a trace row at p=5, and a sweep.csv row
trace_rows = st.tuples(ints, *[floats] * 11)
sweep_rows = st.tuples(ints, ints, st.sampled_from(STRINGS), st.sampled_from(STRINGS), ints,
                       ints, floats, floats, floats, ints, st.sampled_from(STRINGS))


@settings(max_examples=80, deadline=None)
@given(rows=st.one_of(st.lists(trace_rows, max_size=20), st.lists(sweep_rows, max_size=20)))
def test_csv_text_equals_the_csv_writer_form(rows):
    header = [f"h{i}" for i in range(12 if not rows else len(rows[0]))]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "out.csv"
        harness._write_csv(path, header, iter(rows))
        assert path.read_bytes() == csv_writer_text(header, rows).encode()


def test_csv_text_covers_every_special_value_and_status(tmp_path):
    rows = [(i, f, *SPECIAL_FLOATS[:10], status)
            for i, (f, status) in enumerate(zip(SPECIAL_FLOATS, STRINGS))]
    rows.append((2**64 - 1, -0.0, *SPECIAL_FLOATS[1:11], STRINGS[-1]))
    header = [f"h{i}" for i in range(13)]
    harness._write_csv(tmp_path / "out.csv", header, rows)
    assert (tmp_path / "out.csv").read_bytes() == csv_writer_text(header, rows).encode()


# -- counts.json bytes --------------------------------------------------------


def dumped_counts_json(tally, config, instance_text) -> str:
    """counts.json as a dict of formatted keys passed through ``json.dumps``."""
    n = tally.size.bit_length() - 1
    payload = {
        "shots": int(tally.sum()),
        "counts": {format(i, f"0{n}b"): int(c) for i, c in enumerate(tally.tolist()) if c},
        "config_hash": config.config_hash,
        "seed": config.seed,
        "instance": instance_text,
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def seeded_tally(n: int, kind: str, gen) -> np.ndarray:
    if kind == "sampled":
        return gen.multinomial(4096, gen.dirichlet(np.full(1 << n, 0.3)))
    if kind == "one-hit":
        return np.bincount([gen.integers(1 << n)], minlength=1 << n) * 4096
    return gen.integers(1, 10**6, 1 << n)  # every index hit


@pytest.mark.parametrize("kind", ["sampled", "one-hit", "every-index"])
@pytest.mark.parametrize("n", [1, 2, 5, 14, 16])
def test_counts_json_is_the_dumped_payload_byte_for_byte(tmp_path, n, kind):
    gen = np.random.default_rng([n, len(kind)])
    edges = [[u, v] for u in range(n) for v in range(u + 1, n) if gen.random() < 3 / n]
    weights = [float(w) for w in gen.choice([1.0, 0.5, 2.25, 1e-3], len(edges))]
    config = parse_config({"instance": {"inline": {"n": n, "edges": edges, "weights": weights}},
                           "seed": int(gen.integers(2**63)) * 2 + 1})
    tally = seeded_tally(n, kind, gen)
    path = tmp_path / "counts.json"
    harness.write_counts_json(path, tally, config)
    text = path.read_text(encoding="utf-8")
    assert_same_text(text, dumped_counts_json(tally, config,
                                              harness.serialize_edge_list(config.instance)))
    assert path.read_bytes() == text.encode()


@pytest.mark.parametrize("instance_text", ['5\n0 1 "w"\n', "tab\there\\ \u00e9 \u2028 \x00\x1f", ""])
def test_counts_json_escapes_the_instance_text_as_json_does(tmp_path, monkeypatch, instance_text):
    monkeypatch.setattr(harness, "serialize_edge_list", lambda instance: instance_text)
    config = parse_config({"seed": 2**64 - 1})
    tally = np.array([0, 7, 0, 0, 1, 0, 0, 2])
    harness.write_counts_json(tmp_path / "counts.json", tally, config)
    assert_same_text((tmp_path / "counts.json").read_text(encoding="utf-8"),
                     dumped_counts_json(tally, config, instance_text))


def test_counts_json_refuses_a_malformed_tally_by_the_tally_rule(tmp_path):
    config = parse_config({})
    for tally in (np.array([1, 2, 3]), np.array([1, -2, 3, 0]), np.array([1.5, 2, 0, 0])):
        with pytest.raises(ValueError, match="^tally must be a 1-D integer array"):
            harness.write_counts_json(tmp_path / "counts.json", tally, config)
    assert not (tmp_path / "counts.json").exists()


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


class EngineCalls:
    """Counts the engine calls of every ``objective.Engine``."""

    def __init__(self, monkeypatch):
        self.calls = 0
        call = Engine.__call__

        def counted(engine, thetas, seeds):
            self.calls += 1
            return call(engine, thetas, seeds)

        monkeypatch.setattr(Engine, "__call__", counted)


class EngineAsks:
    """Logs (entry, rows) of each outermost ``__call__`` or ``tallies`` of an ``objective.Engine``."""

    def __init__(self, monkeypatch):
        self.log = []
        depth = 0
        for entry in ("__call__", "tallies"):
            def logged(engine, thetas, seeds, entry=entry, inner=getattr(Engine, entry)):
                nonlocal depth
                if depth == 0:
                    self.log.append((entry, len(thetas)))
                depth += 1
                try:
                    return inner(engine, thetas, seeds)
                finally:
                    depth -= 1

            monkeypatch.setattr(Engine, entry, logged)


@pytest.mark.parametrize("raw, asks", [
    # cobyla asks x0 with its nine simplex vertices: the whole budget in one call
    ({"p": 5, "init": "paper-p5", "method": "cobyla", "mode": "noisy", "noise": "ibm-bounds",
      "shots": 16, "seed": 3, "max_evals": 10}, [("__call__", 10), ("tallies", 1)]),
    # cg asks x0 with its four central-difference points
    (small_raw(method="cg", mode="sampled", shots=64, max_evals=5),
     [("__call__", 5), ("tallies", 1)]),
], ids=["noisy-cobyla-p5", "sampled-cg-p1"])
def test_a_search_start_is_one_engine_call(tmp_path, monkeypatch, raw, asks):
    engine = EngineAsks(monkeypatch)
    run_experiment(parse_config(raw), out_dir=tmp_path)
    # the optimizer's calls, then the final counts at the best angles
    assert engine.log == asks


def artifact_bytes(root: Path) -> dict[str, bytes]:
    return {path.relative_to(root).as_posix(): path.read_bytes()
            for path in sorted(root.rglob("*")) if path.is_file()}


@pytest.mark.parametrize("raw", [
    {"p": 5, "init": "paper-p5", "mode": "exact", "seed": 5, "max_evals": 60,
     "sweep": {"method": ["powell", "cobyla", "cg"]}},
    {"mode": "sampled", "shots": 64, "restarts": 2, "seed": 6, "max_evals": 25,
     "sweep": {"p": [1, 2], "method": ["powell", "cobyla", "cg"]}},
    # method outermost: the cells of one noise setting are not adjacent
    {"mode": "noisy", "shots": 16, "restarts": 2, "seed": 7, "max_evals": 6,
     "sweep": {"method": ["cg", "powell"], "noise": ["ibm-bounds", {"sigma_dephase": 0.1}]}},
], ids=["exact-p5-methods", "sampled-p-by-method", "noisy-method-by-noise"])
def test_grouped_sweep_writes_each_cells_own_artifacts_in_fewer_engine_calls(
        tmp_path, monkeypatch, raw):
    config = parse_config(raw)
    engine = EngineCalls(monkeypatch)
    for name, _, cell_config in sweep_cells(config):
        run_experiment(cell_config, tmp_path / "alone" / name)
    alone_calls, engine.calls = engine.calls, 0
    rows = run_sweep(config, tmp_path / "sweep")
    swept = artifact_bytes(tmp_path / "sweep")
    assert swept.pop("sweep.csv")
    assert swept == artifact_bytes(tmp_path / "alone")
    assert [row["cell"] for row in rows] == list(range(len(rows)))
    # the cells that differ only in method share every engine call: a sweep
    # that ran its cells one at a time would make as many calls as alone
    assert engine.calls < alone_calls


def test_sweep_without_axes_equals_single_run(tmp_path):
    config = parse_config(small_raw(max_evals=40))
    rows = run_sweep(config, out_dir=tmp_path / "sweep")
    direct = run_experiment(config, out_dir=tmp_path / "direct")
    assert len(rows) == 1
    cell_dir = tmp_path / "sweep" / "cell_000_single"
    assert (cell_dir / "counts.json").read_bytes() == direct.counts_path.read_bytes()
    assert (cell_dir / "summary.json").read_bytes() == direct.summary_path.read_bytes()


def test_one_run_refuses_sweep_axes_before_making_a_directory(tmp_path, capsys):
    raw = small_raw(max_evals=40, sweep={"method": ["powell", "cg"]})
    with pytest.raises(ConfigError, match=r"^sweep: .*\['method'\].*`qaoalab sweep`"):
        run_experiment(parse_config(raw), out_dir=tmp_path / "out")
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps(raw))
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "cli")]) == 1
    assert capsys.readouterr().err.startswith("error: sweep: ")
    assert sorted(path.name for path in tmp_path.iterdir()) == ["sweep.json"]
    # an empty sweep is the base experiment, which one run covers
    empty = run_experiment(parse_config(small_raw(max_evals=40, sweep={})), out_dir=tmp_path / "empty")
    assert empty.summary == run_experiment(parse_config(small_raw(max_evals=40)),
                                           out_dir=tmp_path / "base").summary | {
        "config_hash": empty.summary["config_hash"]}


def test_sweep_cell_limit():
    with pytest.raises(ConfigError, match="^sweep: 1001 cells exceeds"):
        parse_config({"sweep": {"shots": [1] * 1001}})
    # the count comes from the axis lengths, before any cell is built
    axes = {"p": [1] * 1000, "shots": [1] * 1000, "method": ["cg"] * 1000}
    with pytest.raises(ConfigError, match=r"^sweep: 1000000000 cells exceeds"):
        parse_config({"sweep": axes})
    parse_config({"sweep": {"p": [1] * 10, "shots": [1] * 100}})


@pytest.mark.parametrize(
    "raw,needle",
    [
        ({"sweep": {"p": [1, -1]}}, "^p: "),
        ({"mode": "noisy", "shots": 16, "sweep": {"noise": ["none", "bogus"]}}, "^noise: "),
        ({"max_evals": 5, "sweep": {"p": [1, 3]}}, "^max_evals: "),
    ],
)
def test_sweep_rejects_a_bad_cell_before_running_any(tmp_path, raw, needle):
    # the config is refused when it is built, by the entry and then the rule's message
    with pytest.raises(ConfigError, match=r"^sweep\.\w+\[1\]: " + needle[1:]):
        run_sweep(parse_config(raw), out_dir=tmp_path / "out")
    assert not list(tmp_path.rglob("cell_*"))


@pytest.mark.parametrize("raw, message", [
    ({"p": 1, "sweep": {"p": [1, "x"]}}, "sweep.p[1]: p: must be an integer >= 0, got 'x'"),
    ({"mode": "noisy", "shots": 16, "sweep": {"noise": ["none", {"p1q": 2}]}},
     "sweep.noise[1]: noise: p1q must be a finite number in [0, 1], got 2"),
    ({"p": 5, "init": "paper-p5", "sweep": {"p": [1, 5]}},
     "sweep.p[0]: init: preset 'paper-p5' requires p = 5, got p = 1"),
])
def test_parse_config_refuses_a_sweep_entry_by_its_name(raw, message):
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        parse_config(raw)


def test_parse_config_of_a_sweep_builds_no_cell(tmp_path, monkeypatch):
    # a config checks each sweep entry alone and keeps no cells: only a run builds them
    built = []
    cells = harness.sweep_cells
    monkeypatch.setattr(harness, "sweep_cells", lambda config: built.append(config) or cells(config))
    config = parse_config({"p": 0, "seed": 3, "shots": 16, "sweep": {"shots": [8, 16]}})
    config = replace(config, seed=4)  # as the CLI's --seed
    assert built == []
    assert [row["shots"] for row in run_sweep(config, out_dir=tmp_path)] == [8, 16]
    assert built == [config]


def test_the_first_bad_sweep_entry_is_named_in_axis_order():
    # shots is written first, but p comes first in the order of a sweep's axes
    raw = {"sweep": {"shots": [0], "p": [1, -1, -2]}}
    with pytest.raises(ConfigError, match=r"^sweep\.p\[1\]: p: must be an integer >= 0, got -1$"):
        parse_config(raw)


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


def test_python_dash_m_runs_the_cli():
    src = str(Path(qaoalab.__path__[0]).parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-m", "qaoalab", "brute-force", "--graph", "canonical"],
                          capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "6 00011 11100\n"


def test_cli_brute_force_graph_file(tmp_path, capsys):
    path = tmp_path / "g.txt"
    path.write_text("2\n0 1\n")
    assert main(["brute-force", "--graph", str(path)]) == 0
    assert capsys.readouterr().out.strip() == "1 01 10"


def test_cli_brute_force_missing_file(tmp_path, capsys):
    assert main(["brute-force", "--graph", str(tmp_path / "none.txt")]) == 1
    assert "none.txt" in capsys.readouterr().err


def test_cli_brute_force_names_a_bad_graph_file(tmp_path, capsys):
    # the same rule as a config's instance.file, under the option's name
    path = tmp_path / "g.txt"
    path.write_text("3\n0 1\n1 x\n")
    with pytest.raises(ConfigError) as refused:
        parse_config({"instance": {"file": str(path)}})
    assert str(refused.value) == f"instance.file: {path}: line 3: endpoints '1' 'x' must be integers"
    assert main(["brute-force", "--graph", str(path)]) == 1
    assert capsys.readouterr().err == f"error: --graph: {path}: line 3: endpoints '1' 'x' must be integers\n"


CONFIG_REFUSALS = [
    ({"version": True}, "version: unsupported schema version True"),
    ({"version": 1.0}, "version: unsupported schema version 1.0"),
    ({"instance": {"file": 5}}, "instance.file: must be a string path, got 5"),
    ({"instance": {"file": [1]}}, "instance.file: must be a string path, got [1]"),
    ({"instance": {"file": None}}, "instance.file: must be a string path, got None"),
    ({"instance": {"inline": {"n": 3, "edges": None}}},
     "instance.inline.edges: must be a list, got None"),
    ({"instance": {"inline": {"n": 3, "edges": 5}}}, "instance.inline.edges: must be a list, got 5"),
    ({"instance": {"inline": {"n": 3, "edges": [[0, 1]], "weights": None}}},
     "instance.inline.weights: must be a list, got None"),
    ({"instance": {"inline": {"n": 3, "edges": [[0, 1]], "weights": 5}}},
     "instance.inline.weights: must be a list, got 5"),
    ({"instance": {"inline": {"n": 3, "edges": [5]}}}, "instance.inline: edge 5 is not a pair"),
    ({"out_dir": 5}, "out_dir: must be a string path, got 5"),
    ({"noise": 5}, "noise must be a JSON object, got int"),
    ({"instance": "foo"}, "instance: unknown named instance 'foo'"),
    ({"instance": {}}, "instance: give exactly one of 'file' or 'inline'"),
    ({"instance": {"file": "g.txt", "inline": {"n": 2}}},
     "instance: give exactly one of 'file' or 'inline'"),
]


@pytest.mark.parametrize("raw, message", CONFIG_REFUSALS)
def test_a_refused_config_names_its_field_first(tmp_path, capsys, raw, message):
    with pytest.raises(ConfigError) as refused:
        parse_config(raw)
    assert str(refused.value).startswith(message)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    assert main(["solve", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith(f"error: {message}")


def test_a_graph_path_that_is_no_file_is_refused_by_name(tmp_path, capsys):
    with pytest.raises(ConfigError) as refused:
        parse_config({"instance": {"file": str(tmp_path)}})
    assert str(refused.value) == f"instance.file: not a file: {tmp_path}"
    assert main(["brute-force", "--graph", str(tmp_path)]) == 1
    assert capsys.readouterr().err == f"error: --graph: not a file: {tmp_path}\n"


FILE_REFUSALS = {"directory": "not a file", "missing": "not found", "not-utf8": "not UTF-8 text"}


@pytest.mark.parametrize("suffix", [".json", ".csv"])
@pytest.mark.parametrize("kind", list(FILE_REFUSALS))
def test_every_file_a_command_reads_is_refused_by_the_one_rule(tmp_path, capsys, kind, suffix):
    path = tmp_path / f"input{suffix}"  # plot reads a .csv as a trace, else as counts
    if kind == "directory":
        path.mkdir()
    elif kind == "not-utf8":
        path.write_bytes(b"\xff\xfe{}")
    svg = tmp_path / "x.svg"
    for argv in (["solve", "--config", str(path)], ["sweep", "--config", str(path)],
                 ["plot", "--in", str(path), "--out", str(svg)],
                 ["brute-force", "--graph", str(path)]):
        assert main(argv) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, argv
        assert f"{FILE_REFUSALS[kind]}: {path}" in err, argv
    assert not svg.exists()
    for read, error in ((load_config, ConfigError), (plot_histogram, ValueError),
                        (plot_trace, ValueError)):
        with pytest.raises(error, match=re.escape(f"{FILE_REFUSALS[kind]}: {path}")):
            read(path)


def test_cli_reports_an_os_error_as_an_io_error(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps(small_raw(max_evals=10)))
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert main(["solve", "--config", str(config), "--out", str(blocker / "out")]) == 2
    assert capsys.readouterr().err.startswith("io error: ")


def test_a_graph_whose_cut_sums_overflow_is_refused_by_name(tmp_path, capsys):
    message = "weights must have a finite total |weight|"
    inline = {"n": 3, "edges": [[0, 1], [0, 2]], "weights": [1e308, 1e308]}
    with pytest.raises(ConfigError, match=re.escape(f"instance.inline: {message}")):
        parse_config({"instance": {"inline": inline}})
    path = tmp_path / "g.txt"
    path.write_text("3\n0 1 1e308\n0 2 1e308\n")
    with pytest.raises(ConfigError, match=re.escape(f"instance.file: {path}: {message}")):
        parse_config({"instance": {"file": str(path)}})
    assert main(["brute-force", "--graph", str(path)]) == 1
    assert capsys.readouterr().err.startswith(f"error: --graph: {path}: {message}")


@pytest.mark.parametrize("noise, field", [({"epsilon_coherent": 9e307}, "noise: epsilon_coherent"),
                                          ({"sigma_dephase": 1e307}, "noise.sigma_dephase")])
@pytest.mark.parametrize("command", ["solve", "sweep"])
def test_a_noise_angle_that_overflows_is_refused_before_any_directory(tmp_path, capsys, noise,
                                                                      field, command):
    # 2 epsilon, or a kick angle of up to 2 * 8.5718 sigma times the makespan,
    # would be infinite: refused by name, with no numpy warning and no directory
    config = tmp_path / "config.json"
    raw = small_raw(mode="noisy", shots=16, max_evals=4, noise=noise)
    if command == "sweep":
        raw["sweep"] = {"method": ["cobyla", "powell"]}
    config.write_text(json.dumps(raw))
    out = tmp_path / "out"
    assert main([command, "--config", str(config), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {field}")
    assert not out.exists()


def test_a_search_whose_angle_products_overflow_prints_no_numpy_warning(tmp_path, capsys):
    # 2 * gamma * 1e308 overflows from gamma = 0.9: those rows score NaN, silently
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "instance": {"inline": {"n": 2, "edges": [[0, 1]], "weights": [1e308]}},
        "p": 1, "init": "random", "method": "powell", "seed": 3, "max_evals": 20}))
    assert main(["solve", "--config", str(config), "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == "error: objective returned no finite value in 7 evaluations\n"


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
    # a trace's series defaults to energy; a counts file has none to choose
    assert main(["plot", "--in", str(out / "trace.csv"), "--out", str(svg2)]) == 0
    assert svg2.read_text() == plot_trace(out / "trace.csv", "energy")
    capsys.readouterr()
    svg3 = tmp_path / "refused.svg"
    assert main(["plot", "--in", str(out / "counts.json"), "--out", str(svg3),
                 "--series", "params"]) == 1
    assert capsys.readouterr().err == "error: --series: a counts file has no series, got 'params'\n"
    assert not svg3.exists()


@pytest.mark.parametrize("suffix", [".CSV", ".Csv"])
def test_cli_plot_reads_a_trace_by_its_suffix_in_any_case(tmp_path, capsys, suffix):
    # a trace saved as T.CSV is a trace, not counts JSON
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(small_raw(max_evals=12)))
    out = tmp_path / "run_out"
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
    trace = tmp_path / f"T{suffix}"
    trace.write_bytes((out / "trace.csv").read_bytes())
    svg = tmp_path / "trace.svg"
    assert main(["plot", "--in", str(trace), "--out", str(svg), "--series", "params"]) == 0
    assert svg.read_text() == plot_trace(out / "trace.csv", "params")
    capsys.readouterr()


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


def test_oversized_instance_rejected_at_parse():
    inline = {"n": MAX_QUBITS + 1, "edges": [[0, MAX_QUBITS]]}
    with pytest.raises(ConfigError, match=rf"^instance: {MAX_QUBITS + 1} nodes exceed"):
        parse_config({"instance": {"inline": inline}})
    parse_config({"instance": {"inline": {"n": MAX_QUBITS, "edges": [[0, 1]]}}})


@pytest.mark.parametrize("mode", ["exact", "sampled", "noisy"])
def test_cli_solve_oversized_instance_writes_nothing(tmp_path, capsys, mode):
    cfg = tmp_path / "big.json"
    inline = {"n": MAX_QUBITS + 1, "edges": [[0, 1]]}
    cfg.write_text(json.dumps({"mode": mode, "instance": {"inline": inline}}))
    out = tmp_path / "out"
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: instance: ")
    assert not out.exists()


def test_cli_solve_bad_config_field(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"shotz": 10}))
    assert main(["solve", "--config", str(cfg)]) == 1
    assert "shotz" in capsys.readouterr().err


def test_cli_usage_errors(capsys):
    for argv, message in [
        ([], "qaoalab: error: the following arguments are required: command"),
        (["conquer"], "qaoalab: error: argument command: invalid choice: 'conquer'"),
        (["solve"], "qaoalab solve: error: the following arguments are required: --config"),
        (["plot", "--in", "x.json"], "qaoalab plot: error: the following arguments are required: --out"),
        (["plot", "--in", "x.json", "--out", "x.svg", "--series", "bogus"],
         "qaoalab plot: error: argument --series: invalid choice: 'bogus'"),
    ]:
        assert main(argv) == 1
        usage, error = capsys.readouterr().err.splitlines()
        assert usage.startswith("usage: qaoalab"), argv
        assert error.startswith(message), argv


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


def test_exact_and_sampled_runs_never_load_the_noisy_engine(tmp_path):
    # qaoalab.trajectories is loaded on first noisy use only, so its code
    # adds nothing to the import and set-up of exact and sampled work
    probe = (
        "import sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "from qaoalab.harness import parse_config, run_experiment\n"
        "for mode in ('exact', 'sampled'):\n"
        "    config = parse_config({'p': 2, 'mode': mode, 'shots': 64, 'max_evals': 12, 'seed': 3})\n"
        "    run_experiment(config, sys.argv[2] + '/' + mode)\n"
        "print(sorted(m for m in sys.modules if m.startswith('qaoalab.')))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe, str(Path(qaoalab.__path__[0]).parent), str(tmp_path)],
        capture_output=True, text=True, check=True,
    ).stdout
    assert "qaoalab.harness" in out and "qaoalab.trajectories" not in out
    assert (tmp_path / "exact" / "summary.json").is_file()
    assert (tmp_path / "sampled" / "counts.json").is_file()
