"""Config normalization and hashing: pinned values, properties, sweep cells."""

import json
import tempfile
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qaoalab import harness, rng
from qaoalab.harness import NOISE_PRESETS, RunArtifacts, parse_config, run_sweep

ALL_RATES = {"p1q": 0.01, "p2q": 0.03, "p_readout": 0.02, "epsilon_coherent": 0.04,
             "sigma_dephase": 0.1, "twirling": True, "dd": True, "dd_sequence": "XY4"}

# Hashes that artifacts already on disk carry; a change to any of them
# would break the link from those artifacts to their configs.
PINNED = {
    "defaults": ({}, "051fae9e8c2b24ade056c55d01b7c0785eb06e4ea59eae3084631dc07c4b9d6b"),
    "weighted_inline": (
        {"instance": {"inline": {"n": 4, "edges": [[0, 1], [1, 2], [2, 3], [3, 0]],
                                 "weights": [0.5, 2, 1.25, 3]}}},
        "6e6f0e63528fbe1971d7a64fda2f4edf0b7b9a8dfea6b7b23b66f9366cc00a94",
    ),
    "explicit_init": (
        {"p": 2, "init": [0.3, 1, -0.5, 2.25]},
        "b8577283a0216c843a85d031658aca429ffaab7775a34b6a3b744ddc323f1834",
    ),
    "paper_p5": (
        {"p": 5, "init": "paper-p5"},
        "2f67dcfbd7b51efb83493f010964e4653a52c79689d696938ecffbd41855d516",
    ),
    "noisy_all_rates": (
        {"mode": "noisy", "noise": ALL_RATES, "shots": 64, "seed": 3},
        "c60724aedd96a735099c15ef926667be2101779b91526895a5ae290a85687d03",
    ),
}
FILE_TEXT = "4\n0 1\n1 2 2.5\n2 3\n# comment\n0 3 0.75\n"
FILE_HASH = "8cd8810b3599e550532d5a5c2541c8db894a565e6abcdc4c66bddc70d05d4305"
SWEEP_RAW = {"mode": "noisy", "shots": 16, "max_evals": 4, "seed": 21,
             "sweep": {"p": [1, 2], "method": ["cobyla", "powell"],
                       "noise": ["none", "ibm-bounds"]}}
SWEEP_HASH = "a8c7262e70b8287a3a455863e3bfab6a7017c97e3343da9e88818faaa377ccee"
SWEEP_CELL_HASHES = {
    "cell_000_p1_methodcobyla_noisenone":
        "ae472e9f1bc721468ad48fb6861a01d8fba000a8a499fed3481c2e9e5cfe229c",
    "cell_001_p1_methodcobyla_noiseibm-bounds":
        "195e7759dbac248780015bd225599a9b19a881332683e42d3c0a1b8a76897729",
    "cell_002_p1_methodpowell_noisenone":
        "6f0979bac329d2c9ba3735350d93e0e43c33d35c3fb1cf4baa167cd3dfe6fc8d",
    "cell_003_p1_methodpowell_noiseibm-bounds":
        "eb33f5e8aebda71fc39ba4dfc208336ee0b747f1204009a27366c684569ab6f5",
    "cell_004_p2_methodcobyla_noisenone":
        "891ca5ede424d2f7002652dab4f8e0180ccba53f37f5ab0c7c5ff132ceea9591",
    "cell_005_p2_methodcobyla_noiseibm-bounds":
        "e4975a84d20c0dbe334afc280a2d4c742762c4fbab2b326a9d661e68b7952128",
    "cell_006_p2_methodpowell_noisenone":
        "3b5380553d4eb075f96dd42cba8b1042c7a5fbe60cbc2449df85b76c1c83fd45",
    "cell_007_p2_methodpowell_noiseibm-bounds":
        "b55168f407ce04f6d1216e54a2d8470c4da23e2dfc3e10ad01669005fd69caaa",
}


def test_pinned_config_hashes(tmp_path):
    for name, (raw, digest) in PINNED.items():
        assert parse_config(raw).config_hash == digest, name
    path = tmp_path / "graph.txt"
    path.write_text(FILE_TEXT)
    assert parse_config({"instance": {"file": str(path)}}).config_hash == FILE_HASH


def test_pinned_sweep_cell_hashes(tmp_path):
    config = parse_config(SWEEP_RAW)
    assert config.config_hash == SWEEP_HASH
    run_sweep(config, out_dir=tmp_path)
    written = {
        d.name: json.loads((d / "summary.json").read_text())["config_hash"]
        for d in tmp_path.glob("cell_*")
    }
    assert written == SWEEP_CELL_HASHES


# -- properties ------------------------------------------------------------------


def reference_cell_raw(config, cell: dict, idx: int, swept: bool) -> dict:
    """The inline raw dict the harness once re-parsed for each sweep cell."""
    raw = {
        "instance": {"inline": {
            "n": config.instance.n,
            "edges": [list(e) for e in config.instance.edges],
            "weights": list(config.instance.weights),
        }},
        "p": cell.get("p", config.p),
        "method": cell.get("method", config.method),
        "init": list(config.init) if isinstance(config.init, tuple) else config.init,
        "restarts": config.restarts,
        "shots": cell.get("shots", config.shots),
        "mode": config.mode,
        "noise": cell.get("noise", "none"),
        "seed": rng.derive_key(config.seed, rng.STREAM_CELL, idx) if swept else config.seed,
        "max_evals": config.max_evals,
    }
    if "noise" not in cell:
        raw["noise"] = {
            "p1q": config.noise.p1q, "p2q": config.noise.p2q,
            "p_readout": config.noise.p_readout,
            "epsilon_coherent": config.noise.epsilon_coherent,
            "sigma_dephase": config.noise.sigma_dephase,
            "twirling": config.noise.twirling, "dd": config.noise.dd,
            "dd_sequence": config.noise.dd_sequence,
        }
    return raw


rates = st.sampled_from([0.0, 0.005, 0.02, 0.25])
inline_noise = st.fixed_dictionaries({}, optional={
    "p1q": rates, "p2q": rates, "p_readout": rates,
    "epsilon_coherent": st.sampled_from([0.0, -0.03, 0.05]),
    "sigma_dephase": st.sampled_from([0.0, 0.1, 1]),
    "twirling": st.booleans(), "dd": st.booleans(),
    "dd_sequence": st.sampled_from(["XpXm", "XY4"]),
})
noise_specs = st.one_of(st.sampled_from(sorted(NOISE_PRESETS)), inline_noise)


@st.composite
def instances(draw):
    if draw(st.booleans()):
        return "canonical"
    n = draw(st.integers(2, 5))
    pairs = [[u, v] for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique_by=tuple, max_size=len(pairs)))
    inline = {"n": n, "edges": [e[::-1] if draw(st.booleans()) else e for e in edges]}
    if draw(st.booleans()):
        inline["weights"] = draw(st.lists(
            st.one_of(st.integers(-3, 3), st.sampled_from([0.25, 1.0, -1.5, 2.75])),
            min_size=len(edges), max_size=len(edges)))
    return {"inline": inline}


@st.composite
def raw_configs(draw):
    """Valid raw configs with sweep axes over every field a sweep can vary."""
    mode = draw(st.sampled_from(["exact", "sampled", "noisy"]))
    axes = {}
    if draw(st.booleans()):
        axes["p"] = draw(st.lists(st.integers(0, 3), min_size=1, max_size=3))
    if draw(st.booleans()):
        axes["method"] = draw(st.lists(st.sampled_from(["powell", "cobyla", "cg"]),
                                       min_size=1, max_size=3))
    if mode == "noisy" and draw(st.booleans()):
        axes["noise"] = draw(st.lists(noise_specs, min_size=1, max_size=3))
    if draw(st.booleans()):
        axes["shots"] = draw(st.lists(st.integers(1, 5000), min_size=1, max_size=2))
    p = draw(st.integers(0, 3))
    raw = {"instance": draw(instances()), "p": p, "mode": mode,
           "seed": draw(st.integers(0, 2**64 - 1))}
    if "p" not in axes:
        init = draw(st.sampled_from(["random", "vector"]))
        raw["init"] = init if init == "random" else draw(st.lists(
            st.one_of(st.integers(-3, 3), st.floats(-7, 7)), min_size=2 * p, max_size=2 * p))
    for key, strategy in [
        ("method", st.sampled_from(["powell", "cobyla", "cg"])),
        ("restarts", st.integers(1, 4)),
        ("shots", st.integers(1, 5000)),
        ("noise", noise_specs),
        ("max_evals", st.integers(6, 500)),
    ]:
        if key == "noise" and mode != "noisy":
            continue
        if draw(st.booleans()):
            raw[key] = draw(strategy)
    if axes or draw(st.booleans()):
        raw["sweep"] = axes
    return raw


@st.composite
def shuffled(draw, value):
    """``value`` with the keys of every dict in it in a drawn order."""
    if isinstance(value, dict):
        keys = draw(st.permutations(list(value)))
        return {k: draw(shuffled(value[k])) for k in keys}
    if isinstance(value, list):
        return [draw(shuffled(v)) for v in value]
    return value


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_hash_ignores_raw_key_order(data):
    raw = data.draw(raw_configs())
    again = data.draw(shuffled(raw))
    assert parse_config(again).config_hash == parse_config(raw).config_hash


@settings(max_examples=60, deadline=None)
@given(data=st.data(), preset=st.sampled_from(sorted(NOISE_PRESETS)))
def test_preset_and_inline_noise_hash_alike(data, preset):
    raw = dict(data.draw(raw_configs()), mode="noisy")
    rates = asdict(NOISE_PRESETS[preset])
    defaults = asdict(NOISE_PRESETS["none"])
    # spell out every rate the preset sets, and a drawn subset of the others
    spelled = {k for k in rates if rates[k] != defaults[k]}
    spelled |= set(data.draw(st.lists(st.sampled_from(sorted(rates)), unique=True)))
    inline = {k: rates[k] for k in spelled}
    by_name = parse_config(dict(raw, noise=preset))
    by_rates = parse_config(dict(raw, noise=inline))
    assert by_name == by_rates
    assert by_name.config_hash == by_rates.config_hash


@pytest.mark.parametrize("name, value", [
    ("p_readout", 1), ("p_readout", 0), ("p1q", 0), ("epsilon_coherent", -2),
    ("sigma_dephase", 3), pytest.param("p2q", np.float32(0.25), id="p2q-float32"),
])
def test_a_rate_hashes_as_the_float_it_equals(name, value):
    written = parse_config({"mode": "noisy", "noise": {name: value}, "seed": 1})
    as_float = parse_config({"mode": "noisy", "noise": {name: float(value)}, "seed": 1})
    assert written == as_float
    assert written.config_hash == as_float.config_hash
    assert type(getattr(written.noise, name)) is float


@settings(max_examples=60, deadline=None)
@given(raw=raw_configs())
def test_sweep_cells_equal_the_reparsed_inline_cells(raw):
    config = parse_config(raw)
    calls, ran = [], []

    def optimize(configs, engines):
        calls.append(configs)
        assert len(engines) == len(configs)
        # each config stands in for its own engine and its own best restart
        return [(cell_config, cell_config, 1) for cell_config in configs]

    def write(cell_config, engine, result, total_evals, out):
        # each cell is written with its own outcome of the sweep's one _optimize call
        assert engine is cell_config and result is cell_config
        ran.append(cell_config)
        summary = {"best_energy": -1.0, "approx_ratio": 1.0, "ground_pair_prob": 0.0,
                   "evals_used": 1, "status": "converged"}
        return RunArtifacts(Path(), Path(), Path(), summary)

    real = harness._optimize, harness._write_run
    harness._optimize, harness._write_run = optimize, write
    try:
        with tempfile.TemporaryDirectory() as out:
            run_sweep(config, out_dir=out)
    finally:
        harness._optimize, harness._write_run = real

    # one _optimize call takes every cell, in cell order
    [optimized] = calls
    assert list(map(id, optimized)) == list(map(id, ran))

    axes = raw.get("sweep") or {}
    cells = [{}]
    for key in ("p", "method", "noise", "shots"):
        if key in axes:
            cells = [dict(cell, **{key: v}) for cell in cells for v in axes[key]]
    assert len(ran) == len(cells)
    for idx, (cell, cell_config) in enumerate(zip(cells, ran)):
        expected = parse_config(reference_cell_raw(config, cell, idx, bool(axes)))
        assert cell_config == expected
        assert cell_config.config_hash == expected.config_hash
