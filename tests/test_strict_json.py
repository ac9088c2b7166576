"""Every JSON file the project keeps or writes is strict JSON (RFC 8259), and counts.json lists its keys in order."""

import json
from pathlib import Path

from qaoalab.harness import parse_config, run_experiment

GOLDEN = Path(__file__).parent / "golden"


def refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_golden_and_fresh_artifacts_are_strict_json(tmp_path):
    runs = {
        "sampled": {"p": 1, "mode": "sampled", "shots": 500, "seed": 3, "max_evals": 8},
        # a final energy whose shot sum is beyond the float range
        "huge-weight": {"instance": {"inline": {"n": 2, "edges": [[0, 1]], "weights": [1e308]}},
                        "p": 1, "init": [0.5, 0.0], "method": "powell", "max_evals": 20},
    }
    for name, raw in runs.items():
        run_experiment(parse_config(raw), tmp_path / name)
    paths = sorted(GOLDEN.rglob("*.json")) + sorted(tmp_path.rglob("*.json"))
    assert len(paths) > 2 * len(runs)
    for path in paths:
        payload = json.loads(path.read_text(encoding="utf-8"), parse_constant=refuse_constant)
        if path.name == "counts.json":
            keys = list(payload["counts"])
            assert keys == sorted(keys), path
            assert len(set(map(len, keys))) == 1, path
