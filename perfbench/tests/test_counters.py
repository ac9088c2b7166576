"""A traced run's counters repeat exactly for the same seed.

Run from the repository root:

    python3 -m pytest perfbench/tests

Each case starts the benchmark twice in its own process, with one
untraced and one traced pass each, so the whole module takes about
two minutes on two cores.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parent.parent / "run.py"
ROOT = RUN.parent.parent


def traced_counters(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, proc.stdout
    return {name: m["value"] for name, m in result["metrics"].items()
            if m["unit"] in ("count", "B")}


@pytest.mark.parametrize("workload", ["paper-p5", "sampled-n14", "noisy-p5"])
def test_same_seed_gives_identical_counters(workload):
    first = traced_counters(workload, 7)
    assert first["statevec.gates_applied"] > 0
    assert first["objective.evals"] == first["optim.evals"]
    assert traced_counters(workload, 7) == first
