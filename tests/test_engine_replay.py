"""The record and replay of ``tests/engine_replay.py``."""

import numpy as np

from qaoalab import ansatz
from qaoalab.graph import canonical_instance
from qaoalab.objective import Engine

from engine_replay import main, replay


def test_a_sweep_replays_to_the_bytes_it_recorded(capsys):
    assert main(["--repeat", "1"]) == 0
    counts, _, verdict = capsys.readouterr().out.splitlines()
    assert counts.startswith("calls ") and int(counts.split()[-1]) > 0
    assert verdict == "every replayed energy equals the recorded one"


def test_a_replayed_energy_that_differs_in_its_bytes_is_caught():
    engine = Engine(canonical_instance(), 1)
    thetas = np.array([[0.3, 0.7], [1.1, -0.4]])
    energies = engine(thetas, [None, None])
    assert replay(engine, ansatz._mixer_weights, [(thetas, [None, None], energies)])[2]
    moved = energies.copy()
    moved[1] = np.nextafter(moved[1], 0.0)
    assert not replay(engine, ansatz._mixer_weights, [(thetas, [None, None], moved)])[2]
