"""The record and replay of ``tests/engine_replay.py``."""

import numpy as np

from qaoalab import ansatz
from qaoalab.graph import canonical_instance
from qaoalab.objective import Engine

from engine_replay import SWEEPS, main, replay


def test_a_sweep_replays_to_the_bytes_it_recorded(capsys):
    assert main(["--repeat", "1"]) == 0
    *counts, verdict = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in counts] == list(SWEEPS)
    assert all(int(line.split()[2]) > 0 for line in counts)
    # a replay rebuilds the mixer weights, so its time is a cold measurement
    assert all(int(line.split("misses ")[1].split()[0]) > 0 for line in counts)
    assert verdict == "every replayed energy equals the recorded one"


def test_a_replayed_energy_that_differs_in_its_bytes_is_caught():
    thetas = np.array([[0.3, 0.7], [1.1, -0.4]])
    for engine, seeds in [(Engine(canonical_instance(), 1), [None, None]),
                          (Engine(canonical_instance(), 1, "sampled", shots=64), [5, 6])]:
        energies = engine(thetas, seeds)
        assert replay(ansatz._mixer_weights, [(engine, thetas, seeds, energies)])[2]
        moved = energies.copy()
        moved[1] = np.nextafter(moved[1], 0.0)
        assert not replay(ansatz._mixer_weights, [(engine, thetas, seeds, moved)])[2]
