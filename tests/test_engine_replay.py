"""The record and replay of ``tests/engine_replay.py``."""

import numpy as np
import pytest

from qaoalab import ansatz
from qaoalab.graph import canonical_instance
from qaoalab.noise import NoiseConfig
from qaoalab.objective import Engine

from engine_replay import NOISY, SWEEPS, main, replay
from reach import load_workloads


def test_a_sweep_replays_to_the_bytes_it_recorded(capsys):
    assert main(["--repeat", "1"]) == 0
    *counts, verdict = capsys.readouterr().out.splitlines()
    settings = [f"{NOISY}/{name}" for name in load_workloads().NOISE_SETTINGS]
    assert [line.split(":")[0] for line in counts] == [*SWEEPS, *settings]
    assert all(int(line.split()[2]) > 0 for line in counts)
    # a replay rebuilds the mixer weights, so its time is a cold measurement;
    # a noisy engine has none
    misses = [int(line.split("misses ")[1].split()[0]) for line in counts]
    assert all(m > 0 for m in misses[:len(SWEEPS)]) and not any(misses[len(SWEEPS):])
    assert verdict == "every replayed result equals the recorded one"


def test_only_replays_the_named_setting(capsys):
    label = f"{NOISY}/{next(iter(load_workloads().NOISE_SETTINGS))}"
    assert main(["--repeat", "1", "--only", label]) == 0
    line, verdict = capsys.readouterr().out.splitlines()
    assert line.startswith(f"{label}: calls ") and int(line.split()[2]) > 0
    assert verdict == "every replayed result equals the recorded one"
    with pytest.raises(SystemExit):
        main(["--only", "noisy-p5"])


def test_a_replayed_energy_that_differs_in_its_bytes_is_caught():
    thetas = np.array([[0.3, 0.7], [1.1, -0.4]])
    noise = NoiseConfig(p1q=0.01, p_readout=0.05, twirling=True)
    for engine, seeds in [(Engine(canonical_instance(), 1), [None, None]),
                          (Engine(canonical_instance(), 1, "sampled", shots=64), [5, 6]),
                          (Engine(canonical_instance(), 1, "noisy", shots=64, noise=noise), [5, 6])]:
        methods = ["__call__"] + ["tallies"] * (engine.shots is not None)
        for name in methods:
            result = getattr(engine, name)(thetas, seeds)
            assert replay(ansatz._mixer_weights, [(engine, name, thetas, seeds, result)])[2]
            moved = result.copy()
            moved[1] = np.nextafter(moved[1], 0.0) if name == "__call__" else moved[1] + 1
            assert not replay(ansatz._mixer_weights, [(engine, name, thetas, seeds, moved)])[2]
