"""Record the engine calls of two benchmark sweeps and replay them, timed and checked.

The sweeps are those of the ``paper-p5`` and ``sampled-n14`` benchmark
workloads at ``--seed``, their configs from ``make_inputs`` in
``perfbench/workloads.py``, executed from source as ``tests/reach.py``
does, so nothing is written under ``perfbench/``. ``paper-p5`` runs the
canonical graph at p = 5 in exact mode, where the mixer is one folded
block; ``sampled-n14`` runs a seeded 3-regular graph on 14 nodes,
sampled, at p = 1 and 2, where the mixer runs in blocks. Each sweep
runs once through ``harness.run_sweep`` into a temporary directory,
with ``objective.Engine.__call__`` wrapped to record every batch of
angle rows, its seeds, its engine and the energies it returned. The
recorded calls are then replayed ``--repeat`` times, with their seeds,
on fresh engines built like the recorded ones, each time with
``ansatz._mixer_weights`` emptied first, and the best time is kept.
Replaying isolates the engine from the optimizers and the artifact
writing, so it reads steadier than whole-pass timing.

Run from the repository root, with one BLAS thread (the script sets
the thread variables itself)::

    python tests/engine_replay.py
    python tests/engine_replay.py --seed 3 --repeat 9
    python tests/engine_replay.py --src /path/to/other/checkout/src

``--src`` replays the package at another source tree, so one command
gives a change's replay times beside its parent's. It prints, for each
sweep, the calls, the rows, the mixer-weight misses of one replay and
the best replay time, and exits with 1 when any replayed energy
differs from the recorded one in its bytes, and with 0 otherwise.
"""

from __future__ import annotations

import os

if __name__ == "__main__":  # one BLAS thread, set before numpy loads
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

import argparse  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

from reach import load_workloads  # noqa: E402

SRC = Path(__file__).resolve().parents[1] / "src"
SWEEPS = ("paper-p5", "sampled-n14")


def record(harness, objective, config: dict) -> list[tuple]:
    """(engine, rows, seeds, energies) of every engine call of one sweep, in call order."""
    calls = []
    call = objective.Engine.__call__

    def recording(engine, thetas, seeds):
        energies = call(engine, thetas, seeds)
        calls.append((engine, np.array(thetas, dtype=float), list(seeds), energies.copy()))
        return energies

    objective.Engine.__call__ = recording
    try:
        with tempfile.TemporaryDirectory() as out:
            harness.run_sweep(harness.parse_config(config), out)
    finally:
        objective.Engine.__call__ = call
    return calls


def replay(mixer_weights, calls) -> tuple[float, int, bool]:
    """(seconds, mixer-weight misses, every energy byte-equal) of one replay of ``calls``.

    Each call runs on a fresh engine built like the one it was recorded
    on, one per recorded engine, built before the clock starts.
    """
    fresh = {id(e): type(e)(e.instance, e.p, e.mode, shots=e.shots, noise=e.noise)
             for e, _, _, _ in calls}
    mixer_weights.cache_clear()
    start = perf_counter()
    results = [fresh[id(engine)](thetas, seeds) for engine, thetas, seeds, _ in calls]
    seconds = perf_counter() - start
    same = all(got.tobytes() == energies.tobytes()
               for (_, _, _, energies), got in zip(calls, results))
    return seconds, mixer_weights.cache_info().misses, same


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Replay the exact and sampled engine calls of the paper-p5 and sampled-n14 sweeps.")
    parser.add_argument("--seed", type=int, default=1, help="the sweeps' seed (default 1)")
    parser.add_argument("--repeat", type=int, default=5, help="replays, best kept (default 5)")
    parser.add_argument("--src", default=str(SRC), help="the source tree to import qaoalab from")
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)
    from qaoalab import ansatz, harness, objective

    workloads = load_workloads()
    same = True
    for workload in SWEEPS:
        calls = record(harness, objective, workloads.make_inputs(workload, args.seed).configs["sweep"])
        runs = [replay(ansatz._mixer_weights, calls) for _ in range(max(1, args.repeat))]
        same = same and all(ok for _, _, ok in runs)
        print(f"{workload}: calls {len(calls)}  rows {sum(len(c[1]) for c in calls)}  "
              f"mixer-weight misses {runs[0][1]}  "
              f"replay best of {len(runs)}: {min(s for s, _, _ in runs) * 1e3:.1f} ms")
    print("every replayed energy equals the recorded one" if same
          else "a replayed energy differs from the recorded one")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
