"""Record the exact engine calls of a paper-p5 sweep and replay them, timed and checked.

The sweep is the ``paper-p5`` benchmark's shape, inlined: the canonical
graph, p = 5 from the paper's published start, exact mode, one cell
per method (powell, cobyla, cg), at ``--seed``. It runs once through
``harness.run_sweep`` into a temporary directory, with
``objective.Engine.__call__`` wrapped to record every batch of angle
rows, its seeds and the energies it returned. The recorded calls are
then replayed ``--repeat`` times on a fresh exact engine, each time
with ``ansatz._mixer_weights`` emptied first, and the best time is
kept. Replaying isolates the engine from the optimizers and the
artifact writing, so it reads steadier than whole-pass timing.

Run from the repository root, with one BLAS thread (the script sets
the thread variables itself)::

    python tests/engine_replay.py
    python tests/engine_replay.py --seed 3 --repeat 9
    python tests/engine_replay.py --src /path/to/other/checkout/src

``--src`` replays the package at another source tree, so one command
gives a change's replay time beside its parent's. It prints the calls,
the rows, the mixer-weight misses of one replay and the best replay
time, and exits with 1 when any replayed energy differs from the
recorded one in its bytes, and with 0 otherwise.
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

SRC = Path(__file__).resolve().parents[1] / "src"


def sweep_config(seed: int) -> dict:
    """The paper-p5 sweep at ``seed``: exact, p = 5 from the published start, one cell per method."""
    return {"p": 5, "init": "paper-p5", "mode": "exact", "seed": seed,
            "sweep": {"method": ["powell", "cobyla", "cg"]}}


def record(harness, objective, seed: int) -> list[tuple[np.ndarray, list, np.ndarray]]:
    """(rows, seeds, energies) of every engine call of one sweep, in call order."""
    calls = []
    call = objective.Engine.__call__

    def recording(engine, thetas, seeds):
        energies = call(engine, thetas, seeds)
        calls.append((np.array(thetas, dtype=float), list(seeds), energies.copy()))
        return energies

    objective.Engine.__call__ = recording
    try:
        with tempfile.TemporaryDirectory() as out:
            harness.run_sweep(harness.parse_config(sweep_config(seed)), out)
    finally:
        objective.Engine.__call__ = call
    return calls


def replay(engine, mixer_weights, calls) -> tuple[float, int, bool]:
    """(seconds, mixer-weight misses, every energy byte-equal) of one replay of ``calls``."""
    mixer_weights.cache_clear()
    same = True
    start = perf_counter()
    results = [engine(thetas, seeds) for thetas, seeds, _ in calls]
    seconds = perf_counter() - start
    for (_, _, energies), got in zip(calls, results):
        same = same and got.tobytes() == energies.tobytes()
    return seconds, mixer_weights.cache_info().misses, same


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Replay a paper-p5 sweep's exact engine calls.")
    parser.add_argument("--seed", type=int, default=1, help="the sweep's seed (default 1)")
    parser.add_argument("--repeat", type=int, default=5, help="replays, best kept (default 5)")
    parser.add_argument("--src", default=str(SRC), help="the source tree to import qaoalab from")
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)
    from qaoalab import ansatz, harness, objective

    calls = record(harness, objective, args.seed)
    engine = objective.Engine(harness.parse_config(sweep_config(args.seed)).instance, 5, "exact")
    runs = [replay(engine, ansatz._mixer_weights, calls) for _ in range(max(1, args.repeat))]
    best = min(seconds for seconds, _, _ in runs)
    same = all(ok for _, _, ok in runs)
    print(f"calls {len(calls)}  rows {sum(len(thetas) for thetas, _, _ in calls)}  "
          f"mixer-weight misses {runs[0][1]}")
    print(f"replay best of {len(runs)}: {best * 1e3:.1f} ms")
    print("every replayed energy equals the recorded one" if same
          else "a replayed energy differs from the recorded one")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
