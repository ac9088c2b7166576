"""Record the engine calls of the benchmark's runs and replay them, timed and checked.

The runs are those of the ``paper-p5``, ``sampled-n14`` and ``noisy-p5``
benchmark workloads at ``--seed``, their configs from ``make_inputs`` in
``perfbench/workloads.py``, executed from source as ``tests/reach.py``
does, so nothing is written under ``perfbench/``. ``paper-p5`` runs the
canonical graph at p = 5 in exact mode, where the mixer is one folded
block; ``sampled-n14`` runs a seeded 3-regular graph on 14 nodes,
sampled, at p = 1 and 2, where the mixer runs in blocks; ``noisy-p5``
runs the canonical graph at p = 5 in noisy mode under four noise and
mitigation settings. Each of the two sweeps runs once through
``harness.run_sweep``, and each noisy setting once through
``harness.run_experiment``, as the benchmark runs them, into a
temporary directory, with ``objective.Engine.__call__`` and
``objective.Engine.tallies`` wrapped to record every batch of angle
rows, its seeds, its engine and what the call returned. The recorded
calls of each sweep or setting are then replayed ``--repeat`` times,
with their seeds, on fresh engines built like the recorded ones, each
time with ``ansatz._mixer_weights`` emptied first, and the best time is
kept. Replaying isolates the engine from the optimizers and the
artifact writing, so it reads steadier than whole-pass timing.

Run from the repository root, with one BLAS thread (the script sets
the thread variables itself)::

    python tests/engine_replay.py
    python tests/engine_replay.py --seed 3 --repeat 9
    python tests/engine_replay.py --only sampled-n14 --only noisy-p5/dephase-xy4
    python tests/engine_replay.py --src /path/to/other/checkout/src

``--only LABEL``, which may be repeated, records and replays just the
named sweeps and noisy settings, so an A/B pair of one workload takes
seconds. ``--src`` replays the package at another source tree, so one
command gives a change's replay times beside its parent's. It prints,
for each sweep and each noisy setting (``noisy-p5/<setting>``), the
calls, the rows, the mixer-weight misses of one replay (0 for a noisy
engine, which has no mixer weights) and the best replay time, and
exits with 1 when any replayed result differs from the recorded one in
its bytes, and with 0 otherwise.
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
NOISY = "noisy-p5"


def record(objective, run, config) -> list[tuple]:
    """(engine, method, rows, seeds, result) of every engine call of ``run(config, out)``, in call order."""
    calls = []
    methods = {name: getattr(objective.Engine, name) for name in ("__call__", "tallies")}

    def recorder(name, method):
        def recording(engine, thetas, seeds):
            result = method(engine, thetas, seeds)
            calls.append((engine, name, np.array(thetas, dtype=float), list(seeds), result.copy()))
            return result

        return recording

    for name, method in methods.items():
        setattr(objective.Engine, name, recorder(name, method))
    try:
        with tempfile.TemporaryDirectory() as out:
            run(config, out)
    finally:
        for name, method in methods.items():
            setattr(objective.Engine, name, method)
    return calls


def replay(mixer_weights, calls) -> tuple[float, int, bool]:
    """(seconds, mixer-weight misses, every result byte-equal) of one replay of ``calls``.

    Each call runs on a fresh engine built like the one it was recorded
    on, one per recorded engine, built before the clock starts.
    """
    fresh = {id(e): type(e)(e.instance, e.p, e.mode, shots=e.shots, noise=e.noise)
             for e, _, _, _, _ in calls}
    mixer_weights.cache_clear()
    start = perf_counter()
    results = [getattr(fresh[id(engine)], name)(thetas, seeds) for engine, name, thetas, seeds, _ in calls]
    seconds = perf_counter() - start
    same = all(got.tobytes() == recorded.tobytes()
               for (*_, recorded), got in zip(calls, results))
    return seconds, mixer_weights.cache_info().misses, same


def runs(harness, workloads, seed: int) -> list[tuple]:
    """(label, run, config) of each sweep and each noisy setting, run as the benchmark runs it."""
    sweeps = [(workload, harness.run_sweep, workloads.make_inputs(workload, seed).configs["sweep"])
              for workload in SWEEPS]
    settings = [(f"{NOISY}/{name}", harness.run_experiment, config)
                for name, config in workloads.make_inputs(NOISY, seed).configs.items()]
    return [(label, run, harness.parse_config(config)) for label, run, config in sweeps + settings]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Replay the engine calls of the paper-p5 and sampled-n14 sweeps and the noisy-p5 runs.")
    parser.add_argument("--seed", type=int, default=1, help="the runs' seed (default 1)")
    parser.add_argument("--repeat", type=int, default=5, help="replays, best kept (default 5)")
    parser.add_argument("--src", default=str(SRC), help="the source tree to import qaoalab from")
    parser.add_argument("--only", action="append", metavar="LABEL",
                        help=f"replay just this sweep or {NOISY}/<setting>; may be repeated")
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)
    from qaoalab import ansatz, harness, objective

    selected = runs(harness, load_workloads(), args.seed)
    labels = [label for label, _, _ in selected]
    for label in args.only or ():
        if label not in labels:
            parser.error(f"--only: unknown label {label!r}; the labels are {', '.join(labels)}")
    same = True
    for label, run, config in selected:
        if args.only and label not in args.only:
            continue
        calls = record(objective, run, config)
        replays = [replay(ansatz._mixer_weights, calls) for _ in range(max(1, args.repeat))]
        same = same and all(ok for _, _, ok in replays)
        print(f"{label}: calls {len(calls)}  rows {sum(len(c[2]) for c in calls)}  "
              f"mixer-weight misses {replays[0][1]}  "
              f"replay best of {len(replays)}: {min(s for s, _, _ in replays) * 1e3:.1f} ms")
    print("every replayed result equals the recorded one" if same
          else "a replayed result differs from the recorded one")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
