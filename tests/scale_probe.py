"""Time and memory of the engine at large n, one process per figure.

For each ``--n`` and for two weightings of one seeded random 3-regular
graph (``random_regular_graph`` of ``perfbench/workloads.py``, executed
from source as ``tests/reach.py`` does; ``unit`` weights, and
``random`` uniform(-2, 3) weights), it runs each figure in a fresh
Python process of the package at ``--src``:

- ``build``: ``Engine(instance, 1, "exact")``, built once;
- ``exact-p1`` and ``exact-p5``: that engine's build, then one exact
  row at p = 1 or p = 5;
- ``sampled-p1``: a 4096-shot sampled engine's build, then one p = 1
  row;
- ``plot``: ``qaoalab plot`` of a ``counts.json`` that carries the
  instance, so its optima are found by brute force.

Each prints one JSON line. ``build_s``, ``row_s`` and ``plot_s`` are
wall seconds. ``peak_mb`` is the process's peak RSS (``ru_maxrss``)
minus its peak before the work, so it covers a build and its row.
``row_mb`` is the row's own peak, above what was held before it, from
``tracemalloc`` (which numpy reports its arrays to) on a second,
untimed run of the same row. A process that fails prints its figure
with an ``error`` field, and the probe then exits with 1.

Run from the repository root; each process gets one BLAS thread, and
anything written goes to a temporary directory::

    python tests/scale_probe.py
    python tests/scale_probe.py --n 20 22
    python tests/scale_probe.py --src /path/to/other/checkout/src

``--src`` probes the package at another source tree, so one command
gives a change's figures beside its parent's.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

from reach import load_workloads

SRC = Path(__file__).resolve().parents[1] / "src"
FIGURES = ("build", "exact-p1", "exact-p5", "sampled-p1", "plot")
WEIGHTS = ("unit", "random")
SHOTS = 4096
SEED = 1  # of the graph, its random weights and the rows' angles


def peak_mb() -> float:
    """The process's peak RSS so far, in MB (``ru_maxrss`` is in KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def measure(figure: str, n: int, weights: str) -> dict:
    """Run one figure in this process, the package already on the path; its JSON fields."""
    import numpy as np

    from qaoalab import graph, harness, objective

    edges = load_workloads().random_regular_graph(n, 3, SEED)
    gen = np.random.default_rng([SEED, n])
    w = gen.uniform(-2.0, 3.0, len(edges)).tolist() if weights == "random" else [1.0] * len(edges)
    instance = graph.MaxCutInstance(n, tuple(edges), tuple(w))
    row = {"figure": figure, "n": n, "weights": weights, "edges": len(edges)}
    before = peak_mb()
    if figure == "plot":
        bits = gen.integers(0, 2, (16, n))
        counts = {"".join(map(str, key)): SHOTS // 16 for key in bits}
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp, "counts.json")
            text = graph.serialize_edge_list(instance)
            path.write_text(json.dumps({"counts": counts, "shots": SHOTS // 16 * len(counts),
                                        "instance": text}), encoding="utf-8")
            start = time.perf_counter()
            status = harness.main(["plot", "--in", str(path), "--out", str(Path(tmp, "counts.svg"))])
            row["plot_s"] = time.perf_counter() - start
        if status:
            raise RuntimeError(f"qaoalab plot exited with {status}")
        row["peak_mb"] = peak_mb() - before
        return row
    p = 5 if figure == "exact-p5" else 1
    mode = "sampled" if figure == "sampled-p1" else "exact"
    start = time.perf_counter()
    engine = objective.Engine(instance, p, mode, shots=SHOTS if mode == "sampled" else None)
    row["build_s"] = time.perf_counter() - start
    if figure != "build":
        thetas = gen.uniform(-np.pi, np.pi, (1, 2 * p))
        start = time.perf_counter()
        engine(thetas, [SEED])
        row["row_s"] = time.perf_counter() - start
        tracemalloc.start()  # traces only what is allocated from here on
        engine(thetas, [SEED])
        row["row_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
        tracemalloc.stop()
    row["peak_mb"] = peak_mb() - before
    return row


def probe(src: Path, ns: list[int]) -> int:
    """Print every figure's JSON line, each from its own process; 1 if any failed."""
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    failed = 0
    for n in ns:
        for weights in WEIGHTS:
            for figure in FIGURES:
                args = [sys.executable, "-B", __file__, "--src", str(src), "--n", str(n),
                        "--weights", weights, "--figure", figure]
                with tempfile.TemporaryDirectory() as cwd:  # anything stray lands here
                    result = subprocess.run(args, env=env, cwd=cwd, capture_output=True, text=True)
                if result.returncode:
                    failed = 1
                    error = (result.stderr.strip().splitlines() or ["no output"])[-1]
                    line = json.dumps({"figure": figure, "n": n, "weights": weights, "error": error})
                else:
                    line = result.stdout.strip().splitlines()[-1]
                print(line, flush=True)
    return failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=SRC, help="the package's source tree")
    parser.add_argument("--n", type=int, nargs="+", default=[20, 22, 24],
                        help="node counts, each even (default 20 22 24)")
    parser.add_argument("--weights", choices=WEIGHTS, help=argparse.SUPPRESS)
    parser.add_argument("--figure", choices=FIGURES, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if any(n < 4 or n % 2 for n in args.n):
        parser.error(f"--n: a 3-regular graph needs an even n >= 4, got {args.n}")
    if args.figure is None:
        return probe(args.src.resolve(), args.n)
    # one figure, in this process: the probe's child
    sys.path.insert(0, str(args.src.resolve()))
    row = measure(args.figure, args.n[0], args.weights)
    print(json.dumps({k: round(v, 1 if k.endswith("_mb") else 5) if type(v) is float else v
                      for k, v in row.items()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
