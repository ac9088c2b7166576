"""qaoalab benchmark: one workload, one process, one pass at a time.

    python3 perfbench/run.py --workload paper-p5 --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 24

Run from the repository root. The caller is a closed loop: the next
pass of the workload starts when the previous one has finished. A run
makes a fixed number of passes, which depends only on the workload and
``--seconds`` (see ``pass_count``), never on how fast the code is. With
``--trace 0`` the benchmark sets up several times (fresh import, config
parse, input generation, one warm-up evaluation), checks qaoalab against
the oracle, then runs untraced passes and reports the end-to-end
metrics, timed through the speed gauge of ``gauge.py``. With
``--trace 1`` it alternates untraced and traced passes and reports the
per-layer metrics of the traced ones. Human readable
lines come first; the last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.
``--workload all`` runs every workload, each in its own process.
See perfbench/README.md.
"""

from __future__ import annotations

import os

# One BLAS thread: the machine the figures were taken on has two cores,
# and the benchmark measures one caller.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import gauge  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
WORKLOADS = ("paper-p5", "sampled-n14", "noisy-p5")
# Seconds allotted to one untraced pass, about its time on a quiet 2-vCPU
# x86-64 VM. They only turn --seconds into a pass count, so the count is
# the same on every commit.
NOMINAL_PASS_S = {"paper-p5": 8.0, "sampled-n14": 6.0, "noisy-p5": 8.0}
EXTRA_SETUPS = 8
GROWTH_NOTE = "untraced first pass: peak RSS minus RSS before it"
MAX_PROBLEMS_SHOWN = 20


def import_fresh():
    """Import qaoalab anew, so each set-up pays import and fills empty caches."""
    for name in [m for m in sys.modules if m == "qaoalab" or m.startswith("qaoalab.")]:
        del sys.modules[name]
    return importlib.import_module("qaoalab")


def set_up(workload: str, seed: int):
    mods = import_fresh()
    inputs = workloads.make_inputs(workload, seed)
    configs = {name: mods.harness.parse_config(raw) for name, raw in inputs.configs.items()}
    workloads.warm_up(mods, inputs, configs)
    return mods, inputs, configs


def timed(meter: gauge.Gauge, fn, *args):
    """``meter.time(fn, *args)``, with the gauge sampling only meanwhile."""
    with meter:
        return meter.time(fn, *args)


def one_pass(mods, inputs, configs, out: Path, meter=None, tracer=None):
    """Time one pass of the workload, then check its artifacts (untimed).

    An untraced pass is timed through ``meter``, a traced one by the clock
    alone, so that no gauge sample lands in a span. Returns the wall and
    normalized pass times (the two are equal for a traced pass), the
    process's peak RSS at the end of the pass (before the checks allocate
    anything) and the check report.
    """
    if out.exists():
        shutil.rmtree(out)
    out.mkdir(parents=True)
    if tracer is None:
        cells, wall, normal = timed(meter, workloads.run_pass, mods, inputs, configs, out,
                                    lambda name, fn, *args: fn(*args))
    else:
        t0 = perf_counter()
        cells = workloads.run_pass(mods, inputs, configs, out, tracer.span)
        wall = normal = perf_counter() - t0
    return wall, normal, peak_rss_mb(), workloads.check_pass(inputs, cells, out)


def pass_count(workload: str, seconds: float) -> int:
    """Untraced passes of a run: as many nominal passes as fit in ``seconds``."""
    return max(1, round(seconds / NOMINAL_PASS_S[workload]))


def rss_mb() -> float:
    """Resident memory of this process now."""
    with open("/proc/self/statm", encoding="ascii") as fh:
        pages = int(fh.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def environment() -> dict:
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level}" + {"Data": "d", "Instruction": "i"}.get(kind, "")] = size
    return {
        "python": platform.python_version(), "numpy": np.__version__,
        "machine": platform.machine(), "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)), "caches": caches or "unavailable",
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
    }


def traced_pass(mods, inputs, configs, out: Path):
    tracer = tracing.Tracer()
    table = mods.graph.cut_value_table
    before = table.cache_info()
    tracer.install()
    try:
        elapsed, _, _, report = one_pass(mods, inputs, configs, out, tracer=tracer)
    finally:
        tracer.uninstall()
    after = table.cache_info()
    layers = tracing.layer_metrics(tracer, (after.hits - before.hits, after.misses - before.misses))
    layers["harness.bytes_written"] = (report.artifact_bytes, "B")
    layers["plots.svg_bytes"] = (report.svg_bytes, "B")
    return elapsed, report, layers, tracer


def run(workload: str, seed: int, seconds: float, trace: bool) -> int:
    # Set up a few times first, then again before every pass, so that the
    # set-up times sample the whole run and not one moment of it.
    meter = gauge.Gauge()
    setups, setups_wall = [], []

    def fresh():
        gc.collect()  # free the previous set-up's module generation first
        state, wall, normal = timed(meter, set_up, workload, seed)
        setups_wall.append(wall)
        setups.append(normal)
        return state

    for _ in range(EXTRA_SETUPS):
        fresh()
    mods, inputs, configs = fresh()
    print("inputs " + json.dumps(inputs.record()))
    print("env " + json.dumps(environment()))

    problems = workloads.check_oracle(mods, inputs)
    attempted, failed = len(inputs.oracle_thetas) + 1, len(problems)

    # A traced run alternates untraced and traced passes; it makes half as
    # many of each, rounded up.
    passes = pass_count(workload, seconds)
    if trace:
        passes = -(-passes // 2)
    WORK.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK))
    out = scratch / "artifacts"
    plain, plain_wall, traced, layer_runs, reports = [], [], [], [], []
    tracer = None
    rss_before = rss_mb()
    try:
        for index in range(passes):
            if index:
                mods, inputs, configs = fresh()
            wall, normal, peak_rss, report = one_pass(mods, inputs, configs, out, meter)
            if not index:
                rss_growth = peak_rss - rss_before
            plain_wall.append(wall)
            plain.append(normal)
            reports.append(report)
            if trace:
                elapsed, report, layers, tracer = traced_pass(mods, inputs, configs, out)
                traced.append(elapsed)
                reports.append(report)
                layer_runs.append(layers)
    except Exception:
        traceback.print_exc()
        failed += 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if len(plain) != passes or (trace and len(traced) != passes):
        print(f"error: {workload} completed {len(plain)} of {passes} passes", file=sys.stderr)
        return 1

    for report in reports:
        attempted += report.attempted
        failed += report.failed
        problems += report.problems
        if report.digest != reports[0].digest:
            failed += 1
            problems.append("artifacts differ from the first pass's")

    if trace:
        metrics = {}
        for name, (value, unit) in layer_runs[0].items():
            values = [layers[name][0] for layers in layer_runs]
            if unit in ("count", "B"):
                if len(set(values)) != 1:
                    failed += 1
                    problems.append(f"counter {name} differs between traced passes: {values}")
            else:
                value = statistics.median(values)
            metrics[name] = (value, unit)
        metrics["trace.overhead_ratio"] = (statistics.median(traced) / statistics.median(plain_wall),
                                           "ratio")
        metrics["memory.pass_growth_mb"] = (rss_growth, "MB")
        spans_path = WORK / f"spans-{workload}-seed{seed}.csv"
        tracer.write(spans_path)
        print(f"spans of the last traced pass: {spans_path.relative_to(ROOT)}")
        samples = {name: f"median of {len(traced)} traced passes"
                   for name, (_, unit) in metrics.items() if unit in ("s", "ms", "ratio")}
        samples["memory.pass_growth_mb"] = GROWTH_NOTE
    else:
        # Medians of normalized times: co-tenants of a shared machine slow
        # the whole process by up to 2x for minutes at a time (gauge.py).
        run_s, first = statistics.median(plain), reports[0]
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "run_s": (run_s, "s"),
            "evals_per_s": (first.evals / run_s, "1/s"),
            "shots_per_s": (first.shots / run_s, "1/s"),
            "best_ratio": (statistics.fmean(first.best_ratios), "ratio"),
        }
        per_pass = (f"median of {len(plain)} normalized passes; "
                    f"wall median {statistics.median(plain_wall):.4g} s")
        samples = {"setup_s": f"median of {len(setups)} normalized set-ups; "
                              f"wall median {statistics.median(setups_wall):.4g} s",
                   "run_s": per_pass, "evals_per_s": per_pass, "shots_per_s": per_pass}

    for problem in problems[:MAX_PROBLEMS_SHOWN]:
        print(f"check failed: {problem}")
    if len(problems) > MAX_PROBLEMS_SHOWN:
        print(f"check failed: {len(problems) - MAX_PROBLEMS_SHOWN} more")
    print(f"{workload} seed {seed}: {len(plain)} untraced and {len(traced)} traced passes")
    print("  pass times, wall (s): " + " ".join(f"{t:.3f}" for t in plain_wall)
          + (" | traced: " + " ".join(f"{t:.3f}" for t in traced) if traced else ""))
    print("  pass times, normalized (s): " + " ".join(f"{t:.3f}" for t in plain))
    print("  set-up times, wall (s): " + " ".join(f"{t:.4f}" for t in setups_wall))
    print("  set-up times, normalized (s): " + " ".join(f"{t:.4f}" for t in setups))
    kernel_ms = [d * 1e3 for _, d in meter.samples]
    print(f"  gauge kernel (ms): {len(kernel_ms)} samples, median {statistics.median(kernel_ms):.4f}, "
          f"min {min(kernel_ms):.4f}, max {max(kernel_ms):.4f}; reference {gauge.REFERENCE_S * 1e3:g}")
    for name, (value, unit) in metrics.items():
        shown = f"{value:<14d}" if isinstance(value, int) else f"{value:<14.6g}"
        print(f"  {name:26s} {shown} {unit:6s} {samples.get(name, '')}")
    if not trace:
        print(f"  {'memory.pass_growth_mb':26s} {rss_growth:<14.6g} {'MB':6s} {GROWTH_NOTE}")
    print(f"  {'error_rate':26s} {failed / attempted:<14.6g} {'ratio':6s} "
          f"{failed} failed of {attempted} evaluations, cells and checks")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        codes = [subprocess.run([sys.executable, __file__, "--workload", name,
                                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                                 "--trace", str(args.trace)]).returncode
                 for name in WORKLOADS]
        return max(codes)
    if not (SRC / "qaoalab" / "__init__.py").is_file():
        print(f"error: no qaoalab sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
