"""Spans around qaoalab's public functions, installed from outside the package.

A span is (name, parent id, start, end). ``Tracer.install`` wraps each
traced function and rebinds the wrapper at every module-level name in
the qaoalab package that holds the original, because callers look the
function up through their own module (``simulate_ops`` is bound in
qaoalab.statevec, qaoalab.ansatz, qaoalab.noise and qaoalab itself).
Spans stay in memory until ``write``; per-layer metrics are derived from
them afterwards. A span's self time is its duration minus the durations
of its direct children: the process runs one thread, so children never
overlap.
"""

from __future__ import annotations

import sys
from collections import Counter
from time import perf_counter

import numpy as np

AMPLITUDE_BYTES = 16  # complex128


def _simulate(tracer, args, kwargs, result):
    n, ops = args[0], args[1]
    tracer.counts["gates_applied"] += len(ops)
    # one read and one write of every amplitude per gate
    tracer.counts["bytes_computed"] += len(ops) * (1 << n) * AMPLITUDE_BYTES * 2


def _built(tracer, args, kwargs, result):
    tracer.counts["gates_built"] += len(result.ops)


def _inserted(tracer, args, kwargs, result):
    tracer.counts["ops_inserted"] += len(result.ops) - len(args[0].ops)


def _trajectory(tracer, args, kwargs, result):
    tracer.counts["noise_shots"] += 1
    _inserted(tracer, args, kwargs, result)


def _minimized(tracer, args, kwargs, result):
    tracer.counts["optim_evals"] += result.evals_used
    tracer.counts["budget_exhausted"] += result.status == "budget_exhausted"


def _objective(tracer, args, kwargs, result):
    return tracer.wrap("objective.objective", result)


# (module, function, hook). A hook sees each call's arguments and result
# after the span closes; a hook that returns a value replaces the result.
TARGETS = (
    ("ansatz", "build_qaoa_circuit", _built),
    ("ansatz", "run_circuit", None),
    ("statevec", "simulate_ops", _simulate),
    ("statevec", "sample_counts", None),
    ("statevec", "expectation_cut", None),
    ("objective", "make_objective", _objective),
    ("objective", "evaluate_qaoa", None),
    ("objective", "energy_from_counts", None),
    ("optim", "minimize", _minimized),
    ("optim", "random_qaoa_starts", None),
    ("noise", "sample_noisy", None),
    ("noise", "twirl_circuit", _inserted),
    ("noise", "apply_trajectory_noise", _trajectory),
    ("noise", "schedule_circuit", None),
    ("noise", "insert_dd", _inserted),
    ("noise", "apply_readout_error", None),
    ("rng", "generator", None),
    ("graph", "cut_value_table", None),
    ("graph", "brute_force_maxcut", None),
    ("graph", "cut_value", None),
    ("graph", "parse_edge_list", None),
    ("graph", "serialize_edge_list", None),
    ("harness", "run_sweep", None),
    ("harness", "run_experiment", None),
    ("harness", "parse_config", None),
    ("harness", "write_counts_json", None),
    ("harness", "write_trace_csv", None),
    ("plots", "plot_histogram", None),
    ("plots", "plot_trace", None),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, parent, start, end]
        self.counts: Counter = Counter()
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, hook=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, stack[-1], 0.0, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                stack.pop()
            if hook is not None:
                replaced = hook(self, args, kwargs, result)
                if replaced is not None:
                    result = replaced
            return result

        return traced

    def span(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` under a span of the benchmark's own."""
        return self.wrap(name, fn)(*args, **kwargs)

    def install(self) -> None:
        modules = {
            name: mod for name, mod in sys.modules.items()
            if name == "qaoalab" or name.startswith("qaoalab.")
        }
        wrappers = {}
        for mod, func, hook in TARGETS:
            original = getattr(modules[f"qaoalab.{mod}"], func)
            wrappers[id(original)] = (original, self.wrap(f"{mod}.{func}", original, hook))
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(mod, attr, entry[1])
                    self._patched.append((mod, attr, value))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def self_times(self) -> np.ndarray:
        dur = np.array([s[3] - s[2] for s in self.spans])
        parents = np.array([s[1] for s in self.spans], dtype=np.int64)
        child = np.zeros(len(dur))
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], dur[has_parent])
        return dur - child

    def write(self, path) -> None:
        t0 = self.spans[0][2] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,name,parent,start_s,end_s\n")
            for i, (name, parent, start, end) in enumerate(self.spans):
                fh.write(f"{i},{name},{parent},{start - t0:.9f},{end - t0:.9f}\n")


def layer_metrics(tracer: Tracer, cache_delta: tuple[int, int]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass, as {name: (value, unit)}."""
    names = [s[0] for s in tracer.spans]
    dur = np.array([s[3] - s[2] for s in tracer.spans])
    own = tracer.self_times()
    layer = np.array([n.split(".", 1)[0] for n in names])
    by_name = np.array(names)
    counts = tracer.counts

    def calls(*funcs):
        return int(np.isin(by_name, funcs).sum())

    def total(*funcs):
        return float(dur[np.isin(by_name, funcs)].sum())

    def self_s(lay):
        return float(own[layer == lay].sum())

    sim_ms = dur[by_name == "statevec.simulate_ops"] * 1e3
    p50, p90 = (np.percentile(sim_ms, [50, 90]) if sim_ms.size else (0.0, 0.0))
    return {
        "ansatz.build_calls": (calls("ansatz.build_qaoa_circuit"), "count"),
        "ansatz.build_s": (total("ansatz.build_qaoa_circuit"), "s"),
        "ansatz.gates_built": (counts["gates_built"], "count"),
        "statevec.simulate_calls": (int(sim_ms.size), "count"),
        "statevec.simulate_s": (total("statevec.simulate_ops"), "s"),
        "statevec.simulate_ms_p50": (float(p50), "ms"),
        "statevec.simulate_ms_p90": (float(p90), "ms"),
        "statevec.gates_applied": (counts["gates_applied"], "count"),
        "statevec.bytes_computed": (counts["bytes_computed"], "B"),
        "statevec.sample_s": (total("statevec.sample_counts"), "s"),
        "statevec.expectation_s": (total("statevec.expectation_cut"), "s"),
        "objective.evals": (calls("objective.evaluate_qaoa"), "count"),
        "objective.score_s": (total("objective.energy_from_counts"), "s"),
        "objective.self_s": (self_s("objective"), "s"),
        "optim.minimize_calls": (calls("optim.minimize"), "count"),
        "optim.self_s": (self_s("optim"), "s"),
        "optim.evals": (counts["optim_evals"], "count"),
        "optim.budget_exhausted": (counts["budget_exhausted"], "count"),
        "noise.shots": (counts["noise_shots"], "count"),
        "noise.self_s": (self_s("noise"), "s"),
        "noise.twirl_s": (total("noise.twirl_circuit"), "s"),
        "noise.trajectory_s": (total("noise.apply_trajectory_noise"), "s"),
        "noise.schedule_s": (total("noise.schedule_circuit"), "s"),
        "noise.dd_s": (total("noise.insert_dd"), "s"),
        "noise.readout_s": (total("noise.apply_readout_error"), "s"),
        "noise.ops_inserted": (counts["ops_inserted"], "count"),
        "rng.generators": (calls("rng.generator"), "count"),
        "rng.generator_s": (total("rng.generator"), "s"),
        "graph.brute_force_s": (total("graph.brute_force_maxcut"), "s"),
        "graph.cut_table_hits": (cache_delta[0], "count"),
        "graph.cut_table_misses": (cache_delta[1], "count"),
        "harness.cells": (calls("harness.run_experiment"), "count"),
        "harness.parse_s": (total("harness.parse_config"), "s"),
        "harness.write_s": (total("harness.write_counts_json", "harness.write_trace_csv"), "s"),
        "harness.self_s": (self_s("harness"), "s"),
        "plots.render_s": (total("plots.plot_histogram", "plots.plot_trace"), "s"),
    }
