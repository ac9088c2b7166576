"""The three workloads: seeded inputs, one pass of work, and output checks.

A workload turns the benchmark seed into plain inputs (a raw config
dict per experiment and, for sampled-n14, a generated graph), runs one
pass through qaoalab's public entry points, and checks the artifacts of
the pass against the independent oracle in ``oracle.py``. README.md
says why each workload was chosen.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

import oracle

METHODS = ["powell", "cobyla", "cg"]
PAPER_P5_THETA = [2.083, 2.048, 1.792, 1.564, 1.387, 2.281, 5.962, 1.789, 3.563, 5.646]
CANONICAL_EDGES = [(0, 3), (0, 4), (1, 3), (1, 4), (2, 3), (2, 4)]

SAMPLED_N = 14
SAMPLED_SHOTS = 4096
SAMPLED_MAX_EVALS = 40
# 1000 shots (the harness default) would make a pass about 92 s, longer
# than a run may measure (60 s); README.md says what this hides.
NOISY_SHOTS = 128
NOISY_MAX_EVALS = 10  # the least any optimizer accepts at p=5: one per parameter
NOISE_SETTINGS = {
    "ibm-bounds": "ibm-bounds",
    "coherent-twirl": {"epsilon_coherent": 0.05, "twirling": True},
    "dephase-xy4": {"sigma_dephase": 0.1, "dd": True, "dd_sequence": "XY4"},
    "ibm-twirl-dd": {"p1q": 0.005, "p2q": 0.025, "p_readout": 0.05,
                     "twirling": True, "dd": True},
}
# Criterion 2 of the paper's acceptance suite, on the paper-p5 sweep.
CRITERION_2 = {"powell": -5.8, "cobyla": -5.0}
ORACLE_TOL = 1e-9


def random_regular_graph(n: int, degree: int, seed: int) -> list[tuple[int, int]]:
    """Uniform random simple d-regular graph by the pairing model with rejection."""
    gen = np.random.default_rng([seed, n, degree])
    while True:
        stubs = gen.permutation(np.repeat(np.arange(n), degree))
        edges = {(int(min(a, b)), int(max(a, b))) for a, b in stubs.reshape(-1, 2)}
        if len(edges) == n * degree // 2 and all(u != v for u, v in edges):
            return sorted(edges)


@dataclass
class Inputs:
    """Everything the program receives for one run, derived from the seed."""

    workload: str
    seed: int
    n: int
    edges: list[tuple[int, int]]
    configs: dict[str, dict]          # cell name -> raw config
    cells: int                        # artifact directories one pass writes
    oracle_thetas: list[list[float]]  # angle vectors for the oracle check

    @cached_property
    def max_cut(self) -> float:
        """The oracle's max cut; computed on first use, outside the timed set-up."""
        return oracle.max_cut(self.n, self.edges)

    def record(self) -> dict:
        return {"workload": self.workload, "seed": self.seed, "n": self.n,
                "edges": [list(e) for e in self.edges], "max_cut": self.max_cut}


def make_inputs(workload: str, seed: int) -> Inputs:
    gen = np.random.default_rng([seed, 0x0A0A])

    def angles(p: int, k: int) -> list[list[float]]:
        return [list(np.concatenate([gen.uniform(0, math.pi, p),
                                     gen.uniform(0, 2 * math.pi, p)])) for _ in range(k)]

    if workload == "paper-p5":
        n, edges = 5, CANONICAL_EDGES
        configs = {"sweep": {"p": 5, "init": "paper-p5", "mode": "exact", "seed": seed,
                             "sweep": {"method": METHODS}}}
        cells = len(METHODS)
        thetas = [PAPER_P5_THETA] + angles(5, 3)
    elif workload == "sampled-n14":
        n = SAMPLED_N
        edges = random_regular_graph(n, 3, seed)
        configs = {"sweep": {
            "instance": {"inline": {"n": n, "edges": [list(e) for e in edges]}},
            "mode": "sampled", "shots": SAMPLED_SHOTS, "max_evals": SAMPLED_MAX_EVALS,
            "seed": seed, "sweep": {"p": [1, 2], "method": METHODS}}}
        cells = 2 * len(METHODS)
        thetas = angles(1, 2) + angles(2, 2)
    elif workload == "noisy-p5":
        n, edges = 5, CANONICAL_EDGES
        configs = {name: {"p": 5, "init": "paper-p5", "mode": "noisy", "noise": noise,
                          "shots": NOISY_SHOTS, "max_evals": NOISY_MAX_EVALS, "seed": seed}
                   for name, noise in NOISE_SETTINGS.items()}
        cells = len(configs)
        thetas = [PAPER_P5_THETA] + angles(5, 3)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return Inputs(workload, seed, n, edges, configs, cells, thetas)


def warm_up(mods, inputs: Inputs, configs: dict) -> None:
    """One evaluation in the workload's mode; fills the lru_cache tables."""
    config = next(iter(configs.values()))
    params = mods.ansatz.QaoaParams.from_vector(inputs.oracle_thetas[0])
    noise = config.noise if config.mode == "noisy" else None
    mods.objective.evaluate_qaoa(config.instance, params, config.mode,
                                 shots=config.shots, seed=config.seed, noise=noise)


def run_pass(mods, inputs: Inputs, configs: dict, out: Path, span) -> list[Path]:
    """One pass of the workload; returns the artifact directory of each cell.

    ``span(name, fn, *args)`` runs ``fn`` and, in a traced pass, records
    a span of the benchmark's own around it.
    """
    harness = mods.harness
    if "sweep" in configs:
        span("bench.sweep", harness.run_sweep, configs["sweep"], out)
        cells = sorted(out.glob("cell_*"))
    else:
        cells = []
        for name, config in configs.items():
            span("bench.experiment", harness.run_experiment, config, out / name)
            cells.append(out / name)
    if inputs.workload == "sampled-n14":
        span("bench.plot", render_plots, mods.plots, cells)
    return cells


def render_plots(plots, cells: list[Path]) -> None:
    """Render each cell's artifacts to SVG, as ``qaoalab plot`` does."""
    for cell in cells:
        (cell / "counts.svg").write_text(plots.plot_histogram(cell / "counts.json"), encoding="utf-8")
        for series in ("energy", "params"):
            svg = plots.plot_trace(cell / "trace.csv", series=series)
            (cell / f"trace_{series}.svg").write_text(svg, encoding="utf-8")


@dataclass
class PassReport:
    """What one pass did and which of its operations failed a check."""

    evals: int = 0
    shots: int = 0
    cells: int = 0
    failed: int = 0
    best_ratios: list[float] = field(default_factory=list)
    artifact_bytes: int = 0
    svg_bytes: int = 0
    digest: str = ""
    problems: list[str] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return self.evals + self.cells

    def fail(self, message: str) -> None:
        self.failed += 1
        self.problems.append(message)


def check_pass(inputs: Inputs, cells: list[Path], out: Path) -> PassReport:
    """Check every cell's artifacts; each evaluation and cell is one operation."""
    report = PassReport()
    max_cut = inputs.max_cut
    table = oracle.cut_table(inputs.n, inputs.edges)
    if len(cells) != inputs.cells:
        report.fail(f"{len(cells)} cells, expected {inputs.cells}")
    for cell in cells:
        report.cells += 1
        summary = json.loads((cell / "summary.json").read_text(encoding="utf-8"))
        counts = json.loads((cell / "counts.json").read_text(encoding="utf-8"))
        with open(cell / "trace.csv", encoding="utf-8", newline="") as fh:
            energies = [float(row["energy"]) for row in csv.DictReader(fh)]
        evals = summary["total_evals"]
        report.evals += evals
        report.shots += summary["shots"] * (1 + (evals if summary["mode"] != "exact" else 0))
        report.best_ratios.append(-summary["best_energy"] / max_cut)
        # every evaluation's energy is a finite value in [-max_cut, 0]
        for e in energies:
            if not (math.isfinite(e) and -max_cut - ORACLE_TOL <= e <= ORACLE_TOL):
                report.fail(f"{cell.name}: evaluation energy {e} outside [-{max_cut}, 0]")
        if len(energies) != evals:
            report.fail(f"{cell.name}: trace has {len(energies)} rows, summary {evals} evals")
        # the final counts conserve shots and score inside [-max_cut, 0]
        tally = counts["counts"]
        ok = (sum(tally.values()) == counts["shots"] == summary["shots"]
              and all(len(b) == inputs.n and set(b) <= {"0", "1"} for b in tally))
        if ok:
            energy = -sum(c * table[int(b, 2)] for b, c in tally.items()) / counts["shots"]
            ok = (-max_cut <= energy <= 0
                  and abs(energy - summary["final_energy"]) <= ORACLE_TOL
                  and summary["max_cut"] == max_cut)
        if not ok:
            report.fail(f"{cell.name}: counts or final energy disagree with the oracle")
        threshold = CRITERION_2.get(summary["method"]) if inputs.workload == "paper-p5" else None
        if threshold is not None and not summary["best_energy"] <= threshold:
            report.fail(f"{cell.name}: {summary['method']} best {summary['best_energy']} > {threshold}")
    digest = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        data = path.read_bytes()
        digest.update(str(path.relative_to(out)).encode() + b"\0" + data)
        if path.suffix == ".svg":
            report.svg_bytes += len(data)
        else:
            report.artifact_bytes += len(data)
    report.digest = digest.hexdigest()
    return report


def check_oracle(mods, inputs: Inputs) -> list[str]:
    """evaluate_qaoa against the gate-free reference at the seeded angles."""
    instance = mods.graph.MaxCutInstance(n=inputs.n, edges=tuple(inputs.edges))
    problems = []
    if mods.graph.brute_force_maxcut(instance)[0] != inputs.max_cut:
        problems.append("brute_force_maxcut disagrees with the oracle's max cut")
    for theta in inputs.oracle_thetas:
        got = mods.objective.evaluate_qaoa(
            instance, mods.ansatz.QaoaParams.from_vector(theta), "exact").energy
        want = oracle.exact_energy(inputs.n, inputs.edges, None, theta)
        if not abs(got - want) <= ORACLE_TOL:
            problems.append(f"exact energy {got!r} vs oracle {want!r} at p={len(theta) // 2}")
    return problems
