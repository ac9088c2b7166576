"""Experiment harness: JSON configs, deterministic artifacts, and the CLI.

``parse_config`` turns raw JSON into an ``ExperimentConfig``, which
checks its own fields, naming the field it rejects, and derives its
``config_hash`` from them. A run optimizes the layer angles under the
configured evaluation mode, then takes the final counts and energy from
``evaluate_qaoa`` at the winning angles (sampled mode for exact and
sampled runs, noisy mode for noisy ones), and writes three artifacts to
the output directory: counts.json, trace.csv (the winning restart's
evaluation log), and summary.json. A sweep runs one ``replace`` copy of
the config per cell of its axes. Every random draw in the pipeline is
keyed off the master seed, so (config, seed) reproduces the files byte
for byte.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import sys
from dataclasses import asdict, dataclass, field, fields, replace
from numbers import Real
from pathlib import Path

import numpy as np

from . import rng
from .ansatz import RUN_MODES, QaoaParams
from .graph import (
    MaxCutInstance,
    ParseError,
    brute_force_maxcut,
    canonical_instance,
    cut_value_table,
    parse_edge_list,
    serialize_edge_list,
)
from .noise import NoiseConfig
from .objective import evaluate_qaoa, make_objective
from .optim import (
    METHODS,
    MinimizeProblem,
    OptimizationTrace,
    minimize,
    random_qaoa_starts,
)
from .plots import plot_histogram, plot_trace
from .statevec import Counts

SCHEMA_VERSION = 1

NOISE_PRESETS: dict[str, NoiseConfig] = {
    "none": NoiseConfig(),
    "ibm-bounds": NoiseConfig(p1q=0.005, p2q=0.025, p_readout=0.05),
    "coherent-only": NoiseConfig(epsilon_coherent=0.05),
    "dephase-only": NoiseConfig(sigma_dephase=0.1),
}

# Published depth-5 starting point, first half betas, second half gammas.
PAPER_P5_THETA = (
    2.083, 2.048, 1.792, 1.564, 1.387,
    2.281, 5.962, 1.789, 3.563, 5.646,
)

_INSTANCE_FIELDS = {"file", "inline"}
_INLINE_FIELDS = {"n", "edges", "weights"}
_NOISE_FIELDS = {f.name for f in fields(NoiseConfig)}
_SWEEP_AXES = ("p", "method", "noise", "shots")  # also the order of a sweep's cells


class ConfigError(ValueError):
    """Invalid experiment config; the message names the offending field."""


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment, checked when it is built.

    Each check raises ``ConfigError`` with a message that starts with
    the field's name, so ``dataclasses.replace`` yields a checked config
    too. An explicit ``init`` is normalized to a tuple of floats.
    ``config_hash`` is the SHA-256 of every field but ``out_dir``, in
    canonical JSON (the instance as its edge-list text, the noise as
    its rates), so equal experiments share a hash however they were
    written.
    """

    instance: MaxCutInstance
    p: int
    method: str
    init: str | tuple[float, ...]
    restarts: int
    shots: int
    mode: str
    noise: NoiseConfig
    seed: int
    max_evals: int | None
    out_dir: str | None
    sweep: dict | None
    config_hash: str = field(init=False)

    def __post_init__(self):
        p = self.p
        if not _is_int(p) or p < 0:
            raise ConfigError(f"p: must be a non-negative integer, got {p!r}")
        if self.method not in METHODS:
            raise ConfigError(f"method: must be one of {METHODS}, got {self.method!r}")
        init = self.init
        if isinstance(init, tuple):
            for v in init:
                if isinstance(v, bool) or not isinstance(v, Real) or not math.isfinite(v):
                    raise ConfigError(f"init: explicit vector must hold finite numbers, got {v!r}")
            if len(init) != 2 * p:
                raise ConfigError(f"init: explicit vector has length {len(init)}, need 2*p = {2 * p}")
            object.__setattr__(self, "init", tuple(float(v) for v in init))
        elif init == "paper-p5":
            if p != 5:
                raise ConfigError(f"init: preset 'paper-p5' requires p = 5, got p = {p}")
        elif init != "random":
            raise ConfigError(f"init: must be 'random', 'paper-p5', or a vector, got {init!r}")
        if not _is_int(self.restarts) or self.restarts < 1:
            raise ConfigError(f"restarts: must be a positive integer, got {self.restarts!r}")
        if not _is_int(self.shots) or self.shots < 1:
            raise ConfigError(f"shots: must be a positive integer, got {self.shots!r}")
        if self.mode not in RUN_MODES:
            raise ConfigError(f"mode: must be one of {RUN_MODES}, got {self.mode!r}")
        if not _is_int(self.seed) or not 0 <= self.seed < 2**64:
            # the RNG keeps a seed's low 64 bits, so no other seed is told apart
            raise ConfigError(f"seed: must be an integer in [0, 2**64), got {self.seed!r}")
        max_evals = self.max_evals
        if max_evals is not None and (not _is_int(max_evals) or max_evals < 1):
            raise ConfigError(f"max_evals: must be a positive integer, got {max_evals!r}")
        if max_evals is not None and max_evals < 2 * p:
            raise ConfigError(
                f"max_evals: {max_evals} cannot cover one pass over the 2*p = {2 * p} angles"
            )
        if self.mode != "noisy" and self.noise != NoiseConfig():
            raise ConfigError(
                f"noise: mode {self.mode!r} never samples noise; set noise in mode 'noisy'"
            )
        if self.out_dir is not None and not isinstance(self.out_dir, str):
            raise ConfigError(f"out_dir: must be a string path, got {self.out_dir!r}")
        if self.sweep is not None:
            _reject_unknown("sweep", self.sweep, set(_SWEEP_AXES))
            for key, values in self.sweep.items():
                if not isinstance(values, list) or not values:
                    raise ConfigError(f"sweep.{key}: must be a non-empty list")
            if "noise" in self.sweep and self.mode != "noisy":
                raise ConfigError(
                    f"sweep.noise: mode {self.mode!r} never samples noise; "
                    "sweep noise in mode 'noisy'"
                )
        normalized = {f.name: getattr(self, f.name) for f in fields(self)
                      if f.name not in ("out_dir", "config_hash")}
        normalized.update(version=SCHEMA_VERSION, instance=serialize_edge_list(self.instance),
                          noise=asdict(self.noise))
        digest = hashlib.sha256(
            json.dumps(normalized, sort_keys=True, separators=(",", ":")).encode()
        ).hexdigest()
        object.__setattr__(self, "config_hash", digest)


_CONFIG_FIELDS = {f.name for f in fields(ExperimentConfig) if f.init} | {"version"}


@dataclass
class RunArtifacts:
    counts_path: Path
    trace_path: Path
    summary_path: Path
    summary: dict


def _reject_unknown(section: str, given, allowed: set[str]) -> None:
    if not isinstance(given, dict):
        raise ConfigError(f"{section} must be a JSON object, got {type(given).__name__}")
    unknown = sorted(set(given) - allowed)
    if unknown:
        raise ConfigError(f"unknown field {unknown[0]!r} in {section}")


def _is_int(value) -> bool:
    """True for JSON integers; bool is an int subclass but never a count."""
    return isinstance(value, int) and not isinstance(value, bool)


def _resolve_instance(spec) -> MaxCutInstance:
    if spec == "canonical":
        return canonical_instance()
    if isinstance(spec, str):
        raise ConfigError(f"instance: unknown named instance {spec!r} (only 'canonical')")
    _reject_unknown("instance", spec, _INSTANCE_FIELDS)
    if ("file" in spec) == ("inline" in spec):
        raise ConfigError("instance: give exactly one of 'file' or 'inline'")
    if "file" in spec:
        path = Path(spec["file"])
        if not path.exists():
            raise ConfigError(f"instance.file: no such file: {path}")
        try:
            return parse_edge_list(path.read_text(encoding="utf-8"))
        except ParseError as exc:
            raise ConfigError(f"instance.file: {path}: {exc}") from None
    inline = spec["inline"]
    _reject_unknown("instance.inline", inline, _INLINE_FIELDS)
    try:
        return MaxCutInstance(
            n=inline.get("n"),
            edges=tuple(tuple(e) for e in inline.get("edges", ())),
            weights=tuple(inline.get("weights", ())),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"instance.inline: {exc}") from None


def _resolve_noise(spec) -> NoiseConfig:
    if isinstance(spec, str):
        if spec not in NOISE_PRESETS:
            raise ConfigError(
                f"noise: unknown preset {spec!r}; presets are {sorted(NOISE_PRESETS)}"
            )
        return NOISE_PRESETS[spec]
    _reject_unknown("noise", spec, _NOISE_FIELDS)
    try:
        return NoiseConfig(**spec)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"noise: {exc}") from None


def parse_config(raw: dict) -> ExperimentConfig:
    """Turn a raw config dict into an ``ExperimentConfig``; unknown fields anywhere are errors."""
    _reject_unknown("config", raw, _CONFIG_FIELDS)
    version = raw.get("version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise ConfigError(f"version: unsupported schema version {version!r}")
    init = raw.get("init", "random")
    return ExperimentConfig(
        instance=_resolve_instance(raw.get("instance", "canonical")),
        p=raw.get("p", 1),
        method=raw.get("method", "cobyla"),
        init=tuple(init) if isinstance(init, list) else init,
        restarts=raw.get("restarts", 1),
        shots=raw.get("shots", 1000),
        mode=raw.get("mode", "exact"),
        noise=_resolve_noise(raw.get("noise", "none")),
        seed=raw.get("seed", 0),
        max_evals=raw.get("max_evals"),
        out_dir=raw.get("out_dir"),
        sweep=raw.get("sweep"),
    )


def load_config(path) -> ExperimentConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    return parse_config(raw)


# ---------------------------------------------------------------------------
# artifact writers
# ---------------------------------------------------------------------------


def write_counts_json(path: Path, counts: Counts, config: ExperimentConfig) -> None:
    payload = {
        "shots": counts.shots,
        "counts": dict(sorted(counts.counts.items())),
        "config_hash": config.config_hash,
        "seed": config.seed,
        "instance": serialize_edge_list(config.instance),
    }
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def _write_csv(path: Path, header: list[str], rows) -> None:
    """The one CSV form of the artifacts: LF line ends, floats as .9g, the rest str."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([f"{v:.9g}" if isinstance(v, float) else str(v) for v in row])
    path.write_text(buf.getvalue(), encoding="utf-8")


def write_trace_csv(path: Path, trace: OptimizationTrace, p: int) -> None:
    """Header: eval,energy,beta_1..beta_p,gamma_1..gamma_p; 9 significant digits."""
    header = ["eval", "energy"]
    header += [f"beta_{i + 1}" for i in range(p)]
    header += [f"gamma_{i + 1}" for i in range(p)]
    _write_csv(path, header, ((r.index, r.energy, *r.theta) for r in trace.records))


# ---------------------------------------------------------------------------
# experiment pipeline
# ---------------------------------------------------------------------------


def run_experiment(config: ExperimentConfig, out_dir=None) -> RunArtifacts:
    """Optimize, run the final circuit, and write the three artifacts."""
    out = Path(out_dir) if out_dir is not None else Path(config.out_dir or ".")
    out.mkdir(parents=True, exist_ok=True)

    if config.p == 0:
        theta = np.zeros(0)
        trace = OptimizationTrace()
        energy = evaluate_qaoa(config.instance, QaoaParams((), ())).energy
        trace.append(theta, energy)
        status = "converged"
        best_f = energy
        evals_used = 1
        total_evals = 1
    else:
        if isinstance(config.init, tuple):
            starts = [np.array(config.init)] * config.restarts
        elif config.init == "paper-p5":
            starts = [np.array(PAPER_P5_THETA)] * config.restarts
        else:
            starts = random_qaoa_starts(config.p, config.restarts, config.seed)
        results = []
        for r, x0 in enumerate(starts):
            objective = make_objective(
                config.instance, config.p, config.mode,
                shots=config.shots,
                seed=rng.child_seed(config.seed, rng.STREAM_EVAL, r),
                noise=config.noise,
            )
            problem = MinimizeProblem(objective, x0, max_evals=config.max_evals)
            results.append(minimize(config.method, problem))
        result = min(results, key=lambda res: res.f_best)
        theta = result.x_best
        trace = result.trace
        status = result.status
        best_f = result.f_best
        evals_used = result.evals_used
        total_evals = sum(res.evals_used for res in results)

    final = evaluate_qaoa(
        config.instance, QaoaParams.from_vector(theta),
        "noisy" if config.mode == "noisy" else "sampled",
        shots=config.shots, seed=rng.child_seed(config.seed, rng.STREAM_FINAL),
        noise=config.noise,
    )
    counts = final.counts
    max_cut, optima = brute_force_maxcut(config.instance)
    table = cut_value_table(config.instance)
    cuts = {bits: float(table[int(bits, 2)]) for bits in counts.counts}
    best_cut = max(cuts.values())
    best_bitstrings = sorted(bits for bits, cut in cuts.items() if cut == best_cut)
    probs = counts.probabilities()
    summary = {
        "config_hash": config.config_hash,
        "seed": config.seed,
        "p": config.p,
        "method": config.method,
        "mode": config.mode,
        "status": status,
        "best_energy": best_f,
        "final_energy": final.energy,
        "best_bitstrings": best_bitstrings,
        "max_cut": max_cut,
        "approx_ratio": best_cut / max_cut if max_cut > 0 else 1.0,
        "ground_pair_prob": float(sum(probs.get(b, 0.0) for b in sorted(optima))),
        "theta": [float(v) for v in theta],
        "evals_used": evals_used,
        "total_evals": total_evals,
        "shots": config.shots,
    }
    counts_path = out / "counts.json"
    trace_path = out / "trace.csv"
    summary_path = out / "summary.json"
    write_counts_json(counts_path, counts, config)
    write_trace_csv(trace_path, trace, config.p)
    summary_path.write_text(
        json.dumps(summary, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    return RunArtifacts(counts_path, trace_path, summary_path, summary)


SWEEP_LIMIT = 1000


def _axis_label(key: str, j: int, value) -> str:
    """A cell's name for entry j of a sweep axis; inline noise objects are ``custom<j>``."""
    if key == "noise" and not isinstance(value, str):
        return f"custom{j}"
    return str(value)


def run_sweep(config: ExperimentConfig, out_dir=None) -> list[dict]:
    """Cross-product sweep; every cell gets its own derived seed and subdir.

    Each cell is a ``replace`` copy of ``config``, so every cell is
    checked before the first one runs. A cell names its noise by preset,
    ``custom<j>`` for the inline object at entry j of the noise axis, or
    ``custom`` when there is no noise axis.
    """
    axes = config.sweep or {}
    levels = [(key, axes[key]) for key in _SWEEP_AXES if key in axes]
    cells: list[dict] = [{}]  # axis -> entry index
    for key, values in levels:
        cells = [dict(cell, **{key: j}) for cell in cells for j in range(len(values))]
    if len(cells) > SWEEP_LIMIT:
        raise ConfigError(f"sweep: {len(cells)} cells exceeds the limit of {SWEEP_LIMIT}")
    cell_configs = []
    for idx, cell in enumerate(cells):
        changes = {key: axes[key][j] for key, j in cell.items()}
        if "noise" in changes:
            changes["noise"] = _resolve_noise(changes["noise"])
        # an empty sweep is the base experiment itself, same seed included
        seed = rng.child_seed(config.seed, rng.STREAM_CELL, idx) if levels else config.seed
        cell_configs.append(replace(config, **changes, seed=seed, sweep=None, out_dir=None))
    out = Path(out_dir) if out_dir is not None else Path(config.out_dir or ".")
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for idx, (cell, cell_config) in enumerate(zip(cells, cell_configs)):
        labels = {key: _axis_label(key, j, axes[key][j]) for key, j in cell.items()}
        name_bits = [f"{key}{label}" for key, label in labels.items()] or ["single"]
        cell_dir = out / ("cell_%03d_%s" % (idx, "_".join(name_bits)))
        artifacts = run_experiment(cell_config, cell_dir)
        row = {
            "cell": idx,
            "p": cell_config.p,
            "method": cell_config.method,
            "noise": labels.get("noise", "custom"),
            "shots": cell_config.shots,
            "seed": cell_config.seed,
            "f_best": artifacts.summary["best_energy"],
            "approx_ratio": artifacts.summary["approx_ratio"],
            "ground_pair_prob": artifacts.summary["ground_pair_prob"],
            "evals_used": artifacts.summary["evals_used"],
            "status": artifacts.summary["status"],
        }
        rows.append(row)
    _write_csv(out / "sweep.csv", list(rows[0]), (row.values() for row in rows))
    return rows


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the published contract is 1
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(1)


def _build_parser() -> _Parser:
    parser = _Parser(prog="qaoalab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="run one experiment from a config")
    solve.add_argument("--config", required=True)
    solve.add_argument("--seed", type=int, default=None)
    solve.add_argument("--out", default=None)

    sweep = sub.add_parser("sweep", help="run the config's sweep axes")
    sweep.add_argument("--config", required=True)
    sweep.add_argument("--seed", type=int, default=None)
    sweep.add_argument("--out", default=None)

    brute = sub.add_parser("brute-force", help="exhaustive MaxCut oracle")
    brute.add_argument("--graph", required=True,
                       help="'canonical' or a path to an edge-list file")

    plot = sub.add_parser("plot", help="render an artifact file to SVG")
    plot.add_argument("--in", dest="infile", required=True,
                      help="counts .json or trace .csv")
    plot.add_argument("--out", required=True)
    plot.add_argument("--series", choices=("energy", "params"), default="energy")
    return parser


def _cli_config(args) -> ExperimentConfig:
    """The config file, with ``--seed`` applied as a checked ``replace``."""
    config = load_config(args.config)
    return config if args.seed is None else replace(config, seed=args.seed)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        if args.command == "solve":
            artifacts = run_experiment(_cli_config(args), args.out)
            s = artifacts.summary
            print(f"best_energy {s['best_energy']:.6g}  "
                  f"approx_ratio {s['approx_ratio']:.4g}  "
                  f"evals {s['evals_used']}  status {s['status']}")
            print(f"wrote {artifacts.counts_path} {artifacts.trace_path} "
                  f"{artifacts.summary_path}")
            return 0
        if args.command == "sweep":
            rows = run_sweep(_cli_config(args), args.out)
            for row in rows:
                print(f"cell {row['cell']:3d}  p={row['p']}  {row['method']:7s} "
                      f"noise={row['noise']:13s} f_best={row['f_best']:.6g} "
                      f"ground_pair={row['ground_pair_prob']:.4g}")
            return 0
        if args.command == "brute-force":
            if args.graph == "canonical":
                instance = canonical_instance()
            else:
                path = Path(args.graph)
                if not path.exists():
                    print(f"error: no such graph file: {path}", file=sys.stderr)
                    return 1
                instance = parse_edge_list(path.read_text(encoding="utf-8"))
            best, optima = brute_force_maxcut(instance)
            print(f"{best:g} " + " ".join(sorted(optima)))
            return 0
        if args.command == "plot":
            infile = Path(args.infile)
            if not infile.exists():
                print(f"error: no such input file: {infile}", file=sys.stderr)
                return 1
            if infile.suffix == ".csv":
                svg = plot_trace(infile, series=args.series)
            else:
                svg = plot_histogram(infile)
            Path(args.out).write_text(svg, encoding="utf-8")
            print(f"wrote {args.out}")
            return 0
        raise AssertionError(f"unhandled command {args.command!r}")
    except (ConfigError, ParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - last-resort guard
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
