"""Experiment harness: JSON configs, deterministic artifacts, and the CLI.

``parse_config`` turns raw JSON into an ``ExperimentConfig``, which
checks its own fields, naming the field it rejects, and derives its
``config_hash`` from them. A run optimizes the layer angles on one
``objective.Engine`` in the configured mode, takes the final counts and
energy from that engine's ``tallies`` at the winning angles, and writes
three artifacts to the output directory: counts.json (written straight
from the final tally), trace.csv (the winning restart's evaluation
log), and summary.json (strict JSON). A sweep runs one
``replace`` copy of the config per cell of its axes. Every restart of
every cell of a run or sweep is one search of a single
``optim.minimize_lockstep`` call (``_optimize``); cells whose engine
arguments are equal share one engine, and each optimizer round
evaluates the rows of all searches on an engine in one call. A p = 0
run is a search over zero angles: its one evaluation scores the
uniform state. Every random draw in the pipeline is keyed off the
master seed, and each restart's search takes its evaluation seeds from
its own seed, so (config, seed) reproduces the files byte for byte,
however the searches share engine calls.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from dataclasses import asdict, dataclass, field, fields, replace
from itertools import chain, product
from pathlib import Path

import numpy as np

from . import _checks, rng
from .graph import (
    MaxCutInstance,
    brute_force_maxcut,
    canonical_instance,
    cut_value_table,
    parse_edge_list,
    serialize_edge_list,
)
from .noise import NoiseConfig
from .objective import Engine, check_run_mode, energy_from_tally
from .optim import (
    METHODS,
    MinimizeProblem,
    MinimizeResult,
    minimize_lockstep,
    random_qaoa_starts,
)
from .plots import plot_histogram, plot_trace
from .statevec import MAX_QUBITS, _tally_qubits, bitstrings

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
SWEEP_LIMIT = 1000  # cells in one sweep


class ConfigError(ValueError):
    """Invalid experiment config; the message names the offending field."""


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment, checked when it is built.

    Each field is checked by its rule in ``_checks`` (mode, shots and
    noise by ``objective.check_run_mode``) and refused by a ``ConfigError``
    that starts with the field's name, so ``dataclasses.replace`` yields a
    checked config too. Each sweep entry is checked alone, as a
    ``replace`` copy with just its field set (a noise entry resolved),
    and refused as ``sweep.<axis>[j]: `` and the rule's message; the
    first bad entry, in axis order and then entry order, is named. A
    config keeps no cells: ``sweep_cells`` builds them. Integers are
    kept as ints, ``init`` as floats.
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
        try:
            self._check()
        except ValueError as exc:  # a rule's message starts with "field: " too
            raise ConfigError(str(exc)) from None
        normalized = {f.name: getattr(self, f.name) for f in fields(self)
                      if f.name not in ("out_dir", "config_hash")}
        normalized.update(version=SCHEMA_VERSION, instance=serialize_edge_list(self.instance),
                          noise=asdict(self.noise))
        digest = hashlib.sha256(
            json.dumps(normalized, sort_keys=True, separators=(",", ":")).encode()
        ).hexdigest()
        object.__setattr__(self, "config_hash", digest)

    def _check(self):
        if self.instance.n > MAX_QUBITS:
            raise ConfigError(
                f"instance: {self.instance.n} nodes exceed the simulator's limit of {MAX_QUBITS}"
            )
        p = _checks.integer(self.p, "p:", 0)
        object.__setattr__(self, "p", p)
        _checks.one_of(self.method, METHODS, "method:")
        init = self.init
        if isinstance(init, tuple):
            object.__setattr__(self, "init", tuple(_checks.real(v, "init:") for v in init))
            if len(init) != 2 * p:
                raise ConfigError(f"init: explicit vector has length {len(init)}, need 2*p = {2 * p}")
        elif init == "paper-p5":
            if p != 5:
                raise ConfigError(f"init: preset 'paper-p5' requires p = 5, got p = {p}")
        elif init != "random":
            raise ConfigError(f"init: must be 'random', 'paper-p5', or a vector, got {init!r}")
        object.__setattr__(self, "restarts", _checks.integer(self.restarts, "restarts:", 1))
        # a run samples its final counts in every mode, so shots are never optional
        object.__setattr__(self, "shots", _checks.integer(self.shots, "shots:", 1))
        _checks.of_type(self.noise, NoiseConfig, "noise:")  # hashed by its rates, so never None
        check_run_mode(self.mode, self.shots, self.noise, sep=":")
        object.__setattr__(self, "seed", _checks.seed(self.seed, "seed:"))
        if self.max_evals is not None:  # a budget covers one pass over the 2*p angles
            object.__setattr__(self, "max_evals",
                               _checks.integer(self.max_evals, "max_evals:", max(1, 2 * p)))
        if self.out_dir is not None and not isinstance(self.out_dir, str):
            raise ConfigError(f"out_dir: must be a string path, got {self.out_dir!r}")
        if self.sweep is not None:
            _reject_unknown("sweep", self.sweep, set(_SWEEP_AXES))
            for key, values in self.sweep.items():
                if not isinstance(values, list) or not values:
                    raise ConfigError(f"sweep.{key}: must be a non-empty list")
            cells = math.prod(len(values) for values in self.sweep.values())
            if cells > SWEEP_LIMIT:
                raise ConfigError(f"sweep: {cells} cells exceeds the limit of {SWEEP_LIMIT}")
            if "noise" in self.sweep and self.mode != "noisy":
                raise ConfigError(
                    f"sweep.noise: mode {self.mode!r} never samples noise; "
                    "sweep noise in mode 'noisy'"
                )
            # no rule joins two swept fields, so a cell of entries that pass alone passes
            for key in _SWEEP_AXES:
                for j, value in enumerate(self.sweep.get(key, ())):
                    try:
                        replace(self, **{key: _resolve_noise(value) if key == "noise" else value},
                                sweep=None, out_dir=None)
                    except ConfigError as exc:
                        raise ConfigError(f"sweep.{key}[{j}]: {exc}") from None


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


def _resolve_instance(spec) -> MaxCutInstance:
    if spec == "canonical":
        return canonical_instance()
    if isinstance(spec, str):
        raise ConfigError(f"instance: unknown named instance {spec!r} (only 'canonical')")
    _reject_unknown("instance", spec, _INSTANCE_FIELDS)
    if ("file" in spec) == ("inline" in spec):
        raise ConfigError("instance: give exactly one of 'file' or 'inline'")
    if "file" in spec:
        return _read_graph(spec["file"], "instance.file")
    inline = spec["inline"]
    _reject_unknown("instance.inline", inline, _INLINE_FIELDS)
    lists = {key: inline.get(key, []) for key in ("edges", "weights")}
    for key, value in lists.items():
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"instance.inline.{key}: must be a list, got {value!r}")
    try:
        return MaxCutInstance(n=inline.get("n"), edges=tuple(lists["edges"]),
                              weights=tuple(lists["weights"]))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"instance.inline: {exc}") from None


def _read_graph(path, name: str) -> MaxCutInstance:
    """The edge-list file at ``path``, read by the file rule; a ConfigError starts with ``name``."""
    try:
        text = _checks.text_file(path, f"{name}:")
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    try:
        return parse_edge_list(text)
    except ValueError as exc:  # a ParseError, or a rule of the whole graph
        raise ConfigError(f"{name}: {path}: {exc}") from None


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
    if not (_checks.is_integer(version) and version == SCHEMA_VERSION):
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
    """The config file at ``path``, read by the file rule and parsed by ``parse_config``."""
    try:
        raw = json.loads(_checks.text_file(path, "config file:"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON ({exc})") from None
    except ValueError as exc:  # the file rule's refusal
        raise ConfigError(str(exc)) from None
    return parse_config(raw)


# ---------------------------------------------------------------------------
# artifact writers
# ---------------------------------------------------------------------------


def write_counts_json(path: Path, tally: np.ndarray, config: ExperimentConfig) -> None:
    """The tally's nonzero entries as bitstring counts, with the run's hash, seed and instance.

    The text is ``json.dumps(payload, sort_keys=True, indent=2) + "\n"``
    of the payload {config_hash, counts, instance, seed, shots}, written
    straight from the tally (checked by the tally rule): the fields in
    sorted order, then one ``"<key>": <count>`` line per nonzero entry.
    Fixed-width keys of ascending indices are already in sorted order,
    so no dict is built and nothing is sorted.
    """
    n = _tally_qubits(tally)
    hit = np.flatnonzero(tally)
    lines = ",\n".join([f'    "{key}": {count}' for key, count
                         in zip(bitstrings(hit, n).tolist(), tally[hit].tolist())])
    counts = "{\n" + lines + "\n  }" if lines else "{}"
    path.write_text(f'{{\n  "config_hash": {json.dumps(config.config_hash)},\n'
                    f'  "counts": {counts},\n'
                    f'  "instance": {json.dumps(serialize_edge_list(config.instance))},\n'
                    f'  "seed": {json.dumps(config.seed)},\n'
                    f'  "shots": {int(tally.sum())}\n}}\n', encoding="utf-8")


def _write_csv(path: Path, header: list[str], rows) -> None:
    """The one CSV form of the artifacts: LF line ends, floats as .9g, ints and strings as str.

    Every row has the field types of the first, and no string holds a
    comma, quote or line break (they name methods, statuses and noise
    settings), so one %-format per file gives the text ``csv.writer``
    gives for the same fields.
    """
    rows = iter(rows)
    first = next(rows, None)
    lines = [",".join(header)]
    if first is not None:
        fmt = ",".join("%.9g" if isinstance(v, float) else "%d" if _checks.is_integer(v) else "%s"
                       for v in first)
        lines += [fmt % tuple(row) for row in chain((first,), rows)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_trace_csv(path: Path, thetas: np.ndarray, energies: np.ndarray) -> None:
    """Header: eval,energy,beta_1..beta_p,gamma_1..gamma_p; 9 significant digits.

    Row i is evaluation i: ``energies[i]`` and the 2p angles ``thetas[i]``.
    """
    p = thetas.shape[1] // 2
    header = ["eval", "energy"]
    header += [f"beta_{i + 1}" for i in range(p)]
    header += [f"gamma_{i + 1}" for i in range(p)]
    _write_csv(path, header, ((i, f, *theta) for i, (f, theta)
                              in enumerate(zip(energies.tolist(), thetas.tolist()))))


# ---------------------------------------------------------------------------
# experiment pipeline
# ---------------------------------------------------------------------------


def _starts(config: ExperimentConfig) -> list[np.ndarray]:
    """The x0 of each restart; at p = 0 one empty start, as there are no angles to restart."""
    if config.p == 0:
        return [np.zeros(0)]
    if isinstance(config.init, tuple):
        return [np.array(config.init)] * config.restarts
    if config.init == "paper-p5":
        return [np.array(PAPER_P5_THETA)] * config.restarts
    return random_qaoa_starts(config.p, config.restarts, config.seed)


def _engines(configs: list[ExperimentConfig]) -> list[Engine]:
    """Each config's engine, one shared by configs with equal engine arguments.

    The engine arguments are the instance, p, mode, shots and noise. An
    engine checks what only it can, such as a noisy plan's kick angles,
    so a run builds its engines before it makes any directory.
    """
    engines: dict[tuple, Engine] = {}
    for config in configs:
        args = (config.instance, config.p, config.mode, config.shots, config.noise)
        if args not in engines:
            engines[args] = Engine(config.instance, config.p, config.mode,
                                   shots=config.shots, noise=config.noise)
    return [engines[config.instance, config.p, config.mode, config.shots, config.noise]
            for config in configs]


def _optimize(configs: list[ExperimentConfig],
              engines: list[Engine]) -> list[tuple[Engine, MinimizeResult, int]]:
    """(engine, best restart, evaluations of all restarts) of each config, from one lockstep run.

    Config j runs on ``engines[j]`` (``_engines``). Every restart of
    every config is one search of a single ``minimize_lockstep`` call,
    which sends each round's rows of the searches on one engine to it in
    one call. Restart r searches under the seed ``derive_key(config.seed,
    STREAM_EVAL, r)`` (none in exact mode), so it keeps the seeds, log
    and status it gets when run alone. At p = 0 the one search is over
    zero angles: it scores the uniform state once and converges.
    """
    plans = [(config, engine, _starts(config)) for config, engine in zip(configs, engines)]
    results = iter(minimize_lockstep(
        (config.method, MinimizeProblem(
            engine, x0, max_evals=config.max_evals,
            seed=None if config.mode == "exact" else rng.derive_key(config.seed, rng.STREAM_EVAL, r)))
        for config, engine, starts in plans for r, x0 in enumerate(starts)
    ))
    outcomes = []
    for _, engine, starts in plans:
        restarts = [next(results) for _ in starts]
        best = min(restarts, key=lambda res: res.f_best)
        outcomes.append((engine, best, sum(res.evals_used for res in restarts)))
    return outcomes


def run_experiment(config: ExperimentConfig, out_dir=None) -> RunArtifacts:
    """Optimize, run the final circuit, and write the three artifacts.

    A config with sweep axes is refused, before any directory is made.
    """
    _checks.of_type(config, ExperimentConfig, "config")
    if config.sweep:
        raise ConfigError(f"sweep: the config sweeps {sorted(config.sweep)}, which one run does "
                          "not cover; run it with `qaoalab sweep` (run_sweep)")
    engines = _engines([config])
    out = Path(out_dir) if out_dir is not None else Path(config.out_dir or ".")
    out.mkdir(parents=True, exist_ok=True)
    [outcome] = _optimize([config], engines)
    return _write_run(config, *outcome, out)


def _write_run(config: ExperimentConfig, engine: Engine, result: MinimizeResult,
               total_evals: int, out: Path) -> RunArtifacts:
    """Take the final counts at the best restart's angles from ``engine``; write the artifacts."""
    theta = result.x_best
    instance = config.instance
    tally = engine.tallies(theta[None], [rng.derive_key(config.seed, rng.STREAM_FINAL)])[0]
    max_cut, optima = brute_force_maxcut(instance)
    hit = np.flatnonzero(tally)
    cuts = cut_value_table(instance)[hit]
    best_cut = float(cuts.max())
    best_bitstrings = bitstrings(hit[cuts == best_cut], instance.n).tolist()
    summary = {
        "config_hash": config.config_hash,
        "seed": config.seed,
        "p": config.p,
        "method": config.method,
        "mode": config.mode,
        "status": result.status,
        "best_energy": result.f_best,
        "final_energy": energy_from_tally(tally, instance),
        "best_bitstrings": best_bitstrings,
        "max_cut": max_cut,
        "approx_ratio": best_cut / max_cut if max_cut > 0 else 1.0,
        "ground_pair_prob": sum(int(tally[int(b, 2)]) / config.shots for b in sorted(optima)),
        "theta": [float(v) for v in theta],
        "evals_used": result.evals_used,
        "total_evals": total_evals,
        "shots": config.shots,
    }
    counts_path = out / "counts.json"
    trace_path = out / "trace.csv"
    summary_path = out / "summary.json"
    write_counts_json(counts_path, tally, config)
    write_trace_csv(trace_path, result.thetas, result.energies)
    summary_path.write_text(
        json.dumps(summary, sort_keys=True, indent=2, allow_nan=False) + "\n", encoding="utf-8"
    )
    return RunArtifacts(counts_path, trace_path, summary_path, summary)


def _axis_label(key: str, j: int, value) -> str:
    """A cell's name for entry j of a sweep axis; inline noise objects are ``custom<j>``."""
    if key == "noise" and not isinstance(value, str):
        return f"custom{j}"
    return str(value)


def sweep_cells(config: ExperimentConfig) -> list[tuple[str, dict, ExperimentConfig]]:
    """(directory name, axis labels, config) of each sweep cell, in cell order.

    Each cell is a ``replace`` copy of ``config`` with its entries, its
    own seed and no sweep. The config checked each entry alone when it
    was built, and no rule joins two swept fields, so every cell passes
    too. A cell names its noise by preset, ``custom<j>`` for the inline
    object at entry j of the noise axis, or ``custom`` when there is no
    noise axis.
    """
    axes = config.sweep or {}
    keys = [key for key in _SWEEP_AXES if key in axes]
    values = {key: list(map(_resolve_noise, axes[key])) if key == "noise" else axes[key]
              for key in keys}
    out = []
    for idx, cell in enumerate(product(*(range(len(axes[key])) for key in keys))):
        # an empty sweep is the base experiment itself, same seed included
        seed = rng.derive_key(config.seed, rng.STREAM_CELL, idx) if keys else config.seed
        cell_config = replace(config, **{key: values[key][j] for key, j in zip(keys, cell)},
                              seed=seed, sweep=None, out_dir=None)
        labels = {key: _axis_label(key, j, axes[key][j]) for key, j in zip(keys, cell)}
        name_bits = [f"{key}{label}" for key, label in labels.items()] or ["single"]
        name = "cell_%03d_%s" % (idx, "_".join(name_bits))
        out.append((name, labels, cell_config))
    return out


def run_sweep(config: ExperimentConfig, out_dir=None) -> list[dict]:
    """Cross-product sweep; every cell gets its own derived seed and subdir.

    Every cell is optimized in one ``_optimize`` call, so the restarts
    of all cells run in lockstep, and cells with equal engine arguments
    share an engine. Each cell still takes its own final counts, and the
    cells' artifacts and sweep.csv are written in cell order, with the
    bytes each cell writes when run alone through ``run_experiment``.
    """
    cells = sweep_cells(_checks.of_type(config, ExperimentConfig, "config"))
    cell_configs = [cell_config for _, _, cell_config in cells]
    engines = _engines(cell_configs)
    out = Path(out_dir) if out_dir is not None else Path(config.out_dir or ".")
    out.mkdir(parents=True, exist_ok=True)
    outcomes = _optimize(cell_configs, engines)
    rows = []
    for idx, ((name, labels, cell_config), outcome) in enumerate(zip(cells, outcomes)):
        cell_dir = out / name
        cell_dir.mkdir(parents=True, exist_ok=True)
        summary = _write_run(cell_config, *outcome, cell_dir).summary
        rows.append({
            "cell": idx,
            "p": cell_config.p,
            "method": cell_config.method,
            "noise": labels.get("noise", "custom"),
            "shots": cell_config.shots,
            "seed": cell_config.seed,
            "f_best": summary["best_energy"],
            "approx_ratio": summary["approx_ratio"],
            "ground_pair_prob": summary["ground_pair_prob"],
            "evals_used": summary["evals_used"],
            "status": summary["status"],
        })
    _write_csv(out / "sweep.csv", list(rows[0]), (row.values() for row in rows))
    return rows


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the published contract is 1
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
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
    plot.add_argument("--series", choices=("energy", "params"), help="trace only; default energy")
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
            instance = (canonical_instance() if args.graph == "canonical"
                        else _read_graph(args.graph, "--graph"))
            best, optima = brute_force_maxcut(instance)
            print(f"{best:g} " + " ".join(sorted(optima)))
            return 0
        # argparse admits only the four commands, so this one is "plot"
        if Path(args.infile).suffix.lower() == ".csv":
            svg = plot_trace(args.infile, series=args.series or "energy")
        elif args.series is not None:
            raise ValueError(f"--series: a counts file has no series, got {args.series!r}")
        else:
            svg = plot_histogram(args.infile)
        Path(args.out).write_text(svg, encoding="utf-8")
        print(f"wrote {args.out}")
        return 0
    except ValueError as exc:  # a ConfigError or a ParseError too
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
