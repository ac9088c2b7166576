"""QAOA MaxCut workbench.

Dense statevector simulation of the alternating-layer ansatz, a
brute-force cut oracle, parametric noise channels with twirling /
scheduling / dynamical-decoupling mitigation passes, in-house
derivative-free optimizers, and a reproducible experiment harness.
"""

from .ansatz import Circuit, QaoaParams, build_qaoa_circuit, qaoa_states, run_circuit
from .graph import (
    MaxCutInstance,
    ParseError,
    brute_force_maxcut,
    canonical_instance,
    cut_value,
    parse_edge_list,
    serialize_edge_list,
)
from .harness import (
    ExperimentConfig,
    NOISE_PRESETS,
    PAPER_P5_THETA,
    ConfigError,
    RunArtifacts,
    load_config,
    main,
    parse_config,
    run_experiment,
    run_sweep,
)
from .noise import (
    DD_SEQUENCES,
    Interval,
    NoiseConfig,
    Timeline,
    apply_readout_error,
    apply_trajectory_noise,
    insert_dd,
    sample_noisy,
    schedule_circuit,
    twirl_circuit,
)
from .objective import (
    EnergySample,
    energy_from_counts,
    evaluate_qaoa,
    make_objective,
)
from .optim import (
    METHODS,
    MinimizeProblem,
    MinimizeResult,
    minimize,
    random_qaoa_starts,
)
from .plots import plot_histogram, plot_trace, render_histogram, render_trace
from .statevec import GateOp, expectation_cut, sample_counts, simulate_ops, zero_state

__version__ = "0.1.0"

__all__ = [
    "Circuit", "QaoaParams", "build_qaoa_circuit", "qaoa_states", "run_circuit",
    "MaxCutInstance", "ParseError", "brute_force_maxcut",
    "canonical_instance", "cut_value", "parse_edge_list", "serialize_edge_list",
    "ExperimentConfig", "NOISE_PRESETS", "PAPER_P5_THETA", "ConfigError",
    "RunArtifacts", "load_config", "main", "parse_config",
    "run_experiment", "run_sweep",
    "DD_SEQUENCES", "Interval", "NoiseConfig", "Timeline",
    "apply_readout_error", "apply_trajectory_noise", "insert_dd",
    "sample_noisy", "schedule_circuit", "twirl_circuit",
    "EnergySample", "energy_from_counts", "evaluate_qaoa", "make_objective",
    "METHODS", "MinimizeProblem", "MinimizeResult", "minimize",
    "random_qaoa_starts",
    "plot_histogram", "plot_trace", "render_histogram", "render_trace",
    "GateOp", "expectation_cut", "sample_counts", "simulate_ops", "zero_state",
    "__version__",
]
