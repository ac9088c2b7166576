"""The input rules: one definition each, called at every entry point."""

import ast
import math
import re
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import qaoalab
from qaoalab import _checks, ansatz, objective, trajectories
from qaoalab.ansatz import Circuit, QaoaParams, build_qaoa_circuit, run_circuit
from qaoalab.graph import (
    MaxCutInstance,
    brute_force_maxcut,
    canonical_instance,
    parse_edge_list,
    serialize_edge_list,
)
from qaoalab.harness import parse_config, run_experiment, run_sweep, write_trace_csv
from qaoalab.noise import (
    NoiseConfig,
    apply_trajectory_noise,
    insert_dd,
    sample_noisy,
    schedule_circuit,
    twirl_circuit,
)
from qaoalab.objective import Engine, energy_from_counts, evaluate_qaoa, make_objective
from qaoalab.optim import MinimizeProblem, minimize, random_qaoa_starts
from qaoalab.plots import plot_trace, render_histogram
from qaoalab.statevec import GateOp, counts_from_tally, sample_counts, simulate_ops, zero_state

CANONICAL = canonical_instance()
PARAMS = QaoaParams((0.3,), (0.9,))
CIRCUIT = build_qaoa_circuit(CANONICAL, PARAMS)
NOISE = NoiseConfig(p1q=0.1, p_readout=0.1, twirling=True)
THETAS = np.array([[0.3, 0.9], [1.1, 0.2]])
# two 1e308-long H gates end past the float range, before a CNOT on both qubits
LONG_CIRCUIT = Circuit(2, (GateOp("H", (0,), None, 1e308), GateOp("H", (0,), None, 1e308),
                           GateOp("CNOT", (0, 1), None, 1.0)))


# -- the rules ---------------------------------------------------------------


@pytest.mark.parametrize("value", [3, np.int64(3), np.uint8(3), np.int32(3)])
def test_an_integer_comes_back_as_an_int(value):
    assert type(_checks.integer(value, "k", 0, 3)) is int
    assert _checks.integer(value, "k") == 3
    assert type(_checks.seed(value)) is int


@pytest.mark.parametrize("value", [True, False, np.bool_(True), 3.0, np.float64(3.0), "3", None])
def test_an_integer_is_no_bool_float_or_string(value):
    with pytest.raises(ValueError, match=r"^k must be an integer, got "):
        _checks.integer(value, "k")
    with pytest.raises(ValueError, match=r"^seed must be an integer in \[0, 2\*\*64\), got "):
        _checks.seed(value)


@pytest.mark.parametrize("value, lo, hi, message", [
    (-1, 0, None, "k must be an integer >= 0, got -1"),
    (0, 1, None, "k must be an integer >= 1, got 0"),
    (np.int64(25), 1, 24, "k must be an integer in [1, 24], got np.int64(25)"),
])
def test_an_integer_out_of_bounds_is_refused(value, lo, hi, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        _checks.integer(value, "k", lo, hi)


@pytest.mark.parametrize("value", [-1, 2**64, np.int64(-5), -2**70])
def test_a_seed_is_in_the_range_the_rng_tells_apart(value):
    with pytest.raises(ValueError, match=r"^seed must be an integer in \[0, 2\*\*64\), got "):
        _checks.seed(value)
    assert _checks.seed(2**64 - 1) == 2**64 - 1
    assert _checks.seed(np.uint64(2**64 - 1)) == 2**64 - 1


@pytest.mark.parametrize("value", [0.5, 2, np.float32(0.5), np.int64(-3)])
def test_a_number_comes_back_as_a_float(value):
    number = _checks.real(value, "x")
    assert type(number) is float and number == float(value)


@pytest.mark.parametrize("value", [True, np.bool_(False), "0.5", None, math.nan, math.inf,
                                   -math.inf, 10**400, 1.5])
def test_a_number_is_finite_and_no_bool_or_string(value):
    with pytest.raises(ValueError, match=r"^x must be a finite number in \[0, 1\], got "):
        _checks.real(value, "x", 0, 1)


@pytest.mark.parametrize("value", [1, 0, np.bool_(True), "true", None])
def test_a_flag_is_true_or_false(value):
    with pytest.raises(ValueError, match="^dd must be true or false, got "):
        _checks.flag(value, "dd")
    assert _checks.flag(True, "dd") is True and _checks.flag(False, "dd") is False


def test_a_choice_comes_back_as_given():
    assert _checks.one_of("cg", ("powell", "cg"), "method") == "cg"
    assert _checks.one_of(np.str_("cg"), ["cg"], "method") == "cg"


@pytest.mark.parametrize("value", ["newton", ["cg"], np.array(["cg"]), {"cg": 1}, None, 1])
def test_a_choice_is_one_of_the_given_values(value):
    with pytest.raises(ValueError, match=r"^method must be one of \('powell', 'cg'\), got "):
        _checks.one_of(value, ("powell", "cg"), "method")


# the histogram rule, and each taker of a bitstring histogram, scoring or drawing it
HISTOGRAM_TAKERS = {
    "rule": lambda counts: _checks.counts(counts, "counts", 5),
    "energy-from-counts": lambda counts: objective.energy_from_counts(counts, CANONICAL),
    "render-histogram": render_histogram,
}


@pytest.mark.parametrize("count", [1.5, 2.0, np.float64(2.0), True, np.bool_(True), -1,
                                   np.int64(-1), "2", None])
@pytest.mark.parametrize("taker", list(HISTOGRAM_TAKERS))
def test_a_count_is_an_integer_at_least_zero_named_by_its_key(taker, count):
    # a valid numpy count first: the scan goes on past it
    counts = {"00011": np.int64(3), "11100": count}
    with pytest.raises(ValueError, match=r"^counts\['11100'\] must be an integer >= 0, got "):
        HISTOGRAM_TAKERS[taker](counts)


@pytest.mark.parametrize("taker", list(HISTOGRAM_TAKERS))
def test_numpy_counts_are_taken_as_ints(taker):
    counts = {"00011": 3, "11100": 5}
    assert HISTOGRAM_TAKERS[taker]({k: np.uint16(v) for k, v in counts.items()}) == (
        HISTOGRAM_TAKERS[taker](counts))


def test_numpy_counts_are_summed_as_python_ints():
    # uint16 counts summed in their own dtype wrap to 14464
    counts = {"00011": np.uint16(40000), "11100": np.uint16(40000)}
    shots = _checks.counts(counts, "counts", 5)
    assert shots == 80000 and type(shots) is int
    assert objective.energy_from_counts(counts, CANONICAL) == -6.0
    assert render_histogram(counts) == render_histogram({"00011": 40000, "11100": 40000})


@pytest.mark.parametrize("key", ["0001", "000111", "0001x", "00 11", "", 3, b"00011"])
@pytest.mark.parametrize("taker", ["rule", "energy-from-counts"])
def test_a_key_is_a_bitstring_of_the_width_named_by_itself(taker, key):
    with pytest.raises(ValueError, match=rf"^counts\[{re.escape(repr(key))}\] must be a "
                                         rf"5-character bitstring of 0 and 1, got "):
        HISTOGRAM_TAKERS[taker]({"00011": 3, key: 2})


@pytest.mark.parametrize("counts", [{}, {"00011": 0}, {"00011": 0, "11100": np.int64(0)}])
@pytest.mark.parametrize("taker", list(HISTOGRAM_TAKERS))
def test_a_histogram_without_shots_is_refused(taker, counts):
    with pytest.raises(ValueError, match="^counts carry no shots$"):
        HISTOGRAM_TAKERS[taker](counts)


@pytest.mark.parametrize("value, width", [("0", None), ("0110", None), ("0110", 4),
                                          (np.str_("10"), 2)])
def test_a_bitstring_is_a_nonempty_string_of_0_and_1(value, width):
    assert _checks.bitstring(value, "bits", width) is value


@pytest.mark.parametrize("value, width", [("", None), ("012", None), ("0 1", None), ("０1", None),
                                          ("011", 2), ("01", 3), (b"01", None), (11, None),
                                          (["0", "1"], None), (None, None)])
def test_a_bitstring_names_its_field(value, width):
    wide = "" if width is None else f" {width}-character"
    with pytest.raises(ValueError, match=rf"^bits must be a{wide} bitstring of 0 and 1, got "
                                         rf"{re.escape(repr(value))}$"):
        _checks.bitstring(value, "bits", width)


def test_a_text_file_comes_back_as_its_text_with_its_line_ends(tmp_path):
    path = tmp_path / "g.txt"
    path.write_bytes(b"2\r\n0 1 \xc3\xa9\n")
    assert _checks.text_file(path, "graph:") == "2\r\n0 1 \u00e9\n"
    assert _checks.text_file(str(path), "graph:") == "2\r\n0 1 \u00e9\n"


@pytest.mark.parametrize("value", [5, None, ["g.txt"], b"g.txt"])
def test_a_text_file_is_named_by_a_string_path(value):
    with pytest.raises(ValueError,
                       match=rf"^graph: must be a string path, got {re.escape(repr(value))}$"):
        _checks.text_file(value, "graph:")


@pytest.mark.parametrize("kind, message", [
    ("missing", "not found: {}"), ("directory", "not a file: {}"),
    ("not-utf8", "not UTF-8 text: {} (invalid start byte)")])
def test_a_text_file_refusal_names_the_path(tmp_path, kind, message):
    path = tmp_path / "g.txt"
    if kind == "directory":
        path.mkdir()
    elif kind == "not-utf8":
        path.write_bytes(b"3\n\xff\xfe")
    with pytest.raises(ValueError, match=f"^graph: {re.escape(message.format(path))}$"):
        _checks.text_file(path, "graph:")


def plot_a_trace(series):
    """``plot_trace`` of a one-row trace.csv that ``write_trace_csv`` writes."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "trace.csv")
        write_trace_csv(path, np.zeros((1, 0)), np.array([-1.0]))
        return plot_trace(path, series)


# each site that takes one of a few names, with a name it takes and the field its
# message starts with
CHOICE_SITES = {
    "run-mode": (lambda v: Engine(CANONICAL, 1, v), "exact", "mode"),
    "config-method": (lambda v: parse_config({"method": v}), "cg", "method:"),
    "lockstep-method": (lambda v: minimize(v, MinimizeProblem(Engine(CANONICAL, 1),
                                                              np.zeros(2))), "cg", "method"),
    "dd-sequence": (lambda v: NoiseConfig(dd_sequence=v), "XY4", "dd_sequence"),
    "insert-dd": (lambda v: insert_dd(CIRCUIT, v), "XY4", "sequence"),
    "trace-series": (plot_a_trace, "energy", "series"),
}


@pytest.mark.parametrize("case", list(CHOICE_SITES))
@pytest.mark.parametrize("wrap", [lambda v: v + "?", lambda v: [v], lambda v: np.array([v])],
                         ids=["unknown", "list", "array"])
def test_a_choice_outside_the_names_is_refused_by_name(no_engine_work, case, wrap):
    call, name, field = CHOICE_SITES[case]
    with pytest.raises(ValueError, match=rf"^{re.escape(field)} must be one of "):
        call(wrap(name))


# -- bad values at the entry points ------------------------------------------------

# each call gets a bad value and must refuse it, naming the field, before any state
# is evolved or any shot is drawn
BAD_INPUTS = {
    "engine-shots-0": (lambda: Engine(CANONICAL, 1, "sampled", shots=0), "shots"),
    "engine-shots-float": (lambda: Engine(CANONICAL, 1, "sampled", shots=2.5), "shots"),
    "engine-shots-bool": (lambda: Engine(CANONICAL, 1, "sampled", shots=True), "shots"),
    "exact-engine-shots-0": (lambda: Engine(CANONICAL, 1, shots=0), "shots"),
    "noisy-dict-noise": (lambda: evaluate_qaoa(CANONICAL, PARAMS, "noisy", shots=8, seed=1,
                                               noise={"p1q": 0.1}), "noise"),
    "sampled-drops-noise": (lambda: evaluate_qaoa(CANONICAL, PARAMS, "sampled", shots=8, seed=1,
                                                  noise=NoiseConfig(p1q=0.5)), "noise"),
    "exact-string-shots": (lambda: evaluate_qaoa(CANONICAL, PARAMS, shots="x"), "shots"),
    "exact-string-seed": (lambda: evaluate_qaoa(CANONICAL, PARAMS, seed="y"), "seed"),
    "exact-int-noise": (lambda: evaluate_qaoa(CANONICAL, PARAMS, noise=3), "noise"),
    "run-circuit-bool-seed": (lambda: run_circuit(CIRCUIT, "sampled", shots=4, seed=True), "seed"),
    "starts-bool-seed": (lambda: random_qaoa_starts(1, 2, True), "seed"),
    "string-angle": (lambda: QaoaParams(("1.5",), (0.1,)), "betas"),
    "bool-angle": (lambda: QaoaParams((0.1,), (True,)), "gammas"),
    "starts-bool-depth": (lambda: random_qaoa_starts(True, 2, 0), "p"),
    "evaluate-negative-seed": (lambda: evaluate_qaoa(CANONICAL, PARAMS, "sampled", shots=8,
                                                     seed=-1), "seed"),
    "objective-seed-2**64": (lambda: make_objective(CANONICAL, 1, "sampled", shots=8,
                                                    seed=2**64), "seed"),
    "problem-negative-seed": (lambda: MinimizeProblem(Engine(CANONICAL, 1), np.zeros(2),
                                                      seed=-1), "seed"),
    "engine-row-seed-2**64": (lambda: Engine(CANONICAL, 1, "sampled", shots=8).tallies(
        THETAS[:1], [2**64]), "seed"),
    "sample-noisy-negative-seed": (lambda: sample_noisy(CIRCUIT, NOISE, 8, -1), "seed"),
    "twirl-negative-seed": (lambda: twirl_circuit(CIRCUIT, -1), "seed"),
    "trajectory-negative-shot": (lambda: apply_trajectory_noise(CIRCUIT, NOISE, -1, 3),
                                 "shot_index"),
    "sample-counts-seed-2**64": (lambda: sample_counts(zero_state(2), 4, 2**64), "seed"),
    "noisy-run-circuit-negative-seed": (lambda: run_circuit(CIRCUIT, "noisy", shots=4, seed=-1,
                                                            noise=NOISE), "seed"),
    "config-exact-no-noise": (lambda: replace(parse_config({}), noise=None), "noise"),
    "config-noisy-no-noise": (lambda: replace(parse_config({"mode": "noisy"}), noise=None),
                              "noise"),
    "run-circuit-list": (lambda: run_circuit([1], "exact"), "circuit"),
    "schedule-list": (lambda: schedule_circuit([1]), "circuit"),
    "insert-dd-none": (lambda: insert_dd(None), "circuit"),
    "twirl-list": (lambda: twirl_circuit([1], 0), "circuit"),
    "sample-noisy-dict-config": (lambda: sample_noisy(CIRCUIT, {"p1q": 0.1}, 10, 1), "config"),
    "sample-noisy-list-circuit": (lambda: sample_noisy([1, 2], NoiseConfig(), 10, 1), "circuit"),
    "trajectory-none-config": (lambda: apply_trajectory_noise(CIRCUIT, None, 0, 1), "config"),
    "evaluate-none-instance": (lambda: evaluate_qaoa(None, PARAMS), "instance"),
    "evaluate-list-params": (lambda: evaluate_qaoa(CANONICAL, [0.1, 0.2]), "params"),
    "objective-string-instance": (lambda: make_objective("canonical", 1), "instance"),
    "build-none-instance": (lambda: build_qaoa_circuit(None, PARAMS), "instance"),
    "brute-force-none": (lambda: brute_force_maxcut(None), "instance"),
    "serialize-none": (lambda: serialize_edge_list(None), "instance"),
    "run-experiment-dict": (lambda: run_experiment({"p": 1}, "unused"), "config"),
    "run-sweep-none": (lambda: run_sweep(None, "unused"), "config"),
    "run-int-out-dir": (lambda: run_experiment(parse_config({}), 5), "out_dir"),
    "sweep-bytes-out-dir": (lambda: run_sweep(parse_config({}), b"/tmp/x"), "out_dir"),
    "minimize-none-objective": (lambda: minimize("powell", MinimizeProblem(None, [0.0])),
                                "objective"),
    "histogram-int-highlight": (lambda: render_histogram({"01": 3}, highlight=5), "highlight"),
    "histogram-int-title": (lambda: render_histogram({"01": 3}, title=5), "title"),
    "parse-bytes": (lambda: parse_edge_list(b"2\n0 1\n"), "text"),
    "circuit-int-op": (lambda: Circuit(2, [1]), "op"),
    "simulate-int-op": (lambda: simulate_ops(2, [1]), "op"),
    "simulate-int-qubits": (lambda: simulate_ops(2, [GateOp("H", 0)]), "qubits"),
    "circuit-none-ops": (lambda: Circuit(2, None), "ops"),
    "circuit-string-ops": (lambda: Circuit(2, "H"), "ops"),
    "params-none": (lambda: QaoaParams(None, None), "betas"),
    "params-none-gammas": (lambda: QaoaParams((0.1,), None), "gammas"),
    "instance-none-edges": (lambda: MaxCutInstance(3, None), "edges"),
    "instance-int-weights": (lambda: MaxCutInstance(2, [(0, 1)], 1.0), "weights"),
    "energy-none-counts": (lambda: energy_from_counts(None, CANONICAL), "counts"),
    "histogram-list-counts": (lambda: render_histogram([("01", 3)]), "counts"),
    # an RZ(2 epsilon) and a kick of 2 * 8.5718 sigma times the makespan must be finite
    "noise-epsilon-overflow": (lambda: NoiseConfig(epsilon_coherent=9e307), "epsilon_coherent"),
    "config-epsilon-overflow": (lambda: parse_config({"mode": "noisy", "noise": {
        "epsilon_coherent": -9e307}}), "noise: epsilon_coherent"),
    "engine-sigma-overflow": (lambda: Engine(CANONICAL, 1, "noisy", shots=8,
                                             noise=NoiseConfig(sigma_dephase=1e307)),
                              r"noise\.sigma_dephase"),
    "sample-noisy-sigma-overflow": (lambda: sample_noisy(CIRCUIT, NoiseConfig(
        sigma_dephase=1e307, twirling=True), 8, 1), r"noise\.sigma_dephase"),
    # a makespan past the float range is refused without a numpy overflow warning
    "sample-noisy-makespan-overflow": (lambda: sample_noisy(LONG_CIRCUIT, NoiseConfig(
        sigma_dephase=1e-300), 8, 1), r"noise\.sigma_dephase"),
    # angles are real: a float conversion would drop an imaginary part or
    # read a string or a bool as a number
    "objective-complex-thetas": (lambda: make_objective(CANONICAL, 1)(np.array([[0.1 + 2j, 0.2]])),
                                 "thetas"),
    # a batch is checked before its rows are counted or scored
    "objective-none-thetas": (lambda: make_objective(CANONICAL, 1)(None), "thetas"),
    "engine-wide-thetas": (lambda: Engine(CANONICAL, 1)(np.zeros((1, 3)), [None]), "thetas"),
    "tallies-wide-thetas": (lambda: Engine(CANONICAL, 1, "sampled", shots=8).tallies(
        np.zeros((1, 3)), [1]), "thetas"),
    "engine-string-thetas": (lambda: Engine(CANONICAL, 1)([["0.1", "0.2"]], [None]), "thetas"),
    "engine-bool-thetas": (lambda: Engine(CANONICAL, 1, "sampled", shots=8).tallies(
        np.array([[True, False]]), [1]), "thetas"),
    "engine-ragged-thetas": (lambda: Engine(CANONICAL, 1)([[0.1, 0.2], [0.3]], [None, None]),
                             "thetas"),
    "engine-flat-thetas": (lambda: Engine(CANONICAL, 1)([0.1, 0.2], [None]), "thetas"),
    "problem-complex-x0": (lambda: MinimizeProblem(Engine(CANONICAL, 1), np.array([0.1 + 1j, 0.2])),
                           "x0"),
    "problem-string-x0": (lambda: MinimizeProblem(Engine(CANONICAL, 1), ["0.1", "0.2"]), "x0"),
    "params-complex-vector": (lambda: QaoaParams.from_vector([0.1 + 1j, 0.2]), "parameter vector"),
    "params-string-vector": (lambda: QaoaParams.from_vector(["0.1", "0.2"]), "parameter vector"),
    # the seeds of a batch are a sequence, one per row
    "engine-int-seeds": (lambda: Engine(CANONICAL, 1, "sampled", shots=8)(THETAS[:1], 5), "seeds"),
    "tallies-none-seeds": (lambda: Engine(CANONICAL, 1, "sampled", shots=8).tallies(THETAS[:1], None),
                           "seeds"),
}


@pytest.fixture
def no_engine_work(monkeypatch):
    def reached(*args, **kwargs):
        raise AssertionError("engine work began before the inputs were checked")

    for module, name in [(objective, "qaoa_probabilities"), (ansatz, "_evolve_half"),
                         (ansatz, "simulate_ops"), (trajectories, "sample")]:
        monkeypatch.setattr(module, name, reached)


@pytest.mark.parametrize("case", list(BAD_INPUTS))
def test_a_bad_input_is_refused_by_name_before_any_work(no_engine_work, case):
    call, field = BAD_INPUTS[case]
    with pytest.raises(ValueError, match=rf"^{field}\b"):
        call()


# -- numpy integers at the entry points ------------------------------------------------


def _artifacts(i):
    config = parse_config({"p": 1, "mode": "sampled", "restarts": 2, "max_evals": 8})
    config = replace(config, p=i(1), shots=i(16), restarts=i(2), max_evals=i(8), seed=i(5))
    with tempfile.TemporaryDirectory() as tmp:
        run_experiment(config, tmp)
        return config.config_hash, {p.name: p.read_bytes() for p in sorted(Path(tmp).iterdir())}


def _minimized(i):
    problem = MinimizeProblem(Engine(CANONICAL, 1, "sampled", shots=8), np.array([0.3, 0.9]),
                              max_evals=i(10), seed=i(3))
    result = minimize("cobyla", problem)
    return result.f_best, result.energies.tolist()


# each call, given integer inputs as ``i(value)``, must give the same result for
# Python and numpy integers
NUMPY_INPUTS = {
    "evaluate-sampled": lambda i: counts_from_tally(
        evaluate_qaoa(CANONICAL, PARAMS, "sampled", shots=i(8), seed=i(1)).tally),
    "evaluate-noisy": lambda i: counts_from_tally(
        evaluate_qaoa(CANONICAL, PARAMS, "noisy", shots=i(8), seed=i(1), noise=NOISE).tally),
    "make-objective": lambda i: make_objective(CANONICAL, i(1), "sampled", shots=i(8),
                                               seed=i(3))(THETAS).tolist(),
    "engine-tallies": lambda i: Engine(CANONICAL, i(1), "noisy", shots=i(8), noise=NOISE).tallies(
        THETAS, [i(5), i(6)]).tolist(),
    "sample-noisy": lambda i: sample_noisy(CIRCUIT, NOISE, i(16), i(3)),
    "sample-counts": lambda i: sample_counts(zero_state(i(3)), i(16), i(3)),
    "run-circuit": lambda i: run_circuit(CIRCUIT, "sampled", shots=i(8), seed=i(2)),
    "twirl": lambda i: twirl_circuit(CIRCUIT, i(3)),
    "trajectory-noise": lambda i: apply_trajectory_noise(CIRCUIT, NOISE, i(2), i(3)),
    "starts": lambda i: [x.tolist() for x in random_qaoa_starts(i(2), i(3), i(7))],
    "instance": lambda i: build_qaoa_circuit(
        MaxCutInstance(i(3), ((i(0), i(1)), (i(1), i(2)))), PARAMS),
    "minimize": _minimized,
    "config-artifacts": _artifacts,
}


@pytest.mark.parametrize("case", list(NUMPY_INPUTS))
def test_a_numpy_integer_acts_as_the_python_int(case):
    call = NUMPY_INPUTS[case]
    assert call(np.int64) == call(int)


def test_a_numpy_node_count_is_kept_as_an_int():
    instance = MaxCutInstance(np.int64(3), ((np.int64(0), np.int64(2)),))
    assert type(instance.n) is int and all(type(u) is int for edge in instance.edges
                                           for u in edge)
    assert instance == MaxCutInstance(3, ((0, 2),))


# -- one definition per rule ---------------------------------------------------------


def test_the_bool_rule_is_written_only_in_the_rules_module():
    # ``isinstance(v, bool)`` is how each copy of the integer and number rules
    # began; a new copy outside _checks fails here
    package = Path(qaoalab.__path__[0])
    found = []
    for path in sorted(package.glob("*.py")):
        if path.name == "_checks.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "isinstance" and len(node.args) == 2
                    and any(isinstance(n, ast.Name) and n.id == "bool"
                            for n in ast.walk(node.args[1]))):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_the_choice_rule_is_written_only_in_the_rules_module():
    package = Path(qaoalab.__path__[0])
    found = [path.name for path in sorted(package.glob("*.py"))
             if path.name != "_checks.py" and "must be one of" in path.read_text(encoding="utf-8")]
    assert found == []


def test_the_file_rule_is_written_only_in_the_rules_module():
    # every file that enters is read by _checks.text_file; a path check or a
    # read of its own elsewhere fails here
    package = Path(qaoalab.__path__[0])
    found = [f"{path.name}:{number}" for path in sorted(package.glob("*.py"))
             if path.name != "_checks.py"
             for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
             if re.search(r"\.exists\(\)|\.is_file\(\)|\bopen\(|read_text", line)]
    assert found == []


def test_the_rules_module_imports_nothing_from_the_package():
    tree = ast.parse((Path(qaoalab.__path__[0]) / "_checks.py").read_text(encoding="utf-8"))
    relative = [node.lineno for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and (node.level or node.module == "qaoalab")]
    assert relative == []
