"""Graph representation, cut evaluation, and the brute-force oracle."""

import itertools
import re

import numpy as np
import pytest

from qaoalab.graph import (
    ENUMERATION_LIMIT,
    CapacityError,
    MaxCutInstance,
    ParseError,
    brute_force_maxcut,
    canonical_instance,
    cut_levels,
    cut_value,
    cut_value_table,
    parse_edge_list,
    serialize_edge_list,
)


def complement(bits: str) -> str:
    return bits.translate(str.maketrans("01", "10"))


def random_instance(gen) -> MaxCutInstance:
    n = int(gen.integers(2, 11))
    pairs = list(itertools.combinations(range(n), 2))
    gen.shuffle(pairs)
    m = int(gen.integers(1, len(pairs) + 1))
    weights = tuple(float(w) for w in gen.uniform(0.1, 3.0, size=m))
    return MaxCutInstance(n=n, edges=tuple(pairs[:m]), weights=weights)


# -- canonical benchmark instance -------------------------------------------


def test_canonical_shape(canonical):
    assert canonical.n == 5
    assert len(canonical.edges) == 6
    assert (0, 3) in canonical.edges
    assert canonical.weights == (1.0,) * 6
    assert sum(canonical.weights) == 6.0


def test_cut_value_examples(canonical):
    assert cut_value(canonical, "00011") == 6.0
    assert cut_value(canonical, "00000") == 0.0
    assert cut_value(canonical, "00001") == 3.0


def test_brute_force_canonical(canonical):
    assert brute_force_maxcut(canonical) == (6.0, {"00011", "11100"})


def test_brute_force_single_edge():
    instance = MaxCutInstance(n=2, edges=((0, 1),))
    assert brute_force_maxcut(instance) == (1.0, {"01", "10"})


def test_brute_force_edgeless_ties_everywhere():
    instance = MaxCutInstance(n=3, edges=())
    best, optima = brute_force_maxcut(instance)
    assert best == 0.0
    assert optima == {format(i, "03b") for i in range(8)}


# -- construction and validation ---------------------------------------------


def test_edges_normalized_and_deduplicated():
    instance = MaxCutInstance(n=3, edges=((2, 0), (1, 2)))
    assert instance.edges == ((0, 2), (1, 2))


def test_duplicate_edge_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        MaxCutInstance(n=3, edges=((0, 1), (1, 0)))


def test_self_loop_rejected():
    with pytest.raises(ValueError, match="self-loop"):
        MaxCutInstance(n=3, edges=((1, 1),))


def test_out_of_range_node_rejected():
    with pytest.raises(ValueError, match="outside"):
        MaxCutInstance(n=2, edges=((0, 2),))


def test_weight_count_must_match():
    with pytest.raises(ValueError, match="weights"):
        MaxCutInstance(n=3, edges=((0, 1), (1, 2)), weights=(1.0,))


def test_assignment_must_fit(canonical):
    for assignment in ["0001", "0001x", "000111", "", "00 11", 11, b"00011", ["0", "0", "0", "1", "1"]]:
        with pytest.raises(ValueError, match=rf"^assignment must be a 5-character bitstring of "
                                             rf"0 and 1, got {re.escape(repr(assignment))}$"):
            cut_value(canonical, assignment)


def test_weights_whose_cut_sums_overflow_are_refused():
    # each weight alone is finite, their absolute values sum past the float range
    for weights in [(1e308, 1e308), (1e308, -1e308), (1.7976931348623157e308, 1e300)]:
        with pytest.raises(ValueError, match=r"^weights must have a finite total \|weight\|"):
            MaxCutInstance(3, ((0, 1), (0, 2)), weights)
    with pytest.raises(ValueError, match=r"^weights must have a finite total \|weight\|"):
        parse_edge_list("3\n0 1 1e308\n0 2 1e308\n")
    # up to the float range a cut table is finite
    for instance in [MaxCutInstance(2, ((0, 1),), (1.7976931348623157e308,)),
                     MaxCutInstance(3, ((0, 1), (0, 2)), (8e307, 8e307))]:
        assert np.isfinite(cut_value_table(instance)).all()


def test_enumeration_capacity_guard():
    instance = MaxCutInstance(
        n=ENUMERATION_LIMIT + 1, edges=((0, 1),)
    )
    with pytest.raises(CapacityError):
        brute_force_maxcut(instance)


def test_cut_value_table_cached_and_readonly(canonical):
    table = cut_value_table(canonical)
    assert table is cut_value_table(canonical)
    assert not table.flags.writeable
    assert table[0b00011] == 6.0


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("integer_weights", [True, False])
def test_gathered_phase_is_bit_identical(seed, integer_weights):
    # the exact engine's cost phase: exp at the distinct levels, gathered over the basis
    gen = np.random.default_rng(seed)
    instance = random_instance(gen)
    if integer_weights:
        weights = tuple(float(w) for w in gen.integers(1, 4, size=len(instance.edges)))
        instance = MaxCutInstance(instance.n, instance.edges, weights)
    table = cut_value_table(instance)
    levels, index = cut_levels(instance)
    assert not levels.flags.writeable and not index.flags.writeable
    assert np.array_equal(levels[index], table)
    assert np.array_equal(levels, np.unique(table))
    for gamma in (*gen.uniform(-7.0, 7.0, size=8), 0.0, -0.0, 1e-300, 1e6):
        gathered = np.exp(2j * gamma * levels)[index]
        direct = np.exp(2j * gamma * table)
        assert gathered.tobytes() == direct.tobytes()


# -- edge-list text format ----------------------------------------------------


def test_parse_canonical_text(canonical):
    text = "5\n0 3\n0 4\n1 3\n1 4\n2 3\n2 4\n"
    assert parse_edge_list(text) == canonical


def test_parse_single_edge():
    assert parse_edge_list("2\n0 1\n") == MaxCutInstance(n=2, edges=((0, 1),))


def test_parse_rejects_out_of_range_with_line_number():
    with pytest.raises(ParseError) as err:
        parse_edge_list("2\n0 2\n")
    assert err.value.line_no == 2


def test_parse_comments_blanks_and_weights():
    text = "# graph\n3\n\n0 1 2.5  # heavy\n1 2\n"
    instance = parse_edge_list(text)
    assert instance.n == 3
    assert instance.weights == (2.5, 1.0)


def test_parse_error_cases():
    for text, line_no in [
        ("", 1),
        ("zero\n", 1),
        ("3\n0\n", 2),
        ("3\n0 1 2 3\n", 2),
        ("3\n0 x\n", 2),
        ("3\n0 1 inf\n", 2),
        ("3\n1 1\n", 2),
        ("3\n0 1\n0 1\n", 3),
    ]:
        with pytest.raises(ParseError) as err:
            parse_edge_list(text)
        assert err.value.line_no == line_no


@pytest.mark.parametrize("text, message", [
    ("3 4\n", "line 1: expected a single node count, got '3 4'"),
    ("0\n", "line 1: node count must be positive, got 0"),
    ("3\n0 1 x\n", "line 2: weight 'x' is not a number"),
])
def test_parse_refusals_name_the_line_and_the_rule(text, message):
    with pytest.raises(ParseError) as err:
        parse_edge_list(text)
    assert str(err.value) == message


def test_serialize_round_trip():
    gen = np.random.default_rng(3)
    for _ in range(20):
        instance = random_instance(gen)
        assert parse_edge_list(serialize_edge_list(instance)) == instance


def test_serialize_omits_unit_weights(canonical):
    assert serialize_edge_list(canonical) == "5\n0 3\n0 4\n1 3\n1 4\n2 3\n2 4\n"


# -- properties ----------------------------------------------------------------


def test_complement_symmetry():
    gen = np.random.default_rng(7)
    for _ in range(20):
        instance = random_instance(gen)
        bits = "".join(gen.choice(["0", "1"], size=instance.n))
        assert cut_value(instance, bits) == pytest.approx(
            cut_value(instance, complement(bits)), abs=1e-12
        )


def test_optima_closed_under_complement():
    gen = np.random.default_rng(11)
    for _ in range(10):
        _, optima = brute_force_maxcut(random_instance(gen))
        assert {complement(b) for b in optima} == optima


def test_cut_bounded_by_total_weight():
    gen = np.random.default_rng(13)
    for _ in range(20):
        instance = random_instance(gen)
        table = cut_value_table(instance)
        assert table.min() >= 0.0
        assert table.max() <= sum(instance.weights) + 1e-12


def test_brute_force_matches_direct_enumeration():
    gen = np.random.default_rng(17)
    for _ in range(5):
        instance = random_instance(gen)
        best, optima = brute_force_maxcut(instance)
        values = {
            format(i, f"0{instance.n}b"): cut_value(instance, format(i, f"0{instance.n}b"))
            for i in range(2**instance.n)
        }
        direct_best = max(values.values())
        assert best == pytest.approx(direct_best, abs=1e-12)
        assert optima == {b for b, v in values.items() if v == direct_best}


@pytest.mark.parametrize(
    "n,edges,needle",
    [
        (True, (), "node count"),
        (3, ((True, 2),), "endpoint True"),
        (3, ((0, False),), "endpoint False"),
        (3, ((0.0, 2),), "endpoint 0.0"),
    ],
)
def test_non_integer_nodes_rejected(n, edges, needle):
    with pytest.raises(ValueError, match=needle):
        MaxCutInstance(n=n, edges=edges)


@pytest.mark.parametrize("weight", [float("nan"), float("inf"), float("-inf"), 10**400])
def test_non_finite_weight_rejected(weight):
    with pytest.raises(ValueError, match=r"^weight of edge \(0, 2\) must be a finite number, got "):
        MaxCutInstance(n=3, edges=((0, 1), (2, 0)), weights=(1.0, weight))


@pytest.mark.parametrize("weight", [True, np.bool_(False), "2.5", None])
def test_non_number_weight_rejected(weight):
    with pytest.raises(ValueError, match=r"^weight of edge \(0, 2\) must be a finite number, got "):
        MaxCutInstance(n=3, edges=((0, 1), (2, 0)), weights=(1.0, weight))


def test_integer_and_numpy_weights_become_floats():
    instance = MaxCutInstance(n=3, edges=((0, 1), (1, 2)), weights=(2, np.float32(0.5)))
    assert instance.weights == (2.0, 0.5)
    assert all(type(w) is float for w in instance.weights)
