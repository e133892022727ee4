import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from reconfig_sim import analyzer, harness
from reconfig_sim.analyzer import (
    Arithmetic,
    Attribute,
    Comparison,
    Hint,
    Literal,
    OperatorShape,
    Parameter,
    PredicateSyntaxError,
    PredicateTypeError,
    baseline_order,
    find_common_accelerators,
    generate_hints,
    invocation_dependencies,
    parse_predicate,
    print_predicate,
)
from reconfig_sim.model import Invocation, QuerySpec, Schedule
from reconfig_sim.optimizer import plan_baseline


def _inv(module, text, selectivity, reads=(), produces=()):
    return Invocation(module, parse_predicate(text), selectivity,
                      frozenset(reads), frozenset(produces))


def test_parse_simple_comparison():
    ast = parse_predicate("amount > 100")
    assert ast == Comparison("compare_gt",
                             Attribute("amount", "int32"),
                             Literal(100, "int32"))


def test_parse_arithmetic_and_parameter():
    ast = parse_predicate("price * qty >= ?limit")
    assert ast == Comparison(
        "compare_ge",
        Arithmetic("arith_mul", Attribute("price", "int32"), Attribute("qty", "int32")),
        Parameter("limit", "int32"))


def test_float_literal_types_whole_predicate():
    ast = parse_predicate("temp <= 36.6")
    assert ast.lhs == Attribute("temp", "float")
    assert ast.rhs == Literal(36.6, "float")
    assert parse_predicate("x > 3e2").rhs == Literal(300.0, "float")


def test_int64_by_magnitude():
    assert parse_predicate("id > 2147483647").rhs == Literal(2 ** 31 - 1, "int32")
    big = parse_predicate("id > 2147483648")
    assert big.rhs == Literal(2 ** 31, "int64")
    assert big.lhs == Attribute("id", "int64")


def test_negative_literal():
    assert parse_predicate("delta > -5").rhs == Literal(-5, "int32")
    assert parse_predicate("-2.5 < delta").lhs == Literal(-2.5, "float")


@pytest.mark.parametrize("text, column, expected", [
    ("A > > 3", 5, "an operand"),
    ("A > 3 B", 7, "end of input"),
    ("A + 1", 6, "a comparison operator"),
    ("A > #3", 5, "a token"),
    ("A > ?", 5, "a token"),
    ("", 1, "an operand"),
    ("> 3", 1, "an operand"),
])
def test_syntax_errors_carry_columns(text, column, expected):
    with pytest.raises(PredicateSyntaxError) as excinfo:
        parse_predicate(text)
    assert excinfo.value.column == column
    assert f"syntax error at column {column}" in str(excinfo.value)
    assert expected in str(excinfo.value)


def test_mixed_literal_types_rejected():
    with pytest.raises(PredicateTypeError) as excinfo:
        parse_predicate("A + 1.5 > 2")
    assert excinfo.value.column == 11
    assert "type error at column 11" in str(excinfo.value)
    assert "float and int32" in str(excinfo.value)

    with pytest.raises(PredicateTypeError) as excinfo:
        parse_predicate("A > 2 + 1.5")
    assert excinfo.value.column == 9
    assert "int32 and float" in str(excinfo.value)


@pytest.mark.parametrize("text, column, fragment", [
    ("x > " + "9" * 5000, 5, "integer literal out of int64 range"),
    ("x > 99999999999999999999999999999", 5, "integer literal out of int64 range"),
    ("x > 9223372036854775808", 5, "integer literal out of int64 range"),
    ("-9223372036854775809 < x", 1, "integer literal out of int64 range"),
    ("x > 1e999", 5, "float literal out of range"),
    ("x * 2.5 > " + "9" * 400 + ".0", 11, "float literal out of range"),
    ("x + 1e999 > 9" + "9" * 30, 5, "float literal out of range"),
    ("x + 1.5 > 2 - 1e999", 11, "mixed operand types float and int32"),
], ids=["5000-digits", "29-digits", "int64-max-plus-1", "int64-min-minus-1", "1e999",
        "400-digit-float", "first-of-two", "mixed-before-overflow"])
def test_literals_that_fit_no_operand_type_are_rejected(text, column, fragment):
    with pytest.raises(PredicateTypeError) as excinfo:
        parse_predicate(text)
    assert excinfo.value.column == column
    assert f"type error at column {column}: {fragment}" in str(excinfo.value)


def test_literal_limits_and_leading_zeros():
    assert parse_predicate("x > 9223372036854775807").rhs == Literal(2 ** 63 - 1, "int64")
    assert parse_predicate("x > -9223372036854775808").rhs == Literal(-(2 ** 63), "int64")
    assert parse_predicate("x > " + "0" * 30 + "7").rhs == Literal(7, "int32")
    assert parse_predicate("x > -" + "0" * 30 + "9223372036854775808").rhs == Literal(
        -(2 ** 63), "int64")
    assert parse_predicate("x > 1e-999").rhs == Literal(0.0, "float")


def test_syntax_errors_take_precedence_over_literal_range():
    with pytest.raises(PredicateSyntaxError) as excinfo:
        parse_predicate("x > 1e999 +")
    assert excinfo.value.column == 12
    with pytest.raises(PredicateSyntaxError, match="column 36"):
        parse_predicate("x > " + "9" * 30 + " y")


def test_predicate_without_literals_defaults_to_int32():
    ast = parse_predicate("a < ?p")
    assert ast.lhs == Attribute("a", "int32")
    assert ast.rhs == Parameter("p", "int32")


@pytest.mark.parametrize("text", [
    "amount > 100",
    "price * qty >= ?limit",
    "temp <= 36.6",
    "delta > -5",
    "rev = price * qty",
    "x != 3e2",
    "a + 1 < b - 2",
])
def test_print_parse_round_trip(text):
    ast = parse_predicate(text)
    assert parse_predicate(print_predicate(ast)) == ast


_names = st.text(alphabet="abcdefgh_", min_size=1, max_size=4)
_operands = st.one_of(
    _names.map(lambda n: Attribute(n, "int32")),
    _names.map(lambda n: Parameter(n, "int32")),
    st.integers(min_value=-(2 ** 31), max_value=2 ** 31 - 1).map(
        lambda v: Literal(v, "int32")),
)
_terms = st.one_of(
    _operands,
    st.tuples(st.sampled_from(sorted(analyzer.ARITH_KINDS)), _operands, _operands).map(
        lambda t: Arithmetic(*t)),
)
_predicates = st.tuples(
    st.sampled_from(sorted(analyzer.COMPARE_KINDS)), _terms, _terms,
).map(lambda t: Comparison(*t))


@given(_predicates)
def test_round_trip_holds_for_generated_predicates(ast):
    assert parse_predicate(print_predicate(ast)) == ast


def test_required_shapes_includes_arithmetic():
    assert parse_predicate("rev = price * qty").shapes == (
        OperatorShape("compare_eq", "int32"), OperatorShape("arith_mul", "int32"))
    assert parse_predicate("a + 1.5 < b - 2.5").shapes == (
        OperatorShape("arith_add", "float"), OperatorShape("compare_lt", "float"),
        OperatorShape("arith_sub", "float"))
    assert parse_predicate("?p != 3000000000").shapes == (OperatorShape("compare_ne", "int64"),)


def test_attribute_names():
    assert parse_predicate("price * qty >= ?limit").attributes == ("price", "qty")
    assert parse_predicate("b * a > a").attributes == ("b", "a", "a")
    assert parse_predicate("?p < 3").attributes == ()


def test_operator_shape_rejects_unknown_values():
    with pytest.raises(ValueError):
        OperatorShape("bogus", "int32")
    with pytest.raises(ValueError):
        OperatorShape("compare_gt", "int8")


# ---------------------------------------------------------------------------
# reuse, hints, ordering

def test_find_common_accelerators(seq2):
    assert find_common_accelerators(seq2) == {("Q0", "Q1"): frozenset({"accA"})}


def test_generate_hints_from_baseline(seq2):
    reuse = find_common_accelerators(seq2)
    assert generate_hints(seq2, reuse, plan_baseline(seq2)) == (
        Hint("accA", frozenset({"accA"}), 2.0),)


def test_generate_hints_follows_given_schedule():
    s = harness.load_bundled("corpus/q13")
    reuse = find_common_accelerators(s)
    default_hints = generate_hints(s, reuse, plan_baseline(s))
    assert default_hints[1].next_first_module == "k1"

    orders = tuple(tuple(range(len(q.invocations))) for q in s.sequence)
    orders = orders[:2] + ((1, 0),) + orders[3:]
    swapped = Schedule(orders, (None,) * 4)
    assert generate_hints(s, reuse, swapped)[1].next_first_module == "k2"


def test_invocation_dependencies(corpus):
    scenarios = dict(corpus)
    q0 = scenarios["corpus/q04"].sequence[0]
    assert invocation_dependencies(q0) == (frozenset(), frozenset({0}))


def test_baseline_order_sorts_by_selectivity():
    q = QuerySpec("q", "t", (
        _inv("m", "a > 1", 0.8, reads=("a",)),
        _inv("m", "b > 2", 0.5, reads=("b",)),
    ))
    assert baseline_order(q) == (1, 0)


def test_baseline_order_keeps_producer_first(corpus):
    scenarios = dict(corpus)
    q0 = scenarios["corpus/q04"].sequence[0]
    selectivities = [inv.selectivity for inv in q0.invocations]
    assert selectivities == [1.0, 0.2]
    assert baseline_order(q0) == (0, 1)


def test_baseline_order_is_stable_on_ties():
    q = QuerySpec("q", "t", (
        _inv("m", "a > 1", 0.5, reads=("a",)),
        _inv("m", "b > 2", 0.5, reads=("b",)),
        _inv("m", "c > 3", 0.2, reads=("c",)),
    ))
    assert baseline_order(q) == (2, 0, 1)


def test_baseline_order_rejects_cycles():
    q = QuerySpec("q", "t", (
        _inv("m", "a > 1", 0.5, reads=("y",), produces=("x",)),
        _inv("m", "a > 2", 0.5, reads=("x",), produces=("y",)),
    ))
    assert q.dependencies == ((1, 0), (0, 1))
    with pytest.raises(ValueError, match="cyclic"):
        baseline_order(q)


def _reference_baseline_order(q):
    """baseline_order as it was before it read the stored dependency pairs:
    the per-reader producer sets from invocation_dependencies."""
    deps = invocation_dependencies(q)
    placed, order = set(), []
    while len(order) < len(q.invocations):
        ready = [k for k in range(len(q.invocations)) if k not in placed and deps[k] <= placed]
        best = min(ready, key=lambda k: (q.invocations[k].selectivity, k))
        order.append(best)
        placed.add(best)
    return tuple(order)


def test_baseline_order_reads_the_stored_dependency_pairs(corpus, chained_scenario, monkeypatch):
    rng = random.Random(23)
    queries = [q for _, s in corpus for q in s.sequence]
    queries += [q for _ in range(80) for q in chained_scenario(rng, rng.randint(1, 4)).sequence]
    queries.append(QuerySpec("tie", "t", (  # all tied: the producer goes before its reader
        _inv("m", "a > 1", 0.5, reads=("a",)),
        _inv("m", "d > 1", 0.5, reads=("d",)),
        _inv("m", "a > 2", 0.5, reads=("a",), produces=("d",)),
    )))
    assert sum(1 for q in queries if q.dependencies) > 100
    expected = [_reference_baseline_order(q) for q in queries]
    assert expected[-1] == (0, 2, 1)
    derived = []
    original = analyzer.invocation_dependencies
    monkeypatch.setattr(analyzer, "invocation_dependencies",
                        lambda q: derived.append(q.id) or original(q))
    assert [baseline_order(q) for q in queries] == expected
    assert derived == []


def test_hints_are_sound_over_all_bundled_scenarios(corpus):
    for _, s in corpus:
        reuse = find_common_accelerators(s)
        hints = generate_hints(s, reuse, plan_baseline(s))
        assert len(hints) == len(s.sequence) - 1
        for i, hint in enumerate(hints):
            left, right = s.sequence[i], s.sequence[i + 1]
            first = right.invocations[baseline_order(right)[0]].accelerator_id
            assert hint.next_first_module == first
            left_modules = {inv.accelerator_id for inv in left.invocations}
            right_modules = {inv.accelerator_id for inv in right.invocations}
            assert hint.reusable_modules == left_modules & right_modules
            assert hint.expected_gap_ms == left.gap_after_ms
