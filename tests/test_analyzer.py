import json
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from reconfig_sim import analyzer, harness
from reconfig_sim.analyzer import (
    OperatorShape,
    PredicateError,
    PredicateSyntaxError,
    PredicateTypeError,
    baseline_order,
    find_common_accelerators,
    generate_hints,
    parse_predicate,
)
from reconfig_sim.model import Invocation, QuerySpec, Schedule, identity_schedule
from reconfig_sim.optimizer import apply_reorder, candidate_schedules, plan_baseline

from conftest import make_chained_scenario, make_random_scenario, spread_over_modules


def _inv(module, text, selectivity, reads=(), produces=()):
    return Invocation(module, text, selectivity, frozenset(reads), frozenset(produces))


def _shapes(operand_type, *kinds):
    return tuple(OperatorShape(kind, operand_type) for kind in kinds)


def test_parse_simple_comparison():
    assert parse_predicate("amount > 100") == (_shapes("int32", "compare_gt"), ("amount",))


def test_parse_arithmetic_and_parameter():
    assert parse_predicate("price * qty >= ?limit") == (
        _shapes("int32", "arith_mul", "compare_ge"), ("price", "qty"))


def test_float_literal_types_whole_predicate():
    assert parse_predicate("temp <= 36.6") == (_shapes("float", "compare_le"), ("temp",))
    assert parse_predicate("x > 3e2") == (_shapes("float", "compare_gt"), ("x",))


def test_int64_by_magnitude():
    assert parse_predicate("id > 2147483647") == (_shapes("int32", "compare_gt"), ("id",))
    assert parse_predicate("id > 2147483648") == (_shapes("int64", "compare_gt"), ("id",))


def test_negative_literal():
    assert parse_predicate("delta > -5") == (_shapes("int32", "compare_gt"), ("delta",))
    assert parse_predicate("-2.5 < delta") == (_shapes("float", "compare_lt"), ("delta",))
    # a sign apart from its number still negates it: 2**63 alone is out of int64
    assert parse_predicate("- 3 > a") == (_shapes("int32", "compare_gt"), ("a",))
    assert parse_predicate("- 9223372036854775808 > a") == (_shapes("int64", "compare_gt"), ("a",))


@pytest.mark.parametrize("text, column, expected", [
    ("A > > 3", 5, "an operand"),
    ("A > 3 B", 7, "end of input"),
    ("A + 1", 6, "a comparison operator"),
    ("A > #3", 5, "a token"),
    ("A > ?", 5, "a token"),
    ("", 1, "an operand"),
    ("> 3", 1, "an operand"),
    # at most one arithmetic operator per side
    ("a + b + c > 1", 7, "a comparison operator"),
    ("a > b + c + 1", 11, "end of input"),
    # only a number can be negated
    ("a > -b", 5, "an operand"),
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
    ("- 1e999 > a", 1, "float literal out of range"),
    ("x > 1e999", 5, "float literal out of range"),
    ("x * 2.5 > " + "9" * 400 + ".0", 11, "float literal out of range"),
    ("x + 1e999 > 9" + "9" * 30, 5, "float literal out of range"),
    ("x + 1.5 > 2 - 1e999", 11, "mixed operand types float and int32"),
], ids=["5000-digits", "29-digits", "int64-max-plus-1", "int64-min-minus-1", "spaced-sign",
        "1e999", "400-digit-float", "first-of-two", "mixed-before-overflow"])
def test_literals_that_fit_no_operand_type_are_rejected(text, column, fragment):
    with pytest.raises(PredicateTypeError) as excinfo:
        parse_predicate(text)
    assert excinfo.value.column == column
    assert f"type error at column {column}: {fragment}" in str(excinfo.value)


def test_literal_limits_and_leading_zeros():
    int64 = _shapes("int64", "compare_gt")
    assert parse_predicate("x > 9223372036854775807")[0] == int64
    assert parse_predicate("x > -9223372036854775808")[0] == int64
    assert parse_predicate("x > " + "0" * 30 + "7")[0] == _shapes("int32", "compare_gt")
    assert parse_predicate("x > -" + "0" * 30 + "9223372036854775808")[0] == int64
    assert parse_predicate("x > 1e-999")[0] == _shapes("float", "compare_gt")


def test_syntax_errors_take_precedence_over_literal_range():
    with pytest.raises(PredicateSyntaxError) as excinfo:
        parse_predicate("x > 1e999 +")
    assert excinfo.value.column == 12
    with pytest.raises(PredicateSyntaxError, match="column 36"):
        parse_predicate("x > " + "9" * 30 + " y")


def test_predicate_without_literals_defaults_to_int32():
    assert parse_predicate("a < ?p") == (_shapes("int32", "compare_lt"), ("a",))


def _print_predicate(text, separator):
    """The predicate's tokens, in order, joined by `separator`."""
    return separator.join(token for _, token, _ in analyzer._tokenize(text)[:-1])


def _assert_round_trip(text):
    facts = parse_predicate(text)
    for separator in (" ", ""):
        printed = _print_predicate(text, separator)
        assert parse_predicate(printed) == facts
        assert _print_predicate(printed, separator) == printed


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
    _assert_round_trip(text)


_CMP_SYMBOLS = {"compare_lt": "<", "compare_le": "<=", "compare_eq": "=",
                "compare_ne": "!=", "compare_ge": ">=", "compare_gt": ">"}
_ARITH_SYMBOLS = {"arith_add": "+", "arith_sub": "-", "arith_mul": "*"}
_LITERALS = {
    "int32": st.integers(-(2 ** 31), 2 ** 31 - 1).map(str),
    "int64": st.one_of(st.integers(-(2 ** 63), -(2 ** 31) - 1),
                       st.integers(2 ** 31, 2 ** 63 - 1)).map(str),
    "float": st.floats(allow_nan=False, allow_infinity=False).map(repr),
}
_identifiers = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,5}", fullmatch=True)


@st.composite
def _predicate_texts(draw):
    """A predicate text as a token list, with the shapes and attributes it
    must parse to; the literals' type decides the operand type."""
    literal_type = draw(st.sampled_from(sorted(_LITERALS)))
    tokens, kinds, attributes, typed = [], [], [], False

    def operand():
        nonlocal typed
        form = draw(st.sampled_from(("attribute", "parameter", "literal")))
        if form == "literal":
            typed = True
            tokens.append(draw(_LITERALS[literal_type]))
            return
        name = draw(_identifiers)
        if form == "attribute":
            attributes.append(name)
        tokens.append(name if form == "attribute" else "?" + name)

    def term():
        operand()
        if draw(st.booleans()):
            kind = draw(st.sampled_from(sorted(_ARITH_SYMBOLS)))
            kinds.append(kind)
            tokens.append(_ARITH_SYMBOLS[kind])
            operand()

    term()
    kind = draw(st.sampled_from(sorted(_CMP_SYMBOLS)))
    kinds.append(kind)
    tokens.append(_CMP_SYMBOLS[kind])
    term()
    spaces = st.text(alphabet=" \t\n\r", max_size=3)
    text = draw(spaces) + "".join(token + draw(spaces) for token in tokens)
    return text, _shapes(literal_type if typed else "int32", *kinds), tuple(attributes)


@given(_predicate_texts())
def test_generated_predicate_texts_give_their_shapes_and_attributes(case):
    text, shapes, attributes = case
    assert parse_predicate(text) == (shapes, attributes)


@given(_predicate_texts())
def test_round_trip_holds_for_generated_predicates(case):
    _assert_round_trip(case[0])


def test_required_shapes_includes_arithmetic():
    assert parse_predicate("rev = price * qty")[0] == (
        OperatorShape("compare_eq", "int32"), OperatorShape("arith_mul", "int32"))
    assert parse_predicate("a + 1.5 < b - 2.5")[0] == (
        OperatorShape("arith_add", "float"), OperatorShape("compare_lt", "float"),
        OperatorShape("arith_sub", "float"))
    assert parse_predicate("?p != 3000000000")[0] == (OperatorShape("compare_ne", "int64"),)


def test_attribute_names():
    assert parse_predicate("price * qty >= ?limit")[1] == ("price", "qty")
    assert parse_predicate("b * a > a")[1] == ("b", "a", "a")
    assert parse_predicate("?p < 3")[1] == ()


def test_operator_shape_rejects_unknown_values():
    with pytest.raises(ValueError):
        OperatorShape("bogus", "int32")
    with pytest.raises(ValueError):
        OperatorShape("compare_gt", "int8")


# ---------------------------------------------------------------------------
# the common-shape parse against the grammar

def _outcome(parse, text):
    """parse(text), or the type, message and column of its PredicateError."""
    try:
        return parse(text)
    except PredicateError as exc:
        return type(exc), str(exc), exc.column


def _assert_common_parse_agrees(texts):
    """parse_predicate gives what _parse_grammar gives, result or error, and
    _parse_common, where it answers, gives the grammar's result; returns how
    many texts _parse_common answered."""
    answered = 0
    for text in texts:
        expected = _outcome(analyzer._parse_grammar, text)
        assert _outcome(parse_predicate, text) == expected, text
        common = analyzer._parse_common(text)
        if common is not None:
            answered += 1
            assert common == expected, text
    return answered


def _generator_predicates(rng):
    """Predicates in the shapes perfbench/gen.py writes: a column against an
    integer, a one-decimal float or a parameter, a product against a
    parameter, a sum against a column, and a derived column's definition."""
    cmp = rng.choice(("<", "<=", "=", "!=", ">=", ">"))
    a, b = rng.sample([f"c{i}" for i in range(8)], 2)
    return rng.choice((
        f"{a} {cmp} {rng.randrange(1000)}",
        f"{a} {cmp} {rng.randrange(1000)}.{rng.randrange(10)}",
        f"{a} {cmp} ?p{rng.randrange(4)}",
        f"{a} * {b} {cmp} ?limit",
        f"{a} + {rng.randrange(1, 50)} {cmp} {b}",
        f"d{rng.randrange(4)} = {a} * {b}",
        f"d{rng.randrange(4)} > {rng.randrange(1000)}",
    ))


def test_generator_and_corpus_predicates_take_the_common_parse():
    rng = random.Random(2500)
    generated = [_generator_predicates(rng) for _ in range(3000)]
    assert _assert_common_parse_agrees(generated) == len(generated)
    corpus = [inv["predicate"] for name in harness.bundled_names()
              for q in json.loads(harness.bundled_text(name))["sequence"]
              for inv in q["invocations"]]
    # all but the corpus's int64 literals, which are left to the grammar
    assert len(corpus) - 3 == _assert_common_parse_agrees(corpus) > 50


_FUZZ_OPERANDS = (
    "a", "col", "_x1", "e5", "E", "é", "aé", "ß", "x٣", "?p", "?lim_1", "?", "?é", "?1", "??p",
    "0", "7", "42", "123456789", "999999999", "1234567890", "9999999999", "0000000001",
    "0" * 30 + "7", "2147483647", "2147483648", "-2147483648", "-2147483649",
    "9223372036854775807", "9223372036854775808", "-9223372036854775808",
    "-9223372036854775809", "1.5", "36.6", "0.0", "-2.5", "1e5", "1E-3", "2.5e+3", "3e2",
    "1e999", "1e-999", "9" * 298 + ".5", "9" * 299 + ".5", "9" * 309 + ".5", "9" * 400 + ".0",
    "1.", ".5", "1.2.3", "1_000", "0x10", "٣", "²", "٣.٥", "1.٥",
)
# operands of the common shape, 10-digit integers among them
_FUZZ_COMMON = ("a", "col", "_x1", "e5", "?p", "?lim_1", "0", "7", "42", "999999999",
                "2147483648", "9999999999", "1.5", "36.6", "0.0", "9" * 298 + ".5")
_FUZZ_CMP = ("<", "<=", "=", "!=", ">=", ">")
_FUZZ_ARITH = ("+", "-", "*")
_FUZZ_OPERATORS = _FUZZ_CMP + _FUZZ_ARITH + ("==", "=>", "<>", "/", "#")
_FUZZ_SEPARATORS = (" ", " ", " ", "  ", "", "\t", "\n", "\r\n", "\xa0", "\u3000")


def _fuzz_predicate(rng):
    """A text of operands and operators: half of them near the common shape
    (3, 5 or 7 chunks alternating operand and operator, one in five drawn
    from anything), the rest any sequence of 1 to 8 of them; tokens are
    mostly one space apart."""
    if rng.random() < 0.5:
        n = rng.choice((3, 5, 7))
        cmp_at = 1 if n == 3 or n == 5 and rng.random() < 0.5 else 3
        tokens = [rng.choice(_FUZZ_OPERANDS + _FUZZ_OPERATORS if rng.random() < 0.2
                             else _FUZZ_COMMON if i % 2 == 0
                             else _FUZZ_CMP if i == cmp_at else _FUZZ_ARITH)
                  for i in range(n)]
    else:
        tokens = [rng.choice(rng.choice((_FUZZ_OPERANDS, _FUZZ_OPERATORS)))
                  for _ in range(rng.randint(1, 8))]
    text = rng.choice(_FUZZ_SEPARATORS) if rng.random() < 0.1 else ""
    for token in tokens:
        text += token + (" " if rng.random() < 0.8 else rng.choice(_FUZZ_SEPARATORS))
    return text.rstrip(" ") if rng.random() < 0.5 else text


def test_common_parse_agrees_with_the_grammar_on_fuzzed_text():
    rng = random.Random(25)
    texts = [_fuzz_predicate(rng) for _ in range(100_000)]
    answered = _assert_common_parse_agrees(texts)
    # both answers and deferrals are exercised
    assert 5_000 < answered < 95_000


# ---------------------------------------------------------------------------
# reuse, hints, ordering

def test_find_common_accelerators(seq2):
    assert find_common_accelerators(seq2) == (frozenset({"accA"}),)


def test_generate_hints_from_baseline(seq2):
    assert generate_hints(seq2, plan_baseline(seq2)) == [
        {"after_query": "Q0", "next_query": "Q1", "next_first_module": "accA",
         "reusable_modules": ["accA"], "expected_gap_ms": 2.0}]


def _common_accelerators_by_pair(s):
    """find_common_accelerators' former definition, pair by pair."""
    return tuple(frozenset({inv.accelerator_id for inv in left.invocations}
                           & {inv.accelerator_id for inv in right.invocations})
                 for left, right in zip(s.sequence, s.sequence[1:]))


def _hints_by_pair(s, schedule):
    """generate_hints' former definition, indexing each pair's order and set."""
    reuse = _common_accelerators_by_pair(s)
    return [{"after_query": left.id,
             "next_query": right.id,
             "next_first_module": right.invocations[schedule.orders[i + 1][0]].accelerator_id,
             "reusable_modules": sorted(reuse[i]),
             "expected_gap_ms": left.gap_after_ms}
            for i, (left, right) in enumerate(zip(s.sequence, s.sequence[1:]))]


def test_hints_and_common_accelerators_equal_the_pair_by_pair_reference(corpus):
    """find_common_accelerators intersects each query's module ids with the
    next one's, and generate_hints zips the pairs with the successors'
    orders and those sets; both must equal the pair-by-pair reference on the
    corpus and on 60 seeded random and chained scenarios, one-query ones
    (no pairs) among them, under every candidate schedule."""
    scenarios = [s for _, s in corpus]
    for seed in range(60):
        rng = random.Random(90_000 + seed)
        n = 1 if seed % 5 == 0 else rng.randint(2, 6)
        if seed % 2:
            scenarios.append(make_random_scenario(rng, n))
        else:
            scenarios.append(spread_over_modules(make_chained_scenario(rng, n), rng, 3))
    lengths, reused = set(), 0
    for s in scenarios:
        common = find_common_accelerators(s)
        assert common == _common_accelerators_by_pair(s)
        assert all(type(modules) is frozenset for modules in common)
        lengths.add(len(s.sequence))
        reused += sum(map(bool, common))
        for name, schedule in candidate_schedules(s).items():
            assert generate_hints(s, schedule) == _hints_by_pair(s, schedule), (s, name)
    assert {1, 2, 6} <= lengths and reused > 50


def test_generate_hints_follows_given_schedule():
    s = harness.load_bundled("corpus/q13")
    default_hints = generate_hints(s, plan_baseline(s))
    assert default_hints[1]["next_first_module"] == "k1"

    orders = tuple(tuple(range(len(q.invocations))) for q in s.sequence)
    orders = orders[:2] + ((1, 0),) + orders[3:]
    swapped = Schedule(orders, (None,) * 4)
    assert generate_hints(s, swapped)[1]["next_first_module"] == "k2"


def test_invocation_dependencies(corpus):
    scenarios = dict(corpus)
    q0 = scenarios["corpus/q04"].sequence[0]
    assert q0.dependencies == ((0, 1),)


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


def _reference_baseline_order(q):
    """baseline_order as it was before it read the stored dependency pairs:
    per-reader producer sets derived from produces and reads."""
    producers = {attr: j for j, inv in enumerate(q.invocations) for attr in inv.produces}
    deps = [{producers[a] for a in inv.reads if a in producers and producers[a] != k}
            for k, inv in enumerate(q.invocations)]
    placed, order = set(), []
    while len(order) < len(q.invocations):
        ready = [k for k in range(len(q.invocations)) if k not in placed and deps[k] <= placed]
        best = min(ready, key=lambda k: (q.invocations[k].selectivity, k))
        order.append(best)
        placed.add(best)
    return tuple(order)


def test_baseline_order_reads_the_stored_dependency_pairs(corpus, chained_scenario):
    rng = random.Random(23)
    queries = [q for _, s in corpus for q in s.sequence]
    queries += [q for _ in range(80) for q in chained_scenario(rng, rng.randint(1, 4)).sequence]
    # the reader is the most selective, yet its producer goes before it
    queries.append(QuerySpec("pinned", "t", (
        _inv("m", "a > 2", 0.9, reads=("a",), produces=("d",)),
        _inv("m", "d > 1", 0.1, reads=("d",)),
        _inv("m", "a > 1", 0.5, reads=("a",)),
    )))
    assert sum(1 for q in queries if q.dependencies) > 100
    expected = [_reference_baseline_order(q) for q in queries]
    assert expected[-1] == (2, 0, 1)
    assert [baseline_order(q) for q in queries] == expected
    # the order follows the stored pairs, not the produces and reads sets
    pinned = queries[-1]
    object.__setattr__(pinned, "dependencies", ())
    assert baseline_order(pinned) == (1, 2, 0)


def _reference_apply_reorder(s, base):
    """optimizer.apply_reorder as it was before it walked each order once:
    the scheduled modules listed, then the target checked against them."""
    orders = list(base.orders)
    for i in reversed(range(len(s.sequence) - 1)):
        successor = s.sequence[i + 1]
        target = successor.invocations[orders[i + 1][0]].accelerator_id
        q = s.sequence[i]
        order = orders[i]
        scheduled_modules = [q.invocations[idx].accelerator_id for idx in order]
        if target not in scheduled_modules or scheduled_modules[-1] == target:
            continue
        for position in reversed([p for p, m in enumerate(scheduled_modules) if m == target]):
            idx = order[position]
            if any(producer == idx for producer, _ in q.dependencies):
                continue
            orders[i] = order[:position] + order[position + 1:] + (idx,)
            break
    return Schedule(tuple(orders), base.prefetches)


def _passed_over_producers(s, base, reordered):
    """The pairs whose left query does not end on its target module while a
    producer runs that module: apply_reorder must pass over that match."""
    count = 0
    for i, (q, order) in enumerate(zip(s.sequence, base.orders[:-1])):
        target = s.sequence[i + 1].invocations[reordered.orders[i + 1][0]].accelerator_id
        producers = {producer for producer, _ in q.dependencies}
        modules = [q.invocations[idx].accelerator_id for idx in order]
        count += modules[-1] != target and any(
            module == target and idx in producers for idx, module in zip(order, modules))
    return count


def test_apply_reorder_matches_the_reference(corpus):
    rng = random.Random(29)
    scenarios = [s for _, s in corpus]
    scenarios += [make_random_scenario(rng, rng.randint(1, 6)) for _ in range(150)]
    scenarios += [spread_over_modules(make_chained_scenario(rng, rng.randint(2, 5)), rng, 2)
                  for _ in range(150)]
    moved = passed_over = 0
    for s in scenarios:
        for base in (plan_baseline(s), identity_schedule(s)):
            expected = _reference_apply_reorder(s, base)
            assert apply_reorder(s, base) == expected
            moved += expected != base
            passed_over += _passed_over_producers(s, base, expected)
    assert moved > 200 and passed_over > 100


def test_hints_are_sound_over_all_bundled_scenarios(corpus):
    for _, s in corpus:
        hints = generate_hints(s, plan_baseline(s))
        assert len(hints) == len(s.sequence) - 1
        for i, hint in enumerate(hints):
            left, right = s.sequence[i], s.sequence[i + 1]
            assert (hint["after_query"], hint["next_query"]) == (left.id, right.id)
            first = right.invocations[baseline_order(right)[0]].accelerator_id
            assert hint["next_first_module"] == first
            left_modules = {inv.accelerator_id for inv in left.invocations}
            right_modules = {inv.accelerator_id for inv in right.invocations}
            assert hint["reusable_modules"] == sorted(left_modules & right_modules)
            assert hint["expected_gap_ms"] == left.gap_after_ms
