"""Predicate parsing, invocation ordering, and cross-query accelerator reuse.

Scenario predicates are single comparisons over table attributes, literals,
named parameters, and at most one binary arithmetic term per side:

    predicate := term CMP term            CMP   is one of  <  <=  =  !=  >=  >
    term      := operand (ARITH operand)?  ARITH is one of  +  -  *
    operand   := IDENT | NUMBER | '?' IDENT | '-' NUMBER

Every operand in one predicate shares a single operand type.  Literals fix
it (a decimal point or exponent means float, otherwise int32 or int64 by
magnitude), attributes and parameters adopt it, and a predicate without any
literal defaults to int32.  Two literals of different types in the same
predicate are a type error; there is no implicit coercion.  A literal that
fits no operand type (an integer outside int64, a float that overflows to
infinity) is a type error too.

The grammar has one fixed shape, so the parse is straight-line code: a
term, the comparison operator, a second term, then the end of input.  It
collects the operator kinds, the attribute names and the literals in
textual order, then types the literals, and returns the operator shapes
and attribute names that the scenario loader checks.  It builds no syntax
tree: timing depends on a predicate only through the module that
evaluates it, so those two facts are all the parse returns.

Most predicates are written as 3, 5 or 7 whitespace-separated ASCII
chunks, one token each, with no sign, exponent or long literal.  Those are
read chunk by chunk with string methods, without the tokenizer, and typed
directly: an integer of at most 9 digits is int32.  Every other text, and
every error, goes through the grammar, and the tests hold the two readings
to the same results.  The shapes returned are the objects in _SHAPES,
which the loader also puts in its modules, so checking a predicate's
shapes against a module finds them by identity.
"""
from __future__ import annotations

import math
import re
from typing import TYPE_CHECKING

from .record import FieldError, Record, set_field

if TYPE_CHECKING:
    from .model import QuerySpec, Scenario, Schedule

_CMP_KIND = {"<": "compare_lt", "<=": "compare_le", "=": "compare_eq",
             "!=": "compare_ne", ">=": "compare_ge", ">": "compare_gt"}
_ARITH_KIND = {"+": "arith_add", "-": "arith_sub", "*": "arith_mul"}
COMPARE_KINDS = frozenset(_CMP_KIND.values())
ARITH_KINDS = frozenset(_ARITH_KIND.values())
OPERAND_TYPES = frozenset({"int32", "int64", "float"})

_INT32_MIN, _INT32_MAX = -(2 ** 31), 2 ** 31 - 1
_INT64_MIN, _INT64_MAX = -(2 ** 63), 2 ** 63 - 1
_INT64_DIGITS = len(str(_INT64_MAX))
# a digits.digits literal this long has at most 298 digits before its
# point, and the largest float has 309: it is finite
_FLOAT_CHARS = 300


class PredicateError(ValueError):
    """Base for predicate parse and typing failures; carries a 1-based column."""

    def __init__(self, column: int, message: str):
        self.column = column
        super().__init__(message)


class PredicateSyntaxError(PredicateError):
    def __init__(self, column: int, expected: str, found: str):
        super().__init__(column, f"syntax error at column {column}: expected {expected}, found {found}")


class PredicateTypeError(PredicateError):
    def __init__(self, column: int, message: str):
        super().__init__(column, f"type error at column {column}: {message}")


class OperatorShape(Record):
    """One operation an accelerator can evaluate in hardware."""

    __slots__ = ("kind", "operand_type")

    def __init__(self, kind: str, operand_type: str):
        if kind not in COMPARE_KINDS | ARITH_KINDS:
            raise FieldError("kind", f"unknown operator kind '{kind}'")
        if operand_type not in OPERAND_TYPES:
            raise FieldError("operand_type", f"unknown operand type '{operand_type}'")
        set_field(self, "kind", kind)
        set_field(self, "operand_type", operand_type)


_SHAPES = {(kind, operand_type): OperatorShape(kind, operand_type)
           for kind in COMPARE_KINDS | ARITH_KINDS for operand_type in OPERAND_TYPES}


def _shape(kind: str, operand_type: str) -> OperatorShape:
    """The shape of kind and operand_type as the parser returns it, the one
    object in _SHAPES, so that a set of them finds a parsed shape by
    identity; the constructor's FieldError when the vocabulary lacks it."""
    return _SHAPES.get((kind, operand_type)) or OperatorShape(kind, operand_type)


# compiled at the first _tokenize, through re's cache, not at import:
# predicates in the common shape never need it, and compiling it costs a
# process about 0.3 ms
_TOKEN_PATTERN = (
    r"(?P<number>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)"
    r"|(?P<param>\?[A-Za-z_]\w*)"
    r"|(?P<ident>[A-Za-z_]\w*)"
    r"|(?P<cmp><=|>=|!=|[<>=])"
    r"|(?P<arith>[+\-*])"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """(kind, text, column) per token, closed by an "end" token one column past the text."""
    match = re.compile(_TOKEN_PATTERN).match
    tokens = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = match(text, pos)
        if m is None:
            raise PredicateSyntaxError(pos + 1, "a token", repr(text[pos]))
        tokens.append((m.lastgroup, m.group(), pos + 1))
        pos = m.end()
    tokens.append(("end", "", len(text) + 1))
    return tokens


def _classify_literal(text: str, column: int) -> str:
    if "." in text or "e" in text or "E" in text:
        if not math.isfinite(float(text)):
            raise PredicateTypeError(column, "float literal out of range")
        return "float"
    # int() refuses texts past the interpreter's int-string digit limit, so
    # the significant digits are counted first
    if len(text.lstrip("-0")) <= _INT64_DIGITS:
        value = int(text)
        if _INT32_MIN <= value <= _INT32_MAX:
            return "int32"
        if _INT64_MIN <= value <= _INT64_MAX:
            return "int64"
    raise PredicateTypeError(column, "integer literal out of int64 range")


def _syntax_error(token: tuple[str, str, int], expected: str) -> PredicateSyntaxError:
    kind, text, column = token
    return PredicateSyntaxError(column, expected, "end of input" if kind == "end" else repr(text))


def _operand(tokens: list[tuple[str, str, int]], pos: int, attributes: list[str],
             literals: list[tuple[str, int]]) -> int:
    """Read the operand at tokens[pos], append it to attributes or to
    literals as (text, column), and return the position after it."""
    kind, text, column = tokens[pos]
    if kind == "ident":
        attributes.append(text)
    elif kind == "number":
        literals.append((text, column))
    elif text == "-" and tokens[pos + 1][0] == "number":
        pos += 1  # a negative literal, at the column of its sign
        literals.append(("-" + tokens[pos][1], column))
    elif kind != "param":
        raise _syntax_error(tokens[pos], "an operand")
    return pos + 1


def _term(tokens: list[tuple[str, str, int]], pos: int, kinds: list[str],
          attributes: list[str], literals: list[tuple[str, int]]) -> int:
    """Read one term, operand (ARITH operand)?, from tokens[pos], appending
    its arithmetic kind and operands, and return the position after it."""
    pos = _operand(tokens, pos, attributes, literals)
    kind, text, _ = tokens[pos]
    if kind != "arith":
        return pos
    kinds.append(_ARITH_KIND[text])
    return _operand(tokens, pos + 1, attributes, literals)


def parse_predicate(text: str) -> tuple[tuple[OperatorShape, ...], tuple[str, ...]]:
    """Check a predicate string and return the operator shapes it needs and
    the attributes it names, each in textual order with repeats kept.

    Errors carry the 1-based source column.  The literals are typed after
    the whole text has parsed, so that a syntax error comes before any type
    error.  A predicate in the common shape is read by _parse_common, any
    other by _parse_grammar, which raises every error.
    """
    return _parse_common(text) or _parse_grammar(text)


def _parse_common(text: str) -> tuple[tuple[OperatorShape, ...], tuple[str, ...]] | None:
    """parse_predicate's result for a predicate in the common shape, else
    None.  The common shape is `term CMP term` written as 3, 5 or 7
    whitespace-separated ASCII chunks, each a single token: an attribute, a
    ?parameter, an integer of at most 9 digits (int32, since it is below
    2**31) or a float `digits.digits` of at most _FLOAT_CHARS characters,
    with operators between them and no two literal types.  Anything else,
    a sign, an exponent, a longer literal, mixed types, is left to
    _parse_grammar, and so are all errors."""
    if not text.isascii():
        return None
    chunks = text.split()
    n = len(chunks)
    if n == 3 or n == 5 and chunks[1] in _CMP_KIND:
        cmp_at = 0   # the comparison among the operators
    elif n == 5 or n == 7:
        cmp_at = 1
    else:
        return None
    operators = chunks[1::2]
    kinds = list(map(_ARITH_KIND.get, operators))
    kinds[cmp_at] = _CMP_KIND.get(operators[cmp_at])
    if None in kinds:
        return None
    attributes = []
    operand_type = None
    for chunk in chunks[::2]:
        if chunk.isidentifier():
            attributes.append(chunk)
        elif chunk[0] == "?":
            if not chunk[1:].isidentifier():
                return None
        elif len(chunk) < 10 and chunk.isdigit():
            if operand_type == "float":
                return None
            operand_type = "int32"
        else:
            whole, _, fraction = chunk.partition(".")
            if not (whole.isdigit() and fraction.isdigit() and len(chunk) <= _FLOAT_CHARS
                    and operand_type != "int32"):
                return None
            operand_type = "float"
    operand_type = operand_type or "int32"
    return tuple([_SHAPES[k, operand_type] for k in kinds]), tuple(attributes)


def _parse_grammar(text: str) -> tuple[tuple[OperatorShape, ...], tuple[str, ...]]:
    """parse_predicate by the grammar, token by token, for any text."""
    tokens = _tokenize(text)
    kinds: list[str] = []
    attributes: list[str] = []
    literals: list[tuple[str, int]] = []
    pos = _term(tokens, 0, kinds, attributes, literals)
    kind, cmp, _ = tokens[pos]
    if kind != "cmp":
        raise _syntax_error(tokens[pos], "a comparison operator")
    kinds.append(_CMP_KIND[cmp])
    pos = _term(tokens, pos + 1, kinds, attributes, literals)
    if tokens[pos][0] != "end":
        raise _syntax_error(tokens[pos], "end of input")

    operand_type = None
    for literal, column in literals:
        literal_type = _classify_literal(literal, column)
        if operand_type is None:
            operand_type = literal_type
        elif literal_type != operand_type:
            raise PredicateTypeError(column, f"mixed operand types {operand_type} "
                                     f"and {literal_type} without declared coercion")
    operand_type = operand_type or "int32"
    return tuple([_SHAPES[k, operand_type] for k in kinds]), tuple(attributes)


def find_common_accelerators(s: Scenario) -> tuple[frozenset[str], ...]:
    """Accelerators invoked by both halves of each consecutive query pair,
    one set per pair in sequence order.

    Reuse is keyed on module identity; parameter and literal values play no
    role.  Each query's set of module ids is intersected with the next one's.
    """
    used = [{inv.accelerator_id for inv in q.invocations} for q in s.sequence]
    return tuple([frozenset(left & right) for left, right in zip(used, used[1:])])


def baseline_order(q: QuerySpec) -> tuple[int, ...]:
    """Ascending-selectivity order that never places a reader before its producer.

    The sort is stable, so ties keep the written order.  With dependency
    pairs, each step places the first pending invocation in that sorted
    order whose producers are all placed.
    """
    invocations = q.invocations
    pending = sorted(range(len(invocations)), key=lambda k: invocations[k].selectivity)
    if not q.dependencies:
        return tuple(pending)
    order: list[int] = []
    while pending:
        k = next(k for k in pending
                 if all(producer in order for producer, reader in q.dependencies if reader == k))
        pending.remove(k)
        order.append(k)
    return tuple(order)


def generate_hints(s: Scenario, schedule: Schedule) -> list[dict]:
    """One hint per consecutive pair, n-1 in total: what the storage side
    may prepare for the next query, as an outcome document entry.

    next_first_module follows the schedule's order for the successor query.
    The pairs, those orders and find_common_accelerators' sets are zipped.
    """
    return [{"after_query": left.id,
             "next_query": right.id,
             "next_first_module": right.invocations[order[0]].accelerator_id,
             "reusable_modules": sorted(common),
             "expected_gap_ms": left.gap_after_ms}
            for left, right, order, common in zip(s.sequence, s.sequence[1:], schedule.orders[1:],
                                                  find_common_accelerators(s))]
