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

_TOKEN_RE = re.compile(
    r"(?P<number>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)"
    r"|(?P<param>\?[A-Za-z_]\w*)"
    r"|(?P<ident>[A-Za-z_]\w*)"
    r"|(?P<cmp><=|>=|!=|[<>=])"
    r"|(?P<arith>[+\-*])"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """(kind, text, column) per token, closed by an "end" token one column past the text."""
    tokens = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(text, pos)
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
    error.
    """
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
    role.
    """
    return tuple(frozenset({inv.accelerator_id for inv in left.invocations}
                           & {inv.accelerator_id for inv in right.invocations})
                 for left, right in zip(s.sequence, s.sequence[1:]))


def baseline_order(q: QuerySpec) -> tuple[int, ...]:
    """Ascending-selectivity order that never places a reader before its producer.

    Ties keep the written order, so the sort is stable.
    """
    if not q.dependencies:
        invocations = q.invocations
        return tuple(sorted(range(len(invocations)), key=lambda k: invocations[k].selectivity))
    deps: list[set[int]] = [set() for _ in q.invocations]
    for producer, reader in q.dependencies:
        deps[reader].add(producer)
    placed: set[int] = set()
    order: list[int] = []
    while len(order) < len(q.invocations):
        ready = [k for k in range(len(q.invocations))
                 if k not in placed and deps[k] <= placed]
        best = min(ready, key=lambda k: (q.invocations[k].selectivity, k))
        order.append(best)
        placed.add(best)
    return tuple(order)


def generate_hints(s: Scenario, reuse: tuple[frozenset[str], ...],
                   schedule: Schedule) -> list[dict]:
    """One hint per consecutive pair, n-1 in total: what the storage side
    may prepare for the next query, as an outcome document entry.

    next_first_module follows the schedule's order for the successor query.
    """
    return [{"after_query": left.id,
             "next_query": right.id,
             "next_first_module": right.invocations[schedule.orders[i + 1][0]].accelerator_id,
             "reusable_modules": sorted(reuse[i]),
             "expected_gap_ms": left.gap_after_ms}
            for i, (left, right) in enumerate(zip(s.sequence, s.sequence[1:]))]
