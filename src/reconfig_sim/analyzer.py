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

The parse is one pass over the tokens: it types each literal as it meets
it and collects the operator shapes and attribute names that the scenario
loader checks, then builds the nodes with the resolved operand type.
"""
from __future__ import annotations

import math
import re
from typing import TYPE_CHECKING, Union

from .record import Record, set_field

if TYPE_CHECKING:
    from .model import QuerySpec, Scenario, Schedule

COMPARE_KINDS = frozenset({
    "compare_lt", "compare_le", "compare_eq",
    "compare_ne", "compare_ge", "compare_gt",
})
ARITH_KINDS = frozenset({"arith_add", "arith_sub", "arith_mul"})
OPERAND_TYPES = frozenset({"int32", "int64", "float"})

_CMP_KIND = {"<": "compare_lt", "<=": "compare_le", "=": "compare_eq",
             "!=": "compare_ne", ">=": "compare_ge", ">": "compare_gt"}
_ARITH_KIND = {"+": "arith_add", "-": "arith_sub", "*": "arith_mul"}
_KIND_SYMBOL = {kind: sym for sym, kind in (*_CMP_KIND.items(), *_ARITH_KIND.items())}

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
            raise ValueError(f"unknown operator kind: {kind!r}")
        if operand_type not in OPERAND_TYPES:
            raise ValueError(f"unknown operand type: {operand_type!r}")
        set_field(self, "kind", kind)
        set_field(self, "operand_type", operand_type)


_SHAPES = {(kind, operand_type): OperatorShape(kind, operand_type)
           for kind in COMPARE_KINDS | ARITH_KINDS for operand_type in OPERAND_TYPES}


class Attribute(Record):
    __slots__ = ("name", "operand_type")

    def __init__(self, name: str, operand_type: str):
        set_field(self, "name", name)
        set_field(self, "operand_type", operand_type)


class Literal(Record):
    __slots__ = ("value", "operand_type")

    def __init__(self, value: Union[int, float], operand_type: str):
        set_field(self, "value", value)
        set_field(self, "operand_type", operand_type)


class Parameter(Record):
    __slots__ = ("name", "operand_type")

    def __init__(self, name: str, operand_type: str):
        set_field(self, "name", name)
        set_field(self, "operand_type", operand_type)


Operand = Union[Attribute, Literal, Parameter]


class Arithmetic(Record):
    __slots__ = ("kind", "lhs", "rhs")

    def __init__(self, kind: str, lhs: Operand, rhs: Operand):
        set_field(self, "kind", kind)
        set_field(self, "lhs", lhs)
        set_field(self, "rhs", rhs)


Term = Union[Operand, Arithmetic]


class Comparison(Record):
    """Root of every predicate; exactly one comparison per invocation.

    parse_predicate also fills in the operator shapes the predicate needs and
    the attributes it names, each in textual order with repeats kept.
    Equality, hash and repr ignore both, and a Comparison built in code leaves
    them empty.
    """

    __slots__ = ("kind", "lhs", "rhs", "shapes", "attributes")
    _fields = __slots__[:3]
    _init_fields = __slots__

    def __init__(self, kind: str, lhs: Term, rhs: Term,
                 shapes: tuple[OperatorShape, ...] = (), attributes: tuple[str, ...] = ()):
        set_field(self, "kind", kind)
        set_field(self, "lhs", lhs)
        set_field(self, "rhs", rhs)
        set_field(self, "shapes", shapes)
        set_field(self, "attributes", attributes)


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


def _classify_literal(text: str, column: int) -> tuple[Union[int, float], str]:
    if "." in text or "e" in text or "E" in text:
        value = float(text)
        if not math.isfinite(value):
            raise PredicateTypeError(column, "float literal out of range")
        return value, "float"
    # int() refuses texts past the interpreter's int-string digit limit, so
    # the significant digits are counted first
    if len(text.lstrip("-0")) <= _INT64_DIGITS:
        value = int(text)
        if _INT32_MIN <= value <= _INT32_MAX:
            return value, "int32"
        if _INT64_MIN <= value <= _INT64_MAX:
            return value, "int64"
    raise PredicateTypeError(column, "integer literal out of int64 range")


class _Parser:
    """Recursive descent that also types each literal once and collects the
    operator kinds and the attribute names.

    Operands come back as (node class, name or value) pairs and arithmetic
    as (kind, lhs, rhs), to be built once the operand type is known.  The
    first type error waits until the whole text has parsed, so that syntax
    errors take precedence.
    """

    def __init__(self, tokens: list[tuple[str, str, int]]):
        self._tokens = tokens
        self._pos = 0
        self.operand_type: str | None = None
        self.type_error: PredicateTypeError | None = None
        self.kinds: list[str] = []
        self.attributes: list[str] = []

    def _fail(self, expected: str):
        kind, text, column = self._tokens[self._pos]
        raise PredicateSyntaxError(column, expected,
                                   "end of input" if kind == "end" else repr(text))

    def _literal(self, text: str, column: int):
        if self.type_error is not None:
            return Literal, None
        try:
            value, lit_type = _classify_literal(text, column)
        except PredicateTypeError as exc:
            self.type_error = exc
            return Literal, None
        if self.operand_type is None:
            self.operand_type = lit_type
        elif lit_type != self.operand_type:
            self.type_error = PredicateTypeError(
                column,
                f"mixed operand types {self.operand_type} and {lit_type} without declared coercion")
        return Literal, value

    def operand(self):
        kind, text, column = self._tokens[self._pos]
        if kind == "ident":
            self._pos += 1
            self.attributes.append(text)
            return Attribute, text
        if kind == "number":
            self._pos += 1
            return self._literal(text, column)
        if kind == "param":
            self._pos += 1
            return Parameter, text[1:]
        if text == "-" and self._tokens[self._pos + 1][0] == "number":
            self._pos += 2
            return self._literal("-" + self._tokens[self._pos - 1][1], column)
        self._fail("an operand")

    def term(self):
        lhs = self.operand()
        kind, text, _ = self._tokens[self._pos]
        if kind != "arith":
            return lhs
        self._pos += 1
        self.kinds.append(_ARITH_KIND[text])
        return _ARITH_KIND[text], lhs, self.operand()

    def comparison(self):
        lhs = self.term()
        kind, text, _ = self._tokens[self._pos]
        if kind != "cmp":
            self._fail("a comparison operator")
        self._pos += 1
        self.kinds.append(_CMP_KIND[text])
        rhs = self.term()
        if self._tokens[self._pos][0] != "end":
            self._fail("end of input")
        return _CMP_KIND[text], lhs, rhs


def _node(raw, operand_type: str):
    if len(raw) == 2:
        cls, value = raw
        return cls(value, operand_type)
    kind, (lhs_cls, lhs), (rhs_cls, rhs) = raw
    return Arithmetic(kind, lhs_cls(lhs, operand_type), rhs_cls(rhs, operand_type))


def parse_predicate(text: str) -> Comparison:
    """Parse a predicate string; errors carry the 1-based source column.

    The result also carries the operator shapes the predicate needs and the
    attributes it names.
    """
    parser = _Parser(_tokenize(text))
    kind, lhs, rhs = parser.comparison()
    if parser.type_error is not None:
        raise parser.type_error
    operand_type = parser.operand_type or "int32"
    return Comparison(kind, _node(lhs, operand_type), _node(rhs, operand_type),
                      tuple([_SHAPES[k, operand_type] for k in parser.kinds]),
                      tuple(parser.attributes))


def print_predicate(node) -> str:
    """Render an AST back to predicate syntax; parsing the result rebuilds it."""
    if isinstance(node, (Comparison, Arithmetic)):
        return f"{print_predicate(node.lhs)} {_KIND_SYMBOL[node.kind]} {print_predicate(node.rhs)}"
    if isinstance(node, Attribute):
        return node.name
    if isinstance(node, Parameter):
        return "?" + node.name
    if isinstance(node, Literal):
        return repr(node.value) if isinstance(node.value, float) else str(node.value)
    raise TypeError(f"not a predicate node: {node!r}")


def find_common_accelerators(s: Scenario) -> dict[tuple[str, str], frozenset[str]]:
    """Accelerators invoked by both halves of each consecutive query pair.

    Reuse is keyed on module identity; parameter and literal values play no
    role.
    """
    reuse = {}
    for left, right in zip(s.sequence, s.sequence[1:]):
        mods_left = {inv.accelerator_id for inv in left.invocations}
        mods_right = {inv.accelerator_id for inv in right.invocations}
        reuse[(left.id, right.id)] = frozenset(mods_left & mods_right)
    return reuse


class Hint(Record):
    """Per consecutive pair: what the storage side may prepare for the next query."""

    __slots__ = ("next_first_module", "reusable_modules", "expected_gap_ms")

    def __init__(self, next_first_module: str, reusable_modules: frozenset[str],
                 expected_gap_ms: float):
        set_field(self, "next_first_module", next_first_module)
        set_field(self, "reusable_modules", reusable_modules)
        set_field(self, "expected_gap_ms", expected_gap_ms)


def invocation_dependencies(q: QuerySpec) -> tuple[frozenset[int], ...]:
    """For each invocation, the indices of invocations producing attributes it reads."""
    producers: dict[str, int] = {}
    for j, inv in enumerate(q.invocations):
        for attr in inv.produces:
            producers[attr] = j
    deps = []
    for k, inv in enumerate(q.invocations):
        deps.append(frozenset(producers[a] for a in inv.reads
                              if a in producers and producers[a] != k))
    return tuple(deps)


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
        if not ready:
            raise ValueError(f"query {q.id}: cyclic produces/reads dependencies")
        best = min(ready, key=lambda k: (q.invocations[k].selectivity, k))
        order.append(best)
        placed.add(best)
    return tuple(order)


def generate_hints(s: Scenario,
                   reuse: dict[tuple[str, str], frozenset[str]],
                   schedule: Schedule) -> tuple[Hint, ...]:
    """One hint per consecutive pair, n-1 in total.

    next_first_module follows the schedule's order for the successor query.
    """
    hints = []
    for i in range(len(s.sequence) - 1):
        nxt = s.sequence[i + 1]
        first = nxt.invocations[schedule.orders[i + 1][0]].accelerator_id
        key = (s.sequence[i].id, nxt.id)
        hints.append(Hint(first, reuse[key], s.sequence[i].gap_after_ms))
    return tuple(hints)
