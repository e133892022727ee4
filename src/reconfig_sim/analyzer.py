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
predicate are a type error; there is no implicit coercion.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Union

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


@dataclass(frozen=True)
class OperatorShape:
    """One operation an accelerator can evaluate in hardware."""

    kind: str
    operand_type: str

    def __post_init__(self):
        if self.kind not in COMPARE_KINDS | ARITH_KINDS:
            raise ValueError(f"unknown operator kind: {self.kind!r}")
        if self.operand_type not in OPERAND_TYPES:
            raise ValueError(f"unknown operand type: {self.operand_type!r}")


@dataclass(frozen=True)
class Attribute:
    name: str
    operand_type: str


@dataclass(frozen=True)
class Literal:
    value: Union[int, float]
    operand_type: str


@dataclass(frozen=True)
class Parameter:
    name: str
    operand_type: str


Operand = Union[Attribute, Literal, Parameter]


@dataclass(frozen=True)
class Arithmetic:
    kind: str
    lhs: Operand
    rhs: Operand


Term = Union[Operand, Arithmetic]


@dataclass(frozen=True)
class Comparison:
    """Root of every predicate; exactly one comparison per invocation."""

    kind: str
    lhs: Term
    rhs: Term


_TOKEN_RE = re.compile(
    r"(?P<number>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)"
    r"|(?P<param>\?[A-Za-z_]\w*)"
    r"|(?P<ident>[A-Za-z_]\w*)"
    r"|(?P<cmp><=|>=|!=|[<>=])"
    r"|(?P<arith>[+\-*])"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
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
    return tokens


class _Parser:
    def __init__(self, text: str, tokens: list[tuple[str, str, int]]):
        self._tokens = tokens
        self._pos = 0
        self._end_column = len(text) + 1

    def _peek(self, ahead: int = 0):
        i = self._pos + ahead
        return self._tokens[i] if i < len(self._tokens) else None

    def _fail(self, expected: str):
        tok = self._peek()
        if tok is None:
            raise PredicateSyntaxError(self._end_column, expected, "end of input")
        raise PredicateSyntaxError(tok[2], expected, repr(tok[1]))

    def operand(self):
        tok = self._peek()
        if tok is not None:
            kind, text, column = tok
            if kind == "number":
                self._pos += 1
                return ("literal", text, column)
            if kind == "param":
                self._pos += 1
                return ("parameter", text[1:], column)
            if kind == "ident":
                self._pos += 1
                return ("attribute", text, column)
            if kind == "arith" and text == "-":
                nxt = self._peek(1)
                if nxt is not None and nxt[0] == "number":
                    self._pos += 2
                    return ("literal", "-" + nxt[1], column)
        self._fail("an operand")

    def term(self):
        lhs = self.operand()
        tok = self._peek()
        if tok is not None and tok[0] == "arith":
            self._pos += 1
            rhs = self.operand()
            return ("arith", _ARITH_KIND[tok[1]], lhs, rhs)
        return lhs

    def comparison(self):
        lhs = self.term()
        tok = self._peek()
        if tok is None or tok[0] != "cmp":
            self._fail("a comparison operator")
        self._pos += 1
        rhs = self.term()
        if self._peek() is not None:
            self._fail("end of input")
        return ("cmp", _CMP_KIND[tok[1]], lhs, rhs)


def _classify_literal(text: str) -> tuple[Union[int, float], str]:
    if any(c in text for c in ".eE"):
        return float(text), "float"
    value = int(text)
    if _INT32_MIN <= value <= _INT32_MAX:
        return value, "int32"
    return value, "int64"


def _raw_literals(node) -> Iterator[tuple[str, int]]:
    tag = node[0]
    if tag == "literal":
        yield node[1], node[2]
    elif tag in ("arith", "cmp"):
        yield from _raw_literals(node[2])
        yield from _raw_literals(node[3])


def _build(node, operand_type: str):
    tag = node[0]
    if tag == "literal":
        value, _ = _classify_literal(node[1])
        return Literal(value, operand_type)
    if tag == "parameter":
        return Parameter(node[1], operand_type)
    if tag == "attribute":
        return Attribute(node[1], operand_type)
    if tag == "arith":
        return Arithmetic(node[1], _build(node[2], operand_type), _build(node[3], operand_type))
    return Comparison(node[1], _build(node[2], operand_type), _build(node[3], operand_type))


def parse_predicate(text: str) -> Comparison:
    """Parse a predicate string; errors carry the 1-based source column."""
    raw = _Parser(text, _tokenize(text)).comparison()
    operand_type = None
    for literal_text, column in _raw_literals(raw):
        _, lit_type = _classify_literal(literal_text)
        if operand_type is None:
            operand_type = lit_type
        elif lit_type != operand_type:
            raise PredicateTypeError(
                column,
                f"mixed operand types {operand_type} and {lit_type} without declared coercion")
    return _build(raw, operand_type or "int32")


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


def walk(node) -> Iterator[object]:
    """Yield every node of a predicate tree in traversal (lhs before rhs) order."""
    yield node
    if isinstance(node, (Comparison, Arithmetic)):
        yield from walk(node.lhs)
        yield from walk(node.rhs)


def _tree_type(pred: Comparison) -> str:
    for node in walk(pred):
        if isinstance(node, (Attribute, Literal, Parameter)):
            return node.operand_type
    raise ValueError("predicate has no operands")


def required_shapes(pred: Comparison) -> frozenset[OperatorShape]:
    """The operator shapes an accelerator must support to run this predicate."""
    operand_type = _tree_type(pred)
    shapes = {OperatorShape(pred.kind, operand_type)}
    for side in (pred.lhs, pred.rhs):
        if isinstance(side, Arithmetic):
            shapes.add(OperatorShape(side.kind, operand_type))
    return frozenset(shapes)


def attribute_names(pred: Comparison) -> frozenset[str]:
    return frozenset(n.name for n in walk(pred) if isinstance(n, Attribute))


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


@dataclass(frozen=True)
class Hint:
    """Per consecutive pair: what the storage side may prepare for the next query."""

    next_first_module: str
    reusable_modules: frozenset[str]
    expected_gap_ms: float


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
    deps = invocation_dependencies(q)
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
