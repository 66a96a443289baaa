"""Payoff expression language over the risky-asset price path.

Expressions are pure functions of the prices ``S_0 .. S_T`` observed along a
scenario, so every payoff depends only on information available by maturity.

Grammar (whitespace-insensitive, decimal numbers)::

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := number | 'S[' nat ']' | 'S_T' | 'max(S)' | 'min(S)' | 'avg(S)'
            | 'max(' expr ',' expr ')' | 'min(' expr ',' expr ')'
            | 'pos(' expr ')' | 'call(' number ')' | 'put(' number ')'
            | 'forward(' number ')' | 'lookback' | '(' expr ')' | '-' factor

The strike forms are sugar and parse to their definitions: ``call(K)`` is
``pos(S_T - K)``, ``put(K)`` is ``pos(K - S_T)``, ``forward(K)`` is
``S_T - K``, and ``lookback`` is ``max(S) - S_T``. Path aggregates include
the initial price ``S_0``.
"""
from __future__ import annotations

import functools
import operator
import re
from dataclasses import dataclass
from typing import Callable, Sequence, Union


class PayoffSyntaxError(ValueError):
    """Malformed payoff text; carries the offending offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at offset {position}")
        self.position = position


class PayoffEvalError(ValueError):
    """A payoff could not be evaluated on a given price path."""


@dataclass(frozen=True, slots=True)
class Const:
    value: float


@dataclass(frozen=True, slots=True)
class PriceAt:
    index: int


@dataclass(frozen=True, slots=True)
class TerminalPrice:
    pass


@dataclass(frozen=True, slots=True)
class PathMax:
    pass


@dataclass(frozen=True, slots=True)
class PathMin:
    pass


@dataclass(frozen=True, slots=True)
class PathAvg:
    pass


@dataclass(frozen=True, slots=True)
class Add:
    left: "PayoffExpr"
    right: "PayoffExpr"


@dataclass(frozen=True, slots=True)
class Sub:
    left: "PayoffExpr"
    right: "PayoffExpr"


@dataclass(frozen=True, slots=True)
class Mul:
    left: "PayoffExpr"
    right: "PayoffExpr"


@dataclass(frozen=True, slots=True)
class Div:
    left: "PayoffExpr"
    right: "PayoffExpr"


@dataclass(frozen=True, slots=True)
class Neg:
    operand: "PayoffExpr"


@dataclass(frozen=True, slots=True)
class Max2:
    left: "PayoffExpr"
    right: "PayoffExpr"


@dataclass(frozen=True, slots=True)
class Min2:
    left: "PayoffExpr"
    right: "PayoffExpr"


@dataclass(frozen=True, slots=True)
class PosPart:
    operand: "PayoffExpr"


PayoffExpr = Union[
    Const, PriceAt, TerminalPrice, PathMax, PathMin, PathAvg,
    Add, Sub, Mul, Div, Neg, Max2, Min2, PosPart,
]

_TOKEN_RE = re.compile(
    r"(?:(?P<number>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<sym>[+\-*/()\[\],]))"
)


@dataclass(frozen=True, slots=True)
class _Token:
    kind: str  # number | ident | sym | end
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.lastgroup is None:
            raise PayoffSyntaxError(f"unexpected character {text[pos]!r}", pos)
        kind = m.lastgroup
        tokens.append(_Token(kind, m.group(kind), m.start(kind)))
        pos = m.end()
    tokens.append(_Token("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self, ahead: int = 0) -> _Token:
        return self.tokens[min(self.i + ahead, len(self.tokens) - 1)]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        if tok.kind != "end":
            self.i += 1
        return tok

    def expect_sym(self, sym: str) -> None:
        tok = self.peek()
        if tok.kind != "sym" or tok.text != sym:
            raise PayoffSyntaxError(f"expected {sym!r}", tok.pos)
        self.advance()

    def fail(self, message: str) -> PayoffSyntaxError:
        return PayoffSyntaxError(message, self.peek().pos)

    def parse(self) -> PayoffExpr:
        expr = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise PayoffSyntaxError(f"unexpected trailing input {tok.text!r}", tok.pos)
        return expr

    def expr(self) -> PayoffExpr:
        node = self.term()
        while self.peek().kind == "sym" and self.peek().text in "+-":
            op = self.advance().text
            rhs = self.term()
            node = Add(node, rhs) if op == "+" else Sub(node, rhs)
        return node

    def term(self) -> PayoffExpr:
        node = self.factor()
        while self.peek().kind == "sym" and self.peek().text in "*/":
            op = self.advance().text
            rhs = self.factor()
            node = Mul(node, rhs) if op == "*" else Div(node, rhs)
        return node

    def number(self) -> float:
        tok = self.peek()
        if tok.kind != "number":
            raise self.fail("expected a number")
        self.advance()
        return float(tok.text)

    def natural(self) -> int:
        tok = self.peek()
        if tok.kind != "number" or not tok.text.isdigit():
            raise self.fail("expected a whole-number time index")
        self.advance()
        return int(tok.text)

    def factor(self) -> PayoffExpr:
        tok = self.peek()
        if tok.kind == "number":
            return Const(self.number())
        if tok.kind == "sym" and tok.text == "-":
            self.advance()
            return Neg(self.factor())
        if tok.kind == "sym" and tok.text == "(":
            self.advance()
            inner = self.expr()
            self.expect_sym(")")
            return inner
        if tok.kind == "ident":
            return self.ident_factor()
        raise self.fail(f"expected a payoff term, found {tok.text or 'end of input'!r}")

    def ident_factor(self) -> PayoffExpr:
        tok = self.advance()
        name = tok.text
        if name == "S_T":
            return TerminalPrice()
        if name == "S":
            self.expect_sym("[")
            index = self.natural()
            self.expect_sym("]")
            return PriceAt(index)
        if name == "lookback":
            return Sub(PathMax(), TerminalPrice())
        if name in ("max", "min"):
            self.expect_sym("(")
            if (
                self.peek().kind == "ident"
                and self.peek().text == "S"
                and self.peek(1).kind == "sym"
                and self.peek(1).text == ")"
            ):
                self.advance()
                self.advance()
                return PathMax() if name == "max" else PathMin()
            left = self.expr()
            self.expect_sym(",")
            right = self.expr()
            self.expect_sym(")")
            return Max2(left, right) if name == "max" else Min2(left, right)
        if name == "avg":
            self.expect_sym("(")
            tok = self.peek()
            if tok.kind != "ident" or tok.text != "S":
                raise self.fail("avg applies to the price path: expected 'S'")
            self.advance()
            self.expect_sym(")")
            return PathAvg()
        if name == "pos":
            self.expect_sym("(")
            inner = self.expr()
            self.expect_sym(")")
            return PosPart(inner)
        if name in ("call", "put", "forward"):
            self.expect_sym("(")
            strike = Const(self.number())
            self.expect_sym(")")
            if name == "call":
                return PosPart(Sub(TerminalPrice(), strike))
            if name == "put":
                return PosPart(Sub(strike, TerminalPrice()))
            return Sub(TerminalPrice(), strike)
        raise PayoffSyntaxError(f"unknown identifier {name!r}", tok.pos)


def parse_payoff(text: str) -> PayoffExpr:
    """Parse payoff text; strike sugar is expanded to its definition."""
    return _Parser(text).parse()


_ADD, _MUL, _NEG, _ATOM = 1, 2, 3, 4


def _level(e: PayoffExpr) -> int:
    if isinstance(e, (Add, Sub)):
        return _ADD
    if isinstance(e, (Mul, Div)):
        return _MUL
    if isinstance(e, Neg):
        return _NEG
    return _ATOM


def _fmt_number(v: float) -> str:
    if v != v or v in (float("inf"), float("-inf")):
        raise ValueError(f"cannot print non-finite constant {v!r}")
    if float(v).is_integer() and abs(v) < 1e16:
        return str(int(v))
    return repr(float(v))


def print_payoff(e: PayoffExpr) -> str:
    """Render back into the grammar with minimal parentheses; reparsing the
    result reproduces the expression."""

    def wrap(child: PayoffExpr, minimum: int) -> str:
        text = print_payoff(child)
        return f"({text})" if _level(child) < minimum else text

    match e:
        case Const(value):
            if value < 0:
                return "-" + _fmt_number(-value)
            return _fmt_number(value)
        case PriceAt(index):
            return f"S[{index}]"
        case TerminalPrice():
            return "S_T"
        case PathMax():
            return "max(S)"
        case PathMin():
            return "min(S)"
        case PathAvg():
            return "avg(S)"
        case Neg(operand):
            return "-" + wrap(operand, _NEG)
        case PosPart(operand):
            return f"pos({print_payoff(operand)})"
        case Max2(left, right):
            return f"max({print_payoff(left)}, {print_payoff(right)})"
        case Min2(left, right):
            return f"min({print_payoff(left)}, {print_payoff(right)})"
        case Add(left, right):
            return f"{wrap(left, _ADD)} + {wrap(right, _ADD + 1)}"
        case Sub(left, right):
            return f"{wrap(left, _ADD)} - {wrap(right, _ADD + 1)}"
        case Mul(left, right):
            return f"{wrap(left, _MUL)} * {wrap(right, _MUL + 1)}"
        case Div(left, right):
            return f"{wrap(left, _MUL)} / {wrap(right, _MUL + 1)}"
    raise TypeError(f"not a payoff expression: {e!r}")


def _compile(e: PayoffExpr) -> Callable[[Sequence[float]], float]:
    """Closure evaluating ``e`` on a nonempty price sequence; a node that is
    not an expression compiles to a closure raising ``TypeError`` when reached."""
    match e:
        case Const(value):
            return lambda prices: value
        case PriceAt(index):
            def price_at(prices):
                last = len(prices) - 1
                if not 0 <= index <= last:
                    raise PayoffEvalError(
                        f"price index S[{index}] outside observed path S[0..{last}]"
                    )
                return prices[index]
            return price_at
        case TerminalPrice():
            return lambda prices: prices[-1]
        case PathMax():
            return max
        case PathMin():
            return min
        case PathAvg():
            # Left to right from 0 on every Python: sum() compensates from 3.12
            # on, which would move prices in the last digit.
            return lambda prices: functools.reduce(operator.add, prices, 0) / len(prices)
        case Neg(operand):
            f = _compile(operand)
            return lambda prices: -f(prices)
        case PosPart(operand):
            f = _compile(operand)
            return lambda prices: max(0.0, f(prices))
        case Div(left, right):
            f, g = _compile(left), _compile(right)
            def divide(prices):
                divisor = g(prices)
                if divisor == 0.0:
                    raise PayoffEvalError(f"division by zero in {print_payoff(e)!r}")
                return f(prices) / divisor
            return divide
        case Add(left, right):
            f, g = _compile(left), _compile(right)
            return lambda prices: f(prices) + g(prices)
        case Sub(left, right):
            f, g = _compile(left), _compile(right)
            return lambda prices: f(prices) - g(prices)
        case Mul(left, right):
            f, g = _compile(left), _compile(right)
            return lambda prices: f(prices) * g(prices)
        case Max2(left, right):
            f, g = _compile(left), _compile(right)
            return lambda prices: max(f(prices), g(prices))
        case Min2(left, right):
            f, g = _compile(left), _compile(right)
            return lambda prices: min(f(prices), g(prices))

    def not_an_expression(prices):
        raise TypeError(f"not a payoff expression: {e!r}")
    return not_an_expression


# Compiled payoffs by identity: ``(expression, closure)`` under ``id(expression)``.
# Not keyed by equality, since equal expressions can evaluate differently
# (``Const(0.0) == Const(-0.0)``, ``Const(1) == Const(1.0)``).
_COMPILED: dict[int, tuple[PayoffExpr, Callable[[Sequence[float]], float]]] = {}
_COMPILED_MAX = 256


def eval_payoff(e: PayoffExpr, prices: Sequence[float]) -> float:
    """Evaluate on the observed prices ``S_0 .. S_T``; aggregates range over
    the whole sequence including the initial price. Each expression object
    is compiled once and its closure reused."""
    if not prices:
        raise PayoffEvalError("price path must contain at least the initial price")
    hit = _COMPILED.get(id(e))
    if hit is None or hit[0] is not e:
        if len(_COMPILED) >= _COMPILED_MAX:
            _COMPILED.clear()
        hit = _COMPILED[id(e)] = (e, _compile(e))
    return hit[1](prices)


def payoff_horizon(e: PayoffExpr) -> int | None:
    """Smallest maturity the expression needs, or None when it scales with
    the maturity (terminal price or path aggregates present)."""
    match e:
        case Const():
            return 0
        case PriceAt(index):
            return index
        case TerminalPrice() | PathMax() | PathMin() | PathAvg():
            return None
        case Neg(operand) | PosPart(operand):
            return payoff_horizon(operand)
        case Add(left, right) | Sub(left, right) | Mul(left, right) | Div(left, right) | Max2(left, right) | Min2(left, right):
            lh, rh = payoff_horizon(left), payoff_horizon(right)
            if lh is None or rh is None:
                return None
            return max(lh, rh)
    raise TypeError(f"not a payoff expression: {e!r}")
