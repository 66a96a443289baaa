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
the initial price ``S_0``. Expressions nest at most ``MAX_PAYOFF_DEPTH``
levels deep (see ``_Parser``).
"""
from __future__ import annotations

import functools
import math
import operator
import re
from typing import Callable, Sequence, Union

from ._value import Value, echo


class PayoffSyntaxError(ValueError):
    """Malformed payoff text; carries the offending offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at offset {position}")
        self.position = position


class PayoffEvalError(ValueError):
    """A payoff could not be evaluated on a given price path."""


class Const(Value):
    __slots__ = ("value",)


class PriceAt(Value):
    __slots__ = ("index",)


class TerminalPrice(Value):
    __slots__ = ()


class PathMax(Value):
    __slots__ = ()


class PathMin(Value):
    __slots__ = ()


class PathAvg(Value):
    __slots__ = ()


class _Binary(Value):
    """A node with two operands; each subclass is one operator."""

    __slots__ = ("left", "right")


class Add(_Binary):
    __slots__ = ()


class Sub(_Binary):
    __slots__ = ()


class Mul(_Binary):
    __slots__ = ()


class Div(_Binary):
    __slots__ = ()


class Max2(_Binary):
    __slots__ = ()


class Min2(_Binary):
    __slots__ = ()


class _Unary(Value):
    """A node with one operand; each subclass is one operator."""

    __slots__ = ("operand",)


class Neg(_Unary):
    __slots__ = ()


class PosPart(_Unary):
    __slots__ = ()


PayoffExpr = Union[
    Const, PriceAt, TerminalPrice, PathMax, PathMin, PathAvg,
    Add, Sub, Mul, Div, Neg, Max2, Min2, PosPart,
]

_TOKEN_RE = re.compile(
    r"(?:(?P<number>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<sym>[+\-*/()\[\],]))"
)


class _Token(Value):
    """One lexeme; ``kind`` is number, ident, sym or end."""

    __slots__ = ("kind", "text", "pos")


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


# Deepest accepted expression. Parsing recurses up to four times per level,
# printing up to twice and compiling once (the compiled function does not
# recurse), so every accepted expression stays far inside Python's default
# recursion limit of 1000.
MAX_PAYOFF_DEPTH = 100


class _Parser:
    """Recursive descent; each rule returns its node and the node's depth.

    A number, ``S[i]``, ``S_T``, a path aggregate and the strike sugar have
    depth 1. Parentheses, unary minus, ``pos(...)`` and two-argument
    ``max``/``min`` add one to what they enclose, and a binary operator is
    one deeper than its deeper operand. ``open`` counts the groupings being
    parsed, so a grouping that cannot fit is rejected before the parser
    recurses into it.
    """

    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.open = 0
        # The ``expr`` and ``term`` rules: ``infix`` with their operators bound.
        # A partial adds no Python frame, so sharing the loop costs no recursion.
        self.term = functools.partial(self.infix, {"*": Mul, "/": Div}, self.factor)
        self.expr = functools.partial(self.infix, {"+": Add, "-": Sub}, self.term)

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

    def bound(self, depth: int, tok: _Token) -> int:
        """``depth``, once a node that deep fits inside the open groupings;
        otherwise the expression is too deep, reported at ``tok``."""
        if self.open + depth > MAX_PAYOFF_DEPTH:
            raise PayoffSyntaxError(
                f"payoff nests deeper than {MAX_PAYOFF_DEPTH} levels", tok.pos
            )
        return depth

    def nested(
        self, tok: _Token, rule: Callable[[], tuple[PayoffExpr, int]]
    ) -> tuple[PayoffExpr, int]:
        """``rule`` parsed one grouping deeper, opened at ``tok``."""
        self.open += 1
        self.bound(1, tok)
        node, depth = rule()
        self.open -= 1
        return node, depth + 1

    def parse(self) -> PayoffExpr:
        expr, _ = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise PayoffSyntaxError(f"unexpected trailing input {echo(tok.text)}", tok.pos)
        return expr

    def infix(self, ops: dict[str, type[_Binary]], operand: Callable) -> tuple[PayoffExpr, int]:
        """``operand (op operand)*`` for the symbols in ``ops``, left-associative."""
        node, depth = operand()
        while self.peek().kind == "sym" and self.peek().text in ops:
            op = self.advance()
            rhs, rhs_depth = operand()
            node = ops[op.text](node, rhs)
            depth = self.bound(1 + max(depth, rhs_depth), op)
        return node, depth

    def closed(self) -> tuple[PayoffExpr, int]:
        """An expression and the ``)`` after it."""
        inner = self.expr()
        self.expect_sym(")")
        return inner

    def number(self) -> float:
        tok = self.peek()
        if tok.kind != "number":
            raise self.fail("expected a number")
        if math.isinf(float(tok.text)):
            raise self.fail(f"number {echo(tok.text, str)} is outside the float range")
        self.advance()
        return float(tok.text)

    def natural(self) -> int:
        tok = self.peek()
        if tok.kind != "number" or not tok.text.isdigit():
            raise self.fail("expected a whole-number time index")
        try:
            index = int(tok.text)
        except ValueError:  # past the interpreter's digit limit, worded by version
            raise self.fail(f"time index {echo(tok.text, str)} has too many digits") from None
        self.advance()
        return index

    def factor(self) -> tuple[PayoffExpr, int]:
        tok = self.peek()
        if tok.kind == "number":
            return Const(self.number()), 1
        if tok.kind == "sym" and tok.text == "-":
            self.advance()
            operand, depth = self.nested(tok, self.factor)
            return Neg(operand), depth
        if tok.kind == "sym" and tok.text == "(":
            self.advance()
            return self.nested(tok, self.closed)
        if tok.kind == "ident":
            return self.ident_factor()
        raise self.fail(f"expected a payoff term, found {tok.text or 'end of input'!r}")

    def extremum(self, name: str) -> tuple[PayoffExpr, int]:
        """The two arguments and ``)`` of ``max(`` or ``min(``."""
        left, left_depth = self.expr()
        self.expect_sym(",")
        right, right_depth = self.closed()
        node = Max2(left, right) if name == "max" else Min2(left, right)
        return node, max(left_depth, right_depth)

    def ident_factor(self) -> tuple[PayoffExpr, int]:
        tok = self.advance()
        name = tok.text
        if name == "S_T":
            return TerminalPrice(), 1
        if name == "S":
            self.expect_sym("[")
            index = self.natural()
            self.expect_sym("]")
            return PriceAt(index), 1
        if name == "lookback":
            return Sub(PathMax(), TerminalPrice()), 1
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
                return (PathMax() if name == "max" else PathMin()), 1
            return self.nested(tok, lambda: self.extremum(name))
        if name == "avg":
            self.expect_sym("(")
            tok = self.peek()
            if tok.kind != "ident" or tok.text != "S":
                raise self.fail("avg applies to the price path: expected 'S'")
            self.advance()
            self.expect_sym(")")
            return PathAvg(), 1
        if name == "pos":
            self.expect_sym("(")
            inner, depth = self.nested(tok, self.closed)
            return PosPart(inner), depth
        if name in ("call", "put", "forward"):
            self.expect_sym("(")
            strike = Const(self.number())
            self.expect_sym(")")
            if name == "call":
                return PosPart(Sub(TerminalPrice(), strike)), 1
            if name == "put":
                return PosPart(Sub(strike, TerminalPrice())), 1
            return Sub(TerminalPrice(), strike), 1
        raise PayoffSyntaxError(f"unknown identifier {echo(name)}", tok.pos)


def parse_payoff(text: str) -> PayoffExpr:
    """Parse payoff text; strike sugar is expanded to its definition. An
    expression deeper than ``MAX_PAYOFF_DEPTH`` is a ``PayoffSyntaxError``."""
    return _Parser(text).parse()


_ADD, _MUL, _NEG, _ATOM = 1, 2, 3, 4

# Each binary node's symbol and binding level; an atom-level one prints as a call.
_SYNTAX: dict[type[_Binary], tuple[str, int]] = {
    Add: ("+", _ADD), Sub: ("-", _ADD), Mul: ("*", _MUL), Div: ("/", _MUL),
    Max2: ("max", _ATOM), Min2: ("min", _ATOM),
}


def _level(e: PayoffExpr) -> int:
    if isinstance(e, _Binary):
        return _SYNTAX[type(e)][1]
    return _NEG if isinstance(e, Neg) else _ATOM


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
        case _Binary(left, right):
            symbol, level = _SYNTAX[type(e)]
            if level == _ATOM:
                return f"{symbol}({print_payoff(left)}, {print_payoff(right)})"
            return f"{wrap(left, level)} {symbol} {wrap(right, level + 1)}"
    raise TypeError(f"not a payoff expression: {e!r}")


# Each binary node's value from its operands' locals ``a`` and ``b``: the
# operator inline, and ``max``/``min`` as the one comparison the builtins make
# (the second operand wins only when strictly greater or less), without a call.
_STATEMENT: dict[type[_Binary], str] = {
    Add: "{a} + {b}", Sub: "{a} - {b}", Mul: "{a} * {b}", Div: "{a} / {b}",
    Max2: "{b} if {b} > {a} else {a}", Min2: "{b} if {b} < {a} else {a}",
}


def _outside(index: object, prices: Sequence[float]) -> PayoffEvalError:
    return PayoffEvalError(f"price index S[{index}] outside observed path S[0..{len(prices) - 1}]")


def _division_by_zero(e: PayoffExpr) -> PayoffEvalError:
    return PayoffEvalError(f"division by zero in {echo(print_payoff(e))}")


def _not_an_expression(e: object) -> float:
    raise TypeError(f"not a payoff expression: {e!r}")


def _compile(e: PayoffExpr) -> Callable[[Sequence[float]], float]:
    """One straight-line function evaluating ``e`` on a nonempty price
    sequence ``p``: one statement per node, into its own local, in the order
    a tree walk evaluates them (a divisor before its numerator). Every
    constant, index and node the statements use is a global of the function,
    never source text. A node that is not an expression compiles to a
    statement raising ``TypeError`` when reached."""
    names: dict[str, object] = {
        "_reduce": functools.reduce, "_add": operator.add, "_outside": _outside,
        "_division_by_zero": _division_by_zero, "_not_an_expression": _not_an_expression,
    }
    lines: list[str] = []

    def bind(obj: object) -> str:
        name = f"g{len(names)}"
        names[name] = obj
        return name

    def emit(node: PayoffExpr) -> str:
        """Append the statements computing ``node``; the local holding it."""
        match node:
            case Const(value):
                code = bind(value)
            case PriceAt(index):
                i = bind(index)
                lines.append(f"if not 0 <= {i} <= len(p) - 1: raise _outside({i}, p)")
                code = f"p[{i}]"
            case TerminalPrice():
                code = "p[-1]"
            case PathMax():
                code = "max(p)"
            case PathMin():
                code = "min(p)"
            case PathAvg():
                # Left to right from 0 on every Python: sum() compensates from
                # 3.12 on, which would move prices in the last digit.
                code = "_reduce(_add, p, 0) / len(p)"
            case Neg(operand):
                code = f"-{emit(operand)}"
            case PosPart(operand):
                code = _STATEMENT[Max2].format(a="0.0", b=emit(operand))
            case Div(left, right):
                divisor = emit(right)
                lines.append(f"if {divisor} == 0.0: raise _division_by_zero({bind(node)})")
                code = _STATEMENT[Div].format(a=emit(left), b=divisor)
            case _Binary(left, right):
                code = _STATEMENT[type(node)].format(a=emit(left), b=emit(right))
            case _:
                code = f"_not_an_expression({bind(node)})"
        local = f"v{len(lines)}"
        lines.append(f"{local} = {code}")
        return local

    result = emit(e)
    exec("def evaluate(p):\n" + "".join(f"    {line}\n" for line in lines)
         + f"    return {result}\n", names)
    return names["evaluate"]


# The last expression evaluated and its compiled function, matched by identity:
# equal expressions can evaluate differently (``Const(0.0) == Const(-0.0)``).
_last: tuple[object, Callable[[Sequence[float]], float]] = (None, _compile(None))


def eval_payoff(e: PayoffExpr, prices: Sequence[float]) -> float:
    """Evaluate on the observed prices ``S_0 .. S_T``; aggregates range over
    the whole sequence including the initial price. The last expression
    evaluated stays compiled in one slot, so evaluating one expression on
    path after path compiles it once."""
    global _last
    if not prices:
        raise PayoffEvalError("price path must contain at least the initial price")
    last = _last  # read once: another thread may replace the slot meanwhile
    if last[0] is not e:
        last = _last = (e, _compile(e))
    return last[1](prices)


def payoff_horizon(e: PayoffExpr) -> int:
    """Smallest maturity the expression needs: its largest fixed index
    ``S[i]``, or 0 when it has none (the terminal price and the path
    aggregates observe whatever path the maturity gives them)."""
    match e:
        case PriceAt(index):
            return index
        case Const() | TerminalPrice() | PathMax() | PathMin() | PathAvg():
            return 0
        case _Unary(operand):
            return payoff_horizon(operand)
        case _Binary(left, right):
            return max(payoff_horizon(left), payoff_horizon(right))
    raise TypeError(f"not a payoff expression: {e!r}")


def terminal_only(e: PayoffExpr) -> bool:
    """Whether the expression reads no price but ``S_T``: no ``S[i]`` and no
    path aggregate. Such a payoff has the recombining form of Cox, Ross and
    Rubinstein (1979), and it evaluates on ``(S_T,)`` as on the whole path."""
    match e:
        case Const() | TerminalPrice():
            return True
        case PriceAt() | PathMax() | PathMin() | PathAvg():
            return False
        case _Unary(operand):
            return terminal_only(operand)
        case _Binary(left, right):
            return terminal_only(left) and terminal_only(right)
    raise TypeError(f"not a payoff expression: {e!r}")
