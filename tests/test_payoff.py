"""Payoff language: parsing, printing, evaluation, maturity inference."""
import functools
import math
import operator
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crrpricing import payoff as payoff_module
from crrpricing._value import echo
from crrpricing.crr import CrrMarket, CrrParams, price_path
from crrpricing.lattice import TossPath, is_measurable_at
from crrpricing.payoff import (
    MAX_PAYOFF_DEPTH,
    Add,
    Const,
    Div,
    Max2,
    Min2,
    Mul,
    Neg,
    PathAvg,
    PathMax,
    PathMin,
    PayoffEvalError,
    PayoffSyntaxError,
    PosPart,
    PriceAt,
    Sub,
    TerminalPrice,
    eval_payoff,
    parse_payoff,
    payoff_horizon,
    print_payoff,
    terminal_only,
)
from crrpricing.pricing import terminal_payoffs


class TestParsing:
    def test_call_desugars_to_positive_part(self):
        assert parse_payoff("call(98)") == PosPart(Sub(TerminalPrice(), Const(98.0)))

    def test_put_desugars(self):
        assert parse_payoff("put(98)") == PosPart(Sub(Const(98.0), TerminalPrice()))

    def test_forward_desugars(self):
        assert parse_payoff("forward(98)") == Sub(TerminalPrice(), Const(98.0))

    def test_lookback_desugars(self):
        assert parse_payoff("lookback") == Sub(PathMax(), TerminalPrice())

    def test_aggregates(self):
        assert parse_payoff("max(S)") == PathMax()
        assert parse_payoff("min(S)") == PathMin()
        assert parse_payoff("avg(S)") == PathAvg()

    def test_binary_max_min(self):
        assert parse_payoff("max(S[1], 2)") == Max2(PriceAt(1), Const(2.0))
        assert parse_payoff("min(S_T, max(S))") == Min2(TerminalPrice(), PathMax())

    def test_precedence_and_associativity(self):
        assert parse_payoff("1 + 2 * 3") == Add(Const(1.0), Mul(Const(2.0), Const(3.0)))
        assert parse_payoff("1 - 2 - 3") == Sub(Sub(Const(1.0), Const(2.0)), Const(3.0))
        assert parse_payoff("(1 - 2) * 3") == Mul(Sub(Const(1.0), Const(2.0)), Const(3.0))

    def test_unary_minus_binds_to_factor(self):
        assert parse_payoff("-S_T") == Neg(TerminalPrice())
        assert parse_payoff("--2") == Neg(Neg(Const(2.0)))
        assert parse_payoff("2 - -3") == Sub(Const(2.0), Neg(Const(3.0)))

    def test_whitespace_insensitive(self):
        assert parse_payoff("  max( S ) -  S_T ") == parse_payoff("max(S)-S_T")

    def test_scientific_notation(self):
        assert parse_payoff("1.5e-3") == Const(0.0015)


MALFORMED = [
    ("S[1", 3),          # unclosed index bracket
    ("", 0),             # empty input
    ("1 +", 3),          # dangling operator
    ("call(98", 7),      # unclosed call
    ("call(S_T)", 5),    # strike must be a number
    ("foo", 0),          # unknown identifier
    ("max(S,)", 5),      # bare S inside binary max needs an index
    ("1 2", 2),          # trailing input
    ("avg(2)", 4),       # avg applies to the path
    ("S + 1", 2),        # bare S needs an index
    ("call(1e400)", 5),  # a literal beyond the float range
    ("1e400 / (S_T - S_T)", 0),
    ("-1e400", 1),
]


class TestSyntaxErrors:
    @pytest.mark.parametrize("text,position", MALFORMED)
    def test_malformed_inputs_carry_positions(self, text, position):
        with pytest.raises(PayoffSyntaxError) as info:
            parse_payoff(text)
        assert info.value.position == position, (
            f"{text!r}: reported offset {info.value.position}, expected {position}"
        )

    def test_unexpected_character(self):
        with pytest.raises(PayoffSyntaxError) as info:
            parse_payoff("1 ? 2")
        assert info.value.position == 2

    def test_overflowing_literal_names_itself(self):
        with pytest.raises(PayoffSyntaxError) as info:
            parse_payoff("call(1e400)")
        assert str(info.value) == "number 1e400 is outside the float range at offset 5"

    def test_largest_literals_parse_print_and_reparse(self):
        for text in ("1e308", "call(1e308)", "-1.7976931348623157e308"):
            expr = parse_payoff(text)
            assert parse_payoff(print_payoff(expr)) == expr
        assert parse_payoff("1e308") == Const(1e308)

    @pytest.mark.parametrize("text", ["S[1.5]", "S[-1]", "S[1e3]", "S[x]"])
    def test_time_index_must_be_a_whole_number(self, text):
        with pytest.raises(PayoffSyntaxError) as info:
            parse_payoff(text)
        assert str(info.value) == "expected a whole-number time index at offset 2"


PARAMS = CrrParams(u=1.2, d=0.8, v=10.0, r=0.03, p=0.5)


def nestings(depth: int) -> dict[str, tuple[str, int]]:
    """An expression of the given depth in each nesting form, and the offset
    of the token that takes it one level past ``depth - 1``."""
    k = depth - 1
    return {
        "parentheses": ("(" * k + "S_T" + ")" * k, k - 1),
        "pos": ("pos(" * k + "S_T" + ")" * k, 4 * (k - 1)),
        "minus": ("-" * k + "S_T", k - 1),
        "max": ("max(" * k + "S_T" + ", 1)" * k, 4 * (k - 1)),
        "sum": (" + ".join(["S_T"] * depth), 6 * k - 2),
        "quotient": (" / ".join(["S[1]"] * depth), 7 * k - 2),
        "pos of sums": ("pos(" * (k // 2) + "S_T + 1" + " + 1)" * (k // 2), None),
    }


class TestDepthLimit:
    @pytest.mark.parametrize("form", sorted(nestings(1)))
    def test_deepest_accepted_expression_works_end_to_end(self, form):
        text, _ = nestings(MAX_PAYOFF_DEPTH)[form]
        expr = parse_payoff(text)
        assert parse_payoff(print_payoff(expr)) == expr
        assert payoff_horizon(expr) == (1 if form == "quotient" else 0)
        prices = price_path(PARAMS, TossPath((True, False)))
        assert isinstance(eval_payoff(expr, prices), float)

    @pytest.mark.parametrize("form", sorted(set(nestings(1)) - {"pos of sums"}))
    def test_one_level_deeper_is_rejected_at_its_offset(self, form):
        text, position = nestings(MAX_PAYOFF_DEPTH + 1)[form]
        with pytest.raises(PayoffSyntaxError, match=f"deeper than {MAX_PAYOFF_DEPTH} levels") as info:
            parse_payoff(text)
        assert info.value.position == position

    @pytest.mark.parametrize("text", [
        "(" * 331 + "1" + ")" * 331,
        "pos(" * 248 + "1" + ")" * 248,
        "1" + " + S_T" * 999,
        "-" * 5000 + "1",
    ])
    def test_far_too_deep_is_a_syntax_error(self, text):
        with pytest.raises(PayoffSyntaxError, match="deeper than"):
            parse_payoff(text)

    def test_depth_counts_the_deeper_operand(self):
        # pos(...) + 1 with 98 nested pos: each + 1 adds a level on top
        parse_payoff("pos(" * 97 + "S_T" + ")" * 97 + " + 1 + 1")
        with pytest.raises(PayoffSyntaxError):
            parse_payoff("pos(" * 97 + "S_T" + ")" * 97 + " + 1 + 1 + 1")
        parse_payoff("1 + " + "(" * 98 + "S_T" + ")" * 98)


class TestEvaluation:
    def test_lookback_up_down(self):
        e = parse_payoff("lookback")
        assert eval_payoff(e, [10.0, 12.0, 9.6]) == pytest.approx(2.4, abs=1e-12)

    def test_lookback_counts_initial_price(self):
        # after down-up the running maximum is the initial price itself
        e = parse_payoff("lookback")
        assert eval_payoff(e, [10.0, 8.0, 9.6]) == pytest.approx(0.4, abs=1e-12)

    def test_forward_at_terminal_hundred(self):
        e = parse_payoff("forward(98)")
        assert eval_payoff(e, [95.0, 99.0, 100.0]) == pytest.approx(2.0)

    def test_price_index(self):
        e = parse_payoff("S[1] - S[0]")
        assert eval_payoff(e, [10.0, 12.0, 9.6]) == pytest.approx(2.0)

    def test_avg_includes_all_prices(self):
        e = parse_payoff("avg(S)")
        assert eval_payoff(e, [1.0, 2.0, 6.0]) == pytest.approx(3.0)

    def test_index_beyond_path_rejected(self):
        e = parse_payoff("S[5]")
        with pytest.raises(PayoffEvalError, match=r"S\[5\]"):
            eval_payoff(e, [10.0, 12.0])

    def test_division_by_zero_names_node(self):
        e = parse_payoff("1 / (S_T - 12)")
        with pytest.raises(PayoffEvalError, match="division by zero"):
            eval_payoff(e, [10.0, 12.0])

    def test_put_call_parity_pointwise(self):
        rng = random.Random(11)
        for _ in range(20):
            strike = round(rng.uniform(1.0, 150.0), 4)
            call = parse_payoff(f"call({strike})")
            put = parse_payoff(f"put({strike})")
            prices = [rng.uniform(1.0, 150.0) for _ in range(rng.randint(1, 6))]
            lhs = eval_payoff(call, prices) - eval_payoff(put, prices)
            assert lhs == prices[-1] - strike, "parity must hold exactly"


class TestPayoffHorizon:
    def test_fixed_indices(self):
        assert payoff_horizon(parse_payoff("S[3] - S[1]")) == 3

    def test_terminal_price_is_parametric(self):
        assert payoff_horizon(parse_payoff("call(98)")) == 0

    def test_aggregates_are_parametric(self):
        assert payoff_horizon(parse_payoff("lookback")) == 0

    def test_mixed_expression_needs_its_fixed_index(self):
        assert payoff_horizon(parse_payoff("S[5] + S_T")) == 5

    def test_constants_need_no_history(self):
        assert payoff_horizon(parse_payoff("1 + 2")) == 0


NOT_EXPRESSIONS = ["S_T", None, 1.0, Add(Const(1.0), "S_T"), Neg(PosPart(["S_T"]))]


class TestNotAnExpression:
    @pytest.mark.parametrize("node", NOT_EXPRESSIONS, ids=repr)
    def test_evaluating_raises_type_error(self, node):
        with pytest.raises(TypeError, match="^not a payoff expression: "):
            eval_payoff(node, [1.0, 2.0])

    @pytest.mark.parametrize("node", NOT_EXPRESSIONS, ids=repr)
    def test_horizon_raises_type_error(self, node):
        with pytest.raises(TypeError, match="^not a payoff expression: "):
            payoff_horizon(node)

    def test_the_message_names_the_foreign_node(self):
        with pytest.raises(TypeError) as info:
            payoff_horizon(Add(Const(1.0), "S_T"))
        assert str(info.value) == "not a payoff expression: 'S_T'"


def random_expr(rng: random.Random, depth: int):
    """Sample an expression shaped by the grammar's own productions."""
    atoms = [
        lambda: Const(float(rng.randint(0, 300))),
        lambda: Const(round(rng.uniform(0.0, 200.0), 4)),
        lambda: PriceAt(rng.randint(0, 6)),
        lambda: TerminalPrice(),
        lambda: PathMax(),
        lambda: PathMin(),
        lambda: PathAvg(),
    ]
    if depth <= 0:
        return rng.choice(atoms)()
    binops = [Add, Sub, Mul, Div, Max2, Min2]
    choice = rng.randrange(10)
    if choice < 6:
        op = rng.choice(binops)
        return op(random_expr(rng, depth - 1), random_expr(rng, depth - 1))
    if choice < 8:
        return Neg(random_expr(rng, depth - 1))
    if choice < 9:
        return PosPart(random_expr(rng, depth - 1))
    return rng.choice(atoms)()


class TestPrinterRoundTrip:
    def test_round_trip_on_generated_expressions(self):
        rng = random.Random(20240811)
        for i in range(100):
            expr = random_expr(rng, depth=rng.randint(0, 4))
            text = print_payoff(expr)
            reparsed = parse_payoff(text)
            assert reparsed == expr, f"case {i}: {text!r} reparsed differently"
            assert print_payoff(reparsed) == text

    def test_round_trip_on_sugar(self):
        for text in ("call(98)", "put(98)", "forward(98)", "lookback"):
            e = parse_payoff(text)
            assert parse_payoff(print_payoff(e)) == e

    def test_parenthesization_cases(self):
        assert print_payoff(parse_payoff("(1 + 2) * 3")) == "(1 + 2) * 3"
        assert print_payoff(parse_payoff("1 - (2 - 3)")) == "1 - (2 - 3)"
        assert print_payoff(parse_payoff("-(1 + 2)")) == "-(1 + 2)"

    @pytest.mark.parametrize("value, text", [(math.inf, "inf"), (-math.inf, "inf"), (math.nan, "nan")])
    def test_non_finite_constant_cannot_be_printed(self, value, text):
        with pytest.raises(ValueError) as info:
            print_payoff(Const(value))
        assert str(info.value) == f"cannot print non-finite constant {text}"


class TestMeasurability:
    @pytest.mark.parametrize("text", ["call(9)", "lookback", "avg(S) - S[1]", "S[2] * S_T"])
    @pytest.mark.parametrize("maturity", [2, 4, 6])
    def test_payoff_depends_only_on_first_t_tosses(self, text, maturity):
        expr = parse_payoff(text)

        def payoff_of_full_path(w: TossPath) -> float:
            return eval_payoff(expr, price_path(PARAMS, w.truncate(maturity)))

        assert is_measurable_at(payoff_of_full_path, maturity + 2, maturity)


def reference_eval_payoff(e, prices):
    """The tree-walking interpreter that ``eval_payoff`` replaced, kept as the
    reference for the compiled closures; ``avg(S)`` adds as ``sum()`` did up
    to Python 3.11."""
    if not prices:
        raise PayoffEvalError("price path must contain at least the initial price")
    last = len(prices) - 1
    match e:
        case Const(value):
            return value
        case PriceAt(index):
            if not 0 <= index <= last:
                raise PayoffEvalError(
                    f"price index S[{index}] outside observed path S[0..{last}]"
                )
            return prices[index]
        case TerminalPrice():
            return prices[-1]
        case PathMax():
            return max(prices)
        case PathMin():
            return min(prices)
        case PathAvg():  # sum() as of Python 3.11: left to right, without compensation
            return functools.reduce(operator.add, prices, 0) / len(prices)
        case Add(left, right):
            return reference_eval_payoff(left, prices) + reference_eval_payoff(right, prices)
        case Sub(left, right):
            return reference_eval_payoff(left, prices) - reference_eval_payoff(right, prices)
        case Mul(left, right):
            return reference_eval_payoff(left, prices) * reference_eval_payoff(right, prices)
        case Div(left, right):
            divisor = reference_eval_payoff(right, prices)
            if divisor == 0.0:
                raise PayoffEvalError(
                    f"division by zero in {echo(print_payoff(e))}"
                )
            return reference_eval_payoff(left, prices) / divisor
        case Neg(operand):
            return -reference_eval_payoff(operand, prices)
        case Max2(left, right):
            return max(reference_eval_payoff(left, prices), reference_eval_payoff(right, prices))
        case Min2(left, right):
            return min(reference_eval_payoff(left, prices), reference_eval_payoff(right, prices))
        case PosPart(operand):
            return max(0.0, reference_eval_payoff(operand, prices))
    raise TypeError(f"not a payoff expression: {e!r}")


def outcome(fn, *args):
    """A call's value (exact, by type and repr) or its exception (type, message)."""
    try:
        value = fn(*args)
    except Exception as exc:
        return "raised", type(exc), str(exc)
    return "value", type(value), repr(value)


NOT_AN_EXPRESSION = "S_T"

expressions = st.recursive(
    st.one_of(
        st.builds(Const, st.one_of(st.sampled_from([0.0, -0.0, 1.0, 2]), st.floats(allow_nan=False))),
        st.builds(PriceAt, st.integers(0, 7)),
        st.sampled_from([TerminalPrice(), PathMax(), PathMin(), PathAvg()]),
    ),
    lambda inner: st.one_of(
        st.builds(Neg, inner),
        st.builds(PosPart, inner),
        *(st.builds(node, inner, inner) for node in (Add, Sub, Mul, Div, Max2, Min2)),
        st.builds(Add, inner, st.just(NOT_AN_EXPRESSION)),
    ),
    max_leaves=12,
)
price_lists = st.lists(
    st.one_of(st.sampled_from([0.0, 1.0, 100.0]), st.floats(-1e6, 1e6)), max_size=6
)


# Nodes a parser never builds. The index and the string constant read as code
# if spliced into source text.
CRAFTED = [
    PriceAt("0]; import os; p[0"), PriceAt(-1), PriceAt(1.0), Const(object()),
    Const("__import__('os').getpid()"), Add(Const(1.0), None), Div(Const(1.0), NOT_AN_EXPRESSION),
    Div(None, Const(0.0)), Div(Const(1.0), PriceAt(9)), Add(Div(Const(1.0), Const(0.0)), None),
    Add(None, Div(Const(1.0), Const(0.0))), Mul(PosPart(Const(object())), Const(2.0)),
    Max2(Const(1.0), Const("a")), Min2(Const(math.nan), Const(1.0)), Neg(Const(-0.0)),
]


class LoggedIndex(int):
    """A price index that logs itself each time an evaluator checks it."""

    def __new__(cls, value, log):
        index = super().__new__(cls, value)
        index.log = log
        return index

    def __ge__(self, other):  # ``0 <= index`` asks the index first
        self.log.append(self)
        return int(self) >= other


# Expressions over a price-index constructor; evaluated on four prices, the
# divisor S[1] is zero, so some of them stop at a division by zero.
ORDERED = [
    lambda s: Div(Add(s(0), s(3)), Sub(s(2), Max2(s(3), Neg(s(0))))),
    lambda s: Add(Div(s(3), s(1)), s(2)),
    lambda s: Mul(Min2(PosPart(s(2)), s(0)), Div(Div(s(3), s(2)), Sub(s(0), s(2)))),
    lambda s: Sub(Max2(s(1), s(2)), Div(s(0), Div(s(2), s(3)))),
]


class TestCompiledMatchesInterpreter:
    @settings(max_examples=600, deadline=None)
    @given(expressions, price_lists)
    def test_same_value_or_same_error(self, e, prices):
        assert outcome(eval_payoff, e, prices) == outcome(reference_eval_payoff, e, prices)

    def test_equal_expressions_keep_their_own_values(self):
        """Equal expressions can evaluate differently, so no compiled form is
        shared between them."""
        for pair in ((Const(0.0), Const(-0.0)), (Neg(Const(-0.0)), Neg(Const(0.0))), (Const(1), Const(1.0)),
                     (Add(Const(-0.0), Const(-0.0)), Add(Const(0.0), Const(-0.0)))):
            assert pair[0] == pair[1]
            for e in pair * 2:
                assert outcome(eval_payoff, e, [1.0]) == outcome(reference_eval_payoff, e, [1.0])

    def test_non_expression_rejected(self):
        for bad in (NOT_AN_EXPRESSION, [1.0], Neg(NOT_AN_EXPRESSION)):
            with pytest.raises(TypeError, match="not a payoff expression"):
                eval_payoff(bad, [1.0])

    @pytest.mark.parametrize("e", CRAFTED, ids=repr)
    def test_crafted_nodes_are_data(self, e):
        """Indices, constants and stray nodes are values of the compiled
        function, never its source: each gives the interpreter's value or
        exception."""
        for prices in ([1.0], [10.0, 12.0, 9.6], (7.0, 0.0)):
            assert outcome(eval_payoff, e, prices) == outcome(reference_eval_payoff, e, prices)

    @pytest.mark.parametrize("shape", ORDERED, ids=lambda shape: print_payoff(shape(PriceAt)))
    def test_nodes_evaluate_in_the_interpreter_order(self, shape):
        def evaluated(evaluate):
            log = []
            e = shape(lambda i: PriceAt(LoggedIndex(i, log)))
            outcome(evaluate, e, [3.0, 0.0, 2.0, 5.0])
            return [int(i) for i in log]

        assert evaluated(eval_payoff) == evaluated(reference_eval_payoff)


class TestTerminalOnly:
    @pytest.mark.parametrize("text, expected", [
        ("call(98)", True), ("put(98)", True), ("forward(98)", True), ("S_T / (S_T - 1)", True),
        ("pos(-max(S_T, 2) * 3)", True), ("7", True), ("lookback", False), ("avg(S) - 1", False),
        ("min(S)", False), ("S_T - S[0]", False), ("max(S_T, pos(S[2]))", False),
    ])
    def test_reads_only_the_terminal_price(self, text, expected):
        assert terminal_only(parse_payoff(text)) is expected

    def test_non_expression_rejected(self):
        with pytest.raises(TypeError, match="not a payoff expression"):
            terminal_only(Add(TerminalPrice(), NOT_AN_EXPRESSION))


BINARY_NODES = [Add, Sub, Mul, Div, Max2, Min2]


class TestBinaryNodes:
    @pytest.mark.parametrize("node", BINARY_NODES, ids=lambda node: node.__name__)
    def test_each_operator_is_its_own_class(self, node):
        left, right = PriceAt(1), Const(2.0)
        e = node(left, right)
        assert [e == other(left, right) for other in BINARY_NODES] == [
            other is node for other in BINARY_NODES
        ]
        assert repr(e) == f"{node.__name__}(left=PriceAt(index=1), right=Const(value=2.0))"
        copy = pickle.loads(pickle.dumps(e))
        assert type(copy) is node and copy == e and hash(copy) == hash(e)


class TestCompileSlot:
    def test_terminal_payoffs_compiles_once_per_call(self, monkeypatch):
        """Evaluating one expression on every path compiles it once, even
        when calls alternate between two expressions."""
        compiled = []
        compile_node = payoff_module._compile
        monkeypatch.setattr(
            payoff_module, "_compile", lambda e: compiled.append(e) or compile_node(e)
        )
        crr = CrrMarket(PARAMS, horizon=6)
        first, second = parse_payoff("lookback"), parse_payoff("avg(S) - 10")
        counts = []
        for e in (first, second, first, first, second):
            compiled.clear()
            terminal_payoffs(crr, e, 6)
            counts.append(sum(node is e for node in compiled))
        # at most once per call of 64 paths; a repeat call reuses the closure
        assert max(counts) == 1 and counts[3] == 0
