"""The value classes: repr, equality, hash, pickling, ``match`` and immutability.

Every value class of the package keeps the behaviour it had as a frozen
dataclass, except that any assignment or deletion raises ``AttributeError``.
"""
import copy
import pickle

import pytest

from crrpricing.crr import CrrParams
from crrpricing.lattice import PathMeasure, TossPath
from crrpricing.market import Asset
from crrpricing.payoff import (
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
    PosPart,
    PriceAt,
    Sub,
    TerminalPrice,
    _Token,
)
from crrpricing.pricing import ArbitrageVerdict

OPERANDS = "left=PriceAt(index=1), right=Const(value=2.0)"

# (value, its repr, its fields in order)
VALUES = [
    (Asset("S"), "Asset(id='S')", ("id",)),
    (TossPath((True, False)), "TossPath(outcomes=(True, False))", ("outcomes",)),
    (TossPath(), "TossPath(outcomes=())", ("outcomes",)),
    (PathMeasure(0.5), "PathMeasure(p=0.5)", ("p",)),
    (
        CrrParams(1.2, 0.8, 10.0, 0.03, 0.5),
        "CrrParams(u=1.2, d=0.8, v=10.0, r=0.03, p=0.5)",
        ("u", "d", "v", "r", "p"),
    ),
    (
        ArbitrageVerdict(1, "none"),
        "ArbitrageVerdict(witness_time=1, violated_clause='none')",
        ("witness_time", "violated_clause"),
    ),
    (
        ArbitrageVerdict(None, "init-nonzero"),
        "ArbitrageVerdict(witness_time=None, violated_clause='init-nonzero')",
        ("witness_time", "violated_clause"),
    ),
    (Const(2.0), "Const(value=2.0)", ("value",)),
    (Const(-0.0), "Const(value=-0.0)", ("value",)),
    (PriceAt(3), "PriceAt(index=3)", ("index",)),
    (TerminalPrice(), "TerminalPrice()", ()),
    (PathMax(), "PathMax()", ()),
    (PathMin(), "PathMin()", ()),
    (PathAvg(), "PathAvg()", ()),
    (Neg(Const(1.0)), "Neg(operand=Const(value=1.0))", ("operand",)),
    (PosPart(TerminalPrice()), "PosPart(operand=TerminalPrice())", ("operand",)),
    (_Token("number", "1", 0), "_Token(kind='number', text='1', pos=0)", ("kind", "text", "pos")),
] + [
    (node(PriceAt(1), Const(2.0)), f"{node.__name__}({OPERANDS})", ("left", "right"))
    for node in (Add, Sub, Mul, Div, Max2, Min2)
]


def fields(value):
    return tuple(getattr(value, name) for name in type(value).__match_args__)


@pytest.mark.parametrize("value, text, names", VALUES, ids=[text for _, text, _ in VALUES])
class TestValueContract:
    def test_repr(self, value, text, names):
        assert repr(value) == text

    def test_fields_are_the_match_args(self, value, text, names):
        assert type(value).__match_args__ == names

    def test_equal_and_hashed_by_class_and_fields(self, value, text, names):
        twin = type(value)(*fields(value))
        assert twin == value and not twin != value
        assert hash(twin) == hash(value) == hash(fields(value))
        assert value != fields(value)
        assert value.__eq__(fields(value)) is NotImplemented

    def test_pickle_and_copy_round_trips(self, value, text, names):
        for twin in (
            pickle.loads(pickle.dumps(value)),
            copy.copy(value),
            copy.deepcopy(value),
        ):
            assert type(twin) is type(value)
            assert twin == value and repr(twin) == text

    def test_repr_builds_the_value_by_field_name(self, value, text, names):
        assert eval(repr(value)) == value

    def test_one_field_too_few_is_a_type_error(self, value, text, names):
        if not names:
            pytest.skip("a class without fields cannot be given one too few")
        if type(value) is TossPath:
            assert TossPath() == TossPath(outcomes=())  # the one field with a default
            return
        with pytest.raises(TypeError):
            type(value)(*fields(value)[:-1])

    def test_one_field_too_many_is_a_type_error(self, value, text, names):
        with pytest.raises(TypeError):
            type(value)(*fields(value), fields(value)[-1] if names else None)

    def test_a_field_given_twice_is_a_type_error(self, value, text, names):
        if not names:
            pytest.skip("a class without fields has no field to repeat")
        with pytest.raises(TypeError):
            type(value)(*fields(value), **{names[0]: fields(value)[0]})

    def test_an_unknown_keyword_is_a_type_error(self, value, text, names):
        with pytest.raises(TypeError):
            type(value)(*fields(value), foo=1)

    @pytest.mark.parametrize("name", ["field", "foo"])
    def test_assigning_or_deleting_raises_attribute_error(self, value, text, names, name):
        name = names[0] if name == "field" and names else name
        with pytest.raises(AttributeError, match=f"^cannot assign to or delete {name!r}"):
            setattr(value, name, 1)
        with pytest.raises(AttributeError, match=f"^cannot assign to or delete {name!r}"):
            delattr(value, name)
        assert repr(value) == text


class TestEquality:
    def test_signed_zeros_are_equal_constants(self):
        assert Const(0.0) == Const(-0.0)
        assert hash(Const(0.0)) == hash(Const(-0.0))

    def test_same_fields_different_class_differ(self):
        assert TerminalPrice() != PathMax()
        assert Add(Const(1.0), Const(1.0)) != Sub(Const(1.0), Const(1.0))
        assert Neg(Const(1.0)) != PosPart(Const(1.0))

    def test_different_fields_differ(self):
        assert TossPath((True,)) != TossPath((False,))
        assert ArbitrageVerdict(1, "none") != ArbitrageVerdict(2, "none")

    def test_keyword_arguments_and_defaults(self):
        assert TossPath() == TossPath(outcomes=[])
        assert CrrParams(u=1.2, d=0.8, v=10.0, r=0.03, p=0.5) == CrrParams(1.2, 0.8, 10.0, 0.03, 0.5)
        assert ArbitrageVerdict(witness_time=None, violated_clause="none").witness_time is None


class TestPositionalMatch:
    def test_every_field_binds_in_order(self):
        values = (
            CrrParams(1.2, 0.8, 10.0, 0.03, 0.5), ArbitrageVerdict(3, "none"),
            _Token("sym", "(", 4), Asset("rf"), TossPath((True,)), PathMeasure(0.25),
        )
        match values:
            case (
                CrrParams(u, d, v, r, p), ArbitrageVerdict(time, clause),
                _Token(kind, text, pos), Asset(name), TossPath(outcomes), PathMeasure(q),
            ):
                assert (u, d, v, r, p) == (1.2, 0.8, 10.0, 0.03, 0.5)
                assert (time, clause, kind, text, pos) == (3, "none", "sym", "(", 4)
                assert (name, outcomes, q) == ("rf", (True,), 0.25)
            case _:
                pytest.fail("a positional pattern did not match")

    def test_nested_patterns_match_by_class(self):
        match Max2(PriceAt(2), Neg(Const(1.0))):
            case Add():
                pytest.fail("a Max2 node matched Add")
            case Max2(PriceAt(i), Neg(Const(c))):
                assert (i, c) == (2, 1.0)
            case _:
                pytest.fail("a Max2 node did not match Max2")

