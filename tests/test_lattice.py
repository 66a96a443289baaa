"""Lattice layer: path enumeration, Bernoulli weights, expectation operators."""
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crrpricing.lattice import (
    MAX_HORIZON,
    LatticeProcess,
    PathMeasure,
    TossPath,
    enumerate_paths,
    expectation,
    iter_paths,
    label_at,
    prefix_labels,
)
from crrpricing.reference import conditional_expectation_step, is_measurable_at, path_probability


def path(label: str) -> TossPath:
    return TossPath.from_label(label)


def random_process(horizon: int, rng: random.Random) -> LatticeProcess:
    table = {
        (n, w): rng.uniform(-10, 10)
        for n in range(horizon + 1)
        for w in enumerate_paths(n)
    }
    return LatticeProcess.from_table(horizon, table)


class TestTossPath:
    def test_equality_requires_length_and_outcomes(self):
        assert path("UD") == path("UD")
        assert path("UD") != path("UDU")
        assert path("UD") != path("DU")

    def test_label_round_trip(self):
        for text in ("-", "U", "D", "UDU", "DDDD"):
            assert path(text).label() == text
        assert TossPath.from_label("").label() == "-"

    def test_bad_label_rejected(self):
        with pytest.raises(ValueError):
            TossPath.from_label("UX")

    def test_child_appends(self):
        assert path("U").child(False) == path("UD")

    @pytest.mark.parametrize("outcomes", [(1, 0), (True, 1), (True, None)])
    def test_non_bool_outcomes_rejected(self, outcomes):
        with pytest.raises(ValueError, match="booleans"):
            TossPath(outcomes)

    def test_numpy_bool_rejected(self):
        numpy = pytest.importorskip("numpy")
        with pytest.raises(ValueError, match="booleans"):
            TossPath((numpy.bool_(True),))

    def test_bool_outcomes_accepted(self):
        assert TossPath([True, False]).outcomes == (True, False)
        assert TossPath(()).outcomes == ()

    def test_str_is_the_label(self):
        assert str(TossPath((True, False))) == "UD"
        assert str(TossPath()) == "-"


class TestIndex:
    @pytest.mark.parametrize("n", range(9))
    def test_inverts_enumeration_order(self, n):
        assert [w.index() for w in enumerate_paths(n)] == list(range(2**n))

    def test_children_at_double_and_double_plus_one(self):
        for w in enumerate_paths(5):
            assert w.child(True).index() == 2 * w.index()
            assert w.child(False).index() == 2 * w.index() + 1


class TestPrefixLabels:
    def test_levels_match_label_of_each_path(self):
        expected = [
            ["".join("U" if o else "D" for o in w) or "-" for w in enumerate_paths(n)]
            for n in range(9)
        ]
        assert [[w.label() for w in enumerate_paths(n)] for n in range(9)] == expected
        assert list(prefix_labels(8)) == expected
        assert [[label_at(n, k) for k in range(1 << n)] for n in range(9)] == expected

    def test_horizon_cap_enforced(self):
        with pytest.raises(ValueError, match="cap"):
            next(prefix_labels(MAX_HORIZON + 1))


class TestEnumeratePaths:
    def test_horizon_zero_single_empty_path(self):
        assert enumerate_paths(0) == [TossPath()]

    def test_horizon_one(self):
        assert enumerate_paths(1) == [path("U"), path("D")]

    def test_horizon_two_matches_outcome_column(self):
        # up-up, up-down, down-up, down-down
        assert enumerate_paths(2) == [path("UU"), path("UD"), path("DU"), path("DD")]

    @pytest.mark.parametrize("T", [0, 1, 3, 6])
    def test_counts_and_determinism(self, T):
        first = enumerate_paths(T)
        assert len(first) == 2**T
        assert first == enumerate_paths(T)

    def test_horizon_cap_enforced(self):
        with pytest.raises(ValueError, match="cap"):
            enumerate_paths(MAX_HORIZON + 1)


class TestTruncate:
    def test_prefix(self):
        assert path("UDU").truncate(2) == path("UD")

    def test_to_empty(self):
        assert path("UD").truncate(0) == TossPath()

    def test_identity(self):
        assert path("DD").truncate(2) == path("DD")

    def test_beyond_length_rejected(self):
        with pytest.raises(ValueError):
            path("UD").truncate(3)


class TestPathProbability:
    def test_two_up_weight(self):
        m = PathMeasure(0.575)
        assert path_probability(m, path("UU")) == pytest.approx(0.330625, abs=1e-12)

    def test_two_down_weight(self):
        m = PathMeasure(0.575)
        assert path_probability(m, path("DD")) == pytest.approx(0.180625, abs=1e-12)

    def test_empty_path_has_probability_one(self):
        assert path_probability(PathMeasure(0.123), TossPath()) == 1.0

    def test_empty_path_probability_is_the_float_weight(self):
        assert path_probability(PathMeasure(0.5), TossPath()).hex() == PathMeasure(0.5).weights(0)[0].hex()

    @given(p=st.floats(0.0, 1.0), T=st.integers(0, 8))
    @settings(max_examples=60)
    def test_weights_sum_to_one(self, p, T):
        m = PathMeasure(p)
        total = math.fsum(path_probability(m, w) for w in enumerate_paths(T))
        assert abs(total - 1.0) <= 1e-12

    def test_measure_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            PathMeasure(1.5)


class TestExpectation:
    def test_constant_process(self):
        f = LatticeProcess.constant(3, 4.25)
        for p in (0.0, 0.3, 1.0):
            assert expectation(PathMeasure(p), f, 2) == pytest.approx(4.25, abs=1e-12)

    def test_discounted_lookback_value(self):
        # discounted terminal payoffs of the two-period lookback example,
        # weighted with up-probability 0.575
        payoff = {"UU": 0.0, "UD": 2.4, "DU": 0.4, "DD": 3.6}
        f = LatticeProcess(
            2, lambda n: [payoff[w.label()] / 1.03**2 if n == 2 else 0.0 for w in iter_paths(n)]
        )
        got = expectation(PathMeasure(0.575), f, 2)
        assert got == pytest.approx(1.2579, abs=5e-4)

    def test_matches_brute_force_over_full_paths(self):
        # oracle: extend the time-n value constantly along children and sum
        # over the 8 full paths with inlined per-toss weights
        rng = random.Random(20240811)
        for p in (0.2, 0.575, 0.9):
            f = random_process(3, rng)
            for n in range(4):
                brute = math.fsum(
                    math.prod(p if o else 1 - p for o in w)
                    * f.at(n, w.truncate(n))
                    for w in enumerate_paths(3)
                )
                assert expectation(PathMeasure(p), f, n) == pytest.approx(
                    brute, abs=1e-12
                )

    def test_beyond_horizon_rejected(self):
        with pytest.raises(ValueError):
            expectation(PathMeasure(0.5), LatticeProcess.constant(2, 0.0), 3)


class TestConditionalExpectationStep:
    def test_constant_children(self):
        f = LatticeProcess.constant(2, 7.0)
        got = conditional_expectation_step(PathMeasure(0.3), f, 1, path("U"))
        assert got == 7.0

    def test_lookback_up_node(self):
        # option values one step after an initial up move: 0 (up) and 2.4 (down)
        values = {"UU": 0.0, "UD": 2.4, "DU": 0.4, "DD": 3.6}
        f = LatticeProcess(
            2, lambda n: [values[w.label()] if n == 2 else 0.0 for w in iter_paths(n)]
        )
        step = conditional_expectation_step(PathMeasure(0.575), f, 1, path("U"))
        assert step == pytest.approx(1.02, abs=1e-12)
        assert step / 1.03 == pytest.approx(0.9903, abs=5e-4)

    def test_symmetric_measure(self):
        table = {"UU": 1.0, "UD": 0.0, "DU": 0.0, "DD": 0.0}
        f = LatticeProcess(
            2, lambda n: [table[w.label()] if n == 2 else 0.0 for w in iter_paths(n)]
        )
        got = conditional_expectation_step(PathMeasure(0.5), f, 1, path("U"))
        assert got == 0.5

    def test_prefix_length_mismatch_rejected(self):
        f = LatticeProcess.constant(2, 0.0)
        with pytest.raises(ValueError):
            conditional_expectation_step(PathMeasure(0.5), f, 1, path("UD"))

    def test_horizon_overflow_rejected(self):
        f = LatticeProcess.constant(1, 0.0)
        with pytest.raises(ValueError):
            conditional_expectation_step(PathMeasure(0.5), f, 1, path("U"))


class TestIsMeasurableAt:
    def test_terminal_price_payoff_measurable_at_maturity(self):
        prices = {w: 10 * math.prod(1.2 if o else 0.8 for o in w) for w in enumerate_paths(2)}
        f = lambda w: max(prices[w] - 9.0, 0.0)
        assert is_measurable_at(f, 2, 2)

    def test_later_toss_breaks_measurability(self):
        f = lambda w: 1.0 if w[2] else 0.0
        assert not is_measurable_at(f, 3, 2)
        assert is_measurable_at(f, 3, 3)

    def test_lookback_payoff_measurable_at_maturity(self):
        def lookback(w):
            prices = [10.0]
            for o in w:
                prices.append(prices[-1] * (1.2 if o else 0.8))
            return max(prices) - prices[-1]

        assert is_measurable_at(lookback, 2, 2)

    def test_horizon_is_checked_before_the_time(self):
        f = lambda w: 0.0
        with pytest.raises(ValueError, match="^horizon 25 exceeds the exhaustive-enumeration cap 24"):
            is_measurable_at(f, 25, 30)
        with pytest.raises(ValueError, match="^time 3 outside lattice horizon 2$"):
            is_measurable_at(f, 2, 3)


class TestLatticeProcessDomain:
    def test_from_table_requires_exact_cover(self):
        table = {(0, TossPath()): 1.0, (1, path("U")): 2.0}
        with pytest.raises(ValueError, match="covers"):
            LatticeProcess.from_table(1, table)

    def test_from_table_rejects_foreign_keys(self):
        table = {
            (0, TossPath()): 1.0,
            (1, path("U")): 2.0,
            (1, path("D")): 3.0,
            (2, path("UU")): 4.0,
        }
        with pytest.raises(ValueError, match="node"):
            LatticeProcess.from_table(1, table)

    def test_from_table_rejects_bare_tuple_prefixes(self):
        table = {(0, ()): 1.0, (1, (True,)): 2.0, (1, (False,)): 3.0}
        with pytest.raises(ValueError, match="node"):
            LatticeProcess.from_table(1, table)

    def test_level_of_the_wrong_length_is_rejected(self):
        f = LatticeProcess(2, lambda n: [0.0] * (n + 1))
        assert f.level(1) == [0.0, 0.0]
        with pytest.raises(ValueError, match="^time-2 level has 3 values, expected 4$"):
            f.level(2)

    def test_at_validates_key_shape(self):
        f = LatticeProcess.constant(2, 0.0)
        with pytest.raises(ValueError):
            f.at(3, path("UUU"))
        with pytest.raises(ValueError):
            f.at(1, path("UD"))

    def test_level_lists_values_in_enumeration_order(self):
        f = LatticeProcess(3, lambda n: [n + k / 10 for k in range(1 << n)])
        for n in range(4):
            assert f.level(n) == [f.at(n, w) for w in iter_paths(n)]
        assert f.level(2) == [2.0, 2.1, 2.2, 2.3]

    @pytest.mark.parametrize("n", [-1, 3])
    def test_level_rejects_times_outside_horizon(self, n):
        with pytest.raises(ValueError, match=f"^time {n} outside process horizon 2$"):
            LatticeProcess.constant(2, 0.0).level(n)

    def test_deterministic_needs_the_time_zero_value(self):
        with pytest.raises(ValueError, match="^need at least the time-0 value$"):
            LatticeProcess.deterministic([])


class TestLatticeLaws:
    """Exact probabilistic identities on the finite lattice."""

    def test_tower_property(self):
        rng = random.Random(7)
        T = 5
        f = random_process(T, rng)
        m = PathMeasure(0.41)
        for n in range(T + 1):
            extended = math.fsum(
                path_probability(m, w) * f.at(n, w.truncate(n))
                for w in enumerate_paths(T)
            )
            assert abs(extended - expectation(m, f, n)) <= 1e-12

    def test_conditional_step_of_constant_pair_is_exact(self):
        f = LatticeProcess(2, lambda n: [3.7] * (1 << n))
        got = conditional_expectation_step(PathMeasure(0.123456), f, 1, path("D"))
        assert got == 3.7

    def test_law_of_total_expectation(self):
        rng = random.Random(99)
        T = 6
        f = random_process(T, rng)
        for p in (0.25, 0.575):
            m = PathMeasure(p)
            for n in range(T):
                g = LatticeProcess(
                    n, lambda k: [conditional_expectation_step(m, f, k, w) for w in iter_paths(k)]
                )
                lhs = expectation(m, g, n)
                rhs = expectation(m, f, n + 1)
                assert abs(lhs - rhs) <= 1e-12
