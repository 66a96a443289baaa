"""Pricing, replication, and the martingale/arbitrage verification layer."""
import collections
import csv
import io
import itertools
import json
import math
import random
from typing import get_args
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import crrpricing
from crrpricing import cli, market, pricing
from crrpricing import crr as crr_module
from crrpricing.crr import (
    CrrMarket,
    CrrParams,
    MarketNotViableError,
    disc_rfr_proc,
    discounted_value,
    price_path,
    risk_neutral_q,
)
from crrpricing.lattice import (
    LatticeProcess,
    PathMeasure,
    TossPath,
    conditional_expectation_step,
    enumerate_paths,
    expectation,
    iter_paths,
    path_probability,
    prefix_labels,
)
from crrpricing.market import (
    Asset,
    Market,
    PortfolioFormatError,
    closing_value_level,
    closing_value_process,
    init_value,
    qty_empty,
    qty_single,
    qty_sum,
    QuantityProcess,
    quantities_allclose,
    read_portfolio_csv,
    write_portfolio_csv,
)
from crrpricing.payoff import PayoffEvalError, PayoffExpr, eval_payoff, parse_payoff
from crrpricing.pricing import (
    ArbitrageVerdict,
    PriceLattice,
    construct_arbitrage,
    fair_price,
    is_arbitrage_process,
    is_martingale,
    is_risk_neutral,
    martingale_residual,
    one_step_no_arbitrage_check,
    price_lattice,
    replicating_portfolio,
    terminal_payoffs,
    verify_replication,
)

PARAMS = CrrParams(u=1.2, d=0.8, v=10.0, r=0.03, p=0.5)
INVIABLE = CrrParams(u=1.2, d=0.8, v=10.0, r=0.25, p=0.5)


def path(label: str) -> TossPath:
    return TossPath.from_label(label)


@pytest.fixture
def crr() -> CrrMarket:
    return CrrMarket(PARAMS, horizon=4)


class TestFairPrice:
    def test_lookback_reference_value(self, crr):
        assert fair_price(crr, parse_payoff("lookback"), 2) == pytest.approx(
            1.2579, abs=5e-4
        )

    def test_forward_reference_value(self):
        crr = CrrMarket(CrrParams(u=1.1, d=0.95, v=95.0, r=0.02, p=0.5), horizon=2)
        price = fair_price(crr, parse_payoff("forward(98)"), 2)
        assert price == pytest.approx(95 - 98 * 1.02**-2, abs=1e-9)
        assert round(price, 2) == 0.81

    def test_constant_payoff_discounts(self, crr):
        got = fair_price(crr, parse_payoff("7"), 3)
        assert got == pytest.approx(7 * 1.03**-3, abs=1e-12)

    def test_inviable_market_rejected(self):
        crr = CrrMarket(INVIABLE, horizon=2)
        with pytest.raises(MarketNotViableError, match="no risk-neutral measure"):
            fair_price(crr, parse_payoff("call(10)"), 2)

    def test_non_payoff_rejected(self, crr):
        with pytest.raises(TypeError, match="^cannot interpret str as a payoff$"):
            terminal_payoffs(crr, "lookback", 2)

    def test_matches_independent_path_sum(self, crr):
        # oracle: loop over terminal paths, multiplying out weights by hand
        expr = parse_payoff("call(9)")
        q = risk_neutral_q(PARAMS)
        total = 0.0
        for w in enumerate_paths(3):
            prices = [10.0]
            for o in w:
                prices.append(prices[-1] * (1.2 if o else 0.8))
            weight = math.prod(q if o else 1 - q for o in w)
            total += weight * max(prices[-1] - 9.0, 0.0)
        assert fair_price(crr, expr, 3) == pytest.approx(total / 1.03**3, abs=1e-12)

    def test_path_table_payoff(self, crr):
        level = [0.0, 2.4, 0.4, 3.6]  # UU, UD, DU, DD
        assert fair_price(crr, level, 2) == pytest.approx(1.2579, abs=5e-4)

    def test_callable_payoff(self, crr):
        # depends on raw tosses, not prices: outside the expression grammar
        last_toss_up = lambda w: 1.0 if w[-1] else 0.0
        with pytest.raises(TypeError, match="^cannot interpret function as a payoff$"):
            fair_price(crr, last_toss_up, 1)
        # a function of the tosses is priced as its maturity level
        got = fair_price(crr, [last_toss_up(w) for w in iter_paths(1)], 1)
        assert got == pytest.approx(0.575 / 1.03, abs=1e-12)

    def test_incomplete_path_table_rejected(self, crr):
        with pytest.raises(ValueError, match=r"^payoff level has 1 values, expected 4$"):
            fair_price(crr, [1.0], 2)

    def test_fixed_index_beyond_maturity_rejected(self, crr):
        with pytest.raises(PayoffEvalError, match=r"S\[3\]"):
            fair_price(crr, parse_payoff("S[3]"), 2)

    def test_non_finite_payoff_names_path(self, crr):
        expr = parse_payoff("1 / (S_T - 6.4)")
        with pytest.raises(PayoffEvalError, match="DD"):
            fair_price(crr, expr, 2)


class TestPriceLattice:
    def test_lookback_node_values(self, crr):
        tree = price_lattice(crr, parse_payoff("lookback"), 2)
        assert tree.at(1, path("U")) == pytest.approx(0.9903, abs=5e-4)
        assert tree.at(1, path("D")) == pytest.approx(1.7087, abs=5e-4)
        assert tree.root == pytest.approx(1.2579, abs=5e-4)

    def test_terminal_layer_is_payoff(self, crr):
        expr = parse_payoff("lookback")
        tree = price_lattice(crr, expr, 2)
        for w, value in zip(iter_paths(2), terminal_payoffs(crr, expr, 2)):
            assert tree.at(2, w) == value

    def test_interior_recursion_holds(self, crr):
        tree = price_lattice(crr, parse_payoff("call(9)"), 3)
        q = risk_neutral_q(PARAMS)
        for n in range(3):
            for w in iter_paths(n):
                expected = (
                    q * tree.at(n + 1, w.child(True))
                    + (1 - q) * tree.at(n + 1, w.child(False))
                ) / 1.03
                assert abs(tree.at(n, w) - expected) <= 1e-12

    def test_worthless_call_everywhere_zero(self, crr):
        tree = price_lattice(crr, parse_payoff("call(1000)"), 3)
        assert all(tree.at(n, w) == 0.0 for n in range(4) for w in iter_paths(n))

    def test_root_matches_fair_price(self, crr):
        expr = parse_payoff("put(11)")
        tree = price_lattice(crr, expr, 4)
        assert tree.root == pytest.approx(fair_price(crr, expr, 4), abs=1e-9)

    def test_csv_rows_deterministic(self, crr):
        tree = price_lattice(crr, parse_payoff("lookback"), 2)
        assert tree.to_csv() == tree.to_csv()
        assert tree.to_csv().splitlines()[0] == "time,prefix,value"

    def test_levels_follow_enumeration_order(self, crr):
        tree = price_lattice(crr, parse_payoff("lookback"), 3)
        assert [len(level) for level in tree.levels] == [1, 2, 4, 8]
        for n, level in enumerate(tree.levels):
            assert level == [tree.at(n, w) for w in iter_paths(n)]

    def test_at_rejects_bad_time(self, crr):
        tree = price_lattice(crr, parse_payoff("lookback"), 2)
        for n in (-1, 3):
            with pytest.raises(ValueError, match=f"^time {n} outside process horizon 2$"):
                tree.at(n, TossPath((True,) * max(n, 0)))

    def test_maturity_is_the_last_level(self):
        tree = PriceLattice([[1.0], [2.0, 3.0]])
        assert tree.horizon == 1
        assert tree.at(1, path("D")) == 3.0
        assert tree.to_csv() == "time,prefix,value\n0,-,1.0\n1,U,2.0\n1,D,3.0\n"

    @pytest.mark.parametrize("levels", [[], [[1.0], [2.0]], [[1.0, 2.0]], [[1.0], [2.0, 3.0], [4.0]]])
    def test_levels_of_wrong_lengths_rejected(self, levels):
        with pytest.raises(ValueError):
            PriceLattice(levels)

    def test_is_a_lattice_process_over_its_levels(self, crr):
        tree = price_lattice(crr, parse_payoff("lookback"), 3)
        assert isinstance(tree, LatticeProcess)
        assert [tree.level(n) for n in range(4)] == tree.levels
        q = crr.risk_neutral_measure()
        assert expectation(q, tree, 0) == tree.root

    def test_at_rejects_bad_prefix_length(self, crr):
        tree = price_lattice(crr, parse_payoff("lookback"), 2)
        message = "^time-1 values are keyed by length-1 prefixes, got length 2$"
        with pytest.raises(ValueError, match=message):
            tree.at(1, path("UD"))

    def test_induction_disagreeing_with_expectation_raises(self, crr, monkeypatch):
        expr = parse_payoff("lookback")
        root = price_lattice(crr, expr, 2).root
        monkeypatch.setattr(pricing, "fair_price", lambda *args: root + 1e-6)
        with pytest.raises(RuntimeError) as info:
            price_lattice(crr, expr, 2)
        assert str(info.value) == (
            f"internal consistency failure: backward induction gives {root!r} "
            f"but direct expectation gives {root + 1e-6!r}"
        )


class TestReplicatingPortfolio:
    def test_lookback_hedge_quantities(self, crr):
        p = replicating_portfolio(crr, parse_payoff("lookback"), 2)
        root = TossPath()
        assert p.quantity(crr.risky, 1, root) == pytest.approx(-0.1796, abs=5e-4)
        assert p.quantity(crr.riskfree, 1, root) == pytest.approx(3.0539, abs=5e-4)
        assert p.quantity(crr.risky, 2, path("U")) == pytest.approx(-0.5, abs=5e-4)
        assert p.quantity(crr.risky, 2, path("D")) == pytest.approx(-1.0, abs=5e-4)

    def test_hedge_of_stock_is_stock(self, crr):
        p = replicating_portfolio(crr, parse_payoff("S_T"), 3)
        for n in range(1, 4):
            for w in iter_paths(n - 1):
                assert p.quantity(crr.risky, n, w) == pytest.approx(1.0, abs=1e-12)
                assert p.quantity(crr.riskfree, n, w) == pytest.approx(0.0, abs=1e-12)
        assert init_value(crr, p) == pytest.approx(10.0, abs=1e-12)

    def test_inviable_market_rejected(self):
        crr = CrrMarket(INVIABLE, horizon=2)
        with pytest.raises(MarketNotViableError):
            replicating_portfolio(crr, parse_payoff("call(10)"), 2)

    def test_maturity_zero_rejected(self, crr):
        with pytest.raises(ValueError, match="^replication needs at least one trading period$"):
            replicating_portfolio(crr, parse_payoff("7"), 0)


class TestVerifyReplication:
    def test_synthesized_hedge_verifies(self, crr):
        expr = parse_payoff("lookback")
        p = replicating_portfolio(crr, expr, 2)
        report = verify_replication(crr, p, expr, 2)
        assert report.is_replicating()
        assert report.max_terminal_error <= 1e-9
        assert report.init_value == pytest.approx(1.2579, abs=5e-4)

    def test_empty_portfolio_fails_terminal_clause(self, crr):
        report = verify_replication(crr, qty_empty(2), parse_payoff("lookback"), 2)
        assert not report.is_replicating()
        assert report.max_terminal_error == pytest.approx(3.6, abs=1e-12)
        assert report.self_financing

    def test_perturbed_delta_detected(self, crr):
        expr = parse_payoff("lookback")
        p = replicating_portfolio(crr, expr, 2)
        bumped = qty_sum(
            p,
            qty_single(
                crr.risky,
                lambda n, w: 0.01 if (n, w.label()) == (2, "U") else 0.0,
                horizon=2,
            ),
        )
        report = verify_replication(crr, bumped, expr, 2)
        assert not report.is_replicating(), (
            "a 0.01 hedge error must break self-financing or the terminal match"
        )

    def test_nan_holding_not_certified(self, crr):
        expr = parse_payoff("call(10)")
        p = replicating_portfolio(crr, expr, 3)
        bumped = qty_sum(
            p, qty_single(crr.risky, lambda n, w: math.nan if n == 1 else 0.0, horizon=3)
        )
        report = verify_replication(crr, bumped, expr, 3)
        assert not report.self_financing
        assert not report.is_replicating()

    def test_nan_terminal_error_after_numbers_propagates(self):
        crr = CrrMarket(PARAMS, horizon=3)
        expr = parse_payoff("call(10)")
        p = replicating_portfolio(crr, expr, 3)
        dd = path("DD")
        bumped = qty_sum(
            p, qty_single(crr.risky, lambda n, w: math.nan if n == 3 and w == dd else 0.0, horizon=3)
        )
        report = verify_replication(crr, bumped, expr, 3)
        assert math.isnan(report.max_terminal_error)
        assert not report.is_replicating()

    def test_tolerance_reaches_self_financing_clause(self):
        big = CrrMarket(CrrParams(u=1.15, d=0.9, v=1e9, r=0.02, p=0.5), horizon=6)
        expr = parse_payoff("call(1e9)")
        p = replicating_portfolio(big, expr, 6)
        assert not verify_replication(big, p, expr, 6, tol=1e-18).self_financing
        report = verify_replication(big, p, expr, 6, tol=1e-6)
        assert report.self_financing and report.is_replicating()

    def test_non_stock_support_rejected(self, crr):
        alien = qty_single(crr.extra, lambda n, w: 1.0, horizon=2)
        with pytest.raises(ValueError, match="stock portfolio"):
            verify_replication(crr, alien, parse_payoff("lookback"), 2)

    def test_non_stock_support_has_its_own_error_class(self, crr):
        alien = qty_single(crr.extra, lambda n, w: 1.0, horizon=2)
        with pytest.raises(pricing.NotStockPortfolioError) as info:
            verify_replication(crr, alien, parse_payoff("lookback"), 2)
        assert isinstance(info.value, ValueError)
        assert str(info.value) == f"not a stock portfolio: support contains {[crr.extra.id]}"
        assert "NotStockPortfolioError" not in crrpricing.__all__

    def test_portfolio_shorter_than_maturity_rejected(self, crr):
        expr = parse_payoff("lookback")
        with pytest.raises(ValueError, match="^portfolio trades until 2 but the payoff matures at 3$"):
            verify_replication(crr, replicating_portfolio(crr, expr, 2), expr, 3)


class TestMartingale:
    def test_discounted_risky_price_under_q(self, crr):
        deflated = discounted_value(PARAMS.r, crr.price(crr.risky))
        assert is_martingale(PathMeasure(0.575), deflated, 4)

    def test_discounted_risky_price_under_physical_measure(self, crr):
        deflated = discounted_value(PARAMS.r, crr.price(crr.risky))
        assert not is_martingale(PathMeasure(0.5), deflated, 4)
        assert martingale_residual(PathMeasure(0.5), deflated, 4) > 1e-4

    def test_constant_process(self):
        proc = LatticeProcess.constant(3, 5.0)
        for p in (0.1, 0.5, 0.9):
            assert is_martingale(PathMeasure(p), proc, 3)

    def test_horizon_past_the_process_rejected(self):
        with pytest.raises(ValueError, match="^horizon 4 outside process horizon 3$"):
            martingale_residual(PathMeasure(0.5), LatticeProcess.constant(3, 5.0), 4)

    def test_one_step_residual_formula(self, crr):
        # residual at the root under p: |v - (p u v + (1-p) d v)/(1+r)|
        deflated = discounted_value(PARAMS.r, crr.price(crr.risky))
        p = 0.52
        got = martingale_residual(PathMeasure(p), deflated, 1)
        expected = abs(10.0 - (p * 12.0 + (1 - p) * 8.0) / 1.03)
        assert got == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("n, k", [(0, 0), (2, 3)], ids=["root", "t=2"])
    def test_nan_node_is_no_martingale(self, n, k):
        # max() keeps the first of incomparable values: a NaN defect after the
        # zero ones must still make the residual NaN
        levels = [[5.0] * (1 << t) for t in range(4)]
        levels[n][k] = math.nan
        proc = LatticeProcess(3, levels.__getitem__)
        assert math.isnan(martingale_residual(PathMeasure(0.5), proc, 3))
        assert not is_martingale(PathMeasure(0.5), proc, 3)


@st.composite
def viable_claims(draw):
    d = draw(st.floats(0.5, 1.1))
    spread = draw(st.floats(0.05, 0.8))
    r = d + draw(st.floats(0.05, 0.95)) * spread - 1.0
    params = CrrParams(u=d + spread, d=d, v=draw(st.floats(1.0, 200.0)), r=r, p=draw(st.floats(0.01, 0.99)))
    maturity = draw(st.integers(0, 10))
    strike = draw(st.floats(0.5, 1.5)) * params.v
    text = draw(st.sampled_from([
        f"call({strike!r})", "lookback", f"avg(S) - {strike!r}", "max(S) - min(S) + pos(avg(S) - S_T)",
    ]))
    return CrrMarket(params, max(maturity, 1)), parse_payoff(text), maturity


class TestValueTreeIsMartingale:
    @settings(max_examples=100, deadline=None)
    @given(viable_claims())
    def test_discounted_value_tree_driftless_under_q(self, claim):
        # the paper's pricing argument: the deflated value process is a
        # q-martingale; deflated values reach max|payoff| / (1 + r)^T when r < 0
        crr, expr, maturity = claim
        r = crr.params.r
        tree = price_lattice(crr, expr, maturity)
        residual = martingale_residual(crr.risk_neutral_measure(), discounted_value(r, tree), maturity)
        scale = max(1.0, max(map(abs, tree.levels[-1]))) / min(1.0, disc_rfr_proc(r, maturity))
        assert residual <= 1e-12 * scale


class TestRiskNeutral:
    def test_risk_neutral_at_q(self, crr):
        assert is_risk_neutral(crr, PathMeasure(0.575))

    @pytest.mark.parametrize("shift", [-0.01, 0.01])
    def test_not_risk_neutral_off_q(self, crr, shift):
        assert not is_risk_neutral(crr, PathMeasure(0.575 + shift))

    def test_riskfree_asset_alone_is_always_driftless(self, crr):
        deflated = discounted_value(PARAMS.r, crr.price(crr.riskfree))
        for p in (0.1, 0.5, 0.99):
            assert is_martingale(PathMeasure(p), deflated, 4)

    def test_unique_on_fine_grid(self):
        crr = CrrMarket(PARAMS, horizon=3)
        q = risk_neutral_q(PARAMS)
        hits = [
            k / 1000
            for k in range(1, 1000)
            if is_risk_neutral(crr, PathMeasure(k / 1000))
        ]
        assert all(abs(p - q) <= 1e-3 for p in hits)
        assert hits, "the exact risk-neutral weight lies on this grid"


class TestArbitrage:
    def test_empty_portfolio_is_no_free_lunch(self, crr):
        verdict = is_arbitrage_process(crr, crr.measure(), qty_empty(4))
        assert not verdict.is_arbitrage
        assert verdict.violated_clause == "no-strict-gain"

    def test_constructed_arbitrage_certified(self):
        crr = CrrMarket(INVIABLE, horizon=3)
        p = construct_arbitrage(crr)
        verdict = is_arbitrage_process(crr, crr.measure(), p)
        assert verdict.is_arbitrage
        assert verdict.witness_time == 1

    def test_crr_market_is_the_market_of_its_prices(self):
        # the closing values and verdicts of the engine's own market object
        # are those of a plain Market over the same prices, bit for bit
        cases = [
            (CrrMarket(PARAMS, horizon=3), lambda c: replicating_portfolio(c, parse_payoff("lookback"), 3)),
            (CrrMarket(INVIABLE, horizon=3), construct_arbitrage),
        ]
        for crr, hedge in cases:
            plain, p = Market(crr.prices, crr.stocks), hedge(crr)
            for n in range(1, p.horizon + 1):
                assert closing_value_level(crr, p, n) == closing_value_level(plain, p, n)
            assert is_arbitrage_process(crr, crr.measure(), p) == is_arbitrage_process(plain, crr.measure(), p)

    def test_closing_values_and_verdicts_through_the_crr_market(self):
        crr = CrrMarket(PARAMS, horizon=3)
        hedge = replicating_portfolio(crr, parse_payoff("lookback"), 3)
        assert closing_value_level(crr, hedge, 2) == [
            1.1883495145631056, 2.0504854368932017, 0.9572815533980572, 3.308737864077668
        ]
        assert is_arbitrage_process(crr, crr.measure(), hedge) == ArbitrageVerdict(None, "init-nonzero")
        crr = CrrMarket(INVIABLE, horizon=3)
        p = construct_arbitrage(crr)
        assert closing_value_level(crr, p, 1) == [0.5, 4.5]
        assert is_arbitrage_process(crr, crr.measure(), p) == ArbitrageVerdict(1, "none")

    def test_low_rate_dominated_market(self):
        crr = CrrMarket(CrrParams(u=1.2, d=1.05, v=10, r=0.0, p=0.5), horizon=2)
        p = construct_arbitrage(crr)
        assert p.quantity(crr.risky, 1, TossPath()) == 1.0
        assert p.quantity(crr.riskfree, 1, TossPath()) == -10.0
        up = closing_value_process(crr, p, 1, path("U"))
        down = closing_value_process(crr, p, 1, path("D"))
        assert up == pytest.approx(2.0, abs=1e-12)
        assert down == pytest.approx(0.5, abs=1e-12)
        assert is_arbitrage_process(crr, crr.measure(), p).is_arbitrage

    def test_high_rate_dominated_market(self):
        crr = CrrMarket(CrrParams(u=1.1, d=0.9, v=10, r=0.2, p=0.5), horizon=2)
        p = construct_arbitrage(crr)
        up = closing_value_process(crr, p, 1, path("U"))
        down = closing_value_process(crr, p, 1, path("D"))
        assert up == pytest.approx(1.0, abs=1e-12)
        assert down == pytest.approx(3.0, abs=1e-12)
        assert is_arbitrage_process(crr, crr.measure(), p).is_arbitrage

    def test_certificate_trades_one_period_at_any_horizon(self):
        params = CrrParams(u=1.2, d=1.05, v=10, r=0.03, p=0.5)
        certified = []
        for horizon in (1, 24):
            crr = CrrMarket(params, horizon=horizon)
            p = construct_arbitrage(crr)
            verdict = is_arbitrage_process(crr, crr.measure(), p)
            values = closing_value_level(crr, p, 1)
            certified.append((p.horizon, sorted((a.id, t) for a, t in p.levels.items()), verdict, values))
        assert certified[0][:3] == (1, [("S", [[1.0]]), ("rf", [[-10.0]])], ArbitrageVerdict(1, "none"))
        assert repr(certified[1]) == repr(certified[0])

    def test_viable_market_has_no_construction(self, crr):
        with pytest.raises(ValueError, match="viable"):
            construct_arbitrage(crr)

    def test_nonzero_init_clause(self, crr):
        p = qty_single(crr.riskfree, lambda n, w: 1.0, horizon=4)
        verdict = is_arbitrage_process(crr, crr.measure(), p)
        assert verdict.violated_clause == "init-nonzero"

    def test_not_self_financing_clause(self, crr):
        p = qty_single(crr.riskfree, lambda n, w: 0.0 if n == 1 else 1.0, horizon=4)
        verdict = is_arbitrage_process(crr, crr.measure(), p)
        assert verdict.violated_clause == "not-self-financing"

    def test_row_tables_get_no_verdict(self, crr):
        rows = [(0, path("U"), "S", 1.0), (0, path("D"), "S", -1.0)]
        with pytest.raises(TypeError, match="expected a QuantityProcess, got list"):
            is_arbitrage_process(crr, crr.measure(), rows)

    @pytest.mark.parametrize("table", [
        "0,U,S,1.0\n0,D,S,-1.0\n",
        "0,-,S,1.0\n",
        "0,-,S,1.0\n0,-,S,2.0\n",
    ], ids=["peeking", "predictable", "conflicting"])
    def test_unknown_asset_id_is_reported_first(self, crr, table):
        """An unknown asset id is a format error before any conflict or
        predictability verdict, wherever its row is."""
        unknown = "0,-,X,1.0\n"
        for rows in (table + unknown, unknown + table):
            with pytest.raises(PortfolioFormatError, match="unknown asset id 'X'"):
                read_portfolio_csv("time,prefix,asset,quantity\n" + rows, crr.horizon, crr.assets)

    def test_conflicting_rows_of_known_assets_raise_the_conflict(self, crr):
        text = "time,prefix,asset,quantity\n1,U,S,1.0\n1,U,S,2.0\n"
        with pytest.raises(PortfolioFormatError, match=r"conflicting quantities for asset 'S' at \(t=1, U\)"):
            read_portfolio_csv(text, crr.horizon, crr.assets)

    def test_losing_portfolio_clause(self, crr):
        # short the stock, bank the proceeds: loses whenever the stock rallies
        p = qty_sum(
            qty_single(crr.risky, lambda n, w: -1.0, horizon=4),
            qty_single(crr.riskfree, lambda n, w: 10.0, horizon=4),
        )
        verdict = is_arbitrage_process(crr, crr.measure(), p)
        assert verdict.violated_clause == "negative-closing-value"

    def test_two_rate_portfolio_certified(self):
        horizon = 4
        low = Asset("rf-low")
        high = Asset("rf-high")
        slot = Asset("slot")
        mkt = Market(
            prices={
                low: LatticeProcess(horizon, lambda n: [1.01**n] * (1 << n)),
                high: LatticeProcess(horizon, lambda n: [1.03**n] * (1 << n)),
                slot: LatticeProcess.constant(horizon, 0.0),
            },
            stocks=[low, high],
        )
        p = qty_sum(
            qty_single(high, lambda n, w: 1.0, horizon=horizon),
            qty_single(low, lambda n, w: -1.0, horizon=horizon),
        )
        verdict = is_arbitrage_process(mkt, PathMeasure(0.5), p)
        assert verdict.is_arbitrage
        assert verdict.witness_time == 1

    def test_degenerate_measure_ignores_null_paths(self, crr):
        # leveraged stock position: zero cost, gains on up moves, loses on
        # down moves; a free lunch only if down paths carry no probability
        p = qty_sum(
            qty_single(crr.risky, lambda n, w: 1.0, horizon=4),
            qty_single(crr.riskfree, lambda n, w: -10.0, horizon=4),
        )
        interior = is_arbitrage_process(crr, PathMeasure(0.5), p)
        assert not interior.is_arbitrage
        assert interior.violated_clause == "negative-closing-value"
        degenerate = is_arbitrage_process(crr, PathMeasure(1.0), p)
        assert degenerate.is_arbitrage
        assert degenerate.witness_time == 1

    def test_verdict_invariant_enforced(self):
        with pytest.raises(ValueError):
            ArbitrageVerdict(None, "nonsense")
        # the flag is read off the clause, so the two cannot disagree
        assert ArbitrageVerdict(1, "none").is_arbitrage
        assert not ArbitrageVerdict(None, "no-strict-gain").is_arbitrage


class TestOneStepCheck:
    def test_reference_market_passes(self, crr):
        assert one_step_no_arbitrage_check(crr)

    def test_boundary_fails(self):
        crr = CrrMarket(CrrParams(u=1.2, d=1.0, v=10, r=0.0, p=0.5), horizon=2)
        assert not one_step_no_arbitrage_check(crr)

    def test_agrees_with_parameter_condition_on_grid(self):
        from crrpricing.crr import is_viable

        rng = random.Random(3)
        for _ in range(100):
            d = rng.uniform(0.7, 1.1)
            u = d + rng.uniform(0.01, 0.5)
            r = rng.uniform(d - 1 - 0.1, u - 1 + 0.1)
            params = CrrParams(u=u, d=d, v=10.0, r=r, p=0.5)
            crr = CrrMarket(params, horizon=3)
            assert one_step_no_arbitrage_check(crr) == is_viable(params)


PAYOFF_POOL = ["call({k})", "put({k})", "forward({k})", "lookback", "avg(S) - {k}"]


def random_payoff(rng: random.Random):
    kind = rng.randrange(6)
    if kind < 5:
        strike = round(rng.uniform(2.0, 30.0), 3)
        return parse_payoff(PAYOFF_POOL[kind].format(k=strike))
    return parse_payoff(
        rng.choice(
            [
                "max(S) - min(S)",
                "pos(avg(S) - S_T)",
                "max(S_T - 8, min(S) - 4)",
                "S_T * 0.5 + max(S) * 0.25",
            ]
        )
    )


class TestReplicationSuite:
    def test_randomized_replication_and_pricing_consistency(self):
        rng = random.Random(20240811)
        for case in range(60):
            d = rng.uniform(0.6, 1.05)
            u = d + rng.uniform(0.05, 0.6)
            r = d + rng.uniform(0.05, 0.95) * (u - d) - 1.0
            params = CrrParams(u=u, d=d, v=rng.uniform(2.0, 30.0), r=r, p=rng.uniform(0.05, 0.95))
            maturity = rng.randint(1, 8)
            crr = CrrMarket(params, horizon=maturity)
            expr = random_payoff(rng)
            p = replicating_portfolio(crr, expr, maturity)
            report = verify_replication(crr, p, expr, maturity)
            assert report.is_replicating(), f"case {case}: {report}"
            price = fair_price(crr, expr, maturity)
            assert abs(report.init_value - price) <= 1e-9, f"case {case}"

    def test_hedged_wealth_is_martingale_under_q(self):
        rng = random.Random(7)
        for _ in range(10):
            d = rng.uniform(0.7, 1.0)
            u = d + rng.uniform(0.1, 0.5)
            r = d + rng.uniform(0.1, 0.9) * (u - d) - 1.0
            params = CrrParams(u=u, d=d, v=10.0, r=r, p=0.5)
            maturity = rng.randint(1, 6)
            crr = CrrMarket(params, horizon=maturity)
            expr = random_payoff(rng)
            p = replicating_portfolio(crr, expr, maturity)
            wealth = LatticeProcess(
                maturity, lambda n: closing_value_level(crr, p, n)
            )
            deflated = discounted_value(params.r, wealth)
            assert is_martingale(crr.risk_neutral_measure(), deflated, maturity)

    def test_nonnegative_payoff_gives_nonnegative_tree(self):
        rng = random.Random(13)
        crr = CrrMarket(PARAMS, horizon=5)
        for _ in range(10):
            strike = rng.uniform(2.0, 30.0)
            tree = price_lattice(crr, parse_payoff(f"call({strike})"), 5)
            assert all(
                tree.at(n, w) >= 0.0 for n in range(6) for w in iter_paths(n)
            )


def dict_price_lattice(crr, payoff, maturity):
    """Reference backward induction over an ``(n, TossPath)`` node table."""
    q = risk_neutral_q(crr.params)
    r = crr.params.r
    table = {(maturity, w): v for w, v in zip(iter_paths(maturity), terminal_payoffs(crr, payoff, maturity))}
    for n in reversed(range(maturity)):
        for w in iter_paths(n):
            up = table[(n + 1, w.child(True))]
            down = table[(n + 1, w.child(False))]
            table[(n, w)] = (q * up + (1.0 - q) * down) / (1.0 + r)
    return LatticeProcess.from_table(maturity, table)


def dict_replicating_portfolio(crr, payoff, maturity):
    """Reference hedge: one-step spreads read node by node from the tables."""
    lattice = dict_price_lattice(crr, payoff, maturity)
    stock = crr.price(crr.risky)
    r = crr.params.r
    delta, bank = {}, {}
    for n in range(maturity):
        for w in iter_paths(n):
            v_up = lattice.at(n + 1, w.child(True))
            v_down = lattice.at(n + 1, w.child(False))
            s_up = stock.at(n + 1, w.child(True))
            s_down = stock.at(n + 1, w.child(False))
            delta[(n, w)] = (v_up - v_down) / (s_up - s_down)
            bank[(n, w)] = (lattice.at(n, w) - delta[(n, w)] * stock.at(n, w)) / disc_rfr_proc(r, n)
    return QuantityProcess(
        maturity,
        {
            crr.risky: [[delta[(n, w)] for w in iter_paths(n)] for n in range(maturity)],
            crr.riskfree: [[bank[(n, w)] for w in iter_paths(n)] for n in range(maturity)],
        },
    )


@st.composite
def priced_claims(draw):
    """A viable market, a horizon up to 6, a maturity up to it, and a payoff."""
    u = draw(st.floats(1.01, 1.6))
    d = draw(st.floats(0.5, 0.99))
    r = d - 1.0 + (u - d) * draw(st.floats(0.05, 0.95))
    params = CrrParams(u=u, d=d, v=draw(st.floats(1.0, 200.0)), r=r, p=draw(st.floats(0.05, 0.95)))
    horizon = draw(st.integers(1, 6))
    maturity = draw(st.integers(1, horizon))
    strike = draw(st.floats(0.5, 300.0))
    text = draw(st.sampled_from(
        [f"call({strike!r})", f"put({strike!r})", "lookback", f"avg(S) - {strike!r}",
         f"S[1] - {strike!r}"]
    ))
    return CrrMarket(params, horizon=horizon), parse_payoff(text), maturity


class TestLevelListsMatchNodeTables:
    @settings(max_examples=150, deadline=None)
    @given(priced_claims())
    def test_price_tree_identical(self, claim):
        crr, expr, maturity = claim
        tree = price_lattice(crr, expr, maturity)
        reference = dict_price_lattice(crr, expr, maturity)
        for n in range(maturity + 1):
            assert tree.levels[n] == [reference.at(n, w) for w in iter_paths(n)]

    @settings(max_examples=150, deadline=None)
    @given(priced_claims())
    def test_hedge_identical(self, claim):
        crr, expr, maturity = claim
        hedge = replicating_portfolio(crr, expr, maturity)
        reference = dict_replicating_portfolio(crr, expr, maturity)
        # reprs, not ==, so a -0.0 for a 0.0 (a sign the hedge CSV prints) fails
        for asset in (crr.risky, crr.riskfree):
            for n in range(1, maturity + 1):
                for w in iter_paths(n - 1):
                    assert repr(hedge.quantity(asset, n, w)) == repr(reference.quantity(asset, n, w))


def path_terminal_payoffs(crr, payoff, maturity):
    """Reference terminal payoffs, one ``TossPath`` at a time."""
    if isinstance(payoff, list):
        evaluate = lambda w: payoff[w.index()]
    else:
        evaluate = lambda w: eval_payoff(payoff, price_path(crr.params, w))
    return [float(evaluate(w)) for w in iter_paths(maturity)]


def path_fair_price(crr, payoff, maturity):
    """Reference price: ``path_probability`` of every maturity path."""
    measure = PathMeasure(risk_neutral_q(crr.params))
    kappa = path_terminal_payoffs(crr, payoff, maturity)
    expectation = math.fsum(
        path_probability(measure, w) * k for w, k in zip(iter_paths(maturity), kappa)
    )
    return expectation / disc_rfr_proc(crr.params.r, maturity)


def path_tree_csv(tree):
    """Reference tree CSV: one ``label()`` per node."""
    lines = ["time,prefix,value"]
    for n, level in enumerate(tree.levels):
        lines += [f"{n},{w.label()},{value!r}" for w, value in zip(iter_paths(n), level)]
    return "\n".join(lines) + "\n"


@st.composite
def any_claims(draw):
    """A priced claim whose payoff is an expression, a drawn maturity level or
    the level of a function of the tosses."""
    crr, expr, maturity = draw(priced_claims())
    kind = draw(st.sampled_from(["expression", "level", "tossed"]))
    if kind == "level":
        values = draw(st.lists(st.floats(-1e3, 1e3), min_size=2**maturity, max_size=2**maturity))
        return crr, values, maturity
    if kind == "tossed":
        weight = draw(st.floats(-10.0, 10.0))
        return crr, [weight * sum(w) - len(w) for w in iter_paths(maturity)], maturity
    return crr, expr, maturity


class TestKernelsMatchPathReferences:
    @settings(max_examples=150, deadline=None)
    @given(any_claims())
    def test_terminal_payoffs(self, claim):
        crr, payoff, maturity = claim
        assert terminal_payoffs(crr, payoff, maturity) == path_terminal_payoffs(crr, payoff, maturity)

    @settings(max_examples=150, deadline=None)
    @given(any_claims())
    def test_fair_price(self, claim):
        crr, payoff, maturity = claim
        assert fair_price(crr, payoff, maturity) == path_fair_price(crr, payoff, maturity)

    @settings(max_examples=150, deadline=None)
    @given(any_claims())
    def test_tree_csv(self, claim):
        tree = price_lattice(*claim)
        assert tree.to_csv() == path_tree_csv(tree)

    def test_tree_csv_of_maturity_zero(self, crr):
        assert PriceLattice([[2.5]]).to_csv() == "time,prefix,value\n0,-,2.5\n"

    def test_error_names_the_path(self, crr):
        with pytest.raises(PayoffEvalError, match=r"^division by zero in '1 / \(S\[1\] - S\[1\]\)' \(at path UU\)$"):
            terminal_payoffs(crr, parse_payoff("1 / (S[1] - S[1])"), 2)
        with pytest.raises(PayoffEvalError, match="not finite at path UD$"):
            terminal_payoffs(crr, [math.nan if w == path("UD") else 0.0 for w in iter_paths(2)], 2)


OVERFLOWING = CrrParams(u=1.2, d=0.4, v=10.0, r=-0.5, p=0.5)


class TestFloatRange:
    def test_fair_price_names_the_root(self):
        crr = CrrMarket(OVERFLOWING, horizon=4)
        message = r"^price leaves the float range at node \(t=0, -\): inf$"
        with pytest.raises(ValueError, match=message):
            fair_price(crr, parse_payoff("1e308"), 4)

    def test_price_lattice_names_the_first_node(self):
        crr = CrrMarket(OVERFLOWING, horizon=4)
        # only the D branch is large enough to overflow at time 3
        payoff = [1e308 if w[:3] == (False,) * 3 else 1.0 for w in iter_paths(4)]
        with pytest.raises(ValueError, match=r"^option value leaves the float range at node \(t=3, DDD\)"):
            price_lattice(crr, payoff, 4)

    def test_replicating_portfolio_names_the_holding(self):
        crr = CrrMarket(CrrParams(u=1.2, d=1.0 - 1e-15, v=1.0, r=0.0, p=0.5), horizon=1)
        # the value spread overflows the one-step price spread of 0.2
        payoff = [1.7e308, -1.7e308]  # U, D
        with pytest.raises(ValueError, match=r"^hedge quantity of 'S' leaves the float range at node \(t=0, -\)"):
            replicating_portfolio(crr, payoff, 1)

    def test_large_discount_keeps_the_consistency_check_relative(self):
        # (1 + r)^3 = 1e-9: prices near 1e9 for a unit payoff
        crr = CrrMarket(CrrParams(u=0.002, d=0.001, v=1e-9, r=-0.999, p=0.5), horizon=3)
        tree = price_lattice(crr, parse_payoff("1.0"), 3)
        assert tree.root == pytest.approx(1e9, rel=1e-12)

    def test_in_range_prices_are_unchanged(self, crr):
        assert fair_price(crr, parse_payoff("lookback"), 2) == pytest.approx(1.2578942, abs=1e-7)


class TestRelativeTolerance:
    def test_report_carries_the_scaled_tolerance(self):
        big = CrrMarket(CrrParams(u=1.15, d=0.9, v=1e9, r=0.02, p=0.5), horizon=6)
        expr = parse_payoff("call(1e9)")
        report = verify_replication(big, replicating_portfolio(big, expr, 6), expr, 6)
        top = 1e9 * 1.15**6 - 1e9
        assert report.tolerance == pytest.approx(1e-9 * top, rel=1e-12)
        assert report.self_financing and report.terminal_match and report.is_replicating()

    def test_unit_payoffs_keep_the_absolute_tolerance(self, crr):
        expr = parse_payoff("pos(1 - S_T / 10)")
        report = verify_replication(crr, replicating_portfolio(crr, expr, 2), expr, 2, tol=1e-12)
        assert report.tolerance == 1e-12

    def test_terminal_clause_uses_the_scaled_tolerance(self, crr):
        expr = parse_payoff("100")
        hedge = qty_single(crr.riskfree, lambda n, w: 100 / 1.03**2 + 5e-8, horizon=2)
        report = verify_replication(crr, hedge, expr, 2)
        assert report.max_terminal_error == pytest.approx(5.3045e-8, rel=1e-3)
        assert report.tolerance == pytest.approx(1e-7)
        assert report.terminal_match and report.is_replicating()
        assert not verify_replication(crr, hedge, expr, 2, tol=1e-10).is_replicating()


# The node-by-node operators the level-wise ones replaced, kept as references:
# every value is read through ``LatticeProcess.at``.


def node_expectation(m, f, n):
    return math.fsum(path_probability(m, w) * f.at(n, w) for w in iter_paths(n))


def node_martingale_residual(m, process, horizon):
    worst = 0.0
    for n in range(horizon):
        for w in iter_paths(n):
            defect = abs(process.at(n, w) - conditional_expectation_step(m, process, n, w))
            if math.isnan(defect):
                return math.nan
            worst = max(worst, defect)
    return worst


def node_one_step_no_arbitrage_check(crr):
    stock = crr.price(crr.risky)
    gross_rf = 1.0 + crr.params.r
    for n in range(crr.horizon):
        for w in iter_paths(n):
            here = stock.at(n, w)
            up = stock.at(n + 1, w.child(True)) / here
            down = stock.at(n + 1, w.child(False)) / here
            if not min(up, down) < gross_rf < max(up, down):
                return False
    return True


@st.composite
def node_tables(draw):
    """A process of random node values, NaN, infinities and signed zeros included."""
    horizon = draw(st.integers(0, 6))
    specials = st.sampled_from([0.0, -0.0, 1.0, math.nan, math.inf, -math.inf])
    values = st.one_of(st.floats(-1e6, 1e6), specials)
    return LatticeProcess.from_table(horizon, {
        (n, w): draw(values) for n in range(horizon + 1) for w in iter_paths(n)
    })


@st.composite
def any_markets(draw):
    """Viable and inviable markets, with rates near the viability boundary."""
    d = draw(st.floats(0.5, 1.2))
    u = d * draw(st.floats(1.0, 1.6, exclude_min=True))
    gross = draw(st.one_of(st.floats(0.4, 2.0), st.sampled_from([d, u]), st.floats(d, u)))
    params = CrrParams(u=u, d=d, v=draw(st.floats(1e-3, 1e3)), r=gross - 1.0, p=0.5)
    return CrrMarket(params, horizon=draw(st.integers(1, 6)))


def outcome(fn, *args):
    """``repr`` of the result, or the error (``fsum`` raises on ``inf - inf``)."""
    try:
        return repr(fn(*args))
    except ValueError as exc:
        return f"ValueError: {exc}"


class TestLevelOperatorsMatchNodeByNode:
    @settings(max_examples=150, deadline=None)
    @given(node_tables(), st.floats(0.0, 1.0))
    def test_expectation_and_martingale_residual(self, f, p):
        m = PathMeasure(p)
        for n in range(f.horizon + 1):
            assert outcome(expectation, m, f, n) == outcome(node_expectation, m, f, n)
            assert repr(martingale_residual(m, f, n)) == repr(node_martingale_residual(m, f, n))

    @settings(max_examples=150, deadline=None)
    @given(any_markets(), st.floats(0.0, 1.0))
    def test_market_operators(self, crr, p):
        assert one_step_no_arbitrage_check(crr) == node_one_step_no_arbitrage_check(crr)
        deflated = discounted_value(crr.params.r, crr.price(crr.risky))
        m = PathMeasure(p)
        assert repr(martingale_residual(m, deflated, crr.horizon)) == repr(
            node_martingale_residual(m, deflated, crr.horizon)
        )
        assert repr(expectation(m, deflated, crr.horizon)) == repr(
            node_expectation(m, deflated, crr.horizon)
        )


def count_toss_paths(monkeypatch) -> list:
    """Collects every ``TossPath`` built from now until the test ends."""
    built = []
    original = TossPath.__init__

    def counting_init(path, *args, **kwargs):
        built.append(path)
        original(path, *args, **kwargs)

    monkeypatch.setattr(TossPath, "__init__", counting_init)
    return built


class TestHedgeBuildsNoTossPaths:
    def test_hedge_verify_and_csv_of_an_average_payoff(self, monkeypatch):
        crr = CrrMarket(CrrParams(u=1.15, d=0.9, v=100.0, r=0.02, p=0.45), horizon=8)
        expr = parse_payoff("avg(S) - 100")
        built = count_toss_paths(monkeypatch)
        hedge = replicating_portfolio(crr, expr, 8)
        report = verify_replication(crr, hedge, expr, 8)
        text = write_portfolio_csv(hedge)
        assert report.is_replicating()
        assert text.count("\n") == 1 + 2 * (2**8 - 1)
        assert len(built) <= 1

    def test_portfolio_reader_builds_none(self, monkeypatch):
        crr = CrrMarket(CrrParams(u=1.2, d=0.8, v=10.0, r=0.03, p=0.5), horizon=8)
        hedge = replicating_portfolio(crr, parse_payoff("lookback"), 8)
        text = write_portfolio_csv(hedge)
        built = count_toss_paths(monkeypatch)
        loaded = read_portfolio_csv(text, 8, crr.assets)
        assert built == []
        assert text.count("\n") == 1 + 2 * (2**8 - 1)
        assert loaded.levels.keys() == hedge.levels.keys()
        assert all(repr(loaded.levels[a]) == repr(hedge.levels[a]) for a in hedge.levels)


class TestWorkPerCommand:
    """Counted by wrapping the names the engine calls through."""

    @pytest.mark.parametrize("command", ["price", "price --tree", "replicate --out", "verify"])
    def test_average_payoff_at_horizon_eight(self, command, tmp_path, capsys, monkeypatch):
        config = tmp_path / "market.json"
        config.write_text(json.dumps({"u": 1.15, "d": 0.9, "v": 100.0, "r": 0.02, "p": 0.45, "horizon": 8}))
        argv = ["--config", str(config), "--payoff", "avg(S) - 100", "--maturity", "8"]
        hedge = tmp_path / "hedge.csv"
        assert cli.main(["replicate", *argv, "--out", str(hedge)]) == 0  # the hedge verify reads, not counted
        calls = collections.Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(crr_module, "price_path", counted("price_path", crr_module.price_path))
        monkeypatch.setattr(pricing, "price_path", counted("price_path", pricing.price_path))
        monkeypatch.setattr(pricing, "eval_payoff", counted("eval_payoff", pricing.eval_payoff))
        extra = {"price": [], "price --tree": ["--tree", str(tmp_path / "tree.csv")],
                 "replicate --out": ["--out", str(tmp_path / "out.csv")], "verify": ["--portfolio", str(hedge)]}
        assert cli.main([command.split()[0], *argv, *extra[command]]) == 0
        capsys.readouterr()
        # one terminal_payoffs evaluation per command, one eval_payoff per path
        assert calls == {"eval_payoff": 2**8}


def loop_terminal_payoffs(crr, payoff, maturity):
    """``terminal_payoffs`` as the per-path loop it was before the price lists
    were shared: one ``price_path`` per toss path, and the first path that
    raises or is not finite names the error."""
    if isinstance(payoff, get_args(PayoffExpr)):
        evaluate = lambda w: pricing.eval_payoff(payoff, price_path(crr.params, w))
    else:
        evaluate = lambda w: payoff[w.index()]
    values = []
    for w in iter_paths(maturity):
        try:
            value = float(evaluate(w))
        except PayoffEvalError as exc:
            raise PayoffEvalError(f"{exc} (at path {w.label()})") from None
        if not math.isfinite(value):
            raise PayoffEvalError(f"payoff is not finite at path {w.label()}")
        values.append(value)
    return values


def faulty_evaluation(bad_at, bad, fail_at, failure):
    """An evaluation that gives ``bad`` on its ``bad_at``-th call, fails on
    its ``fail_at``-th call (by raising, or by returning what ``float``
    rejects) and gives 1.0 otherwise."""
    calls = itertools.count()

    def evaluate(*args):
        i = next(calls)
        if i == bad_at:
            return bad
        if i == fail_at:
            if failure == "not a number":
                return "x"
            raise failure
        return 1.0

    return evaluate


class TestErrorPrecedence:
    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(1, 4).flatmap(lambda t: st.tuples(
            st.just(t),
            st.none() | st.integers(0, 2**t - 1),
            st.none() | st.integers(0, 2**t - 1),
        )),
        st.sampled_from([math.inf, -math.inf, math.nan]),
        st.sampled_from([PayoffEvalError("boom"), ZeroDivisionError("float division by zero"), "not a number"]),
        st.sampled_from(["expression", "level"]),
    )
    def test_first_bad_path_wins_as_in_the_per_path_loop(self, where, bad, failure, kind):
        maturity, bad_at, fail_at = where
        crr = CrrMarket(PARAMS, horizon=4)
        if kind == "level" and failure != "not a number":
            failure = "not a number"  # a level holds values, not raised errors

        def outcome(terminal):
            evaluate = faulty_evaluation(bad_at, bad, fail_at, failure)
            if kind == "level":
                level = [evaluate(w) for w in iter_paths(maturity)]
                return outcome_of(terminal, crr, level, maturity)
            with mock.patch.object(pricing, "eval_payoff", evaluate):
                return outcome_of(terminal, crr, parse_payoff("S_T"), maturity)

        assert outcome(terminal_payoffs) == outcome(loop_terminal_payoffs)


def outcome_of(fn, *args):
    try:
        return repr(fn(*args))
    except Exception as exc:
        return type(exc), str(exc)


# Payoffs of S_T alone; with a strike at a terminal price the quotient
# divides by zero at a named path, and the product overflows where S_T > 1.8.
TERMINAL_ONLY = ["call({K})", "put({K})", "forward({K})", "S_T / (S_T - {K})", "S_T * 1e308"]
PATH_READING = ["lookback", "avg(S) - {K}", "S[1]"]


class TestTerminalOnlyPass:
    @pytest.mark.parametrize("text", TERMINAL_ONLY)
    @pytest.mark.parametrize("v", [10.0, 1.0])
    def test_same_level_or_error_as_the_per_path_loop(self, text, v):
        crr = CrrMarket(CrrParams(u=1.2, d=0.8, v=v, r=0.03, p=0.5), horizon=6)
        for maturity in range(7):
            strikes = {9.5, *(price_path(crr.params, w)[-1] for w in iter_paths(maturity))}
            for strike in sorted(strikes):
                expr = parse_payoff(text.format(K=repr(strike)))
                assert outcome_of(terminal_payoffs, crr, expr, maturity) == outcome_of(
                    loop_terminal_payoffs, crr, expr, maturity
                )

    def test_errors_name_the_first_bad_path(self):
        crr = CrrMarket(CrrParams(u=1.2, d=0.8, v=1.0, r=0.03, p=0.5), horizon=6)
        strike = price_path(crr.params, path("UDD"))[-1]
        with pytest.raises(PayoffEvalError, match=r"^division by zero in .* \(at path UDD\)$"):
            terminal_payoffs(crr, parse_payoff(f"S_T / (S_T - {strike!r})"), 3)
        top = price_path(crr.params, path("UUU"))[-1]
        assert max(terminal_payoffs(crr, parse_payoff("S_T * 1e308"), 3)) == top * 1e308
        with pytest.raises(PayoffEvalError, match="^payoff is not finite at path UUUU$"):
            terminal_payoffs(crr, parse_payoff("S_T * 1e308"), 4)

    @pytest.mark.parametrize("text", TERMINAL_ONLY + PATH_READING)
    def test_only_payoffs_reading_the_path_build_price_lists(self, text, monkeypatch):
        built = []
        lists = pricing.price_paths

        def counted(*args):
            for prices in lists(*args):
                built.append(prices)
                yield prices

        monkeypatch.setattr(pricing, "price_paths", counted)
        crr = CrrMarket(CrrParams(u=1.2, d=0.8, v=1.0, r=0.03, p=0.5), horizon=6)
        outcome_of(terminal_payoffs, crr, parse_payoff(text.format(K="1.5")), 6)
        assert len(built) == (0 if text in TERMINAL_ONLY else 2**6)


def csv_writer_tree_csv(tree, out=None):
    """``PriceLattice.to_csv`` as it was, through ``csv.writer`` row by row."""
    buf = out if out is not None else io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["time", "prefix", "value"])
    for n, (labels, level) in enumerate(zip(prefix_labels(tree.horizon), tree.levels)):
        writer.writerows(zip(itertools.repeat(n), labels, map(repr, level)))
    return buf.getvalue() if out is None else ""


# Signed zeros, subnormals, the extremes of the float range, and the rest.
ODD_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-308,
                     -1e308, 1.7976931348623157e308, -1.7976931348623157e308]),
    st.floats(-1e-300, 1e-300),
    st.floats(),
)


@st.composite
def odd_lattices(draw):
    maturity = draw(st.integers(0, 6))
    levels = [draw(st.lists(ODD_FLOATS, min_size=1 << n, max_size=1 << n)) for n in range(maturity + 1)]
    return PriceLattice(levels)


class TestTreeCsvBytes:
    @settings(max_examples=100, deadline=None)
    @given(odd_lattices(), st.integers(1, 9))
    def test_joined_lines_equal_the_csv_writer(self, tree, batch):
        # small batches put batch boundaries inside and at the ends of levels
        with mock.patch.object(market, "CSV_BATCH", batch):
            assert tree.to_csv() == csv_writer_tree_csv(tree)
            stream, reference = io.StringIO(), io.StringIO()
            assert tree.to_csv(stream) == csv_writer_tree_csv(tree, reference) == ""
            assert stream.getvalue() == reference.getvalue()

    def test_horizon_twelve_in_default_batches(self):
        tree = price_lattice(CrrMarket(PARAMS, horizon=12), parse_payoff("avg(S) - 10"), 12)
        assert tree.to_csv() == csv_writer_tree_csv(tree)
