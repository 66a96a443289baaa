"""Pricing, replication, and the martingale/arbitrage verification layer."""
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    enumerate_paths,
    iter_paths,
    path_probability,
)
from crrpricing.market import (
    Asset,
    Market,
    closing_value_process,
    init_value,
    qty_empty,
    qty_single,
    qty_sum,
    QuantityProcess,
)
from crrpricing.payoff import PayoffEvalError, eval_payoff, parse_payoff
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
        table = {
            path("UU"): 0.0,
            path("UD"): 2.4,
            path("DU"): 0.4,
            path("DD"): 3.6,
        }
        assert fair_price(crr, table, 2) == pytest.approx(1.2579, abs=5e-4)

    def test_callable_payoff(self, crr):
        # depends on raw tosses, not prices: outside the expression grammar
        last_toss_up = lambda w: 1.0 if w[-1] else 0.0
        got = fair_price(crr, last_toss_up, 1)
        assert got == pytest.approx(0.575 / 1.03, abs=1e-12)

    def test_incomplete_path_table_rejected(self, crr):
        with pytest.raises(ValueError, match="misses"):
            fair_price(crr, {path("UU"): 1.0}, 2)

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

    def test_at_rejects_bad_prefix_length(self, crr):
        tree = price_lattice(crr, parse_payoff("lookback"), 2)
        message = "^time-1 values are keyed by length-1 prefixes, got length 2$"
        with pytest.raises(ValueError, match=message):
            tree.at(1, path("UD"))


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
        assert init_value(crr.market, p) == pytest.approx(10.0, abs=1e-12)

    def test_inviable_market_rejected(self):
        crr = CrrMarket(INVIABLE, horizon=2)
        with pytest.raises(MarketNotViableError):
            replicating_portfolio(crr, parse_payoff("call(10)"), 2)


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
        assert report.self_financing and report.trading_strategy

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
        assert not verify_replication(big, p, expr, 6).self_financing
        report = verify_replication(big, p, expr, 6, tol=1e-6)
        assert report.self_financing and report.is_replicating(1e-6)

    def test_non_stock_support_rejected(self, crr):
        alien = qty_single(crr.extra, lambda n, w: 1.0, horizon=2)
        with pytest.raises(ValueError, match="stock portfolio"):
            verify_replication(crr, alien, parse_payoff("lookback"), 2)


class TestMartingale:
    def test_discounted_risky_price_under_q(self, crr):
        deflated = discounted_value(PARAMS.r, crr.market.price(crr.risky))
        assert is_martingale(PathMeasure(0.575), deflated, 4)

    def test_discounted_risky_price_under_physical_measure(self, crr):
        deflated = discounted_value(PARAMS.r, crr.market.price(crr.risky))
        assert not is_martingale(PathMeasure(0.5), deflated, 4)
        assert martingale_residual(PathMeasure(0.5), deflated, 4) > 1e-4

    def test_constant_process(self):
        proc = LatticeProcess.constant(3, 5.0)
        for p in (0.1, 0.5, 0.9):
            assert is_martingale(PathMeasure(p), proc, 3)

    def test_one_step_residual_formula(self, crr):
        # residual at the root under p: |v - (p u v + (1-p) d v)/(1+r)|
        deflated = discounted_value(PARAMS.r, crr.market.price(crr.risky))
        p = 0.52
        got = martingale_residual(PathMeasure(p), deflated, 1)
        expected = abs(10.0 - (p * 12.0 + (1 - p) * 8.0) / 1.03)
        assert got == pytest.approx(expected, abs=1e-12)


class TestRiskNeutral:
    def test_risk_neutral_at_q(self, crr):
        assert is_risk_neutral(crr, PathMeasure(0.575))

    @pytest.mark.parametrize("shift", [-0.01, 0.01])
    def test_not_risk_neutral_off_q(self, crr, shift):
        assert not is_risk_neutral(crr, PathMeasure(0.575 + shift))

    def test_riskfree_asset_alone_is_always_driftless(self, crr):
        deflated = discounted_value(PARAMS.r, crr.market.price(crr.riskfree))
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

    def test_low_rate_dominated_market(self):
        crr = CrrMarket(CrrParams(u=1.2, d=1.05, v=10, r=0.0, p=0.5), horizon=2)
        p = construct_arbitrage(crr)
        assert p.quantity(crr.risky, 1, TossPath()) == 1.0
        assert p.quantity(crr.riskfree, 1, TossPath()) == -10.0
        up = closing_value_process(crr.market, p, 1, path("U"))
        down = closing_value_process(crr.market, p, 1, path("D"))
        assert up == pytest.approx(2.0, abs=1e-12)
        assert down == pytest.approx(0.5, abs=1e-12)
        assert is_arbitrage_process(crr, crr.measure(), p).is_arbitrage

    def test_high_rate_dominated_market(self):
        crr = CrrMarket(CrrParams(u=1.1, d=0.9, v=10, r=0.2, p=0.5), horizon=2)
        p = construct_arbitrage(crr)
        up = closing_value_process(crr.market, p, 1, path("U"))
        down = closing_value_process(crr.market, p, 1, path("D"))
        assert up == pytest.approx(1.0, abs=1e-12)
        assert down == pytest.approx(3.0, abs=1e-12)
        assert is_arbitrage_process(crr, crr.measure(), p).is_arbitrage

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

    def test_unpredictable_rows_clause(self, crr):
        from crrpricing.market import PortfolioRow

        rows = [
            PortfolioRow(0, path("U"), "S", 1.0),
            PortfolioRow(0, path("D"), "S", -1.0),
        ]
        verdict = is_arbitrage_process(crr, crr.measure(), rows)
        assert verdict.violated_clause == "not-predictable"

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
        slot = Asset("slot", kind="extra")
        mkt = Market(
            prices={
                low: LatticeProcess(horizon, lambda n, w: 1.01**n),
                high: LatticeProcess(horizon, lambda n, w: 1.03**n),
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
            ArbitrageVerdict(True, 1, "no-strict-gain")
        with pytest.raises(ValueError):
            ArbitrageVerdict(False, None, "nonsense")


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
                maturity,
                lambda n, w: closing_value_process(crr.market, p, n, w),
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
    stock = crr.market.price(crr.risky)
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
            crr.risky: lambda n, w: delta[(n - 1, w)],
            crr.riskfree: lambda n, w: bank[(n - 1, w)],
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
        for asset in (crr.risky, crr.riskfree):
            for n in range(1, maturity + 1):
                for w in iter_paths(n - 1):
                    assert hedge.quantity(asset, n, w) == reference.quantity(asset, n, w)


def path_terminal_payoffs(crr, payoff, maturity):
    """Reference terminal payoffs, one ``TossPath`` at a time."""
    if isinstance(payoff, dict):
        evaluate = payoff.__getitem__
    elif callable(payoff):
        evaluate = payoff
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
    """A priced claim whose payoff is an expression, a path table or a callable."""
    crr, expr, maturity = draw(priced_claims())
    kind = draw(st.sampled_from(["expression", "mapping", "callable"]))
    if kind == "mapping":
        values = draw(st.lists(st.floats(-1e3, 1e3), min_size=2**maturity, max_size=2**maturity))
        return crr, dict(zip(iter_paths(maturity), values)), maturity
    if kind == "callable":
        weight = draw(st.floats(-10.0, 10.0))
        return crr, lambda w: weight * sum(w) - len(w), maturity
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
        assert PriceLattice([[2.5]], 0).to_csv() == "time,prefix,value\n0,-,2.5\n"

    def test_error_names_the_path(self, crr):
        with pytest.raises(PayoffEvalError, match=r"^division by zero in '1 / \(S\[1\] - S\[1\]\)' \(at path UU\)$"):
            terminal_payoffs(crr, parse_payoff("1 / (S[1] - S[1])"), 2)
        with pytest.raises(PayoffEvalError, match="not finite at path UD$"):
            terminal_payoffs(crr, lambda w: math.nan if w == path("UD") else 0.0, 2)
