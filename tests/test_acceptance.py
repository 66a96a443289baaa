"""Acceptance suite: one test per exit criterion, at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion; each line reports PASS or FAIL before pytest's own summary.
"""
import random
from contextlib import contextmanager

import pytest

from crrpricing.crr import (
    CrrMarket,
    CrrParams,
    discounted_value,
    is_viable,
    risk_neutral_q,
    step_rate_from_annual,
)
from crrpricing.lattice import (
    LatticeProcess,
    PathMeasure,
    TossPath,
    enumerate_paths,
    expectation,
    iter_paths,
    path_probability,
)
from crrpricing.market import (
    Asset,
    Market,
    closing_value_level,
    closing_value_process,
    init_value,
    is_self_financing,
    is_trading_strategy,
    make_self_financing,
    qty_single,
    qty_sum,
    value_process,
)
from crrpricing.payoff import PayoffSyntaxError, eval_payoff, parse_payoff, print_payoff
from crrpricing.pricing import (
    construct_arbitrage,
    fair_price,
    is_arbitrage_process,
    martingale_residual,
    one_step_no_arbitrage_check,
    price_lattice,
    replicating_portfolio,
    verify_replication,
)


@contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except Exception:
        print(f"criterion {number:2d} ({name}): FAIL")
        raise
    print(f"criterion {number:2d} ({name}): PASS")


def path(label: str) -> TossPath:
    return TossPath.from_label(label)


def test_criterion_01_lookback_golden():
    with criterion(1, "lookback golden values"):
        expr = parse_payoff("lookback")
        for p in (0.2, 0.5, 0.9):  # physical weight must not matter
            crr = CrrMarket(CrrParams(u=1.2, d=0.8, v=10.0, r=0.03, p=p), horizon=2)
            assert fair_price(crr, expr, 2) == pytest.approx(1.2579, abs=5e-4)
            tree = price_lattice(crr, expr, 2)
            assert tree.at(1, path("U")) == pytest.approx(0.9903, abs=5e-4)
            assert tree.at(1, path("D")) == pytest.approx(1.7087, abs=5e-4)
            hedge = replicating_portfolio(crr, expr, 2)
            root = TossPath()
            assert hedge.quantity(crr.risky, 1, root) == pytest.approx(-0.1796, abs=5e-4)
            assert hedge.quantity(crr.risky, 2, path("U")) == pytest.approx(-0.5, abs=5e-4)
            assert hedge.quantity(crr.risky, 2, path("D")) == pytest.approx(-1.0, abs=5e-4)
            riskfree_cash = hedge.quantity(crr.riskfree, 1, root) * 1.0
            assert riskfree_cash == pytest.approx(3.0539, abs=5e-4)


def test_criterion_02_risk_neutral_parameter():
    with criterion(2, "risk-neutral parameter"):
        params = CrrParams(u=1.2, d=0.8, v=10.0, r=0.03, p=0.5)
        assert abs(risk_neutral_q(params) - 0.575) < 1e-12


def test_criterion_03_path_probability_table():
    with criterion(3, "path-probability table"):
        m = PathMeasure(0.575)
        expected = {
            "UU": 0.330625,
            "UD": 0.244375,
            "DU": 0.244375,
            "DD": 0.180625,
        }
        for label, prob in expected.items():
            assert abs(path_probability(m, path(label)) - prob) < 1e-12


def test_criterion_04_example_tables():
    with criterion(4, "deterministic portfolio tables"):
        apl, goog, fbk = Asset("Apl"), Asset("Goog"), Asset("Fbk")
        slot = Asset("slot")
        mkt = Market(
            prices={
                apl: LatticeProcess.deterministic([100, 98, 96, 98, 98]),
                goog: LatticeProcess.deterministic([90, 92, 98, 95.5, 95.5]),
                fbk: LatticeProcess.deterministic([5, 4, 4, 5, 5]),
                slot: LatticeProcess.constant(4, 0.0),
            },
            stocks=[apl, goog, fbk],
        )
        p1 = qty_sum(
            qty_single(apl, lambda n, w: float(n), horizon=4),
            qty_single(goog, lambda n, w: float(-n), horizon=4),
        )
        w = path("UUUU")
        values = [value_process(mkt, p1, n, w) for n in range(4)]
        closings = [closing_value_process(mkt, p1, n, w) for n in range(4)]
        assert values == pytest.approx([10, 12, -6, 10], abs=1e-12)
        assert closings == pytest.approx([10, 6, -4, 7.5], abs=1e-12)

        p2 = make_self_financing(mkt, p1, fbk, v0=0.0)
        fbk_quantities = [p2.quantity(fbk, n, TossPath((True,) * (n - 1))) for n in range(1, 5)]
        assert fbk_quantities == pytest.approx([-2, -3.5, -3, -3.5], abs=1e-12)
        p2_values = [value_process(mkt, p2, n, w) for n in range(4)]
        assert p2_values == pytest.approx([0, -2, -18, -7.5], abs=1e-12)
        assert is_self_financing(mkt, p2)


ACCEPTANCE_PAYOFFS = [
    "call({k})",
    "put({k})",
    "forward({k})",
    "lookback",
    "avg(S) - {k}",  # asian-average struck payoff
]
RANDOM_EXPRESSIONS = [
    "max(S) - min(S)",
    "pos(avg(S) - S_T)",
    "max(S_T - {k}, min(S) - 2)",
    "S_T * 0.5 + max(S) * 0.25 - {k}",
    "min(S_T, {k}) + pos(S[1] - S[0])",
]


def _random_viable_market(rng: random.Random, horizon: int) -> CrrMarket:
    d = rng.uniform(0.6, 1.05)
    u = d + rng.uniform(0.05, 0.6)
    r = d + rng.uniform(0.05, 0.95) * (u - d) - 1.0
    params = CrrParams(
        u=u, d=d, v=rng.uniform(2.0, 50.0), r=r, p=rng.uniform(0.05, 0.95)
    )
    return CrrMarket(params, horizon)


def _replication_grid():
    """The 200 ``(case, market, payoff text, maturity)`` draws of criterion 5."""
    rng = random.Random(55)
    for case in range(200):
        maturity = rng.randint(1, 10)
        crr = _random_viable_market(rng, maturity)
        pool = ACCEPTANCE_PAYOFFS + [rng.choice(RANDOM_EXPRESSIONS)]
        yield case, crr, rng.choice(pool).format(k=round(rng.uniform(1.0, 40.0), 3)), maturity


def test_criterion_05_replication_property_suite():
    with criterion(5, "200-case replication suite"):
        for case, crr, text, maturity in _replication_grid():
            expr = parse_payoff(text)
            hedge = replicating_portfolio(crr, expr, maturity)
            report = verify_replication(crr, hedge, expr, maturity)
            assert report.self_financing, f"case {case} ({text}): not self-financing"
            assert is_trading_strategy(hedge), f"case {case}: not predictable"
            assert report.max_terminal_error <= 1e-9, (
                f"case {case} ({text}): terminal error {report.max_terminal_error}"
            )
            price = fair_price(crr, expr, maturity)
            assert abs(report.init_value - price) <= 1e-9, (
                f"case {case} ({text}): init {report.init_value} vs price {price}"
            )


def test_init_value_is_the_root_value_process():
    # the level kernel's node-0 sum is the node-keyed oracle's, bit for bit
    for case, crr, text, maturity in _replication_grid():
        hedge = replicating_portfolio(crr, parse_payoff(text), maturity)
        got = init_value(crr, hedge)
        assert got.hex() == value_process(crr, hedge, 0, TossPath()).hex(), f"case {case} ({text})"


def test_criterion_06_martingale_suite():
    with criterion(6, "martingale suite"):
        params = CrrParams(u=1.2, d=0.8, v=10.0, r=0.03, p=0.5)
        q = risk_neutral_q(params)
        horizon = 10
        crr = CrrMarket(params, horizon)
        deflated_stock = discounted_value(params.r, crr.price(crr.risky))
        assert martingale_residual(PathMeasure(q), deflated_stock, horizon) < 1e-9

        hedged_horizon = 8
        hedged_crr = CrrMarket(params, hedged_horizon)
        hedge = replicating_portfolio(hedged_crr, parse_payoff("lookback"), hedged_horizon)
        wealth = LatticeProcess(
            hedged_horizon, lambda n: closing_value_level(hedged_crr, hedge, n)
        )
        deflated_wealth = discounted_value(params.r, wealth)
        assert martingale_residual(PathMeasure(q), deflated_wealth, hedged_horizon) < 1e-9

        for shift in (-0.05, 0.05):
            biased = PathMeasure(q + shift)
            assert martingale_residual(biased, deflated_stock, horizon) > 1e-4
            assert martingale_residual(biased, deflated_wealth, hedged_horizon) > 1e-4


def test_criterion_07_viability_suite():
    with criterion(7, "viability suite"):
        checked = 0
        inviable_seen = 0
        for d in (0.7, 0.85, 1.0, 1.05):
            for u_gap in (0.1, 0.3):
                u = d + u_gap
                boundary_rates = [d - 1.0, u - 1.0]  # exactly on both edges
                straddle = [d - 1.0 - 0.07, d - 1.0 + 0.4 * u_gap, u - 1.0 + 0.07]
                for r in boundary_rates + straddle:
                    params = CrrParams(u=u, d=d, v=10.0, r=r, p=0.5)
                    crr = CrrMarket(params, horizon=3)
                    assert one_step_no_arbitrage_check(crr) == is_viable(params)
                    checked += 1
                    if not is_viable(params):
                        inviable_seen += 1
                        free_lunch = construct_arbitrage(crr)
                        verdict = is_arbitrage_process(crr, crr.measure(), free_lunch)
                        assert verdict.is_arbitrage and verdict.witness_time == 1, (
                            f"u={u}, d={d}, r={r}: {verdict}"
                        )
        assert checked >= 40 and inviable_seen >= 16

        # a second grid of generic points brings the tally to 100
        rng = random.Random(77)
        while checked < 100:
            d = rng.uniform(0.7, 1.1)
            u = d + rng.uniform(0.02, 0.5)
            r = rng.uniform(d - 1.15, u - 0.85)
            params = CrrParams(u=u, d=d, v=10.0, r=r, p=0.5)
            crr = CrrMarket(params, horizon=3)
            assert one_step_no_arbitrage_check(crr) == is_viable(params)
            if not is_viable(params):
                verdict = is_arbitrage_process(
                    crr, crr.measure(), construct_arbitrage(crr)
                )
                assert verdict.is_arbitrage and verdict.witness_time == 1
            checked += 1

        # two risk-free assets at different rates: certified free lunch
        horizon = 5
        low, high = Asset("rf-low"), Asset("rf-high")
        slot = Asset("slot")
        two_rate = Market(
            prices={
                low: LatticeProcess(horizon, lambda n: [1.01**n] * (1 << n)),
                high: LatticeProcess(horizon, lambda n: [1.03**n] * (1 << n)),
                slot: LatticeProcess.constant(horizon, 0.0),
            },
            stocks=[low, high],
        )
        spread = qty_sum(
            qty_single(high, lambda n, w: 1.0, horizon=horizon),
            qty_single(low, lambda n, w: -1.0, horizon=horizon),
        )
        verdict = is_arbitrage_process(two_rate, PathMeasure(0.5), spread)
        assert verdict.is_arbitrage
        for n in range(1, horizon + 1):
            gain = closing_value_process(two_rate, spread, n, TossPath((True,) * n))
            assert gain == pytest.approx(1.03**n - 1.01**n, abs=1e-12)


def test_criterion_08_forward_invariance():
    with criterion(8, "forward price invariance"):
        rng = random.Random(88)
        for _ in range(50):
            d = rng.uniform(0.6, 1.0)
            u = d + rng.uniform(0.05, 0.7)
            r = d + rng.uniform(0.05, 0.95) * (u - d) - 1.0
            v = rng.uniform(50.0, 150.0)
            strike = rng.uniform(50.0, 150.0)
            maturity = rng.randint(1, 8)
            crr = CrrMarket(CrrParams(u=u, d=d, v=v, r=r, p=0.5), maturity)
            price = fair_price(crr, parse_payoff(f"forward({strike})"), maturity)
            assert abs(price - (v - strike * (1 + r) ** -maturity)) <= 1e-9

        crr = CrrMarket(CrrParams(u=1.1, d=0.95, v=95.0, r=0.02, p=0.5), 2)
        price = fair_price(crr, parse_payoff("forward(98)"), 2)
        assert round(price, 2) == 0.81


def test_criterion_09_expectation_oracle():
    with criterion(9, "expectation vs brute force"):
        rng = random.Random(99)
        for _ in range(100):
            horizon = rng.randint(1, 8)
            table = {
                (n, w): rng.uniform(-100.0, 100.0)
                for n in range(horizon + 1)
                for w in enumerate_paths(n)
            }
            f = LatticeProcess.from_table(horizon, table)
            m = PathMeasure(rng.uniform(0.0, 1.0))
            n = rng.randint(0, horizon)
            brute = 0.0
            for w in enumerate_paths(n):
                weight = 1.0
                for outcome in w:
                    weight *= m.p if outcome else 1.0 - m.p
                brute += weight * table[(n, w)]
            assert abs(expectation(m, f, n) - brute) < 1e-12


def test_criterion_10_step_rate_conversion():
    with criterion(10, "step-rate conversion"):
        assert abs(step_rate_from_annual(0.02, 252) - 7.85e-5) < 1e-7


def test_criterion_11_parser_suite():
    with criterion(11, "parser suite"):
        # grammar round-trip on generated expressions
        from test_payoff import random_expr

        rng = random.Random(111)
        for _ in range(100):
            expr = random_expr(rng, depth=rng.randint(0, 4))
            text = print_payoff(expr)
            assert parse_payoff(text) == expr
            assert print_payoff(parse_payoff(text)) == text

        # put-call parity, exact at every sampled path
        for _ in range(20):
            strike = round(rng.uniform(1.0, 150.0), 4)
            call = parse_payoff(f"call({strike})")
            put = parse_payoff(f"put({strike})")
            prices = [rng.uniform(1.0, 150.0) for _ in range(rng.randint(1, 7))]
            assert eval_payoff(call, prices) - eval_payoff(put, prices) == (
                prices[-1] - strike
            )

        # documented error positions on malformed inputs
        malformed = {
            "S[1": 3,
            "": 0,
            "1 +": 3,
            "call(98": 7,
            "call(S_T)": 5,
            "foo": 0,
            "max(S,)": 5,
            "1 2": 2,
            "avg(2)": 4,
            "S + 1": 2,
        }
        for text, position in malformed.items():
            with pytest.raises(PayoffSyntaxError) as info:
                parse_payoff(text)
            assert info.value.position == position, text
