"""Binomial market parameters, discounting, viability, risk-neutral weight."""
import json
import math
import sys

import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from crrpricing import crr as crr_module
from crrpricing.crr import (
    CrrMarket,
    CrrParams,
    MarketNotViableError,
    disc_rfr_proc,
    discounted_value,
    filtration_equivalent_bernoulli,
    is_viable,
    price_path,
    price_paths,
    risk_neutral_q,
    step_rate_from_annual,
    terminal_prices,
)
from crrpricing.lattice import (
    LatticeProcess,
    PathMeasure,
    TossPath,
    enumerate_paths,
    is_measurable_at,
    iter_paths,
    path_probability,
    toss_products,
)
from crrpricing.market import (
    Asset,
    Market,
    closing_value_process,
    init_value,
    is_self_financing,
    qty_single,
    qty_sum,
)
from crrpricing.payoff import parse_payoff
from crrpricing.pricing import fair_price

PARAMS = CrrParams(u=1.2, d=0.8, v=10.0, r=0.03, p=0.5)


def path(label: str) -> TossPath:
    return TossPath.from_label(label)


viable_params = st.builds(
    lambda d, spread, rfrac, v, p: CrrParams(
        u=d + spread,
        d=d,
        v=v,
        r=(d + rfrac * spread) - 1.0,
        p=p,
    ),
    d=st.floats(0.5, 1.1),
    spread=st.floats(0.05, 0.8),
    rfrac=st.floats(0.05, 0.95),
    v=st.floats(1.0, 200.0),
    p=st.floats(0.01, 0.99),
)


class TestCrrParams:
    @pytest.mark.parametrize(
        "kwargs,fragment",
        [
            (dict(u=0.8, d=1.2, v=10, r=0.0, p=0.5), "0 < d < u"),
            (dict(u=1.2, d=0.8, v=-1, r=0.0, p=0.5), "positive"),
            (dict(u=1.2, d=0.8, v=10, r=-1.0, p=0.5), "exceed -1"),
            (dict(u=1.2, d=0.8, v=10, r=0.0, p=0.0), "strictly in (0, 1)"),
            (dict(u=1.2, d=1.2, v=10, r=0.0, p=0.5), "0 < d < u"),
            (dict(u=math.inf, d=0.8, v=10, r=0.0, p=0.5), "u must be finite"),
            (dict(u=1.2, d=0.8, v=math.inf, r=0.0, p=0.5), "v must be finite"),
            (dict(u=1.2, d=0.8, v=10, r=math.inf, p=0.5), "r must be finite"),
        ],
    )
    def test_invariants_named_in_errors(self, kwargs, fragment):
        with pytest.raises(ValueError, match=fragment.replace("(", "\\(").replace(")", "\\)")):
            CrrParams(**kwargs)


class TestGeomRandWalk:
    """The paper's geometric random walk after ``n`` tosses, read as
    ``price_path(params, w)[n]``."""

    def test_walk_values(self):
        assert price_path(PARAMS, path("-"))[0] == 10.0
        assert price_path(PARAMS, path("U"))[1] == pytest.approx(12.0, abs=1e-12)
        assert price_path(PARAMS, path("UD"))[2] == pytest.approx(9.6, abs=1e-12)

    def test_double_down(self):
        assert price_path(PARAMS, path("DD"))[2] == pytest.approx(6.4, abs=1e-12)

    def test_path_dependence_collapses_on_price(self):
        assert price_path(PARAMS, path("UD"))[2] == pytest.approx(
            price_path(PARAMS, path("DU"))[2], abs=1e-12
        )

    def test_degenerate_factors_rejected_at_construction(self):
        # the bare formula would give a flat walk for u = d = 1, but such
        # parameters never pass validation
        with pytest.raises(ValueError):
            CrrParams(u=1.0, d=1.0, v=10.0, r=0.0, p=0.5)

    def test_adapted_at_every_time(self):
        for n in range(5):
            f = lambda w: price_path(PARAMS, w)[n]
            assert is_measurable_at(f, 4, n)

    def test_price_path_expands_walk(self):
        assert price_path(PARAMS, path("UD")) == pytest.approx([10.0, 12.0, 9.6])


class TestDiscounting:
    def test_compounding_values(self):
        assert disc_rfr_proc(0.03, 0) == 1.0
        assert disc_rfr_proc(0.03, 1) == pytest.approx(1.03, abs=1e-12)
        assert disc_rfr_proc(0.03, 2) == pytest.approx(1.0609, abs=1e-12)

    def test_zero_rate_is_flat(self):
        for n in range(5):
            assert disc_rfr_proc(0.0, n) == 1.0

    def test_two_percent_two_periods(self):
        assert disc_rfr_proc(0.02, 2) == pytest.approx(1.0404, abs=1e-12)

    def test_discounted_strike_example(self):
        df = 1 / disc_rfr_proc(0.02, 2)
        assert df == pytest.approx(0.96117, abs=5e-6)
        assert round(98 * df, 2) == 94.19

    def test_discounting_identity(self):
        assert 1 / disc_rfr_proc(0.03, 0) == 1.0
        assert 1 / disc_rfr_proc(0.03, 2) == pytest.approx(1 / 1.0609, abs=1e-15)

    def test_rate_floor_enforced(self):
        with pytest.raises(ValueError):
            disc_rfr_proc(-1.0, 1)
        with pytest.raises(ValueError):
            discounted_value(-1.0, LatticeProcess.constant(1, 1.0))

    def test_discounted_riskfree_price_is_constant_one(self):
        mkt = CrrMarket(PARAMS, horizon=4)
        deflated = discounted_value(PARAMS.r, mkt.price(mkt.riskfree))
        for n in range(5):
            assert deflated.level(n) == pytest.approx([1.0] * 2**n, abs=1e-15)

    def test_discounted_payoff_value(self):
        proc = LatticeProcess(2, lambda n: [2.4 if n == 2 else 0.0] * (1 << n))
        deflated = discounted_value(0.03, proc)
        assert deflated.at(2, path("UD")) == pytest.approx(2.262, abs=5e-4)

    def test_discounting_zero_is_zero(self):
        deflated = discounted_value(0.05, LatticeProcess.constant(3, 0.0))
        assert all(x == 0.0 for n in range(4) for x in deflated.level(n))


class TestViability:
    def test_reference_parameters_viable(self):
        assert is_viable(PARAMS)

    def test_high_rate_inviable(self):
        assert not is_viable(CrrParams(u=1.2, d=0.8, v=10, r=0.25, p=0.5))

    def test_boundary_is_excluded(self):
        assert not is_viable(CrrParams(u=1.2, d=1.0, v=10, r=0.0, p=0.5))


class TestRiskNeutralWeight:
    def test_reference_value(self):
        assert risk_neutral_q(PARAMS) == pytest.approx(0.575, abs=1e-12)

    def test_symmetric_case(self):
        params = CrrParams(u=1.25, d=0.75, v=10, r=0.0, p=0.3)
        assert risk_neutral_q(params) == pytest.approx(0.5, abs=1e-12)

    def test_plugged_formula(self):
        params = CrrParams(u=1.1, d=0.9, v=10, r=0.05, p=0.5)
        assert risk_neutral_q(params) == pytest.approx(0.75, abs=1e-12)

    def test_inviable_rejected(self):
        with pytest.raises(MarketNotViableError):
            risk_neutral_q(CrrParams(u=1.2, d=0.8, v=10, r=0.25, p=0.5))

    @given(params=viable_params)
    @settings(max_examples=80)
    def test_weight_interior_and_driftless(self, params):
        q = risk_neutral_q(params)
        assert 0.0 < q < 1.0
        assert abs(q * params.u + (1 - q) * params.d - (1.0 + params.r)) <= 1e-12


class TestStepRate:
    def test_daily_rate_from_annual(self):
        assert step_rate_from_annual(0.02, 252) == pytest.approx(7.85e-5, abs=1e-7)

    def test_zero_annual(self):
        assert step_rate_from_annual(0.0, 12) == 0.0

    def test_single_step_identity(self):
        assert step_rate_from_annual(0.1, 1) == pytest.approx(0.1, abs=1e-15)

    def test_round_trip(self):
        r = step_rate_from_annual(0.07, 52)
        assert (1 + r) ** 52 == pytest.approx(1.07, abs=1e-12)

    def test_annual_rate_must_exceed_minus_one(self):
        with pytest.raises(ValueError, match=r"^annual rate must exceed -1, got -1\.0$"):
            step_rate_from_annual(-1.0, 12)

    def test_at_least_one_step_per_year(self):
        with pytest.raises(ValueError, match="^steps per year must be at least 1, got 0$"):
            step_rate_from_annual(0.05, 0)


class TestFiltrationEquivalence:
    @staticmethod
    def zero_sets_agree(p: float, q: float, T: int) -> bool:
        # oracle: compare zero-probability cylinders path by path; an event
        # is null exactly when all its paths are, so this decides all events
        mp, mq = PathMeasure(p), PathMeasure(q)
        return all(
            (path_probability(mp, w) == 0.0) == (path_probability(mq, w) == 0.0)
            for w in enumerate_paths(T)
        )

    @pytest.mark.parametrize(
        "p,q", [(0.575, 0.3), (0.0, 0.5), (1.0, 0.5), (0.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
    )
    def test_closed_form_matches_cylinder_oracle(self, p, q):
        assert filtration_equivalent_bernoulli(p, q) == self.zero_sets_agree(p, q, 4)

    def test_interior_pair_equivalent(self):
        assert filtration_equivalent_bernoulli(0.575, 0.3)

    def test_degenerate_mismatch(self):
        assert not filtration_equivalent_bernoulli(0.0, 0.5)

    @given(p=st.floats(0.0, 1.0))
    @settings(max_examples=30)
    def test_reflexive(self, p):
        assert filtration_equivalent_bernoulli(p, p)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            filtration_equivalent_bernoulli(-0.1, 0.5)

    @pytest.mark.parametrize("p,q", [(0.3, 0.7), (1.0, 0.7), (0.0, 0.0)])
    def test_answer_needs_no_horizon(self, p, q):
        # the zero sets agree at every horizon or at none
        answers = {self.zero_sets_agree(p, q, T) for T in range(1, 6)}
        assert answers == {filtration_equivalent_bernoulli(p, q)}


class TestCrrMarket:
    def test_stock_set(self):
        mkt = CrrMarket(PARAMS, horizon=3)
        assert mkt.stocks == {mkt.risky, mkt.riskfree}
        assert mkt.extra in mkt.assets

    def test_is_a_market_with_no_inner_market(self):
        mkt = CrrMarket(PARAMS, horizon=3)
        assert isinstance(mkt, Market)
        assert not hasattr(mkt, "market")
        assert mkt.horizon == 3

    def test_price_processes(self):
        mkt = CrrMarket(PARAMS, horizon=3)
        assert mkt.price(mkt.risky).at(2, path("UD")) == pytest.approx(9.6)
        assert mkt.price(mkt.riskfree).at(2, path("DD")) == pytest.approx(1.0609)

    def test_json_round_trip(self):
        mkt = CrrMarket(PARAMS, horizon=5)
        again = CrrMarket.from_json(mkt.to_json())
        assert again.params == PARAMS
        assert again.horizon == 5

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("[]", "JSON object"),
            ("{", "not valid JSON"),
            ('{"u": 1.2, "d": 0.8, "v": 10, "r": 0.03, "p": 0.5}', "missing"),
            (
                '{"u": 1.2, "d": 0.8, "v": 10, "r": 0.03, "p": 0.5, "horizon": 2, "x": 1}',
                "unknown keys",
            ),
            (
                '{"u": 1.2, "d": 0.8, "v": 10, "r": 0.03, "p": 0.5, "horizon": 2.5}',
                "integer",
            ),
            (
                '{"u": "a", "d": 0.8, "v": 10, "r": 0.03, "p": 0.5, "horizon": 2}',
                "number",
            ),
        ],
    )
    def test_config_errors(self, text, fragment):
        with pytest.raises(ValueError, match=fragment):
            CrrMarket.from_json(text)

    @pytest.mark.parametrize("number", [10**400, -10**400])
    @pytest.mark.parametrize("key", ["u", "d", "v", "r", "p"])
    def test_integer_outside_the_float_range(self, key, number):
        data = dict(CrrMarket(PARAMS, horizon=2).to_dict(), **{key: number})
        with pytest.raises(ValueError) as caught:
            CrrMarket.from_json(json.dumps(data))
        # named by its key; the 401 digits are not echoed
        assert str(caught.value) == f"config key {key!r} is outside the float range"

    @pytest.mark.parametrize(
        "u,d,v",
        # the last one's prices stay in range, but q**3 (about 1e-331) does not
        [(1e200, 0.5, 1e200), (1.5, 1e-200, 1e-200), (1e110, 0.5, 1e-200)],
    )
    def test_prices_outside_float_range_rejected(self, u, d, v):
        with pytest.raises(ValueError, match="float range"):
            CrrMarket(CrrParams(u=u, d=d, v=v, r=0.01, p=0.5), horizon=3)

    def test_underflowing_risk_neutral_weights_rejected(self):
        # q is about 2.2e-16, so the all-up path's weight q**24 underflows
        params = CrrParams(u=2.0, d=math.nextafter(1.01, 0.0), v=1.0, r=0.01, p=0.5)
        CrrMarket(params, horizon=19)
        with pytest.raises(ValueError, match="risk-neutral path weights leave the float range"):
            CrrMarket(params, horizon=24)

    @pytest.mark.parametrize("u,d,v", [(1.5, 1e-110, 1e200)])
    def test_running_products_inside_float_range_accepted(self, u, d, v):
        # d**3 alone underflows, but no price or risk-neutral weight does
        assert d * d * d < sys.float_info.min
        crr = CrrMarket(CrrParams(u=u, d=d, v=v, r=0.01, p=0.5), horizon=3)
        stock = crr.price(crr.risky)
        prices = [x for n in range(4) for x in stock.level(n)]
        assert sys.float_info.min <= min(prices) and max(prices) < math.inf
        assert fair_price(crr, parse_payoff("S_T"), 3) == pytest.approx(v, rel=1e-12)

    def test_float_range_boundary(self):
        top = CrrParams(u=2.0, d=0.5, v=sys.float_info.max / 8, r=0.01, p=0.5)
        bottom = CrrParams(u=2.0, d=0.5, v=sys.float_info.min * 8, r=0.01, p=0.5)
        for params in (top, bottom):
            CrrMarket(params, horizon=3)
            with pytest.raises(ValueError, match="float range"):
                CrrMarket(params, horizon=4)

    @pytest.mark.parametrize("r, horizon", [(1e77, 5), (-1.0 + 1e-16, 24), (1e300, 2)])
    def test_risk_free_prices_outside_float_range_rejected(self, r, horizon):
        with pytest.raises(ValueError, match="risk-free prices leave the float range"):
            CrrMarket(CrrParams(u=1.5, d=0.5, v=1.0, r=r, p=0.5), horizon=horizon)

    def test_risk_free_float_range_boundary(self):
        params = CrrParams(u=2.0, d=0.5, v=1.0, r=2.0**256 - 1.0, p=0.5)
        CrrMarket(params, horizon=3)
        with pytest.raises(ValueError, match="risk-free prices leave the float range"):
            CrrMarket(params, horizon=4)

    def test_measures(self):
        mkt = CrrMarket(PARAMS, horizon=2)
        assert mkt.measure().p == 0.5
        assert mkt.risk_neutral_measure().p == pytest.approx(0.575, abs=1e-12)


class TestTwoRateArbitrage:
    def test_long_high_short_low_rate_portfolio(self):
        # two risk-free assets at different rates: buying the higher-rate one
        # and shorting the lower-rate one costs nothing and always gains
        horizon = 5
        r1, r2 = 0.01, 0.03
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
        assert init_value(mkt, p) == 0.0
        assert is_self_financing(mkt, p)
        for n in range(1, horizon + 1):
            w = TossPath((True,) * n)
            gain = closing_value_process(mkt, p, n, w)
            assert gain == pytest.approx(1.03**n - 1.01**n, abs=1e-12)
            assert gain > 0.0


@st.composite
def wide_markets(draw):
    """Markets up to horizon 12 with spot prices from 1e-300 to 1e300 and
    rates down to just above -1; configs whose prices or risk-neutral weights
    leave the float range are rejected by ``CrrMarket`` and skipped."""
    d = draw(st.floats(1e-3, 2.0))
    u = d * draw(st.floats(1.0, 4.0, exclude_min=True))
    v = draw(st.sampled_from([1e-300, 1e-9, 1.0, 1e9, 1e300])) * draw(st.floats(0.5, 2.0))
    r = draw(st.one_of(
        st.floats(-1.0, -0.99, exclude_min=True),
        st.sampled_from([-1.0 + 1e-15, -0.9985]),
        st.floats(-0.5, 1.0),
    ))
    try:
        return CrrMarket(CrrParams(u=u, d=d, v=v, r=r, p=0.5), horizon=draw(st.integers(1, 12)))
    except ValueError:
        reject()


class TestPriceLevels:
    """The market's price levels against the per-node formulas, bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(wide_markets())
    def test_levels_equal_the_node_formulas(self, crr):
        stock = crr.price(crr.risky)
        bank = crr.price(crr.riskfree)
        for n in range(crr.horizon + 1):
            nodes = list(iter_paths(n))
            assert list(map(repr, stock.level(n))) == [
                repr(price_path(crr.params, w)[-1]) for w in nodes
            ]
            assert list(map(repr, bank.level(n))) == [repr(disc_rfr_proc(crr.params.r, n))] * 2**n

    @settings(max_examples=60, deadline=None)
    @given(wide_markets())
    def test_risky_level_is_the_payoffs_running_product(self, crr):
        # the hedge and the payoff read the same price at every node
        stock = crr.price(crr.risky)
        for n in range(crr.horizon + 1):
            assert list(map(float.hex, stock.level(n))) == [
                prices[-1].hex() for prices in price_paths(crr.params, n)
            ]

    def test_levels_are_computed_on_demand(self):
        crr = CrrMarket(PARAMS, horizon=3)
        stock = crr.price(crr.risky)
        first = stock.level(2)
        first[0] = -1.0
        assert stock.level(2)[0] == pytest.approx(14.4)
        assert stock.at(2, path("UU")) == stock.level(2)[0]


def near(edge: float) -> st.SearchStrategy[float]:
    """``edge`` or a float close to it, kept within the positive finite floats."""
    return st.sampled_from([
        edge, math.nextafter(edge, 0.0), math.nextafter(edge, math.inf),
        edge * (1 - 1e-12), edge * (1 + 1e-12),
    ]).map(lambda x: min(max(x, 5e-324), sys.float_info.max))


@st.composite
def edge_walks(draw):
    """A toss count ``n`` up to 10 and walk parameters with ``v`` from 1e-300
    to 1e300, whose ``u`` and ``d`` are ordinary or sit at the edges of
    ``CrrMarket``'s float-range check: ``v * u**n`` at the largest finite
    float, ``v * d**n`` at the smallest normal one."""
    n = draw(st.integers(0, 10))
    v = 10.0 ** draw(st.floats(-300.0, 300.0))
    top = (sys.float_info.max / v) ** (1 / max(n, 1))
    bottom = (sys.float_info.min / v) ** (1 / max(n, 1))
    u = draw(st.one_of(st.floats(1.0, 4.0, exclude_min=True), near(top)))
    d = draw(st.one_of(st.floats(0.05, 1.0, exclude_max=True), near(bottom)))
    return CrrParams(u=u, d=d, v=v, r=0.0, p=0.5), n


class TestFloatRangeCheck:
    """``CrrMarket`` accepts a config exactly when every node of the running
    product, and in a viable market every risk-neutral path weight, stays
    finite and normal."""

    @settings(max_examples=300, deadline=None)
    @given(edge_walks())
    def test_accepts_exactly_the_configs_whose_nodes_stay_in_range(self, walk):
        params, n = walk
        horizon = max(n, 1)
        prices_in_range = all(
            math.isfinite(x) and x >= sys.float_info.min
            for t in range(horizon + 1)
            for x in toss_products(params.v, params.u, params.d, t)
        )
        q = risk_neutral_q(params) if is_viable(params) else 0.5
        weights_in_range = all(
            x >= sys.float_info.min
            for t in range(horizon + 1)
            for x in toss_products(1.0, q, 1.0 - q, t)
        )
        try:
            CrrMarket(params, horizon)
        except ValueError as exc:
            if not prices_in_range:
                assert "risky prices leave the float range" in str(exc)
            else:
                assert not weights_in_range
                assert "risk-neutral path weights leave the float range" in str(exc)
        else:
            assert prices_in_range and weights_in_range

    @settings(max_examples=300, deadline=None)
    @given(edge_walks())
    @example((CrrParams(u=1e110, d=0.5, v=1e-200, r=0.0, p=0.5), 3))
    @example((CrrParams(u=1.5, d=1e-110, v=1e200, r=0.0, p=0.5), 3))
    def test_accepted_edge_markets_price_the_stock_at_its_spot(self, walk):
        # r = 0, so the fair price of S_T is v; only products below the
        # smallest normal float, at most one per path, may be lost
        params, n = walk
        try:
            crr = CrrMarket(params, max(n, 1))
        except ValueError:
            reject()
        if not is_viable(params):
            reject()
        assert fair_price(crr, parse_payoff("S_T"), n) == pytest.approx(
            params.v, rel=1e-12, abs=2**n * sys.float_info.min
        )


class TestPricePaths:
    """``price_paths`` against ``price_path`` per toss tuple, and the
    terminal-price chunks against the last entry of each list, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(edge_walks())
    def test_equals_price_path_at_every_entry(self, walk):
        params, n = walk
        expected = [list(map(float.hex, price_path(params, w))) for w in iter_paths(n)]
        assert [list(map(float.hex, prices)) for prices in price_paths(params, n)] == expected
        assert [list(map(float.hex, last)) for last in terminal_prices(params, n)] == [
            prices[-1:] for prices in expected
        ]

    def test_yields_fresh_lists_lazily(self):
        # the first path of the largest horizon comes without building the
        # other 2^24 - 1
        first = next(price_paths(PARAMS, 24))
        assert first == price_path(PARAMS, (True,) * 24)
        lists = list(price_paths(PARAMS, 3))
        assert len({id(prices) for prices in lists}) == 8

    def test_terminal_prices_come_in_chunks(self, monkeypatch):
        depths = []
        products = crr_module.toss_products
        monkeypatch.setattr(
            crr_module, "toss_products", lambda *args: depths.append(args[3]) or products(*args)
        )
        # the first price of the largest horizon comes from two 2^12 levels
        assert next(terminal_prices(PARAMS, 24)) == (price_path(PARAMS, (True,) * 24)[-1],)
        assert depths == [12, 12]
        for n, chunks in ((0, [0, 0]), (1, [1, 0, 0]), (7, [4] + [3] * 16)):
            depths.clear()
            assert list(terminal_prices(PARAMS, n)) == [
                (prices[-1],) for prices in price_paths(PARAMS, n)
            ]
            assert depths == chunks

    def test_rejects_bad_lengths(self):
        with pytest.raises(ValueError):
            next(price_paths(PARAMS, -1))
        with pytest.raises(ValueError):
            terminal_prices(PARAMS, -1)
