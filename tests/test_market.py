"""Market structure and portfolio algebra against the worked three-stock tables."""
import io
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crrpricing.lattice import LatticeProcess, TossPath, enumerate_paths, iter_paths
from crrpricing.market import (
    _collapse_rows,
    Asset,
    Market,
    PortfolioFormatError,
    PortfolioRow,
    PredictabilityError,
    QuantityProcess,
    closing_value_process,
    init_value,
    is_self_financing,
    is_trading_strategy,
    make_self_financing,
    portfolio_rows,
    qty_empty,
    qty_mult_comp,
    qty_rem_comp,
    qty_single,
    qty_sum,
    quantities_allclose,
    quantity_process_from_rows,
    read_portfolio_csv,
    support_set,
    value_process,
    write_portfolio_csv,
)

APL = Asset("Apl")
GOOG = Asset("Goog")
FBK = Asset("Fbk")
SLOT = Asset("slot", kind="extra")

# deterministic share prices; the final time repeats the last quoted value
# because the portfolios are never rebalanced past their horizon
APL_PRICES = [100.0, 98.0, 96.0, 98.0, 98.0]
GOOG_PRICES = [90.0, 92.0, 98.0, 95.5, 95.5]
FBK_PRICES = [5.0, 4.0, 4.0, 5.0, 5.0]


@pytest.fixture
def mkt() -> Market:
    return Market(
        prices={
            APL: LatticeProcess.deterministic(APL_PRICES),
            GOOG: LatticeProcess.deterministic(GOOG_PRICES),
            FBK: LatticeProcess.deterministic(FBK_PRICES),
            SLOT: LatticeProcess.constant(4, 0.0),
        },
        stocks=[APL, GOOG, FBK],
    )


@pytest.fixture
def p1() -> QuantityProcess:
    # long n Apple shares and short n Google shares over ]n-1, n]
    return qty_sum(
        qty_single(APL, lambda n, w: float(n), horizon=4),
        qty_single(GOOG, lambda n, w: float(-n), horizon=4),
    )


def node(label: str) -> TossPath:
    return TossPath.from_label(label)


class TestMarketConstruction:
    def test_requires_non_stock_slot(self):
        prices = {APL: LatticeProcess.deterministic(APL_PRICES)}
        with pytest.raises(ValueError, match="non-stock"):
            Market(prices=prices, stocks=[APL])

    def test_rejects_mismatched_horizons(self):
        prices = {
            APL: LatticeProcess.deterministic(APL_PRICES),
            SLOT: LatticeProcess.constant(2, 0.0),
        }
        with pytest.raises(ValueError, match="horizon"):
            Market(prices=prices, stocks=[APL])

    def test_rejects_duplicate_ids(self):
        prices = {
            Asset("x"): LatticeProcess.constant(2, 1.0),
            Asset("x", kind="extra"): LatticeProcess.constant(2, 0.0),
        }
        with pytest.raises(ValueError, match="unique"):
            Market(prices=prices, stocks=[Asset("x")])


class TestQuantityAlgebra:
    def test_empty_has_no_support(self):
        assert support_set(qty_empty(3)) == frozenset()

    def test_empty_values_nothing(self, mkt):
        p = qty_empty(4)
        for n in range(5):
            assert value_process(mkt, p, n, node("UUUU")) == 0.0

    def test_empty_is_additive_identity(self, p1):
        assert quantities_allclose(qty_sum(p1, qty_empty(4)), p1)

    def test_single_support(self):
        ladder = qty_single(APL, lambda n, w: float(n), horizon=4)
        assert support_set(ladder) == frozenset({APL})
        assert support_set(qty_single(APL, lambda n, w: 0.0, horizon=4)) == frozenset()

    def test_single_leaves_other_assets_at_zero(self):
        ladder = qty_single(APL, lambda n, w: float(n), horizon=4)
        assert ladder.quantity(GOOG, 2, node("U")) == 0.0

    def test_sum_reproduces_quantity_ladder(self, p1):
        for n in range(1, 5):
            w = TossPath((True,) * (n - 1))
            assert p1.quantity(APL, n, w) == n
            assert p1.quantity(GOOG, n, w) == -n

    def test_sum_support_within_union(self, p1):
        assert support_set(p1) <= {APL, GOOG}
        assert support_set(p1) == {APL, GOOG}

    def test_mult_by_one_is_identity(self, p1):
        assert quantities_allclose(qty_mult_comp(p1, lambda n, w: 1.0), p1)

    def test_mult_by_zero_empties(self, p1):
        zeroed = qty_mult_comp(p1, lambda n, w: 0.0)
        assert support_set(zeroed) == frozenset()

    def test_mult_by_two_doubles_ladder(self, p1):
        doubled = qty_mult_comp(p1, lambda n, w: 2.0)
        for n in range(1, 5):
            w = TossPath((False,) * (n - 1))
            assert doubled.quantity(APL, n, w) == 2 * n
            assert doubled.quantity(GOOG, n, w) == -2 * n

    def test_rem_comp_drops_asset(self, p1):
        only_apl = qty_rem_comp(p1, GOOG)
        assert support_set(only_apl) == {APL}
        for n in range(1, 5):
            assert only_apl.quantity(APL, n, TossPath((True,) * (n - 1))) == n
            assert only_apl.quantity(GOOG, n, TossPath((True,) * (n - 1))) == 0.0

    def test_rem_comp_of_single_is_empty(self):
        p = qty_single(APL, lambda n, w: 1.0, horizon=3)
        assert quantities_allclose(qty_rem_comp(p, APL), qty_empty(3))

    def test_rem_comp_support_identity(self, p1):
        assert support_set(qty_rem_comp(p1, GOOG)) == support_set(p1) - {GOOG}

    def test_sum_horizon_mismatch_rejected(self):
        with pytest.raises(ValueError, match="horizon"):
            qty_sum(qty_empty(3), qty_empty(4))

    def test_quantity_key_validation(self, p1):
        with pytest.raises(ValueError):
            p1.quantity(APL, 0, node("-"))
        with pytest.raises(ValueError):
            p1.quantity(APL, 2, node("UU"))


class TestValueProcesses:
    def test_value_rows(self, mkt, p1):
        w = node("UUUU")
        got = [value_process(mkt, p1, n, w) for n in range(4)]
        assert got == pytest.approx([10.0, 12.0, -6.0, 10.0], abs=1e-12)

    def test_closing_value_rows(self, mkt, p1):
        w = node("UUUU")
        got = [closing_value_process(mkt, p1, n, w) for n in range(4)]
        assert got == pytest.approx([10.0, 6.0, -4.0, 7.5], abs=1e-12)

    def test_rows_are_node_independent(self, mkt, p1):
        # deterministic prices and quantities: every scenario gives the same rows
        for w in enumerate_paths(4):
            assert value_process(mkt, p1, 2, w) == pytest.approx(-6.0, abs=1e-12)
            assert closing_value_process(mkt, p1, 2, w) == pytest.approx(-4.0, abs=1e-12)

    def test_constant_composition_closes_at_value(self, mkt):
        p = qty_single(APL, lambda n, w: 5.0, horizon=4)
        for n in range(1, 4):
            w = node("UUUU")
            assert value_process(mkt, p, n, w) == closing_value_process(mkt, p, n, w)

    def test_bilinearity(self, mkt, p1):
        rng = random.Random(5)
        q2 = qty_single(FBK, lambda n, w: float(n * n), horizon=4)
        total = qty_sum(p1, q2)
        for n in range(5):
            w = node("UDUD")
            v = value_process(mkt, total, n, w)
            parts = value_process(mkt, p1, n, w) + value_process(mkt, q2, n, w)
            assert abs(v - parts) <= 1e-12
            c = closing_value_process(mkt, total, n, w)
            cparts = closing_value_process(mkt, p1, n, w) + closing_value_process(
                mkt, q2, n, w
            )
            assert abs(c - cparts) <= 1e-12

    def test_value_at_horizon_equals_closing(self, mkt, p1):
        w = node("DDDD")
        assert value_process(mkt, p1, 4, w) == closing_value_process(mkt, p1, 4, w)

    def test_time_out_of_range_rejected(self, mkt, p1):
        with pytest.raises(ValueError):
            value_process(mkt, p1, 5, node("DDDD"))

    def test_path_too_short_rejected(self, mkt, p1):
        with pytest.raises(ValueError):
            value_process(mkt, p1, 3, node("U"))


class TestSelfFinancing:
    def test_ladder_is_not_self_financing(self, mkt, p1):
        assert not is_self_financing(mkt, p1)

    def test_empty_is_self_financing(self, mkt):
        assert is_self_financing(mkt, qty_empty(4))

    def test_funded_variant_reproduces_table(self, mkt, p1):
        p2 = make_self_financing(mkt, p1, FBK, v0=0.0)
        expected_fbk = [-2.0, -3.5, -3.0, -3.5]
        for n in range(1, 5):
            w = TossPath((True,) * (n - 1))
            assert p2.quantity(FBK, n, w) == pytest.approx(expected_fbk[n - 1], abs=1e-12)
        rows = [value_process(mkt, p2, n, node("UUUU")) for n in range(4)]
        assert rows == pytest.approx([0.0, -2.0, -18.0, -7.5], abs=1e-12)
        closing = [closing_value_process(mkt, p2, n, node("UUUU")) for n in range(4)]
        assert closing == pytest.approx([0.0, -2.0, -18.0, -7.5], abs=1e-12)
        assert is_self_financing(mkt, p2)

    def test_funding_keeps_other_components(self, mkt, p1):
        p2 = make_self_financing(mkt, p1, FBK, v0=0.0)
        for n in range(1, 5):
            w = TossPath((False,) * (n - 1))
            assert p2.quantity(APL, n, w) == p1.quantity(APL, n, w)
            assert p2.quantity(GOOG, n, w) == p1.quantity(GOOG, n, w)

    def test_already_self_financing_unchanged(self, mkt):
        p = qty_single(APL, lambda n, w: 3.0, horizon=4)
        fixed = make_self_financing(mkt, p, FBK, v0=300.0)
        assert quantities_allclose(fixed, p)

    def test_random_portfolios_become_self_financing(self):
        rng = random.Random(20240811)
        for _ in range(20):
            horizon = rng.randint(2, 5)
            a = Asset("a")
            fund = Asset("fund")
            slot = Asset("slot", kind="extra")
            price_tbl = {
                (n, w): rng.uniform(1.0, 50.0)
                for n in range(horizon + 1)
                for w in enumerate_paths(n)
            }
            fund_tbl = {
                (n, w): rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 20.0)
                for n in range(horizon + 1)
                for w in enumerate_paths(n)
            }
            mkt = Market(
                prices={
                    a: LatticeProcess.from_table(horizon, price_tbl),
                    fund: LatticeProcess.from_table(horizon, fund_tbl),
                    slot: LatticeProcess.constant(horizon, 0.0),
                },
                stocks=[a, fund],
            )
            qty_tbl = {
                (n, w): rng.uniform(-5.0, 5.0)
                for n in range(1, horizon + 1)
                for w in enumerate_paths(n - 1)
            }
            p = qty_single(a, lambda n, w: qty_tbl[(n, w)], horizon=horizon)
            v0 = rng.uniform(-10.0, 10.0)
            fixed = make_self_financing(mkt, p, fund, v0)
            assert is_self_financing(mkt, fixed), "funded portfolio must be self-financing"
            assert init_value(mkt, fixed) == pytest.approx(v0, abs=1e-9)

    def test_zero_priced_funding_rejected(self, mkt, p1):
        assert mkt.price(SLOT).at(0, TossPath()) == 0.0
        with pytest.raises(ValueError, match="zero price"):
            make_self_financing(mkt, p1, SLOT, v0=0.0)


class TestTradingStrategy:
    def test_algebra_built_processes_qualify(self, p1):
        assert is_trading_strategy(p1)

    def test_table_peeking_at_first_toss_fails(self):
        rows = [
            PortfolioRow(0, node("U"), "Apl", 1.0),
            PortfolioRow(0, node("D"), "Apl", 2.0),
        ]
        assert not is_trading_strategy(rows, horizon=2)

    def test_table_constant_on_classes_qualifies(self):
        rows = [
            PortfolioRow(0, node("U"), "Apl", 2.0),
            PortfolioRow(0, node("D"), "Apl", 2.0),
            PortfolioRow(1, node("U"), "Apl", 5.0),
            PortfolioRow(1, node("D"), "Apl", -1.0),
        ]
        assert is_trading_strategy(rows, horizon=2)

    def test_init_value_examples(self, mkt, p1):
        assert init_value(mkt, p1) == pytest.approx(10.0, abs=1e-12)
        assert init_value(mkt, qty_empty(4)) == 0.0


class TestPortfolioCsv:
    def test_round_trip(self, mkt, p1):
        p2 = make_self_financing(mkt, p1, FBK, v0=0.0)
        text = write_portfolio_csv(p2)
        loaded = read_portfolio_csv(text, horizon=4, assets=mkt.assets)
        assert quantities_allclose(loaded, p2)

    def test_rows_are_deterministic(self, p1):
        assert portfolio_rows(p1) == portfolio_rows(p1)
        first = portfolio_rows(p1)[0]
        assert first == PortfolioRow(0, TossPath(), "Apl", 1.0)

    def test_bad_header_rejected(self):
        with pytest.raises(PortfolioFormatError, match="header"):
            read_portfolio_csv("a,b,c\n", horizon=2, assets=[APL, SLOT])

    def test_bad_number_rejected(self):
        text = "time,prefix,asset,quantity\n0,-,Apl,abc\n"
        with pytest.raises(PortfolioFormatError, match="line 2"):
            read_portfolio_csv(text, horizon=2, assets=[APL, SLOT])

    def test_unknown_asset_rejected(self):
        text = "time,prefix,asset,quantity\n0,-,Nope,1.0\n"
        with pytest.raises(PortfolioFormatError, match="unknown asset"):
            read_portfolio_csv(text, horizon=2, assets=[APL, SLOT])

    def test_unpredictable_table_rejected(self):
        text = "time,prefix,asset,quantity\n0,U,Apl,1.0\n0,D,Apl,2.0\n"
        with pytest.raises(PredictabilityError):
            read_portfolio_csv(text, horizon=2, assets=[APL, SLOT])

    def test_partial_refinement_against_default_zero_rejected(self):
        # only the up branch is quoted at depth 1; the down branch defaults
        # to 0, so the time-0 decision is not toss-independent
        text = "time,prefix,asset,quantity\n0,U,Apl,1.0\n"
        with pytest.raises(PredictabilityError):
            read_portfolio_csv(text, horizon=2, assets=[APL, SLOT])

    def test_coarse_row_expands_to_classes(self):
        rows = [PortfolioRow(1, TossPath(), "Apl", 4.0)]
        p = quantity_process_from_rows(rows, horizon=2, assets=[APL, SLOT])
        assert p.quantity(APL, 2, node("U")) == 4.0
        assert p.quantity(APL, 2, node("D")) == 4.0

    def test_empty_table_is_zero_portfolio(self):
        p = read_portfolio_csv(
            "time,prefix,asset,quantity\n", horizon=3, assets=[APL, SLOT]
        )
        assert quantities_allclose(p, qty_empty(3))


def brute_force_collapse(rows, horizon):
    """Reference for ``_collapse_rows``: the original O(4^T) scan, which
    compares every depth cell against every given row and every class."""
    by_key = {}
    for row in rows:
        if not 0 <= row.time < horizon:
            raise PortfolioFormatError(
                f"decision time {row.time} outside 0..{horizon - 1}"
            )
        if len(row.prefix) > horizon:
            raise PortfolioFormatError(
                f"prefix {row.prefix.label()!r} longer than the horizon {horizon}"
            )
        slot = by_key.setdefault((row.asset, row.time), {})
        if row.prefix in slot and slot[row.prefix] != row.quantity:
            raise PortfolioFormatError(
                f"conflicting quantities for asset {row.asset!r} at "
                f"(t={row.time}, {row.prefix.label()})"
            )
        slot[row.prefix] = row.quantity

    collapsed = {}
    for (asset_id, t), given in sorted(by_key.items()):
        depth = max(t, max(len(w) for w in given))
        cells = {}
        for w in iter_paths(depth):
            covering = [v for g, v in given.items() if w.truncate(len(g)) == g]
            if len(set(covering)) > 1:
                raise PredictabilityError(
                    f"asset {asset_id!r}: overlapping rows disagree at "
                    f"(t={t}, {w.label()})"
                )
            cells[w] = covering[0] if covering else 0.0
        target = collapsed.setdefault(asset_id, {})
        for cls in iter_paths(t):
            values = {cells[w] for w in iter_paths(depth) if w.truncate(t) == cls}
            if len(values) > 1:
                raise PredictabilityError(
                    f"asset {asset_id!r}: quantity chosen at time {t} varies with "
                    f"tosses after {cls.label()}"
                )
            target[(t, cls)] = values.pop()
    return collapsed


@st.composite
def row_tables(draw):
    """Small row tables: coarse, deeper-keyed, overlapping and conflicting
    rows over two assets and a few quantities (signed zeros included)."""
    horizon = draw(st.integers(1, 4))
    prefixes = st.integers(0, horizon).flatmap(
        lambda n: st.tuples(*[st.booleans()] * n).map(TossPath)
    )
    row = st.builds(
        PortfolioRow,
        time=st.integers(0, horizon - 1),
        prefix=prefixes,
        asset=st.sampled_from(["S", "rf"]),
        quantity=st.sampled_from([1.0, 0.0, -0.0, 2.5]),
    )
    return draw(st.lists(row, max_size=10)), horizon


def collapse_outcome(collapse, rows, horizon):
    try:
        return repr(collapse(rows, horizon))
    except ValueError as exc:
        return type(exc), str(exc)


class TestCollapseRows:
    @settings(max_examples=400, deadline=None)
    @given(row_tables())
    def test_matches_brute_force(self, table):
        rows, horizon = table
        assert collapse_outcome(_collapse_rows, rows, horizon) == collapse_outcome(
            brute_force_collapse, rows, horizon
        )

    def test_csv_round_trip_at_horizon_twelve(self):
        risky, bank = Asset("S"), Asset("rf")
        p = QuantityProcess(
            12,
            {
                risky: lambda n, w: n + sum(w) / 7,
                bank: lambda n, w: -0.1 * n * len([o for o in w if not o]),
            },
        )
        loaded = read_portfolio_csv(write_portfolio_csv(p), 12, [risky, bank])
        assert quantities_allclose(loaded, p, tol=0.0)
