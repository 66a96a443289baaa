"""Market structure and portfolio algebra against the worked three-stock tables."""
import csv
import io
import itertools
import math
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crrpricing.lattice import LatticeProcess, TossPath, enumerate_paths, iter_paths, prefix_labels
from crrpricing import market
from crrpricing.market import (
    _collapse_rows,
    Asset,
    Market,
    PortfolioFormatError,
    PortfolioRow,
    PredictabilityError,
    QuantityProcess,
    closing_value_level,
    closing_value_process,
    init_value,
    is_self_financing,
    is_trading_strategy,
    make_self_financing,
    qty_empty,
    qty_mult_comp,
    qty_rem_comp,
    qty_single,
    qty_sum,
    quantities_allclose,
    quantity_process_from_rows,
    read_portfolio_csv,
    read_portfolio_rows,
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
        rows = read_portfolio_rows(write_portfolio_csv(p1))
        assert rows == read_portfolio_rows(write_portfolio_csv(p1))
        assert rows[0] == PortfolioRow(0, TossPath(), "Apl", 1.0)

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

    @pytest.mark.parametrize("coarse", ["-", "U"])
    def test_overlapping_rows_that_disagree_conflict(self, coarse):
        # the same verdict whether the second row sits at the same depth
        # as the first or above it
        text = f"time,prefix,asset,quantity\n1,U,Apl,1.0\n1,{coarse},Apl,0.5\n"
        with pytest.raises(PortfolioFormatError, match=r"conflicting quantities for asset 'Apl' at \(t=1, U\)"):
            read_portfolio_csv(text, horizon=2, assets=[APL, SLOT])

    def test_deeper_rows_that_disagree_conflict(self):
        text = "time,prefix,asset,quantity\n0,U,Apl,1.0\n0,UD,Apl,2.0\n"
        with pytest.raises(PortfolioFormatError, match=r"at \(t=0, UD\)"):
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
                raise PortfolioFormatError(
                    f"conflicting quantities for asset {asset_id!r} at "
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
                risky: [[n + sum(w) / 7 for w in iter_paths(n - 1)] for n in range(1, 13)],
                bank: [[-0.1 * n * len([o for o in w if not o]) for w in iter_paths(n - 1)]
                       for n in range(1, 13)],
            },
        )
        loaded = read_portfolio_csv(write_portfolio_csv(p), 12, [risky, bank])
        assert quantities_allclose(loaded, p, tol=0.0)


class TestQuantityLevels:
    def test_levels_follow_enumeration_order(self, p1):
        doubled = qty_mult_comp(p1, lambda n, w: w.index() + 0.5)
        for n in range(1, 5):
            level = doubled.levels[APL][n - 1]
            assert level == [doubled.quantity(APL, n, w) for w in iter_paths(n - 1)]
            assert level == [n * (k + 0.5) for k in range(2 ** (n - 1))]

    @pytest.mark.parametrize("table", [[[1.0]], [[1.0], [1.0], [1.0, 1.0], [0.0] * 4],
                                       [[1.0], [1.0, 2.0], [0.0] * 3]])
    def test_rejects_levels_of_the_wrong_shape(self, table):
        with pytest.raises(ValueError, match="levels of lengths 1, 2, ..., 2\\^2"):
            QuantityProcess(3, {APL: table})

    def test_allclose_fails_closed_on_nan(self):
        nan = QuantityProcess(2, {APL: [[1.0], [math.nan, 2.0]]})
        one = QuantityProcess(2, {APL: [[1.0], [1.0, 2.0]]})
        assert not quantities_allclose(nan, one)
        assert not quantities_allclose(one, nan, tol=math.inf)
        assert not quantities_allclose(nan, nan)
        assert quantities_allclose(one, one, tol=0.0)

    def test_support_is_found_at_construction(self):
        p = QuantityProcess(2, {APL: [[0.0], [0.0, -0.0]], GOOG: [[0.0], [0.0, math.nan]]})
        assert support_set(p) == {GOOG}


# The node-by-node portfolio engine the level lists replaced, kept as the
# reference: every holding is read through ``quantity`` and every price
# through ``LatticeProcess.at``.


def reference_support(p):
    return frozenset(
        a for a in p.levels
        if any(p.quantity(a, n, w) != 0.0 for n in range(1, p.horizon + 1) for w in iter_paths(n - 1))
    )


def reference_worth(mkt, p, n, w, t):
    held = w.truncate(t)
    support = sorted(reference_support(p), key=lambda a: a.id)
    return math.fsum(mkt.price(a).at(n, w) * p.quantity(a, t + 1, held) for a in support)


def reference_is_self_financing(mkt, p, tol):
    for n in range(1, p.horizon):
        for w in iter_paths(n):
            value, closing = reference_worth(mkt, p, n, w, n), reference_worth(mkt, p, n, w, n - 1)
            if not abs(value - closing) <= tol:
                return False
    return True


def reference_make_self_financing(mkt, p, funding, v0):
    """The funding holdings, as a ``(n, prefix)`` table, or the error."""
    fprice = mkt.price(funding)
    for n in range(p.horizon + 1):
        for w in iter_paths(n):
            if fprice.at(n, w) == 0.0:
                raise ValueError(
                    f"funding asset {funding.id!r} has zero price at node (t={n}, {w.label()})"
                )
    others = sorted((a for a in reference_support(p) if a != funding), key=lambda a: a.id)
    root = TossPath()
    spent0 = math.fsum(mkt.price(a).at(0, root) * p.quantity(a, 1, root) for a in others)
    beta = {(1, root): (v0 - spent0) / fprice.at(0, root)}
    for n in range(1, p.horizon):
        for w in iter_paths(n):
            held = w.truncate(n - 1)
            cost = math.fsum(
                mkt.price(a).at(n, w) * (p.quantity(a, n, held) - p.quantity(a, n + 1, w))
                for a in others
            )
            beta[(n + 1, w)] = beta[(n, held)] + cost / fprice.at(n, w)
    return beta


def reference_write_portfolio_csv(p):
    buf = io.StringIO()
    buf.write("time,prefix,asset,quantity\n")
    for t in range(p.horizon):
        for w in iter_paths(t):
            for a in sorted(p.levels, key=lambda a: a.id):
                buf.write(f"{t},{w.label()},{a.id},{p.quantity(a, t + 1, w)!r}\n")
    return buf.getvalue()


def reference_quantities_allclose(q1, q2, tol):
    if q1.horizon != q2.horizon:
        return False
    for a in q1.levels.keys() | q2.levels.keys():
        for n in range(1, q1.horizon + 1):
            for w in iter_paths(n - 1):
                if not abs(q1.quantity(a, n, w) - q2.quantity(a, n, w)) <= tol:
                    return False
    return True


MARKET_ASSETS = [APL, GOOG, FBK, SLOT]


def draw_number(rng, low, high, specials):
    """Uniform in ``[low, high]``, or one of ``specials`` one time in four."""
    return rng.choice(specials) if rng.random() < 0.25 else rng.uniform(low, high)


@st.composite
def random_markets(draw):
    """A market of random node tables, zero prices included."""
    horizon = draw(st.integers(1, 5))
    rng = random.Random(draw(st.integers(0, 2**32)))
    tables = {
        a: LatticeProcess.from_table(horizon, {
            (n, w): draw_number(rng, -50.0, 200.0, [0.0, 1.0])
            for n in range(horizon + 1) for w in iter_paths(n)
        })
        for a in MARKET_ASSETS
    }
    return Market(tables, stocks=[APL, GOOG, FBK])


@st.composite
def random_portfolios(draw, horizon):
    """Random holdings of some assets; NaN, signed zeros and constants included."""
    assets = draw(st.lists(st.sampled_from(MARKET_ASSETS), unique=True, max_size=4))
    rng = random.Random(draw(st.integers(0, 2**32)))
    specials = [0.0, -0.0, 1.0] + [math.nan] * draw(st.booleans())
    return QuantityProcess(horizon, {
        a: [[draw_number(rng, -10.0, 10.0, specials) for _ in range(2**t)] for t in range(horizon)]
        for a in assets
    })


@st.composite
def markets_and_portfolios(draw):
    mkt = draw(random_markets())
    p = draw(random_portfolios(draw(st.integers(1, mkt.horizon))))
    return mkt, p


def same_floats(xs, ys):
    return list(map(repr, xs)) == list(map(repr, ys))


class TestLevelsMatchNodeByNode:
    @settings(max_examples=200, deadline=None)
    @given(markets_and_portfolios(), st.sampled_from([0.0, 1e-9, 1e-3, 1.0, math.inf]))
    def test_values_and_self_financing(self, case, tol):
        mkt, p = case
        assert support_set(p) == reference_support(p)
        assert is_self_financing(mkt, p, tol) == reference_is_self_financing(mkt, p, tol)
        nan_held = any(math.isnan(x) for table in p.levels.values() for level in table for x in level)
        if nan_held and p.horizon >= 2:  # fails closed, whatever the tolerance
            assert not is_self_financing(mkt, p, tol)
        for n in range(p.horizon + 1):
            nodes = list(iter_paths(n))
            closing = [reference_worth(mkt, p, n, w, max(n - 1, 0)) for w in nodes]
            value = [reference_worth(mkt, p, n, w, min(n, p.horizon - 1)) for w in nodes]
            assert same_floats(closing_value_level(mkt, p, n), closing)
            assert same_floats([closing_value_process(mkt, p, n, w) for w in nodes], closing)
            assert same_floats([value_process(mkt, p, n, w) for w in nodes], value)

    @settings(max_examples=200, deadline=None)
    @given(markets_and_portfolios(), st.sampled_from(MARKET_ASSETS), st.sampled_from([0.0, 5.0, -2.5]))
    def test_make_self_financing(self, case, funding, v0):
        mkt, p = case
        try:
            beta = reference_make_self_financing(mkt, p, funding, v0)
        except ValueError as exc:
            with pytest.raises(ValueError) as raised:
                make_self_financing(mkt, p, funding, v0)
            assert str(raised.value) == str(exc)
            return
        fixed = make_self_financing(mkt, p, funding, v0)
        assert fixed.levels.keys() == p.levels.keys() | {funding}
        for n in range(1, p.horizon + 1):
            nodes = list(iter_paths(n - 1))
            assert same_floats(fixed.levels[funding][n - 1], [beta[(n, w)] for w in nodes])
            for a in p.levels.keys() - {funding}:
                assert same_floats(fixed.levels[a][n - 1], [p.quantity(a, n, w) for w in nodes])

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 5).flatmap(lambda h: st.tuples(random_portfolios(h), random_portfolios(h))),
           st.sampled_from([0.0, 1e-12, 0.5]))
    def test_csv_and_allclose(self, pair, tol):
        q1, q2 = pair
        assert write_portfolio_csv(q1) == reference_write_portfolio_csv(q1)
        assert quantities_allclose(q1, q2, tol) == reference_quantities_allclose(q1, q2, tol)
        assert quantities_allclose(q1, q1, tol) == reference_quantities_allclose(q1, q1, tol)
        assert quantities_allclose(q1, qty_empty(q1.horizon + 1), tol) is False


def csv_writer_portfolio_csv(p, out=None):
    """``write_portfolio_csv`` as it was, through one ``csv.writer.writerows``
    call per level."""
    buf = out if out is not None else io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["time", "prefix", "asset", "quantity"])
    chosen = sorted(p.levels, key=lambda a: a.id)
    ids = [a.id for a in chosen]
    for t, labels in enumerate(prefix_labels(p.horizon - 1)):
        writer.writerows(zip(
            itertools.repeat(t),
            itertools.chain.from_iterable(zip(*[labels] * len(ids))),
            itertools.cycle(ids),
            itertools.chain.from_iterable(zip(*(map(repr, p.levels[a][t]) for a in chosen))),
        ))
    return buf.getvalue() if out is None else ""


# Signed zeros, subnormals, the extremes of the float range, and the rest.
ODD_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-308,
                     -1e308, 1.7976931348623157e308, -1.7976931348623157e308]),
    st.floats(-1e-300, 1e-300),
    st.floats(),
)

# Ids that csv.writer has to quote, and some that it does not.
ASSET_IDS = st.text(st.sampled_from(list('ab,"\n\r é€Ω') + ["\U0001f600"]), min_size=1, max_size=5)


@st.composite
def odd_portfolios(draw):
    horizon = draw(st.integers(1, 5))
    ids = draw(st.lists(ASSET_IDS, unique=True, max_size=4))
    return QuantityProcess(horizon, {
        Asset(i): [draw(st.lists(ODD_FLOATS, min_size=1 << t, max_size=1 << t)) for t in range(horizon)]
        for i in ids
    })


class TestPortfolioCsvBytes:
    @settings(max_examples=100, deadline=None)
    @given(odd_portfolios(), st.integers(1, 9))
    def test_joined_lines_equal_the_csv_writer(self, p, batch):
        # small batches put batch boundaries inside and at the ends of levels
        with mock.patch.object(market, "CSV_BATCH", batch):
            assert write_portfolio_csv(p) == csv_writer_portfolio_csv(p)
            stream, reference = io.StringIO(), io.StringIO()
            assert write_portfolio_csv(p, stream) == csv_writer_portfolio_csv(p, reference) == ""
            assert stream.getvalue() == reference.getvalue()

    def test_horizon_twelve_in_default_batches(self):
        p = QuantityProcess(12, {
            Asset("S"): [[k / 7 - t for k in range(1 << t)] for t in range(12)],
            Asset("rf"): [[-0.0] * (1 << t) for t in range(12)],
        })
        assert write_portfolio_csv(p) == csv_writer_portfolio_csv(p)

    def test_awkward_ids_read_back(self):
        p = QuantityProcess(2, {Asset('a,"b"\nc'): [[1.5], [-0.0, 2.0]], Asset("é S"): [[0.0], [1.0, 5e-324]]})
        rows = read_portfolio_rows(write_portfolio_csv(p))
        assert {row.asset for row in rows} == {'a,"b"\nc', "é S"}
        assert len(rows) == 6
