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

from crrpricing.crr import CrrMarket, CrrParams
from crrpricing.lattice import LatticeProcess, TossPath, enumerate_paths, iter_paths, label_at, prefix_labels
from crrpricing import market
from crrpricing.payoff import PayoffEvalError
from crrpricing.pricing import terminal_payoffs
from crrpricing.market import (
    _collapse_rows,
    Asset,
    Market,
    PortfolioFormatError,
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
    read_path_table,
    read_portfolio_csv,
    support_set,
    value_process,
    write_portfolio_csv,
)

APL = Asset("Apl")
GOOG = Asset("Goog")
FBK = Asset("Fbk")
SLOT = Asset("slot")

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

    @pytest.mark.parametrize("build, message", [
        (lambda: Asset(""), "asset id must be nonempty"),
        (lambda: Market({SLOT: LatticeProcess.constant(2, 0.0)}, stocks=[APL]),
         "stocks must be drawn from the market's assets"),
        (lambda: Market({APL: LatticeProcess.constant(0, 1.0), SLOT: LatticeProcess.constant(0, 0.0)},
                        stocks=[APL]),
         "market horizon must be at least 1"),
        (lambda: QuantityProcess(0, {}), "quantity process needs horizon >= 1"),
    ], ids=["empty id", "foreign stock", "horizon 0", "quantity horizon 0"])
    def test_constructor_rejections(self, build, message):
        with pytest.raises(ValueError) as info:
            build()
        assert str(info.value) == message

    def test_price_of_an_untraded_asset_rejected(self, mkt):
        with pytest.raises(ValueError) as info:
            mkt.price(Asset("Msft"))
        assert str(info.value) == "asset 'Msft' is not traded on this market"


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

    def test_portfolio_outlasting_the_market_rejected(self, mkt):
        long = qty_single(APL, lambda n, w: 1.0, horizon=5)
        with pytest.raises(ValueError) as info:
            value_process(mkt, long, 0, TossPath())
        assert str(info.value) == "portfolio horizon 5 exceeds market horizon 4"


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
            slot = Asset("slot")
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
        text = "time,prefix,asset,quantity\n0,U,Apl,1.0\n0,D,Apl,2.0\n"
        with pytest.raises(PredictabilityError, match="varies with tosses after -"):
            read_portfolio_csv(text, horizon=2, assets=[APL, SLOT])

    def test_table_constant_on_classes_qualifies(self):
        text = "time,prefix,asset,quantity\n0,U,Apl,2.0\n0,D,Apl,2.0\n1,U,Apl,5.0\n1,D,Apl,-1.0\n"
        p = read_portfolio_csv(text, horizon=2, assets=[APL, SLOT])
        assert p.levels[APL] == [[2.0], [5.0, -1.0]]
        assert is_trading_strategy(p)

    @pytest.mark.parametrize("table", [[], [(0, node("U"), "Apl", 1.0)], "time,prefix,asset,quantity\n"],
                             ids=["no rows", "row tuples", "csv text"])
    def test_only_quantity_processes_get_a_verdict(self, table):
        with pytest.raises(TypeError, match="expected a QuantityProcess"):
            is_trading_strategy(table)

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
        text = write_portfolio_csv(p1)
        assert text == write_portfolio_csv(p1)
        assert text.splitlines()[1] == "0,-,Apl,1.0"
        loaded = read_portfolio_csv(text, horizon=4, assets=[APL, GOOG, SLOT])
        assert levels_repr(loaded) == levels_repr(read_portfolio_csv(text, horizon=4, assets=[APL, GOOG, SLOT]))
        assert levels_repr(loaded) == levels_repr(p1)

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
        text = "time,prefix,asset,quantity\n1,-,Apl,4.0\n"
        p = read_portfolio_csv(text, horizon=2, assets=[APL, SLOT])
        assert p.quantity(APL, 2, node("U")) == 4.0
        assert p.quantity(APL, 2, node("D")) == 4.0

    def test_empty_table_is_zero_portfolio(self):
        p = read_portfolio_csv(
            "time,prefix,asset,quantity\n", horizon=3, assets=[APL, SLOT]
        )
        assert quantities_allclose(p, qty_empty(3))


def levels_repr(q):
    """Every holding of ``q`` by asset id, signs of zeros included."""
    return repr(sorted((a.id, table) for a, table in q.levels.items()))


PORTFOLIO_HEADER = "time,prefix,asset,quantity\n"
TABLE_HEADER = "prefix,value\n"

# (reader, CSV text, exception class, message): the record loop's own faults,
# then each reader's field rules, all numbered by their line in the file
RECORD_FAULTS = [
    (read_portfolio_csv, "", PortfolioFormatError,
     "portfolio CSV must start with header 'time,prefix,asset,quantity'"),
    (read_path_table, "", ValueError, "path table must start with header 'prefix,value'"),
    (read_path_table, "prefix,value,x\nU,1\n", ValueError,
     "path table must start with header 'prefix,value'"),
    (read_path_table, "value,prefix\n", ValueError,
     "path table must start with header 'prefix,value'"),
    (read_portfolio_csv, PORTFOLIO_HEADER + "0,-,Apl\n", PortfolioFormatError,
     "line 2: expected 4 columns, got 3"),
    (read_path_table, TABLE_HEADER + "U,1,2\n", ValueError,
     "path table line 2: expected 2 columns, got 3"),
    (read_path_table, TABLE_HEADER + "U,1\n\nD\n", ValueError,
     "path table line 4: expected 2 columns, got 1"),
    (read_portfolio_csv, PORTFOLIO_HEADER + "\nx,-,Apl,1\n", PortfolioFormatError,
     "line 3: invalid literal for int() with base 10: 'x'"),
    (read_portfolio_csv, PORTFOLIO_HEADER + "0,-,Apl,inf\n", PortfolioFormatError,
     "line 2: quantity 'inf' is not finite"),
    (read_path_table, TABLE_HEADER + "X,1\n", ValueError,
     "path table line 2: invalid toss label 'X': characters must be U or D"),
    (read_path_table, TABLE_HEADER + "U,abc\n", ValueError,
     "path table line 2: could not convert string to float: 'abc'"),
    # a bad value outranks a wrong length
    (read_path_table, TABLE_HEADER + "UU,abc\n", ValueError,
     "path table line 2: could not convert string to float: 'abc'"),
    (read_path_table, TABLE_HEADER + "UU,1\n", ValueError,
     "path table line 2: prefix 'UU' has length 2, expected 1"),
    (read_path_table, TABLE_HEADER + "U,1\n\nU,2\n", ValueError,
     "path table line 4: duplicate prefix"),
]

RECORD_FAULT_IDS = [
    "portfolio empty",
    "table empty",
    "table extra header column",
    "table swapped header",
    "portfolio short line",
    "table long line",
    "table short line after a blank",
    "portfolio bad time after a blank",
    "portfolio infinite quantity",
    "table bad label",
    "table bad value",
    "table bad value and length",
    "table wrong length",
    "table duplicate after a blank",
]


class TestCsvRecords:
    """Portfolio CSVs and path tables run on one record loop."""

    @staticmethod
    def read(reader, text):
        return reader(text, 1) if reader is read_path_table else reader(text, 2, [APL, SLOT])

    @pytest.mark.parametrize("reader, text, error, message", RECORD_FAULTS, ids=RECORD_FAULT_IDS)
    def test_faults_carry_the_line(self, reader, text, error, message):
        with pytest.raises(ValueError) as info:
            self.read(reader, text)
        assert (type(info.value), str(info.value)) == (error, message)

    def test_blank_lines_are_skipped(self, p1):
        text = write_portfolio_csv(p1)
        spaced = text.replace("\n", "\n\n", 3) + "\n\n"
        assert levels_repr(read_portfolio_csv(spaced, 4, [APL, GOOG])) == levels_repr(p1)
        table = read_path_table(TABLE_HEADER + "\nU,1.5\n\n\nD,0\n\n", 1)
        assert table == [1.5, 0.0]

    def test_header_only_reads_no_records(self):
        assert read_portfolio_csv(PORTFOLIO_HEADER, 2, [APL, SLOT]).levels == {}
        with pytest.raises(ValueError, match=r"^path table misses 4 of 4 maturity paths, e.g. UU$"):
            read_path_table(" prefix , value ", 2)


def tossed_path_table(text, maturity):
    """Reference for ``read_path_table``'s records: the former reader, which
    keys each row by its ``TossPath`` and leaves missing paths to the caller."""
    table = {}

    def entry(rec):
        prefix = TossPath.from_label(rec[0].strip())
        value = float(rec[1])
        if len(prefix) != maturity:
            raise ValueError(
                f"prefix {prefix.label()!r} has length {len(prefix)}, expected {maturity}"
            )
        if prefix in table:
            raise ValueError("duplicate prefix")
        table[prefix] = value

    market._read_csv(text, ("prefix", "value"), "path table", "path table line", ValueError, entry)
    return table


def tossed_table_level(table, maturity):
    """Reference for the completeness check: the former ``Mapping`` branch of
    ``terminal_payoffs``, its missing-path scan and then the values in
    ``iter_paths`` order."""
    missing = [w for w in iter_paths(maturity) if w not in table]
    if missing:
        raise ValueError(
            f"path table misses {len(missing)} of {2 ** maturity} maturity "
            f"paths, e.g. {missing[0].label()}"
        )
    return [table[w] for w in iter_paths(maturity)]


def tossed_payoffs(text, maturity):
    """Reference for ``terminal_payoffs`` of a path table: the former reader and
    ``Mapping`` branch, which read ``table[w]`` at each maturity path in turn
    and named the first path whose value is not finite."""
    table = tossed_path_table(text, maturity)
    tossed_table_level(table, maturity)
    values = []
    for w in iter_paths(maturity):
        if not math.isfinite(table[w]):
            raise PayoffEvalError(f"payoff is not finite at path {w.label()}")
        values.append(table[w])
    return values


TABLE_CRR = CrrMarket(CrrParams(u=1.2, d=0.8, v=10.0, r=0.03, p=0.5), horizon=3)
TABLE_VALUES = st.floats().map(repr) | st.sampled_from(["nan", "-inf", "1e400", " 2 "])
TABLE_FAULTS = st.sampled_from(["abc", "", "1,2"])
TABLE_LABELS = st.integers(0, 4).flatmap(lambda n: st.integers(0, (1 << n) - 1).map(lambda k: label_at(n, k)))


@st.composite
def path_tables(draw):
    """A path table and its maturity: complete or not, with duplicate rows,
    wrong lengths, bad labels, blank lines, odd field counts, NaN and inf."""
    maturity = draw(st.integers(0, 3))
    labels = [label_at(maturity, k) for k in range(1 << maturity)]
    rows = list(draw(st.permutations(labels)))
    if draw(st.booleans()):  # drop rows, add others, shuffle again
        rows = rows[:draw(st.integers(0, len(rows)))] + draw(st.lists(st.one_of(
            st.sampled_from(labels),
            TABLE_LABELS,
            st.sampled_from(["", "-", " U ", "X", "U_", "+U", "U D", "u", "-U"]),
        ), max_size=4))
        rows = draw(st.permutations(rows))
    lines = ["prefix,value"]
    for label in rows:
        value = draw(TABLE_FAULTS if draw(st.integers(0, 15)) == 0 else TABLE_VALUES)
        lines += [""] * draw(st.integers(0, 1)) + [f"{label},{value}"]
    return maturity, "\n".join(lines) + "\n"


def stringio_read_csv(text, fields, what, where, error, record):
    """Reference for ``market._read_csv``: the same loop over ``io.StringIO`` lines."""
    reader = csv.reader(io.StringIO(text))
    records = []
    try:
        if [h.strip() for h in next(reader, [])] == list(fields):
            for rec in filter(None, reader):
                if len(rec) != len(fields):
                    raise ValueError(f"expected {len(fields)} columns, got {len(rec)}")
                records.append(record(rec))
            return records
    except (ValueError, csv.Error) as exc:
        raise error(f"{where} {reader.line_num}: {exc}") from None
    raise error(f"{what} must start with header {','.join(fields)!r}")


CSV_TEXT = st.lists(st.sampled_from(["a", "b", ",", '"', "\n", "\r", "\r\n", " ", "\x00", "\u2028", "\x0c", "é", "\ud83d", "\ude00", "\U0001f600"]))


class TestCsvLines:
    @settings(max_examples=500, deadline=None)
    @given(st.sampled_from(["a,b\n", "a,b", ""]), CSV_TEXT.map("".join))
    def test_records_and_line_numbers_match_stringio(self, header, body):
        def record(rec):
            if rec == ["b", "a"]:
                raise ValueError("a record fault")
            return rec

        args = (header + body, ("a", "b"), "table", "line", PortfolioFormatError, record)
        assert outcome(lambda: market._read_csv(*args)) == outcome(lambda: stringio_read_csv(*args))


class TestPathTableLevel:
    """``read_path_table`` gives the maturity level, as the former
    ``{TossPath: value}`` table read through ``terminal_payoffs`` did."""

    @settings(max_examples=400, deadline=None)
    @given(path_tables())
    def test_matches_the_tossed_table(self, case):
        maturity, text = case
        assert outcome(lambda: read_path_table(text, maturity)) == outcome(
            lambda: tossed_table_level(tossed_path_table(text, maturity), maturity)
        )
        assert outcome(lambda: terminal_payoffs(TABLE_CRR, read_path_table(text, maturity), maturity)) == outcome(
            lambda: tossed_payoffs(text, maturity)
        )

    def test_level_is_in_iter_paths_order(self):
        text = TABLE_HEADER + "DD,4\nUD,2\nDU,3\nUU,1\n"
        assert read_path_table(text, 2) == [1.0, 2.0, 3.0, 4.0]
        assert read_path_table(TABLE_HEADER + "-,7\n", 0) == [7.0]

    def test_misses_name_the_first_path(self):
        with pytest.raises(ValueError, match=r"^path table misses 2 of 4 maturity paths, e.g. UD$"):
            read_path_table(TABLE_HEADER + "DD,4\nUU,1\n", 2)

    def test_maturity_is_checked_after_the_records(self):
        with pytest.raises(ValueError, match=r"^path table line 2: prefix 'U' has length 1, expected 25$"):
            read_path_table(TABLE_HEADER + "U,1\n", 25)
        with pytest.raises(ValueError, match=r"^maturity 25 exceeds the exhaustive-enumeration cap 24 \(2\*\*25 paths\); reduce the maturity$"):
            read_path_table(TABLE_HEADER, 25)
        with pytest.raises(ValueError, match="^maturity must be a nonnegative integer, got -1$"):
            read_path_table(TABLE_HEADER, -1)


def brute_force_collapse(keys, horizon):
    """Reference for ``_collapse_rows``: the original O(4^T) scan, which
    compares every depth cell against every given row and every class. A row
    is the key ``(asset id, time, prefix length, prefix index, quantity)``."""
    by_key = {}
    for asset_id, time, n, k, quantity in keys:
        prefix = TossPath.from_label(label_at(n, k))
        if not 0 <= time < horizon:
            raise PortfolioFormatError(
                f"decision time {time} outside 0..{horizon - 1}"
            )
        if len(prefix) > horizon:
            raise PortfolioFormatError(
                f"prefix {prefix.label()!r} longer than the horizon {horizon}"
            )
        slot = by_key.setdefault((asset_id, time), {})
        if prefix in slot and slot[prefix] != quantity:
            raise PortfolioFormatError(
                f"conflicting quantities for asset {asset_id!r} at "
                f"(t={time}, {prefix.label()})"
            )
        slot[prefix] = quantity

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


def brute_force_levels(rows, horizon):
    """``brute_force_collapse`` in the shape ``_collapse_rows`` returns: per
    asset id, the level of each decision time the rows name, in ``iter_paths``
    order."""
    return {
        asset_id: {
            t: [table[(t, w)] for w in iter_paths(t)] for t in dict.fromkeys(t for t, _ in table)
        }
        for asset_id, table in brute_force_collapse(rows, horizon).items()
    }


@st.composite
def row_tables(draw):
    """Small tables of ``_collapse_rows`` keys: coarse, deeper-keyed,
    overlapping and conflicting rows over two assets and a few quantities
    (signed zeros included)."""
    horizon = draw(st.integers(1, 4))
    prefixes = st.integers(0, horizon).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(0, (1 << n) - 1))
    )
    key = st.tuples(
        st.sampled_from(["S", "rf"]),
        st.integers(0, horizon - 1),
        prefixes,
        st.sampled_from([1.0, 0.0, -0.0, 2.5]),
    ).map(lambda r: (r[0], r[1], *r[2], r[3]))
    return draw(st.lists(key, max_size=10)), horizon


def collapse_outcome(collapse, rows, horizon):
    try:
        return repr(collapse(rows, horizon))
    except ValueError as exc:
        return type(exc), str(exc)


def csv_text(keys):
    return PORTFOLIO_HEADER + "".join(
        f"{t},{label_at(n, k)},{asset_id},{q!r}\n" for asset_id, t, n, k, q in keys
    )


def read_csv_levels(text, horizon):
    """``read_portfolio_csv``'s levels of the assets S and rf, by asset id."""
    loaded = read_portfolio_csv(text, horizon, [Asset("S"), Asset("rf")])
    return {a.id: table for a, table in sorted(loaded.levels.items(), key=lambda item: item[0].id)}


def brute_force_csv_levels(rows, horizon):
    """``brute_force_levels`` as ``read_csv_levels`` gives them: every
    decision time of every named asset, zeros where no row names the time."""
    return {
        asset_id: [levels.get(t) or [0.0] * (1 << t) for t in range(horizon)]
        for asset_id, levels in brute_force_levels(rows, horizon).items()
    }


class TestCollapseRows:
    @settings(max_examples=400, deadline=None)
    @given(row_tables())
    def test_matches_brute_force(self, table):
        rows, horizon = table
        assert collapse_outcome(_collapse_rows, rows, horizon) == collapse_outcome(
            brute_force_levels, rows, horizon
        )

    @settings(max_examples=400, deadline=None)
    @given(row_tables())
    def test_csv_text_matches_brute_force(self, table):
        rows, horizon = table
        assert collapse_outcome(read_csv_levels, csv_text(rows), horizon) == collapse_outcome(
            brute_force_csv_levels, rows, horizon
        )

    @pytest.mark.parametrize("label, expected", [
        ("U_D", (PortfolioFormatError, "line 2: invalid toss label 'U_D': characters must be U or D")),
        ("u", (PortfolioFormatError, "line 2: invalid toss label 'u': characters must be U or D")),
        ("UX", (PortfolioFormatError, "line 2: invalid toss label 'UX': characters must be U or D")),
        ("+U", (PortfolioFormatError, "line 2: invalid toss label '+U': characters must be U or D")),
        (" U ", repr({"S": [[0.0], [1.5, 0.0]]})),
        # the empty prefix covers (t=1, D) too
        ("-", (PortfolioFormatError, "conflicting quantities for asset 'S' at (t=1, D)")),
        ("", (PortfolioFormatError, "conflicting quantities for asset 'S' at (t=1, D)")),
        ("UDD", (PortfolioFormatError, "prefix 'UDD' longer than the horizon 2")),
    ], ids=["underscore", "lower case", "other letter", "sign", "blanks", "dash", "empty", "too long"])
    def test_labels(self, label, expected):
        # the time-1 row keyed by the label, next to a time-1 row at (t=1, D)
        text = f"{PORTFOLIO_HEADER}1,{label},S,1.5\n1,D,S,0.0\n"
        assert collapse_outcome(read_csv_levels, text, 2) == expected

    def test_label_longer_than_the_horizon_by_far(self):
        label = "UD" * 50_000
        with pytest.raises(PortfolioFormatError) as info:
            read_portfolio_csv(f"{PORTFOLIO_HEADER}1,{label},S,1.5\n", 2, [Asset("S")])
        assert str(info.value) == f"prefix {label!r} longer than the horizon 2"

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


def node_fsum(n, w, terms):
    """``math.fsum`` of the terms at node ``(n, w)``; a sum that fails names its node."""
    try:
        return math.fsum(terms)
    except (OverflowError, ValueError) as exc:
        raise ValueError(
            f"portfolio worth leaves the float range at node (t={n}, {w.label()}): {exc}"
        ) from None


def reference_worth(mkt, p, n, w, t):
    held = w.truncate(t)
    support = sorted(reference_support(p), key=lambda a: a.id)
    return node_fsum(n, w, (mkt.price(a).at(n, w) * p.quantity(a, t + 1, held) for a in support))


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
    spent0 = node_fsum(0, root, (mkt.price(a).at(0, root) * p.quantity(a, 1, root) for a in others))
    beta = {(1, root): (v0 - spent0) / fprice.at(0, root)}
    for n in range(1, p.horizon):
        for w in iter_paths(n):
            held = w.truncate(n - 1)
            cost = node_fsum(n, w, (
                mkt.price(a).at(n, w) * (p.quantity(a, n, held) - p.quantity(a, n + 1, w))
                for a in others
            ))
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
    """A market of random node tables, zero prices included; some markets
    quote nonzero prices from 5e307 to 1.7e308, near the top of the float
    range, so that ``make_self_financing`` gets past its zero-price check."""
    horizon = draw(st.integers(1, 5))
    rng = random.Random(draw(st.integers(0, 2**32)))
    low, high, specials = draw(st.sampled_from([(-50.0, 200.0, [0.0, 1.0]), (5e307, 1.7e308, [1.0])]))
    tables = {
        a: LatticeProcess.from_table(horizon, {
            (n, w): draw_number(rng, low, high, specials)
            for n in range(horizon + 1) for w in iter_paths(n)
        })
        for a in MARKET_ASSETS
    }
    return Market(tables, stocks=[APL, GOOG, FBK])


@st.composite
def random_portfolios(draw, horizon):
    """Random holdings of some assets; NaN, signed zeros, constants and +-1e308
    included. Holdings within +-1 keep products with +-1e308 prices finite, so
    that their sums can overflow."""
    assets = draw(st.lists(st.sampled_from(MARKET_ASSETS), unique=True, max_size=4))
    rng = random.Random(draw(st.integers(0, 2**32)))
    high = draw(st.sampled_from([10.0, 1.0]))
    specials = [0.0, -0.0, 1.0, 1e308, -1e308] + [math.nan] * draw(st.booleans())
    return QuantityProcess(horizon, {
        a: [[draw_number(rng, -high, high, specials) for _ in range(2**t)] for t in range(horizon)]
        for a in assets
    })


@st.composite
def markets_and_portfolios(draw):
    mkt = draw(random_markets())
    p = draw(random_portfolios(draw(st.integers(1, mkt.horizon))))
    return mkt, p


def same_floats(xs, ys):
    return list(map(repr, xs)) == list(map(repr, ys))


def outcome(compute):
    """``repr`` of what ``compute()`` returns, or the type and message of what
    it raises. ``math.fsum`` raises ``OverflowError`` for finite terms whose sum
    leaves the float range and ``ValueError`` for ``inf + -inf``; both reach
    the caller as a ``ValueError`` that names the first failing node, so the
    message tells whether that node is the same."""
    try:
        return repr(compute())
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)


class TestLevelsMatchNodeByNode:
    @settings(max_examples=200, deadline=None)
    @given(markets_and_portfolios(), st.sampled_from([0.0, 1e-9, 1e-3, 1.0, math.inf]))
    def test_values_and_self_financing(self, case, tol):
        mkt, p = case
        assert support_set(p) == reference_support(p)
        financed = outcome(lambda: is_self_financing(mkt, p, tol))
        assert financed == outcome(lambda: reference_is_self_financing(mkt, p, tol))
        nan_held = any(math.isnan(x) for table in p.levels.values() for level in table for x in level)
        if nan_held and p.horizon >= 2:  # fails closed, whatever the tolerance
            assert financed != repr(True)
        for n in range(p.horizon + 1):
            nodes = list(iter_paths(n))
            closing = outcome(lambda: [reference_worth(mkt, p, n, w, max(n - 1, 0)) for w in nodes])
            value = outcome(lambda: [reference_worth(mkt, p, n, w, min(n, p.horizon - 1)) for w in nodes])
            assert outcome(lambda: closing_value_level(mkt, p, n)) == closing
            assert outcome(lambda: [closing_value_process(mkt, p, n, w) for w in nodes]) == closing
            assert outcome(lambda: [value_process(mkt, p, n, w) for w in nodes]) == value

    @settings(max_examples=200, deadline=None)
    @given(markets_and_portfolios(), st.sampled_from(MARKET_ASSETS), st.sampled_from([0.0, 5.0, -2.5]))
    def test_make_self_financing(self, case, funding, v0):
        mkt, p = case

        def funding_levels():
            fixed = make_self_financing(mkt, p, funding, v0)
            assert fixed.levels.keys() == p.levels.keys() | {funding}
            for a, n in itertools.product(p.levels.keys() - {funding}, range(1, p.horizon + 1)):
                assert same_floats(fixed.levels[a][n - 1], [p.quantity(a, n, w) for w in iter_paths(n - 1)])
            return fixed.levels[funding]

        def reference_levels():
            beta = reference_make_self_financing(mkt, p, funding, v0)
            return [[beta[(n, w)] for w in iter_paths(n - 1)] for n in range(1, p.horizon + 1)]

        assert outcome(funding_levels) == outcome(reference_levels)

    def test_the_first_node_whose_sum_fails_raises(self):
        # APL and GOOG are priced 1e308 at every node. "overflow at U": at U
        # the time-1 products 1e308 and 1e308 overflow their sum, and at D
        # they are inf and -inf. "inf - inf at D": at U the time-1 products
        # cancel, at D they are inf and -inf, which fsum rejects with
        # ValueError. "overflow at 0": the time-0 products overflow their sum.
        huge, unit = LatticeProcess.deterministic([1e308] * 3), LatticeProcess.deterministic([1.0] * 3)
        mkt = Market({APL: huge, GOOG: huge, FBK: unit, SLOT: unit}, stocks=[APL, GOOG, FBK])
        holdings = {
            "overflow at U": ([[0.0], [-1.0, -2.0]], [[0.0], [-1.0, 2.0]]),
            "inf - inf at D": ([[0.0], [1.0, -2.0]], [[0.0], [-1.0, 2.0]]),
            "overflow at 0": ([[1.0], [0.0, 0.0]], [[1.0], [0.0, 0.0]]),
        }
        computes = {
            "closing": lambda p: closing_value_level(mkt, p, 2),
            "self-financing": lambda p: is_self_financing(mkt, p),
            "funding": lambda p: make_self_financing(mkt, p, FBK, 0.0),
            "init": lambda p: init_value(mkt, p),
        }
        for case, compute, node in [
            ("overflow at U", "closing", "(t=2, UU): intermediate overflow in fsum"),
            ("overflow at U", "self-financing", "(t=1, U): intermediate overflow in fsum"),
            ("overflow at U", "funding", "(t=1, U): intermediate overflow in fsum"),
            ("inf - inf at D", "closing", "(t=2, DU): -inf + inf in fsum"),
            ("inf - inf at D", "self-financing", "(t=1, D): -inf + inf in fsum"),
            ("inf - inf at D", "funding", "(t=1, D): -inf + inf in fsum"),
            ("overflow at 0", "init", "(t=0, -): intermediate overflow in fsum"),
            ("overflow at 0", "funding", "(t=0, -): intermediate overflow in fsum"),
        ]:
            apl, goog = holdings[case]
            with pytest.raises(ValueError) as info:
                computes[compute](QuantityProcess(2, {APL: apl, GOOG: goog}))
            assert (type(info.value), str(info.value)) == (
                ValueError, f"portfolio worth leaves the float range at node {node}"
            ), (case, compute)

    def test_single_node_worth_sums_only_its_node(self):
        # APL and GOOG are priced 1e308 at every node. The holdings chosen at
        # time 1 give the products -1e308 and -1e308 after U, whose sum
        # overflows, and 1e308 and -1e308 after D, which cancel.
        huge, unit = LatticeProcess.deterministic([1e308] * 3), LatticeProcess.deterministic([1.0] * 3)
        mkt = Market({APL: huge, GOOG: huge, SLOT: unit}, stocks=[APL, GOOG])
        p = QuantityProcess(2, {APL: [[0.0], [-1.0, 1.0]], GOOG: [[0.0], [-1.0, -1.0]]})
        assert repr(value_process(mkt, p, 1, node("D"))) == "0.0"
        assert repr(closing_value_process(mkt, p, 2, node("DU"))) == "0.0"
        for worth, n, w in [(value_process, 1, "U"), (closing_value_process, 2, "UD")]:
            with pytest.raises(ValueError) as info:
                worth(mkt, p, n, node(w))
            assert (type(info.value), str(info.value)) == (
                ValueError,
                f"portfolio worth leaves the float range at node (t={n}, {w}): intermediate overflow in fsum",
            )
        # an untraded asset is named before any sum is taken
        untraded = QuantityProcess(2, {APL: p.levels[APL], GOOG: p.levels[GOOG], FBK: [[0.0], [0.0, 1.0]]})
        with pytest.raises(ValueError, match="^asset 'Fbk' is not traded on this market$"):
            value_process(mkt, untraded, 1, node("U"))

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
        assert levels_repr(read_portfolio_csv(write_portfolio_csv(p), 2, list(p.levels))) == levels_repr(p)
