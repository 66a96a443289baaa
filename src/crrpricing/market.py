"""Discrete market structure and portfolio algebra.

A market is a finite set of assets with adapted price processes, a subset of
which are stocks. Portfolios are quantity processes: per asset, one list per
interval ``]n-1, n]`` holds an amount for each of the first ``n-1`` tosses, so
predictability is built into the representation. Value and closing-value
processes, the self-financing predicate, and a funding construction that
repairs any portfolio into a self-financing one are provided, together with
a CSV interchange format for portfolios.
"""
from __future__ import annotations

import csv
import io
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Callable, Iterable, Literal, Mapping, NamedTuple

from .lattice import EMPTY_PATH, LatticeProcess, TossPath, check_horizon, iter_paths, prefix_labels

QuantityFn = Callable[[int, TossPath], float]


class PortfolioFormatError(ValueError):
    """A portfolio table/CSV is structurally malformed."""


class PredictabilityError(ValueError):
    """A portfolio table assigns quantities that peek at future tosses."""


@dataclass(frozen=True, slots=True)
class Asset:
    """A tradable instrument; ``extra`` marks the non-stock slot."""

    id: str
    kind: Literal["stock", "extra"] = "stock"

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("asset id must be nonempty")
        if self.kind not in ("stock", "extra"):
            raise ValueError(f"asset kind must be 'stock' or 'extra', got {self.kind!r}")


class Market:
    """Assets with price processes; the stocks must be a proper subset."""

    __slots__ = ("assets", "stocks", "prices", "horizon")

    def __init__(self, prices: Mapping[Asset, LatticeProcess], stocks: Iterable[Asset]):
        self.prices = dict(prices)
        self.assets = frozenset(self.prices)
        self.stocks = frozenset(stocks)
        if len({a.id for a in self.assets}) != len(self.assets):
            raise ValueError("asset ids must be unique within a market")
        if not self.stocks <= self.assets:
            raise ValueError("stocks must be drawn from the market's assets")
        if self.stocks == self.assets:
            raise ValueError("market needs at least one non-stock asset slot")
        horizons = {p.horizon for p in self.prices.values()}
        if len(horizons) != 1:
            raise ValueError(f"price processes disagree on horizon: {sorted(horizons)}")
        self.horizon = horizons.pop()
        if self.horizon < 1:
            raise ValueError("market horizon must be at least 1")

    def price(self, asset: Asset) -> LatticeProcess:
        try:
            return self.prices[asset]
        except KeyError:
            raise ValueError(f"asset {asset.id!r} is not traded on this market") from None


class QuantityProcess:
    """Per-asset predictable holdings over a finite trading horizon.

    ``levels[a][n - 1][k]`` is the amount of ``a`` held over ``]n-1, n]`` after
    the ``k``-th length-``n - 1`` prefix in ``iter_paths`` order, whose
    successors sit at ``2k`` (up) and ``2k + 1`` (down) of the next level, as
    in ``PriceLattice.levels``. Time 0 holdings are not represented. Assets
    without levels have quantity 0.
    """

    __slots__ = ("horizon", "levels", "_support")

    def __init__(self, horizon: int, levels: Mapping[Asset, list[list[float]]]):
        check_horizon(horizon)
        if horizon < 1:
            raise ValueError("quantity process needs horizon >= 1")
        self.horizon = horizon
        self.levels = dict(levels)
        for asset, table in self.levels.items():
            if [len(level) for level in table] != [1 << t for t in range(horizon)]:
                raise ValueError(
                    f"holdings of {asset.id!r} need levels of lengths 1, 2, ..., 2^{horizon - 1}"
                )
        self._support = frozenset(
            a for a, table in self.levels.items() if any(x != 0.0 for level in table for x in level)
        )

    def quantity(self, asset: Asset, n: int, prefix: TossPath) -> float:
        if not 1 <= n <= self.horizon:
            raise ValueError(f"quantities exist for times 1..{self.horizon}, got {n}")
        if len(prefix) != n - 1:
            raise ValueError(
                f"time-{n} quantities are keyed by length-{n - 1} prefixes, "
                f"got length {len(prefix)}"
            )
        table = self.levels.get(asset)
        return 0.0 if table is None else table[n - 1][prefix.index()]


def _tabulate(fn: QuantityFn, horizon: int) -> list[list[float]]:
    """``fn(n, w)`` at every trading node, as the levels of a quantity process."""
    check_horizon(horizon)
    return [[fn(n, w) for w in iter_paths(n - 1)] for n in range(1, horizon + 1)]


def qty_empty(horizon: int) -> QuantityProcess:
    """The quantity process that never buys or sells anything."""
    return QuantityProcess(horizon, {})


def qty_single(asset: Asset, prc: QuantityFn, horizon: int) -> QuantityProcess:
    """A quantity process that only ever trades one asset."""
    return QuantityProcess(horizon, {asset: _tabulate(prc, horizon)})


def qty_sum(q1: QuantityProcess, q2: QuantityProcess) -> QuantityProcess:
    """Pointwise sum of holdings."""
    if q1.horizon != q2.horizon:
        raise ValueError(f"horizon mismatch: {q1.horizon} vs {q2.horizon}")
    zeros = [[0.0] * (1 << t) for t in range(q1.horizon)]
    return QuantityProcess(q1.horizon, {
        a: [list(map(operator.add, l1, l2))
            for l1, l2 in zip(q1.levels.get(a, zeros), q2.levels.get(a, zeros))]
        for a in q1.levels.keys() | q2.levels.keys()
    })


def qty_mult_comp(q: QuantityProcess, prd: QuantityFn) -> QuantityProcess:
    """Scale every holding by a predictable process."""
    scale = _tabulate(prd, q.horizon)
    return QuantityProcess(q.horizon, {
        a: [list(map(operator.mul, level, factors)) for level, factors in zip(table, scale)]
        for a, table in q.levels.items()
    })


def qty_rem_comp(q: QuantityProcess, asset: Asset) -> QuantityProcess:
    """Nullify the holdings of one asset."""
    return QuantityProcess(q.horizon, {a: t for a, t in q.levels.items() if a != asset})


def support_set(q: QuantityProcess) -> frozenset[Asset]:
    """Assets that are bought or sold at some node; found once, when the
    process is built."""
    return q._support


def _check_time(mkt: Market, p: QuantityProcess, n: int) -> None:
    if p.horizon > mkt.horizon:
        raise ValueError(
            f"portfolio horizon {p.horizon} exceeds market horizon {mkt.horizon}"
        )
    if not 0 <= n <= p.horizon:
        raise ValueError(f"time {n} outside portfolio horizon {p.horizon}")


def _node_worth(mkt: Market, p: QuantityProcess, n: int, path: TossPath, t: int) -> float:
    """Time-``n`` worth, at the node ``path`` passes through, of the holdings
    chosen at time ``t`` (``n`` or ``n - 1``)."""
    [worth] = _worth(mkt, p, n, t)
    return worth[(path if len(path) == n else path.truncate(n)).index()]


def value_process(mkt: Market, p: QuantityProcess, n: int, path: TossPath) -> float:
    """Cash needed at time ``n`` to hold the portfolio until ``n + 1``.

    At the final trading time the portfolio is not rebalanced again, so the
    value there is taken to be the closing value.
    """
    return _node_worth(mkt, p, n, path, min(n, p.horizon - 1))


def closing_value_process(mkt: Market, p: QuantityProcess, n: int, path: TossPath) -> float:
    """Proceeds of liquidating at time ``n`` the holdings carried over
    ``]n-1, n]``; at time 0, the value."""
    return _node_worth(mkt, p, n, path, max(n - 1, 0))


def _worth(mkt: Market, p: QuantityProcess, n: int, *chosen: int) -> list[list[float]]:
    """Per decision time ``t`` in ``chosen`` (``n``: value, ``n - 1``: closing
    value), the time-``n`` worth of those holdings at each length-``n`` node."""
    _check_time(mkt, p, n)
    support = sorted(support_set(p), key=lambda a: a.id)
    prices = [mkt.price(a).level(n) for a in support]
    worth = []
    for t in chosen:
        held = [p.levels[a][t] for a in support]
        worth.append([
            math.fsum(s[k] * h[k >> (n - t)] for s, h in zip(prices, held)) for k in range(1 << n)
        ])
    return worth


def closing_value_level(mkt: Market, p: QuantityProcess, n: int) -> list[float]:
    """``closing_value_process`` at every length-``n`` node, in ``iter_paths`` order."""
    [closing] = _worth(mkt, p, n, max(n - 1, 0))
    return closing


def is_self_financing(mkt: Market, p: QuantityProcess, tol: float = 1e-9) -> bool:
    """Whether rebalancing never injects or withdraws cash after inception."""
    for n in range(1, p.horizon):
        value, closing = _worth(mkt, p, n, n, n - 1)
        # Written so that a NaN cash gap fails the check.
        if not all(abs(v - c) <= tol for v, c in zip(value, closing)):
            return False
    return True


def make_self_financing(
    mkt: Market, p: QuantityProcess, funding: Asset, v0: float
) -> QuantityProcess:
    """Overwrite the funding-asset holdings so the result is self-financing
    with initial value ``v0``; all other holdings are kept as given.

    The funding asset must never have a zero price, since each rebalancing
    buys or sells exactly the quantity of it that absorbs the cash imbalance.
    """
    _check_time(mkt, p, 0)
    horizon = p.horizon
    fprices = [mkt.price(funding).level(n) for n in range(horizon + 1)]
    for n, level in enumerate(fprices):
        if 0.0 in level:
            raise ValueError(
                f"funding asset {funding.id!r} has zero price at node "
                f"(t={n}, {list(prefix_labels(n))[n][level.index(0.0)]})"
            )

    others = sorted(
        (a for a in support_set(p) if a != funding), key=lambda a: a.id
    )
    spent0 = math.fsum(mkt.price(a).at(0, EMPTY_PATH) * p.levels[a][0][0] for a in others)
    beta = [[(v0 - spent0) / fprices[0][0]]]
    for n in range(1, horizon):
        prices = [mkt.price(a).level(n) for a in others]
        held = [p.levels[a][n - 1] for a in others]
        chosen = [p.levels[a][n] for a in others]
        beta.append([
            beta[-1][k >> 1]
            + math.fsum(s[k] * (h[k >> 1] - c[k]) for s, h, c in zip(prices, held, chosen))
            / fprices[n][k]
            for k in range(1 << n)
        ])
    levels = {a: t for a, t in p.levels.items() if a != funding}
    levels[funding] = beta
    return QuantityProcess(horizon, levels)


class PortfolioRow(NamedTuple):
    """One CSV line: quantities chosen at ``time`` to hold over ``]time, time+1]``."""

    time: int
    prefix: TossPath
    asset: str
    quantity: float


def is_trading_strategy(
    p: QuantityProcess | Iterable[PortfolioRow], horizon: int | None = None
) -> bool:
    """Whether every holding depends only on the tosses seen when it is chosen.

    Quantity processes satisfy this by construction. A raw row table (as read
    from CSV) may key a decision-time-``t`` quantity by more than ``t``
    tosses; the table qualifies only if such entries are constant across each
    length-``t`` prefix class. Rows that give one cell two quantities are a
    ``PortfolioFormatError``, not a verdict.
    """
    if isinstance(p, QuantityProcess):
        return True
    rows = list(p)
    if horizon is None:
        horizon = max((r.time + 1 for r in rows), default=1)
    try:
        _collapse_rows(rows, horizon)
    except PredictabilityError:
        return False
    return True


def _collapse_rows(
    rows: Iterable[PortfolioRow], horizon: int
) -> dict[str, dict[tuple[int, TossPath], float]]:
    """Reduce a row table to canonical decision-time keys, or fail.

    Returns, per asset id, a map from (decision time t, length-t prefix) to
    quantity. Rows that cover one cell with different quantities, at the same
    prefix or at prefixes of different lengths, are a ``PortfolioFormatError``.
    Rows keyed deeper than their decision time must agree on the whole prefix
    class they refine, with absent siblings defaulting to 0; otherwise the
    table peeks at later tosses, a ``PredictabilityError``.
    """
    by_key: dict[tuple[str, int], dict[TossPath, float]] = {}
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

    collapsed: dict[str, dict[tuple[int, TossPath], float]] = {}
    for (asset_id, t), given in sorted(by_key.items()):
        depth = max(t, max(len(w) for w in given))
        # one pass over the depth cells: each looks up its own prefixes among
        # the given rows (first given row first) and joins its length-t class
        ranked = {g.outcomes: (i, v) for i, (g, v) in enumerate(given.items())}
        lengths = sorted({len(g) for g in given})
        classes: dict[tuple[bool, ...], list[float]] = {}
        for w in iter_paths(depth):
            keys = (w.outcomes[:k] for k in lengths)
            covering = [v for _, v in sorted(ranked[g] for g in keys if g in ranked)]
            if len(set(covering)) > 1:
                raise PortfolioFormatError(
                    f"conflicting quantities for asset {asset_id!r} at "
                    f"(t={t}, {w.label()})"
                )
            classes.setdefault(w.outcomes[:t], []).append(covering[0] if covering else 0.0)
        target = collapsed.setdefault(asset_id, {})
        for outcomes, cells in classes.items():
            cls, values = TossPath(outcomes), set(cells)
            if len(values) > 1:
                raise PredictabilityError(
                    f"asset {asset_id!r}: quantity chosen at time {t} varies with "
                    f"tosses after {cls.label()}"
                )
            target[(t, cls)] = values.pop()
    return collapsed


def quantity_process_from_rows(
    rows: Iterable[PortfolioRow], horizon: int, assets: Iterable[Asset]
) -> QuantityProcess:
    """Build a predictable quantity process from a row table."""
    check_horizon(horizon)
    by_id = {a.id: a for a in assets}
    rows = list(rows)
    for row in rows:
        if row.asset not in by_id:
            raise PortfolioFormatError(f"unknown asset id {row.asset!r}")
    return QuantityProcess(horizon, {
        by_id[asset_id]: [[table.get((t, w), 0.0) for w in iter_paths(t)] for t in range(horizon)]
        for asset_id, table in _collapse_rows(rows, horizon).items()
    })


# Nodes whose CSV lines are formatted and joined per write. Joining a whole
# level keeps all its line strings alive at once: at T=12 (4,096 lines) that
# raised the process's peak RSS by about 0.3 MB, while 512 costs no speed.
CSV_BATCH = 512


def _csv_field(text: str) -> str:
    """A nonempty ``text`` as ``csv.writer`` writes it: quoted when needed."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([text])
    return buf.getvalue()[:-1]


def write_portfolio_csv(p: QuantityProcess, out: io.TextIOBase | None = None) -> str:
    """Serialize every asset with levels, zeros and all: times, prefixes and
    asset ids ascending; numbers use the shortest round-trip representation.

    Lines are joined and written ``CSV_BATCH`` prefixes at a time; labels and
    finite float reprs never need quoting, and each asset id is quoted once."""
    buf = out if out is not None else io.StringIO()
    buf.write("time,prefix,asset,quantity\n")
    chosen = sorted(p.levels, key=lambda a: a.id)
    ids = [_csv_field(a.id) for a in chosen]
    for t, labels in enumerate(prefix_labels(p.horizon - 1)):
        for i in range(0, len(labels), CSV_BATCH):
            heads = [f"{t},{label}," for label in labels[i:i + CSV_BATCH]]
            # one column of lines per asset, interleaved: prefixes outer, assets inner
            columns = [
                [f"{head}{qid},{v!r}\n" for head, v in zip(heads, p.levels[a][t][i:i + CSV_BATCH])]
                for a, qid in zip(chosen, ids)
            ]
            buf.write("".join(itertools.chain.from_iterable(zip(*columns))))
    return buf.getvalue() if out is None else ""


def read_portfolio_rows(f: io.TextIOBase | str) -> list[PortfolioRow]:
    """Parse portfolio CSV into rows; raises PortfolioFormatError on bad shape."""
    if isinstance(f, str):
        f = io.StringIO(f)
    reader = csv.reader(f)
    header = next(reader, None)
    if header is None or [h.strip() for h in header] != ["time", "prefix", "asset", "quantity"]:
        raise PortfolioFormatError(
            "portfolio CSV must start with header 'time,prefix,asset,quantity'"
        )
    rows = []
    for lineno, rec in enumerate(reader, start=2):
        if not rec:
            continue
        if len(rec) != 4:
            raise PortfolioFormatError(f"line {lineno}: expected 4 columns, got {len(rec)}")
        try:
            time = int(rec[0])
            prefix = TossPath.from_label(rec[1].strip())
            quantity = float(rec[3])
        except ValueError as exc:
            raise PortfolioFormatError(f"line {lineno}: {exc}") from None
        if not math.isfinite(quantity):
            raise PortfolioFormatError(f"line {lineno}: quantity {rec[3]!r} is not finite")
        rows.append(PortfolioRow(time, prefix, rec[2].strip(), quantity))
    return rows


def read_portfolio_csv(
    f: io.TextIOBase | str, horizon: int, assets: Iterable[Asset]
) -> QuantityProcess:
    """Load a portfolio from CSV; the table must be predictable."""
    return quantity_process_from_rows(read_portfolio_rows(f), horizon, assets)


def init_value(mkt: Market, p: QuantityProcess) -> float:
    """Value at inception; a single number since time 0 has one node."""
    return value_process(mkt, p, 0, EMPTY_PATH)


def quantities_allclose(
    q1: QuantityProcess, q2: QuantityProcess, tol: float = 1e-12
) -> bool:
    """Pointwise equality of holdings at every stored key, within ``tol``;
    a NaN holding is close to nothing, not even another NaN."""
    if q1.horizon != q2.horizon:
        return False
    zeros = [[0.0] * (1 << t) for t in range(q1.horizon)]
    return all(
        abs(x - y) <= tol
        for a in q1.levels.keys() | q2.levels.keys()
        for l1, l2 in zip(q1.levels.get(a, zeros), q2.levels.get(a, zeros))
        for x, y in zip(l1, l2)
    )
