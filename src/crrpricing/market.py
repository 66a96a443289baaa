"""Discrete market structure and portfolio algebra.

A market is a finite set of assets with adapted price processes, a subset of
which are stocks. Portfolios are quantity processes: per asset, the amount
held over each interval ``]n-1, n]`` is keyed by the first ``n-1`` tosses, so
predictability is built into the representation. Value and closing-value
processes, the self-financing predicate, and a funding construction that
repairs any portfolio into a self-financing one are provided, together with
a CSV interchange format for portfolios.
"""
from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Literal, Mapping, NamedTuple

from .lattice import LatticeProcess, TossPath, check_horizon, iter_paths

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

    ``quantity(a, n, w)`` is the amount of ``a`` held over ``]n-1, n]`` for
    any scenario starting with the ``n-1`` tosses ``w``. Time 0 holdings are
    not represented. Assets absent from the component map have quantity 0.
    """

    __slots__ = ("horizon", "_components", "_support_cache")

    def __init__(self, horizon: int, components: Mapping[Asset, QuantityFn]):
        check_horizon(horizon)
        if horizon < 1:
            raise ValueError("quantity process needs horizon >= 1")
        self.horizon = horizon
        self._components = dict(components)
        self._support_cache: frozenset[Asset] | None = None

    def assets(self) -> frozenset[Asset]:
        """Assets with an explicit component (a superset of the support)."""
        return frozenset(self._components)

    def component(self, asset: Asset) -> QuantityFn:
        return self._components.get(asset, lambda n, w: 0.0)

    def quantity(self, asset: Asset, n: int, prefix: TossPath) -> float:
        if not 1 <= n <= self.horizon:
            raise ValueError(f"quantities exist for times 1..{self.horizon}, got {n}")
        if len(prefix) != n - 1:
            raise ValueError(
                f"time-{n} quantities are keyed by length-{n - 1} prefixes, "
                f"got length {len(prefix)}"
            )
        fn = self._components.get(asset)
        return 0.0 if fn is None else fn(n, prefix)


def qty_empty(horizon: int) -> QuantityProcess:
    """The quantity process that never buys or sells anything."""
    return QuantityProcess(horizon, {})


def qty_single(asset: Asset, prc: QuantityFn, horizon: int) -> QuantityProcess:
    """A quantity process that only ever trades one asset."""
    return QuantityProcess(horizon, {asset: prc})


def qty_sum(q1: QuantityProcess, q2: QuantityProcess) -> QuantityProcess:
    """Pointwise sum of holdings."""
    if q1.horizon != q2.horizon:
        raise ValueError(f"horizon mismatch: {q1.horizon} vs {q2.horizon}")

    def combine(a: Asset) -> QuantityFn:
        f1, f2 = q1.component(a), q2.component(a)
        return lambda n, w: f1(n, w) + f2(n, w)

    return QuantityProcess(q1.horizon, {a: combine(a) for a in q1.assets() | q2.assets()})


def qty_mult_comp(q: QuantityProcess, prd: QuantityFn) -> QuantityProcess:
    """Scale every holding by a predictable process."""

    def scale(fn: QuantityFn) -> QuantityFn:
        return lambda n, w: fn(n, w) * prd(n, w)

    return QuantityProcess(q.horizon, {a: scale(q.component(a)) for a in q.assets()})


def qty_rem_comp(q: QuantityProcess, asset: Asset) -> QuantityProcess:
    """Nullify the holdings of one asset."""
    return QuantityProcess(
        q.horizon, {a: q.component(a) for a in q.assets() if a != asset}
    )


def support_set(q: QuantityProcess) -> frozenset[Asset]:
    """Assets that are bought or sold at some node, found exhaustively.

    Cached on the process: quantities are fixed at construction, and the
    value operators would otherwise rescan the whole lattice per node.
    """
    if q._support_cache is not None:
        return q._support_cache
    found = set()
    for a in q.assets():
        fn = q.component(a)
        if any(
            fn(n, w) != 0.0
            for n in range(1, q.horizon + 1)
            for w in iter_paths(n - 1)
        ):
            found.add(a)
    q._support_cache = frozenset(found)
    return q._support_cache


def _node(path: TossPath, n: int) -> TossPath:
    if len(path) < n:
        raise ValueError(f"need at least {n} tosses, path has {len(path)}")
    return path.truncate(n)


def value_process(mkt: Market, p: QuantityProcess, n: int, path: TossPath) -> float:
    """Cash needed at time ``n`` to hold the portfolio until ``n + 1``.

    At the final trading time the portfolio is not rebalanced again, so the
    value there is taken to be the closing value.
    """
    if p.horizon > mkt.horizon:
        raise ValueError(
            f"portfolio horizon {p.horizon} exceeds market horizon {mkt.horizon}"
        )
    if not 0 <= n <= p.horizon:
        raise ValueError(f"time {n} outside portfolio horizon {p.horizon}")
    if n == p.horizon:
        return closing_value_process(mkt, p, n, path)
    w = _node(path, n)
    support = sorted(support_set(p), key=lambda a: a.id)
    return math.fsum(
        mkt.price(a).at(n, w) * p.quantity(a, n + 1, w) for a in support
    )


def closing_value_process(mkt: Market, p: QuantityProcess, n: int, path: TossPath) -> float:
    """Proceeds of liquidating at time ``n`` the holdings carried over ``]n-1, n]``."""
    if p.horizon > mkt.horizon:
        raise ValueError(
            f"portfolio horizon {p.horizon} exceeds market horizon {mkt.horizon}"
        )
    if not 0 <= n <= p.horizon:
        raise ValueError(f"time {n} outside portfolio horizon {p.horizon}")
    if n == 0:
        return value_process(mkt, p, 0, path)
    w = _node(path, n)
    held = w.truncate(n - 1)
    support = sorted(support_set(p), key=lambda a: a.id)
    return math.fsum(
        mkt.price(a).at(n, w) * p.quantity(a, n, held) for a in support
    )


def is_self_financing(mkt: Market, p: QuantityProcess, tol: float = 1e-9) -> bool:
    """Whether rebalancing never injects or withdraws cash after inception."""
    for n in range(1, p.horizon):
        for w in iter_paths(n):
            # Written so that a NaN cash gap fails the check.
            if not abs(value_process(mkt, p, n, w) - closing_value_process(mkt, p, n, w)) <= tol:
                return False
    return True


def make_self_financing(
    mkt: Market, p: QuantityProcess, funding: Asset, v0: float
) -> QuantityProcess:
    """Overwrite the funding-asset holdings so the result is self-financing
    with initial value ``v0``; all other components are kept as given.

    The funding asset must never have a zero price, since each rebalancing
    buys or sells exactly the quantity of it that absorbs the cash imbalance.
    """
    horizon = p.horizon
    if horizon > mkt.horizon:
        raise ValueError(
            f"portfolio horizon {horizon} exceeds market horizon {mkt.horizon}"
        )
    fprice = mkt.price(funding)
    for n in range(horizon + 1):
        for w in iter_paths(n):
            if fprice.at(n, w) == 0.0:
                raise ValueError(
                    f"funding asset {funding.id!r} has zero price at node "
                    f"(t={n}, {w.label()})"
                )

    others = sorted(
        (a for a in support_set(p) if a != funding), key=lambda a: a.id
    )
    beta: dict[tuple[int, TossPath], float] = {}
    root = TossPath()
    spent0 = math.fsum(mkt.price(a).at(0, root) * p.quantity(a, 1, root) for a in others)
    beta[(1, root)] = (v0 - spent0) / fprice.at(0, root)
    for n in range(1, horizon):
        for w in iter_paths(n):
            held = w.truncate(n - 1)
            rebalance_cost = math.fsum(
                mkt.price(a).at(n, w)
                * (p.quantity(a, n, held) - p.quantity(a, n + 1, w))
                for a in others
            )
            beta[(n + 1, w)] = beta[(n, held)] + rebalance_cost / fprice.at(n, w)

    components = {a: p.component(a) for a in p.assets() if a != funding}
    components[funding] = lambda n, w: beta[(n, w)]
    return QuantityProcess(horizon, components)


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
    length-``t`` prefix class.
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
    quantity; rows keyed deeper than their decision time must agree on the
    whole prefix class they refine, with absent siblings defaulting to 0.
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
                raise PredictabilityError(
                    f"asset {asset_id!r}: overlapping rows disagree at "
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
    by_id = {a.id: a for a in assets}
    rows = list(rows)
    for row in rows:
        if row.asset not in by_id:
            raise PortfolioFormatError(f"unknown asset id {row.asset!r}")
    collapsed = _collapse_rows(rows, horizon)

    def component(table: dict[tuple[int, TossPath], float]) -> QuantityFn:
        return lambda n, w: table.get((n - 1, w), 0.0)

    return QuantityProcess(
        horizon, {by_id[aid]: component(tbl) for aid, tbl in collapsed.items()}
    )


def portfolio_rows(p: QuantityProcess, assets: Iterable[Asset] | None = None) -> list[PortfolioRow]:
    """Canonical row table: times ascending, prefixes lexicographic, asset
    ids sorted; includes every declared component, zeros and all."""
    chosen = sorted(assets if assets is not None else p.assets(), key=lambda a: a.id)
    rows = []
    for t in range(p.horizon):
        for w in iter_paths(t):
            for a in chosen:
                rows.append(PortfolioRow(t, w, a.id, p.quantity(a, t + 1, w)))
    return rows


def write_portfolio_csv(p: QuantityProcess, out: io.TextIOBase | None = None) -> str:
    """Serialize; numbers use the shortest round-trip representation."""
    buf = out if out is not None else io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["time", "prefix", "asset", "quantity"])
    for row in portfolio_rows(p):
        writer.writerow([row.time, row.prefix.label(), row.asset, repr(row.quantity)])
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
    return value_process(mkt, p, 0, TossPath())


def quantities_allclose(
    q1: QuantityProcess, q2: QuantityProcess, tol: float = 1e-12
) -> bool:
    """Pointwise equality of holdings at every stored key."""
    if q1.horizon != q2.horizon:
        return False
    for a in q1.assets() | q2.assets():
        for n in range(1, q1.horizon + 1):
            for w in iter_paths(n - 1):
                if abs(q1.quantity(a, n, w) - q2.quantity(a, n, w)) > tol:
                    return False
    return True
