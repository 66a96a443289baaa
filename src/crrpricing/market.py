"""Discrete market structure and portfolio algebra.

A market is a finite set of assets with adapted price processes, a subset of
which are stocks. Portfolios are quantity processes: per asset, one list per
interval ``]n-1, n]`` holds an amount for each of the first ``n-1`` tosses, so
predictability is built into the representation. Value and closing-value
processes, the self-financing predicate, and a funding construction that
repairs any portfolio into a self-financing one are provided, with one record
loop for both CSV inputs, each label parsed to its prefix length and index:
portfolios and path tables.
"""
from __future__ import annotations

import csv
import functools
import io
import itertools
import math
import operator
from typing import Callable, Iterable, Mapping

from ._value import Value
from .lattice import LatticeProcess, TossPath, check_horizon, iter_paths
from .lattice import label_at, parse_label, prefix_labels

QuantityFn = Callable[[int, TossPath], float]


class PortfolioFormatError(ValueError):
    """A portfolio table/CSV is structurally malformed."""


class PredictabilityError(ValueError):
    """A portfolio table assigns quantities that peek at future tosses."""


class Asset(Value):
    """A tradable instrument; a ``Market`` names which ones are stocks."""

    __slots__ = ("id",)

    def __init__(self, id: str):
        if not id:
            raise ValueError("asset id must be nonempty")
        super().__init__(id)


class Market:
    """Assets with price processes; the stocks must be a proper subset."""

    __slots__ = ("assets", "stocks", "prices", "horizon")

    def __init__(self, prices: Mapping[Asset, LatticeProcess], stocks: Iterable[Asset]):
        self.prices = dict(prices)
        self.assets = frozenset(self.prices)
        self.stocks = frozenset(stocks)
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


def _worth_error(n: int, k: int, exc: Exception) -> ValueError:
    return ValueError(f"portfolio worth leaves the float range at node (t={n}, {label_at(n, k)}): {exc}")


def _node_worth(mkt: Market, p: QuantityProcess, n: int, path: TossPath, t: int) -> float:
    """Time-``n`` worth, at the node ``path`` passes through, of the holdings
    chosen at time ``t`` (``n`` or ``n - 1``): the ``math.fsum`` of that node's
    products in support-id order, as ``_worth`` sums them, and no other node's."""
    _check_time(mkt, p, n)
    k = (path if len(path) == n else path.truncate(n)).index()
    support = sorted(support_set(p), key=lambda a: a.id)
    products = [mkt.price(a).level(n)[k] * p.levels[a][t][k >> (n - t)] for a in support]
    try:
        return math.fsum(products)
    except (OverflowError, ValueError) as exc:
        raise _worth_error(n, k, exc) from None


def value_process(mkt: Market, p: QuantityProcess, n: int, path: TossPath) -> float:
    """Cash needed at time ``n`` to hold the portfolio until ``n + 1``.

    At the final trading time the portfolio is not rebalanced again, so the
    value there is taken to be the closing value. Each call computes every
    traded asset's whole time-``n`` price level to read one node of it: about
    0.2-0.3 s at ``(20, U^20)`` on a 2-core box.
    """
    return _node_worth(mkt, p, n, path, min(n, p.horizon - 1))


def closing_value_process(mkt: Market, p: QuantityProcess, n: int, path: TossPath) -> float:
    """Proceeds of liquidating at time ``n`` the holdings carried over
    ``]n-1, n]``; at time 0, the value. Like ``value_process``, each call
    computes every traded asset's whole price level to read one node."""
    return _node_worth(mkt, p, n, path, max(n - 1, 0))


def _held_at(level: list[float], shift: int) -> Iterable[float]:
    """``level[k >> shift]`` for each ``k``, without building that list."""
    return level if shift == 0 else itertools.chain.from_iterable(zip(*[level] * (1 << shift)))


def _node_fsums(n: int, groups: Callable[[], list[list[Iterable[float]]]], consume: Callable = list):
    """``consume`` of, per group of columns (one per asset, in id order) from ``groups()``,
    ``math.fsum`` across them at each length-``n`` node, lazily. A failing sum raises a
    ``ValueError`` naming the first failing node, found by summing ``groups()`` again."""
    def sums() -> list[Iterable[float]]:
        return [map(math.fsum, zip(*g)) if g else itertools.repeat(0.0, 1 << n) for g in groups()]
    try:
        return consume(*sums())
    except (OverflowError, ValueError):
        nodes = zip(*sums())
        for k in range(1 << n):
            try:
                next(nodes)
            except (OverflowError, ValueError) as exc:
                raise _worth_error(n, k, exc) from None
        raise


def _worth(mkt: Market, p: QuantityProcess, n: int, chosen: list[int], consume: Callable = list):
    """``_node_fsums`` of the time-``n`` worth of the holdings chosen at each time in ``chosen``."""
    _check_time(mkt, p, n)
    support = sorted(support_set(p), key=lambda a: a.id)
    prices = [mkt.price(a).level(n) for a in support]
    return _node_fsums(n, lambda: [
        [map(operator.mul, s, _held_at(p.levels[a][t], n - t)) for a, s in zip(support, prices)]
        for t in chosen
    ], consume)


def closing_value_level(mkt: Market, p: QuantityProcess, n: int) -> list[float]:
    """``closing_value_process`` at every length-``n`` node, in ``iter_paths`` order."""
    return _worth(mkt, p, n, [max(n - 1, 0)])


def init_value(mkt: Market, p: QuantityProcess) -> float:
    """Value at inception; a single number since time 0 has one node."""
    return _worth(mkt, p, 0, [0])[0]


def is_self_financing(mkt: Market, p: QuantityProcess, tol: float = 1e-9) -> bool:
    """Whether rebalancing never injects or withdraws cash after inception."""
    def financed(value: Iterable[float], closing: Iterable[float]) -> bool:
        # ``tol >= gap`` is false for a NaN gap, so a NaN fails the check.
        return all(map(functools.partial(operator.ge, tol), map(abs, map(operator.sub, value, closing))))
    return all(_worth(mkt, p, n, [n, n - 1], financed) for n in range(1, p.horizon))


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
                f"(t={n}, {label_at(n, level.index(0.0))})"
            )

    others = sorted((a for a in support_set(p) if a != funding), key=lambda a: a.id)
    beta = [[(v0 - init_value(mkt, qty_rem_comp(p, funding))) / fprices[0][0]]]
    for n in range(1, horizon):
        cost = _node_fsums(n, lambda: [[
            map(operator.mul, mkt.price(a).level(n),
                map(operator.sub, _held_at(p.levels[a][n - 1], 1), p.levels[a][n]))
            for a in others
        ]])
        beta.append(list(map(operator.add, _held_at(beta[-1], 1), map(operator.truediv, cost, fprices[n]))))
    levels = {a: t for a, t in p.levels.items() if a != funding}
    levels[funding] = beta
    return QuantityProcess(horizon, levels)


def is_trading_strategy(p: QuantityProcess) -> bool:
    """Whether every holding depends only on the tosses seen when it is chosen.

    A ``QuantityProcess`` keys each time-``t`` holding by its length-``t``
    prefix, so it qualifies by construction. A table from outside becomes one
    only through ``read_portfolio_csv``, which raises ``PredictabilityError``
    for a table that peeks at later tosses; anything else is a ``TypeError``.
    """
    if not isinstance(p, QuantityProcess):
        raise TypeError(f"expected a QuantityProcess, got {type(p).__name__}")
    return True


def _collapse_rows(keys: Iterable[tuple], horizon: int) -> dict[str, dict[int, list[float]]]:
    """Per asset id, the level of each decision time ``t`` that the keys
    ``(asset id, t, prefix length n, prefix index k, quantity)`` name, or fail.

    A key covers cells ``k << (depth - n)`` to ``(k + 1) << (depth - n)`` of its
    ``(asset, t)`` slot; a cell takes the first covering key's value, else 0.
    Two values for a cell are a ``PortfolioFormatError`` at the smallest such
    cell; unequal cells in a time-``t`` class peek at later tosses: a
    ``PredictabilityError``."""
    slots: dict[tuple[str, int], dict[tuple[int, int], float]] = {}
    for asset_id, t, n, k, q in keys:
        if not 0 <= t < horizon:
            raise PortfolioFormatError(f"decision time {t} outside 0..{horizon - 1}")
        if n > horizon:
            raise PortfolioFormatError(f"prefix {label_at(n, k)!r} longer than the horizon {horizon}")
        slot = slots.setdefault((asset_id, t), {})
        if (n, k) in slot and slot[n, k] != q:
            raise PortfolioFormatError(
                f"conflicting quantities for asset {asset_id!r} at (t={t}, {label_at(n, k)})"
            )
        slot[n, k] = q  # a repeated key keeps its first place and takes the last value

    collapsed: dict[str, dict[int, list[float]]] = {}
    for (asset_id, t), given in sorted(slots.items()):
        depth = max(t, max(given)[0])
        spans = [(k << (depth - n), (k + 1) << (depth - n), q) for (n, k), q in given.items()]
        cells = [0.0] * (1 << depth)
        for lo, hi, q in reversed(spans):  # the first key covering a cell writes it last
            cells[lo:hi] = [q] * (hi - lo)
        # agreement as in a set: the same NaN object agrees with itself
        conflicts = [i for lo, hi, q in spans if cells[lo:hi].count(q) != hi - lo
                     for i in range(lo, hi) if cells[i] is not q and cells[i] != q]
        if conflicts:
            raise PortfolioFormatError(
                f"conflicting quantities for asset {asset_id!r} at (t={t}, {label_at(depth, min(conflicts))})"
            )
        width = 1 << (depth - t)
        level = cells[::width]
        if list(_held_at(level, depth - t)) != cells:
            j = next(j for j, v in enumerate(level) if cells[j * width:(j + 1) * width].count(v) != width)
            raise PredictabilityError(
                f"asset {asset_id!r}: quantity chosen at time {t} varies with "
                f"tosses after {label_at(t, j)}"
            )
        collapsed.setdefault(asset_id, {})[t] = level
    return collapsed


# Nodes whose CSV lines are formatted and joined per write. Joining a whole
# level keeps all its line strings alive at once: at T=12 (4,096 lines) that
# raised the process's peak RSS by about 0.3 MB, while 512 costs no speed.
CSV_BATCH = 512
_PORTFOLIO_FIELDS = ("time", "prefix", "asset", "quantity")


def _csv_field(text: str) -> str:
    """A nonempty ``text`` as ``csv.writer`` writes it: quoted when needed."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([text])
    return buf.getvalue()[:-1]


def _write_csv(out: io.TextIOBase | None, fields: tuple[str, ...], horizon: int,
               columns: list[tuple[str, list[list[float]]]]) -> str:
    """Write the header ``fields`` and, per time ``t <= horizon`` and length-``t``
    prefix in ``iter_paths`` order, one line ``t,prefix,{tag}{value!r}`` per column
    ``(tag, levels)``, its value read off ``levels[t]``. Lines are joined and written
    ``CSV_BATCH`` prefixes at a time; labels and finite float reprs need no quoting."""
    buf = out if out is not None else io.StringIO()
    buf.write(",".join(fields) + "\n")
    for t, labels in enumerate(prefix_labels(horizon)):
        for i in range(0, len(labels), CSV_BATCH):
            batch = labels[i:i + CSV_BATCH]
            lines = [""] * (len(batch) * len(columns))
            for j, (tag, levels) in enumerate(columns):  # column j fills every len(columns)-th line
                lines[j::len(columns)] = [
                    f"{t},{label},{tag}{v!r}\n" for label, v in zip(batch, levels[t][i:i + CSV_BATCH])
                ]
            buf.write("".join(lines))
    return buf.getvalue() if out is None else ""


def write_portfolio_csv(p: QuantityProcess, out: io.TextIOBase | None = None) -> str:
    """Serialize every asset with levels, zeros and all: times, prefixes and
    asset ids ascending; numbers use the shortest round-trip representation,
    and each asset id is quoted once, as ``csv.writer`` would."""
    columns = [(f"{_csv_field(a.id)},", p.levels[a]) for a in sorted(p.levels, key=lambda a: a.id)]
    return _write_csv(out, _PORTFOLIO_FIELDS, p.horizon - 1, columns)


def _read_csv(
    text: str, fields: tuple[str, ...], what: str, where: str,
    error: type[ValueError], record: Callable[[list[str]], object],
) -> list:
    """``record`` of each nonblank CSV line after the header ``fields``. A bad header
    (named by ``what``), column count, field or CSV syntax (``where`` and the
    physical line ``reader.line_num``) raises ``error``."""
    # io.StringIO's lines, decoded as read; io.StringIO would copy the text at 4 bytes a character
    data = io.BytesIO(text.encode("utf-8", "surrogatepass"))
    reader = csv.reader(io.TextIOWrapper(data, "utf-8", "surrogatepass", newline="\n"))
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


def read_portfolio_csv(text: str, horizon: int, assets: Iterable[Asset]) -> QuantityProcess:
    """Load a portfolio from CSV; the table must be predictable."""
    def key(rec: list[str]) -> tuple:
        time = int(rec[0])
        n, k = parse_label(rec[1].strip())
        quantity = float(rec[3])
        if not math.isfinite(quantity):
            raise ValueError(f"quantity {rec[3]!r} is not finite")
        return rec[2].strip(), time, n, k, quantity

    keys = _read_csv(text, _PORTFOLIO_FIELDS, "portfolio CSV", "line", PortfolioFormatError, key)
    check_horizon(horizon)
    by_id = {a.id: a for a in assets}
    for asset_id, *_ in keys:
        if asset_id not in by_id:
            raise PortfolioFormatError(f"unknown asset id {asset_id!r}")
    return QuantityProcess(horizon, {
        by_id[asset_id]: [levels.get(t) or [0.0] * (1 << t) for t in range(horizon)]
        for asset_id, levels in _collapse_rows(keys, horizon).items()
    })


def read_path_table(text: str, maturity: int) -> list[float]:
    """Payoffs by length-``maturity`` path, as that level in ``iter_paths`` order;
    every path needs exactly one row."""
    table: dict[int, float] = {}

    def entry(rec: list[str]) -> None:
        n, k = parse_label(rec[0].strip())
        value = float(rec[1])
        if n != maturity:
            raise ValueError(f"prefix {label_at(n, k)!r} has length {n}, expected {maturity}")
        if k in table:
            raise ValueError("duplicate prefix")
        table[k] = value

    _read_csv(text, ("prefix", "value"), "path table", "path table line", ValueError, entry)
    check_horizon(maturity, "maturity")
    level = list(map(table.get, range(1 << maturity)))
    if None in level:
        raise ValueError(
            f"path table misses {level.count(None)} of {len(level)} maturity "
            f"paths, e.g. {label_at(maturity, level.index(None))}"
        )
    return level


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
