"""Discrete market structure and portfolio algebra.

A market is a finite set of assets with adapted price processes, a subset of
which are stocks (``Asset`` and ``Market``, from ``_marketbase``, re-exported
here). Portfolios are quantity processes: per asset, one list per
interval ``]n-1, n]`` holds an amount for each of the first ``n-1`` tosses, so
predictability is built into the representation. Value and closing-value
processes and the self-financing predicate are provided, with one record
loop for both CSV inputs, each label parsed to its prefix length and index:
portfolios and path tables. The quantity-process constructors and the
funding construction live in ``reference``.
"""
from __future__ import annotations

import csv
import functools
import io
import itertools
import math
import operator
import re
from typing import Callable, Iterable, Mapping

from ._marketbase import Asset, Market
from ._value import echo
from .lattice import TossPath, check_horizon, label_at, parse_label, prefix_labels


class PortfolioFormatError(ValueError):
    """A portfolio table/CSV is structurally malformed."""


class PredictabilityError(ValueError):
    """A portfolio table assigns quantities that peek at future tosses."""


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
    products = [mkt.price(a)._view(n)[k] * p.levels[a][t][k >> (n - t)] for a in support]
    try:
        return math.fsum(products)
    except (OverflowError, ValueError) as exc:
        raise _worth_error(n, k, exc) from None


def value_process(mkt: Market, p: QuantityProcess, n: int, path: TossPath) -> float:
    """Cash needed at time ``n`` to hold the portfolio until ``n + 1``.

    At the final trading time the portfolio is not rebalanced again, so the
    value there is taken to be the closing value. Each call reads one node
    of every traded asset's time-``n`` price level (``LatticeProcess._view``),
    which a computed process builds whole. On a ``CrrMarket`` the first call
    builds the stored risky levels up to ``n`` (about 0.2 s at ``(20, U^20)``
    on a 2-core box), and later calls read the stored level in well under a
    millisecond.
    """
    return _node_worth(mkt, p, n, path, min(n, p.horizon - 1))


def closing_value_process(mkt: Market, p: QuantityProcess, n: int, path: TossPath) -> float:
    """Proceeds of liquidating at time ``n`` the holdings carried over
    ``]n-1, n]``; at time 0, the value. Like ``value_process``, each call
    reads one node of every traded asset's price level."""
    return _node_worth(mkt, p, n, path, max(n - 1, 0))


def _held_at(level: list[float], shift: int) -> Iterable[float]:
    """``level[k >> shift]`` for each ``k``, without building that list."""
    return level if shift == 0 else itertools.chain.from_iterable(zip(*[level] * (1 << shift)))


def _node_fsums(n: int, groups: Callable[[], list[list[Iterable[float]]]], consume: Callable = list):
    """``consume`` of, per group of columns (one per asset, in id order) from ``groups()``,
    ``math.fsum`` across them at each length-``n`` node, lazily (``_worth`` adds two columns: the same
    floats). A failing sum raises a ``ValueError`` naming the first failing node, found by summing again."""
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
    """``_node_fsums`` of the time-``n`` worth of the holdings chosen at each time in ``chosen``; a
    two-asset node is ``x*h + y*g + 0.0``, one rounding of the exact sum as in ``math.fsum``, and
    ``+ 0.0`` makes ``-0.0 + -0.0`` fsum's ``0.0``. A level with a node not finite is summed by fsum."""
    _check_time(mkt, p, n)
    support = sorted(support_set(p), key=lambda a: a.id)
    prices = [mkt.price(a)._view(n) for a in support]
    if len(support) == 2:
        (a, b), (x, y) = support, prices
        sums = [[s * h + t * g + 0.0 for s, h, t, g in zip(
            x, _held_at(p.levels[a][c], n - c), y, _held_at(p.levels[b][c], n - c))] for c in chosen]
        if all(map(math.isfinite, map(sum, sums))):  # a sum is finite only if every node is
            return consume(*sums)
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
            raise PortfolioFormatError(f"decision time {echo(t)} outside 0..{horizon - 1}")
        if n > horizon:
            raise PortfolioFormatError(f"prefix {echo(label_at(n, k))} longer than the horizon {horizon}")
        slot = slots.setdefault((asset_id, t), {})
        if (n, k) in slot and slot[n, k] != q:
            raise PortfolioFormatError(
                f"conflicting quantities for asset {echo(asset_id)} at (t={t}, {label_at(n, k)})"
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
                f"conflicting quantities for asset {echo(asset_id)} at (t={t}, {label_at(depth, min(conflicts))})"
            )
        width = 1 << (depth - t)
        level = cells[::width]
        if list(_held_at(level, depth - t)) != cells:
            j = next(j for j, v in enumerate(level) if cells[j * width:(j + 1) * width].count(v) != width)
            raise PredictabilityError(
                f"asset {echo(asset_id)}: quantity chosen at time {t} varies with "
                f"tosses after {label_at(t, j)}"
            )
        collapsed.setdefault(asset_id, {})[t] = level
    return collapsed


# Nodes whose CSV lines are joined per write. Joining a whole level keeps all
# its line pieces alive at once: at T=12 (4,096 lines) that raised the
# process's peak RSS by about 0.3 MB, while 512 costs no speed. The time text
# is formatted once per level, and a batch of repeated floats formats each
# distinct nonzero value once, through a table of at most CSV_BATCH // 2
# entries that lives for that batch only (see _repeated_reprs for its guards).
# A column's level stops testing for repeats at its first batch that does not
# repeat: on the avg(S) - 10 tree and hedge (u=1.1, d=0.9), testing every batch
# wrote 4-11 % slower at T=12 and 16, while a threshold of a quarter or three
# quarters distinct instead of half moved no writer beyond noise.
CSV_BATCH = 512
_PORTFOLIO_FIELDS = ("time", "prefix", "asset", "quantity")
_WHOLE = r"\s*[+-]?\d+(?:_\d+)*\s*"  # what int() reads as a whole number; compiled on first failure


def _csv_special(text: str) -> bool:
    """Whether ``text`` holds a comma, a quote or a line break: without one,
    ``csv.writer`` writes a field of a row of several as it is."""
    return any(map(text.__contains__, ',"\r\n'))


def _csv_field(text: str) -> str:
    """``text`` as ``csv.writer`` writes it in a row of several fields: quoted
    when needed."""
    if not _csv_special(text):
        return text
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([text])
    return buf.getvalue()[:-1]


def _repeated_reprs(values: list[float]) -> list[str] | None:
    """``repr`` of each of ``values``, exact floats all, each distinct value
    formatted once, if at most half of them are distinct; else None.

    ``0.0`` and ``-0.0`` are equal but print differently: zeros are never
    table keys."""
    distinct = set(values)
    if 2 * len(distinct) > len(values):
        return None
    table = {x: repr(x) for x in distinct if x}
    return [table[v] if v else repr(v) for v in values]


def _write_csv(out: io.TextIOBase | None, fields: tuple[str, ...], horizon: int,
               columns: list[tuple[str, list[list[float]]]]) -> str:
    """Write the header ``fields`` and, per time ``t <= horizon`` and length-``t``
    prefix in ``iter_paths`` order, one line ``t,prefix,{tag}{value!r}`` per column
    ``(tag, levels)``, its value read off ``levels[t]``; labels and finite float
    reprs need no quoting.

    Lines are joined from their pieces and written ``CSV_BATCH`` prefixes at a
    time; the time text is formatted once per level. One type test per batch
    and column: a batch of values that are not all exact floats (an ``int``,
    a float subclass, a ``Fraction``) writes each ``repr`` quoted as
    ``csv.writer`` would when the batch's reprs hold a comma, a quote or a
    line break. A batch of exact floats, at most half of them distinct,
    formats each distinct nonzero value once (``_repeated_reprs``; zeros keep
    their own ``repr``). From a level's first batch that does not repeat, the
    rest of the column's level takes ``repr`` per value."""
    buf = out if out is not None else io.StringIO()
    buf.write(",".join(fields) + "\n")
    width = 5 * len(columns)  # pieces per prefix: time, label, ",tag", value, newline per column
    for t, labels in enumerate(prefix_labels(horizon)):
        template = [piece for tag, _ in columns for piece in (f"{t},", "", f",{tag}", "", "\n")]
        repeating = [True] * len(columns)  # per column: every batch of the level so far repeated
        for i in range(0, len(labels), CSV_BATCH):
            batch = labels[i:i + CSV_BATCH]
            pieces = template * len(batch)
            for j, (_, levels) in enumerate(columns):
                values = levels[t][i:i + CSV_BATCH]
                if set(map(type, values)) != {float}:  # a repr may hold a comma
                    texts = list(map(repr, values))
                    if _csv_special("".join(texts)):
                        texts = list(map(_csv_field, texts))
                    repeating[j] = False
                elif repeating[j]:
                    texts = _repeated_reprs(values)
                    repeating[j] = texts is not None
                else:
                    texts = None
                pieces[5 * j + 1::width] = batch
                pieces[5 * j + 3::width] = map(repr, values) if texts is None else texts
            buf.write("".join(pieces))
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
        # worded here, not by the interpreter: its words echo the whole field,
        # and past its digit limit differ between versions
        try:
            time = int(rec[0])
        except ValueError:
            if re.fullmatch(_WHOLE, rec[0]):
                raise ValueError(f"decision time {echo(rec[0].strip(), str)} outside 0..{horizon - 1}") from None
            raise ValueError(f"invalid literal for int() with base 10: {echo(rec[0])}") from None
        n, k = parse_label(rec[1].strip())
        try:
            quantity = float(rec[3])
        except ValueError:
            raise ValueError(f"could not convert string to float: {echo(rec[3])}") from None
        if not math.isfinite(quantity):
            raise ValueError(f"quantity {echo(rec[3])} is not finite")
        return rec[2].strip(), time, n, k, quantity

    keys = _read_csv(text, _PORTFOLIO_FIELDS, "portfolio CSV", "line", PortfolioFormatError, key)
    check_horizon(horizon)
    by_id = {a.id: a for a in assets}
    for asset_id, *_ in keys:
        if asset_id not in by_id:
            raise PortfolioFormatError(f"unknown asset id {echo(asset_id)}")
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
        try:
            value = float(rec[1])
        except ValueError:  # the interpreter's words echo the whole field
            raise ValueError(f"could not convert string to float: {echo(rec[1])}") from None
        if n != maturity:
            raise ValueError(f"prefix {echo(label_at(n, k))} has length {n}, expected {maturity}")
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
