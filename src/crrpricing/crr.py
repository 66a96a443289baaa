"""Two-asset binomial market: geometric random walk, risk-free compounding,
discounting, the viability condition, and the risk-neutral toss probability.

The risky price multiplies by ``u`` on an up toss and ``d`` on a down toss
from initial value ``v``, one running product: a node holding ``s`` has
children ``s * u`` and ``s * d``. The market's risky level, ``price_path``,
the in-place walk ``price_walk`` (one list of ``S_0 .. S_n`` rewritten from
path to path) and the terminal-price chunks of ``terminal_prices`` all
multiply in that order, so the payoff and the hedge read the same price at
every node. The risk-free asset compounds at a constant per-period rate
``r``. The market admits no arbitrage among stock-only portfolios exactly
when ``d < 1 + r < u``, in which case the unique Bernoulli up-probability
making the discounted risky price driftless is ``q = (1 + r - d) / (u - d)``.

A ``CrrMarket`` is fixed once built, so it builds its risky price levels and
its risk-neutral path weights once, as ``array('d')`` levels, on first
demand and only as deep as asked; the hedge, its check and every fair price
on that market read them from there.
"""
from __future__ import annotations

import itertools
import json
import math
import sys
from typing import Callable, Collection, Iterator

from ._value import FoldedPath, Value, echo
from .lattice import (
    LatticeProcess, PathMeasure, TossPath, _StoredLevels, _StoredProcess, check_horizon, toss_products,
)
from ._marketbase import Asset, Market

RISKY_ID = "S"
RISKFREE_ID = "rf"
EXTRA_ID = "derivative"


class MarketNotViableError(ValueError):
    """The parameters admit an arbitrage, so no risk-neutral measure exists."""


class CrrParams(Value):
    """Model parameters: up/down factors, initial price, rate, up-probability."""

    __slots__ = ("u", "d", "v", "r", "p")

    def __init__(self, u: float, d: float, v: float, r: float, p: float):
        if not 0 < d < u:
            raise ValueError(f"need 0 < d < u, got d={d}, u={u}")
        if not v > 0:
            raise ValueError(f"initial risky price must be positive, got v={v}")
        if not r > -1:
            raise ValueError(f"per-period rate must exceed -1, got r={r}")
        if not 0 < p < 1:
            raise ValueError(f"up-probability must lie strictly in (0, 1), got p={p}")
        for name, value in (("u", u), ("v", v), ("r", r)):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {name}={value}")
        super().__init__(u, d, v, r, p)


def price_path(params: CrrParams, path: TossPath) -> list[float]:
    """All prices along a scenario, time 0 through ``len(path)``: the
    geometric random walk of the paper's Isabelle theory along one path,
    ``prices[n]`` being its value after ``n`` tosses."""
    prices = [params.v]
    for outcome in path:
        prices.append(prices[-1] * (params.u if outcome else params.d))
    return prices


# Each fold a walk can keep: its value on the one price ``x``, and its step
# from the value ``a`` on some prices to the value on those and one more, ``x``.
# The sum starts from 0; ``high`` and ``low`` make the one comparison the
# builtins ``max`` and ``min`` make (a later price wins only when strictly
# greater or less), so each equals the builtin bit for bit.
_FOLDS = {
    "total": ("0 + {x}", "{a} + {x}"),
    "high": ("{x}", "{x} if {x} > {a} else {a}"),
    "low": ("{x}", "{x} if {x} < {a} else {a}"),
}

# The walk as source. Each kept fold gets one statement in place of a
# ``{...}`` field after each price written: its value over ``p[0..j]`` at each
# depth ``j`` in a list named after the fold, over ``p[0..n-1]`` in
# ``<fold>_a``, and over the whole path in the slot of ``p``. A price is bound
# to ``x`` (the ``{x}`` field) only when some fold reads it.
_WALK = """\
def walk(p, u, d):
    n = len(p) - 1{start}
    if n < 2:
        if n:
            {x}p[1] = p[0] * u{first}
            yield p
            {x}p[1] = p[0] * d{first}
        yield p
        return
    m = n - 2
    i = 0  # the depth that has just changed; up tosses follow it to depth m
    pending = []  # depths whose down toss is still to come, deepest last
    while True:
        for j in range(i + 1, m + 1):
            {x}p[j] = p[j - 1] * u{up}
            pending.append(j)
        s = p[m]
        a = p[-2] = s * u{pair}
        {x}p[-1] = a * u{leaf}
        yield p
        {x}p[-1] = a * d{leaf}
        yield p
        a = p[-2] = s * d{pair}
        {x}p[-1] = a * u{leaf}
        yield p
        {x}p[-1] = a * d{leaf}
        yield p
        if not pending:
            return
        i = pending.pop()
        {x}p[i] = p[i - 1] * d{down}
"""

_walks: dict[tuple[str, ...], Callable] = {}  # the compiled walk of each tuple of kept folds


def _compile_walk(folds: tuple[str, ...]) -> Callable:
    """``_WALK`` with the statements of ``folds``; with none, the bare walk."""

    def steps(target: str, acc: str, x: str = "x") -> str:
        return "".join(
            f"; {target.format(f)} = {_FOLDS[f][1].format(a=acc.format(f), x=x)}" for f in folds
        )

    names: dict[str, object] = {}
    exec(_WALK.format(
        # each fold over p[0..0]; at n = 0 that is the whole path
        start="".join(
            f"; {f} = [{_FOLDS[f][0].format(x='p[0]')}] * (n + 1); p.{f} = {f}[0]" for f in folds
        ),
        x="x = " if folds else "",
        first=steps("p.{}", "{}[0]"),
        up=steps("{}[j]", "{}[j - 1]"),
        down=steps("{}[i]", "{}[i - 1]"),
        pair=steps("{}_a", "{}[m]", "a"),
        leaf=steps("p.{}", "{}_a"),
    ), names)
    return names["walk"]


def price_walk(params: CrrParams, n: int, folds: Collection[str] = ()) -> Iterator[list[float]]:
    """``price_path(params, s)`` for every length-``n`` toss path ``s``, in
    ``iter_paths`` order, as one list of ``n + 1`` prices rewritten in place
    between yields: copy a list to keep it.

    Each price is its parent's times ``u`` or ``d``, the running product of
    ``price_path``. A depth-first walk over the first ``n - 2`` tosses writes
    only the entries that change from one prefix to the next, and the last
    two tosses are unrolled, four paths per prefix.

    ``folds`` names the running folds to keep, among ``total``, ``high`` and
    ``low`` (``payoff.path_folds`` of a payoff names those it reads). With
    none the list is a plain ``list``. Otherwise it is one ``FoldedPath``
    whose kept slots hold the folds of the whole path at every yield (the
    others stay ``None``): each written price updates the fold of its prefix
    at that depth, so a path costs a few steps however long it is. Copying
    the list keeps its prices, not its folds.
    """
    check_horizon(n)
    kept = tuple(name for name in _FOLDS if name in folds)
    if len(kept) != len(set(folds)):
        raise ValueError(f"folds must be among {tuple(_FOLDS)}, got {echo(folds)}")
    walk = _walks.get(kept)
    if walk is None:
        walk = _walks[kept] = _compile_walk(kept)
    prices = [params.v] * (n + 1)
    return walk(FoldedPath(prices) if kept else prices, params.u, params.d)


def terminal_prices(params: CrrParams, n: int) -> Iterator[tuple[float]]:
    """``(prices[-1],)`` for each list ``prices`` that ``price_walk(params, n)``
    yields, bit for bit and in the same order, without walking the paths.

    The prices come in chunks: ``toss_products`` of the last ``n // 2``
    tosses under each node ``n - n // 2`` tosses deep, one chunk at a time,
    each level built by two slice assignments, so about ``2 * 2**(n / 2)``
    prices are alive at once.
    """
    check_horizon(n)
    u, d = params.u, params.d
    k = n // 2
    return itertools.chain.from_iterable(
        zip(toss_products(s, u, d, k)) for s in toss_products(params.v, u, d, n - k)
    )


def disc_rfr_proc(r: float, n: int) -> float:
    """Price of the risk-free asset at time ``n``: unit value compounded."""
    if not r > -1:
        raise ValueError(f"per-period rate must exceed -1, got r={r}")
    return (1.0 + r) ** n


def is_viable(params: CrrParams) -> bool:
    """No-arbitrage condition on the parameters, with strict boundaries."""
    return params.d < 1.0 + params.r < params.u


def risk_neutral_q(params: CrrParams) -> float:
    """The unique up-probability under which discounted prices are driftless."""
    if not is_viable(params):
        raise MarketNotViableError(
            f"no risk-neutral measure: requires d < 1+r < u, got "
            f"d={params.d}, 1+r={1.0 + params.r}, u={params.u}"
        )
    return (1.0 + params.r - params.d) / (params.u - params.d)


class CrrMarket(Market):
    """The binomial market, an instance of the generic ``Market``: one risky
    asset and one risk-free asset, the two stocks, and a free slot for a
    derivative product.

    The market keeps two families of levels, each built on first demand up
    to the deepest time asked (``lattice._StoredLevels``): ``_prices``, the
    risky price from ``v`` by ``u`` and ``d``, whose public ``level(n)`` is
    a fresh list copied from it and whose ``_view(n)``, read by the worths
    and the one-step check, is the stored level itself; and, in a viable
    market, ``_weights``, the risk-neutral path weights from 1 by ``q`` and
    ``1 - q``, level ``n`` equal to ``risk_neutral_measure().weights(n)``
    bit for bit."""

    __slots__ = ("params", "risky", "riskfree", "extra", "_prices", "_weights")

    def __init__(self, params: CrrParams, horizon: int):
        self.params = params
        self.risky = Asset(RISKY_ID)
        self.riskfree = Asset(RISKFREE_ID)
        self.extra = Asset(EXTRA_ID)
        self._prices = _StoredLevels(params.v, params.u, params.d)
        self._weights = None
        # built first: the price processes check the horizon against the cap,
        # and the market checks that it is at least 1
        super().__init__(
            prices={
                self.risky: _StoredProcess(horizon, self._prices),
                self.riskfree: LatticeProcess(
                    horizon, lambda n: [disc_rfr_proc(params.r, n)] * (1 << n)
                ),
                self.extra: LatticeProcess.constant(horizon, 0.0),
            },
            stocks=[self.risky, self.riskfree],
        )
        # The extreme nodes of the running product from v: rounded multiplication
        # is monotone, so every node lies between these two.
        top = math.prod([max(params.u, 1.0)] * horizon, start=params.v)
        bottom = math.prod([min(params.d, 1.0)] * horizon, start=params.v)
        if not (math.isfinite(top) and bottom >= sys.float_info.min):
            raise ValueError(
                f"risky prices leave the float range within horizon {horizon}: "
                f"extremes {bottom!r} and {top!r}"
            )
        try:
            bank = disc_rfr_proc(params.r, horizon)
        except OverflowError:
            bank = math.inf
        if not sys.float_info.min <= bank < math.inf:
            raise ValueError(
                f"risk-free prices leave the float range within horizon {horizon}: "
                f"(1 + r)^{horizon} = {bank!r}"
            )
        if is_viable(params):
            # the running product of min(q, 1 - q) is the smallest path weight
            q = risk_neutral_q(params)
            weight = math.prod([min(q, 1.0 - q)] * horizon, start=1.0)
            if weight < sys.float_info.min:
                raise ValueError(
                    f"risk-neutral path weights leave the float range within horizon "
                    f"{horizon}: smallest {weight!r} (q={q!r})"
                )
            self._weights = _StoredLevels(1.0, q, 1.0 - q)

    def measure(self) -> PathMeasure:
        """The physical toss measure."""
        return PathMeasure(self.params.p)

    def risk_neutral_measure(self) -> PathMeasure:
        return PathMeasure(risk_neutral_q(self.params))

    def to_dict(self) -> dict:
        return dict(zip(CrrParams.__match_args__, self.params._fields()), horizon=self.horizon)

    @classmethod
    def from_dict(cls, data: dict) -> "CrrMarket":
        required = {*CrrParams.__match_args__, "horizon"}
        missing = required - set(data)
        if missing:
            raise ValueError(f"config missing keys: {sorted(missing)}")
        unknown = set(data) - required
        if unknown:
            raise ValueError(f"config has unknown keys: {echo(sorted(unknown))}")
        horizon = data["horizon"]
        if not isinstance(horizon, int) or isinstance(horizon, bool):
            raise ValueError(f"horizon must be an integer, got {echo(horizon)}")
        numbers = []
        for key in CrrParams.__match_args__:
            value = data[key]
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ValueError(f"config key {key!r} must be a number, got {echo(value)}")
            try:
                numbers.append(float(value))
            except OverflowError:  # an int past the float range; its digits are not echoed
                raise ValueError(f"config key {key!r} is outside the float range") from None
        return cls(CrrParams(*numbers), horizon)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "CrrMarket":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"config is not valid JSON: {exc}") from None
        except ValueError:  # an integer past the interpreter's digit limit, worded by version
            raise ValueError("config has an integer with too many digits") from None
        if not isinstance(data, dict):
            raise ValueError("config must be a JSON object")
        return cls.from_dict(data)
