"""Two-asset binomial market: geometric random walk, risk-free compounding,
discounting, the viability condition, and the risk-neutral toss probability.

The risky price multiplies by ``u`` on an up toss and ``d`` on a down toss
from initial value ``v``, one running product: a node holding ``s`` has
children ``s * u`` and ``s * d``. The market's risky level, ``price_paths``,
``price_path`` and the terminal-price chunks of ``terminal_prices`` all
multiply in that order, so the payoff and the hedge read the same price at
every node. The risk-free asset compounds at a constant per-period rate
``r``. The market admits no arbitrage among stock-only portfolios exactly
when ``d < 1 + r < u``, in which case the unique Bernoulli up-probability
making the discounted risky price driftless is ``q = (1 + r - d) / (u - d)``.
"""
from __future__ import annotations

import itertools
import json
import math
import sys
from typing import Iterator

from ._value import Value, echo
from .lattice import LatticeProcess, PathMeasure, TossPath, check_horizon, toss_products
from .market import Asset, Market

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


def price_paths(params: CrrParams, n: int) -> Iterator[list[float]]:
    """``price_path(params, s)`` for every length-``n`` toss path ``s``, in
    ``iter_paths`` order.

    Each list is its parent prefix's list plus ``parent[-1] * u`` (or ``* d``),
    the same running product, so prefixes are shared instead of remultiplied.
    A depth-first stack keeps at most about ``n`` lists alive at a time.
    """
    check_horizon(n)
    u, d = params.u, params.d
    if n == 0:
        yield [params.v]
        return
    stack = [[params.v]]
    while stack:
        prices = stack.pop()
        last = prices[-1]
        if len(prices) == n:
            yield prices + [last * u]
            yield prices + [last * d]
        else:
            stack.append(prices + [last * d])
            stack.append(prices + [last * u])


def terminal_prices(params: CrrParams, n: int) -> Iterator[tuple[float]]:
    """``(prices[-1],)`` for each list of ``price_paths(params, n)``, bit for
    bit and in the same order, without building the lists.

    The prices come in chunks: ``toss_products`` of the last ``n // 2``
    tosses under each node ``n - n // 2`` tosses deep, one chunk at a time,
    so about ``2 * 2**(n / 2)`` prices are alive at once.
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


def discounted_value(r: float, process: LatticeProcess) -> LatticeProcess:
    """The process deflated by the risk-free growth at each time."""
    if not r > -1:
        raise ValueError(f"per-period rate must exceed -1, got r={r}")
    return LatticeProcess(
        process.horizon, lambda n: [x / disc_rfr_proc(r, n) for x in process.level(n)]
    )


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


def step_rate_from_annual(annual: float, steps_per_year: int) -> float:
    """Per-step rate whose compounding over a year matches the annual rate."""
    if not annual > -1:
        raise ValueError(f"annual rate must exceed -1, got {annual}")
    if steps_per_year < 1:
        raise ValueError(f"steps per year must be at least 1, got {steps_per_year}")
    return (1.0 + annual) ** (1.0 / steps_per_year) - 1.0


def filtration_equivalent_bernoulli(p: float, q: float) -> bool:
    """Whether two Bernoulli toss weights share the same zero-probability
    events on the lattice of any horizon.

    Any interior pair gives every cylinder positive weight under both
    measures; degenerate weights agree only with themselves, whatever the
    horizon.
    """
    for name, value in (("p", p), ("q", q)):
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"{name} must lie in [0, 1], got {value}")
    if 0.0 < p < 1.0 and 0.0 < q < 1.0:
        return True
    return p == q


class CrrMarket(Market):
    """The binomial market, an instance of the generic ``Market``: one risky
    asset and one risk-free asset, the two stocks, and a free slot for a
    derivative product."""

    __slots__ = ("params", "risky", "riskfree", "extra")

    def __init__(self, params: CrrParams, horizon: int):
        self.params = params
        self.risky = Asset(RISKY_ID)
        self.riskfree = Asset(RISKFREE_ID)
        self.extra = Asset(EXTRA_ID)
        # built first: the price processes check the horizon against the cap,
        # and the market checks that it is at least 1
        super().__init__(
            prices={
                self.risky: LatticeProcess(
                    horizon, lambda n: toss_products(params.v, params.u, params.d, n)
                ),
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
