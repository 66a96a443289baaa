"""Risk-neutral pricing, replication by backward induction, and the
verification predicates that certify the engine's own output.

The fair price of a maturity-``T`` payoff is its expectation under the
risk-neutral toss weight, discounted to time 0. The same payoff is hedged by
a two-asset portfolio whose risky position at each node is the ratio of the
one-step value spread to the one-step price spread; the verifiers check
self-financing, predictability, terminal replication, and the absence (or
explicit construction) of arbitrage. The martingale property of discounted
prices is checked in ``reference``.
"""
from __future__ import annotations

import io
import itertools
import math
import operator
from typing import Union, get_args

from ._value import Value, echo
from .crr import (
    CrrMarket,
    disc_rfr_proc,
    is_viable,
    price_path,  # noqa: F401  (kept importable: perfbench/spans.py rebinds it here)
    price_walk,
    risk_neutral_q,
    terminal_prices,
)
from .lattice import LatticeProcess, PathMeasure, label_at
from .market import (
    Market,
    QuantityProcess,
    closing_value_level,
    closing_value_process,  # noqa: F401  (kept importable: perfbench/spans.py rebinds it here)
    init_value,
    is_self_financing,
    is_trading_strategy,
    support_set,
    _write_csv,
)
from .payoff import (
    PayoffEvalError, PayoffExpr, eval_payoff, path_folds, payoff_horizon, terminal_only,
)

PayoffLike = Union[PayoffExpr, list[float]]

ARBITRAGE_CLAUSES = (
    "init-nonzero",
    "not-self-financing",
    "negative-closing-value",
    "no-strict-gain",
    "none",
)


def terminal_payoffs(crr: CrrMarket, payoff: PayoffLike, maturity: int) -> list[float]:
    """Evaluate the payoff at every maturity path and check it is finite.

    Entry ``k`` belongs to the path with ``TossPath.index() == k`` (``iter_paths``
    order). Accepts a parsed expression or the maturity level itself (as
    ``read_path_table`` gives it); a function ``f`` of toss paths is the level
    ``[f(w) for w in iter_paths(maturity)]``; a level of exact floats comes
    back itself, not a copy. An expression that reads only ``S_T`` is
    evaluated on the 1-tuples of ``terminal_prices``, any other on the one
    list that ``price_walk`` rewrites from path to path (no ``TossPath``):
    each evaluation ends before the walk moves on, and neither
    ``eval_payoff`` nor its compiled function keeps the list. The walk keeps
    the running folds the expression reads (``path_folds``): the sum for
    ``avg(S)``, the maximum for ``max(S)`` and the minimum for ``min(S)``,
    which ``eval_payoff`` reads instead of scanning the list, with the same
    floats; an expression that reads none, such as ``S[1] - S_T``, walks a
    plain list. A ``for`` loop calls this module's global ``eval_payoff`` once a path; the
    first path whose value is not finite or whose evaluation raises names the error.
    """
    if not 0 <= maturity <= crr.horizon:
        raise ValueError(f"maturity {maturity} outside market horizon {crr.horizon}")
    paths, source = (), ()
    if isinstance(payoff, get_args(PayoffExpr)):
        fixed = payoff_horizon(payoff)
        if fixed > maturity:
            raise PayoffEvalError(f"payoff observes S[{echo(fixed)}] but matures at {maturity}")
        paths = (terminal_prices(crr.params, maturity) if terminal_only(payoff)
                 else price_walk(crr.params, maturity, path_folds(payoff)))
    elif isinstance(payoff, list):
        if len(payoff) != 1 << maturity:
            raise ValueError(f"payoff level has {len(payoff)} values, expected {1 << maturity}")
        if set(map(type, payoff)) == {float}:
            _require_finite_payoffs(payoff, maturity)
            return payoff
        source = payoff
    else:
        raise TypeError(f"cannot interpret {type(payoff).__name__} as a payoff")
    values: list[float] = []
    try:  # on a raise, keeps the values before it
        values.extend(map(float, source))
        for p in paths:
            values.append(float(eval_payoff(payoff, p)))
    except Exception as exc:  # whatever it is, a value before it that is not finite wins
        _require_finite_payoffs(values, maturity)
        if isinstance(exc, PayoffEvalError):
            raise PayoffEvalError(f"{exc} (at path {label_at(maturity, len(values))})") from None
        raise
    _require_finite_payoffs(values, maturity)
    return values


def _require_finite_payoffs(values: list[float], maturity: int) -> None:
    """Raise ``PayoffEvalError`` naming the first path whose value is not finite."""
    if not all(map(math.isfinite, values)):
        k = next(k for k, x in enumerate(values) if not math.isfinite(x))
        raise PayoffEvalError(f"payoff is not finite at path {label_at(maturity, k)}") from None


def fair_price(crr: CrrMarket, payoff: PayoffLike, maturity: int) -> float:
    """Discounted risk-neutral expectation of the payoff over maturity paths;
    the weights are the market's stored level, ``risk_neutral_measure().weights``
    bit for bit."""
    risk_neutral_q(crr.params)  # an inviable market fails before the payoff is evaluated
    kappa = terminal_payoffs(crr, payoff, maturity)  # checks the maturity before 2^maturity weights
    expectation = math.fsum(map(operator.mul, crr._weights.upto(maturity)[maturity], kappa))
    price = expectation / disc_rfr_proc(crr.params.r, maturity)
    _require_finite("price", [[price]])
    return price


def _require_finite(what: str, levels: list[list[float]]) -> None:
    """Raise ``ValueError`` naming a non-finite node of ``levels`` at the latest time."""
    for n, level in reversed(list(enumerate(levels))):
        if not all(map(math.isfinite, level)):
            k = next(k for k, x in enumerate(level) if not math.isfinite(x))
            raise ValueError(
                f"{what} leaves the float range at node "
                f"(t={n}, {label_at(n, k)}): {level[k]!r}"
            )


class PriceLattice(LatticeProcess):
    """Option values at every node, terminal payoff backed into the root: the
    ``LatticeProcess`` of the stored ``levels``, its horizon the maturity;
    ``levels[n][k]`` is the value at ``TossPath.index() == k``."""

    __slots__ = ("levels",)

    def __init__(self, levels: list[list[float]]):
        super().__init__(len(levels) - 1, levels.__getitem__)
        if [len(level) for level in levels] != [1 << n for n in range(len(levels))]:
            raise ValueError(f"option values need levels of lengths 1, 2, ..., 2^{self.horizon}")
        self.levels = levels

    @property
    def root(self) -> float:
        return self.levels[0][0]

    def to_csv(self, out: io.TextIOBase | None = None) -> str:
        """Write ``time,prefix,value`` lines, one per node, times and then
        prefixes in ``iter_paths`` order; values in shortest round-trip form."""
        return _write_csv(out, ("time", "prefix", "value"), self.horizon, [("", self.levels)])


def price_lattice(crr: CrrMarket, payoff: PayoffLike, maturity: int) -> PriceLattice:
    """Backward induction under the risk-neutral weight.

    A value outside the float range is a ``ValueError``. The root value is
    cross-checked against the direct expectation; a discrepancy beyond
    ``1e-9 * max(1, max|payoff|)``, divided by the discount factor when it
    exceeds 1 (``r < 0``), means the engine itself is inconsistent and is
    raised rather than returned.
    """
    q = risk_neutral_q(crr.params)
    r = crr.params.r
    q_down, growth = 1.0 - q, 1.0 + r  # the same floats at every node, computed once
    level = terminal_payoffs(crr, payoff, maturity)
    levels = [payoff[:] if level is payoff else level]  # stored: a copy, not the caller's level
    for _ in range(maturity):
        kids = levels[0]
        levels.insert(0, [
            (q * up + q_down * down) / growth for up, down in zip(kids[0::2], kids[1::2])
        ])
    _require_finite("option value", levels)
    root = levels[0][0]
    direct = fair_price(crr, payoff, maturity)
    bound = 1e-9 * max(1.0, max(map(abs, levels[-1]))) / min(1.0, disc_rfr_proc(r, maturity))
    if abs(root - direct) > bound:
        raise RuntimeError(
            f"internal consistency failure: backward induction gives {root!r} "
            f"but direct expectation gives {direct!r}"
        )
    return PriceLattice(levels)


def replicating_portfolio(crr: CrrMarket, payoff: PayoffLike, maturity: int) -> QuantityProcess:
    """Self-financing two-asset hedge with terminal closing value equal to
    the payoff on every path and initial value equal to the fair price.

    At each node the risky holding is the one-step value spread over the
    one-step price spread; the risk-free holding banks the remainder.
    """
    if maturity < 1:
        raise ValueError("replication needs at least one trading period")
    values = price_lattice(crr, payoff, maturity).levels
    prices = crr._prices.upto(maturity)  # crr.price(crr.risky)'s stored levels, maturity and deeper
    delta = [
        [(v_up - v_down) / (s_up - s_down)
         for v_up, v_down, s_up, s_down in zip(v[0::2], v[1::2], s[0::2], s[1::2])]
        for v, s in zip(values[1:], prices[1:])
    ]
    bank = [
        [(value - held * price) / g for value, held, price in zip(v, h, s)]
        for v, h, s, g in zip(values, delta, prices, [disc_rfr_proc(crr.params.r, n) for n in range(maturity)])
    ]
    _require_finite(f"hedge quantity of {crr.risky.id!r}", delta)
    _require_finite(f"hedge quantity of {crr.riskfree.id!r}", bank)
    return QuantityProcess(maturity, {crr.risky: delta, crr.riskfree: bank})


def __getattr__(name: str) -> object:
    # ReplicationReport is the package's one dataclass: it and ``dataclasses``
    # load on first use, so the commands that verify no hedge never import them.
    if name == "ReplicationReport":
        from ._report import ReplicationReport
        return ReplicationReport
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class NotStockPortfolioError(ValueError):
    """A portfolio given to ``verify_replication`` trades a non-stock asset."""


def _worst(values: list[float]) -> float:
    """The largest value, 0 for none, NaN when any is NaN: max() keeps the
    first of incomparable values, so a NaN after a number would be lost."""
    return math.nan if any(map(math.isnan, values)) else max(values, default=0.0)


def verify_replication(
    crr: CrrMarket, p: QuantityProcess, payoff: PayoffLike, maturity: int, tol: float = 1e-9
) -> ReplicationReport:
    """Check a stock-only portfolio against a payoff at every maturity path;
    both clauses allow ``tol * max(1, max|payoff|)``, a relative bound."""
    from ._report import ReplicationReport

    offenders = support_set(p) - crr.stocks
    if offenders:
        names = sorted(a.id for a in offenders)
        raise NotStockPortfolioError(f"not a stock portfolio: support contains {names}")
    if p.horizon < maturity:
        raise ValueError(
            f"portfolio trades until {p.horizon} but the payoff matures at {maturity}"
        )
    kappa = terminal_payoffs(crr, payoff, maturity)
    tol *= max(1.0, max(map(abs, kappa)))
    worst = _worst([abs(c - x) for c, x in zip(closing_value_level(crr, p, maturity), kappa)])
    return ReplicationReport(  # the errors are gone before the cash gaps are summed
        self_financing=is_self_financing(crr, p, tol),
        max_terminal_error=worst,
        init_value=init_value(crr, p),
        tolerance=tol,
    )


class ArbitrageVerdict(Value):
    """Outcome of the arbitrage test: a witness time, or the failed clause."""

    __slots__ = ("witness_time", "violated_clause")

    def __init__(self, witness_time: int | None, violated_clause: str):
        if violated_clause not in ARBITRAGE_CLAUSES:
            raise ValueError(f"unknown clause {violated_clause!r}")
        super().__init__(witness_time, violated_clause)

    @property
    def is_arbitrage(self) -> bool:
        return self.violated_clause == "none"


def is_arbitrage_process(
    mkt: Market, m: PathMeasure, p: QuantityProcess, tol: float = 1e-9
) -> ArbitrageVerdict:
    """Decide whether a portfolio is a free lunch on a market (a ``CrrMarket``
    or any other ``Market``) under the given measure.

    The portfolio must be a ``QuantityProcess`` (a trading strategy by
    construction; anything else is a ``TypeError``) that is self-financing,
    with zero initial value and a closing value that, at some time up to its
    horizon, is nonnegative on every positive-probability path and positive
    on at least one. Zero-probability paths are ignored, so degenerate
    measures follow the almost-everywhere reading. When no witness time
    exists the verdict carries 'no-strict-gain' if some time was nonnegative
    throughout and 'negative-closing-value' otherwise.
    """
    is_trading_strategy(p)  # a TypeError for anything but a QuantityProcess
    if abs(init_value(mkt, p)) > tol:
        return ArbitrageVerdict(None, "init-nonzero")
    if not is_self_financing(mkt, p, tol):
        return ArbitrageVerdict(None, "not-self-financing")
    saw_nonnegative_time = False
    for witness in range(1, p.horizon + 1):
        values = [
            v for v, weight in zip(closing_value_level(mkt, p, witness), m.weights(witness))
            if weight > 0.0
        ]
        if not any(v < 0.0 for v in values):
            if any(v > 0.0 for v in values):
                return ArbitrageVerdict(witness, "none")
            saw_nonnegative_time = True
    clause = "no-strict-gain" if saw_nonnegative_time else "negative-closing-value"
    return ArbitrageVerdict(None, clause)


def construct_arbitrage(crr: CrrMarket) -> QuantityProcess:
    """Free lunch for parameters outside the viability band.

    When the risky asset dominates the risk-free one (``1 + r <= d``), borrow
    the initial stock price and hold one share; in the mirrored case short
    one share and bank the proceeds. Either way the closing value one step
    in is nonnegative in both outcomes and positive in one, so the portfolio
    trades over that one period only, whatever the market's horizon.
    """
    params = crr.params
    if is_viable(params):
        raise ValueError("market is viable: no arbitrage can be constructed")
    if 1.0 + params.r <= params.d:
        shares, units = 1.0, -params.v
    else:  # u <= 1 + r
        shares, units = -1.0, params.v
    return QuantityProcess(1, {crr.risky: [[shares]], crr.riskfree: [[units]]})


def one_step_no_arbitrage_check(crr: CrrMarket) -> bool:
    """Node-local certificate: at every node the two one-step gross returns
    of the risky asset must strictly straddle the risk-free return.

    Derived from the realized price tree rather than the parameters, so it
    double-checks the closed-form viability test.
    """
    stock = crr.price(crr.risky)
    gross_rf = 1.0 + crr.params.r
    for here, kids in itertools.pairwise(map(stock._view, range(crr.horizon + 1))):
        for s, s_up, s_down in zip(here, kids[0::2], kids[1::2]):
            up, down = s_up / s, s_down / s
            if not min(up, down) < gross_rf < max(up, down):
                return False
    return True
