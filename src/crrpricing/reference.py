"""The oracle: the path-keyed definitions of the source paper's Isabelle
theories that no command runs, each checked against the level engine by the
tests. No engine module and no command imports this module; ``crrpricing``
re-exports every public name here.

Scenarios and measures (the infinite coin-toss space, cut at a horizon):

- ``path_probability``: the measure of the cylinder of one toss prefix under
  the Bernoulli stream of up-probability ``p``.
- ``conditional_expectation_step``: the explicit conditional expectation of a
  process given the first ``n`` tosses, one step ahead.
- ``is_measurable_at``: measurability with respect to the natural filtration
  at time ``n``, checked by comparing paths with a common prefix.

The binomial market:

- ``discounted_value``: the paper's ``discounted_value``, a process divided by
  the risk-free asset's price ``disc_rfr_proc``.
- ``step_rate_from_annual``: the per-period rate ``r`` of ``disc_rfr_proc``
  that compounds to an annual rate; no counterpart in the theory, which
  takes ``r`` as given.
- ``filtration_equivalent_bernoulli``: ``filt_equiv``, two measures with the
  same null sets on every step of the natural filtration, for two Bernoulli
  streams.

Portfolios (quantity processes given as functions of a time and a prefix,
tabulated by ``_tabulate``):

- ``qty_empty``, ``qty_single``, ``qty_sum``, ``qty_mult_comp`` and
  ``qty_rem_comp``: the theory's portfolio constructors of the same names.
- ``make_self_financing``: the construction that makes any portfolio
  self-financing by trading one funding asset (``self_finance``).
- ``quantities_allclose``: equality of two portfolios at every node, within a
  tolerance; float rounding only, no counterpart in the theory.

Pricing:

- ``martingale_residual`` and ``is_martingale``: the martingale property of a
  process under a measure and the natural filtration, one step at a time.
- ``is_risk_neutral``: ``risk_neutral_prob``, a measure under which every
  discounted stock price is a martingale.
"""
from __future__ import annotations

import itertools
import math
import operator
from typing import Callable

from ._marketbase import Asset, Market
from .crr import CrrMarket, disc_rfr_proc
from .lattice import LatticeProcess, PathMeasure, TossPath, check_horizon, iter_paths, label_at
from .market import QuantityProcess, _check_time, _held_at, _node_fsums, init_value, support_set
from .pricing import _worst

QuantityFn = Callable[[int, TossPath], float]


def path_probability(m: PathMeasure, path: TossPath) -> float:
    """Product of per-toss weights; the empty path has probability ``1.0``."""
    return math.prod((m.p if o else 1.0 - m.p for o in path), start=1.0)


def conditional_expectation_step(
    m: PathMeasure, f: LatticeProcess, n: int, prefix: TossPath
) -> float:
    """One-step conditional expectation: the weighted mean of the two
    children values of ``prefix`` at time ``n + 1``."""
    if len(prefix) != n:
        raise ValueError(f"prefix has length {len(prefix)}, expected {n}")
    up = f.at(n + 1, prefix.child(True))
    down = f.at(n + 1, prefix.child(False))
    return m.p * up + (1.0 - m.p) * down


def is_measurable_at(f: Callable[[TossPath], float], horizon: int, n: int) -> bool:
    """Whether a function of the length-``horizon`` paths depends only on the
    first ``n`` tosses.

    Checked exhaustively: the function must agree on every pair of terminal
    paths sharing a length-``n`` prefix.
    """
    check_horizon(horizon)
    if not 0 <= n <= horizon:
        raise ValueError(f"time {n} outside lattice horizon {horizon}")
    seen: dict[TossPath, float] = {}
    for w in iter_paths(horizon):
        key = w.truncate(n)
        value = f(w)
        if key in seen:
            if value != seen[key]:
                return False
        else:
            seen[key] = value
    return True


def discounted_value(r: float, process: LatticeProcess) -> LatticeProcess:
    """The process deflated by the risk-free growth at each time."""
    if not r > -1:
        raise ValueError(f"per-period rate must exceed -1, got r={r}")
    return LatticeProcess(
        process.horizon, lambda n: [x / disc_rfr_proc(r, n) for x in process.level(n)]
    )


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


def martingale_residual(m: PathMeasure, process: LatticeProcess, horizon: int) -> float:
    """Largest one-step defect |X_n - E[X_{n+1} | first n tosses]|; NaN when
    any defect is NaN, so ``is_martingale`` fails on a NaN node."""
    if horizon > process.horizon:
        raise ValueError(f"horizon {horizon} outside process horizon {process.horizon}")
    defects = [
        abs(x - (m.p * up + (1.0 - m.p) * down))
        for here, kids in itertools.pairwise(map(process.level, range(horizon + 1)))
        for x, up, down in zip(here, kids[0::2], kids[1::2])
    ]
    return _worst(defects)


def is_martingale(
    m: PathMeasure, process: LatticeProcess, horizon: int, tol: float = 1e-9
) -> bool:
    """One-step driftlessness at every node; the multi-step property follows
    by iterating conditional expectations."""
    return martingale_residual(m, process, horizon) <= tol


def is_risk_neutral(crr: CrrMarket, m: PathMeasure, tol: float = 1e-9) -> bool:
    """Whether every discounted stock price is driftless under ``m``."""
    r = crr.params.r
    return all(
        is_martingale(m, discounted_value(r, crr.price(a)), crr.horizon, tol)
        for a in sorted(crr.stocks, key=lambda a: a.id)
    )
