"""Reference prices for the benchmark's output checks.

Written from the model's definitions alone and independent of
``crrpricing``: a closed-form binomial sum for the call and a plain
enumeration of every toss path for the path-dependent payoffs.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence


@dataclass(frozen=True)
class MarketDraw:
    """Model parameters and strike drawn from a workload seed."""

    u: float
    d: float
    v: float
    r: float
    p: float
    strike: float

    @property
    def q(self) -> float:
        """Risk-neutral up-probability (1 + r - d) / (u - d)."""
        return (1.0 + self.r - self.d) / (self.u - self.d)


def call_price(m: MarketDraw, horizon: int, strike: float) -> float:
    """European call by the binomial sum over the number of up moves."""
    q = m.q
    terms = (
        math.comb(horizon, k)
        * q**k
        * (1.0 - q) ** (horizon - k)
        * max(m.v * m.u**k * m.d ** (horizon - k) - strike, 0.0)
        for k in range(horizon + 1)
    )
    return math.fsum(terms) / (1.0 + m.r) ** horizon


def path_price(
    m: MarketDraw, horizon: int, payoff: Callable[[Sequence[float]], float]
) -> float:
    """Discounted risk-neutral expectation of a function of S_0 .. S_T,
    summed over all 2**horizon toss paths."""
    q = m.q
    terms = []
    for tosses in itertools.product((True, False), repeat=horizon):
        prices = [m.v]
        ups = 0
        for up in tosses:
            prices.append(prices[-1] * (m.u if up else m.d))
            ups += up
        weight = q**ups * (1.0 - q) ** (horizon - ups)
        terms.append(weight * payoff(prices))
    return math.fsum(terms) / (1.0 + m.r) ** horizon


def lookback(prices: Sequence[float]) -> float:
    """Running maximum (including S_0) minus the terminal price."""
    return max(prices) - prices[-1]


def average_minus(strike: float) -> Callable[[Sequence[float]], float]:
    """Arithmetic average of S_0 .. S_T minus a fixed strike."""
    return lambda prices: sum(prices) / len(prices) - strike
