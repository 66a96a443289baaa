"""The market base: assets and their price processes, apart from portfolios.

``crr`` builds its ``CrrMarket`` on ``Market`` without loading the portfolio
algebra of ``market``, which re-exports both classes.
"""
from __future__ import annotations

from typing import Iterable, Mapping

from ._value import Value
from .lattice import LatticeProcess


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
