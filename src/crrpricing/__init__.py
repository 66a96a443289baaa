"""Discrete-time binomial market engine.

Scenario lattice and expectation operators, market/portfolio algebra,
the two-asset binomial model, a payoff expression language, risk-neutral
pricing with replicating portfolios, and the verification predicates that
certify all of it.
"""
import sys

# Each public name -> the module that defines it, loaded on the name's first
# use (PEP 562), so ``import crrpricing`` compiles no engine module and a
# command loads only what it runs. ``from crrpricing import *`` loads them all.
_MODULES = {
    "crr": (
        "CrrMarket", "CrrParams", "MarketNotViableError", "disc_rfr_proc", "is_viable",
        "price_path", "risk_neutral_q",
    ),
    "lattice": ("LatticeProcess", "PathMeasure", "TossPath", "enumerate_paths", "expectation"),
    "_marketbase": ("Asset", "Market"),
    "market": (
        "PortfolioFormatError", "PredictabilityError", "QuantityProcess",
        "closing_value_process", "init_value", "is_self_financing", "is_trading_strategy",
        "read_portfolio_csv", "support_set", "value_process", "write_portfolio_csv",
    ),
    "payoff": (
        "PayoffEvalError", "PayoffExpr", "PayoffSyntaxError", "eval_payoff", "parse_payoff",
        "payoff_horizon", "print_payoff",
    ),
    "pricing": (
        "ArbitrageVerdict", "PriceLattice", "construct_arbitrage", "fair_price",
        "is_arbitrage_process", "one_step_no_arbitrage_check", "price_lattice",
        "replicating_portfolio", "verify_replication",
    ),
    "reference": (
        "conditional_expectation_step", "discounted_value",
        "filtration_equivalent_bernoulli", "is_martingale", "is_measurable_at",
        "is_risk_neutral", "make_self_financing", "martingale_residual", "path_probability",
        "qty_empty", "qty_mult_comp", "qty_rem_comp", "qty_single", "qty_sum",
        "quantities_allclose", "step_rate_from_annual",
    ),
    "_report": ("ReplicationReport",),
}
_EXPORTS = {name: module for module, names in _MODULES.items() for name in names}
__all__ = sorted(_EXPORTS)


def __getattr__(name: str) -> object:
    # a public name, or a submodule that is not imported yet (``crrpricing.pricing``)
    module = _EXPORTS.get(name)
    qualified = f"{__name__}.{module or name}"
    try:
        __import__(qualified)  # the import statement's path, which ``python -X importtime`` logs
    except ModuleNotFoundError as exc:
        if module or exc.name != qualified:
            raise
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = sys.modules[qualified]
    if module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
