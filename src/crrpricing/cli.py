"""Command-line interface: price payoffs, emit and verify hedging
portfolios, and check market viability.

Exit codes: 0 success; 2 market not viable (price/replicate); 3 malformed input
(config, payoff, CSV, tolerance, output path), a closed stdout or an internal
consistency failure; 4 portfolio does not replicate; 5 market not viable
(check), with the arbitrage portfolio or a note that rounding leaves it no gain.
Identical inputs give byte-identical output: fixed node order, reports rounded
to 6 significant digits, CSV numbers in shortest round-trip form.
"""
from __future__ import annotations

import argparse
import contextlib
import math
import os
import sys
from typing import Callable, TextIO

from ._value import _SHOWN, echo
from .crr import CrrMarket, MarketNotViableError, is_viable, risk_neutral_q
from .lattice import label_at

# Engine names, by module, that every command but a viable ``check`` runs.
# ``_load_engine`` binds them, and the modules, as globals of this module when a
# command first needs them, and commands call them as such globals, so a
# monkeypatched or benchmark-traced ``cli.fair_price`` and the like sees every
# call. ``closing_value_process`` is bound only for the benchmark's tracer.
_ENGINE = {
    "payoff": ("parse_payoff",),
    "market": (
        "PredictabilityError", "closing_value_level", "closing_value_process",
        "read_path_table", "read_portfolio_csv", "write_portfolio_csv",
    ),
    "pricing": (
        "NotStockPortfolioError", "PayoffLike", "fair_price", "construct_arbitrage",
        "is_arbitrage_process", "price_lattice", "replicating_portfolio", "verify_replication",
    ),
}


def _load_engine() -> None:
    """Bind each name of ``_ENGINE``, and each of its modules, that is not bound yet."""
    for module, names in _ENGINE.items():
        qualified = f"{__package__}.{module}"
        __import__(qualified)  # the import statement's path, which ``python -X importtime`` logs
        engine = globals().setdefault(module, sys.modules[qualified])
        for name in names:
            globals().setdefault(name, getattr(engine, name))


def __getattr__(name: str) -> object:
    # an engine name looked up on this module before any command has bound it
    if name in _ENGINE or any(name in names for names in _ENGINE.values()):
        _load_engine()
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


EXIT_OK = 0
EXIT_INVIABLE = 2
EXIT_BAD_INPUT = 3
EXIT_NOT_REPLICATING = 4
EXIT_CHECK_INVIABLE = 5


def _read_text(path: str, what: str) -> str:
    """The contents of the file at ``path``; an unreadable file is a ``ValueError``."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            return f.read()
    except OSError as exc:
        raise ValueError(f"cannot read {what} {echo(path)}: {exc.strerror or exc}") from None


def _write_text(path: str, what: str, write: Callable[[TextIO], object]) -> None:
    """Let ``write`` fill the file at ``path``; an unwritable file is a ``ValueError``."""
    try:
        with open(path, "w", encoding="utf-8") as f:
            write(f)
    except OSError as exc:
        raise ValueError(f"cannot write {what} {echo(path)}: {exc.strerror or exc}") from None


def _read_market(path: str) -> CrrMarket:
    """The market described by the JSON config file at ``path``."""
    return CrrMarket.from_json(_read_text(path, "config"))


def _fmt(x: float) -> str:
    return format(x, ".6g")


def _load_payoff(args: argparse.Namespace, hedge: bool = False) -> PayoffLike:
    _load_engine()  # price, replicate and verify start here
    payoff = (parse_payoff(args.payoff) if args.payoff is not None
              else read_path_table(_read_text(args.path_table, "path table"), args.maturity))
    if hedge and args.maturity < 1:  # before the market's viability or the portfolio's decision times
        raise ValueError("replication needs at least one trading period")
    return payoff


def _maturity_level(crr: CrrMarket, payoff: PayoffLike, maturity: int) -> list[float]:
    risk_neutral_q(crr.params)  # an inviable market fails before the payoff is evaluated, as in fair_price
    return pricing.terminal_payoffs(crr, payoff, maturity)  # once, for every result of the command


def cmd_price(args: argparse.Namespace) -> int:
    crr = _read_market(args.config)
    payoff = _load_payoff(args)
    if args.tree:  # the price and the tree share one evaluation; a price alone needs no copy of it
        payoff = _maturity_level(crr, payoff, args.maturity)
    price = fair_price(crr, payoff, args.maturity)
    if args.tree:
        tree = price_lattice(crr, payoff, args.maturity)
        del crr, payoff  # the writer needs neither the market's stored levels nor the maturity level
        _write_text(args.tree, "tree", tree.to_csv)
    print(f"fair price: {_fmt(price)}")
    return EXIT_OK


def cmd_replicate(args: argparse.Namespace) -> int:
    crr = _read_market(args.config)
    payoff = _maturity_level(crr, _load_payoff(args, hedge=True), args.maturity)
    portfolio = replicating_portfolio(crr, payoff, args.maturity)
    report = verify_replication(crr, portfolio, payoff, args.maturity, args.tolerance)
    if args.out:
        _write_text(args.out, "portfolio", lambda f: write_portfolio_csv(portfolio, f))
    else:
        write_portfolio_csv(portfolio, sys.stdout)
    ok = report.is_replicating()
    print(
        f"replicating: {'yes' if ok else 'no'}; "
        f"init value = {_fmt(report.init_value)}; "
        f"max terminal error = {_fmt(report.max_terminal_error)}"
    )
    return EXIT_OK if ok else EXIT_NOT_REPLICATING


def cmd_verify(args: argparse.Namespace) -> int:
    crr = _read_market(args.config)
    payoff = _load_payoff(args, hedge=True)
    text = _read_text(args.portfolio, "portfolio")
    try:
        portfolio = read_portfolio_csv(text, args.maturity, crr.assets)
        report = verify_replication(crr, portfolio, payoff, args.maturity, args.tolerance)
    except PredictabilityError as exc:
        print("trading-strategy: fail (quantities peek at future tosses)")
        print(f"  {exc}")
        print("replicating: no")
        return EXIT_NOT_REPLICATING
    except NotStockPortfolioError as exc:
        print(f"stock-portfolio: fail ({exc})")
        print("replicating: no")
        return EXIT_NOT_REPLICATING
    print("stock-portfolio: pass")
    print("trading-strategy: pass")
    print(f"self-financing: {'pass' if report.self_financing else 'fail'}")
    print(
        f"terminal-match: {'pass' if report.terminal_match else 'fail'} "
        f"(max error = {_fmt(report.max_terminal_error)})"
    )
    print(f"init value = {_fmt(report.init_value)}")
    ok = report.is_replicating()
    print(f"replicating: {'yes' if ok else 'no'}")
    return EXIT_OK if ok else EXIT_NOT_REPLICATING


def cmd_check(args: argparse.Namespace) -> int:
    crr = _read_market(args.config)
    if is_viable(crr.params):
        print(f"viable; q = {_fmt(risk_neutral_q(crr.params))}")
        return EXIT_OK
    _load_engine()
    portfolio = construct_arbitrage(crr)
    verdict = is_arbitrage_process(crr, crr.measure(), portfolio)
    if verdict.violated_clause == "no-strict-gain":
        # 1 + r is within rounding of d or u: every closing value rounds to 0
        print("not viable: requires d < 1+r < u")
        print("no arbitrage in floating point: the one-period portfolio closes at 0 on every path")
        return EXIT_CHECK_INVIABLE
    if not verdict.is_arbitrage:
        raise RuntimeError(
            "internal consistency failure: the constructed arbitrage portfolio "
            f"fails the arbitrage check ({verdict.violated_clause})"
        )
    witness = verdict.witness_time
    print("not viable: requires d < 1+r < u")
    print(f"arbitrage portfolio (witness time {witness}):")
    for asset in sorted({crr.risky, crr.riskfree}, key=lambda a: a.id):
        print(f"  {asset.id}: {_fmt(portfolio.levels[asset][0][0])}")
    for k, value in enumerate(closing_value_level(crr, portfolio, witness)):
        print(f"  closing value[{label_at(witness, k)}] = {_fmt(value)}")
    return EXIT_CHECK_INVIABLE


def _maturity(text: str) -> int:
    """``type=int`` quoting through ``echo``; longer than it quotes whole, refused on every Python alike."""
    if len(text) <= _SHOWN:  # no maturity in range is longer; 3.10 reads an int of any length
        with contextlib.suppress(ValueError):
            return int(text)
    raise argparse.ArgumentTypeError(f"invalid int value: {echo(text)}")


def _tolerance(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {echo(text)}") from None
    if not (math.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError(f"must be finite and >= 0, got {echo(text)}")
    return value


def _add_payoff_arguments(sub: argparse.ArgumentParser) -> None:
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--payoff", help="payoff expression, e.g. 'call(98)'")
    group.add_argument(
        "--path-table", help="CSV of per-terminal-path payoffs (prefix,value)"
    )
    sub.add_argument(
        "--maturity", type=_maturity, required=True, help="payoff maturity in periods"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crrpricing",
        description="Binomial-market pricing, replication, and verification",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    price = commands.add_parser("price", help="fair price of a payoff")
    _add_payoff_arguments(price)
    price.add_argument("--tree", help="write the option value tree CSV here")
    price.set_defaults(func=cmd_price)

    replicate = commands.add_parser("replicate", help="synthesize a hedge")
    _add_payoff_arguments(replicate)
    replicate.add_argument("--out", help="write the portfolio CSV here (default stdout)")
    replicate.set_defaults(func=cmd_replicate)

    verify = commands.add_parser("verify", help="check a portfolio against a payoff")
    _add_payoff_arguments(verify)
    verify.add_argument("--portfolio", required=True, help="portfolio CSV to verify")
    verify.set_defaults(func=cmd_verify)

    check = commands.add_parser("check", help="viability and risk-neutral weight")
    check.set_defaults(func=cmd_check)

    for sub in (price, replicate, verify, check):
        sub.add_argument("--config", required=True, help="market config JSON file")
    for sub in (replicate, verify):
        sub.add_argument(
            "--tolerance",
            type=_tolerance,
            default=1e-9,
            help="self-financing and terminal-match tolerance, times max(1, max|payoff|) "
            "(default 1e-9)",
        )
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code == 0 else EXIT_BAD_INPUT
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError as exc:
        # the reader closed stdout: send the interpreter's exit flush to the null device
        try:
            with open(os.devnull, "w") as devnull:
                os.dup2(devnull.fileno(), sys.stdout.fileno())
        except (OSError, ValueError):  # no real file descriptor behind stdout
            pass
        print(f"error: cannot write stdout: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except MarketNotViableError:
        print("market not viable: requires d < 1+r < u", file=sys.stderr)
        return EXIT_INVIABLE
    except (ValueError, RuntimeError) as exc:
        # RuntimeError: the engine's own consistency check failed
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


def entry() -> None:
    sys.exit(main())
