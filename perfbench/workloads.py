"""The benchmark's workloads: market draw, one op each, and output checks.

Every workload drives ``crrpricing`` from outside, through the public
library names or the ``python -m crrpricing`` command line. The program
receives only a generated JSON config and payoff strings. An op's result
is checked against ``oracle``, which does not import ``crrpricing``.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import oracle
from oracle import MarketDraw


class Mismatch(Exception):
    """An op's output disagrees with the reference."""


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise Mismatch(message)


def expect_close(got: float, want: float, what: str, rel: float = 1e-9) -> None:
    expect(
        math.isclose(got, want, rel_tol=rel, abs_tol=1e-9),
        f"{what}: got {got!r}, reference {want!r}",
    )


def draw_market(seed: int) -> MarketDraw:
    """A viable market (d < 1 + r < u) and a strike near the spot.

    Values are rounded so the config stays readable; every draw costs the
    same, since the work depends only on the horizon.
    """
    rng = random.Random(seed)
    u = round(rng.uniform(1.05, 1.25), 4)
    d = round(rng.uniform(0.80, 0.97), 4)
    r = round(rng.uniform(0.0, (u - 1.0) / 2.0), 4)
    v = round(rng.uniform(80.0, 120.0), 2)
    p = round(rng.uniform(0.3, 0.7), 3)
    strike = round(v * rng.uniform(0.9, 1.1), 2)
    return MarketDraw(u=u, d=d, v=v, r=r, p=p, strike=strike)


def config_json(m: MarketDraw, horizon: int) -> str:
    return json.dumps({"u": m.u, "d": m.d, "v": m.v, "r": m.r, "p": m.p, "horizon": horizon})


class Workload:
    """One closed-loop op against a fixed market and horizon.

    ``run`` does the op and returns its raw output; ``check`` validates that
    output, raising on any mismatch, and returns per-op facts for the trace.
    Only ``run`` is timed.
    """

    name: str
    horizon: int        # horizon of a measured run
    smoke_horizon: int  # horizon of the self-test smoke run
    children_rss = False  # peak RSS is the CLI children's, not this process's

    def __init__(self, market: MarketDraw, horizon: int, work: Path, src: Path):
        self.market = market
        self.T = horizon
        self.work = work
        self.src = src
        self.config_path = work / "market.json"
        self.config_path.write_text(config_json(market, horizon))

    @staticmethod
    def payoff_texts(m: MarketDraw) -> list[str]:
        raise NotImplementedError

    def run(self, in_process: bool = False):
        raise NotImplementedError

    def check(self, output) -> dict[str, float]:
        raise NotImplementedError


class _Library(Workload):
    """Workloads calling the library in this process."""

    def __init__(self, *args):
        super().__init__(*args)
        from crrpricing import crr, payoff

        self.crr = crr.CrrMarket.from_json(self.config_path.read_text())
        self.payoffs = [(t, payoff.parse_payoff(t)) for t in self.payoff_texts(self.market)]


class PriceSheet(_Library):
    """``price --tree`` for a three-payoff term sheet, in process."""

    name = "price-sheet"
    horizon = 12
    smoke_horizon = 4

    @staticmethod
    def payoff_texts(m: MarketDraw) -> list[str]:
        return [f"call({m.strike!r})", "lookback", f"avg(S) - {m.strike!r}"]

    def __init__(self, *args):
        super().__init__(*args)
        m, T = self.market, self.T
        self.reference = {
            f"call({m.strike!r})": oracle.call_price(m, T, m.strike),
            "lookback": oracle.path_price(m, T, oracle.lookback),
            f"avg(S) - {m.strike!r}": oracle.path_price(m, T, oracle.average_minus(m.strike)),
        }

    def run(self, in_process: bool = False):
        from crrpricing import pricing

        out = []
        for text, expr in self.payoffs:
            price = pricing.fair_price(self.crr, expr, self.T)
            tree = pricing.price_lattice(self.crr, expr, self.T)
            out.append((text, price, tree.root, tree.to_csv()))
        return out

    def check(self, output) -> dict[str, float]:
        expect(len(output) == len(self.reference), "term sheet incomplete")
        for text, price, root, tree_csv in output:
            expect_close(price, self.reference[text], f"fair price of {text}")
            expect_close(root, price, f"tree root of {text}")
            lines = tree_csv.split("\n")
            expect(
                len(lines) == 2 ** (self.T + 1) + 1 and lines[-1] == "",
                f"tree CSV of {text} has {len(lines) - 2} rows, want {2 ** (self.T + 1) - 1}",
            )
            expect(lines[1].startswith("0,-,"), f"tree CSV of {text} does not start at the root")
            expect(float(lines[1].split(",")[2]) == root, f"tree CSV root of {text} differs")
        return {}


class HedgeAsian(_Library):
    """Replicate, verify and serialise the hedge of ``avg(S) - K``."""

    name = "hedge-asian"
    horizon = 12
    smoke_horizon = 4

    @staticmethod
    def payoff_texts(m: MarketDraw) -> list[str]:
        return [f"avg(S) - {m.strike!r}"]

    def __init__(self, *args):
        super().__init__(*args)
        self.reference = oracle.path_price(self.market, self.T, oracle.average_minus(self.market.strike))

    def run(self, in_process: bool = False):
        from crrpricing import market, pricing

        (_, expr), = self.payoffs
        hedge = pricing.replicating_portfolio(self.crr, expr, self.T)
        report = pricing.verify_replication(self.crr, hedge, expr, self.T)
        return report, market.write_portfolio_csv(hedge)

    def check(self, output) -> dict[str, float]:
        report, hedge_csv = output
        expect(report.is_replicating(), f"hedge does not replicate: {report}")
        expect_close(report.init_value, self.reference, "hedge init value")
        rows = hedge_csv.count("\n") - 1
        want = 2 * (2**self.T - 1)
        expect(rows == want, f"portfolio CSV has {rows} rows, want {want}")
        return {"market.csv_bytes": len(hedge_csv.encode())}


_NUMBER = r"(-?[0-9.]+(?:e[-+]?\d+)?)"


def _printed(pattern: str, text: str, what: str) -> float:
    match = re.search(pattern.replace("NUM", _NUMBER), text, re.MULTILINE)
    expect(match is not None, f"{what}: unexpected output {text!r}")
    return float(match.group(1))


class CliRoundtrip(Workload):
    """``check``, ``replicate --out``, ``verify --portfolio`` and ``price``
    on ``lookback``, one fresh ``python -m crrpricing`` process each."""

    name = "cli-roundtrip"
    horizon = 8
    smoke_horizon = 3
    children_rss = True

    @staticmethod
    def payoff_texts(m: MarketDraw) -> list[str]:
        return ["lookback"]

    def __init__(self, *args):
        super().__init__(*args)
        self.hedge_path = self.work / "hedge.csv"
        self.reference = oracle.path_price(self.market, self.T, oracle.lookback)
        cfg, T = str(self.config_path), str(self.T)
        common = ["--config", cfg, "--payoff", "lookback", "--maturity", T]
        self.commands = [
            ["check", "--config", cfg],
            ["replicate", *common, "--out", str(self.hedge_path)],
            ["verify", *common, "--portfolio", str(self.hedge_path)],
            ["price", *common],
        ]
        self.env = {**os.environ, "PYTHONPATH": str(self.src)}

    def run_command(self, argv: list[str]) -> tuple[int, str]:
        """One fresh interpreter running the CLI; returns (exit code, stdout)."""
        done = subprocess.run(
            [sys.executable, "-m", "crrpricing", *argv],
            capture_output=True, text=True, env=self.env, cwd=self.work, timeout=120,
        )
        return done.returncode, done.stdout

    @staticmethod
    def run_in_process(argv: list[str]) -> tuple[int, str]:
        """``crrpricing.cli.main`` in this process; returns (exit code, stdout)."""
        from crrpricing import cli

        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
        return rc, out.getvalue()

    def run(self, in_process: bool = False):
        runner = self.run_in_process if in_process else self.run_command
        return [runner(argv) for argv in self.commands]

    def check(self, output) -> dict[str, float]:
        expect(len(output) == len(self.commands), "command sequence incomplete")
        for argv, (rc, _) in zip(self.commands, output):
            expect(rc == 0, f"{argv[0]} exited with {rc}")
        (_, check), (_, replicate), (_, verify), (_, price) = output
        # The CLI prints 6 significant digits: at most 5e-6 relative error.
        printed = [
            (r"^viable; q = NUM$", check, "check q", self.market.q),
            (r"^replicating: yes; init value = NUM;", replicate, "replicate init value", self.reference),
            (r"^init value = NUM$", verify, "verify init value", self.reference),
            (r"^fair price: NUM$", price, "fair price", self.reference),
        ]
        for pattern, text, what, want in printed:
            expect_close(_printed(pattern, text, what), want, what, rel=6e-6)
        expect(verify.rstrip().endswith("replicating: yes"), f"verify: {verify!r}")
        hedge_csv = self.hedge_path.read_bytes()
        rows = hedge_csv.count(b"\n") - 1
        want = 2 * (2**self.T - 1)
        expect(rows == want, f"portfolio CSV has {rows} rows, want {want}")
        return {"market.csv_bytes": len(hedge_csv)}


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (PriceSheet, HedgeAsian, CliRoundtrip)
}
