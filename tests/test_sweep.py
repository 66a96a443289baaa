"""Smoke run of the sweep, ``bench/sweep.py``: one record per layer (the
payoff pass, backward induction, the fair price, hedge synthesis,
verification and the CSV writers) and payoff at T=4, one sample each,
measured in this process; one cold-start record per command at T=3; and one
paired record of a checkout against itself."""
import hashlib
import json
import runpy
import statistics
import sys
from pathlib import Path

from crrpricing.crr import CrrMarket, CrrParams
from crrpricing.market import Asset, write_portfolio_csv
from crrpricing.payoff import parse_payoff
from crrpricing.pricing import (
    fair_price, price_lattice, replicating_portfolio, terminal_payoffs, verify_replication,
)

ROOT = Path(__file__).resolve().parent.parent


def test_one_record_per_writer_and_payoff_with_the_writers_bytes(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # record() puts the checkout on it
    sweep = runpy.run_path(str(ROOT / "bench" / "sweep.py"))
    records = [sweep["record"](str(ROOT), layer, 4, payoff, 1)
               for layer, payoffs in sweep["LAYERS"].items() if layer != sweep["COLD_LAYER"]
               for payoff in payoffs]
    assert [(r["layer"], r["payoff"]) for r in records] == [
        ("pricing.terminal_payoffs", "call(10)"), ("pricing.terminal_payoffs", "lookback"),
        ("pricing.terminal_payoffs", "avg(S) - 10"), ("pricing.terminal_payoffs", "S[1] - S_T"),
        ("pricing.terminal_payoffs", "max(S) - min(S)"),
        ("pricing.price_lattice", "lookback"), ("pricing.price_lattice", "avg(S) - 10"),
        ("pricing.fair_price", "lookback"), ("pricing.fair_price", "avg(S) - 10"),
        ("pricing.replicating_portfolio", "lookback"), ("pricing.replicating_portfolio", "avg(S) - 10"),
        ("pricing.verify_replication", "lookback"), ("pricing.verify_replication", "avg(S) - 10"),
        ("pricing.tree_csv", "call(10)"), ("pricing.tree_csv", "lookback"), ("pricing.tree_csv", "avg(S) - 10"),
        ("market.write_csv", "lookback"), ("market.write_csv", "avg(S) - 10"),
    ]
    crr = CrrMarket(CrrParams(**sweep["PARAMS"]), horizon=4)
    for r in records:
        payoff = parse_payoff(r["payoff"])
        if r["layer"] == "pricing.terminal_payoffs":
            level = terminal_payoffs(crr, payoff, 4)
            text, values = "".join(f"{x.hex()}\n" for x in level), {"payoff": 16}
        elif r["layer"] == "pricing.price_lattice":
            tree = price_lattice(crr, terminal_payoffs(crr, payoff, 4), 4)
            text, values = "".join(f"{x.hex()}\n" for level in tree.levels for x in level), {"value": 31}
        elif r["layer"] == "pricing.fair_price":
            text, values = f"{fair_price(crr, payoff, 4).hex()}\n", {"price": 1}
        elif r["layer"] == "pricing.replicating_portfolio":
            hedge = replicating_portfolio(crr, payoff, 4)
            text = "".join(f"{x.hex()}\n" for a in ("S", "rf") for level in hedge.levels[Asset(a)] for x in level)
            values = {"S": 15, "rf": 15}
        elif r["layer"] == "pricing.verify_replication":
            report = verify_replication(crr, replicating_portfolio(crr, payoff, 4), payoff, 4)
            fields = (report.self_financing, report.max_terminal_error, report.init_value, report.tolerance)
            text, values = "".join(f"{float(x).hex()}\n" for x in fields), {"report": 4}
        elif r["layer"] == "pricing.tree_csv":
            text, values = price_lattice(crr, payoff, 4).to_csv(), {"value": 31}
        else:
            text, values = write_portfolio_csv(replicating_portfolio(crr, payoff, 4)), {"S": 15, "rf": 15}
        assert r["horizon"] == 4
        assert r["sha256"] == hashlib.sha256(text.encode()).hexdigest()
        assert r["bytes"] == len(text.encode())
        assert r["values"] == values
        assert all(1 <= r["distinct"][name] <= n for name, n in values.items())
        assert len(r["runs_s"]) == 1 and r["median_s"] == r["runs_s"][0] > 0 and r["calls"] > 1  # a T=4 call is far shorter than a sample
        assert r["ru_maxrss_kb"] > 0 and r["tracemalloc_peak_bytes"] > 0


def test_one_cold_start_record_per_command_with_its_bytes_and_modules(monkeypatch, tmp_path):
    monkeypatch.setattr(sys, "path", list(sys.path))
    sweep = runpy.run_path(str(ROOT / "bench" / "sweep.py"))
    commands = sweep["LAYERS"][sweep["COLD_LAYER"]]
    assert commands == ("check", "price", "replicate --out", "verify")
    records = {c: sweep["record"](str(ROOT), "cli.main", 3, c, 2) for c in commands}
    crr = CrrMarket(CrrParams(**sweep["PARAMS"]), horizon=3)
    payoff = parse_payoff("lookback")
    hedge = replicating_portfolio(crr, payoff, 3)
    report = verify_replication(crr, hedge, payoff, 3)
    base = ["crrpricing", "crrpricing._marketbase", "crrpricing._value", "crrpricing.cli",
            "crrpricing.crr", "crrpricing.lattice"]
    engine = sorted(base + ["crrpricing.market", "crrpricing.payoff", "crrpricing.pricing"])
    expected = {  # stdout, then the file the command wrote
        "check": (f"viable; q = {crr.risk_neutral_measure().p:.6g}\n", base),
        "price": (f"fair price: {fair_price(crr, payoff, 3):.6g}\n", engine),
        "replicate --out": (
            f"replicating: yes; init value = {report.init_value:.6g}; "
            f"max terminal error = {report.max_terminal_error:.6g}\n" + write_portfolio_csv(hedge),
            sorted(engine + ["crrpricing._report"])),
        "verify": (
            "stock-portfolio: pass\ntrading-strategy: pass\nself-financing: pass\n"
            f"terminal-match: pass (max error = {report.max_terminal_error:.6g})\n"
            f"init value = {report.init_value:.6g}\nreplicating: yes\n",
            sorted(engine + ["crrpricing._report"])),
    }
    for command, r in records.items():
        text, modules = expected[command]
        assert (r["layer"], r["horizon"], r["payoff"], r["command"]) == ("cli.main", 3, "lookback", command)
        assert r["sha256"] == hashlib.sha256(text.encode()).hexdigest() and r["bytes"] == len(text.encode())
        assert r["modules"] == modules
        assert len(r["runs_s"]) == 2 and r["median_s"] == statistics.median(r["runs_s"]) > 0
        assert r["ru_maxrss_kb"] > 0


def test_a_checkout_against_itself_has_the_same_bytes_and_no_claim(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))
    sweep = runpy.run_path(str(ROOT / "bench" / "sweep.py"))
    r = sweep["paired"](str(ROOT), str(ROOT), "pricing.terminal_payoffs", 4, "lookback")
    pairs = sweep["PAIRS"]
    assert (r["layer"], r["horizon"], r["payoff"], r["pairs"]) == ("pricing.terminal_payoffs", 4, "lookback", pairs)
    assert r["sha256_equal"] and r["src"]["sha256"] == r["against"]["sha256"]
    assert r["same_source"] and r["claim"] is False
    assert 0 <= r["wins"] <= pairs and r["ratio"] > 0
    for side in ("src", "against"):
        assert len(r[side]["medians_s"]) == len(r[side]["runs_s"]) == pairs
        assert r[side]["median_s"] == statistics.median(r[side]["medians_s"])
        assert r[side]["best_s"] == statistics.median(map(min, r[side]["runs_s"]))  # the sides' statistic
    assert r["ratio"] == r["src"]["best_s"] / r["against"]["best_s"]


def test_faster_needs_nine_wins_in_ten_and_a_gap_past_the_spread():
    faster = runpy.run_path(str(ROOT / "bench" / "sweep.py"))["faster"]
    other = [1.0, 1.1, 0.9, 1.05, 0.95, 1.0, 1.02, 0.98, 1.0, 1.0]
    assert faster([x * 0.7 for x in other], other)
    assert not faster(other, other)
    assert not faster([x * 0.7 for x in other[:8]] + other[8:], other)  # eight wins in ten
    assert not faster([x - 0.01 for x in other], other)  # every pair won, by less than the spread


def test_pairs_of_a_checkout_against_itself_pass_the_same_checks_and_claim_nothing(monkeypatch, capsys):
    monkeypatch.setattr(sys, "path", list(sys.path))  # pairs.py puts bench/ on it
    main = runpy.run_path(str(ROOT / "bench" / "pairs.py"))["main"]
    result = main(["--against", str(ROOT), "--workload", "hedge-asian", "--seeds", "1-2",
                   "--seconds", "0.1", "--smoke"])
    assert result["seeds"] == [1, 2] and result["same_source"]
    hedge = result["workloads"]["hedge-asian"]
    assert hedge["src_failed"] == hedge["against_failed"] == 0
    assert hedge["src_attempted"] >= 2 * 4 and hedge["against_attempted"] >= 2 * 4  # warm-up and 3 ops a run
    assert set(hedge["metrics"]) == {"latency_p50_ref", "latency_tail_ref", "peak_rss_mb", "setup_s"}
    for m in hedge["metrics"].values():
        assert len(m["src"]) == len(m["against"]) == m["pairs"] == 2 and 0 <= m["wins"] <= 2
        assert m["src_quartiles"][1] == statistics.median(m["src"]) and m["against_iqr"] >= 0
        assert m["faster"] is False
    assert json.loads(capsys.readouterr().out) == result
