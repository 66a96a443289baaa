"""Command-line contract: output formats, exit codes, determinism."""
import contextlib
import csv
import io
import json
import math
import os
import random
import re
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crrpricing.cli import (
    EXIT_BAD_INPUT,
    EXIT_CHECK_INVIABLE,
    EXIT_INVIABLE,
    EXIT_NOT_REPLICATING,
    EXIT_OK,
    main,
    read_path_table,
)
from crrpricing import cli, market, pricing
from crrpricing.crr import CrrMarket, is_viable
from crrpricing.pricing import construct_arbitrage
from crrpricing.lattice import TossPath, prefix_labels
from crrpricing.payoff import MAX_PAYOFF_DEPTH

REFERENCE = {"u": 1.2, "d": 0.8, "v": 10.0, "r": 0.03, "p": 0.5, "horizon": 4}
ROUNDING_ONLY = (
    "not viable: requires d < 1+r < u\n"
    "no arbitrage in floating point: the one-period portfolio closes at 0 on every path\n"
)
LARGE_SPOT = {"u": 1.15, "d": 0.9, "v": 1e9, "r": 0.02, "p": 0.5, "horizon": 6}
DATA = Path(__file__).parent / "data"


@pytest.fixture
def config(tmp_path):
    path = tmp_path / "market.json"
    path.write_text(json.dumps(REFERENCE))
    return str(path)


def write_config(tmp_path, **overrides):
    data = dict(REFERENCE, **overrides)
    path = tmp_path / "override.json"
    path.write_text(json.dumps(data))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPrice:
    def test_lookback_price_line(self, capsys, config):
        code, out, _ = run(
            capsys, "price", "--config", config, "--payoff", "lookback",
            "--maturity", "2",
        )
        assert code == EXIT_OK
        assert out == "fair price: 1.25789\n"
        printed = float(out.split(":")[1])
        assert printed == pytest.approx(1.2579, abs=5e-4)

    def test_forward_price_rounds_to_reference(self, capsys, tmp_path):
        cfg = write_config(tmp_path, u=1.1, d=0.95, v=95.0, r=0.02, horizon=2)
        code, out, _ = run(
            capsys, "price", "--config", cfg, "--payoff", "forward(98)",
            "--maturity", "2",
        )
        assert code == EXIT_OK
        assert round(float(out.split(":")[1]), 2) == 0.81

    def test_constant_payoff_flat_rate(self, capsys, tmp_path):
        cfg = write_config(tmp_path, r=0.0, horizon=1)
        code, out, _ = run(
            capsys, "price", "--config", cfg, "--payoff", "1", "--maturity", "1"
        )
        assert code == EXIT_OK
        assert out == "fair price: 1\n"

    def test_inviable_market_exit_two(self, capsys, tmp_path):
        cfg = write_config(tmp_path, r=0.25)
        code, out, err = run(
            capsys, "price", "--config", cfg, "--payoff", "call(10)",
            "--maturity", "2",
        )
        assert code == EXIT_INVIABLE
        assert "market not viable: requires d < 1+r < u" in err

    def test_payoff_parse_error_exit_three(self, capsys, config):
        code, _, err = run(
            capsys, "price", "--config", config, "--payoff", "S[1",
            "--maturity", "2",
        )
        assert code == EXIT_BAD_INPUT
        assert "offset 3" in err

    def test_bad_config_exit_three(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"u": 1.2}')
        code, _, err = run(
            capsys, "price", "--config", str(path), "--payoff", "1",
            "--maturity", "1",
        )
        assert code == EXIT_BAD_INPUT
        assert "missing" in err

    def test_missing_config_file_exit_three(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "price", "--config", str(tmp_path / "nope.json"),
            "--payoff", "1", "--maturity", "1",
        )
        assert code == EXIT_BAD_INPUT

    def test_maturity_beyond_horizon_exit_three(self, capsys, config):
        code, _, err = run(
            capsys, "price", "--config", config, "--payoff", "1",
            "--maturity", "9",
        )
        assert code == EXIT_BAD_INPUT
        assert "horizon" in err

    def test_maturity_far_beyond_horizon_builds_no_weights(self, capsys, tmp_path):
        # the maturity is checked before the 2^40 risk-neutral path weights
        cfg = write_config(tmp_path, horizon=2)
        tracemalloc.start()
        try:
            result = run(capsys, "price", "--config", cfg, "--payoff", "lookback", "--maturity", "40")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result == (EXIT_BAD_INPUT, "", "error: maturity 40 outside market horizon 2\n")
        assert peak < 1 << 20

    @pytest.mark.parametrize("payoff, maturity, fixed", [("S[9] + S_T", 5, 9), ("S[3] / (S_T - S_T)", 1, 3)])
    def test_fixed_index_past_maturity_is_one_fault(self, capsys, tmp_path, payoff, maturity, fixed):
        # whatever else the expression holds, S[i] past the maturity is named before any path
        cfg = write_config(tmp_path, horizon=5)
        result = run(capsys, "price", "--config", cfg, "--payoff", payoff, "--maturity", str(maturity))
        assert result == (EXIT_BAD_INPUT, "", f"error: payoff observes S[{fixed}] but matures at {maturity}\n")

    def test_tree_csv_written(self, capsys, config, tmp_path):
        tree = tmp_path / "tree.csv"
        code, _, _ = run(
            capsys, "price", "--config", config, "--payoff", "lookback",
            "--maturity", "2", "--tree", str(tree),
        )
        assert code == EXIT_OK
        rows = list(csv.reader(io.StringIO(tree.read_text())))
        assert rows[0] == ["time", "prefix", "value"]
        assert len(rows) == 1 + 7  # header + 2**3 - 1 nodes
        by_key = {(r[0], r[1]): float(r[2]) for r in rows[1:]}
        assert by_key[("0", "-")] == pytest.approx(1.2579, abs=5e-4)
        assert by_key[("1", "U")] == pytest.approx(0.9903, abs=5e-4)
        assert by_key[("1", "D")] == pytest.approx(1.7087, abs=5e-4)
        assert by_key[("2", "UD")] == pytest.approx(2.4, abs=1e-12)

    def test_path_table_mode(self, capsys, config, tmp_path):
        table = tmp_path / "payoffs.csv"
        table.write_text("prefix,value\nUU,0\nUD,2.4\nDU,0.4\nDD,3.6\n")
        code, out, _ = run(
            capsys, "price", "--config", config, "--path-table", str(table),
            "--maturity", "2",
        )
        assert code == EXIT_OK
        assert out == "fair price: 1.25789\n"

    def test_path_table_with_a_long_row_names_its_columns(self, capsys, config, tmp_path):
        table = tmp_path / "payoffs.csv"
        table.write_text("prefix,value\nUU,0,1\nUD,2.4\nDU,0.4\nDD,3.6\n")
        code, out, err = run(
            capsys, "price", "--config", config, "--path-table", str(table),
            "--maturity", "2",
        )
        assert (code, out, err) == (
            EXIT_BAD_INPUT, "", "error: path table line 2: expected 2 columns, got 3\n"
        )

    def test_oversized_path_table_field_is_bad_input(self, capsys, config, tmp_path):
        table = tmp_path / "payoffs.csv"
        table.write_text(f"prefix,value\nUU,0\nUD,{'9' * 200_000}\nDU,0.4\nDD,3.6\n")
        code, out, err = run(
            capsys, "price", "--config", config, "--path-table", str(table),
            "--maturity", "2",
        )
        assert (code, out) == (EXIT_BAD_INPUT, "")
        assert err.startswith("error: path table line 3: field larger than field limit")

    @pytest.mark.parametrize("payoff, offset", [("call(1e400)", 5), ("1e400 / (S_T - S_T)", 0)])
    def test_overflowing_literal_is_bad_input(self, capsys, config, payoff, offset):
        code, out, err = run(capsys, "price", "--config", config, "--payoff", payoff, "--maturity", "3")
        assert (code, out, err) == (
            EXIT_BAD_INPUT, "", f"error: number 1e400 is outside the float range at offset {offset}\n"
        )

    def test_malformed_path_table_exit_three(self, capsys, config, tmp_path):
        table = tmp_path / "payoffs.csv"
        table.write_text("prefix,value\nUU,0\nUD,2.4\nDU,0.4\n")
        code, _, err = run(
            capsys, "price", "--config", config, "--path-table", str(table),
            "--maturity", "2",
        )
        assert code == EXIT_BAD_INPUT
        assert "misses" in err

    def test_determinism(self, capsys, config):
        argv = ["price", "--config", config, "--payoff", "lookback", "--maturity", "2"]
        first = run(capsys, *argv)
        second = run(capsys, *argv)
        assert first == second


class TestReplicate:
    def test_lookback_portfolio_rows(self, capsys, config, tmp_path):
        out_csv = tmp_path / "hedge.csv"
        code, out, _ = run(
            capsys, "replicate", "--config", config, "--payoff", "lookback",
            "--maturity", "2", "--out", str(out_csv),
        )
        assert code == EXIT_OK
        assert "replicating: yes" in out
        rows = list(csv.reader(io.StringIO(out_csv.read_text())))
        assert rows[0] == ["time", "prefix", "asset", "quantity"]
        by_key = {(r[0], r[1], r[2]): float(r[3]) for r in rows[1:]}
        assert by_key[("0", "-", "S")] == pytest.approx(-0.1796, abs=5e-4)
        assert by_key[("0", "-", "rf")] == pytest.approx(3.0539, abs=5e-4)
        assert by_key[("1", "U", "S")] == pytest.approx(-0.5, abs=5e-4)
        assert by_key[("1", "D", "S")] == pytest.approx(-1.0, abs=5e-4)

    def test_stock_payoff_constant_unit_hedge(self, capsys, config, tmp_path):
        out_csv = tmp_path / "hedge.csv"
        code, _, _ = run(
            capsys, "replicate", "--config", config, "--payoff", "S_T",
            "--maturity", "3", "--out", str(out_csv),
        )
        assert code == EXIT_OK
        for rec in csv.DictReader(io.StringIO(out_csv.read_text())):
            expected = 1.0 if rec["asset"] == "S" else 0.0
            assert float(rec["quantity"]) == pytest.approx(expected, abs=1e-9)

    def test_stdout_is_streamed_like_out(self, capsys, monkeypatch, config, tmp_path):
        streams = []

        def write_portfolio_csv(portfolio, out=None):
            streams.append(out)
            return market.write_portfolio_csv(portfolio, out)

        monkeypatch.setattr(cli, "write_portfolio_csv", write_portfolio_csv)
        argv = ["replicate", "--config", config, "--payoff", "lookback", "--maturity", "3"]
        code, piped, _ = run(capsys, *argv)
        hedge = tmp_path / "hedge.csv"
        code_out, report, _ = run(capsys, *argv, "--out", str(hedge))
        assert code == code_out == EXIT_OK
        assert piped == hedge.read_text() + report
        assert streams[0] is sys.stdout
        assert streams[1] is not None and streams[1] is not sys.stdout

    def test_report_matches_price_output(self, capsys, config):
        code_p, out_p, _ = run(
            capsys, "price", "--config", config, "--payoff", "lookback",
            "--maturity", "2",
        )
        code_r, out_r, _ = run(
            capsys, "replicate", "--config", config, "--payoff", "lookback",
            "--maturity", "2",
        )
        assert (code_p, code_r) == (EXIT_OK, EXIT_OK)
        printed_price = out_p.split("fair price: ")[1].strip()
        report = out_r.splitlines()[-1]
        assert f"init value = {printed_price}" in report

    def test_csv_to_stdout_by_default(self, capsys, config):
        code, out, _ = run(
            capsys, "replicate", "--config", config, "--payoff", "call(9)",
            "--maturity", "1",
        )
        assert code == EXIT_OK
        assert out.startswith("time,prefix,asset,quantity\n")
        assert "replicating: yes" in out

    def test_inviable_exit_two(self, capsys, tmp_path):
        cfg = write_config(tmp_path, r=0.25)
        code, _, err = run(
            capsys, "replicate", "--config", cfg, "--payoff", "call(10)",
            "--maturity", "2",
        )
        assert code == EXIT_INVIABLE


class TestVerify:
    def replicate_to_file(self, capsys, config, tmp_path, payoff="lookback", maturity="2"):
        out_csv = tmp_path / "hedge.csv"
        code, _, _ = run(
            capsys, "replicate", "--config", config, "--payoff", payoff,
            "--maturity", maturity, "--out", str(out_csv),
        )
        assert code == EXIT_OK
        return out_csv

    def test_round_trip_passes_all_clauses(self, capsys, config, tmp_path):
        hedge = self.replicate_to_file(capsys, config, tmp_path)
        code, out, _ = run(
            capsys, "verify", "--config", config, "--payoff", "lookback",
            "--maturity", "2", "--portfolio", str(hedge),
        )
        assert code == EXIT_OK
        assert "stock-portfolio: pass" in out
        assert "trading-strategy: pass" in out
        assert "self-financing: pass" in out
        assert "terminal-match: pass" in out
        assert "replicating: yes" in out

    def test_zero_portfolio_fails_terminal_clause(self, capsys, config, tmp_path):
        empty = tmp_path / "zero.csv"
        empty.write_text("time,prefix,asset,quantity\n")
        code, out, _ = run(
            capsys, "verify", "--config", config, "--payoff", "lookback",
            "--maturity", "2", "--portfolio", str(empty),
        )
        assert code == EXIT_NOT_REPLICATING
        assert "terminal-match: fail (max error = 3.6)" in out
        assert "replicating: no" in out

    def test_unpredictable_portfolio_fails_named_clause(self, capsys, config, tmp_path):
        bad = tmp_path / "peeking.csv"
        bad.write_text(
            "time,prefix,asset,quantity\n0,U,S,1.0\n0,D,S,2.0\n"
        )
        code, out, _ = run(
            capsys, "verify", "--config", config, "--payoff", "lookback",
            "--maturity", "2", "--portfolio", str(bad),
        )
        assert code == EXIT_NOT_REPLICATING
        assert "trading-strategy: fail" in out

    def test_malformed_csv_exit_three(self, capsys, config, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("nope\n")
        code, _, err = run(
            capsys, "verify", "--config", config, "--payoff", "lookback",
            "--maturity", "2", "--portfolio", str(bad),
        )
        assert code == EXIT_BAD_INPUT
        assert "header" in err

    def test_oversized_quantity_field_is_bad_input(self, capsys, config, tmp_path):
        hedge = self.replicate_to_file(capsys, config, tmp_path)
        rows = hedge.read_text()
        hedge.write_text(rows + f"1,U,S,{'9' * 200_000}\n")
        code, out, err = run(
            capsys, "verify", "--config", config, "--payoff", "lookback",
            "--maturity", "2", "--portfolio", str(hedge),
        )
        assert (code, out) == (EXIT_BAD_INPUT, "")
        lineno = len(rows.splitlines()) + 1
        assert err.startswith(f"error: line {lineno}: field larger than field limit")

    def test_error_names_the_physical_line_after_a_quoted_newline(self, capsys, config, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text('time,prefix,asset,quantity\n0,-,"S\n",1\n1,U,S,x\n')
        code, out, err = run(
            capsys, "verify", "--config", config, "--payoff", "lookback",
            "--maturity", "2", "--portfolio", str(bad),
        )
        assert (code, out, err) == (
            EXIT_BAD_INPUT, "", "error: line 4: could not convert string to float: 'x'\n"
        )

    @pytest.mark.parametrize("extra", ["1,-,S,0.5", "1,U,S,0.5"])
    def test_disagreeing_row_is_a_conflict_at_any_depth(self, capsys, config, tmp_path, extra):
        # A coarser key for the same decision is not a peek at later tosses:
        # whether the extra row sits above or beside the engine's (t=1, U)
        # row, the two cover that cell with different quantities.
        hedge = self.replicate_to_file(capsys, config, tmp_path)
        hedge.write_text(hedge.read_text() + extra + "\n")
        code, out, err = run(
            capsys, "verify", "--config", config, "--payoff", "lookback",
            "--maturity", "2", "--portfolio", str(hedge),
        )
        assert code == EXIT_BAD_INPUT
        assert out == ""
        assert err == "error: conflicting quantities for asset 'S' at (t=1, U)\n"

    def test_non_stock_support_fails_clause(self, capsys, config, tmp_path):
        alien = tmp_path / "alien.csv"
        alien.write_text("time,prefix,asset,quantity\n0,-,derivative,1.0\n")
        code, out, _ = run(
            capsys, "verify", "--config", config, "--payoff", "lookback",
            "--maturity", "2", "--portfolio", str(alien),
        )
        assert code == EXIT_NOT_REPLICATING
        assert "stock-portfolio: fail" in out

    def test_clause_is_told_by_error_class_not_message(self, capsys, monkeypatch, config, tmp_path):
        hedge = self.replicate_to_file(capsys, config, tmp_path)

        def verify_replication(*args):
            raise ValueError("not a stock portfolio: worded alike, but another fault")

        monkeypatch.setattr(cli, "verify_replication", verify_replication)
        code, out, err = run(
            capsys, "verify", "--config", config, "--payoff", "lookback",
            "--maturity", "2", "--portfolio", str(hedge),
        )
        assert (code, out) == (EXIT_BAD_INPUT, "")
        assert err == "error: not a stock portfolio: worded alike, but another fault\n"

    def test_maturity_past_the_market_horizon_is_bad_input(self, capsys, config, tmp_path):
        hedge = self.replicate_to_file(capsys, config, tmp_path, maturity="3")
        code, out, err = run(
            capsys, "verify", "--config", config, "--payoff", "lookback",
            "--maturity", "5", "--portfolio", str(hedge),
        )
        assert (code, out, err) == (EXIT_BAD_INPUT, "", "error: maturity 5 outside market horizon 4\n")

    @pytest.mark.parametrize("maturity", ["0", "-1"])
    @pytest.mark.parametrize("command", ["replicate", "verify"])
    def test_maturity_below_one_is_bad_input(self, capsys, config, tmp_path, command, maturity):
        hedge = self.replicate_to_file(capsys, config, tmp_path)
        extra = ["--portfolio", str(hedge)] if command == "verify" else []
        code, out, err = run(
            capsys, command, "--config", config, "--payoff", "lookback", "--maturity", maturity, *extra,
        )
        assert (code, out, err) == (
            EXIT_BAD_INPUT, "", "error: replication needs at least one trading period\n"
        )


class TestCheck:
    def test_viable_reports_weight(self, capsys, config):
        code, out, _ = run(capsys, "check", "--config", config)
        assert code == EXIT_OK
        assert out == "viable; q = 0.575\n"

    def test_inviable_prints_arbitrage_table(self, capsys, tmp_path):
        cfg = write_config(tmp_path, r=0.25)
        code, out, _ = run(capsys, "check", "--config", cfg)
        assert code == EXIT_CHECK_INVIABLE
        assert "not viable: requires d < 1+r < u" in out
        assert "witness time 1" in out
        assert "S: -1" in out
        assert "rf: 10" in out
        # shorted stock bought back cheaper than the banked proceeds grow
        assert "closing value[U] = 0.5" in out
        assert "closing value[D] = 4.5" in out

    def test_boundary_is_inviable(self, capsys, tmp_path):
        cfg = write_config(tmp_path, d=1.0, r=0.0)
        code, out, _ = run(capsys, "check", "--config", cfg)
        assert code == EXIT_CHECK_INVIABLE

    def test_invalid_config_exit_three(self, capsys, tmp_path):
        cfg = write_config(tmp_path, d=1.4)  # d > u
        code, _, err = run(capsys, "check", "--config", cfg)
        assert code == EXIT_BAD_INPUT

    def test_uncertified_arbitrage_is_a_consistency_failure(self, capsys, tmp_path, monkeypatch):
        # the certificate never fails these clauses in floats; if it did, the
        # engine would contradict itself
        cfg = write_config(tmp_path, r=0.25)
        for clause in ("init-nonzero", "not-self-financing", "negative-closing-value"):
            monkeypatch.setattr(cli, "is_arbitrage_process", lambda *a: pricing.ArbitrageVerdict(None, clause))
            assert run(capsys, "check", "--config", cfg) == (
                EXIT_BAD_INPUT, "",
                "error: internal consistency failure: the constructed arbitrage portfolio "
                f"fails the arbitrage check ({clause})\n",
            )

    @pytest.mark.parametrize("horizon", [1, 3, 12])
    def test_inviable_only_by_rounding(self, capsys, tmp_path, horizon):
        # u is one ulp above d and 1 + r rounds to d, so the market is not
        # viable, but the constructed long-stock portfolio closes at exactly
        # 0 on both paths in floats: no strict gain
        cfg = write_config(
            tmp_path, u=0.4051023661596364, d=0.40510236615963635, v=3.0,
            r=-0.5948976338403636, horizon=horizon,
        )
        assert run(capsys, "check", "--config", cfg) == (EXIT_CHECK_INVIABLE, ROUNDING_ONLY, "")

    @settings(max_examples=300, deadline=None)
    @given(
        st.floats(0.5, 1.3), st.none() | st.integers(1, 4), st.sampled_from(["d", "u"]),
        st.integers(-4, 4), st.sampled_from([1.5, 3.0]) | st.floats(1e-3, 1e3), st.integers(1, 4),
    )
    @example(0.40510236615963635, 1, "d", 0, 3.0, 3)  # inviable only by rounding
    def test_near_the_viability_edges(self, d, gap, edge, ulps, v, horizon):
        # u a few ulps above d (or 1.5 d), and 1 + r a few ulps from one of them:
        # viable, an arbitrage, or one lost to rounding, but never an internal failure
        u = 1.5 * d if gap is None else nudged(d, gap)
        r = nudged({"d": d, "u": u}[edge], ulps) - 1.0
        with tempfile.TemporaryDirectory() as tmp:
            cfg = write_config(Path(tmp), u=u, d=d, v=v, r=r, horizon=horizon)
            with contextlib.redirect_stdout(io.StringIO()) as out:
                code = main(["check", "--config", cfg])
            crr = CrrMarket.from_json(Path(cfg).read_text())
        if is_viable(crr.params):
            assert code == EXIT_OK
            return
        assert code == EXIT_CHECK_INVIABLE
        assert out.getvalue().startswith("not viable: requires d < 1+r < u\n")
        closing = market.closing_value_level(crr, construct_arbitrage(crr), 1)
        if out.getvalue() == ROUNDING_ONLY:
            assert closing == [0.0, 0.0]
        else:
            assert "arbitrage portfolio (witness time 1):" in out.getvalue()
            assert min(closing) >= 0.0 < max(closing)


def nudged(x, ulps):
    """``x`` moved ``ulps`` floats up (or down, for a negative count)."""
    for _ in range(abs(ulps)):
        x = math.nextafter(x, math.copysign(math.inf, ulps))
    return x


class TestCrossCommandConsistency:
    def test_randomized_price_equals_replicate_init(self, capsys, tmp_path):
        import random

        rng = random.Random(20240811)
        payoffs = ["call(9)", "put(12)", "lookback", "avg(S) - 8", "forward(10)"]
        for case in range(10):
            d = round(rng.uniform(0.7, 1.0), 3)
            u = round(d + rng.uniform(0.1, 0.4), 3)
            r = round(d + rng.uniform(0.1, 0.9) * (u - d) - 1.0, 4)
            horizon = rng.randint(1, 5)
            cfg = tmp_path / f"cfg{case}.json"
            cfg.write_text(json.dumps(
                {"u": u, "d": d, "v": 10.0, "r": r, "p": 0.5, "horizon": horizon}
            ))
            payoff = rng.choice(payoffs)
            argv = ["--config", str(cfg), "--payoff", payoff, "--maturity", str(horizon)]
            code_p, out_p, _ = run(capsys, "price", *argv)
            code_r, out_r, _ = run(capsys, "replicate", *argv)
            assert (code_p, code_r) == (EXIT_OK, EXIT_OK), (case, payoff)
            price_text = out_p.split("fair price: ")[1].strip()
            assert f"init value = {price_text}" in out_r, (case, payoff)

    def test_replicate_output_is_reproducible(self, capsys, config):
        argv = ["replicate", "--config", config, "--payoff", "lookback", "--maturity", "2"]
        assert run(capsys, *argv) == run(capsys, *argv)


class TestArgumentHandling:
    def test_usage_error_is_bad_input(self, capsys):
        assert main(["price"]) == EXIT_BAD_INPUT
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == EXIT_OK
        capsys.readouterr()

    def test_payoff_and_table_mutually_exclusive(self, capsys, config, tmp_path):
        table = tmp_path / "t.csv"
        table.write_text("prefix,value\nU,1\nD,0\n")
        code = main([
            "price", "--config", config, "--payoff", "1",
            "--path-table", str(table), "--maturity", "1",
        ])
        capsys.readouterr()
        assert code == EXIT_BAD_INPUT

    @pytest.mark.parametrize("key", ["u", "v", "r"])
    def test_infinite_config_value_is_bad_input(self, capsys, tmp_path, key):
        cfg = write_config(tmp_path, **{key: math.inf})  # written as Infinity
        payoff = ["--payoff", "put(100)", "--maturity", "3"]
        for argv in (["check"], ["price", *payoff], ["replicate", *payoff]):
            code, out, _ = run(capsys, *argv, "--config", cfg)
            assert code == EXIT_BAD_INPUT
            assert "nan" not in out.lower() and "inf" not in out.lower()

    @pytest.mark.parametrize(
        "overrides",
        [dict(u=1e200, v=1e200, horizon=3), dict(u=1.5, d=1e-200, v=1e-200, horizon=3),
         dict(u=1e110, d=0.5, v=1e-200, horizon=3)],
        ids=["overflow", "underflow", "weight-underflow"],
    )
    def test_prices_outside_float_range_are_bad_input(self, capsys, config, tmp_path, overrides):
        hedge = tmp_path / "hedge.csv"
        payoff = ["--payoff", "1", "--maturity", "2"]
        assert run(capsys, "replicate", "--config", config, *payoff, "--out", str(hedge))[0] == EXIT_OK
        cfg = write_config(tmp_path, **overrides)
        for argv in (["check"], ["price", *payoff], ["replicate", *payoff],
                     ["verify", *payoff, "--portfolio", str(hedge)]):
            code, out, err = run(capsys, *argv, "--config", cfg)
            assert code == EXIT_BAD_INPUT
            assert out == "" and "float range" in err

    @pytest.mark.parametrize("tolerance", ["nan", "-1"])
    def test_invalid_tolerance_is_bad_input(self, capsys, config, tmp_path, tolerance):
        hedge = tmp_path / "hedge.csv"
        argv = ["--config", config, "--payoff", "call(10)", "--maturity", "3"]
        assert run(capsys, "replicate", *argv, "--out", str(hedge))[0] == EXIT_OK
        for cmd in (["replicate", *argv], ["verify", *argv, "--portfolio", str(hedge)]):
            code, out, err = run(capsys, *cmd, "--tolerance", tolerance)
            assert code == EXIT_BAD_INPUT
            assert out == ""
            assert "--tolerance" in err

    @pytest.mark.parametrize(
        "cmd", [["price", "--payoff", "call(10)", "--maturity", "3"], ["check"]]
    )
    def test_tolerance_only_on_replication_commands(self, capsys, config, cmd):
        code, out, err = run(capsys, *cmd, "--config", config, "--tolerance", "1e-6")
        assert code == EXIT_BAD_INPUT
        assert out == ""
        assert "--tolerance" in err

    def test_tolerance_governs_both_clauses(self, capsys, tmp_path):
        cfg = write_config(tmp_path, **LARGE_SPOT)
        hedge = tmp_path / "hedge.csv"
        argv = ["--config", cfg, "--payoff", "call(1e9)", "--maturity", "6", "--tolerance", "1e-6"]
        code, out, _ = run(capsys, "replicate", *argv, "--out", str(hedge))
        assert code == EXIT_OK
        assert out.startswith("replicating: yes;")
        code, out, _ = run(capsys, "verify", *argv, "--portfolio", str(hedge))
        assert code == EXIT_OK
        assert "self-financing: pass" in out and "terminal-match: pass" in out

    def test_large_spot_tree_passes_consistency_check(self, capsys, tmp_path):
        cfg = write_config(tmp_path, **LARGE_SPOT)
        tree = tmp_path / "tree.csv"
        code, out, err = run(
            capsys, "price", "--config", cfg, "--payoff", "lookback", "--maturity", "6",
            "--tree", str(tree),
        )
        assert (code, out, err) == (EXIT_OK, "fair price: 1.42762e+08\n", "")
        assert len(tree.read_text().splitlines()) == 2**7

    @pytest.mark.parametrize(
        "row, bad", [("0,-,S,", "nan"), ("0,-,rf,", "nan"), ("2,DD,S,", "nan"), ("0,-,S,", "inf")]
    )
    def test_non_finite_quantity_is_bad_input(self, capsys, tmp_path, row, bad):
        cfg = write_config(tmp_path, horizon=3)
        hedge = tmp_path / "hedge.csv"
        argv = ["--config", cfg, "--payoff", "call(10)", "--maturity", "3"]
        assert run(capsys, "replicate", *argv, "--out", str(hedge))[0] == EXIT_OK
        lines = hedge.read_text().splitlines(keepends=True)
        [i] = [i for i, line in enumerate(lines) if line.startswith(row)]
        lines[i] = row + bad + "\n"
        hedge.write_text("".join(lines))
        code, out, err = run(capsys, "verify", *argv, "--portfolio", str(hedge))
        assert code == EXIT_BAD_INPUT
        assert "nan" not in out.lower()
        assert "not finite" in err


class TestFloatRangeAndTolerance:
    OVERFLOW = {"u": 1.2, "d": 0.4, "v": 10, "r": -0.5, "p": 0.5, "horizon": 4}

    @pytest.mark.parametrize("argv, node", [
        (["price", "--maturity", "4"], "price leaves the float range at node (t=0, -)"),
        (["price", "--maturity", "4", "--tree", "TREE"], "price leaves the float range at node (t=0, -)"),
        (["replicate", "--maturity", "2", "--out", "HEDGE"],
         "option value leaves the float range at node (t=1, U)"),
    ], ids=["price", "price-tree", "replicate"])
    def test_overflowing_price_or_hedge_is_bad_input(self, capsys, tmp_path, argv, node):
        cfg = write_config(tmp_path, **self.OVERFLOW)
        files = {"TREE": tmp_path / "tree.csv", "HEDGE": tmp_path / "hedge.csv"}
        argv = [str(files.get(a, a)) for a in argv]
        code, out, err = run(capsys, *argv, "--config", cfg, "--payoff", "1e308")
        assert (code, out) == (EXIT_BAD_INPUT, "")
        assert err == f"error: {node}: inf\n"
        assert not any(f.exists() for f in files.values())

    @pytest.mark.parametrize("rows, node", [
        ("0,-,S,1.5e307\n0,-,rf,1.7e308\n", "(t=1, D): intermediate overflow in fsum"),
        ("0,-,S,1e308\n0,-,rf,-1.79e308\n", "(t=1, U): -inf + inf in fsum"),
    ], ids=["overflow", "inf - inf"])
    def test_hedge_whose_worth_leaves_the_float_range_is_bad_input(self, capsys, tmp_path, rows, node):
        # the products with the prices stay finite, or overflow to opposite infinities
        cfg = write_config(tmp_path, horizon=1)
        hedge = tmp_path / "hedge.csv"
        hedge.write_text("time,prefix,asset,quantity\n" + rows)
        argv = ["--config", cfg, "--payoff", "call(10)", "--maturity", "1", "--portfolio", str(hedge)]
        assert run(capsys, "verify", *argv) == (
            EXIT_BAD_INPUT, "", f"error: portfolio worth leaves the float range at node {node}\n"
        )

    def test_risk_free_prices_outside_float_range_are_bad_input(self, capsys, tmp_path):
        cfg = write_config(tmp_path, u=2.0, d=1.0, v=1.0, r=1e77, horizon=5)
        code, out, err = run(capsys, "check", "--config", cfg)
        assert (code, out) == (EXIT_BAD_INPUT, "")
        assert "risk-free prices leave the float range" in err

    def test_large_spot_hedge_passes_at_the_default_tolerance(self, capsys, tmp_path):
        cfg = write_config(tmp_path, **LARGE_SPOT)
        hedge = tmp_path / "hedge.csv"
        argv = ["--config", cfg, "--payoff", "call(1e9)", "--maturity", "6"]
        code, out, _ = run(capsys, "replicate", *argv, "--out", str(hedge))
        assert (code, out) == (EXIT_OK, "replicating: yes; init value = 1.81147e+08; max terminal error = 1.19209e-07\n")
        code, out, _ = run(capsys, "verify", *argv, "--portfolio", str(hedge))
        assert code == EXIT_OK
        assert "self-financing: pass\nterminal-match: pass (max error = 1.19209e-07)\n" in out


class TestGoldenBytes:
    """CSV bytes pinned from the path-keyed engine: market REFERENCE at horizon 5."""

    @pytest.mark.parametrize("payoff, tag", [
        ("lookback", "lookback"),
        ("avg(S) - 10", "avg"),
        ("call(10)", "call"),
        ("max(S[2], S_T) / 3 - min(S)", "mixed"),
    ])
    def test_tree_and_hedge_csv(self, capsys, tmp_path, payoff, tag):
        cfg = write_config(tmp_path, horizon=5)
        argv = ["--config", cfg, "--payoff", payoff, "--maturity", "5"]
        tree, hedge = tmp_path / "tree.csv", tmp_path / "hedge.csv"
        assert run(capsys, "price", *argv, "--tree", str(tree))[0] == EXIT_OK
        assert run(capsys, "replicate", *argv, "--out", str(hedge))[0] == EXIT_OK
        assert tree.read_bytes() == (DATA / f"tree_{tag}_T5.csv").read_bytes()
        assert hedge.read_bytes() == (DATA / f"hedge_{tag}_T5.csv").read_bytes()


GOLDEN_PAYOFFS = {
    "lookback": "lookback",
    "avg": "avg(S) - 10",
    "call": "call(10)",
    "mixed": "max(S[2], S_T) / 3 - min(S)",
}


def golden_stdout_commands(tmp_path: Path) -> dict[str, list[str]]:
    """The commands whose stdout and exit code ``tests/data/stdout_T5.json``
    pins: market REFERENCE at horizon 5, the hedges read from the pinned CSVs."""
    cfg = write_config(tmp_path, horizon=5)
    commands = {}
    for tag, payoff in GOLDEN_PAYOFFS.items():
        argv = ["--config", cfg, "--payoff", payoff, "--maturity", "5"]
        commands[f"replicate-{tag}"] = ["replicate", *argv, "--out", str(tmp_path / f"{tag}.csv")]
        commands[f"verify-{tag}"] = ["verify", *argv, "--portfolio", str(DATA / f"hedge_{tag}_T5.csv")]
    # one risky holding moved by 0.01: in the last period both clauses fail,
    # earlier only the self-financing one
    for tag, key in (("perturbed", "4,DUDU,S,"), ("perturbed-early", "2,DU,S,")):
        rows = (DATA / "hedge_lookback_T5.csv").read_text().splitlines(keepends=True)
        [i] = [i for i, row in enumerate(rows) if row.startswith(key)]
        rows[i] = f"{key}{float(rows[i].split(',')[3]) + 0.01!r}\n"
        perturbed = tmp_path / f"{tag}.csv"
        perturbed.write_text("".join(rows))
        commands[f"verify-{tag}"] = [
            "verify", "--config", cfg, "--payoff", "lookback", "--maturity", "5",
            "--portfolio", str(perturbed),
        ]
    for tag, rate in (("rich-bank", 0.25), ("rich-stock", -0.3)):
        path = tmp_path / f"{tag}.json"
        path.write_text(json.dumps(dict(REFERENCE, r=rate, horizon=5)))
        commands[f"check-{tag}"] = ["check", "--config", str(path)]
    return commands


class TestGoldenStdout:
    """Stdout and exit codes pinned from the node-by-node portfolio engine."""

    GOLDEN = json.loads((DATA / "stdout_T5.json").read_text())

    @pytest.mark.parametrize("case", sorted(GOLDEN))
    def test_stdout_and_exit_code(self, capsys, tmp_path, case):
        code, out, err = run(capsys, *golden_stdout_commands(tmp_path)[case])
        assert (code, out, err) == (self.GOLDEN[case]["exit"], self.GOLDEN[case]["stdout"], "")


class TestConfigJson:
    def test_round_trip(self):
        cfg = CrrMarket.from_json(json.dumps(REFERENCE))
        again = CrrMarket.from_json(cfg.to_json())
        assert again.to_dict() == cfg.to_dict() == REFERENCE

    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            CrrMarket.from_json(json.dumps(dict(REFERENCE, horizon=0)))
        with pytest.raises(ValueError):
            CrrMarket.from_json(json.dumps(dict(REFERENCE, horizon=99)))

    @pytest.mark.parametrize("argv", [("check",), ("price", "--payoff", "S_T", "--maturity", "1")])
    @pytest.mark.parametrize("key", ["u", "d", "v", "r", "p"])
    def test_integer_outside_the_float_range_is_bad_input(self, capsys, tmp_path, argv, key):
        # float() of a 401-digit integer raises OverflowError, not ValueError
        cfg = write_config(tmp_path, **{key: 10**400})
        code, out, err = run(capsys, argv[0], "--config", cfg, *argv[1:])
        assert (code, out, err) == (EXIT_BAD_INPUT, "", f"error: config key {key!r} is outside the float range\n")


class TestPathTableParsing:
    def test_reads_values(self):
        assert read_path_table("prefix,value\nU,1.5\nD,0\n", 1) == [1.5, 0.0]

    def test_duplicate_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            read_path_table("prefix,value\nU,1\nU,2\nD,0\n", 1)

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError, match="length"):
            read_path_table("prefix,value\nUU,1\nD,0\n", 1)

    def test_incomplete_table_is_reported_before_a_late_maturity(self, capsys, config, tmp_path):
        # the reader checks completeness; the maturity meets the market horizon later
        table = tmp_path / "table.csv"
        table.write_text("prefix,value\nUUUUU,1\n")
        result = run(capsys, "price", "--config", config, "--path-table", str(table), "--maturity", "5")
        assert result == (EXIT_BAD_INPUT, "", "error: path table misses 31 of 32 maturity paths, e.g. UUUUD\n")

    @pytest.mark.parametrize("r", [0.03, 0.25])  # viable, and not: the table is read first
    @pytest.mark.parametrize("maturity, message", [
        ("-1", "error: maturity must be a nonnegative integer, got -1\n"),
        ("25", "error: maturity 25 exceeds the exhaustive-enumeration cap 24 (2**25 paths); reduce the maturity\n"),
    ])
    def test_maturity_out_of_range_is_worded_as_a_maturity(self, capsys, tmp_path, r, maturity, message):
        table = tmp_path / "table.csv"
        table.write_text("prefix,value\n")
        cfg = write_config(tmp_path, r=r)
        result = run(capsys, "price", "--config", cfg, "--path-table", str(table), "--maturity", maturity)
        assert result == (EXIT_BAD_INPUT, "", message)


PAYOFF_SOURCES = {"payoff": ["--payoff", "lookback"], "path-table": ["--path-table", "{table}"]}
COMMANDS = {  # the payoff arguments go after the command name
    "price": ["price", "--maturity", "4"],
    "price --tree": ["price", "--maturity", "4", "--tree", "{tree}"],
    "replicate": ["replicate", "--maturity", "4"],
    "verify": ["verify", "--maturity", "4", "--portfolio", "{hedge}"],
}


class TestNoTossPath:
    """No command builds a ``TossPath``: CSV labels, levels and payoffs are
    all addressed by prefix length and index."""

    @staticmethod
    def count_toss_paths(monkeypatch, capsys, argv):
        built = []
        init = TossPath.__init__

        def counting(self, *args, **kwargs):
            built.append(None)
            init(self, *args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(TossPath, "__init__", counting)
            TossPath.from_label("U")  # the counter sees construction
            code, _, err = run(capsys, *argv)
        assert (code, err) == (EXIT_OK, "")
        return len(built) - 1

    def test_check(self, monkeypatch, capsys, config):
        assert self.count_toss_paths(monkeypatch, capsys, ["check", "--config", config]) == 0

    @pytest.mark.parametrize("source", PAYOFF_SOURCES)
    @pytest.mark.parametrize("command", COMMANDS)
    def test_command(self, monkeypatch, capsys, config, tmp_path, command, source):
        table = tmp_path / "table.csv"
        labels = list(prefix_labels(4))[-1]
        table.write_text("prefix,value\n" + "".join(f"{w},{w.count('U') ** 2 / 3}\n" for w in labels))
        names = {"table": str(table), "tree": str(tmp_path / "tree.csv"), "hedge": str(tmp_path / "hedge.csv")}

        def argv(template):
            name, *rest = template + ["--config", config]
            return [arg.format(**names) for arg in [name, *PAYOFF_SOURCES[source], *rest]]

        assert run(capsys, *argv(COMMANDS["replicate"]), "--out", names["hedge"])[0] == EXIT_OK
        assert self.count_toss_paths(monkeypatch, capsys, argv(COMMANDS[command])) == 0


NON_FINITE = re.compile(r"\b(?:nan|inf)", re.IGNORECASE)  # not the "nan" of "self-financing"
EXIT_CODES = {EXIT_OK, EXIT_INVIABLE, EXIT_BAD_INPUT, EXIT_NOT_REPLICATING, EXIT_CHECK_INVIABLE}

finite = st.floats(allow_nan=False, allow_infinity=False)
numbers = st.one_of(
    st.floats(0.0, 1e308), st.sampled_from([0.0, 1.0, 10.0, 1e9, 1e154, 1e308, 5e-324])
)


@st.composite
def market_configs(draw):
    """Viable markets over a wide range of scales, next to arbitrary finite ones."""
    horizon = draw(st.integers(1, 5))
    if draw(st.booleans()):
        d = draw(st.floats(1e-3, 2.0))
        gross = d * draw(st.floats(1.0, 3.0))
        u = gross * draw(st.floats(1.0, 3.0))
        v = draw(st.sampled_from([1e-300, 1e-9, 1.0, 10.0, 1e9, 1e300])) * draw(st.floats(0.5, 2.0))
        data = {"u": u, "d": d, "v": v, "r": gross - 1.0, "p": draw(st.floats(0.01, 0.99))}
    else:
        data = {key: draw(finite) for key in ("u", "d", "v", "r", "p")}
    return dict(data, horizon=horizon)


def payoff_grammar(horizon):
    leaves = st.one_of(
        numbers.map(repr),
        st.sampled_from(["S_T", "max(S)", "min(S)", "avg(S)", "lookback"]),
        st.integers(0, horizon).map(lambda k: f"S[{k}]"),
        st.tuples(st.sampled_from(["call", "put", "forward"]), numbers).map(
            lambda t: f"{t[0]}({t[1]!r})"
        ),
    )
    return st.recursive(leaves, lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from("+-*/"), inner).map(lambda t: f"({t[0]} {t[1]} {t[2]})"),
        st.tuples(st.sampled_from(["max", "min"]), inner, inner).map(
            lambda t: f"{t[0]}({t[1]}, {t[2]})"
        ),
        inner.map(lambda e: f"pos({e})"),
        inner.map(lambda e: f"-{e}"),
    ), max_leaves=6)


@st.composite
def cli_cases(draw):
    config = draw(market_configs())
    maturity = draw(st.integers(1, config["horizon"]))
    return config, draw(payoff_grammar(config["horizon"])), maturity


def run_quietly(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue()


class TestFuzzMain:
    @settings(max_examples=200, deadline=None)
    @given(cli_cases())
    def test_every_input_gets_a_documented_answer(self, case):
        config, payoff, maturity = case
        with tempfile.TemporaryDirectory() as tmp:
            work = Path(tmp)
            cfg = work / "market.json"
            cfg.write_text(json.dumps(config))
            argv = ["--config", str(cfg), "--payoff", payoff, "--maturity", str(maturity)]
            tree, hedge = work / "tree.csv", work / "hedge.csv"
            runs = [
                run_quietly("price", *argv, "--tree", str(tree)),
                run_quietly("replicate", *argv, "--out", str(hedge)),
                run_quietly("check", "--config", str(cfg)),
            ]
            if hedge.exists():
                replicated = runs[1]
                verified = run_quietly("verify", *argv, "--portfolio", str(hedge))
                assert verified[0] == replicated[0]
                assert verified[1].splitlines()[-1] == replicated[1].split(";")[0]
                runs.append(verified)
            for code, out in runs:
                assert code in EXIT_CODES
                assert not NON_FINITE.search(out)
            for written in (tree, hedge):
                assert not written.exists() or not NON_FINITE.search(written.read_text())


class TestInternalConsistencyFailure:
    """A failed self-check inside ``price_lattice`` is reported, not raised."""

    @pytest.fixture
    def inconsistent(self, monkeypatch):
        def price_lattice(crr, payoff, maturity):
            raise RuntimeError("internal consistency failure: backward induction gives 1.0 "
                               "but direct expectation gives 2.0")

        # cli calls it for --tree, replicating_portfolio through pricing
        monkeypatch.setattr(cli, "price_lattice", price_lattice)
        monkeypatch.setattr(pricing, "price_lattice", price_lattice)

    @pytest.mark.parametrize("command, extra", [("price", "--tree"), ("replicate", "--out")])
    def test_exit_three_with_an_error_line(self, capsys, config, tmp_path, inconsistent, command, extra):
        written = tmp_path / "out.csv"
        code, out, err = run(
            capsys, command, "--config", config, "--payoff", "lookback", "--maturity", "2",
            extra, str(written),
        )
        assert code == EXIT_BAD_INPUT
        assert out == ""
        assert err == (
            "error: internal consistency failure: backward induction gives 1.0 "
            "but direct expectation gives 2.0\n"
        )
        assert not written.exists()

    @pytest.mark.parametrize("command, extra", [("price", "--tree"), ("replicate", "--out")])
    def test_engine_check_reports_the_gap(self, capsys, monkeypatch, config, tmp_path, command, extra):
        # only the expectation inside price_lattice is shifted; the induction runs as is
        monkeypatch.setattr(pricing, "fair_price", lambda crr, payoff, maturity: 1e6)
        written = tmp_path / "out.csv"
        code, out, err = run(
            capsys, command, "--config", config, "--payoff", "lookback", "--maturity", "2",
            extra, str(written),
        )
        assert (code, out) == (EXIT_BAD_INPUT, "")
        assert re.fullmatch(
            r"error: internal consistency failure: backward induction gives 1\.2578\d+ "
            r"but direct expectation gives 1000000\.0\n", err
        )
        assert not written.exists()


class TestUnwritableOutput:
    """An output file that cannot be opened or written is bad input, not a traceback."""

    @pytest.mark.parametrize("where", [
        "missing-directory",
        "directory",
        # opens, then fails to write
        pytest.param("full-device", marks=pytest.mark.skipif(
            not os.path.exists("/dev/full"), reason="needs /dev/full")),
    ])
    @pytest.mark.parametrize("command, flag, what", [
        ("price", "--tree", "tree"), ("replicate", "--out", "portfolio"),
    ])
    def test_exit_three_with_an_error_line(self, capsys, config, tmp_path, command, flag, what, where):
        target = {
            "missing-directory": tmp_path / "no" / "such" / "x.csv",
            "directory": tmp_path,
            "full-device": Path("/dev/full"),
        }[where]
        code, out, err = run(
            capsys, command, "--config", config, "--payoff", "call(10)", "--maturity", "2",
            flag, str(target),
        )
        assert (code, out) == (EXIT_BAD_INPUT, "")
        assert err.startswith(f"error: cannot write {what} {str(target)!r}: ")
        assert err.count("\n") == 1

    def test_python_m_crrpricing_exits_three(self, config, tmp_path):
        src = str(Path(cli.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "crrpricing", "replicate", "--config", config,
             "--payoff", "call(10)", "--maturity", "2", "--out", str(tmp_path)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert (proc.returncode, proc.stdout) == (EXIT_BAD_INPUT, "")
        assert proc.stderr.startswith(f"error: cannot write portfolio {str(tmp_path)!r}: ")


class TestStandardLibraryOnly:
    def test_imports_and_checks_without_site_packages(self, config):
        # -S leaves site-packages off sys.path: an import of any third-party
        # package (numpy, say) anywhere in the package fails here
        src = str(Path(cli.__file__).parents[1])
        script = "import sys, crrpricing, crrpricing.cli; sys.exit(crrpricing.cli.main(sys.argv[1:]))"
        proc = subprocess.run(
            [sys.executable, "-S", "-c", script, "check", "--config", config],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=120,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (EXIT_OK, "viable; q = 0.575\n", "")


COLD_START_SCRIPT = """
import contextlib, io, sys
import crrpricing
from crrpricing import cli
out = io.StringIO()
with contextlib.redirect_stdout(out):
    assert cli.main(["check", "--config", sys.argv[1]]) == 0
    assert cli.main(["price", "--config", sys.argv[1], "--payoff", "lookback", "--maturity", "2"]) == 0
assert out.getvalue() == "viable; q = 0.575\\nfair price: 1.25789\\n", out.getvalue()
assert "dataclasses" not in sys.modules, "import, check or price loaded dataclasses"

import dataclasses
crr = crrpricing.CrrMarket.from_json(open(sys.argv[1]).read())
payoff = crrpricing.parse_payoff("lookback")
report = crrpricing.verify_replication(crr, crrpricing.replicating_portfolio(crr, payoff, 2), payoff, 2)
moved = dataclasses.replace(report, init_value=report.init_value + 1.0)
assert (moved.init_value, moved.tolerance) == (report.init_value + 1.0, report.tolerance)
assert report.is_replicating() and isinstance(report, crrpricing.ReplicationReport)
assert crrpricing.ReplicationReport is crrpricing.pricing.ReplicationReport
names = {}
exec("from crrpricing import *", names)
assert names["ReplicationReport"] is crrpricing.ReplicationReport
assert sorted(crrpricing.__all__) == sorted(set(names) - {"__builtins__"})
"""


class TestColdStart:
    def test_check_and_price_never_load_dataclasses(self, config):
        # a fresh interpreter without site: nothing but the package can load it
        src = str(Path(cli.__file__).parents[1])
        proc = subprocess.run(
            [sys.executable, "-S", "-c", COLD_START_SCRIPT, config],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=120,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (EXIT_OK, "", "")


class BrokenPipeStdout(io.StringIO):
    """A stdout whose reader has gone: writing, or only flushing, fails."""

    def __init__(self, failing: str):
        super().__init__()
        self.failing = failing

    def write(self, text):
        if self.failing == "write":
            raise BrokenPipeError(32, "Broken pipe")
        return super().write(text)

    def flush(self):
        if self.failing == "flush":
            raise BrokenPipeError(32, "Broken pipe")


class TestClosedStdout:
    """A reader that closes stdout early gets exit 3 and one error line."""

    @pytest.mark.parametrize("failing", ["write", "flush"])
    @pytest.mark.parametrize("command", [
        ["check"],
        ["price", "--payoff", "lookback", "--maturity", "3"],
        ["replicate", "--payoff", "lookback", "--maturity", "3"],
    ], ids=lambda argv: argv[0])
    def test_exit_three_with_an_error_line(self, capsys, monkeypatch, config, command, failing):
        monkeypatch.setattr(sys, "stdout", BrokenPipeStdout(failing))
        code = main([*command, "--config", config])
        assert (code, capsys.readouterr().err) == (
            EXIT_BAD_INPUT, "error: cannot write stdout: [Errno 32] Broken pipe\n"
        )

    @pytest.mark.parametrize("command, lines_read", [
        # the horizon-12 hedge CSV is far larger than a pipe buffer
        (["replicate", "--payoff", "lookback", "--maturity", "12"], 1),
        # closed before anything is written: the output waits in the buffer
        (["check"], 0),
    ], ids=["replicate", "check"])
    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    def test_python_m_crrpricing_reader_closes_the_pipe(self, tmp_path, command, lines_read, unbuffered):
        src = str(Path(cli.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        proc = subprocess.Popen(
            [sys.executable, "-m", "crrpricing", *command, "--config", write_config(tmp_path, horizon=12)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        )
        for _ in range(lines_read):
            assert proc.stdout.readline() == "time,prefix,asset,quantity\n"
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == EXIT_BAD_INPUT
        assert err == "error: cannot write stdout: [Errno 32] Broken pipe\n"
        assert "Traceback" not in err and "Exception ignored" not in err


LIMIT = MAX_PAYOFF_DEPTH
DEEPEST = {
    "parentheses": "(" * (LIMIT - 1) + "S_T" + ")" * (LIMIT - 1),
    "pos": "pos(" * (LIMIT - 2) + "S_T - 9" + ")" * (LIMIT - 2),
    "minus": "-" * (LIMIT - 1) + "S_T",
    "max": "max(" * (LIMIT - 1) + "S_T" + ", 9)" * (LIMIT - 1),
    "sum": " + ".join(["S_T"] * LIMIT),
    "quotient": "1000" + " / S_T" * (LIMIT - 1),
}


class TestPayoffDepth:
    @pytest.mark.parametrize("text", [
        "(" * 331 + "1" + ")" * 331,
        "pos(" * 248 + "1" + ")" * 248,
        "1" + "+S_T" * 999,
        "(" * LIMIT + "S_T" + ")" * LIMIT,
        " + ".join(["S_T"] * (LIMIT + 1)),
    ])
    @pytest.mark.parametrize("command", ["price", "replicate"])
    def test_too_deep_is_bad_input(self, capsys, config, text, command):
        code, out, err = run(capsys, command, "--config", config, f"--payoff={text}", "--maturity", "2")
        assert code == EXIT_BAD_INPUT
        assert out == ""
        assert re.fullmatch(rf"error: payoff nests deeper than {LIMIT} levels at offset \d+\n", err)

    @pytest.mark.parametrize("form", sorted(DEEPEST))
    def test_deepest_accepted_payoff_runs_every_command(self, capsys, config, tmp_path, form):
        argv = ["--config", config, f"--payoff={DEEPEST[form]}", "--maturity", "3"]
        hedge, tree = tmp_path / "hedge.csv", tmp_path / "tree.csv"
        assert run(capsys, "price", *argv, "--tree", str(tree))[0] == EXIT_OK
        assert run(capsys, "replicate", *argv, "--out", str(hedge))[0] == EXIT_OK
        code, out, _ = run(capsys, "verify", *argv, "--portfolio", str(hedge))
        assert (code, out.splitlines()[-1]) == (EXIT_OK, "replicating: yes")

    def test_error_message_prints_a_deep_payoff(self, capsys, config):
        text = "pos(" * (LIMIT - 4) + "1 / (S[1] - S[1])" + ")" * (LIMIT - 4)
        code, out, err = run(capsys, "price", "--config", config, f"--payoff={text}", "--maturity", "2")
        assert (code, out) == (EXIT_BAD_INPUT, "")
        assert err.startswith("error: division by zero in '1 / (S[1] - S[1])' (at path UU)")


VERIFY_MATURITY = 3


def engine_rows() -> list[str]:
    """The data lines of the engine's own lookback hedge at maturity 3."""
    crr = CrrMarket.from_dict(REFERENCE)
    hedge = pricing.replicating_portfolio(crr, cli.parse_payoff("lookback"), VERIFY_MATURITY)
    return cli.write_portfolio_csv(hedge).splitlines()[1:]


ENGINE_ROWS = engine_rows()


def deeper(prefix: str) -> list[str]:
    return [prefix.strip("-") + toss for toss in "UD"]


# What a hand-made table can do to one engine row.
DEFECTS = {
    "drop": lambda t, w, a, q: [],
    "repeat": lambda t, w, a, q: [(t, w, a, q)] * 2,
    "refine": lambda t, w, a, q: [(t, v, a, q) for v in deeper(w)],
    "split": lambda t, w, a, q: [(t, v, a, x) for v, x in zip(deeper(w), (q, "0.5"))],
    "conflict": lambda t, w, a, q: [(t, w, a, q), (t, w, a, "2.5")],
    "unknown asset": lambda t, w, a, q: [(t, w, "X", q)],
    "non-stock asset": lambda t, w, a, q: [(t, w, a, q), (t, w, "derivative", "1")],
    "late": lambda t, w, a, q: [(str(VERIFY_MATURITY), w, a, q)],
    "negative time": lambda t, w, a, q: [("-1", w, a, q)],
    "too long": lambda t, w, a, q: [(t, "U" * (VERIFY_MATURITY + 1), a, q)],
    "too short": lambda t, w, a, q: [(t, "-", a, q)],
    "not a number": lambda t, w, a, q: [(t, w, a, "x")],
    "not finite": lambda t, w, a, q: [(t, w, a, "nan")],
    "bad label": lambda t, w, a, q: [(t, "UX", a, q)],
    "short line": lambda t, w, a, q: [(t, w, a)],
}


@st.composite
def hand_made_tables(draw):
    """Portfolio CSV lines: the engine's rows, shuffled, with up to three
    rows missing, repeated, keyed by deeper or too-long prefixes, given
    conflicting quantities or unknown assets, or otherwise malformed."""
    rows = [tuple(row.split(",")) for row in ENGINE_ROWS]
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(rows) - 1))
        defect = DEFECTS[draw(st.sampled_from(sorted(DEFECTS)))]
        rows[i:i + 1] = defect(*rows[i]) if len(rows[i]) == 4 else []
    return draw(st.permutations([",".join(row) for row in rows]))


def verify_table(tmp: str, lines: list[str]) -> tuple[int, str]:
    work = Path(tmp)
    cfg, table = work / "market.json", work / "hedge.csv"
    cfg.write_text(json.dumps(REFERENCE))
    table.write_text("time,prefix,asset,quantity\n" + "".join(line + "\n" for line in lines))
    return run_quietly(
        "verify", "--config", str(cfg), "--payoff", "lookback",
        "--maturity", str(VERIFY_MATURITY), "--portfolio", str(table),
    )


class TestFuzzVerifyTables:
    @settings(max_examples=200, deadline=None)
    @given(hand_made_tables())
    def test_every_table_gets_a_documented_answer(self, lines):
        with tempfile.TemporaryDirectory() as tmp:
            code, out = verify_table(tmp, lines)
        assert code in {EXIT_OK, EXIT_BAD_INPUT, EXIT_NOT_REPLICATING}
        assert not NON_FINITE.search(out)

    @settings(max_examples=50, deadline=None)
    @given(st.randoms(use_true_random=False), st.lists(st.sampled_from(ENGINE_ROWS), max_size=8))
    def test_shuffled_or_duplicated_engine_rows_keep_the_verdict(self, rng: random.Random, repeats):
        with tempfile.TemporaryDirectory() as tmp:
            original = verify_table(tmp, ENGINE_ROWS)
            lines = ENGINE_ROWS + repeats
            rng.shuffle(lines)
            assert verify_table(tmp, lines) == original
        assert original[0] == EXIT_OK
