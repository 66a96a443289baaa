"""Command-line contract: output formats, exit codes, determinism."""
import csv
import io
import json
import math
from pathlib import Path

import pytest

from crrpricing.cli import (
    EXIT_BAD_INPUT,
    EXIT_CHECK_INVIABLE,
    EXIT_INVIABLE,
    EXIT_NOT_REPLICATING,
    EXIT_OK,
    main,
    read_path_table,
)
from crrpricing.crr import CrrMarket

REFERENCE = {"u": 1.2, "d": 0.8, "v": 10.0, "r": 0.03, "p": 0.5, "horizon": 4}
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

    def test_non_stock_support_fails_clause(self, capsys, config, tmp_path):
        alien = tmp_path / "alien.csv"
        alien.write_text("time,prefix,asset,quantity\n0,-,derivative,1.0\n")
        code, out, _ = run(
            capsys, "verify", "--config", config, "--payoff", "lookback",
            "--maturity", "2", "--portfolio", str(alien),
        )
        assert code == EXIT_NOT_REPLICATING
        assert "stock-portfolio: fail" in out


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
        [dict(u=1e200, v=1e200, horizon=3), dict(u=1.5, d=1e-200, v=1e-200, horizon=3)],
        ids=["overflow", "underflow"],
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


class TestPathTableParsing:
    def test_reads_values(self):
        table = read_path_table("prefix,value\nU,1.5\nD,0\n", 1)
        from crrpricing.lattice import TossPath

        assert table[TossPath.from_label("U")] == 1.5
        assert table[TossPath.from_label("D")] == 0.0

    def test_duplicate_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            read_path_table("prefix,value\nU,1\nU,2\nD,0\n", 1)

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError, match="length"):
            read_path_table("prefix,value\nUU,1\nD,0\n", 1)
