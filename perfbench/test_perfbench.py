"""Self-tests of the benchmark: smoke runs of every workload, and proof
that its output checks can fail.

Run from the repository root: ``python3 -m pytest perfbench``.
"""
import dataclasses
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path[:0] = [str(HERE), str(SRC)]

import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, CliRoundtrip, HedgeAsian, PriceSheet, draw_market  # noqa: E402


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        capture_output=True, text=True, timeout=170, cwd=cwd,
    )


def test_spec_matches_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_smoke(name, trace):
    done = bench("--workload", name, "--seed", "5", "--seconds", "0.3",
                 "--trace", str(trace), "--smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, done.stderr
    assert result["attempted"] >= run.MIN_OPS
    units = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
        return
    cls = WORKLOADS[name]
    paths = 2**cls.smoke_horizon
    if cls is not CliRoundtrip:
        # Each payoff is evaluated on every maturity path three times.
        payoffs = len(cls.payoff_texts(draw_market(5)))
        assert result["metrics"]["payoff.eval_calls"]["value"] == 3 * paths * payoffs


def test_oracle_matches_documented_lookback():
    m = oracle.MarketDraw(u=1.2, d=0.8, v=10.0, r=0.03, p=0.5, strike=10.0)
    assert oracle.path_price(m, 2, oracle.lookback) == pytest.approx(1.2578942, abs=1e-7)
    # A call is a path payoff of S_T alone: both oracles must agree.
    call = lambda prices: max(prices[-1] - 9.5, 0.0)
    assert oracle.call_price(m, 6, 9.5) == pytest.approx(oracle.path_price(m, 6, call), rel=1e-12)


def _scale_price(pricing, monkeypatch):
    original = pricing.fair_price
    monkeypatch.setattr(pricing, "fair_price", lambda *a: original(*a) * (1 + 1e-6))


def _scale_init_value(pricing, monkeypatch):
    original = pricing.verify_replication

    def perturbed(*a):
        report = original(*a)
        return dataclasses.replace(report, init_value=report.init_value * (1 + 1e-6))

    monkeypatch.setattr(pricing, "verify_replication", perturbed)


@pytest.mark.parametrize(
    "cls, perturb", [(PriceSheet, _scale_price), (HedgeAsian, _scale_init_value)]
)
def test_perturbed_output_counts_as_failed(cls, perturb, monkeypatch, tmp_path):
    from crrpricing import pricing

    workload = cls(draw_market(7), 4, tmp_path, SRC)
    tally = run.Tally()
    tally.checked(workload, workload.run)
    assert (tally.attempted, tally.failed) == (1, 0)
    perturb(pricing, monkeypatch)
    tally.checked(workload, workload.run)
    assert (tally.attempted, tally.failed) == (2, 1)


@pytest.mark.parametrize("runner", ["run_command", "run_in_process"])
def test_nonzero_exit_counts_as_failed(runner, monkeypatch, tmp_path):
    workload = CliRoundtrip(draw_market(7), 3, tmp_path, SRC)
    in_process = runner == "run_in_process"
    tally = run.Tally()
    tally.checked(workload, lambda: workload.run(in_process))
    assert (tally.attempted, tally.failed) == (1, 0)
    real = getattr(workload, runner)

    def verify_exits_4(argv):
        rc, out = real(argv)
        return (4 if argv[0] == "verify" else rc), out

    monkeypatch.setattr(workload, runner, verify_exits_4)
    tally.checked(workload, lambda: workload.run(in_process))
    assert (tally.attempted, tally.failed) == (2, 1)


def test_latency_is_in_reference_ops(tmp_path):
    workload = HedgeAsian(draw_market(7), 3, tmp_path, SRC)
    reference = run.reference_op(workload)
    workload.run = lambda: (reference(), reference())
    workload.check = lambda output: {}
    metrics = run.measure(workload, 0.5, run.Tally())
    # An op of two reference ops takes 2 ref, whatever the machine's speed.
    assert 1.6 < metrics["latency_p50_ref"] < 2.5


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("--workload", "price-sheet", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""


def test_spans_record_parents_and_self_time(tmp_path):
    tracer = spans.Tracer()
    inner = tracer.wrap("inner", lambda: time.sleep(0.02))
    outer = tracer.wrap("outer", lambda: (time.sleep(0.002), inner()))
    tracer.run_op(4, outer)
    record = tracer.per_op[-1]
    assert record["inner_calls"] == record["outer_calls"] == 1
    assert record["inner_s"] >= 0.02 > record["outer_s"] >= 0.002
    assert record["op_duration_s"] >= record["inner_s"] + record["outer_s"]
    tracer.write(tmp_path / "trace")
    back = spans.read_trace(tmp_path / "trace")
    assert [back["names"][i] for i in back["name_id"]] == ["op", "outer", "inner"]
    assert list(back["parent"]) == [spans.NO_PARENT, 0, 1]
    assert list(back["op"]) == [4, 4, 4]
    assert all(s <= e for s, e in zip(back["start"], back["end"]))


def test_install_restores_every_binding():
    from crrpricing import cli, lattice, pricing

    before = (pricing.eval_payoff, cli.read_portfolio_csv, lattice.TossPath.__init__)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert pricing.eval_payoff is not before[0]
        tracer.run_op(0, lambda: lattice.TossPath((True, False)))
    finally:
        tracer.uninstall()
    assert (pricing.eval_payoff, cli.read_portfolio_csv, lattice.TossPath.__init__) == before
    assert tracer.per_op[-1][spans.TOSSPATH_COUNTER] == 1
