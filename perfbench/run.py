"""Benchmark of crrpricing: one closed-loop caller, one workload per run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload price-sheet --seed 1 --seconds 36 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the same
op alternately with and without span tracing and reports the per-layer
metrics. ``--smoke`` shrinks the horizon to at most 4 for the self-tests.
Human-readable notes go to stderr; the last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
See README.md beside this file for what each workload and metric means.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import oracle
from spans import Tracer
from workloads import WORKLOADS, draw_market

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

# Op latencies are reported in "ref": multiples of the reference op timed
# right before and right after each op (see reference_op and README.md).
END_TO_END = {
    "latency_p50_ref": "ref",
    "latency_tail_ref": "ref",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
# Per-layer metric -> unit. Times are per-op self times in seconds (median
# over traced ops) unless noted in README.md; counts are per op.
PER_LAYER = {
    "lattice.tosspaths_built": "count",
    "lattice.tosspath_s": "s",
    "crr.price_path_s": "s",
    "crr.price_path_calls": "count",
    "crr.market_build_s": "s",
    "payoff.eval_s": "s",
    "payoff.eval_calls": "count",
    "payoff.parse_s": "s",
    "pricing.terminal_payoffs_s": "s",
    "pricing.fair_price_s": "s",
    "pricing.price_lattice_s": "s",
    "pricing.tree_csv_s": "s",
    "pricing.replicating_portfolio_s": "s",
    "pricing.verify_replication_s": "s",
    "market.closing_value_s": "s",
    "market.closing_value_calls": "count",
    "market.is_self_financing_s": "s",
    "market.support_set_s": "s",
    "market.write_csv_s": "s",
    "market.csv_bytes": "bytes",
    "market.read_csv_s": "s",
    "cli.import_s": "s",
    "cli.command_s": "s",
    "trace.overhead_p50_s": "s",
}
SETUP_PHASES = ("cli.import_s", "crr.market_build_s", "payoff.parse_s", "cli.command_s")
SETUP_PROBES = 7   # fresh processes per run; setup_s is their median
TOSSPATH_REPS = 7  # standalone enumerate_paths(T) timings per traced run
MIN_OPS = 3        # measured ops per run, however short --seconds is
# latency_tail_ref is this percentile: it has at least ten samples beyond it
# on every workload at the benchmark's run length, which gives 36 or more
# ops per run; p70 needs 34 (README.md).
TAIL_PCT = 70
# The reference op enumerates 2**REF_HORIZON paths with the benchmark's own
# stdlib oracle, about 9 ms: a yardstick of the machine's current speed that
# no change to src/ can move.
REF_HORIZON = 12


def log(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def percentile(values: list[float], pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def probe_setup(workload, runs: int) -> list[dict]:
    """Time a fresh interpreter's set-up ``runs`` times, after one warm-up
    run that also leaves the bytecode cache filled."""
    argv = [
        sys.executable, str(HERE / "setup_probe.py"), str(workload.config_path),
        *workload.payoff_texts(workload.market),
    ]
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    results = []
    for _ in range(runs + 1):
        done = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=120)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
        probe = json.loads(done.stdout)
        if probe["rc"] != 0 or not probe["out"].startswith("viable; q = "):
            raise RuntimeError(f"set-up check of the generated market failed: {probe}")
        results.append(probe)
    return results[1:]


class Tally:
    """Attempted and failed ops; the first few failures are logged."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def checked(self, workload, run) -> dict[str, float]:
        """Run one op through ``run`` and check it; returns the op's facts,
        or an empty dict when it failed."""
        self.attempted += 1
        try:
            return workload.check(run())
        except Exception:  # any error in an op counts against fail_ratio
            self.failed += 1
            if self.failed <= 3:
                log(f"op {self.attempted} failed:\n{traceback.format_exc()}")
            return {}


def reference_op(workload):
    """A timer of the reference op on the workload's market; returns seconds."""
    payoff = oracle.average_minus(workload.market.strike)

    def timed() -> float:
        t0 = time.perf_counter()
        oracle.path_price(workload.market, REF_HORIZON, payoff)
        return time.perf_counter() - t0

    return timed


def measure(workload, seconds: float, tally: Tally) -> dict[str, float]:
    """Untraced closed loop: end-to-end metrics.

    The shared machine's speed drifts by tens of percent within seconds, so
    each op's latency is divided by the mean of the reference op timed just
    before and just after it; the drift cancels out of that ratio.
    """
    reference = reference_op(workload)
    tally.checked(workload, workload.run)  # warm-up, checked but not timed
    reference()
    latencies, refs = [], [reference()]
    clock = time.perf_counter
    start = clock()
    while clock() - start < seconds or len(latencies) < MIN_OPS:
        tally.checked(workload, lambda: _timed(workload.run, latencies))
        refs.append(reference())
    wall = clock() - start
    ratios = [op / ((a + b) / 2) for op, a, b in zip(latencies, refs, refs[1:])]
    who = resource.RUSAGE_CHILDREN if workload.children_rss else resource.RUSAGE_SELF
    log(f"{len(latencies)} ops in {wall:.2f} s; tail = p{TAIL_PCT}; op p50 "
        f"{statistics.median(latencies):.4f} s, reference op p50 {statistics.median(refs):.5f} s")
    return {
        "latency_p50_ref": statistics.median(ratios),
        "latency_tail_ref": percentile(ratios, TAIL_PCT),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
    }


def _timed(run, latencies: list[float]):
    """Call ``run`` and append its wall time to ``latencies``."""
    t0 = time.perf_counter()
    try:
        return run()
    finally:
        latencies.append(time.perf_counter() - t0)


def measure_traced(workload, seconds: float, tally: Tally) -> dict[str, float]:
    """Alternate untraced and traced in-process ops; per-layer metrics."""
    from crrpricing import lattice

    clock = time.perf_counter
    tosspath = []
    for _ in range(TOSSPATH_REPS):
        t0 = clock()
        lattice.enumerate_paths(workload.T)
        tosspath.append(clock() - t0)

    def op():
        return workload.run(in_process=True)

    def traced_op():
        tracer.install()
        try:
            return tracer.run_op(i, op)
        finally:
            tracer.uninstall()

    tracer = Tracer()
    untraced: list[float] = []
    records: list[dict[str, float]] = []
    tally.checked(workload, op)  # warm-up, checked but not timed
    start = clock()
    i = 0
    while clock() - start < seconds or min(len(untraced), len(records)) < MIN_OPS:
        if i % 2 == 0:
            tally.checked(workload, lambda: _timed(op, untraced))
        else:
            facts = tally.checked(workload, traced_op)
            records.append({**tracer.per_op[-1], **facts})
        i += 1
    tracer.write(OUT / f"trace-{workload.name}")
    log(f"{len(untraced)} untraced and {len(records)} traced ops; "
        f"{len(tracer.start)} spans written to {OUT / ('trace-' + workload.name)}.bin")

    metrics = {
        name: statistics.median(r.get(name, 0.0) for r in records)
        for name in PER_LAYER
    }
    for name, unit in PER_LAYER.items():
        if unit != "s":  # counts repeat exactly from op to op
            metrics[name] = round(metrics[name])
    metrics["lattice.tosspath_s"] = statistics.median(tosspath)
    metrics["trace.overhead_p50_s"] = (
        statistics.median(r["op_duration_s"] for r in records) - statistics.median(untraced)
    )
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny horizons, one set-up probe")
    args = parser.parse_args(argv)

    if not (SRC / "crrpricing" / "__init__.py").is_file():
        log(f"no crrpricing sources at {SRC}; run from a full checkout")
        return 2
    sys.path.insert(0, str(SRC))
    cls = WORKLOADS[args.workload]
    market = draw_market(args.seed)
    horizon = cls.smoke_horizon if args.smoke else cls.horizon
    work = OUT / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        workload = cls(market, horizon, work, SRC)
        log(f"{cls.name}: T={horizon}, seed={args.seed}, market={market}")
        probes = probe_setup(workload, 1 if args.smoke else SETUP_PROBES)
        tally = Tally()
        if args.trace:
            values = measure_traced(workload, args.seconds, tally)
            for phase in SETUP_PHASES:
                values[phase] = statistics.median(p[phase] for p in probes)
            units = PER_LAYER
        else:
            values = measure(workload, args.seconds, tally)
            values["setup_s"] = statistics.median(p["setup_s"] for p in probes)
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
