"""Horizon sweep of the payoff pass, hedge synthesis, verification and the
CSV I/O layer: the level of payoffs at maturity, the hedge, its report, and
the value-tree and hedge writers.

    python3 bench/sweep.py --label after
    python3 bench/sweep.py --src path/to/other/checkout --label before
    python3 bench/sweep.py --against path/to/parent/checkout --label change

writes ``bench/BENCH_<label>.json``. Each record times one layer on one
payoff at one horizon of ``HORIZONS``, in a fresh process that imports
``crrpricing`` from ``<src>/src``, so one copy of this script times any
checkout. The payoff pass evaluates the payoff on every maturity path; hedge
synthesis builds the payoff's replicating portfolio, and verification checks
that hedge against the payoff; a writer writes the payoff's value tree or
hedge to a string. A record holds the median of ``REPEAT`` samples of the
wall time per call, each sample timing as many back-to-back calls as make it
last at least ``MIN_SAMPLE_S`` (that count is the record's ``calls``; it
doubles from 1 until one sample lasts that long); the child's ``ru_maxrss``
after them (the tree or hedge written included), the ``tracemalloc`` peak of
one more call, the length and SHA-256 of the text, and how many of the
values are distinct, per column. For the layers that return floats, the text
is their ``float.hex`` values one a line: the payoff level, the hedge's
levels one asset at a time in id order, and the report's four fields.

With ``--against``, each record is taken ``PAIRS`` times from each of the
two checkouts, one child at a time, alternating which checkout goes first
(A B, B A, A B, ...), so both sides see the same load. The record then holds
both sides, each with the median of its children's medians; their ratio
(``--src`` over ``--against``); the pairs that ``--src`` won; whether every
child's SHA-256 is the same; and whether ``--src`` may claim to be faster:
it won at least nine pairs in ten, the medians differ by more than the
interquartile range of the ``--against`` children, and the two checkouts'
``src/crrpricing`` sources differ.

Layers are named as the benchmark's traced run names its spans
(``perfbench.spans.SPAN_BINDINGS``), and each is called through the first
binding of its span there, read-only. Stdlib only.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PARAMS = {"u": 1.1, "d": 0.9, "v": 10.0, "r": 0.02, "p": 0.5}
HORIZONS = (8, 12, 16)
REPEAT = 5  # timed samples per record
MIN_SAMPLE_S = 0.05  # shortest sample: a T=8 call can take 0.2 ms, too short to time alone
PAIRS = 10  # pairs of children per record under --against
REPORT_FIELDS = ("self_financing", "max_terminal_error", "init_value", "tolerance")
# layer -> the payoffs whose maturity level (pricing.terminal_payoffs), hedge
# (pricing.replicating_portfolio), report (pricing.verify_replication), tree
# (pricing.tree_csv) or hedge CSV (market.write_csv) it makes; the payoff pass
# covers the terminal prices (call), the bare walk (S[1] - S_T), and walks
# that keep the maximum, the sum, and the maximum and minimum folds
LAYERS = {
    "pricing.terminal_payoffs": ("call(10)", "lookback", "avg(S) - 10", "S[1] - S_T", "max(S) - min(S)"),
    "pricing.replicating_portfolio": ("lookback", "avg(S) - 10"),
    "pricing.verify_replication": ("lookback", "avg(S) - 10"),
    "pricing.tree_csv": ("call(10)", "lookback", "avg(S) - 10"),
    "market.write_csv": ("lookback", "avg(S) - 10"),
}


def layer_function(layer: str):
    """The function the span ``layer`` times, through its first binding."""
    sys.path.insert(0, str(ROOT))
    from perfbench.spans import SPAN_BINDINGS

    module, path = SPAN_BINDINGS[layer][0]
    owner = importlib.import_module(module)
    for name in path.split("."):
        owner = getattr(owner, name)
    return owner


def sample(fn, args: tuple, calls: int) -> float:
    """Wall time of ``calls`` back-to-back calls ``fn(*args)``."""
    start = time.perf_counter()
    for _ in range(calls):
        fn(*args)
    return time.perf_counter() - start


def record(src: str, layer: str, horizon: int, payoff: str, repeat: int) -> dict:
    """One record, measured in this process: the median of ``repeat`` samples."""
    sys.path.insert(0, str(Path(src, "src").resolve()))
    from crrpricing.crr import CrrMarket, CrrParams
    from crrpricing.payoff import parse_payoff
    from crrpricing.pricing import price_lattice, replicating_portfolio

    crr = CrrMarket(CrrParams(**PARAMS), horizon=horizon)
    expr = parse_payoff(payoff)
    if layer in ("pricing.terminal_payoffs", "pricing.replicating_portfolio"):
        args = (crr, expr, horizon)
    elif layer == "pricing.tree_csv":
        tree = price_lattice(crr, expr, horizon)
        args, columns = (tree,), {"value": tree.levels}
    else:
        hedge = replicating_portfolio(crr, expr, horizon)
        args, columns = (hedge,), {a.id: hedge.levels[a] for a in sorted(hedge.levels, key=lambda a: a.id)}
        if layer == "pricing.verify_replication":
            args = (crr, hedge, expr, horizon)
    fn = layer_function(layer)
    calls = 1
    while sample(fn, args, calls) < MIN_SAMPLE_S:
        calls *= 2
    runs = [sample(fn, args, calls) / calls for _ in range(repeat)]
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    tracemalloc.start()
    text = fn(*args)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    if layer == "pricing.terminal_payoffs":
        columns = {"payoff": [text]}
    elif layer == "pricing.replicating_portfolio":
        columns = {a.id: text.levels[a] for a in sorted(text.levels, key=lambda a: a.id)}
    elif layer == "pricing.verify_replication":
        columns = {"report": [[float(getattr(text, f)) for f in REPORT_FIELDS]]}
    if not isinstance(text, str):  # floats, one float.hex a line, column by column
        text = "".join(f"{x.hex()}\n" for levels in columns.values() for level in levels for x in level)
    data = text.encode("utf-8")
    return {
        "layer": layer, "horizon": horizon, "payoff": payoff,
        "median_s": statistics.median(runs), "runs_s": runs, "calls": calls,
        "ru_maxrss_kb": maxrss_kb, "tracemalloc_peak_bytes": peak,
        "bytes": len(data), "sha256": hashlib.sha256(data).hexdigest(),
        "values": {name: sum(map(len, levels)) for name, levels in columns.items()},
        "distinct": {name: len({x for level in levels for x in level}) for name, levels in columns.items()},
    }


def child(src: str, layer: str, horizon: int, payoff: str) -> dict:
    """One record, measured in a fresh process that imports ``src``'s package."""
    done = subprocess.run(
        [sys.executable, __file__, "--src", src, "--label", "child",
         "--record", layer, str(horizon), payoff],
        capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout)


def source_digest(checkout: str) -> str:
    """SHA-256 over the names and bytes of ``checkout``'s package sources."""
    digest = hashlib.sha256()
    for path in sorted(Path(checkout, "src", "crrpricing").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


def faster(this: list[float], other: list[float]) -> bool:
    """Whether the times ``this`` beat the paired times ``other``: in at
    least nine pairs of ten, and by a median gap wider than the interquartile
    range of ``other``."""
    wins = sum(a < b for a, b in zip(this, other))
    q1, _, q3 = statistics.quantiles(other, n=4)
    return wins >= 0.9 * len(other) and statistics.median(other) - statistics.median(this) > q3 - q1


def paired(src: str, against: str, layer: str, horizon: int, payoff: str) -> dict:
    """One record of each checkout from ``PAIRS`` alternating pairs of
    children, run one at a time, and how the two compare."""
    sides: tuple[list[dict], list[dict]] = ([], [])
    for k in range(PAIRS):
        for side in (0, 1) if k % 2 == 0 else (1, 0):
            sides[side].append(child((src, against)[side], layer, horizon, payoff))
    this, other = ([r["median_s"] for r in runs] for runs in sides)

    def summary(runs: list[dict]) -> dict:
        first = {k: v for k, v in runs[0].items() if k not in ("layer", "horizon", "payoff", "runs_s")}
        return {**first, "median_s": statistics.median(r["median_s"] for r in runs),
                "medians_s": [r["median_s"] for r in runs],
                "ru_maxrss_kb": statistics.median(r["ru_maxrss_kb"] for r in runs),
                "tracemalloc_peak_bytes": statistics.median(r["tracemalloc_peak_bytes"] for r in runs)}

    same_source = source_digest(src) == source_digest(against)
    return {
        "layer": layer, "horizon": horizon, "payoff": payoff,
        "src": summary(sides[0]), "against": summary(sides[1]),
        "ratio": statistics.median(this) / statistics.median(other),
        "wins": sum(a < b for a, b in zip(this, other)), "pairs": PAIRS,
        "sha256_equal": len({r["sha256"] for runs in sides for r in runs}) == 1,
        "same_source": same_source, "claim": not same_source and faster(this, other),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(ROOT), help="checkout whose src/crrpricing is timed")
    parser.add_argument("--against", help="a second checkout, timed in alternation with --src")
    parser.add_argument("--label", required=True, help="names the output, bench/BENCH_<label>.json")
    parser.add_argument("--record", nargs=3, metavar=("LAYER", "HORIZON", "PAYOFF"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.record:  # a child: one record as a JSON line
        layer, horizon, payoff = args.record
        print(json.dumps(record(args.src, layer, int(horizon), payoff, REPEAT)))
        return 0

    records = []
    for horizon in HORIZONS:
        for layer, payoffs in LAYERS.items():
            for payoff in payoffs:
                if args.against is None:
                    records.append(child(args.src, layer, horizon, payoff))
                    print(f"{layer} T={horizon} {payoff}: {records[-1]['median_s']:.4f} s", file=sys.stderr)
                    continue
                r = paired(args.src, args.against, layer, horizon, payoff)
                records.append(r)
                print(f"{layer} T={horizon} {payoff}: {r['src']['median_s']:.4f} s against "
                      f"{r['against']['median_s']:.4f} s, ratio {r['ratio']:.3f}, wins {r['wins']}/{r['pairs']}, "
                      f"same SHA-256: {r['sha256_equal']}, claim: {r['claim']}", file=sys.stderr)
    result = {
        "python": platform.python_version(), "machine": platform.machine(),
        "params": PARAMS, "repeat": REPEAT, "records": records,
    }
    if args.against is not None:
        result["pairs"] = PAIRS
    out = ROOT / "bench" / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
