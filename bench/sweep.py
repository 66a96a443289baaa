"""Horizon sweep of the payoff pass, backward induction, the fair price,
hedge synthesis, verification, the CSV I/O layer and the CLI's cold start:
the level of payoffs at maturity, the value tree, the price, the hedge, its
report, the value-tree and hedge writers, and the commands of the
benchmark's ``cli-roundtrip`` workload, each in a fresh process.

    python3 bench/sweep.py --label after
    python3 bench/sweep.py --src path/to/other/checkout --label before
    python3 bench/sweep.py --against path/to/parent/checkout --label change

writes ``bench/BENCH_<label>.json``. Each record times one layer on one
payoff at one horizon of ``HORIZONS``, in a fresh process that imports
``crrpricing`` from ``<src>/src``, so one copy of this script times any
checkout. The payoff pass evaluates the payoff on every maturity path;
backward induction (``price_lattice``) and the fair price are given that
level, so they time no payoff pass; hedge synthesis builds the payoff's
replicating portfolio, and verification checks that hedge against the
payoff; a writer writes the payoff's value tree or hedge to a string. The
layers measured in process reuse one market for every call, so after the
first call they time the market's stored price levels and path weights
warm, as a caller that reuses its market does. A record holds the median of
``REPEAT`` samples of the wall time per call, each sample timing as many
back-to-back calls as make it last at least ``MIN_SAMPLE_S`` (that count is
the record's ``calls``; it doubles from 1 until one sample lasts that long);
the child's ``ru_maxrss`` after them (the tree or hedge written included),
the ``tracemalloc`` peak of one more call, the length and SHA-256 of the
text, and how many of the values are distinct, per column. For the layers that return floats, the text
is their ``float.hex`` values one a line: the payoff level, the value tree's
levels from the root, the price, the hedge's levels one asset at a time in
id order, and the report's four fields.

The cold-start layer, ``cli.main``, takes one record per command of
``cli-roundtrip`` (``check``, ``price``, ``replicate --out`` and ``verify``
of ``lookback``) at ``COLD_HORIZON`` only. A record runs the command in
``COLD_CHILDREN`` fresh ``python -m crrpricing`` processes, one at a time,
on a copy of ``<src>/src`` without bytecode caches and under
``PYTHONDONTWRITEBYTECODE=1``, so each compiles the modules it imports, as
on a box that writes no bytecode. It holds their wall times (``runs_s``) and
median, the median of their ``ru_maxrss`` (from ``os.wait4``), the SHA-256
of the stdout followed by the file the command wrote, and the sorted
``crrpricing`` modules the command loads, from one more, untimed
``python -X importtime`` process.

With ``--against``, each record is taken ``PAIRS`` times from each of the
two checkouts, one child at a time, alternating which checkout goes first
(A B, B A, A B, ...), so both sides see the same load. The record then holds
both sides: each child's samples, the median of each child's samples and of
those medians, and ``best_s``, the median over children of each child's
fastest sample. The two sides are compared on ``best_s``: load on the box
that slows some of a child's samples moves their median, but not the
fastest of them. The record holds their ratio (``--src`` over ``--against``);
the pairs that ``--src`` won; whether every child's SHA-256 is the same; and
whether ``--src`` may claim to be faster: it won at least nine pairs in ten,
the two ``best_s`` differ by more than the interquartile range of the
``--against`` children's fastest samples, and the two checkouts'
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
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
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
# layer -> the payoffs whose maturity level (pricing.terminal_payoffs), value
# tree (pricing.price_lattice), price (pricing.fair_price), hedge
# (pricing.replicating_portfolio), report (pricing.verify_replication), tree
# CSV (pricing.tree_csv) or hedge CSV (market.write_csv) it makes; the payoff pass
# covers the terminal prices (call), the bare walk (S[1] - S_T), and walks
# that keep the maximum, the sum, and the maximum and minimum folds
LAYERS = {
    "pricing.terminal_payoffs": ("call(10)", "lookback", "avg(S) - 10", "S[1] - S_T", "max(S) - min(S)"),
    "pricing.price_lattice": ("lookback", "avg(S) - 10"),
    "pricing.fair_price": ("lookback", "avg(S) - 10"),
    "pricing.replicating_portfolio": ("lookback", "avg(S) - 10"),
    "pricing.verify_replication": ("lookback", "avg(S) - 10"),
    "pricing.tree_csv": ("call(10)", "lookback", "avg(S) - 10"),
    "market.write_csv": ("lookback", "avg(S) - 10"),
    "cli.main": ("check", "price", "replicate --out", "verify"),  # commands, not payoffs
}
COLD_LAYER = "cli.main"
COLD_HORIZON = 8  # the horizon of the cli-roundtrip workload
COLD_CHILDREN = 15  # fresh processes per cold-start record


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


def run_cli(argv: list[str], env: dict, cwd: str) -> tuple[float, int, bytes]:
    """Wall time, ``ru_maxrss`` and stdout of one fresh ``python -m crrpricing``."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "crrpricing", *argv], env=env, cwd=cwd,
                            stdout=subprocess.PIPE)
    with proc.stdout:
        stdout = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    if proc.returncode != 0:
        raise RuntimeError(f"crrpricing {' '.join(argv)} exited with {proc.returncode}")
    return seconds, usage.ru_maxrss, stdout


def cold_record(src: str, horizon: int, command: str, children: int) -> dict:
    """One cold-start record of ``command``: ``children`` fresh processes, and
    the modules one more loads."""
    with tempfile.TemporaryDirectory(prefix="sweep-") as tmp:
        shutil.copytree(Path(src, "src"), Path(tmp, "src"), ignore=shutil.ignore_patterns("__pycache__"))
        Path(tmp, "market.json").write_text(json.dumps({**PARAMS, "horizon": horizon}))
        common = ["--config", "market.json", "--payoff", "lookback", "--maturity", str(horizon)]
        argv, written = {
            "check": (["check", "--config", "market.json"], None),
            "price": (["price", *common], None),
            "replicate --out": (["replicate", *common, "--out", "out.csv"], "out.csv"),
            "verify": (["verify", *common, "--portfolio", "hedge.csv"], None),
        }[command]
        env = {**os.environ, "PYTHONPATH": str(Path(tmp, "src")), "PYTHONDONTWRITEBYTECODE": "1"}
        run_cli(["replicate", *common, "--out", "hedge.csv"], env, tmp)  # verify's input, untimed
        runs = [run_cli(argv, env, tmp) for _ in range(children)]
        text = runs[-1][2] + (Path(tmp, written).read_bytes() if written else b"")
        trace = subprocess.run([sys.executable, "-X", "importtime", "-m", "crrpricing", *argv],
                               env=env, cwd=tmp, capture_output=True, text=True, check=True).stderr
    modules = {line.rsplit("|", 1)[1].strip() for line in trace.splitlines() if line.startswith("import time:")}
    return {
        "layer": COLD_LAYER, "horizon": horizon, "payoff": "lookback", "command": command,
        "median_s": statistics.median(r[0] for r in runs), "runs_s": [r[0] for r in runs],
        "ru_maxrss_kb": statistics.median(r[1] for r in runs),
        "bytes": len(text), "sha256": hashlib.sha256(text).hexdigest(),
        "modules": sorted(m for m in modules if m.split(".")[0] == "crrpricing"),
    }


def record(src: str, layer: str, horizon: int, payoff: str, repeat: int) -> dict:
    """One record, measured in this process: the median of ``repeat`` samples;
    of the cold-start layer, ``payoff`` is the command and ``repeat`` the
    number of fresh processes."""
    if layer == COLD_LAYER:
        return cold_record(src, horizon, payoff, repeat)
    sys.path.insert(0, str(Path(src, "src").resolve()))
    from crrpricing.crr import CrrMarket, CrrParams
    from crrpricing.payoff import parse_payoff
    from crrpricing.pricing import price_lattice, replicating_portfolio, terminal_payoffs

    crr = CrrMarket(CrrParams(**PARAMS), horizon=horizon)
    expr = parse_payoff(payoff)
    if layer in ("pricing.terminal_payoffs", "pricing.replicating_portfolio"):
        args = (crr, expr, horizon)
    elif layer in ("pricing.price_lattice", "pricing.fair_price"):
        args = (crr, terminal_payoffs(crr, expr, horizon), horizon)  # the payoff pass, untimed
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
    elif layer == "pricing.price_lattice":
        columns = {"value": text.levels}
    elif layer == "pricing.fair_price":
        columns = {"price": [[text]]}
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
    children, run one at a time, and how the two compare on ``best_s``."""
    sides: tuple[list[dict], list[dict]] = ([], [])
    for k in range(PAIRS):
        for side in (0, 1) if k % 2 == 0 else (1, 0):
            sides[side].append(child((src, against)[side], layer, horizon, payoff))
    this, other = ([min(r["runs_s"]) for r in runs] for runs in sides)
    identity = ("layer", "horizon", "payoff", "command")

    def summary(runs: list[dict]) -> dict:
        first = {k: v for k, v in runs[0].items() if k not in identity}
        return {**first, "median_s": statistics.median(r["median_s"] for r in runs),
                "best_s": statistics.median(min(r["runs_s"]) for r in runs),
                "medians_s": [r["median_s"] for r in runs], "runs_s": [r["runs_s"] for r in runs],
                **{k: statistics.median(r[k] for r in runs)
                   for k in ("ru_maxrss_kb", "tracemalloc_peak_bytes") if k in first}}

    same_source = source_digest(src) == source_digest(against)
    return {
        **{k: v for k, v in sides[0][0].items() if k in identity},
        "src": summary(sides[0]), "against": summary(sides[1]),
        "ratio": statistics.median(this) / statistics.median(other),
        "wins": sum(a < b for a, b in zip(this, other)), "pairs": PAIRS,
        "sha256_equal": len({r["sha256"] for runs in sides for r in runs}) == 1,
        "same_source": same_source, "claim": not same_source and faster(this, other),
    }


def cases() -> list[tuple[str, int, str]]:
    """Every ``(layer, horizon, payoff or command)`` of a sweep, in its order."""
    return [(layer, horizon, case) for horizon in HORIZONS for layer, layer_cases in LAYERS.items()
            for case in layer_cases if layer != COLD_LAYER or horizon == COLD_HORIZON]


def sweep(src: str, against: str | None, label: str, todo: list[tuple[str, int, str]]) -> dict:
    """The records of ``todo``, of ``src`` alone or paired with ``against``,
    written to ``bench/BENCH_<label>.json``."""
    records = []
    for layer, horizon, case in todo:
        if against is None:
            records.append(child(src, layer, horizon, case))
            print(f"{layer} T={horizon} {case}: {records[-1]['median_s']:.4f} s", file=sys.stderr)
            continue
        r = paired(src, against, layer, horizon, case)
        records.append(r)
        print(f"{layer} T={horizon} {case}: {r['src']['best_s']:.4f} s against "
              f"{r['against']['best_s']:.4f} s, ratio {r['ratio']:.3f}, wins {r['wins']}/{r['pairs']}, "
              f"same SHA-256: {r['sha256_equal']}, claim: {r['claim']}", file=sys.stderr)
    result = {
        "python": platform.python_version(), "machine": platform.machine(),
        "params": PARAMS, "repeat": REPEAT, "cold_children": COLD_CHILDREN, "records": records,
    }
    if against is not None:
        result["pairs"] = PAIRS
    out = ROOT / "bench" / f"BENCH_{label}.json"
    out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(ROOT), help="checkout whose src/crrpricing is timed")
    parser.add_argument("--against", help="a second checkout, timed in alternation with --src")
    parser.add_argument("--label", required=True, help="names the output, bench/BENCH_<label>.json")
    parser.add_argument("--record", nargs=3, metavar=("LAYER", "HORIZON", "PAYOFF"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.record:  # a child: one record as a JSON line
        layer, horizon, payoff = args.record
        repeat = COLD_CHILDREN if layer == COLD_LAYER else REPEAT
        print(json.dumps(record(args.src, layer, int(horizon), payoff, repeat)))
        return 0
    sweep(args.src, args.against, args.label, cases())
    return 0


if __name__ == "__main__":
    sys.exit(main())
