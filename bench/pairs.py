"""Alternating A/B runs of the benchmark, ``perfbench/run.py``, on two checkouts.

    python3 bench/pairs.py --against path/to/parent --workload hedge-asian --seeds 2801-2810 --seconds 36

For each workload and seed, runs ``perfbench/run.py --workload W --seed S
--seconds X --trace 0`` once from ``--src`` and once from ``--against``, one
child at a time, alternating which checkout goes first (A B, B A, ...), so
both sides see the same load. Each child runs in a fresh temporary copy of
its checkout's ``src`` and ``perfbench`` directories, under
``PYTHONDONTWRITEBYTECODE=1``, so no bytecode cache or benchmark output
carries over from one run to the next.

Prints one JSON object. Per workload it holds each side's attempted and
failed ops, and per end-to-end metric each side's values in seed order and
their quartiles; the seeds that ``--src`` won (every metric is better
lower); the median gap, ``--against`` minus ``--src``; the interquartile
range of the ``--against`` runs; and ``faster``: ``--src`` won at least nine
seeds in ten by a median gap wider than that range (``sweep.faster``), and
the two checkouts' ``src/crrpricing`` sources differ. Stdlib only.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from sweep import ROOT, faster, source_digest  # noqa: E402

WORKLOADS = ("price-sheet", "hedge-asian", "cli-roundtrip")


def run(checkout: str, workload: str, seed: int, seconds: float, smoke: bool) -> dict:
    """The JSON result of one benchmark run from a fresh copy of ``checkout``."""
    with tempfile.TemporaryDirectory(prefix="pairs-") as tmp:
        for part in ("src", "perfbench"):
            shutil.copytree(Path(checkout, part), Path(tmp, part),
                            ignore=shutil.ignore_patterns("__pycache__", ".perfbench-out"))
        argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", "0", *(["--smoke"] if smoke else [])]
        done = subprocess.run(argv, cwd=tmp, capture_output=True, text=True, check=True,
                              env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    return json.loads(done.stdout.splitlines()[-1])


def quartiles(values: list[float]) -> list[float] | None:
    """The three quartiles, or None for fewer than two values."""
    return statistics.quantiles(values, n=4) if len(values) > 1 else None


def compare(this: list[float], other: list[float], same_source: bool) -> dict:
    """How the values ``this`` of ``--src`` compare with the paired ``other``."""
    other_q = quartiles(other)
    return {
        "src": this, "against": other, "src_quartiles": quartiles(this), "against_quartiles": other_q,
        "wins": sum(a < b for a, b in zip(this, other)), "pairs": len(this),
        "median_gap": statistics.median(other) - statistics.median(this),
        "against_iqr": None if other_q is None else other_q[2] - other_q[0],
        "faster": not same_source and other_q is not None and faster(this, other),
    }


def seed_list(text: str) -> list[int]:
    """``"1-3,7"`` as ``[1, 2, 3, 7]``."""
    seeds = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        seeds.extend(range(int(first), int(last or first) + 1))
    return seeds


def main(argv: list[str] | None = None) -> dict:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(ROOT), help="checkout under test")
    parser.add_argument("--against", required=True, help="checkout it is compared with, e.g. the parent")
    parser.add_argument("--workload", action="append", choices=WORKLOADS, help="repeatable; default all")
    parser.add_argument("--seeds", type=seed_list, required=True, help="e.g. 2801-2810 or 1,2,5")
    parser.add_argument("--seconds", type=float, default=36.0, help="measured seconds per run")
    parser.add_argument("--smoke", action="store_true", help="the benchmark's tiny horizons")
    args = parser.parse_args(argv)

    same_source = source_digest(args.src) == source_digest(args.against)
    result = {"seeds": args.seeds, "seconds": args.seconds, "same_source": same_source, "workloads": {}}
    for workload in args.workload or WORKLOADS:
        sides: tuple[list[dict], list[dict]] = ([], [])
        for k, seed in enumerate(args.seeds):
            for side in (0, 1) if k % 2 == 0 else (1, 0):
                sides[side].append(run((args.src, args.against)[side], workload, seed, args.seconds, args.smoke))
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{name} {sides[0][-1]['metrics'][name]['value']:.4g} against {sides[1][-1]['metrics'][name]['value']:.4g}"
                for name in sides[0][-1]["metrics"]), file=sys.stderr)
        metrics = sides[0][0]["metrics"]
        result["workloads"][workload] = {
            **{f"{side}_{key}": sum(r[key] for r in runs)
               for side, runs in zip(("src", "against"), sides) for key in ("attempted", "failed")},
            "metrics": {
                name: compare(*([r["metrics"][name]["value"] for r in runs] for runs in sides), same_source)
                for name in metrics
            },
        }
    print(json.dumps(result, indent=1))
    return result


if __name__ == "__main__":
    main()
