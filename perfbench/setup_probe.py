"""Set-up probe, run in a fresh interpreter by ``run.py``.

Usage: ``PYTHONPATH=src python3 perfbench/setup_probe.py CONFIG PAYOFF...``

Times what a fresh process pays before its first priced path: importing
``crrpricing``, building the market from the config, parsing the payoffs
and one in-process ``crrpricing check`` command. Prints one JSON object
with each phase in seconds, the check's exit code and its output.
"""
import contextlib
import io
import json
import sys
import time


def main() -> None:
    config_path, texts = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import crrpricing
    from crrpricing import cli

    t1 = time.perf_counter()
    with open(config_path, encoding="utf-8") as f:
        crrpricing.CrrMarket.from_json(f.read())
    t2 = time.perf_counter()
    for text in texts:
        crrpricing.parse_payoff(text)
    t3 = time.perf_counter()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(["check", "--config", config_path])
    t4 = time.perf_counter()
    print(json.dumps({
        "cli.import_s": t1 - t0,
        "crr.market_build_s": t2 - t1,
        "payoff.parse_s": t3 - t2,
        "cli.command_s": t4 - t3,
        "setup_s": t4 - t0,
        "rc": rc,
        "out": out.getvalue(),
    }))


if __name__ == "__main__":
    main()
