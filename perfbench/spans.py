"""Span tracer for the benchmark's traced run.

Spans are recorded around calls into the engine's layers by rebinding the
names the callers look up (``crrpricing.pricing.eval_payoff``,
``crrpricing.cli.read_portfolio_csv`` and so on) to timing wrappers; the
engine's source is never edited. Every span keeps its name, start, end,
parent span and op id in compact in-memory arrays, which are written out
when the run ends. Self time, a span's duration minus the time its direct
child spans cover, is summed per op and per span name as spans close.
"""
from __future__ import annotations

import functools
import importlib
import json
import time
from array import array
from collections import defaultdict
from pathlib import Path
from typing import Callable

NO_PARENT = -1

# Span name -> (module, attribute path) bindings that callers resolve at
# call time. A function imported into several modules is rebound in each, and
# only those bindings, so recursion inside a layer (``eval_payoff`` calling
# itself) is not counted as new calls.
SPAN_BINDINGS: dict[str, tuple[tuple[str, str], ...]] = {
    "cli.main": (("crrpricing.cli", "main"),),
    "pricing.fair_price": (("crrpricing.pricing", "fair_price"), ("crrpricing.cli", "fair_price")),
    "pricing.price_lattice": (("crrpricing.pricing", "price_lattice"), ("crrpricing.cli", "price_lattice")),
    "pricing.terminal_payoffs": (("crrpricing.pricing", "terminal_payoffs"),),
    "pricing.tree_csv": (("crrpricing.pricing", "PriceLattice.to_csv"),),
    "pricing.replicating_portfolio": (
        ("crrpricing.pricing", "replicating_portfolio"),
        ("crrpricing.cli", "replicating_portfolio"),
    ),
    "pricing.verify_replication": (
        ("crrpricing.pricing", "verify_replication"),
        ("crrpricing.cli", "verify_replication"),
    ),
    "crr.price_path": (("crrpricing.pricing", "price_path"),),
    "payoff.eval": (("crrpricing.pricing", "eval_payoff"),),
    "market.closing_value": (
        ("crrpricing.pricing", "closing_value_process"),
        ("crrpricing.market", "closing_value_process"),
        ("crrpricing.cli", "closing_value_process"),
    ),
    "market.is_self_financing": (("crrpricing.pricing", "is_self_financing"),),
    "market.support_set": (("crrpricing.pricing", "support_set"), ("crrpricing.market", "support_set")),
    "market.write_csv": (("crrpricing.market", "write_portfolio_csv"), ("crrpricing.cli", "write_portfolio_csv")),
    "market.read_csv": (("crrpricing.market", "read_portfolio_csv"), ("crrpricing.cli", "read_portfolio_csv")),
}

OP_SPAN = "op"
TOSSPATH_COUNTER = "lattice.tosspaths_built"


def _owner(module: str, path: str) -> tuple[object, str]:
    """The object holding the last name of ``path`` inside ``module``."""
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    """Spans and counters of one traced run."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self._stack: list[list] = []  # [span index, time covered by children]
        self._op_id = NO_PARENT
        self._op_self: dict[int, float] = defaultdict(float)
        self._op_calls: dict[int, int] = defaultdict(int)
        self._op_counts: dict[str, int] = defaultdict(int)
        self.per_op: list[dict[str, float]] = []
        self._restore: list[tuple[object, str, object]] = []
        self._clock = time.perf_counter
        self._t0 = self._clock()

    def name_index(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def enter(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1][0] if self._stack else NO_PARENT)
        self.op.append(self._op_id)
        self.end.append(0.0)
        self._stack.append([idx, 0.0])
        self.start.append(self._clock() - self._t0)
        return idx

    def exit(self, idx: int) -> None:
        now = self._clock() - self._t0
        top, covered = self._stack.pop()
        if top != idx:
            raise RuntimeError("span stack out of order")
        self.end[idx] = now
        duration = now - self.start[idx]
        nid = self.name_id[idx]
        self._op_self[nid] += duration - covered
        self._op_calls[nid] += 1
        if self._stack:
            self._stack[-1][1] += duration

    def wrap(self, name: str, fn: Callable) -> Callable:
        nid = self.name_index(name)
        enter, exit_ = self.enter, self.exit

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = enter(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_(idx)

        return traced

    def run_op(self, op_id: int, fn: Callable):
        """Run one op under a root span and return its result.

        Per-op self times (``<span>_s``), call counts (``<span>_calls``),
        counters and the op's duration are appended to ``per_op`` when the
        op ends, even if it raised.
        """
        self._op_id = op_id
        self._op_self.clear()
        self._op_calls.clear()
        self._op_counts.clear()
        idx = self.enter(self.name_index(OP_SPAN))
        try:
            return fn()
        finally:
            self.exit(idx)
            record: dict[str, float] = dict(self._op_counts)
            for nid, seconds in self._op_self.items():
                record[self.names[nid] + "_s"] = seconds
                record[self.names[nid] + "_calls"] = self._op_calls[nid]
            record["op_duration_s"] = self.end[idx] - self.start[idx]
            self.per_op.append(record)
            self._op_id = NO_PARENT

    def install(self) -> None:
        """Rebind every traced name to its wrapper, and count TossPaths."""
        for name, bindings in SPAN_BINDINGS.items():
            for module, path in bindings:
                owner, attr = _owner(module, path)
                original = getattr(owner, attr)
                self._restore.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original))
        tosspath, _ = _owner("crrpricing.lattice", "TossPath.__init__")
        original_init = tosspath.__init__
        counts = self._op_counts

        def counting_init(path, *args, **kwargs):
            counts[TOSSPATH_COUNTER] += 1
            original_init(path, *args, **kwargs)

        self._restore.append((tosspath, "__init__", original_init))
        tosspath.__init__ = counting_init

    def uninstall(self) -> None:
        """Restore every binding ``install`` replaced."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def write(self, stem: Path) -> None:
        """Write the spans as ``<stem>.json`` (layout) and ``<stem>.bin``
        (the columns back to back, in the layout's order and types)."""
        columns = [
            ("name_id", self.name_id),
            ("start", self.start),
            ("end", self.end),
            ("parent", self.parent),
            ("op", self.op),
        ]
        stem.parent.mkdir(parents=True, exist_ok=True)
        with open(stem.with_suffix(".bin"), "wb") as f:
            for _, col in columns:
                col.tofile(f)
        layout = {
            "spans": len(self.start),
            "names": self.names,
            "columns": [[label, col.typecode, col.itemsize] for label, col in columns],
            "time_unit": "s since trace start",
            "no_parent": NO_PARENT,
        }
        stem.with_suffix(".json").write_text(json.dumps(layout, indent=1) + "\n")


def read_trace(stem: Path) -> dict[str, array]:
    """Load a trace written by ``Tracer.write`` back into columns."""
    layout = json.loads(stem.with_suffix(".json").read_text())
    out: dict[str, array] = {"names": layout["names"]}
    with open(stem.with_suffix(".bin"), "rb") as f:
        for label, typecode, _ in layout["columns"]:
            col = array(typecode)
            col.fromfile(f, layout["spans"])
            out[label] = col
    return out
