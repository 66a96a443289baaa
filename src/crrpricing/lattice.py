"""Finite binary scenario lattice.

Scenarios are finite sequences of coin tosses (up/down). A process assigns a
real value to every node ``(time n, prefix of n tosses)``; adaptedness is
structural because the value at time ``n`` can only be keyed by the first
``n`` outcomes. A process is stored as its levels: time ``n`` is one list (in
a market's store, one ``array('d')``) of ``2**n`` values in ``iter_paths``
order, where the children of entry ``k`` sit at ``2k`` (up) and ``2k + 1``
(down) of the next level, so operators walk whole levels and a single node
is looked up by ``TossPath.index()``. An
i.i.d. Bernoulli weight on tosses turns the lattice into a finite
probability space with exact expectation operators.
"""
from __future__ import annotations

import itertools
import math
import operator
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from ._value import Value, echo

# Hard stop for exhaustive lattice scans: 2**MAX_HORIZON terminal paths.
MAX_HORIZON = 24

UP = True
DOWN = False

_ONLY_BOOL = frozenset({bool})
_LETTERS, _BITS = str.maketrans("01", "UD"), str.maketrans("UD", "01")


def check_horizon(horizon: int, what: str = "horizon") -> int:
    """Validate a lattice horizon against the configured cap; ``what`` names
    it in the error, e.g. as a maturity."""
    if not isinstance(horizon, int) or horizon < 0:
        raise ValueError(f"{what} must be a nonnegative integer, got {echo(horizon)}")
    if horizon > MAX_HORIZON:
        raise ValueError(
            f"{what} {echo(horizon)} exceeds the exhaustive-enumeration cap "
            f"{MAX_HORIZON} (2**{echo(horizon)} paths); reduce the {what}"
        )
    return horizon


class TossPath(Value):
    """An ordered, finite sequence of coin-toss outcomes (True = up)."""

    __slots__ = ("outcomes",)

    def __init__(self, outcomes: Iterable[bool] = ()):
        if not isinstance(outcomes, tuple):
            outcomes = tuple(outcomes)
        if not _ONLY_BOOL.issuperset(map(type, outcomes)):  # bool cannot be subclassed
            raise ValueError("toss outcomes must be booleans")
        object.__setattr__(self, "outcomes", outcomes)

    def __len__(self) -> int:
        return len(self.outcomes)

    def __iter__(self) -> Iterator[bool]:
        return iter(self.outcomes)

    def __getitem__(self, i: int) -> bool:
        return self.outcomes[i]

    def child(self, up: bool) -> "TossPath":
        """The path extended by one more toss."""
        return TossPath(self.outcomes + (bool(up),))

    def truncate(self, n: int) -> "TossPath":
        """The first ``n`` outcomes."""
        if n < 0 or n > len(self.outcomes):
            raise ValueError(f"cannot truncate length-{len(self)} path to {n}")
        return TossPath(self.outcomes[:n])

    def index(self) -> int:
        """Position in ``iter_paths`` order; node ``k`` has children ``2k`` (up) and ``2k + 1``."""
        return sum(1 << i for i, o in enumerate(reversed(self.outcomes)) if not o)

    def label(self) -> str:
        """Render as a U/D string; the empty path renders as '-'."""
        return label_at(len(self.outcomes), self.index())

    @classmethod
    def from_label(cls, text: str) -> "TossPath":
        """Parse a U/D string; '' and '-' denote the empty path."""
        n, _ = parse_label(text)
        return cls(tuple(c == "U" for c in text[:n]))  # [:0] drops the '-' of the empty path

    def __str__(self) -> str:
        return self.label()


def prefix_labels(length: int) -> Iterator[list[str]]:
    """``label()`` of every toss prefix, one list per time ``0 .. length``,
    each in ``iter_paths`` order; built by appending one toss per level."""
    check_horizon(length)
    yield ["-"]
    labels = [""]
    for _ in range(length):
        labels = [w + c for w in labels for c in "UD"]
        yield labels


def label_at(n: int, k: int) -> str:
    """``label()`` of the length-``n`` prefix whose ``TossPath.index()`` is ``k``."""
    return format(k, f"0{n}b").translate(_LETTERS) if n else "-"


def parse_label(text: str) -> tuple[int, int]:
    """``label_at``'s inverse: a U/D string's length and ``TossPath.index()``; '' and '-' are empty."""
    if text in ("", "-"):
        return 0, 0
    # checked first: int(..., 2) would also take '_', signs and blanks
    if text.strip("UD"):
        raise ValueError(f"invalid toss label {echo(text)}: characters must be U or D")
    return len(text), int(text.translate(_BITS), 2)


def iter_paths(length: int) -> Iterator[TossPath]:
    """All toss paths of the given length, lexicographic with up before down."""
    for combo in itertools.product((UP, DOWN), repeat=check_horizon(length)):
        yield TossPath(combo)


def enumerate_paths(length: int) -> list[TossPath]:
    """All 2**length toss paths of the given length, in deterministic order."""
    return list(iter_paths(length))


class PathMeasure(Value):
    """I.i.d. Bernoulli weight on tosses: up with probability ``p``."""

    __slots__ = ("p",)

    def __init__(self, p: float):
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"up-probability must lie in [0, 1], got {p!r}")
        super().__init__(p)

    def weights(self, n: int) -> list[float]:
        """``path_probability`` of every length-``n`` path, bit for bit."""
        return toss_products(1.0, self.p, 1.0 - self.p, n)


def toss_products(start: float, up: float, down: float, n: int) -> list[float]:
    """The running product from ``start``, one factor per toss, ``up`` or
    ``down``, at every length-``n`` path in ``iter_paths`` order: node ``k``
    holding ``f`` has children ``f * up`` at ``2k`` and ``f * down`` at
    ``2k + 1``, each half of a level written by one slice assignment, each
    level built from the last. From ``v`` with factors ``u`` and ``d`` this
    is the last price of each list ``crr.price_walk`` yields, bit for bit."""
    level = [start]
    for _ in range(n):
        parents, level = level, level * 2
        level[0::2] = [f * up for f in parents]
        level[1::2] = [f * down for f in parents]
    return level


class _StoredLevels:
    """``toss_products(start, up, down, n)`` for ``n`` up to the deepest asked,
    kept as ``array('d')`` levels of 8 bytes a node and built on first
    demand, bit for bit (the factors are taken as floats).

    ``upto(n)`` returns every level built so far, ``n`` and deeper included.
    A caller that needs more extends a copy of that list and publishes it in
    one assignment, so concurrent readers each get correct levels, though two
    of them may build the same level."""

    __slots__ = ("start", "up", "down", "levels")

    def __init__(self, start: float, up: float, down: float):
        self.start, self.up, self.down = float(start), float(up), float(down)
        self.levels: list = []

    def upto(self, n: int) -> list:
        levels = self.levels
        if n < len(levels):
            return levels
        from array import array  # loaded at the first build: a viable ``check`` builds none

        grown = levels[:] or [array("d", [self.start])]
        while len(grown) <= n:
            grown.append(_child_level(grown[-1], self.up, self.down))
        if len(grown) > len(self.levels):  # another reader may have published deeper levels
            self.levels = grown
        return grown


# Parents per step of ``_child_level``, whose comprehensions hold at most this
# many floats: 100-135 ns a parent on a 2-core box, against 160-190 through a
# generator per half; a comprehension per half would hold 17 MB at 2**20 nodes.
_CHUNK = 4096


def _child_level(parents, up: float, down: float):
    """The ``array('d')`` level after ``parents``, as ``toss_products`` builds
    it: entry ``k`` holding ``f`` has children ``f * up`` at ``2k`` and
    ``f * down`` at ``2k + 1``, ``_CHUNK`` parents at a time."""
    from array import array

    level = parents * 2
    for i in range(0, len(parents), _CHUNK):
        chunk = parents[i:i + _CHUNK]
        end = 2 * (i + len(chunk))
        level[2 * i:end:2] = array("d", [f * up for f in chunk])
        level[2 * i + 1:end:2] = array("d", [f * down for f in chunk])
    return level


class LatticeProcess:
    """A real value at every node (n, prefix) for n up to the horizon.

    Backed by a function ``level(n)`` that returns the ``2**n`` time-``n``
    values in ``iter_paths`` order, so a process is defined by a formula or
    a store: the discount curve computes a level on demand, while the
    market's risky price (``_StoredProcess``) copies it from levels built
    once; ``at(n, prefix)`` reads one node of ``_view(n)``, which for a
    computed process is the whole level, so loops over nodes should walk
    ``level`` instead.
    """

    __slots__ = ("horizon", "_level")

    def __init__(self, horizon: int, level: Callable[[int], list[float]]):
        check_horizon(horizon)
        self.horizon = horizon
        self._level = level

    def at(self, n: int, prefix: TossPath) -> float:
        level = self._view(n)  # checks the time before the prefix length
        if len(prefix) != n:
            raise ValueError(
                f"time-{n} values are keyed by length-{n} prefixes, got length {len(prefix)}"
            )
        return level[prefix.index()]

    def level(self, n: int) -> list[float]:
        """The values at every length-``n`` prefix, in ``iter_paths`` order."""
        if not 0 <= n <= self.horizon:
            raise ValueError(f"time {n} outside process horizon {self.horizon}")
        values = self._level(n)
        if len(values) != 1 << n:
            raise ValueError(f"time-{n} level has {len(values)} values, expected {1 << n}")
        return values

    def _view(self, n: int) -> Sequence[float]:
        """``level(n)`` for a caller that only reads it: the same values, and
        for a process that keeps its levels, the kept level, not a copy."""
        return self.level(n)

    @classmethod
    def from_table(cls, horizon: int, table: Mapping[tuple[int, TossPath], float]) -> "LatticeProcess":
        """Build from an explicit node table; the table must cover exactly
        the nodes of the horizon, no more and no fewer."""
        check_horizon(horizon)
        data = dict(table)
        for key in data:
            n, prefix = key
            if not (isinstance(n, int) and 0 <= n <= horizon and isinstance(prefix, TossPath)
                    and len(prefix) == n):
                raise ValueError(f"table key {key!r} is not a node of a horizon-{horizon} lattice")
        expected = 2 ** (horizon + 1) - 1
        if len(data) != expected:
            raise ValueError(
                f"table covers {len(data)} nodes but a horizon-{horizon} "
                f"lattice has {expected}"
            )
        levels = [[data[(n, w)] for w in iter_paths(n)] for n in range(horizon + 1)]
        return cls(horizon, lambda n: list(levels[n]))

    @classmethod
    def constant(cls, horizon: int, value: float) -> "LatticeProcess":
        return cls(horizon, lambda n: [value] * (1 << n))

    @classmethod
    def deterministic(cls, values_by_time: list[float]) -> "LatticeProcess":
        """A process constant across same-length prefixes (one value per time)."""
        if not values_by_time:
            raise ValueError("need at least the time-0 value")
        vals = list(values_by_time)
        return cls(len(vals) - 1, lambda n: [vals[n]] * (1 << n))


class _StoredProcess(LatticeProcess):
    """The process of a ``_StoredLevels``: ``level(n)`` is a fresh list
    copied from the store, ``_view(n)`` the stored ``array('d')`` itself."""

    __slots__ = ()

    def __init__(self, horizon: int, store: _StoredLevels):
        super().__init__(horizon, lambda n: store.upto(n)[n])

    def level(self, n: int) -> list[float]:
        return self._view(n).tolist()

    def _view(self, n: int) -> Sequence[float]:
        return LatticeProcess.level(self, n)


def expectation(m: PathMeasure, f: LatticeProcess, n: int) -> float:
    """Expected value of the process at time ``n`` under the path measure."""
    return math.fsum(map(operator.mul, f.level(n), m.weights(n)))
