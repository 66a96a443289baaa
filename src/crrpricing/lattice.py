"""Finite binary scenario lattice.

Scenarios are finite sequences of coin tosses (up/down). A process assigns a
real value to every node ``(time n, prefix of n tosses)``; adaptedness is
structural because the value at time ``n`` can only be keyed by the first
``n`` outcomes. A process is stored as its levels: time ``n`` is one list of
``2**n`` values in ``iter_paths`` order, where the children of entry ``k``
sit at ``2k`` (up) and ``2k + 1`` (down) of the next level, so operators walk
whole levels and a single node is looked up by ``TossPath.index()``. An
i.i.d. Bernoulli weight on tosses turns the lattice into a finite
probability space with exact expectation operators.
"""
from __future__ import annotations

import itertools
import math
import operator
from typing import Callable, Iterable, Iterator, Mapping

from ._value import Value

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
        raise ValueError(f"{what} must be a nonnegative integer, got {horizon!r}")
    if horizon > MAX_HORIZON:
        raise ValueError(
            f"{what} {horizon} exceeds the exhaustive-enumeration cap "
            f"{MAX_HORIZON} (2**{horizon} paths); reduce the {what}"
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
        raise ValueError(f"invalid toss label {text!r}: characters must be U or D")
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
    holding ``f`` has children ``f * up`` and ``f * down``. From ``v`` with
    factors ``u`` and ``d`` this is the last price of each ``crr.price_paths``
    list, bit for bit."""
    level = [start]
    for _ in range(n):
        level = [x for f in level for x in (f * up, f * down)]
    return level


def path_probability(m: PathMeasure, path: TossPath) -> float:
    """Product of per-toss weights; the empty path has probability 1."""
    return math.prod(m.p if o else 1.0 - m.p for o in path)


class LatticeProcess:
    """A real value at every node (n, prefix) for n up to the horizon.

    Backed by a function ``level(n)`` that returns the ``2**n`` time-``n``
    values in ``iter_paths`` order, so formula-defined processes (price walks,
    discount curves) compute a level on demand and store nothing up front;
    ``at(n, prefix)`` is ``level(n)[prefix.index()]``, which computes the
    whole level, so loops over nodes should walk ``level`` instead.
    """

    __slots__ = ("horizon", "_level")

    def __init__(self, horizon: int, level: Callable[[int], list[float]]):
        check_horizon(horizon)
        self.horizon = horizon
        self._level = level

    def at(self, n: int, prefix: TossPath) -> float:
        level = self.level(n)  # checks the time before the prefix length
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


def expectation(m: PathMeasure, f: LatticeProcess, n: int) -> float:
    """Expected value of the process at time ``n`` under the path measure."""
    return math.fsum(map(operator.mul, f.level(n), m.weights(n)))


def conditional_expectation_step(
    m: PathMeasure, f: LatticeProcess, n: int, prefix: TossPath
) -> float:
    """One-step conditional expectation: the weighted mean of the two
    children values of ``prefix`` at time ``n + 1``."""
    if len(prefix) != n:
        raise ValueError(f"prefix has length {len(prefix)}, expected {n}")
    up = f.at(n + 1, prefix.child(True))
    down = f.at(n + 1, prefix.child(False))
    return m.p * up + (1.0 - m.p) * down


def is_measurable_at(f: Callable[[TossPath], float], horizon: int, n: int) -> bool:
    """Whether a function of the length-``horizon`` paths depends only on the
    first ``n`` tosses.

    Checked exhaustively: the function must agree on every pair of terminal
    paths sharing a length-``n`` prefix.
    """
    check_horizon(horizon)
    if not 0 <= n <= horizon:
        raise ValueError(f"time {n} outside lattice horizon {horizon}")
    seen: dict[TossPath, float] = {}
    for w in iter_paths(horizon):
        key = w.truncate(n)
        value = f(w)
        if key in seen:
            if value != seen[key]:
                return False
        else:
            seen[key] = value
    return True
