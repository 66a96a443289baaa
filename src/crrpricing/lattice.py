"""Finite binary scenario lattice.

Scenarios are finite sequences of coin tosses (up/down). A process assigns a
real value to every node ``(time n, prefix of n tosses)``; adaptedness is
structural because the value at time ``n`` can only be keyed by the first
``n`` outcomes. An i.i.d. Bernoulli weight on tosses turns the lattice into a
finite probability space with exact expectation operators.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping

# Hard stop for exhaustive lattice scans: 2**MAX_HORIZON terminal paths.
MAX_HORIZON = 24

UP = True
DOWN = False

_ONLY_BOOL = frozenset({bool})


def check_horizon(horizon: int) -> int:
    """Validate a lattice horizon against the configured cap."""
    if not isinstance(horizon, int) or horizon < 0:
        raise ValueError(f"horizon must be a nonnegative integer, got {horizon!r}")
    if horizon > MAX_HORIZON:
        raise ValueError(
            f"horizon {horizon} exceeds the exhaustive-enumeration cap "
            f"{MAX_HORIZON} (2**{horizon} paths); reduce the horizon"
        )
    return horizon


@dataclass(frozen=True, slots=True)
class TossPath:
    """An ordered, finite sequence of coin-toss outcomes (True = up)."""

    outcomes: tuple[bool, ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.outcomes, tuple):
            object.__setattr__(self, "outcomes", tuple(self.outcomes))
        if not _ONLY_BOOL.issuperset(map(type, self.outcomes)):  # bool cannot be subclassed
            raise ValueError("toss outcomes must be booleans")

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
        if not self.outcomes:
            return "-"
        return "".join("U" if o else "D" for o in self.outcomes)

    @classmethod
    def from_label(cls, text: str) -> "TossPath":
        """Parse a U/D string; '' and '-' denote the empty path."""
        if text in ("", "-"):
            return cls()
        bad = set(text) - {"U", "D"}
        if bad:
            raise ValueError(f"invalid toss label {text!r}: characters must be U or D")
        return cls(tuple(c == "U" for c in text))

    def __str__(self) -> str:
        return self.label()


EMPTY_PATH = TossPath()


def toss_tuples(length: int) -> Iterator[tuple[bool, ...]]:
    """The outcomes of every toss path of the given length, in ``iter_paths``
    order, as bare tuples for loops that need no ``TossPath``."""
    check_horizon(length)
    return itertools.product((UP, DOWN), repeat=length)


def prefix_labels(length: int) -> Iterator[list[str]]:
    """``label()`` of every toss prefix, one list per time ``0 .. length``,
    each in ``iter_paths`` order; built by appending one toss per level."""
    check_horizon(length)
    yield [EMPTY_PATH.label()]
    labels = [""]
    for _ in range(length):
        labels = [w + c for w in labels for c in "UD"]
        yield labels


def iter_paths(length: int) -> Iterator[TossPath]:
    """All toss paths of the given length, lexicographic with up before down."""
    for combo in toss_tuples(length):
        yield TossPath(combo)


def enumerate_paths(length: int) -> list[TossPath]:
    """All 2**length toss paths of the given length, in deterministic order."""
    return list(iter_paths(length))


@dataclass(frozen=True, slots=True)
class BinaryLattice:
    """Carrier of all toss prefixes up to a fixed horizon."""

    horizon: int

    def __post_init__(self) -> None:
        check_horizon(self.horizon)

    def terminal_paths(self) -> Iterator[TossPath]:
        return iter_paths(self.horizon)


@dataclass(frozen=True, slots=True)
class PathMeasure:
    """I.i.d. Bernoulli weight on tosses: up with probability ``p``."""

    p: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"up-probability must lie in [0, 1], got {self.p!r}")


def path_probability(m: PathMeasure, path: TossPath) -> float:
    """Product of per-toss weights; the empty path has probability 1."""
    return math.prod(m.p if o else 1.0 - m.p for o in path)


class LatticeProcess:
    """A real value at every node (n, prefix) for n up to the horizon.

    Backed by a pure function of the node, so formula-defined processes
    (price walks, discount curves) never materialize the full tree; table
    construction is available when values are only known pointwise.
    """

    __slots__ = ("horizon", "_fn")

    def __init__(self, horizon: int, fn: Callable[[int, TossPath], float]):
        check_horizon(horizon)
        self.horizon = horizon
        self._fn = fn

    def at(self, n: int, prefix: TossPath) -> float:
        if not 0 <= n <= self.horizon:
            raise ValueError(f"time {n} outside process horizon {self.horizon}")
        if len(prefix) != n:
            raise ValueError(
                f"time-{n} values are keyed by length-{n} prefixes, "
                f"got length {len(prefix)}"
            )
        return self._fn(n, prefix)

    def nodes(self) -> Iterator[tuple[int, TossPath]]:
        for n in range(self.horizon + 1):
            for prefix in iter_paths(n):
                yield n, prefix

    @classmethod
    def from_table(cls, horizon: int, table: Mapping[tuple[int, TossPath], float]) -> "LatticeProcess":
        """Build from an explicit node table; the table must cover exactly
        the nodes of the horizon, no more and no fewer."""
        check_horizon(horizon)
        data = dict(table)
        for key in data:
            n, prefix = key
            if not (isinstance(n, int) and 0 <= n <= horizon and len(prefix) == n):
                raise ValueError(f"table key {key!r} is not a node of a horizon-{horizon} lattice")
        expected = 2 ** (horizon + 1) - 1
        if len(data) != expected:
            raise ValueError(
                f"table covers {len(data)} nodes but a horizon-{horizon} "
                f"lattice has {expected}"
            )
        return cls(horizon, lambda n, w: data[(n, w)])

    @classmethod
    def constant(cls, horizon: int, value: float) -> "LatticeProcess":
        return cls(horizon, lambda n, w: value)

    @classmethod
    def deterministic(cls, values_by_time: list[float]) -> "LatticeProcess":
        """A process constant across same-length prefixes (one value per time)."""
        if not values_by_time:
            raise ValueError("need at least the time-0 value")
        vals = list(values_by_time)
        return cls(len(vals) - 1, lambda n, w: vals[n])


def expectation(m: PathMeasure, f: LatticeProcess, n: int) -> float:
    """Expected value of the process at time ``n`` under the path measure."""
    if n > f.horizon:
        raise ValueError(f"time {n} outside process horizon {f.horizon}")
    return math.fsum(path_probability(m, w) * f.at(n, w) for w in iter_paths(n))


def conditional_expectation_step(
    m: PathMeasure, f: LatticeProcess, n: int, prefix: TossPath
) -> float:
    """One-step conditional expectation: the weighted mean of the two
    children values of ``prefix`` at time ``n + 1``."""
    if len(prefix) != n:
        raise ValueError(f"prefix has length {len(prefix)}, expected {n}")
    if n + 1 > f.horizon:
        raise ValueError(f"time {n + 1} outside process horizon {f.horizon}")
    up = f.at(n + 1, prefix.child(True))
    down = f.at(n + 1, prefix.child(False))
    return m.p * up + (1.0 - m.p) * down


def is_measurable_at(
    f: Callable[[TossPath], float], lattice: BinaryLattice, n: int
) -> bool:
    """Whether a full-path function depends only on the first ``n`` tosses.

    Checked exhaustively: the function must agree on every pair of terminal
    paths sharing a length-``n`` prefix.
    """
    if not 0 <= n <= lattice.horizon:
        raise ValueError(f"time {n} outside lattice horizon {lattice.horizon}")
    seen: dict[TossPath, float] = {}
    for w in lattice.terminal_paths():
        key = w.truncate(n)
        value = f(w)
        if key in seen:
            if value != seen[key]:
                return False
        else:
            seen[key] = value
    return True
