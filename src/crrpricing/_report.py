"""``ReplicationReport``, the package's one dataclass, kept apart so that
importing ``dataclasses`` is paid only by the commands that verify a hedge.

``crrpricing`` and ``crrpricing.pricing`` both export the name, loading this
module on first access.
"""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ReplicationReport:
    """Clause-by-clause outcome of checking a hedge against a payoff; both the
    cash gaps and the terminal errors were held to ``tolerance``."""

    self_financing: bool
    max_terminal_error: float
    init_value: float
    tolerance: float

    @property
    def terminal_match(self) -> bool:
        return self.max_terminal_error <= self.tolerance

    def is_replicating(self) -> bool:
        return self.self_financing and self.terminal_match
