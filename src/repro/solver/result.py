"""Solver result types."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np


class SolveStatus(enum.Enum):
    """Termination status of a convex solve."""

    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    MAX_ITERATIONS = "max_iterations"

    @property
    def ok(self) -> bool:
        """True when the solve produced a usable optimal point."""
        return self is SolveStatus.OPTIMAL


@dataclass
class SolveResult:
    """Outcome of a convex optimization solve.

    Attributes:
        status: termination status.
        x: primal solution (meaningful when `status.ok`; for INFEASIBLE it
            holds the least-infeasible point found by phase I).
        objective: objective value at `x`.
        iterations: total Newton iterations across all barrier stages.
        duality_gap: final barrier duality-gap bound ``m / t`` (0 when not
            applicable).
        dual_variables: barrier estimates of the inequality multipliers,
            one per scalar constraint, in constraint-block order.
        max_violation: largest constraint violation at `x` (<= 0 means
            feasible; for INFEASIBLE this is the certified positive minimum
            infeasibility).
        line_search_trials: line-search trial points evaluated across all
            barrier stages (phase I is not counted, as in `iterations`).
    """

    status: SolveStatus
    x: np.ndarray
    objective: float
    iterations: int = 0
    duality_gap: float = 0.0
    dual_variables: np.ndarray = field(default_factory=lambda: np.zeros(0))
    max_violation: float = 0.0
    line_search_trials: int = 0

    @property
    def ok(self) -> bool:
        """True when the solve produced a usable optimal point."""
        return self.status.ok
