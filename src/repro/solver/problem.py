"""Convex problem building blocks: objectives and constraint blocks.

The barrier solver (`repro.solver.barrier`) consumes:

* an **objective** exposing ``value(x)``, ``gradient(x)`` and ``hessian(x)``;
* a list of **constraint blocks**, each representing a batch of scalar
  convex inequalities ``f_i(x) <= 0`` and exposing residuals plus the
  log-barrier contribution ``-sum_i log(-f_i(x))`` with its gradient and
  Hessian.

Only the pieces needed by the Pro-Temp program family are implemented —
linear objectives, linear inequalities and the concave square-root
frequency constraint (Eq. 3's ``sum_i f_i >= n f_target`` expressed in power
variables) — but each is written against the generic interface so the solver
itself stays problem-agnostic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, runtime_checkable

import numpy as np

from repro.errors import SolverError

#: Slacks below this are treated as domain violations.  1/slack^2 would
#: overflow to inf near 1e-154 and poison Newton's linear solve; the line
#: search backtracks instead.
SLACK_FLOOR = 1e-120


@runtime_checkable
class Objective(Protocol):
    """Smooth convex objective."""

    def value(self, x: np.ndarray) -> float:
        """Objective value at `x`."""
        ...

    def gradient(self, x: np.ndarray) -> np.ndarray:
        """Gradient at `x`, shape (n,)."""
        ...

    def hessian(self, x: np.ndarray) -> np.ndarray:
        """Hessian at `x`, shape (n, n)."""
        ...


@runtime_checkable
class ConstraintBlock(Protocol):
    """A batch of scalar convex inequality constraints ``f_i(x) <= 0``."""

    def residuals(self, x: np.ndarray) -> np.ndarray:
        """Constraint values ``f_i(x)`` (feasible iff all <= 0)."""
        ...

    def barrier(
        self, x: np.ndarray
    ) -> tuple[float, np.ndarray, np.ndarray]:
        """Value, gradient and Hessian of ``-sum_i log(-f_i(x))``.

        Returns ``(inf, garbage, garbage)`` outside the domain
        (any ``f_i(x) >= 0``); the Newton line search backtracks out of it.
        """
        ...

    def count(self) -> int:
        """Number of scalar constraints in the block."""
        ...


# ---------------------------------------------------------------------------
# Objectives
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LinearObjective:
    """``c^T x``."""

    c: np.ndarray

    def value(self, x: np.ndarray) -> float:
        return float(self.c @ x)

    def gradient(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(self.c, dtype=float)

    def hessian(self, x: np.ndarray) -> np.ndarray:
        n = len(self.c)
        return np.zeros((n, n))


@dataclass(frozen=True)
class QuadraticObjective:
    """``(1/2) x^T Q x + c^T x`` with PSD ``Q``."""

    q: np.ndarray
    c: np.ndarray

    def value(self, x: np.ndarray) -> float:
        return float(0.5 * x @ self.q @ x + self.c @ x)

    def gradient(self, x: np.ndarray) -> np.ndarray:
        return self.q @ x + self.c

    def hessian(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(self.q, dtype=float)


# ---------------------------------------------------------------------------
# Constraint blocks
# ---------------------------------------------------------------------------


@dataclass
class NegativeSqrtObjective:
    """``-sum_i w_i sqrt(x_i)`` over selected components (convex).

    Minimizing it *maximizes* the weighted sqrt-sum — used to compute the
    maximum feasible average frequency in one solve (Figure 9) and to drive
    phase I for sqrt-sum constraints.  ``+inf`` outside ``x_i > 0`` keeps
    Newton's line search inside the domain.

    Attributes:
        weights: positive coefficients, shape (k,).
        indices: components entering the sum, shape (k,).
        n_vars: dimensionality of the full variable vector.
    """

    weights: np.ndarray
    indices: np.ndarray
    n_vars: int

    def __post_init__(self) -> None:
        self.weights = np.asarray(self.weights, dtype=float)
        self.indices = np.asarray(self.indices, dtype=int)
        if self.weights.shape != self.indices.shape:
            raise SolverError("weights and indices must have the same shape")
        if np.any(self.weights <= 0):
            raise SolverError("sqrt objective weights must be positive")

    def value(self, x: np.ndarray) -> float:
        vals = x[self.indices]
        if np.any(vals <= 0):
            return np.inf
        return -float(self.weights @ np.sqrt(vals))

    def gradient(self, x: np.ndarray) -> np.ndarray:
        grad = np.zeros(self.n_vars)
        # Clip keeps derivatives finite: roots**3 underflows to zero below
        # ~1e-103, which would divide-by-zero in the Hessian.
        roots = np.sqrt(np.clip(x[self.indices], 1e-18, None))
        grad[self.indices] = -self.weights / (2.0 * roots)
        return grad

    def hessian(self, x: np.ndarray) -> np.ndarray:
        diag = np.zeros(self.n_vars)
        roots = np.sqrt(np.clip(x[self.indices], 1e-18, None))
        diag[self.indices] = self.weights / (4.0 * roots**3)
        return np.diag(diag)


@dataclass
class LinearInequality:
    """``A x <= b`` as one block of ``len(b)`` scalar constraints."""

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self) -> None:
        self.a = np.atleast_2d(np.asarray(self.a, dtype=float))
        self.b = np.asarray(self.b, dtype=float)
        if self.a.shape[0] != self.b.shape[0]:
            raise SolverError(
                f"A has {self.a.shape[0]} rows but b has {self.b.shape[0]}"
            )

    def residuals(self, x: np.ndarray) -> np.ndarray:
        return self.a @ x - self.b

    def barrier(self, x: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
        slack = self.b - self.a @ x
        if np.any(slack <= SLACK_FLOOR):
            n = len(x)
            return np.inf, np.zeros(n), np.zeros((n, n))
        inv = 1.0 / slack
        value = -float(np.log(slack).sum())
        grad = self.a.T @ inv
        hess = (self.a * (inv**2)[:, None]).T @ self.a
        return value, grad, hess

    def count(self) -> int:
        return len(self.b)


@dataclass
class SqrtSumConstraint:
    """``target - sum_i w_i sqrt(x_i) <= 0`` over selected components.

    This encodes the paper's average-frequency requirement (Eq. 3) in power
    space: with ``f_i = f_max sqrt(p_i / p_max)``, the constraint
    ``sum f_i >= n f_target`` becomes ``sum_i (f_max / sqrt(p_max)) sqrt(p_i)
    >= n f_target``, whose left side is concave — so the set is convex.

    Attributes:
        weights: positive coefficients ``w_i``, shape (k,).
        indices: which components of x enter the sum, shape (k,).
        target: required lower bound on the weighted sqrt-sum.
    """

    weights: np.ndarray
    indices: np.ndarray
    target: float

    def __post_init__(self) -> None:
        self.weights = np.asarray(self.weights, dtype=float)
        self.indices = np.asarray(self.indices, dtype=int)
        if self.weights.shape != self.indices.shape:
            raise SolverError("weights and indices must have the same shape")
        if np.any(self.weights <= 0):
            raise SolverError("sqrt-sum weights must be positive")

    def _sqrt_terms(self, x: np.ndarray) -> np.ndarray | None:
        vals = x[self.indices]
        if vals.size and vals.min() <= 0:
            return None
        return np.sqrt(vals)

    def residuals(self, x: np.ndarray) -> np.ndarray:
        vals = np.clip(x[self.indices], 0.0, None)
        return np.array([self.target - float(self.weights @ np.sqrt(vals))])

    def barrier(self, x: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
        n = len(x)
        roots = self._sqrt_terms(x)
        if roots is None:
            return np.inf, np.zeros(n), np.zeros((n, n))
        slack = float(self.weights @ roots) - self.target
        if slack <= SLACK_FLOOR:
            return np.inf, np.zeros(n), np.zeros((n, n))
        # g(x) = target - sum w sqrt(x); barrier = -log(-g) = -log(slack)
        # dg/dx_i = -w_i / (2 sqrt(x_i));  d2g/dx_i2 = w_i / (4 x_i^(3/2))
        dg = np.zeros(n)
        dg[self.indices] = -self.weights / (2.0 * roots)
        d2g_diag = np.zeros(n)
        d2g_diag[self.indices] = self.weights / (4.0 * roots**3)
        # barrier = -log(-g) = -log(slack); d/dx = dg/slack;
        # d2/dx2 = (dg dg^T)/slack^2 + (d2g)/slack.
        value = -np.log(slack)
        grad = dg / slack
        hess = np.outer(dg, dg) / slack**2 + np.diag(d2g_diag) / slack
        return value, grad, hess

    def barrier_value(self, x: np.ndarray) -> float:
        """``barrier(x)[0]`` alone, bit for bit, without the derivatives.

        Same roots, same slack and the same ``-log(slack)``; the gradient
        and Hessian that `barrier` builds are skipped.  Line-search trials
        only need this value.
        """
        roots = self._sqrt_terms(x)
        if roots is None:
            return np.inf
        slack = float(self.weights @ roots) - self.target
        if slack <= SLACK_FLOOR:
            return np.inf
        return -np.log(slack)

    def count(self) -> int:
        return 1


@dataclass
class BoxConstraint:
    """``lower <= x_i <= upper`` for selected components.

    Implemented as a dedicated block (rather than two LinearInequality
    blocks) because the barrier terms are diagonal and cheap.
    """

    lower: np.ndarray
    upper: np.ndarray
    indices: np.ndarray

    def __post_init__(self) -> None:
        self.lower = np.asarray(self.lower, dtype=float)
        self.upper = np.asarray(self.upper, dtype=float)
        self.indices = np.asarray(self.indices, dtype=int)
        if not (
            self.lower.shape == self.upper.shape == self.indices.shape
        ):
            raise SolverError("lower, upper, indices must share a shape")
        if np.any(self.lower >= self.upper):
            raise SolverError("box constraints need lower < upper")

    def residuals(self, x: np.ndarray) -> np.ndarray:
        vals = x[self.indices]
        return np.concatenate([self.lower - vals, vals - self.upper])

    def barrier(self, x: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
        n = len(x)
        vals = x[self.indices]
        lo_slack = vals - self.lower
        hi_slack = self.upper - vals
        if np.any(lo_slack <= SLACK_FLOOR) or np.any(hi_slack <= SLACK_FLOOR):
            return np.inf, np.zeros(n), np.zeros((n, n))
        value = -float(np.log(lo_slack).sum() + np.log(hi_slack).sum())
        grad = np.zeros(n)
        grad[self.indices] = -1.0 / lo_slack + 1.0 / hi_slack
        hess_diag = np.zeros(n)
        hess_diag[self.indices] = 1.0 / lo_slack**2 + 1.0 / hi_slack**2
        return value, grad, np.diag(hess_diag)

    def count(self) -> int:
        return 2 * len(self.indices)


def total_constraints(blocks: list[ConstraintBlock]) -> int:
    """Total number of scalar constraints across blocks."""
    return sum(block.count() for block in blocks)


def max_violation(blocks: list[ConstraintBlock], x: np.ndarray) -> float:
    """Largest residual across all blocks (<= 0 means feasible)."""
    if not blocks:
        return 0.0
    return max(float(np.max(block.residuals(x))) for block in blocks)
