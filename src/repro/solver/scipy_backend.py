"""Cross-check backend: solve the same convex programs with scipy.

The barrier solver in this package is hand-written; to guard against subtle
bugs, this module solves the identical problem with
``scipy.optimize.minimize`` (SLSQP), and the test suite asserts both
backends agree on objective values and solutions.  SLSQP is a local SQP
method, but on convex problems a local optimum is global, so agreement is a
meaningful check.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SolverError
from repro.solver.problem import (
    BoxConstraint,
    ConstraintBlock,
    LinearInequality,
    Objective,
    SqrtSumConstraint,
    max_violation,
)
from repro.solver.result import SolveResult, SolveStatus


def solve_scipy(
    objective: Objective,
    blocks: list[ConstraintBlock],
    x0: np.ndarray,
    *,
    tol: float = 1e-10,
    max_iterations: int = 500,
) -> SolveResult:
    """Solve with scipy SLSQP; same problem interface as `solve_barrier`.

    Args:
        objective: smooth convex objective.
        blocks: constraint blocks (the types from `repro.solver.problem`).
        x0: starting point.
        tol: SLSQP tolerance.
        max_iterations: SLSQP iteration cap.

    Returns:
        A :class:`SolveResult` (status OPTIMAL on SLSQP success with a
        feasible point, INFEASIBLE when SLSQP reports incompatibility or
        the final point violates constraints badly).
    """
    from scipy.optimize import minimize  # deferred: only backend="scipy" pays it

    x0 = np.asarray(x0, dtype=float)
    constraints = []
    bounds = [(None, None)] * len(x0)
    for block in blocks:
        if isinstance(block, LinearInequality):
            a, b = block.a, block.b
            constraints.append(
                {
                    "type": "ineq",
                    "fun": lambda x, a=a, b=b: b - a @ x,
                    "jac": lambda x, a=a: -a,
                }
            )
        elif isinstance(block, BoxConstraint):
            for idx, lo, hi in zip(block.indices, block.lower, block.upper):
                bounds[idx] = (lo, hi)
        elif isinstance(block, SqrtSumConstraint):
            w, idxs, target = block.weights, block.indices, block.target

            def fun(x, w=w, idxs=idxs, target=target):
                return float(w @ np.sqrt(np.clip(x[idxs], 0, None))) - target

            def jac(x, w=w, idxs=idxs):
                g = np.zeros(len(x))
                roots = np.sqrt(np.clip(x[idxs], 1e-12, None))
                g[idxs] = w / (2.0 * roots)
                return g

            constraints.append({"type": "ineq", "fun": fun, "jac": jac})
        else:
            raise SolverError(
                f"scipy backend does not support {type(block).__name__}"
            )

    result = minimize(
        fun=lambda x: objective.value(x),
        x0=x0,
        jac=lambda x: objective.gradient(x),
        bounds=bounds,
        constraints=constraints,
        method="SLSQP",
        options={"maxiter": max_iterations, "ftol": tol},
    )

    violation = max_violation(blocks, result.x)
    feasible = violation <= 1e-6
    if result.success and feasible:
        status = SolveStatus.OPTIMAL
    elif not feasible:
        status = SolveStatus.INFEASIBLE
    else:
        status = SolveStatus.MAX_ITERATIONS
    return SolveResult(
        status=status,
        x=np.asarray(result.x, dtype=float),
        objective=float(result.fun),
        iterations=int(result.nit),
        max_violation=violation,
    )
