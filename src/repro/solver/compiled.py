"""Precompiled constraint stacks for fast repeated barrier evaluation.

The barrier solver's inner loop evaluates the log-barrier of every
constraint block at every Newton step.  The generic path walks the block
list in Python, paying one set of allocations and one small GEMM per block
per evaluation.  For the Pro-Temp program family that loop is pure
overhead: all but one block are linear (`LinearInequality`) or separable
(`BoxConstraint`), so their barrier terms can be evaluated in a handful of
vectorized operations over one stacked matrix.

:class:`CompiledConstraints` performs that stacking **once**:

* all ``LinearInequality`` rows are concatenated into a single matrix
  ``A`` / vector ``b`` whose barrier is evaluated as ``A.T @ w`` and
  ``(A * w).T @ A`` (one GEMV + one GEMM per evaluation, regardless of how
  many linear blocks the problem was assembled from);
* all ``BoxConstraint`` bounds are concatenated into flat index/bound
  arrays whose barrier contribution is diagonal and fully vectorized;
* any other block (in practice the single `SqrtSumConstraint`) is kept as
  an opaque fallback evaluated through the generic
  ``ConstraintBlock.barrier`` protocol.

Because the stacked matrix depends only on the problem *structure* — not
on right-hand sides — a compiled stack can be cheaply rebound to a new
block list with identical shape via :meth:`CompiledConstraints.with_blocks`.
This is what makes Phase-1 table sweeps fast: across a
(temperature x frequency) grid only the RHS offsets and the sqrt target
change, so the matrix stack is compiled once per sweep and shared by every
cell (see `repro.core.protemp.ProTempOptimizer`).

**Sparse row pruning** builds on the stacked form:
:meth:`CompiledConstraints.prune_linear_rows` keeps only a caller-chosen
subset of the stacked linear rows (the rows observed near-active at
previous optima; most thermal step rows never are).  The pruned program
is a relaxation, so its solution must be re-checked against the full
stack (`max_violation`) — see `repro.core.protemp.ProTempOptimizer` for
the fallback protocol that makes this sound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import SolverError
from repro.solver.problem import (
    SLACK_FLOOR,
    BoxConstraint,
    ConstraintBlock,
    LinearInequality,
    SqrtSumConstraint,
)


def stack_flat_rows(
    blocks: list[ConstraintBlock], n_vars: int
) -> tuple[np.ndarray, np.ndarray]:
    """Stack linear and box blocks into one ``A x <= b`` system.

    Box bounds are expanded to ``+/- e_i`` rows (per block: all lower
    rows, then all upper rows), matching the residual convention of
    `BoxConstraint`.  Used by phase I, which needs a uniform row-wise
    view of the flat constraints.

    Raises:
        SolverError: on a block type with non-constant Jacobian.
    """
    a_parts: list[np.ndarray] = []
    b_parts: list[np.ndarray] = []
    for block in blocks:
        if isinstance(block, LinearInequality):
            a_parts.append(block.a)
            b_parts.append(block.b)
        elif isinstance(block, BoxConstraint):
            k = len(block.indices)
            rows = np.zeros((2 * k, n_vars))
            arange = np.arange(k)
            rows[arange, block.indices] = -1.0  # lower - x <= 0
            rows[k + arange, block.indices] = 1.0  # x - upper <= 0
            a_parts.append(rows)
            b_parts.append(np.concatenate([-block.lower, block.upper]))
        else:
            raise SolverError(
                f"cannot stack non-flat block {type(block).__name__}"
            )
    if not a_parts:
        return np.zeros((0, n_vars)), np.zeros(0)
    return (
        np.ascontiguousarray(np.vstack(a_parts)),
        np.concatenate(b_parts),
    )


def blocks_signature(
    blocks: list[ConstraintBlock],
) -> tuple[tuple[str, int], ...]:
    """Structural fingerprint of a block list: per-block ``(kind, rows)``.

    Two block lists with equal signatures can share one compiled matrix
    stack (see :meth:`CompiledConstraints.with_blocks`).
    """
    signature: list[tuple[str, int]] = []
    for block in blocks:
        if isinstance(block, LinearInequality):
            signature.append(("linear", block.a.shape[0]))
        elif isinstance(block, BoxConstraint):
            signature.append(("box", len(block.indices)))
        else:
            signature.append((type(block).__name__, block.count()))
    return tuple(signature)


@dataclass(frozen=True)
class CompiledConstraints:
    """A constraint-block list compiled to stacked arrays.

    Build with :meth:`compile`; rebind right-hand sides with
    :meth:`with_blocks`.

    Attributes:
        a: stacked ``LinearInequality`` rows, shape (m_lin, n_vars).
        b: stacked right-hand sides, shape (m_lin,).
        box_indices: concatenated box-constraint variable indices.
        box_lower: concatenated lower bounds (aligned with `box_indices`).
        box_upper: concatenated upper bounds (aligned with `box_indices`).
        nonlinear: blocks evaluated through the generic barrier protocol.
        n_vars: dimensionality of the variable vector.
        signature: per-block structural fingerprint ``(kind, rows)`` used to
            decide whether a block list is shape-compatible with this stack.
    """

    a: np.ndarray
    b: np.ndarray
    box_indices: np.ndarray
    box_lower: np.ndarray
    box_upper: np.ndarray
    nonlinear: tuple[ConstraintBlock, ...]
    n_vars: int
    signature: tuple[tuple[str, int], ...]
    box_unique: bool = True

    # -- construction -------------------------------------------------------

    @classmethod
    def compile(
        cls, blocks: list[ConstraintBlock], n_vars: int
    ) -> "CompiledConstraints":
        """Stack `blocks` into vectorized form.

        Args:
            blocks: constraint blocks (any mix of types; unknown types fall
                back to their own ``barrier``/``residuals`` methods).
            n_vars: dimensionality of the variable vector.

        Returns:
            The compiled stack.
        """
        a_parts: list[np.ndarray] = []
        b_parts: list[np.ndarray] = []
        idx_parts: list[np.ndarray] = []
        lo_parts: list[np.ndarray] = []
        hi_parts: list[np.ndarray] = []
        nonlinear: list[ConstraintBlock] = []
        for block in blocks:
            if isinstance(block, LinearInequality):
                if block.a.shape[1] != n_vars:
                    raise SolverError(
                        f"linear block has {block.a.shape[1]} columns, "
                        f"expected {n_vars}"
                    )
                a_parts.append(block.a)
                b_parts.append(block.b)
            elif isinstance(block, BoxConstraint):
                idx_parts.append(block.indices)
                lo_parts.append(block.lower)
                hi_parts.append(block.upper)
            else:
                nonlinear.append(block)
        a = (
            np.ascontiguousarray(np.vstack(a_parts))
            if a_parts
            else np.zeros((0, n_vars))
        )
        b = np.concatenate(b_parts) if b_parts else np.zeros(0)
        box_indices = (
            np.concatenate(idx_parts) if idx_parts else np.zeros(0, dtype=int)
        )
        return cls(
            a=a,
            b=b,
            box_indices=box_indices,
            box_lower=np.concatenate(lo_parts) if lo_parts else np.zeros(0),
            box_upper=np.concatenate(hi_parts) if hi_parts else np.zeros(0),
            nonlinear=tuple(nonlinear),
            n_vars=int(n_vars),
            signature=blocks_signature(blocks),
            box_unique=bool(
                len(np.unique(box_indices)) == len(box_indices)
            ),
        )

    def with_blocks(
        self, blocks: list[ConstraintBlock]
    ) -> "CompiledConstraints":
        """Rebind RHS data from a structurally identical block list.

        Reuses the stacked matrix ``a`` (the expensive part) and re-reads
        only the right-hand sides, bounds and nonlinear blocks.  The caller
        guarantees the linear rows of `blocks` are numerically equal to the
        compiled ones — true across a Phase-1 sweep, where the response
        matrix depends only on the platform, never on the design point.

        Raises:
            SolverError: when the structure differs (block kinds or row
                counts); callers should fall back to :meth:`compile`.
        """
        if blocks_signature(blocks) != self.signature:
            raise SolverError(
                "block list is not structure-compatible with compiled stack"
            )
        b_parts = [
            block.b for block in blocks if isinstance(block, LinearInequality)
        ]
        boxes = [block for block in blocks if isinstance(block, BoxConstraint)]
        if boxes and not np.array_equal(
            np.concatenate([box.indices for box in boxes]), self.box_indices
        ):
            raise SolverError(
                "box-constraint indices differ from the compiled stack"
            )
        nonlinear = tuple(
            block
            for block in blocks
            if not isinstance(block, (LinearInequality, BoxConstraint))
        )
        b = np.concatenate(b_parts) if b_parts else np.zeros(0)
        return CompiledConstraints(
            a=self.a,
            b=b,
            box_indices=self.box_indices,
            box_lower=(
                np.concatenate([box.lower for box in boxes])
                if boxes
                else np.zeros(0)
            ),
            box_upper=(
                np.concatenate([box.upper for box in boxes])
                if boxes
                else np.zeros(0)
            ),
            nonlinear=nonlinear,
            n_vars=self.n_vars,
            signature=self.signature,
            box_unique=self.box_unique,
        )

    def prune_linear_rows(self, keep: np.ndarray) -> "CompiledConstraints":
        """Stack with only the linear rows selected by boolean mask `keep`.

        Box and nonlinear blocks are preserved untouched.  The pruned stack
        describes a *relaxation* of the original program: a solution found
        against it is optimal for the full program only if it also
        satisfies the dropped rows — callers must re-check with the full
        stack's :meth:`max_violation` and fall back on violation.

        Args:
            keep: boolean mask over the ``a`` rows, shape (m_lin,).

        Returns:
            A new :class:`CompiledConstraints` whose signature reflects the
            reduced row count (it is *not* `with_blocks`-compatible with
            the full stack).
        """
        keep = np.asarray(keep, dtype=bool)
        if keep.shape != (self.a.shape[0],):
            raise SolverError(
                f"prune mask has shape {keep.shape}, expected "
                f"({self.a.shape[0]},)"
            )
        signature = (("linear", int(keep.sum())),) + tuple(
            s for s in self.signature if s[0] != "linear"
        )
        return CompiledConstraints(
            a=np.ascontiguousarray(self.a[keep]),
            b=self.b[keep],
            box_indices=self.box_indices,
            box_lower=self.box_lower,
            box_upper=self.box_upper,
            nonlinear=self.nonlinear,
            n_vars=self.n_vars,
            signature=signature,
            box_unique=self.box_unique,
        )

    # -- evaluation ---------------------------------------------------------

    def linear_slacks(self, x: np.ndarray) -> np.ndarray:
        """Slacks ``b - A x`` of the stacked linear rows (> 0 inside)."""
        return self.b - self.a @ x

    def barrier_value(self, x: np.ndarray) -> float:
        """Barrier value alone — the line-search fast path.

        Bit for bit ``barrier(x)[0]``, skipping every gradient/Hessian
        product.  Newton line searches only need values at trial points,
        and most trials land outside the domain, so the domain is screened
        cheapest first: the nonlinear blocks (in practice the one sqrt-sum
        row, which rejects most trials), then the box rows, and only then
        the m-row linear GEMV.  The value is still accumulated in
        `barrier`'s order — linear, box, nonlinear — so every sum rounds
        the same way.

        The screens test ``slack.min() <= SLACK_FLOOR``, which is
        ``np.any(slack <= SLACK_FLOOR)`` without the temporary for any
        NaN-free slack.  A NaN slack may pass the screen, but then the
        value is NaN, and the stage evaluators treat a non-finite barrier
        exactly like ``inf``.
        """
        nonlinear_values = []
        for block in self.nonlinear:
            if isinstance(block, SqrtSumConstraint):
                b_val = block.barrier_value(x)
            else:
                b_val = block.barrier(x)[0]
            if not math.isfinite(b_val):
                return np.inf
            nonlinear_values.append(b_val)
        box_value = 0.0
        if self.box_indices.size:
            vals = x[self.box_indices]
            lo_slack = vals - self.box_lower
            hi_slack = self.box_upper - vals
            if (
                lo_slack.min() <= SLACK_FLOOR
                or hi_slack.min() <= SLACK_FLOOR
            ):
                return np.inf
            box_value = float(
                np.log(lo_slack).sum() + np.log(hi_slack).sum()
            )
        value = 0.0
        if self.a.shape[0]:
            slack = self.b - self.a @ x
            if slack.min() <= SLACK_FLOOR:
                return np.inf
            value -= float(np.log(slack).sum())
        if self.box_indices.size:
            value -= box_value
        for b_val in nonlinear_values:
            value += b_val
        return value

    def barrier(self, x: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
        """Value, gradient and Hessian of the total log barrier at `x`.

        Equivalent to summing ``block.barrier(x)`` over the original block
        list, but the linear and box parts are evaluated in stacked
        vectorized form.  Returns ``(inf, garbage, garbage)`` outside the
        domain, matching the `ConstraintBlock` protocol.
        """
        n = self.n_vars
        value = 0.0
        grad = np.zeros(n)
        hess = np.zeros((n, n))

        if self.a.shape[0]:
            slack = self.b - self.a @ x
            if slack.min() <= SLACK_FLOOR:
                return np.inf, grad, hess
            inv = 1.0 / slack
            value -= float(np.log(slack).sum())
            grad += self.a.T @ inv
            hess += (self.a * (inv * inv)[:, None]).T @ self.a

        if self.box_indices.size:
            vals = x[self.box_indices]
            lo_slack = vals - self.box_lower
            hi_slack = self.box_upper - vals
            if (
                lo_slack.min() <= SLACK_FLOOR
                or hi_slack.min() <= SLACK_FLOOR
            ):
                return np.inf, grad, hess
            value -= float(
                np.log(lo_slack).sum() + np.log(hi_slack).sum()
            )
            inv_lo = 1.0 / lo_slack
            inv_hi = 1.0 / hi_slack
            if self.box_unique:
                grad[self.box_indices] += -inv_lo + inv_hi
                hess[self.box_indices, self.box_indices] += (
                    inv_lo * inv_lo + inv_hi * inv_hi
                )
            else:
                # np.add.at tolerates repeated indices across stacked boxes.
                np.add.at(grad, self.box_indices, -inv_lo + inv_hi)
                diag = np.zeros(n)
                np.add.at(
                    diag, self.box_indices, inv_lo * inv_lo + inv_hi * inv_hi
                )
                hess[np.diag_indices(n)] += diag

        for block in self.nonlinear:
            b_val, b_grad, b_hess = block.barrier(x)
            if not math.isfinite(b_val):
                return np.inf, grad, hess
            value += b_val
            grad += b_grad
            hess += b_hess
        return value, grad, hess

    def max_violation(self, x: np.ndarray) -> float:
        """Largest constraint residual at `x` (<= 0 means feasible)."""
        worst = -np.inf
        if self.a.shape[0]:
            worst = max(worst, float(np.max(self.a @ x - self.b)))
        if self.box_indices.size:
            vals = x[self.box_indices]
            worst = max(worst, float(np.max(self.box_lower - vals)))
            worst = max(worst, float(np.max(vals - self.box_upper)))
        for block in self.nonlinear:
            worst = max(worst, float(np.max(block.residuals(x))))
        if worst == -np.inf:
            return 0.0
        return worst

    def count(self) -> int:
        """Total number of scalar constraints."""
        return (
            int(self.a.shape[0])
            + 2 * int(self.box_indices.size)
            + sum(block.count() for block in self.nonlinear)
        )
