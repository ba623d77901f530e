"""Tests for the compiled (stacked, vectorized) constraint representation."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import SolverError
from repro.solver import (
    BoxConstraint,
    CompiledConstraints,
    LinearInequality,
    LinearObjective,
    SqrtSumConstraint,
    max_violation,
    solve_barrier,
    total_constraints,
)
from repro.solver.barrier import (
    _generic_stage_function,
    _linear_stage_function,
    _stage_value_function,
)
from repro.solver.compiled import blocks_signature


def make_blocks(n=4, seed=0):
    """A Pro-Temp-shaped block mix: two linear blocks, a box, a sqrt."""
    rng = np.random.default_rng(seed)
    return [
        LinearInequality(a=rng.normal(size=(7, n)), b=rng.uniform(2, 4, 7)),
        LinearInequality(a=rng.normal(size=(3, n)), b=rng.uniform(2, 4, 3)),
        BoxConstraint(
            lower=np.full(n, 0.01), upper=np.full(n, 2.0), indices=np.arange(n)
        ),
        SqrtSumConstraint(
            weights=np.ones(n - 1), indices=np.arange(n - 1), target=0.5
        ),
    ]


class TestEquivalence:
    def test_barrier_matches_block_sum(self):
        blocks = make_blocks()
        compiled = CompiledConstraints.compile(blocks, 4)
        rng = np.random.default_rng(1)
        for _ in range(20):
            x = rng.uniform(0.05, 1.5, 4)
            ref_val, ref_grad, ref_hess = 0.0, np.zeros(4), np.zeros((4, 4))
            finite = True
            for block in blocks:
                v, g, h = block.barrier(x)
                if not np.isfinite(v):
                    finite = False
                    break
                ref_val += v
                ref_grad = ref_grad + g
                ref_hess = ref_hess + h
            val, grad, hess = compiled.barrier(x)
            if not finite:
                assert not np.isfinite(val)
                continue
            assert val == pytest.approx(ref_val, rel=1e-12)
            np.testing.assert_allclose(grad, ref_grad, rtol=1e-12)
            np.testing.assert_allclose(hess, ref_hess, rtol=1e-12)

    def test_outside_domain_is_inf(self):
        blocks = make_blocks()
        compiled = CompiledConstraints.compile(blocks, 4)
        val, _, _ = compiled.barrier(np.full(4, 10.0))  # above the box
        assert np.isinf(val)

    def test_max_violation_matches(self):
        blocks = make_blocks()
        compiled = CompiledConstraints.compile(blocks, 4)
        rng = np.random.default_rng(2)
        for _ in range(20):
            x = rng.uniform(-0.5, 3.0, 4)
            assert compiled.max_violation(x) == pytest.approx(
                max_violation(blocks, x), rel=1e-12, abs=1e-15
            )

    def test_count_matches(self):
        blocks = make_blocks()
        compiled = CompiledConstraints.compile(blocks, 4)
        assert compiled.count() == total_constraints(blocks)

    def test_solve_barrier_agrees_with_uncompiled(self):
        blocks = make_blocks()
        compiled = CompiledConstraints.compile(blocks, 4)
        objective = LinearObjective(c=np.ones(4))
        x0 = np.full(4, 0.5)
        plain = solve_barrier(objective, blocks, x0)
        fast = solve_barrier(objective, blocks, x0, compiled=compiled)
        assert plain.ok and fast.ok
        np.testing.assert_allclose(fast.x, plain.x, rtol=1e-9)
        assert fast.objective == pytest.approx(plain.objective, rel=1e-9)


class TestRebinding:
    def test_with_blocks_updates_rhs(self):
        blocks = make_blocks(seed=0)
        compiled = CompiledConstraints.compile(blocks, 4)
        shifted = [
            LinearInequality(a=blocks[0].a, b=blocks[0].b + 0.5),
            LinearInequality(a=blocks[1].a, b=blocks[1].b + 0.5),
            blocks[2],
            SqrtSumConstraint(
                weights=np.ones(3), indices=np.arange(3), target=0.9
            ),
        ]
        rebound = compiled.with_blocks(shifted)
        assert rebound.a is compiled.a  # matrix stack is shared
        x = np.full(4, 0.4)
        val, grad, hess = rebound.barrier(x)
        ref = [b.barrier(x) for b in shifted]
        assert val == pytest.approx(sum(r[0] for r in ref), rel=1e-12)
        np.testing.assert_allclose(
            grad, sum(r[1] for r in ref), rtol=1e-12
        )

    def test_with_blocks_rejects_structure_change(self):
        blocks = make_blocks()
        compiled = CompiledConstraints.compile(blocks, 4)
        with pytest.raises(SolverError, match="structure"):
            compiled.with_blocks(blocks[:-1])

    def test_with_blocks_rejects_reindexed_box(self):
        """Same shape but different box indices must not silently rebind."""
        blocks = [
            LinearInequality(a=np.ones((2, 4)), b=np.full(2, 5.0)),
            BoxConstraint(
                lower=np.zeros(2), upper=np.ones(2), indices=np.array([0, 1])
            ),
        ]
        compiled = CompiledConstraints.compile(blocks, 4)
        moved = [
            blocks[0],
            BoxConstraint(
                lower=np.zeros(2), upper=np.ones(2), indices=np.array([2, 3])
            ),
        ]
        with pytest.raises(SolverError, match="indices"):
            compiled.with_blocks(moved)

    def test_signature_distinguishes_row_counts(self):
        blocks = make_blocks()
        other = make_blocks()
        other[0] = LinearInequality(
            a=np.ones((2, 4)), b=np.ones(2)
        )
        assert blocks_signature(blocks) != blocks_signature(other)
        assert blocks_signature(blocks) == blocks_signature(make_blocks(seed=9))


class TestWarmStartPath:
    def test_strictly_feasible_start_skips_phase_one(self, monkeypatch):
        """A strictly feasible x0 must never enter phase I."""
        import repro.solver.barrier as barrier_mod

        def boom(*args, **kwargs):  # pragma: no cover - should not run
            raise AssertionError("phase I was entered despite warm start")

        monkeypatch.setattr(barrier_mod, "find_strictly_feasible", boom)
        blocks = make_blocks()
        objective = LinearObjective(c=np.ones(4))
        result = solve_barrier(objective, blocks, np.full(4, 0.5))
        assert result.ok


def bits(value) -> bytes:
    """The float64 bit pattern of a scalar (tells -0.0 from 0.0)."""
    return np.float64(value).tobytes()


@st.composite
def block_mixes(draw):
    """Pro-Temp-shaped block mixes around a known interior point.

    Any of the linear rows, the box and the sqrt-sum row may be absent;
    box indices may repeat across (and within) box blocks; the linear
    rows are sparse, so the stacked Hessian can hold ``-0.0`` entries.
    Returns ``(blocks, n, points)``: the interior point, points on a ray
    through it (inside and beyond the domain), and for every block one
    point just outside that block's own domain.
    """
    n = draw(st.integers(2, 6))
    n_linear = draw(st.integers(0, 2))
    n_box = draw(st.integers(0, 2))
    with_sqrt = draw(st.booleans())
    repeat_box = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    center = rng.uniform(0.2, 1.0, n)
    blocks = []
    points = [center]
    for _ in range(n_linear):
        rows = rng.integers(1, 8)
        a = rng.normal(size=(rows, n)) * (rng.random((rows, n)) < 0.6)
        slack = rng.uniform(0.05, 1.0, rows)
        blocks.append(LinearInequality(a=a, b=a @ center + slack))
        i = rng.integers(rows)
        norm_sq = float(a[i] @ a[i])
        if norm_sq > 0:
            points.append(center + (slack[i] / norm_sq * 1.5) * a[i])
    for _ in range(n_box):
        k = rng.integers(1, n + 1)
        if repeat_box:
            indices = rng.integers(0, n, k)
        else:
            indices = rng.choice(n, k, replace=False)
        lower = center[indices] - rng.uniform(0.01, 0.19, k)
        upper = center[indices] + rng.uniform(0.01, 1.0, k)
        blocks.append(BoxConstraint(lower=lower, upper=upper, indices=indices))
        j = rng.integers(k)
        over, under = center.copy(), center.copy()
        over[indices[j]] = upper[j] + 0.01
        under[indices[j]] = lower[j] - 0.01
        points += [over, under]
    if with_sqrt:
        k = rng.integers(1, n + 1)
        indices = rng.choice(n, k, replace=False)
        weights = rng.uniform(0.1, 3.0, k)
        total = float(weights @ np.sqrt(center[indices]))
        blocks.append(
            SqrtSumConstraint(
                weights=weights,
                indices=indices,
                target=total * rng.uniform(0.1, 0.95),
            )
        )
        starved, negative = center.copy(), center.copy()
        starved[indices] *= 1e-6  # sqrt-sum falls below the target
        negative[indices[0]] = -0.1  # outside the sqrt's own domain
        points += [starved, negative]
    direction = rng.normal(size=n)
    points += [center + s * direction for s in (0.05, 0.3, 1.0, 3.0)]
    return blocks, n, points


class TestEvaluatorContract:
    """Value-only and lean evaluators are bitwise twins of the full ones.

    Line searches accept or reject trials on these values, so any
    difference in the last bit would change the iterates.
    """

    @given(
        block_mixes(),
        st.floats(1e-3, 1e9),
        st.lists(st.floats(-2.0, 2.0), min_size=6, max_size=6),
    )
    def test_value_only_and_lean_paths_are_bitwise_equal(
        self, mix, t_weight, c_entries
    ):
        blocks, n, points = mix
        compiled = CompiledConstraints.compile(blocks, n)
        objective = LinearObjective(c=np.array(c_entries[:n]))
        generic = _generic_stage_function(
            objective, blocks, compiled, t_weight
        )
        lean = _linear_stage_function(objective, compiled, t_weight)
        value_only = _stage_value_function(objective, compiled, t_weight)
        sqrt_blocks = [b for b in blocks if isinstance(b, SqrtSumConstraint)]
        for x in points:
            full = compiled.barrier(x)[0]
            assert bits(compiled.barrier_value(x)) == bits(full)
            assert np.isfinite(full) or full == np.inf
            for block in sqrt_blocks:
                assert bits(block.barrier_value(x)) == bits(
                    block.barrier(x)[0]
                )

            g_val, g_grad, g_hess = generic(x)
            l_val, l_grad, l_hess = lean(x)
            assert bits(l_val) == bits(g_val)
            assert bits(value_only(x)) == bits(g_val)
            if not np.isfinite(g_val):
                continue
            assert l_grad.tobytes() == g_grad.tobytes()
            for reg in (1e-10, 1e-8, 1e-6):
                eye = reg * np.eye(n)
                assert (l_hess + eye).tobytes() == (g_hess + eye).tobytes()

    def test_screen_order_still_rejects_every_infeasible_block(self):
        """A point inside the sqrt row but outside the linear rows is
        rejected, and so is one inside everything but the sqrt row."""
        blocks = make_blocks()
        compiled = CompiledConstraints.compile(blocks, 4)
        outside_linear = np.full(4, 1.9)
        assert np.isfinite(blocks[3].barrier_value(outside_linear))
        assert compiled.barrier_value(outside_linear) == np.inf
        starved = np.array([1e-9, 1e-9, 1e-9, 0.5])
        assert blocks[3].barrier_value(starved) == np.inf
        assert compiled.barrier_value(starved) == np.inf
        inside = np.full(4, 0.5)
        assert bits(compiled.barrier_value(inside)) == bits(
            compiled.barrier(inside)[0]
        )


class TestLineSearchCounters:
    """Line-search trial counts of one small solve, pinned.

    The literals were recorded with the linear rows screened first on
    every trial.  Screening the cheapest block first and evaluating
    trials value-only must neither add, drop nor reorder a trial, so the
    counts (and the Newton steps) stay exactly these.
    """

    def test_small_solve_trial_count(self):
        blocks = make_blocks()
        compiled = CompiledConstraints.compile(blocks, 4)
        objective = LinearObjective(c=np.ones(4))
        for kwargs in ({"compiled": compiled}, {}):
            result = solve_barrier(
                objective, blocks, np.full(4, 0.5), **kwargs
            )
            assert result.ok
            assert result.iterations == 49
            assert result.line_search_trials == 111
