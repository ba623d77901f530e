"""Phase-1 table generation: cold vs. warm vs. gen2 sweep strategies.

Paper (section 5.1): Phase 1 solves the convex program "for each
temperature and frequency point", and "the total time taken to perform
phase 1 of the method is few hours" — the dominant design-time cost of the
whole method.  This benchmark measures how much of that cost the sweep
fast paths recover on the paper's Niagara platform grid:

* **cold** — every cell solved from scratch (``accelerated=False``,
  the ``cold`` preset): per-cell feasibility-boundary pre-solve, per-cell
  constraint assembly, generic per-block barrier evaluation.  This
  reproduces the seed implementation's cost structure and is the
  *correctness reference* every other mode is compared against.
* **legacy-warm** — the PR 1 warm+compiled path, reproduced faithfully by
  disabling the Newton stall exit this PR introduced (PR 1's stages spent
  most of their budget grinding on a decrement tolerance that float64
  cannot reach through 1/slack^2-conditioned Hessians).
* **warm** — the same strategy with the current solver defaults.
* **gen2** — hot->cold row walk with cross-row warm starts, sparse
  constraint pruning (near-active thermal rows + structurally subsampled
  gradient rows, full-stack post-check and polish) and gap-estimated warm
  barrier schedules.
* **parallel** — the warm path with temperature rows distributed over a
  process pool (``n_workers``); identical output, wall-clock bounded by
  the slowest row on multi-core hosts.

Shape asserted (full grid): every mode matches cold exactly on
feasibility and to 1e-9 relative on feasible frequencies (gen2 modes are
polished on the full constraint stack at the cold schedule's final
barrier weight, so they agree to Newton tolerance, not merely the duality
gap); gen2 is >= 2x faster than the PR 1 warm path; warm beats cold; the
parallel sweep does not lose to serial warm.

Alongside the text report, a machine-readable
``benchmarks/results/table_generation.json`` records per-mode seconds,
ms/cell, speedup vs cold and worst-vs-cold agreement.

Set ``PROTEMP_BENCH_TABLE_GRID=smoke`` for a tiny CI smoke grid; fixed
overheads dominate there, so the speedup assertions are skipped and only
agreement is checked.
``PROTEMP_BENCH_TABLE_MODES`` (comma list) selects a subset of the
non-cold modes — CI runs the legacy modes and gen2 in separate steps so a
disagreement pinpoints the offending sweep.
"""

from __future__ import annotations

import os
import time

import numpy as np
from conftest import print_header, save_json_result, save_result

from repro.core import ProTempOptimizer, SweepStrategy, build_frequency_table
from repro.solver.barrier import BarrierOptions
from repro.solver.newton import NewtonOptions
from repro.units import mhz

SMOKE = os.environ.get("PROTEMP_BENCH_TABLE_GRID", "") == "smoke"
ALL_MODES = ("legacy-warm", "warm", "gen2", "parallel")


def _modes() -> tuple[str, ...]:
    raw = os.environ.get("PROTEMP_BENCH_TABLE_MODES", "")
    if not raw:
        return ALL_MODES
    modes = tuple(m.strip() for m in raw.split(",") if m.strip())
    unknown = set(modes) - set(ALL_MODES)
    if unknown:
        raise ValueError(f"unknown bench modes: {sorted(unknown)}")
    return modes


def _grids() -> tuple[list[float], list[float]]:
    if SMOKE:
        return [70.0, 95.0], [mhz(300), mhz(800)]
    return (
        [70.0, 85.0, 95.0, 100.0],
        [mhz(f) for f in range(100, 1001, 100)],
    )


def _legacy_optimizer(platform) -> ProTempOptimizer:
    """PR 1 solver configuration: no Newton stall exit."""
    return ProTempOptimizer(
        platform,
        step_subsample=5,
        barrier_options=BarrierOptions(
            gap_tol=1e-6,
            newton=NewtonOptions(
                tol=1e-9, max_iterations=120, stall_iterations=10**9
            ),
        ),
    )


def _run_mode(platform, mode, t_grid, f_grid):
    n_workers = min(4, len(t_grid))
    if mode == "cold":
        optimizer = ProTempOptimizer(
            platform, step_subsample=5, accelerated=False
        )
        kwargs = {"strategy": "cold"}
    elif mode == "legacy-warm":
        optimizer = _legacy_optimizer(platform)
        kwargs = {"strategy": "warm"}
    elif mode == "parallel":
        optimizer = ProTempOptimizer(platform, step_subsample=5)
        kwargs = {"strategy": SweepStrategy(n_workers=n_workers)}
    else:
        optimizer = ProTempOptimizer(platform, step_subsample=5)
        kwargs = {"strategy": mode}
    start = time.perf_counter()
    table = build_frequency_table(optimizer, t_grid, f_grid, **kwargs)
    return time.perf_counter() - start, table


def _assert_tables_agree(reference, other, label) -> float:
    """Same feasibility everywhere; feasible frequencies to 1e-9 relative.

    Returns the worst relative frequency difference over feasible cells.
    """
    assert np.array_equal(
        reference.feasibility_matrix(), other.feasibility_matrix()
    ), f"{label}: feasibility differs from cold"
    worst = 0.0
    for key, ref_entry in reference.entries.items():
        if not ref_entry.feasible:
            continue
        ref = np.array(ref_entry.frequencies)
        got = np.array(other.entries[key].frequencies)
        np.testing.assert_allclose(
            got, ref, rtol=1e-9, err_msg=f"{label} cell {key}"
        )
        worst = max(
            worst,
            float(np.max(np.abs(got - ref) / np.maximum(np.abs(ref), 1.0))),
        )
    return worst


def test_table_generation_speedup(platform):
    t_grid, f_grid = _grids()
    modes = _modes()
    cells = len(t_grid) * len(f_grid)

    t_cold, cold = _run_mode(platform, "cold", t_grid, f_grid)
    lines = [
        f"grid: {len(t_grid)} temps x {len(f_grid)} targets "
        f"({cells} cells){' [smoke]' if SMOKE else ''}",
        f"cold sweep:            {t_cold:7.2f} s "
        f"({t_cold / cells * 1e3:6.1f} ms/cell)",
    ]
    times: dict[str, float] = {"cold": t_cold}
    worsts: dict[str, float] = {}
    for mode in modes:
        elapsed, table = _run_mode(platform, mode, t_grid, f_grid)
        times[mode] = elapsed
        worsts[mode] = _assert_tables_agree(cold, table, mode)
        lines.append(
            f"{mode + ' sweep:':<22} {elapsed:7.2f} s "
            f"({elapsed / cells * 1e3:6.1f} ms/cell)  "
            f"speedup {t_cold / elapsed:.2f}x  "
            f"worst-vs-cold {worsts[mode]:.2e}"
        )

    if not SMOKE:
        lines.append(
            "PR 1 recorded (same container, before the Newton stall exit): "
            "cold 196.5 ms/cell, warm+compiled 38.2 ms/cell"
        )
    body = "\n".join(lines)
    print_header(
        "Phase-1 table generation",
        "solved per grid point; 'few hours' total on 2007 HW",
    )
    print(body)
    save_result("table_generation", body)
    save_json_result(
        "table_generation",
        {
            "grid": {
                "kind": "smoke" if SMOKE else "full",
                "t_grid_c": list(t_grid),
                "f_grid_hz": list(f_grid),
                "cells": cells,
            },
            "modes": {
                mode: {
                    "seconds": times[mode],
                    "ms_per_cell": times[mode] / cells * 1e3,
                    "speedup_vs_cold": t_cold / times[mode],
                    "worst_vs_cold": worsts.get(mode),
                }
                for mode in times
            },
        },
    )

    if SMOKE:
        return
    if "warm" in times:
        assert times["cold"] / times["warm"] >= 1.3, (
            f"warm speedup {times['cold'] / times['warm']:.2f}x below 1.3x"
        )
    if "gen2" in times and "legacy-warm" in times:
        ratio = times["legacy-warm"] / times["gen2"]
        assert ratio >= 2.0, (
            f"gen2 speedup over the PR 1 warm path is {ratio:.2f}x, "
            f"below the 2x target"
        )
    if "parallel" in times and "warm" in times:
        # At worst the pool ties serial plus its fixed spawn/pickling cost
        # (~0.2 s), which no longer hides inside a 10% margin now that the
        # serial warm sweep itself runs in well under a second.  On
        # multi-core hosts whole rows run concurrently.
        assert times["parallel"] <= times["warm"] * 1.35 + 0.5, (
            f"parallel sweep slower than serial warm path: "
            f"{times['parallel']:.2f}s vs {times['warm']:.2f}s"
        )
