"""Tests for the second-generation sweep strategies (cross-row warm
starts, sparse constraint pruning, warm barrier schedules) and their
agreement with the cold per-cell solver."""

from __future__ import annotations

import hashlib
import json
import warnings

import numpy as np
import pytest

from repro.core import (
    ProTempOptimizer,
    SweepStrategy,
    build_frequency_table,
)
from repro.errors import TableError
from repro.scenario.runner import ScenarioRunner, table_key
from repro.scenario.specs import DEFAULT_F_GRID, DEFAULT_T_GRID, ScenarioSpec
from repro.units import mhz

T_GRID = [70.0, 85.0, 95.0]
F_GRID = [mhz(200), mhz(500), mhz(800), mhz(1000)]


@pytest.fixture(scope="module")
def cold_table(small_platform):
    return build_frequency_table(
        ProTempOptimizer(small_platform, step_subsample=10, accelerated=False),
        T_GRID,
        F_GRID,
        strategy="cold",
    )


def assert_matches_cold(cold, other, rtol=1e-9):
    """Identical feasibility; feasible frequencies within `rtol`."""
    assert np.array_equal(
        cold.feasibility_matrix(), other.feasibility_matrix()
    )
    for key, cold_entry in cold.entries.items():
        if not cold_entry.feasible:
            continue
        np.testing.assert_allclose(
            np.array(other.entries[key].frequencies),
            np.array(cold_entry.frequencies),
            rtol=rtol,
            err_msg=f"cell {key}",
        )


class TestStrategyValidation:
    def test_unknown_preset_rejected(self):
        with pytest.raises(TableError, match="unknown sweep strategy"):
            SweepStrategy.preset("turbo")

    def test_cross_row_requires_hot_first(self):
        with pytest.raises(TableError, match="hot-first"):
            SweepStrategy(cross_row_warm_start=True)

    def test_cross_row_rejects_workers(self):
        with pytest.raises(TableError, match="sequentially"):
            SweepStrategy(
                row_order="hot-first",
                cross_row_warm_start=True,
                n_workers=2,
            )


class TestGen2Agreement:
    def test_gen2_matches_cold(self, small_platform, cold_table):
        """Cross-row warm starts + pruning + warm schedules reproduce the
        cold per-cell solutions to 1e-9 relative."""
        gen2 = build_frequency_table(
            ProTempOptimizer(small_platform, step_subsample=10),
            T_GRID,
            F_GRID,
            strategy="gen2",
        )
        assert_matches_cold(cold_table, gen2)

    def test_gen2_strategy_object(self, small_platform, cold_table):
        """Strategy fields can be toggled individually."""
        table = build_frequency_table(
            ProTempOptimizer(small_platform, step_subsample=10),
            T_GRID,
            F_GRID,
            strategy=SweepStrategy(
                row_order="hot-first",
                cross_row_warm_start=True,
                prune_constraints=False,
                warm_schedule=True,
            ),
        )
        assert_matches_cold(cold_table, table)

    def test_pruned_solve_matches_plain(self, small_platform):
        """A pruned+polished warm solve equals the plain warm solve."""
        optimizer = ProTempOptimizer(small_platform, step_subsample=10)
        neighbor = optimizer.solve(80.0, mhz(500))
        assert neighbor.feasible
        plain = optimizer.solve(80.0, mhz(300), warm_from=neighbor)
        pruned = optimizer.solve(
            80.0, mhz(300), warm_from=neighbor, prune=True,
            warm_schedule=True,
        )
        assert pruned.feasible
        np.testing.assert_allclose(
            pruned.frequencies, plain.frequencies, rtol=1e-9
        )

    def test_cross_row_warm_start_from_hotter_row(self, small_platform):
        """A hotter row's optimum warm-starts the colder row's same
        column and yields the same answer as a cold solve."""
        optimizer = ProTempOptimizer(small_platform, step_subsample=10)
        hot = optimizer.solve(95.0, mhz(300))
        assert hot.feasible
        warm = optimizer.solve(70.0, mhz(300), warm_from=hot)
        cold = ProTempOptimizer(
            small_platform, step_subsample=10, accelerated=False
        ).solve(70.0, mhz(300))
        assert warm.feasible and cold.feasible
        np.testing.assert_allclose(
            warm.frequencies, cold.frequencies, rtol=1e-9
        )


class TestTightGradientCap:
    def test_gen2_survives_tight_t_grad_cap(self, small_platform):
        """Regression: with a t_grad_cap close to the optimal gradient the
        warm-start lift is capped, the start can sit inside the pruned
        stack's tightening band, and the sweep used to crash with an
        uncaught SolverError instead of falling back."""
        t_grid = [70.0, 95.0]
        f_grid = [mhz(200), mhz(400)]
        cold = build_frequency_table(
            ProTempOptimizer(
                small_platform,
                step_subsample=10,
                t_grad_cap=0.5,
                accelerated=False,
            ),
            t_grid,
            f_grid,
            strategy="cold",
        )
        table = build_frequency_table(
            ProTempOptimizer(
                small_platform, step_subsample=10, t_grad_cap=0.5
            ),
            t_grid,
            f_grid,
            strategy="gen2",
        )
        assert_matches_cold(cold, table)


class TestPruningSoundness:
    def test_active_set_grows_and_sweep_stays_exact(self, small_platform):
        """After a gen2 sweep the prune state retains only a fraction of
        the stacked rows, and every cell still matches the cold solver."""
        optimizer = ProTempOptimizer(small_platform, step_subsample=10)
        gen2 = build_frequency_table(
            optimizer, T_GRID, F_GRID, strategy="gen2"
        )
        states = list(optimizer._prune_states.values())
        assert states, "pruned sweep never built a prune state"
        for state in states:
            assert state.thermal_seeded
            kept = int(state.mask.sum())
            assert 0 < kept < state.mask.size
        cold = build_frequency_table(
            ProTempOptimizer(
                small_platform, step_subsample=10, accelerated=False
            ),
            T_GRID,
            F_GRID,
            strategy="cold",
        )
        assert_matches_cold(cold, gen2)


#: The Phase-1 grid of ``examples/scenario_config.json`` (Niagara-8,
#: ``step_subsample=10``).
EXAMPLE_T_GRID = [70.0, 85.0, 95.0, 100.0]
EXAMPLE_F_GRID = [2e8, 4e8, 6e8, 8e8, 1e9]


def table_digest(table) -> str:
    """sha256 of the table's canonical ``to_dict()`` JSON."""
    payload = json.dumps(table.to_dict(), sort_keys=True, allow_nan=False)
    return hashlib.sha256(payload.encode()).hexdigest()


@pytest.fixture(scope="module")
def example_gen2(niagara):
    return build_frequency_table(
        ProTempOptimizer(niagara, step_subsample=10),
        EXAMPLE_T_GRID,
        EXAMPLE_F_GRID,
        strategy="gen2",
    )


class TestGoldenTables:
    """Bit-identity pins: the digests were recorded before the batched,
    structure-exploiting and wavefront sweeps were deleted, and every
    surviving preset must keep reproducing them exactly."""

    def test_example_grid_gen2(self, example_gen2):
        assert table_digest(example_gen2) == (
            "ba165c27bb6f9b9ed0a3cdcf514bbbe440c92e2c1876d24ec7b9652b7b056642"
        )

    @pytest.mark.parametrize(
        "strategy, digest",
        [
            pytest.param(
                "warm",
                "0d73752312fabab18edf6d4995899605"
                "efc91c3ca7e333b518b8679775198571",
                id="warm",
            ),
            pytest.param(
                "cold",
                "d44874b49583f03333fcc54aaadd21a6"
                "c3b4b541bb7d215ab6d23a1a4de7ce48",
                id="cold",
            ),
        ],
    )
    def test_example_grid_oracles(self, niagara, strategy, digest):
        table = build_frequency_table(
            ProTempOptimizer(niagara, step_subsample=10),
            EXAMPLE_T_GRID,
            EXAMPLE_F_GRID,
            strategy=strategy,
        )
        assert table_digest(table) == digest

    def test_default_grid_gen2(self, niagara):
        table = build_frequency_table(
            ProTempOptimizer(niagara, step_subsample=5),
            list(DEFAULT_T_GRID),
            list(DEFAULT_F_GRID),
            strategy="gen2",
        )
        assert table_digest(table) == (
            "1d0afbeca861ee93b99b4697a867cb215f7c46f7e196d4ef84cb28844cc13df7"
        )


class TestRemovedPresets:
    """Specs naming a removed preset keep their hash and build gen2."""

    #: ``(spec_hash, table_key)`` of the scenario below per preset name,
    #: recorded while the presets still existed.
    PINNED = {
        "gen2-batched": ("a218cf03669f", "4609fa3c5713"),
        "gen3": ("7f10a6c33b71", "2f0fb6413444"),
        "gen3-wavefront": ("53f777433e52", "8086a46cc786"),
    }

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_preset_warns_and_equals_gen2(self, name):
        with pytest.warns(DeprecationWarning, match="'gen2'"):
            strategy = SweepStrategy.preset(name)
        assert strategy == SweepStrategy.preset("gen2")

    @staticmethod
    def example_spec(strategy: str) -> ScenarioSpec:
        return ScenarioSpec.from_dict(
            {
                "platform": "niagara8",
                "workload": {"name": "mixed", "duration": 5.0, "params": {}},
                "policy": {
                    "name": "protemp",
                    "params": {
                        "strategy": strategy,
                        "t_grid": EXAMPLE_T_GRID,
                        "f_grid": EXAMPLE_F_GRID,
                        "step_subsample": 10,
                    },
                },
                "seed": 0,
                "t_initial": 45.0,
                "window": 0.1,
            }
        )

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_spec_keeps_hash_and_warns_once(self, name):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            spec = self.example_spec(name)
        deprecations = [
            w for w in caught if issubclass(w.category, DeprecationWarning)
        ]
        assert len(deprecations) == 1
        assert "'gen2'" in str(deprecations[0].message)
        assert (
            spec.spec_hash, table_key(spec.platform, spec.policy)
        ) == self.PINNED[name]

    def test_gen3_spec_builds_gen2_table(self, example_gen2):
        with pytest.warns(DeprecationWarning):
            spec = self.example_spec("gen3")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            table, hit = ScenarioRunner().table(spec.platform, spec.policy)
        # The spec already warned at parse time; the build stays quiet.
        assert not [
            w for w in caught if issubclass(w.category, DeprecationWarning)
        ]
        assert not hit
        assert table.metadata["sweep_strategy"] == "gen2"
        assert table.entries == example_gen2.entries
