"""Differential tests: the lazily-flushed engine against the per-step oracle.

``tests/sim_reference.py`` keeps the original per-step simulation loop.
The production engine buffers thermal steps between temperature reads, and
these tests hold it to *bit-identical* results: every field of
:class:`~repro.sim.SimulationResult`, across platforms, assignment
policies, leakage, the drain path (``max_time=None``), window lengths and
time-series intervals.  The golden test pins the ``data_row()`` of every
cell of the committed example and tournament configs, as the per-step
engine produced them (``tests/data/engine_golden_rows.json``).
"""

from __future__ import annotations

import dataclasses
import functools
import json
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.control import (
    BasicDFSPolicy,
    IntegralRegulatorPolicy,
    NoTCPolicy,
    ThermalManagementUnit,
)
from repro.floorplan import core_grid, core_row
from repro.platform import Platform
from repro.power import LeakageModel
from repro.scenario import ScenarioRunner
from repro.sim import (
    CoolestFirstAssignment,
    FirstIdleAssignment,
    MulticoreSimulator,
    RandomAssignment,
    SimulationConfig,
    SimulationResult,
    Task,
    TaskTrace,
)
from repro.thermal.constants import PAPER_TIME_STEP
from sim_reference import reference_run

REPO_ROOT = Path(__file__).resolve().parent.parent
GOLDEN_ROWS = Path(__file__).resolve().parent / "data" / "engine_golden_rows.json"

# Feedback slope p_ref * alpha stays below the per-core ambient conductance
# (~7.4e-3 W/K), so the leaky platforms heat more but never run away.
LEAKAGE = LeakageModel(p_ref=0.3, alpha=0.005, t_ref=45.0)


@functools.lru_cache(maxsize=None)
def platform_for(kind: str, leaky: bool) -> Platform:
    leakage = LEAKAGE if leaky else None
    if kind == "niagara8":
        return Platform.niagara8(leakage=leakage)
    floorplan = core_row(3) if kind == "core-row" else core_grid(2, 2)
    return Platform.from_floorplan(floorplan, leakage=leakage)


POLICIES = {
    "no-tc": NoTCPolicy,
    "basic-dfs": lambda: BasicDFSPolicy(threshold=80.0),
    "rao-integral": lambda: IntegralRegulatorPolicy(setpoint=75.0, gain=0.1),
}

ASSIGNMENTS = {
    "first-idle": FirstIdleAssignment,
    "coolest-first": CoolestFirstAssignment,
    "random": lambda: RandomAssignment(seed=3),
}


def result_fields(result: SimulationResult) -> dict:
    """Every field of a result, as plain values compared with ``==``."""
    metrics = result.metrics
    return {
        "policy_name": result.policy_name,
        "assignment_name": result.assignment_name,
        "trace_name": result.trace_name,
        "end_time": result.end_time,
        "queue_length_end": result.queue_length_end,
        "t_max": result.t_max,
        "band_counts": metrics.bands.counts.tolist(),
        "gradient": dataclasses.asdict(metrics.gradient),
        "waits": metrics.waiting.waits,
        "violation_steps": metrics.violation_steps.tolist(),
        "total_steps": metrics.total_steps,
        "peak_temperature": metrics.peak_temperature,
        "completed_tasks": metrics.completed_tasks,
        "arrived_tasks": metrics.arrived_tasks,
        "total_core_energy": metrics.total_core_energy,
        "window_frequencies": metrics.window_frequencies,
        "times": result.timeseries.times.tolist(),
        "temps_shape": result.timeseries.core_temperatures.shape,
        "temps": result.timeseries.core_temperatures.tolist(),
    }


@st.composite
def scenarios(draw):
    platform = platform_for(
        draw(st.sampled_from(["core-row", "core-grid", "niagara8"])),
        draw(st.booleans()),
    )
    gaps = draw(st.lists(st.floats(0.0, 0.02), max_size=40))
    workloads = draw(
        st.lists(st.floats(1e-4, 0.05), min_size=len(gaps), max_size=len(gaps))
    )
    arrival = 0.0
    tasks = []
    for i, (gap, workload) in enumerate(zip(gaps, workloads)):
        arrival += gap
        tasks.append(Task(task_id=i, arrival=arrival, workload=workload))
    config = SimulationConfig(
        window=draw(st.integers(1, 300)) * PAPER_TIME_STEP,
        t_initial=draw(st.floats(40.0, 105.0)),
        max_time=draw(st.none() | st.floats(0.01, 0.6)),
        drain_grace=draw(st.floats(0.0, 0.3)),
        record_interval_steps=draw(st.integers(1, 60)),
    )
    return (
        platform,
        draw(st.sampled_from(sorted(POLICIES))),
        draw(st.sampled_from(sorted(ASSIGNMENTS))),
        config,
        TaskTrace(tasks=tasks, name="drawn"),
    )


def make_simulator(platform, policy, assignment, config) -> MulticoreSimulator:
    tmu = ThermalManagementUnit(
        policy=POLICIES[policy](),
        f_max=platform.f_max,
        t_max=platform.t_max,
        window=config.window,
    )
    return MulticoreSimulator(
        platform, tmu, assignment=ASSIGNMENTS[assignment](), config=config
    )


class TestEngineMatchesReference:
    @given(scenarios())
    def test_every_result_field_bit_identical(self, scenario):
        platform, policy, assignment, config, trace = scenario
        expected = reference_run(
            make_simulator(platform, policy, assignment, config), trace
        )
        actual = make_simulator(platform, policy, assignment, config).run(trace)
        assert result_fields(actual) == result_fields(expected)

    def test_busy_platform_with_every_assignment(self):
        """A saturated leaky Niagara-8 run exercises queueing on every step."""
        platform = platform_for("niagara8", True)
        trace = TaskTrace(
            tasks=[
                Task(task_id=i, arrival=i * 0.002, workload=0.02)
                for i in range(120)
            ],
            name="saturated",
        )
        config = SimulationConfig(max_time=None, record_interval_steps=7)
        for assignment in sorted(ASSIGNMENTS):
            expected = reference_run(
                make_simulator(platform, "basic-dfs", assignment, config), trace
            )
            actual = make_simulator(platform, "basic-dfs", assignment, config).run(
                trace
            )
            assert result_fields(actual) == result_fields(expected), assignment


class TestGoldenDataRows:
    @pytest.mark.parametrize("config", ["scenario_config", "tournament_config"])
    def test_example_config_rows_unchanged(self, config):
        expected = json.loads(GOLDEN_ROWS.read_text())[config]
        path = REPO_ROOT / "examples" / f"{config}.json"
        outcomes = ScenarioRunner().run_config(path)
        assert [outcome.data_row() for outcome in outcomes] == expected
