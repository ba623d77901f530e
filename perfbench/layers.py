"""Traced in-process run of one scenario config, layer by layer.

Run as a child process of ``perfbench/run.py``::

    python perfbench/layers.py CONFIG --kind run|tournament --store PATH --out FILE

It imports ``repro.cli`` (the same import a CLI user pays), then composes
the public functions ``protemp run`` / ``protemp tournament`` compose --
``scenario_grid_from_config``, ``ScenarioRunner.lookup`` (store get),
``ScenarioRunner.table``, ``build_trace``, ``build_policy`` +
``ThermalManagementUnit`` + ``MulticoreSimulator.run``, the store ``put``
and the tournament reducer -- and times each call from here.  Nothing
inside ``src/`` is instrumented: the policy is wrapped in a timing proxy
around its public ``frequencies()``, and the outcome store in a timing
``OutcomeStore`` handed to the runner.

The rows it writes must equal the untraced CLI's rows bit-for-bit; the
caller checks that.
"""

from __future__ import annotations

import argparse
import json
import time
from collections import defaultdict
from pathlib import Path

_T0 = time.perf_counter()
import repro.cli  # noqa: E402,F401  (timed: the import every CLI run pays)

_IMPORT_S = time.perf_counter() - _T0

from repro.analysis.tournament import tournament_from_outcomes  # noqa: E402
from repro.control.manager import ThermalManagementUnit  # noqa: E402
from repro.scenario import ScenarioRunner  # noqa: E402
from repro.scenario.registry import POLICIES  # noqa: E402
from repro.scenario.runner import (  # noqa: E402
    ScenarioOutcome,
    build_assignment,
    build_policy,
    build_sensor,
    build_trace,
    table_key,
)
from repro.scenario.specs import scenario_grid_from_config  # noqa: E402
from repro.scenario.store import (  # noqa: E402
    OutcomeStore,
    StoredOutcome,
    open_outcome_store,
)
from repro.sim.engine import MulticoreSimulator, SimulationConfig  # noqa: E402


class Ledger:
    """Busy seconds and call counts per layer name."""

    def __init__(self) -> None:
        self.seconds: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)

    def timed(self, layer: str, fn, *args, **kwargs):
        started = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.seconds[layer] += time.perf_counter() - started
            self.counts[layer] += 1


class TimedStore(OutcomeStore):
    """An outcome store that times its inner store's ``get`` and ``put``."""

    def __init__(self, inner: OutcomeStore, ledger: Ledger) -> None:
        self.inner = inner
        self.ledger = ledger
        self.hits = 0

    def get(self, spec_hash):
        record = self.ledger.timed("store_get", self.inner.get, spec_hash)
        self.hits += record is not None
        return record

    def put(self, record):
        self.ledger.timed("store_put", self.inner.put, record)

    def records(self):
        return self.inner.records()


class TimedPolicy:
    """Proxy timing a DFS policy's public ``frequencies()``; the rest forwards."""

    def __init__(self, policy, ledger: Ledger, name: str) -> None:
        self._policy = policy
        self._ledger = ledger
        self._layer = f"decide.{name}"

    def frequencies(self, context):
        return self._ledger.timed(self._layer, self._policy.frequencies, context)

    def __getattr__(self, attr):
        return getattr(self._policy, attr)


def run_traced(config: dict, kind: str, store_path: str) -> dict:
    """Run `config` layer by layer; return rows, ledger and totals."""
    ledger = Ledger()
    started = time.perf_counter()
    store = TimedStore(open_outcome_store(store_path), ledger)
    runner = ScenarioRunner(outcome_store=store)
    specs = ledger.timed("expand", scenario_grid_from_config, config)
    table_cells = tasks = thermal_steps = 0
    simulated_s = 0.0
    outcomes = []
    for spec in specs:
        replayed = runner.lookup(spec)
        if replayed is not None:
            outcomes.append(replayed)
            continue
        table = hit = key = None
        if POLICIES.get(spec.policy.name).needs_table:
            table, hit = ledger.timed("table", runner.table, spec.platform, spec.policy)
            key = table_key(spec.platform, spec.policy)
            if not hit:
                table_cells += len(table.t_grid) * len(table.f_grid)
        platform = runner.platform(spec.platform)
        decide_layer = f"decide.{spec.policy.name}"
        policy = TimedPolicy(
            build_policy(spec, table, platform), ledger, spec.policy.name
        )
        tmu = ThermalManagementUnit(
            policy=policy,
            f_max=platform.f_max,
            t_max=platform.t_max,
            window=spec.window,
            sensor=build_sensor(spec),
        )
        sim = MulticoreSimulator(
            platform,
            tmu,
            assignment=build_assignment(spec),
            config=SimulationConfig(
                window=spec.window, max_time=spec.horizon, t_initial=spec.t_initial
            ),
        )
        trace = ledger.timed("trace_build", build_trace, spec, platform.n_cores)
        tasks += len(trace.tasks)
        decide_before = ledger.seconds[decide_layer]
        sim_started = time.perf_counter()
        result = ledger.timed("sim_run", sim.run, trace)
        wall = time.perf_counter() - sim_started
        ledger.seconds["sim_decide"] += ledger.seconds[decide_layer] - decide_before
        thermal_steps += result.metrics.total_steps
        simulated_s += result.end_time
        outcome = ScenarioOutcome(
            spec=spec,
            spec_hash=spec.spec_hash,
            result=result,
            wall_time_s=wall,
            table_cache_hit=hit,
            table_key=key,
            solve_wall_time_s=wall,
        )
        store.put(StoredOutcome.from_outcome(outcome))
        outcomes.append(outcome)
    section = None
    if kind == "tournament":
        section = ledger.timed("tournament_reduce", tournament_from_outcomes, outcomes)
    pipeline_s = time.perf_counter() - started
    return {
        "rows": [outcome.data_row() for outcome in outcomes],
        "tournament": section,
        "seconds": dict(ledger.seconds),
        "counts": dict(ledger.counts),
        "store_hits": store.hits,
        "table_cells": table_cells,
        "tasks": tasks,
        "thermal_steps": thermal_steps,
        "simulated_s": simulated_s,
        "import_s": _IMPORT_S,
        "pipeline_s": pipeline_s,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("config")
    parser.add_argument("--kind", choices=("run", "tournament"), required=True)
    parser.add_argument("--store", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    config = json.loads(Path(args.config).read_text())
    report = run_traced(config, args.kind, args.store)
    Path(args.out).write_text(json.dumps(report, allow_nan=False))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
