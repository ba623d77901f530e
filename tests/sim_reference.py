"""Test-only reference simulator: the original per-step engine loop.

:func:`reference_run` is the closed loop exactly as ``MulticoreSimulator.run``
computed it before thermal steps were buffered between temperature reads:
every 0.4 ms step assigns, executes, builds the power vector, advances the
thermal recurrence and records every metric, all on numpy arrays.  It is
kept verbatim (with ``self`` as the simulator argument) as the oracle that
``tests/test_engine_oracle.py`` compares the production engine against,
bit for bit, the way the ``cold`` sweep is the oracle for ``gen2``.
"""

from __future__ import annotations

import numpy as np

from repro.sim.engine import (
    MulticoreSimulator,
    SimulationResult,
    TemperatureTimeseries,
)
from repro.sim.metrics import (
    BandAccumulator,
    GradientAccumulator,
    SimulationMetrics,
    WaitingTimeStats,
)
from repro.sim.queueing import TaskQueue
from repro.sim.task import Task, TaskTrace


def reference_run(self: MulticoreSimulator, trace: TaskTrace) -> SimulationResult:
    """Simulate the platform executing `trace`.

    The input trace is not mutated (an internal fresh copy runs).

    Returns:
        A :class:`SimulationResult`.
    """
    platform = self.platform
    cfg = self.config
    trace = trace.fresh_copy()
    self.tmu.reset()
    self.assignment.reset()

    dt = platform.thermal.dt
    n_cores = platform.n_cores
    core_idx = np.asarray(platform.core_indices, dtype=int)
    a_matrix = platform.thermal.a_matrix
    b_vector = platform.thermal.b_vector
    c_vector = platform.thermal.c_vector
    injection = platform.power.injection_matrix()
    idle_fraction = platform.power.idle_fraction
    f_max = platform.f_max
    t_max = platform.t_max
    leakage = platform.power.leakage

    if cfg.max_time is not None:
        end_time = cfg.max_time
    else:
        end_time = trace.duration + cfg.drain_grace
    total_steps = int(np.ceil(end_time / dt))

    temps = np.full(platform.thermal.n, float(cfg.t_initial))
    queue = TaskQueue()
    running: list[Task | None] = [None] * n_cores
    remaining = np.zeros(n_cores)
    freqs = np.zeros(n_cores)
    p_busy = np.zeros(n_cores)
    rates = np.zeros(n_cores)

    metrics = SimulationMetrics(
        bands=BandAccumulator(n_cores),
        gradient=GradientAccumulator(),
        waiting=WaitingTimeStats(),
        violation_steps=np.zeros(n_cores, dtype=np.int64),
    )
    rec_times: list[float] = []
    rec_temps: list[np.ndarray] = []

    tasks = trace.tasks
    next_arrival = 0
    n_tasks = len(tasks)
    completed = 0
    time = 0.0

    for step in range(total_steps):
        # --- DFS boundary: consult the TMU -------------------------------
        if step % self.steps_per_window == 0:
            backlog = float(remaining.sum()) + queue.backlog
            runnable = sum(t is not None for t in running) + len(queue)
            freqs = self.tmu.decide(
                step // self.steps_per_window,
                time,
                temps[core_idx],
                backlog,
                runnable_tasks=runnable,
            )
            p_busy = platform.power.core_power(freqs)
            rates = freqs / f_max
            metrics.window_frequencies.append(float(freqs.mean()))

        # --- arrivals -----------------------------------------------------
        while next_arrival < n_tasks and tasks[next_arrival].arrival <= time:
            queue.push(tasks[next_arrival])
            next_arrival += 1

        # --- assignment ----------------------------------------------------
        if len(queue) > 0:
            idle = [i for i in range(n_cores) if running[i] is None]
            core_temps_now = temps[core_idx]
            while idle and len(queue) > 0:
                task = queue.pop()
                core = self.assignment.choose_core(idle, core_temps_now)
                idle.remove(core)
                task.start_time = time
                task.core = core
                metrics.waiting.record(time - task.arrival)
                running[core] = task
                remaining[core] = task.workload

        # --- execution -------------------------------------------------------
        busy = np.array([t is not None for t in running])
        if busy.any():
            progress = rates * dt
            remaining = np.where(busy, remaining - progress, remaining)
            for core in range(n_cores):
                task = running[core]
                if task is not None and remaining[core] <= 1e-12:
                    task.finish_time = time + dt
                    running[core] = None
                    remaining[core] = 0.0
                    completed += 1

        # --- power and thermal step ---------------------------------------------
        core_power = np.where(busy, p_busy, idle_fraction * p_busy)
        metrics.total_core_energy += float(core_power.sum()) * dt
        node_power = injection @ core_power
        if leakage is not None:
            node_power[core_idx] += leakage.power(temps[core_idx])
        temps = a_matrix @ temps + b_vector * node_power + c_vector

        # --- metrics ------------------------------------------------------------
        core_temps_now = temps[core_idx]
        metrics.bands.record(core_temps_now)
        metrics.gradient.record(core_temps_now)
        metrics.violation_steps += core_temps_now > t_max
        metrics.total_steps += 1
        peak = float(core_temps_now.max())
        if peak > metrics.peak_temperature:
            metrics.peak_temperature = peak
        if step % cfg.record_interval_steps == 0:
            rec_times.append(time + dt)
            rec_temps.append(core_temps_now.copy())

        time += dt
        if (
            cfg.max_time is None
            and next_arrival >= n_tasks
            and len(queue) == 0
            and completed == n_tasks
        ):
            break

    # --- censored waits for tasks that never started ------------------------
    metrics.arrived_tasks = next_arrival
    metrics.completed_tasks = completed
    if cfg.censor_unstarted:
        for task in tasks[:next_arrival]:
            if task.start_time is None:
                metrics.waiting.record(time - task.arrival)

    timeseries = TemperatureTimeseries(
        times=np.array(rec_times),
        core_temperatures=(
            np.array(rec_temps)
            if rec_temps
            else np.zeros((0, n_cores))
        ),
    )
    return SimulationResult(
        policy_name=self.tmu.policy.name,
        assignment_name=self.assignment.name,
        trace_name=trace.name,
        metrics=metrics,
        timeseries=timeseries,
        end_time=time,
        queue_length_end=len(queue),
        t_max=t_max,
    )
