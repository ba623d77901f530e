"""Closed-loop multi-core simulator.

Couples, at the paper's 0.4 ms thermal granularity:

* task arrivals, queueing and assignment (`repro.sim.queueing`),
* task execution at the current per-core frequencies (progress rate
  ``f / f_max``),
* the platform power model (busy/idle cores, non-core background,
  optional leakage),
* the thermal RC model (`repro.thermal.model`),
* a thermal management unit consulted at every DFS window boundary
  (`repro.control.manager`).

Semantics worth calling out (all documented consequences of the paper's
setup):

* The TMU acts **only at window boundaries** (every 100 ms by default).
  Nothing reacts in between, which is what lets reactive policies overshoot
  (Figure 1).
* A core with no task is *idle* and assignable regardless of its frequency
  setting; a task assigned to a 0-frequency (shut-down) core waits there
  until the next window raises the frequency.  The task-assignment unit in
  the paper is frequency-agnostic.
* A task's waiting time is ``start - arrival`` (Figure 7).  Tasks that
  never start before the simulation horizon are censored at the horizon,
  so an overloaded policy cannot hide its backlog.

Thermals advance lazily.  Queueing, assignment and execution run every
step on plain Python lists; each step only queues its thermal drive
(cached per busy pattern within a window).  The pending steps are
*flushed* -- pushed through the unchanged step-wise recurrence
``A @ T + b * p + c``, with leakage added inside it -- only when something
reads temperatures: the TMU at every window boundary, an assignment
policy that declares ``reads_temperatures``, and the end of the run.
Each flush records its ``K x n_cores`` block of core temperatures in one
pass, so the results are bit-identical to advancing and recording step
by step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.control.manager import ThermalManagementUnit
from repro.errors import SimulationError
from repro.platform import Platform
from repro.sim.metrics import (
    BandAccumulator,
    GradientAccumulator,
    SimulationMetrics,
    WaitingTimeStats,
)
from repro.sim.queueing import AssignmentPolicy, FirstIdleAssignment, TaskQueue
from repro.sim.task import Task, TaskTrace
from repro.thermal.constants import PAPER_DFS_PERIOD


@dataclass(frozen=True)
class SimulationConfig:
    """Simulator settings.

    Attributes:
        window: DFS period (s); the paper uses 100 ms.
        t_initial: initial uniform temperature of all nodes (Celsius).
        max_time: hard simulation horizon (s); None runs until the trace
            drains (plus `drain_grace`) — avoid None for overloaded traces.
        drain_grace: extra time allowed past the last arrival when
            `max_time` is None (s).
        record_interval_steps: thermal steps between time-series samples.
        censor_unstarted: record horizon-censored waits for tasks that
            never started (see module docstring).
    """

    window: float = PAPER_DFS_PERIOD
    t_initial: float = 45.0
    max_time: float | None = None
    drain_grace: float = 10.0
    record_interval_steps: int = 25
    censor_unstarted: bool = True

    def __post_init__(self) -> None:
        if self.window <= 0:
            raise SimulationError("window must be positive")
        if self.record_interval_steps < 1:
            raise SimulationError("record_interval_steps must be >= 1")
        if self.max_time is not None and self.max_time <= 0:
            raise SimulationError("max_time must be positive when given")


@dataclass
class TemperatureTimeseries:
    """Sub-sampled temperature history of the cores.

    Attributes:
        times: sample times (s), shape (k,).
        core_temperatures: Celsius, shape (k, n_cores).
    """

    times: np.ndarray
    core_temperatures: np.ndarray

    def core(self, index: int) -> np.ndarray:
        """History of a single core."""
        return self.core_temperatures[:, index]


@dataclass
class SimulationResult:
    """Everything a run produces.

    Attributes:
        policy_name: the DFS policy that ran.
        assignment_name: the task-assignment policy that ran.
        trace_name: workload label.
        metrics: aggregate metrics (bands, waits, violations...).
        timeseries: sub-sampled core temperature history.
        end_time: simulation time at exit (s).
        queue_length_end: tasks still queued at exit.
        t_max: the platform's limit (for violation interpretation).
    """

    policy_name: str
    assignment_name: str
    trace_name: str
    metrics: SimulationMetrics
    timeseries: TemperatureTimeseries
    end_time: float
    queue_length_end: int
    t_max: float

    @property
    def band_fractions(self) -> np.ndarray:
        """Mean per-band time fractions (the Figure 6 bars)."""
        return self.metrics.bands.mean_fractions()

    @property
    def mean_waiting_time(self) -> float:
        """Average task waiting time (s) — the Figure 7 metric."""
        return self.metrics.waiting.mean


class MulticoreSimulator:
    """Discrete-time closed-loop simulator for one platform.

    Args:
        platform: the platform under test.
        tmu: thermal management unit (policy + sensor + demand estimator).
        assignment: task-assignment policy (default: the paper's
            first-idle rule).
        config: simulation settings.
    """

    def __init__(
        self,
        platform: Platform,
        tmu: ThermalManagementUnit,
        assignment: AssignmentPolicy | None = None,
        config: SimulationConfig | None = None,
    ) -> None:
        self.platform = platform
        self.tmu = tmu
        self.assignment = assignment or FirstIdleAssignment()
        self.config = config or SimulationConfig()
        dt = platform.thermal.dt
        ratio = self.config.window / dt
        self.steps_per_window = int(round(ratio))
        if abs(self.steps_per_window - ratio) > 1e-6 or self.steps_per_window < 1:
            raise SimulationError(
                f"window {self.config.window:g}s must be a positive multiple "
                f"of the thermal step {dt:g}s"
            )

    def run(self, trace: TaskTrace) -> SimulationResult:
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
        injection = platform.power.injection_matrix()
        idle_fraction = platform.power.idle_fraction
        f_max = platform.f_max
        reads_temperatures = self.assignment.reads_temperatures
        steps_per_window = self.steps_per_window
        record_interval = cfg.record_interval_steps

        if cfg.max_time is not None:
            end_time = cfg.max_time
        else:
            end_time = trace.duration + cfg.drain_grace
        total_steps = int(np.ceil(end_time / dt))

        metrics = SimulationMetrics(
            bands=BandAccumulator(n_cores),
            gradient=GradientAccumulator(),
            waiting=WaitingTimeStats(),
            violation_steps=np.zeros(n_cores, dtype=np.int64),
        )
        thermals = _LazyThermals(platform, cfg.t_initial, metrics, record_interval)
        queue = TaskQueue()
        running: list[Task | None] = [None] * n_cores
        remaining = [0.0] * n_cores
        progress = [0.0] * n_cores
        busy = [False] * n_cores
        p_busy = np.zeros(n_cores)
        # Per busy pattern within the current window: the step's thermal
        # drive (see _LazyThermals.drive) and its core energy.
        drives: dict[tuple[bool, ...], tuple[np.ndarray, float]] = {}
        rec_times: list[float] = []

        tasks = trace.tasks
        arrivals = [task.arrival for task in tasks]
        next_arrival = 0
        n_tasks = len(tasks)
        completed = 0
        time = 0.0

        for step in range(total_steps):
            # --- DFS boundary: consult the TMU -------------------------------
            if step % steps_per_window == 0:
                core_temps = thermals.flush()
                # numpy's pairwise sum, not Python's sum(): the backlog the
                # TMU sees must not depend on summation order.
                backlog = float(np.array(remaining).sum()) + queue.backlog
                runnable = sum(busy) + len(queue)
                freqs = self.tmu.decide(
                    step // steps_per_window,
                    time,
                    core_temps,
                    backlog,
                    runnable_tasks=runnable,
                )
                p_busy = platform.power.core_power(freqs)
                progress = ((freqs / f_max) * dt).tolist()
                metrics.window_frequencies.append(float(freqs.mean()))
                drives = {}

            # --- arrivals -----------------------------------------------------
            while next_arrival < n_tasks and arrivals[next_arrival] <= time:
                queue.push(tasks[next_arrival])
                next_arrival += 1

            # --- assignment ----------------------------------------------------
            if len(queue) > 0:
                idle = [i for i in range(n_cores) if not busy[i]]
                if idle and reads_temperatures:
                    core_temps = thermals.flush()
                while idle and len(queue) > 0:
                    task = queue.pop()
                    core = self.assignment.choose_core(idle, core_temps)
                    idle.remove(core)
                    task.start_time = time
                    task.core = core
                    metrics.waiting.record(time - task.arrival)
                    running[core] = task
                    remaining[core] = float(task.workload)
                    busy[core] = True

            # --- power (busy before completions) and execution -----------------
            pattern = tuple(busy)
            drive = drives.get(pattern)
            if drive is None:
                core_power = np.where(pattern, p_busy, idle_fraction * p_busy)
                drive = (
                    thermals.drive(injection @ core_power),
                    float(core_power.sum()) * dt,
                )
                drives[pattern] = drive
            for core, job in enumerate(running):
                if job is not None:
                    left = remaining[core] - progress[core]
                    if left <= 1e-12:
                        job.finish_time = time + dt
                        running[core] = None
                        busy[core] = False
                        left = 0.0
                        completed += 1
                    remaining[core] = left

            # --- thermal step (deferred) ---------------------------------------
            metrics.total_core_energy += drive[1]
            thermals.push(drive[0])
            if step % record_interval == 0:
                rec_times.append(time + dt)

            time += dt
            if (
                cfg.max_time is None
                and next_arrival >= n_tasks
                and len(queue) == 0
                and completed == n_tasks
            ):
                break

        thermals.flush()

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
                np.concatenate(thermals.recorded)
                if thermals.recorded
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
            t_max=platform.t_max,
        )


class _LazyThermals:
    """Thermal state whose steps queue up until a temperature read.

    Args:
        platform: supplies the thermal recurrence, leakage and ``t_max``.
        t_initial: initial uniform node temperature (Celsius).
        metrics: receives band counts, gradient, violations, peak and
            step counts, one block per flush.
        record_interval: thermal steps between time-series samples.
    """

    def __init__(
        self,
        platform: Platform,
        t_initial: float,
        metrics: SimulationMetrics,
        record_interval: int,
    ) -> None:
        thermal = platform.thermal
        self._a_matrix = thermal.a_matrix
        self._b_vector = thermal.b_vector
        self._c_vector = thermal.c_vector
        self._core_idx = np.asarray(platform.core_indices, dtype=int)
        self._leakage = platform.power.leakage
        self._t_max = platform.t_max
        self._metrics = metrics
        self._record_interval = record_interval
        self._temps = np.full(thermal.n, float(t_initial))
        self._pending: list[np.ndarray] = []
        self._steps_done = 0
        #: Recorded time-series rows, one ``(k, n_cores)`` array per flush.
        self.recorded: list[np.ndarray] = []

    def drive(self, node_power: np.ndarray) -> np.ndarray:
        """The vector :meth:`push` takes for a step with `node_power`.

        Without leakage it is ``b * node_power``, computed once per busy
        pattern.  With leakage it is `node_power` itself: the leakage of
        each step's pre-step temperatures is added during the flush.
        """
        if self._leakage is None:
            return self._b_vector * node_power
        return node_power

    def push(self, drive: np.ndarray) -> None:
        """Queue one thermal step; `drive` may be shared, it is not mutated."""
        self._pending.append(drive)

    def flush(self) -> np.ndarray:
        """Advance through every pending step and record its metrics.

        Returns:
            The current core temperatures (Celsius), a fresh array.
        """
        pending = self._pending
        if pending:
            a_matrix = self._a_matrix
            c_vector = self._c_vector
            core_idx = self._core_idx
            leakage = self._leakage
            nodes = np.empty((len(pending), len(self._temps)))
            temps = self._temps
            for k, drive in enumerate(pending):
                row = nodes[k]
                np.matmul(a_matrix, temps, out=row)
                if leakage is None:
                    row += drive
                else:
                    node_power = drive.copy()
                    node_power[core_idx] += leakage.power(temps[core_idx])
                    row += self._b_vector * node_power
                row += c_vector
                temps = row
            self._temps = temps.copy()
            self._record(nodes[:, core_idx])
            pending.clear()
        return self._temps[self._core_idx]

    def _record(self, block: np.ndarray) -> None:
        """Fold a ``(k, n_cores)`` block of consecutive steps into metrics."""
        metrics = self._metrics
        metrics.bands.record_block(block)
        metrics.gradient.record_block(block)
        metrics.violation_steps += (block > self._t_max).sum(axis=0)
        metrics.total_steps += len(block)
        peak = float(block.max())
        if peak > metrics.peak_temperature:
            metrics.peak_temperature = peak
        first = (-self._steps_done) % self._record_interval
        self.recorded.append(block[first :: self._record_interval].copy())
        self._steps_done += len(block)
