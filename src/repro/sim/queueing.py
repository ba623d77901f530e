"""Task queue and task-to-core assignment policies.

The paper's default assignment (section 3.1): "when a task arrives, the
control unit assigns the task to any idle processor.  If all the processors
are busy, the task is queued up in a task-queue."  Section 5.4 additionally
evaluates the temperature-aware assignment of Coskun et al. [26], which we
model as coolest-core-first.
"""

from __future__ import annotations

import abc
from collections import deque
from typing import ClassVar

import numpy as np

from repro.errors import SimulationError
from repro.sim.task import Task


class TaskQueue:
    """FIFO queue of tasks waiting for a core."""

    def __init__(self) -> None:
        self._queue: deque[Task] = deque()

    def __len__(self) -> int:
        return len(self._queue)

    def push(self, task: Task) -> None:
        """Append a task."""
        self._queue.append(task)

    def pop(self) -> Task:
        """Remove and return the oldest task.

        Raises:
            SimulationError: when the queue is empty.
        """
        if not self._queue:
            raise SimulationError("pop from an empty task queue")
        return self._queue.popleft()

    def peek(self) -> Task | None:
        """The oldest task without removing it, or None."""
        return self._queue[0] if self._queue else None

    @property
    def backlog(self) -> float:
        """Total queued workload (s at f_max)."""
        return sum(t.workload for t in self._queue)

    def clear(self) -> None:
        """Drop all queued tasks."""
        self._queue.clear()


class AssignmentPolicy(abc.ABC):
    """Chooses which idle core receives the next task.

    Attributes:
        name: label reported in simulation results.
        reads_temperatures: whether :meth:`choose_core` looks at
            `core_temperatures`.  The simulator advances thermals lazily and
            brings them up to date before assignment only for policies that
            declare True (the default, so a new policy is always correct);
            the others receive the temperatures read at the last DFS window
            boundary.  A property of the policy class, not a setting.
    """

    name: str = "assignment"
    reads_temperatures: ClassVar[bool] = True

    @abc.abstractmethod
    def choose_core(
        self,
        idle_cores: list[int],
        core_temperatures: np.ndarray,
    ) -> int:
        """Pick one index out of `idle_cores` (non-empty)."""

    def reset(self) -> None:
        """Clear any internal state before a fresh simulation run.

        Stateful policies (seeded RNGs) must re-initialize here so that a
        policy object reused across runs reproduces bit-identically.
        """


class FirstIdleAssignment(AssignmentPolicy):
    """Paper default: any idle processor (lowest index for determinism)."""

    name = "first-idle"
    reads_temperatures = False

    def choose_core(
        self,
        idle_cores: list[int],
        core_temperatures: np.ndarray,
    ) -> int:
        if not idle_cores:
            raise SimulationError("choose_core called with no idle cores")
        return min(idle_cores)


class CoolestFirstAssignment(AssignmentPolicy):
    """Temperature-aware assignment modeled after Coskun et al. [26].

    Sends work to the coolest idle core, spreading heat spatially; used for
    the paper's section 5.4 experiment (Figure 11).
    """

    name = "coolest-first"

    def choose_core(
        self,
        idle_cores: list[int],
        core_temperatures: np.ndarray,
    ) -> int:
        if not idle_cores:
            raise SimulationError("choose_core called with no idle cores")
        temps = np.asarray(core_temperatures, dtype=float)
        return min(idle_cores, key=lambda i: (temps[i], i))


class RandomAssignment(AssignmentPolicy):
    """Uniformly random idle core (reproducible via seed); an ablation."""

    name = "random"
    reads_temperatures = False

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._rng = np.random.default_rng(seed)

    def reset(self) -> None:
        """Re-seed, so runs reusing this policy object reproduce."""
        self._rng = np.random.default_rng(self.seed)

    def choose_core(
        self,
        idle_cores: list[int],
        core_temperatures: np.ndarray,
    ) -> int:
        if not idle_cores:
            raise SimulationError("choose_core called with no idle cores")
        return int(self._rng.choice(idle_cores))
