"""Simulation metrics: temperature bands, waiting times, gradients.

These back the paper's evaluation figures:

* Figure 6 — fraction of time spent per temperature band
  (<80, 80-90, 90-100, >100 Celsius), averaged across cores;
* Figure 7 — average task waiting time;
* Figure 8 / section 5.4 — spatial gradient (max - min core temperature).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import SimulationError

#: The paper's Figure 6 band edges (Celsius).
PAPER_BAND_EDGES = (80.0, 90.0, 100.0)

#: Labels matching :data:`PAPER_BAND_EDGES`.
PAPER_BAND_LABELS = ("<80", "80-90", "90-100", ">100")


@dataclass
class BandAccumulator:
    """Online per-core histogram of time spent in temperature bands.

    Args:
        n_cores: number of cores tracked.
        edges: ascending band edges; ``len(edges) + 1`` bands result.
    """

    n_cores: int
    edges: tuple[float, ...] = PAPER_BAND_EDGES
    counts: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        if list(self.edges) != sorted(self.edges):
            raise SimulationError("band edges must be ascending")
        self.counts = np.zeros((self.n_cores, len(self.edges) + 1), dtype=np.int64)
        self._edges_arr = np.asarray(self.edges, dtype=float)
        self._core_range = np.arange(self.n_cores)

    def record(self, core_temperatures: np.ndarray) -> None:
        """Add one time-step sample for every core."""
        self.record_block(np.asarray(core_temperatures)[np.newaxis, :])

    def record_block(self, block: np.ndarray) -> None:
        """Add one time-step sample per row of `block`, shape (k, n_cores)."""
        bands = np.searchsorted(self._edges_arr, block, side="right")
        n_bands = self.counts.shape[1]
        cells = bands + self._core_range * n_bands
        self.counts += np.bincount(
            cells.ravel(), minlength=self.counts.size
        ).reshape(self.counts.shape)

    @property
    def total_samples(self) -> int:
        """Samples recorded per core."""
        return int(self.counts[0].sum()) if self.n_cores else 0

    def fractions(self) -> np.ndarray:
        """Per-core band fractions, shape (n_cores, n_bands)."""
        totals = self.counts.sum(axis=1, keepdims=True)
        safe = np.maximum(totals, 1)
        return self.counts / safe

    def mean_fractions(self) -> np.ndarray:
        """Band fractions averaged across cores (the Figure 6 bars)."""
        return self.fractions().mean(axis=0)


@dataclass
class GradientAccumulator:
    """Online statistics of the spatial gradient across cores."""

    samples: int = 0
    _sum: float = 0.0
    _max: float = 0.0

    def record(self, core_temperatures: np.ndarray) -> None:
        """Add one time-step sample."""
        self.record_block(np.asarray(core_temperatures)[np.newaxis, :])

    def record_block(self, block: np.ndarray) -> None:
        """Add one time-step sample per row of `block`, shape (k, n_cores)."""
        spreads = (np.max(block, axis=1) - np.min(block, axis=1)).tolist()
        if not spreads:
            return
        total = self._sum
        for spread in spreads:  # step order: the mean must not depend on k
            total += spread
        self._sum = total
        self.samples += len(spreads)
        self._max = max(self._max, max(spreads))

    @property
    def mean(self) -> float:
        """Mean spatial gradient (Celsius)."""
        return self._sum / self.samples if self.samples else 0.0

    @property
    def max(self) -> float:
        """Peak spatial gradient (Celsius)."""
        return self._max


@dataclass
class WaitingTimeStats:
    """Aggregated queueing-delay statistics (Figure 7)."""

    waits: list[float] = field(default_factory=list)

    def record(self, wait: float) -> None:
        """Record one task's waiting time (s)."""
        if wait < -1e-12:
            raise SimulationError(f"negative waiting time {wait}")
        self.waits.append(max(wait, 0.0))

    @property
    def count(self) -> int:
        """Number of tasks recorded."""
        return len(self.waits)

    @property
    def mean(self) -> float:
        """Mean waiting time (s); 0 when no tasks recorded."""
        return float(np.mean(self.waits)) if self.waits else 0.0

    @property
    def p95(self) -> float:
        """95th percentile waiting time (s)."""
        return float(np.percentile(self.waits, 95)) if self.waits else 0.0

    @property
    def maximum(self) -> float:
        """Largest waiting time (s)."""
        return float(np.max(self.waits)) if self.waits else 0.0


@dataclass
class SimulationMetrics:
    """Everything a simulation run reports.

    Attributes:
        bands: per-core temperature-band histogram.
        gradient: spatial-gradient statistics.
        waiting: task waiting-time statistics.
        violation_steps: per-core count of steps spent above t_max.
        total_steps: thermal steps simulated.
        peak_temperature: hottest core temperature observed (Celsius).
        completed_tasks: tasks finished within the simulated horizon.
        arrived_tasks: tasks that arrived within the horizon.
        total_core_energy: integral of core power over time (J).
        window_frequencies: per-window mean core frequency (Hz).
    """

    bands: BandAccumulator
    gradient: GradientAccumulator = field(default_factory=GradientAccumulator)
    waiting: WaitingTimeStats = field(default_factory=WaitingTimeStats)
    violation_steps: np.ndarray = field(default_factory=lambda: np.zeros(0))
    total_steps: int = 0
    peak_temperature: float = -np.inf
    completed_tasks: int = 0
    arrived_tasks: int = 0
    total_core_energy: float = 0.0
    window_frequencies: list[float] = field(default_factory=list)

    @property
    def violation_fraction(self) -> float:
        """Fraction of (core, step) samples above t_max."""
        if self.total_steps == 0:
            return 0.0
        return float(self.violation_steps.sum()) / (
            self.total_steps * len(self.violation_steps)
        )

    @property
    def any_violation(self) -> bool:
        """True when any core ever exceeded t_max."""
        return bool(np.any(self.violation_steps > 0))

    @property
    def mean_frequency(self) -> float:
        """Mean of per-window average frequencies (Hz)."""
        if not self.window_frequencies:
            return 0.0
        return float(np.mean(self.window_frequencies))
