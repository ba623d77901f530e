"""Tests for simulation metrics accumulators."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim import (
    PAPER_BAND_EDGES,
    PAPER_BAND_LABELS,
    BandAccumulator,
    GradientAccumulator,
    SimulationMetrics,
    WaitingTimeStats,
)


class TestBandAccumulator:
    def test_band_classification(self):
        acc = BandAccumulator(n_cores=4)
        acc.record(np.array([70.0, 85.0, 95.0, 110.0]))
        assert acc.counts[0, 0] == 1  # <80
        assert acc.counts[1, 1] == 1  # 80-90
        assert acc.counts[2, 2] == 1  # 90-100
        assert acc.counts[3, 3] == 1  # >100

    def test_boundary_goes_to_upper_band(self):
        acc = BandAccumulator(n_cores=1)
        acc.record(np.array([80.0]))
        assert acc.counts[0, 1] == 1

    def test_fractions_sum_to_one(self):
        acc = BandAccumulator(n_cores=2)
        for temp in (75.0, 85.0, 95.0, 105.0, 95.0):
            acc.record(np.array([temp, temp]))
        fractions = acc.fractions()
        assert np.allclose(fractions.sum(axis=1), 1.0)
        assert acc.total_samples == 5

    def test_mean_fractions(self):
        acc = BandAccumulator(n_cores=2)
        acc.record(np.array([70.0, 110.0]))
        mean = acc.mean_fractions()
        assert mean[0] == pytest.approx(0.5)
        assert mean[3] == pytest.approx(0.5)

    def test_custom_edges(self):
        acc = BandAccumulator(n_cores=1, edges=(50.0,))
        acc.record(np.array([40.0]))
        acc.record(np.array([60.0]))
        assert acc.counts[0, 0] == 1
        assert acc.counts[0, 1] == 1

    def test_unsorted_edges_rejected(self):
        with pytest.raises(SimulationError):
            BandAccumulator(n_cores=1, edges=(90.0, 80.0))

    def test_labels_match_edge_count(self):
        assert len(PAPER_BAND_LABELS) == len(PAPER_BAND_EDGES) + 1

    @given(
        st.lists(
            st.floats(min_value=0, max_value=150, allow_nan=False),
            min_size=1,
            max_size=50,
        )
    )
    def test_fractions_always_normalized(self, temps):
        acc = BandAccumulator(n_cores=1)
        for t in temps:
            acc.record(np.array([t]))
        assert acc.fractions().sum() == pytest.approx(1.0)


class TestRecordBlock:
    """``record_block`` over k rows equals k single-row ``record`` calls."""

    @given(
        st.integers(1, 5).flatmap(
            lambda n: st.lists(
                st.lists(
                    st.floats(min_value=0, max_value=150, allow_nan=False),
                    min_size=n,
                    max_size=n,
                ),
                max_size=30,
            )
        )
    )
    def test_block_equals_row_by_row(self, rows):
        n_cores = len(rows[0]) if rows else 3
        block = np.array(rows, dtype=float).reshape(len(rows), n_cores)
        bands, bands_rows = BandAccumulator(n_cores), BandAccumulator(n_cores)
        grad, grad_rows = GradientAccumulator(), GradientAccumulator()
        bands.record_block(block)
        grad.record_block(block)
        for row in block:
            bands_rows.record(row)
            grad_rows.record(row)
        assert np.array_equal(bands.counts, bands_rows.counts)
        assert grad == grad_rows  # bit-identical sum, samples and max


class TestGradientAccumulator:
    def test_mean_and_max(self):
        acc = GradientAccumulator()
        acc.record(np.array([50.0, 60.0]))
        acc.record(np.array([50.0, 54.0]))
        assert acc.mean == pytest.approx(7.0)
        assert acc.max == pytest.approx(10.0)

    def test_empty(self):
        acc = GradientAccumulator()
        assert acc.mean == 0.0
        assert acc.max == 0.0


class TestWaitingTimeStats:
    def test_statistics(self):
        stats = WaitingTimeStats()
        for w in (0.0, 0.1, 0.2, 0.3):
            stats.record(w)
        assert stats.count == 4
        assert stats.mean == pytest.approx(0.15)
        assert stats.maximum == pytest.approx(0.3)
        assert stats.p95 <= 0.3

    def test_negative_rejected(self):
        with pytest.raises(SimulationError):
            WaitingTimeStats().record(-0.5)

    def test_tiny_negative_clamped(self):
        stats = WaitingTimeStats()
        stats.record(-1e-15)
        assert stats.waits[0] == 0.0

    def test_empty(self):
        stats = WaitingTimeStats()
        assert stats.mean == 0.0
        assert stats.p95 == 0.0


class TestSimulationMetrics:
    def make(self):
        return SimulationMetrics(
            bands=BandAccumulator(n_cores=2),
            violation_steps=np.array([5, 0], dtype=np.int64),
            total_steps=10,
        )

    def test_violation_fraction(self):
        metrics = self.make()
        assert metrics.violation_fraction == pytest.approx(5 / 20)
        assert metrics.any_violation

    def test_no_steps(self):
        metrics = SimulationMetrics(
            bands=BandAccumulator(n_cores=2),
            violation_steps=np.zeros(2, dtype=np.int64),
        )
        assert metrics.violation_fraction == 0.0
        assert not metrics.any_violation

    def test_mean_frequency(self):
        metrics = self.make()
        metrics.window_frequencies = [1e9, 5e8]
        assert metrics.mean_frequency == pytest.approx(7.5e8)
        metrics.window_frequencies = []
        assert metrics.mean_frequency == 0.0
