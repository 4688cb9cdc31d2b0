"""Epoch grid arithmetic and odd-width window resolution."""
import numpy as np
import pytest
from hypothesis import given, strategies as st

from cardiosleep import epoching
from cardiosleep.errors import RecordingTooShort
from cardiosleep.types import SignalTrace


class TestGrid:
    def test_floor_rule(self):
        grid = epoching.build_epoch_grid(95.0, 30.0)
        assert grid.n_epochs == 3
        assert grid.epoch_span(1) == (30.0, 60.0)

    def test_exact_multiple(self):
        assert epoching.build_epoch_grid(90.0, 30.0).n_epochs == 3

    def test_too_short(self):
        with pytest.raises(RecordingTooShort):
            epoching.build_epoch_grid(29.0, 30.0)


class TestResolveWindow:
    def test_interior_window(self):
        grid = epoching.EpochGrid(30.0, 200)
        span = epoching.resolve_window(grid, 100, 9)
        assert (span.first_epoch, span.last_epoch) == (96, 104)
        assert span.effective_n == 9
        assert span.time_span(grid) == (96 * 30.0, 105 * 30.0)

    def test_left_edge_shrinks(self):
        grid = epoching.EpochGrid(30.0, 200)
        span = epoching.resolve_window(grid, 1, 9)
        assert (span.first_epoch, span.last_epoch) == (0, 5)
        assert span.effective_n == 6

    def test_right_edge_shrinks(self):
        grid = epoching.EpochGrid(30.0, 10)
        span = epoching.resolve_window(grid, 9, 119)
        assert (span.first_epoch, span.last_epoch) == (0, 9)

    def test_even_width_rejected(self):
        grid = epoching.EpochGrid(30.0, 10)
        with pytest.raises(ValueError):
            epoching.resolve_window(grid, 5, 4)

    def test_center_out_of_grid_rejected(self):
        grid = epoching.EpochGrid(30.0, 10)
        with pytest.raises(ValueError):
            epoching.resolve_window(grid, 10, 3)

    @given(n_epochs=st.integers(1, 300), center=st.integers(0, 299),
           width=st.integers(0, 80).map(lambda k: 2 * k + 1))
    def test_window_always_contains_center(self, n_epochs, center, width):
        if center >= n_epochs:
            return
        grid = epoching.EpochGrid(30.0, n_epochs)
        span = epoching.resolve_window(grid, center, width)
        assert span.first_epoch <= center <= span.last_epoch
        assert span.effective_n <= width
        assert 0 <= span.first_epoch and span.last_epoch < n_epochs


class TestValueSelection:
    def test_window_trace_values_counts(self):
        trace = SignalTrace("B", 25.0, np.arange(25 * 120, dtype=float))
        grid = epoching.EpochGrid(30.0, 4)
        seg, span = epoching.window_trace_values(trace, grid, 1, 1)
        assert len(seg) == 750
        assert seg[0] == 750  # first sample at t = 30 s
        seg_all, _ = epoching.window_trace_values(trace, grid, 1, 9)
        assert len(seg_all) == 25 * 120  # shrunk to the whole recording
