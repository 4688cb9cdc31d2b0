"""Epoch grid arithmetic and odd-width window resolution."""
import pytest
from hypothesis import given, strategies as st

from cardiosleep import epoching
from cardiosleep.errors import RecordingTooShort


class TestGrid:
    def test_floor_rule(self):
        assert epoching.count_epochs(95.0) == 3

    def test_exact_multiple(self):
        assert epoching.count_epochs(90.0) == 3

    def test_too_short(self):
        with pytest.raises(RecordingTooShort):
            epoching.count_epochs(29.0)


class TestResolveWindow:
    def test_interior_window(self):
        first, last = epoching.resolve_window(200, 100, 9)
        assert (first, last) == (96, 104)
        assert last - first + 1 == 9
        assert (first * 30.0, (last + 1) * 30.0) == (96 * 30.0, 105 * 30.0)

    def test_left_edge_shrinks(self):
        first, last = epoching.resolve_window(200, 1, 9)
        assert (first, last) == (0, 5)
        assert last - first + 1 == 6

    def test_right_edge_shrinks(self):
        first, last = epoching.resolve_window(10, 9, 119)
        assert (first, last) == (0, 9)

    def test_even_width_rejected(self):
        with pytest.raises(ValueError):
            epoching.resolve_window(10, 5, 4)

    def test_center_out_of_grid_rejected(self):
        with pytest.raises(ValueError):
            epoching.resolve_window(10, 10, 3)

    @given(n_epochs=st.integers(1, 300), center=st.integers(0, 299),
           width=st.integers(0, 80).map(lambda k: 2 * k + 1))
    def test_window_always_contains_center(self, n_epochs, center, width):
        if center >= n_epochs:
            return
        first, last = epoching.resolve_window(n_epochs, center, width)
        assert first <= center <= last
        assert last - first + 1 <= width
        assert 0 <= first and last < n_epochs

