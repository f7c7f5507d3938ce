"""Tests for comfort-band violation accounting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.env import ComfortBand


def violation(band, temp, occupied):
    """One zone's violation through the vectorized accounting."""
    return float(band.violations_deg(np.array([temp]), np.array([occupied]))[0])


class TestComfortBand:
    def test_inside_band_no_violation(self):
        band = ComfortBand()
        assert violation(band, 24.0, occupied=True) == 0.0

    def test_above_band(self):
        band = ComfortBand(occupied_high_c=26.0)
        assert violation(band, 28.5, occupied=True) == pytest.approx(2.5)

    def test_below_band(self):
        band = ComfortBand(occupied_low_c=22.0)
        assert violation(band, 20.0, occupied=True) == pytest.approx(2.0)

    def test_setback_band_wider(self):
        band = ComfortBand()
        temp = 28.0  # violates occupied band, fine in setback
        assert violation(band, temp, occupied=True) > 0.0
        assert violation(band, temp, occupied=False) == 0.0

    def test_setback_still_enforced(self):
        band = ComfortBand(setback_high_c=32.0)
        assert violation(band, 35.0, occupied=False) == pytest.approx(3.0)

    def test_band_edges_are_inside(self):
        band = ComfortBand()
        temps = np.array(
            [band.occupied_low_c, band.occupied_high_c, band.setback_low_c, band.setback_high_c]
        )
        occ = np.array([True, True, False, False])
        assert np.array_equal(band.violations_deg(temps, occ), np.zeros(4))

    def test_vectorized_per_zone(self):
        band = ComfortBand()
        temps = np.array([20.0, 24.0, 28.0])
        occ = np.array([True, True, True])
        assert np.allclose(band.violations_deg(temps, occ), [2.0, 0.0, 2.0])

    def test_vectorized_mixed_occupancy(self):
        band = ComfortBand()
        temps = np.array([28.0, 28.0])
        occ = np.array([True, False])
        vec = band.violations_deg(temps, occ)
        assert vec[0] > 0.0 and vec[1] == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="must match"):
            ComfortBand().violations_deg(np.zeros(2), np.zeros(3, dtype=bool))

    def test_rejects_inverted_band(self):
        with pytest.raises(ValueError, match="high > low"):
            ComfortBand(occupied_low_c=26.0, occupied_high_c=22.0)

    def test_rejects_setback_inside_occupied(self):
        with pytest.raises(ValueError, match="setback band must contain"):
            ComfortBand(setback_low_c=23.0)

    @settings(max_examples=50, deadline=None)
    @given(
        st.floats(min_value=-10.0, max_value=45.0),
        st.booleans(),
    )
    def test_property_violation_non_negative(self, temp, occupied):
        assert violation(ComfortBand(), temp, occupied) >= 0.0

    @settings(max_examples=50, deadline=None)
    @given(st.floats(min_value=-10.0, max_value=45.0))
    def test_property_occupied_at_least_as_strict(self, temp):
        band = ComfortBand()
        assert violation(band, temp, True) >= violation(band, temp, False)
