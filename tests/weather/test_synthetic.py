"""Tests for the synthetic TMY generator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.weather import SyntheticWeatherConfig, generate_weather
from repro.weather.synthetic import mild_config, summer_config


class TestGeneration:
    def test_deterministic_given_seed(self):
        cfg = SyntheticWeatherConfig()
        a = generate_weather(cfg, start_day_of_year=200, n_days=2, rng=5)
        b = generate_weather(cfg, start_day_of_year=200, n_days=2, rng=5)
        assert np.array_equal(a.temp_out_c, b.temp_out_c)
        assert np.array_equal(a.ghi_w_m2, b.ghi_w_m2)

    def test_seed_changes_trace(self):
        cfg = SyntheticWeatherConfig()
        a = generate_weather(cfg, start_day_of_year=200, n_days=2, rng=5)
        b = generate_weather(cfg, start_day_of_year=200, n_days=2, rng=6)
        assert not np.array_equal(a.temp_out_c, b.temp_out_c)

    def test_length(self):
        w = generate_weather(
            SyntheticWeatherConfig(), start_day_of_year=1, n_days=2, dt_seconds=900
        )
        assert len(w) == 192

    def test_rejects_zero_days(self):
        with pytest.raises(ValueError, match="n_days"):
            generate_weather(SyntheticWeatherConfig(), start_day_of_year=1, n_days=0)

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"start_day_of_year": 400, "n_days": 2}, "start_day_of_year"),
            ({"start_day_of_year": 0, "n_days": 2}, "start_day_of_year"),
            ({"start_day_of_year": 1, "n_days": 1e-4}, "at least one sample"),
        ],
    )
    def test_rejected_call_leaves_generator_untouched(self, kwargs, match):
        g = np.random.default_rng(3)
        before = g.bit_generator.state
        with pytest.raises(ValueError, match=match):
            generate_weather(SyntheticWeatherConfig(), rng=g, **kwargs)
        assert g.bit_generator.state == before


class TestClimateShape:
    def test_summer_hotter_than_winter(self):
        cfg = SyntheticWeatherConfig(noise_std_c=0.0)
        summer = generate_weather(cfg, start_day_of_year=200, n_days=5, rng=0)
        winter = generate_weather(cfg, start_day_of_year=20, n_days=5, rng=0)
        assert summer.temp_out_c.mean() > winter.temp_out_c.mean() + 10.0

    def test_afternoon_warmer_than_dawn(self):
        cfg = SyntheticWeatherConfig(noise_std_c=0.0)
        w = generate_weather(cfg, start_day_of_year=200, n_days=1, rng=0)
        afternoon = w.temp_out_c[60]  # 15:00 at 15-min steps
        dawn = w.temp_out_c[12]  # 03:00
        assert afternoon > dawn + 5.0

    def test_ghi_zero_at_night(self):
        w = generate_weather(
            SyntheticWeatherConfig(), start_day_of_year=200, n_days=1, rng=0
        )
        assert w.ghi_w_m2[0] == 0.0  # midnight
        assert w.ghi_w_m2[8] == 0.0  # 02:00

    def test_ghi_positive_at_noon_summer(self):
        w = generate_weather(
            SyntheticWeatherConfig(), start_day_of_year=200, n_days=1, rng=0
        )
        assert w.ghi_w_m2[48] > 300.0  # noon

    def test_mild_config_cooler(self):
        hot = generate_weather(summer_config(), start_day_of_year=200, n_days=3, rng=0)
        mild = generate_weather(mild_config(), start_day_of_year=200, n_days=3, rng=0)
        assert mild.temp_out_c.mean() < hot.temp_out_c.mean()

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=1, max_value=365), st.integers(min_value=0, max_value=99))
    def test_ghi_always_non_negative(self, start_day, seed):
        w = generate_weather(
            SyntheticWeatherConfig(), start_day_of_year=start_day, n_days=1, rng=seed
        )
        assert np.all(w.ghi_w_m2 >= 0.0)

    def test_noise_magnitude_controlled(self):
        quiet = SyntheticWeatherConfig(noise_std_c=0.0)
        loud = SyntheticWeatherConfig(noise_std_c=3.0)
        a = generate_weather(quiet, start_day_of_year=200, n_days=3, rng=1)
        b = generate_weather(loud, start_day_of_year=200, n_days=3, rng=1)
        assert b.temp_out_c.std() > a.temp_out_c.std()


class TestConfigValidation:
    def test_rejects_bad_latitude(self):
        with pytest.raises(ValueError, match="latitude"):
            SyntheticWeatherConfig(latitude_deg=100.0)

    def test_rejects_bad_ar1(self):
        with pytest.raises(ValueError, match="noise_ar1"):
            SyntheticWeatherConfig(noise_ar1=1.0)

    def test_rejects_bad_cloud_mean(self):
        with pytest.raises(ValueError, match="cloud_mean"):
            SyntheticWeatherConfig(cloud_mean=1.5)
