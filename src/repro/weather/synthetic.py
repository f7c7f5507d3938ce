"""Synthetic typical-meteorological-year generator.

Ambient temperature is modelled as a seasonal harmonic plus a diurnal
harmonic (lagged so the daily peak lands mid-afternoon) plus an AR(1)
stochastic residual.  Irradiance is clear-sky GHI from solar geometry,
attenuated by a slowly varying stochastic cloud factor.  The generator is
deterministic given a seed, so every experiment can pin its weather.

The trace is built as arrays: one ``standard_normal(2n)`` draw supplies
the innovations, and only the two AR(1) recursions run as a loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.seeding import RandomState, ensure_rng
from repro.utils.validation import check_in_range, check_positive
from repro.weather.series import SECONDS_PER_DAY, WeatherSeries, sample_calendar
from repro.weather.solar import clear_sky_ghi, solar_elevation_deg


@dataclass(frozen=True)
class SyntheticWeatherConfig:
    """Knobs of the synthetic climate.

    Defaults approximate a hot-summer continental site (the paper's TMY3
    location class): ~28 °C mean with ~6 °C diurnal swing in August.
    """

    latitude_deg: float = 40.0
    annual_mean_c: float = 14.0
    seasonal_amplitude_c: float = 12.0
    diurnal_amplitude_c: float = 6.0
    peak_day_of_year: int = 200  # mid-July seasonal peak
    peak_hour_of_day: float = 15.0  # mid-afternoon diurnal peak
    noise_std_c: float = 1.0
    noise_ar1: float = 0.95
    cloud_mean: float = 0.85  # mean clear-sky fraction
    cloud_std: float = 0.15
    cloud_ar1: float = 0.98

    def __post_init__(self) -> None:
        check_in_range("latitude_deg", self.latitude_deg, -90.0, 90.0)
        check_positive("seasonal_amplitude_c", self.seasonal_amplitude_c, strict=False)
        check_positive("diurnal_amplitude_c", self.diurnal_amplitude_c, strict=False)
        check_in_range("peak_hour_of_day", self.peak_hour_of_day, 0.0, 24.0)
        check_positive("noise_std_c", self.noise_std_c, strict=False)
        check_in_range("noise_ar1", self.noise_ar1, 0.0, 1.0, inclusive=False)
        check_in_range("cloud_mean", self.cloud_mean, 0.0, 1.0)
        check_positive("cloud_std", self.cloud_std, strict=False)
        check_in_range("cloud_ar1", self.cloud_ar1, 0.0, 1.0, inclusive=False)


def generate_weather(
    config: SyntheticWeatherConfig,
    *,
    start_day_of_year: int,
    n_days: float,
    dt_seconds: float = 900.0,
    rng: RandomState | int | None = None,
) -> WeatherSeries:
    """Generate a :class:`WeatherSeries` of ``n_days`` starting at midnight.

    Parameters
    ----------
    config:
        Climate parameters.
    start_day_of_year:
        First day of the trace (1..365); e.g. 213 ≈ August 1st.
    n_days:
        Length of the trace in days (fractions allowed).
    dt_seconds:
        Sampling period; 900 s matches the paper's 15-minute control step.
    rng:
        Seed or generator for the stochastic residuals.  Arguments are
        validated before anything is drawn from it, so a rejected call
        leaves a caller's generator untouched.
    """
    check_positive("n_days", n_days)
    check_positive("dt_seconds", dt_seconds)
    if not 1 <= int(start_day_of_year) <= 365:
        raise ValueError(
            f"start_day_of_year must be in [1, 365], got {start_day_of_year}"
        )
    n_steps = int(round(n_days * SECONDS_PER_DAY / dt_seconds))
    if n_steps < 1:
        raise ValueError("trace must contain at least one sample")
    rng = ensure_rng(rng)

    days, hours = sample_calendar(start_day_of_year, np.arange(n_steps), dt_seconds)

    # AR(1) residuals: innovations scaled so the stationary std matches cfg.
    # Even draws drive temperature and odd draws cloud, the order of the
    # per-sample (temperature, cloud) pairs the residuals are defined by.
    temp_innov_std = config.noise_std_c * np.sqrt(1.0 - config.noise_ar1**2)
    cloud_innov_std = config.cloud_std * np.sqrt(1.0 - config.cloud_ar1**2)
    innovations = rng.standard_normal(2 * n_steps)
    temp_innov = (temp_innov_std * innovations[0::2]).tolist()
    cloud_innov = (cloud_innov_std * innovations[1::2]).tolist()

    # The two recursions are inherently sequential; everything else is
    # columnar.  Plain floats keep the loop cheap.
    temp_ar1, cloud_ar1 = config.noise_ar1, config.cloud_ar1
    cloud_pull = (1.0 - cloud_ar1) * config.cloud_mean
    temp_noise, cloud = [], []
    t_res, c_res = 0.0, config.cloud_mean
    for t_in, c_in in zip(temp_innov, cloud_innov):
        t_res = temp_ar1 * t_res + t_in
        c_res = min(max(cloud_ar1 * c_res + cloud_pull + c_in, 0.05), 1.0)
        temp_noise.append(t_res)
        cloud.append(c_res)

    seasonal = config.seasonal_amplitude_c * np.cos(
        2.0 * np.pi * (days - config.peak_day_of_year) / 365.0
    )
    diurnal = config.diurnal_amplitude_c * np.cos(
        2.0 * np.pi * (hours - config.peak_hour_of_day) / 24.0
    )
    temp = config.annual_mean_c + seasonal + diurnal + np.array(temp_noise)
    ghi = np.array(cloud) * clear_sky_ghi(solar_elevation_deg(config.latitude_deg, days, hours))

    return WeatherSeries(
        dt_seconds=dt_seconds,
        start_day_of_year=int(start_day_of_year),
        temp_out_c=temp,
        ghi_w_m2=ghi,
    )


def summer_config() -> SyntheticWeatherConfig:
    """The default hot-summer climate used in the paper-shaped experiments."""
    return SyntheticWeatherConfig()


def mild_config() -> SyntheticWeatherConfig:
    """A mild climate variant for sensitivity experiments."""
    return SyntheticWeatherConfig(
        annual_mean_c=11.0,
        seasonal_amplitude_c=8.0,
        diurnal_amplitude_c=4.0,
    )
