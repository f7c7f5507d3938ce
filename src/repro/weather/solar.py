"""Clear-sky solar geometry.

Implements the standard astronomical approximations used by building
simulators: Cooper's declination formula, the hour-angle model of solar
elevation, and a simple air-mass-attenuated clear-sky global horizontal
irradiance (GHI).  Accuracy targets are those relevant for HVAC control
(diurnal shape, seasonal amplitude), not ephemeris-grade positioning.
"""

from __future__ import annotations

from typing import Union

import numpy as np

ArrayOrFloat = Union[float, np.ndarray]

# Extraterrestrial (top-of-atmosphere) solar constant, W/m^2.
SOLAR_CONSTANT = 1361.0


def solar_declination_deg(day_of_year: ArrayOrFloat) -> ArrayOrFloat:
    """Solar declination angle in degrees (Cooper 1969).

    ``day_of_year`` runs 1..365; the declination swings ±23.45° over the
    year and is what gives summer its high sun path.  Accepts a scalar
    (returns ``float``) or an array of days (returns an array).
    """
    day = np.asarray(day_of_year, dtype=float)
    if np.any((day < 1.0) | (day > 366.0)):
        raise ValueError(f"day_of_year must be in [1, 366], got {day_of_year}")
    decl = 23.45 * np.sin(np.deg2rad(360.0 * (284.0 + day) / 365.0))
    return float(decl) if decl.ndim == 0 else decl


def solar_elevation_deg(
    latitude_deg: float, day_of_year: ArrayOrFloat, hour_of_day: ArrayOrFloat
) -> ArrayOrFloat:
    """Solar elevation above the horizon, degrees (negative at night).

    Uses local solar time directly (no longitude/equation-of-time
    correction): for synthetic weather that offset is irrelevant.  Day
    and hour broadcast against each other; scalar inputs give a
    ``float``.
    """
    if not -90.0 <= latitude_deg <= 90.0:
        raise ValueError(f"latitude must be in [-90, 90], got {latitude_deg}")
    hour = np.asarray(hour_of_day, dtype=float)
    if np.any((hour < 0.0) | (hour >= 24.0)):
        raise ValueError(f"hour_of_day must be in [0, 24), got {hour_of_day}")
    lat = np.deg2rad(latitude_deg)
    decl = np.deg2rad(solar_declination_deg(day_of_year))
    hour_angle = np.deg2rad(15.0 * (hour - 12.0))
    sin_elev = np.sin(lat) * np.sin(decl) + np.cos(lat) * np.cos(decl) * np.cos(hour_angle)
    elev = np.rad2deg(np.arcsin(np.clip(sin_elev, -1.0, 1.0)))
    return float(elev) if np.ndim(elev) == 0 else elev


def clear_sky_ghi(elevation_deg: ArrayOrFloat) -> ArrayOrFloat:
    """Clear-sky global horizontal irradiance (W/m^2) for a sun elevation.

    A Haurwitz-style model: GHI rises with the sine of elevation and an
    exponential air-mass attenuation term.  Returns 0 when the sun is at
    or below the horizon.  Accepts a scalar (returns ``float``) or an
    array of elevations (returns an array).
    """
    elev = np.asarray(elevation_deg, dtype=float)
    ghi = np.zeros(elev.shape)
    up = elev > 0.0
    e = elev[up]
    sin_elev = np.sin(np.deg2rad(e))
    # Kasten-Young style relative air mass, stable near the horizon.  The
    # power is taken with Python's float ``**`` per sample: numpy's
    # vectorized ``np.power`` can differ from it in the last ulp, and the
    # weather fixtures pin these values bit for bit.
    horizon_term = np.array([(x + 6.07995) ** -1.6364 for x in e.tolist()])
    air_mass = 1.0 / (sin_elev + 0.50572 * horizon_term)
    ghi[up] = np.maximum(0.84 * SOLAR_CONSTANT * sin_elev * np.exp(-0.13 * air_mass), 0.0)
    return float(ghi) if ghi.ndim == 0 else ghi
