"""The fleet's precomputed time tables against per-env scalar lookups.

``VectorHVACEnv`` builds its calendar, price and occupancy/gains tables
once per unique signature and scatters them to every env that shares
it.  This checks every entry of every table, on a heterogeneous fleet,
against the scalar calls the tables stand in for: ``WeatherSeries``
clock accessors, ``tariff.price_per_kwh``, ``sched.occupied`` and
``sched.gains_w_per_m2 × floor area``.
"""

import numpy as np

from repro.building import Building, four_zone_office, single_zone_building
from repro.building.occupancy import ConstantSchedule, OfficeSchedule, Schedule
from repro.building.zone import ZoneConfig
from repro.env import HVACEnv, HVACEnvConfig
from repro.hvac.tariffs import (
    DemandResponseTariff,
    FlatTariff,
    Tariff,
    TimeOfUseTariff,
)
from repro.sim import VectorHVACEnv
from repro.weather import SyntheticWeatherConfig, generate_weather


class _ListTariff(Tariff):
    """A custom tariff without value semantics (unhashable)."""

    __hash__ = None

    def __init__(self):
        self.rates = [0.11, 0.19, 0.07]

    def price_per_kwh(self, day_of_year, hour_of_day):
        return self.rates[(day_of_year + int(hour_of_day)) % 3]


class _ListSchedule(Schedule):
    """A custom schedule without value semantics (unhashable)."""

    __hash__ = None

    def __init__(self):
        self.hours = [6.0, 21.0]

    def occupied(self, day_of_year, hour_of_day):
        return self.hours[0] <= hour_of_day < self.hours[1]

    def gains_w_per_m2(self, day_of_year, hour_of_day):
        return 9.5 if self.occupied(day_of_year, hour_of_day) else 1.25 + day_of_year % 3


def _two_zone_custom() -> Building:
    """Two zones of unequal floor area, one with an unhashable schedule."""
    zones = [
        ZoneConfig(
            name=name,
            capacitance_j_per_k=3.6e6,
            ua_ambient_w_per_k=130.0,
            solar_aperture_m2=2.0,
            floor_area_m2=area,
        )
        for name, area in (("small", 47.5), ("large", 180.0))
    ]
    ua = np.array([[0.0, 40.0], [40.0, 0.0]])
    return Building(zones, ua, [OfficeSchedule(work_start_hour=7.0), _ListSchedule()])


def hetero_fleet():
    """Scalar envs spanning every table signature the fleet dedupes on."""

    def weather(start, days, seed):
        return generate_weather(
            SyntheticWeatherConfig(), start_day_of_year=start, n_days=days, rng=seed
        )

    def env(building, w, tariff):
        config = HVACEnvConfig(episode_days=1.0)
        return HVACEnv(building, w, tariff=tariff, config=config, rng=0)

    const = Building(
        single_zone_building().zones, np.zeros((1, 1)), [ConstantSchedule(gains=3.5)]
    )
    august = weather(213, 3, 1)
    return [
        env(single_zone_building(), weather(1, 2, 0), FlatTariff()),
        env(four_zone_office(), august, TimeOfUseTariff()),
        # Year wrap: days 360..365 then 1..4.
        env(
            single_zone_building(),
            weather(360, 10, 2),
            DemandResponseTariff(event_days=frozenset({362, 2})),
        ),
        env(_two_zone_custom(), weather(213, 2, 3), _ListTariff()),
        # Shares every signature with env 1.
        env(four_zone_office(), weather(213, 3, 4), TimeOfUseTariff()),
        env(const, weather(1, 2, 5), DemandResponseTariff(base=FlatTariff(0.2))),
    ]


def test_every_table_matches_scalar_lookups():
    envs = hetero_fleet()
    vec = VectorHVACEnv(envs)
    n, t_max, z = len(envs), max(len(e.weather) for e in envs), vec.max_zones
    assert vec._price.shape == (n, t_max)
    assert vec._gains.shape == vec._occupied.shape == (n, t_max, z)

    for k, env in enumerate(envs):
        w, t = env.weather, len(env.weather)
        np.testing.assert_array_equal(vec._temp_out[k, :t], w.temp_out_c)
        np.testing.assert_array_equal(vec._ghi[k, :t], w.ghi_w_m2)
        for i in range(t):
            day, hour = w.day_of_year(i), w.hour_of_day(i)
            assert vec._day[k, i] == day
            assert vec._hour[k, i] == hour
            assert vec._sin_hour[k, i] == np.sin(2.0 * np.pi * hour / 24.0)
            assert vec._cos_hour[k, i] == np.cos(2.0 * np.pi * hour / 24.0)
            assert vec._workday[k, i] == (0.0 if (day - 1) % 7 >= 5 else 1.0)
            assert vec._price[k, i] == env.tariff.price_per_kwh(day, hour)
            for j, (zone, sched) in enumerate(
                zip(env.building.zones, env.building.schedules)
            ):
                assert vec._occupied[k, i, j] == sched.occupied(day, hour)
                assert vec._gains[k, i, j] == (
                    sched.gains_w_per_m2(day, hour) * zone.floor_area_m2
                )

        # Past the trace end the clock and weather hold their last sample
        # and everything else is zero; padded zones are never occupied.
        last_day, last_hour = w.day_of_year(t - 1), w.hour_of_day(t - 1)
        assert np.all(vec._day[k, t:] == last_day)
        assert np.all(vec._hour[k, t:] == last_hour)
        assert np.all(vec._temp_out[k, t:] == w.temp_out_c[-1])
        assert np.all(vec._ghi[k, t:] == w.ghi_w_m2[-1])
        for table in (vec._price, vec._sin_hour, vec._cos_hour, vec._workday):
            assert np.all(table[k, t:] == 0.0)
        assert not np.any(vec._occupied[k, t:])
        assert np.all(vec._gains[k, t:] == 0.0)
        m = env.building.n_zones
        assert not np.any(vec._occupied[k, :, m:])
        assert np.all(vec._gains[k, :, m:] == 0.0)

