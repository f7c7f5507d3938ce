"""Exhaustive batched planning over the fleet kernel's step arithmetic.

All ``S`` level sequences of the horizon, an ``(S, H, n_zones)`` array in
:func:`itertools.product` order, are scored at once by the
:mod:`repro.hvac.kernel` plant and comfort/reward functions; subclasses
supply the thermal advance as ``_advance``, returning ``(S, n_zones)``
zone temperatures.  ``np.argmax`` keeps the first tied best.
"""

from __future__ import annotations

from itertools import product

import numpy as np

from repro.backend import get_backend
from repro.core.agent import AgentBase
from repro.env.hvac_env import HVACEnv
from repro.hvac.kernel import comfort_reward, plant_response, step_columns


class ExhaustivePlanner(AgentBase):
    """Scores every level sequence of the horizon as one array program."""

    def __init__(self, env: HVACEnv, horizon: int) -> None:
        self.env = env
        self.horizon = int(horizon)
        levels = [range(int(n)) for n in env.action_space.nvec]
        self._candidates = np.array(
            list(product(*levels, repeat=self.horizon)), dtype=int
        ).reshape(-1, self.horizon, len(levels))
        self._columns = step_columns([env], env.building.n_zones)
        self._backend = get_backend()

    def _scores(self) -> np.ndarray:
        """Total reward of each candidate; inputs past the trace end hold."""
        b, c, env = self._backend, self._columns, self.env
        dt = env.weather.dt_seconds
        temps = np.broadcast_to(env.zone_temps_c, self._candidates[:, 0].shape)
        total = np.zeros(len(self._candidates))
        for k in range(self.horizon):
            i = min(env.time_index + k, len(env.weather) - 1)
            day, hour = env.weather.day_of_year(i), env.weather.hour_of_day(i)
            temp_out, ghi = env.weather.temp_out_c[i : i + 1], env.weather.ghi_w_m2[i : i + 1]
            occupied = env.building.occupancy(day, hour)
            hvac_heat, cost_share, *_, cost_usd = plant_response(
                b, c, self._candidates[:, k], temps, temp_out,
                env.tariff.price_per_kwh(day, hour), dt,
            )
            temps = self._advance(temps, hvac_heat, temp_out, ghi, occupied, day, hour)
            total += comfort_reward(b, c, temps, occupied, cost_usd, cost_share, dt / 3600.0)[2]
        return total

    def _plan(self) -> np.ndarray:
        """First action of the best-scoring candidate."""
        return self._candidates[int(np.argmax(self._scores())), 0].copy()
