"""Receding-horizon MPC baseline over an identified (or true) zone model.

The classical model-based alternative to the paper's model-free DRL: at
each control step, enumerate airflow-level sequences over a short
horizon, roll each out through the zone model against the weather
forecast, score total (cost + comfort penalty) exactly as the
environment's reward does, apply the first action of the best sequence,
and re-plan.

Single-zone only: an exhaustive ``levels**horizon`` search is the honest
textbook formulation, and its exponential blow-up in zones is precisely
why the multi-zone story needs either factorization or model-free RL.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.baselines.planner import ExhaustivePlanner
from repro.env.core import Env
from repro.env.hvac_env import HVACEnv
from repro.sysid.fit import FirstOrderZoneModel
from repro.utils.validation import check_positive


class MPCController(ExhaustivePlanner):
    """Exhaustive receding-horizon planner for single-zone buildings.

    Parameters
    ----------
    env:
        The environment to control (single-zone ``HVACEnv``).
    model:
        An identified :class:`FirstOrderZoneModel`.  ``None`` plans with
        a model fitted implicitly from the true building parameters —
        the "perfect model" MPC reference.
    horizon:
        Planning horizon in control steps; the search enumerates
        ``n_levels**horizon`` sequences, so keep it modest (4 by default
        = 256 rollouts per step with a 4-level VAV).
    """

    def __init__(
        self,
        env: Env,
        *,
        model: Optional[FirstOrderZoneModel] = None,
        horizon: int = 4,
        max_sequences: int = 100_000,
    ) -> None:
        check_positive("horizon", horizon)
        inner = env.unwrapped()
        if not isinstance(inner, HVACEnv):
            raise TypeError(
                f"MPCController requires an HVACEnv, got {type(inner).__name__}"
            )
        if inner.building.n_zones != 1:
            raise ValueError(
                "MPCController supports single-zone buildings only "
                f"(got {inner.building.n_zones} zones); the exponential search "
                "is exactly what breaks in multi-zone — use the factored DRL agent"
            )
        n_levels = int(inner.action_space.nvec[0])
        if n_levels**horizon > max_sequences:
            raise ValueError(
                f"{n_levels}**{horizon} sequences exceed limit {max_sequences}"
            )
        super().__init__(inner, horizon)
        self.model = model if model is not None else self._true_model(inner)

    @staticmethod
    def _true_model(env: HVACEnv) -> FirstOrderZoneModel:
        """Build the oracle model straight from the true zone parameters."""
        zone = env.building.zones[0]
        schedule = env.building.schedules[0]
        # Probe the schedule at canonical occupied/unoccupied times.
        occupied_gain = schedule.gains_w_per_m2(1, 12.0) * zone.floor_area_m2
        base_gain = schedule.gains_w_per_m2(1, 2.0) * zone.floor_area_m2
        return FirstOrderZoneModel(
            capacitance_j_per_k=zone.capacitance_j_per_k,
            ua_w_per_k=zone.ua_ambient_w_per_k,
            solar_aperture_m2=zone.solar_aperture_m2,
            gains_occupied_w=occupied_gain,
            gains_base_w=base_gain,
            dt_seconds=env.weather.dt_seconds,
            residual_rmse_c=0.0,
        )

    # ------------------------------------------------------------- planning
    def _advance(self, temps, hvac_heat, temp_out, ghi, occupied, day, hour):
        """Zone-model prediction for every candidate at once."""
        return self.model.step(
            temps[:, 0], temp_out, ghi, hvac_heat[:, 0], bool(occupied[0]),
            self.env.weather.dt_seconds,
        )[:, None]

    def select_action(self, obs: np.ndarray, *, explore: bool = False) -> np.ndarray:
        """Re-plan from the current state and return the first action."""
        return self._plan()
