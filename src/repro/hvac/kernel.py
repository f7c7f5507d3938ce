"""One control step's arithmetic, shared by the fleet kernel and the planners.

Plant response, thermal advance, and comfort-and-reward are pure
functions of an :class:`~repro.backend.ArrayBackend` ``b`` and the envs'
static :data:`StepColumns`.  :class:`~repro.sim.VectorHVACEnv` runs them
over ``(n_envs, max_zones)`` rows, the :mod:`repro.baselines` planners
over ``(S, n_zones)`` candidate rows of one env.  On numpy, at one zone,
each block matches ``HVACEnv.step`` operation for operation.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Sequence

import numpy as np

from repro.backend import ArrayBackend
from repro.hvac.vav import AIR_CP_J_PER_KG_K

#: Static per-env step parameters, one row per env (see :func:`step_columns`).
StepColumns = namedtuple(
    "StepColumns",
    "flow_table supply oaf cop fan_scale plant_max_flow aperture "
    "occ_low occ_high set_low set_high cost_w comfort_w zone_mask n_zones",
)


def step_columns(envs: Sequence, max_zones: int) -> StepColumns:
    """Stack scalar HVAC envs' static parameters into :data:`StepColumns`
    (padded zones get no aperture); RC columns come from the network."""
    vavs = [env.vav.config for env in envs]
    m = np.array([env.building.n_zones for env in envs])
    zone_mask = np.arange(max_zones) < m[:, None]

    def per_env(values, shape=(-1,)):
        return np.array(values, dtype=np.float64).reshape(shape)

    def per_zone(rows):
        out = np.zeros(zone_mask.shape)
        out[zone_mask] = np.concatenate(rows)
        return out

    flow_table = np.zeros((len(envs), max(vav.n_levels for vav in vavs)))
    for k, vav in enumerate(vavs):
        flow_table[k, : vav.n_levels] = vav.flow_levels_kg_s
    comfort = [env.comfort for env in envs]
    return StepColumns(
        flow_table=flow_table,
        supply=per_env([vav.supply_temp_c for vav in vavs]),
        oaf=per_env([vav.outdoor_air_fraction for vav in vavs]),
        cop=per_env([vav.cop for vav in vavs]),
        fan_scale=per_env([vav.fan_power_max_w for vav in vavs]) * m,
        plant_max_flow=per_env([vav.max_flow_kg_s for vav in vavs]) * m,
        aperture=per_zone([[zn.solar_aperture_m2 for zn in env.building.zones] for env in envs]),
        occ_low=per_env([band.occupied_low_c for band in comfort], (-1, 1)),
        occ_high=per_env([band.occupied_high_c for band in comfort], (-1, 1)),
        set_low=per_env([band.setback_low_c for band in comfort], (-1, 1)),
        set_high=per_env([band.setback_high_c for band in comfort], (-1, 1)),
        cost_w=per_env([env.config.cost_weight for env in envs]),
        comfort_w=per_env([env.config.comfort_weight for env in envs]),
        zone_mask=zone_mask,
        n_zones=m,
    )


def plant_response(b: ArrayBackend, c: StepColumns, levels, temps, temp_out, price, dt):
    """VAV plant response to per-zone airflow levels (mirrors ``VAVSystem``):
    ``(hvac_heat, cost_share, power_w, energy_kwh, cost_usd)``, where
    ``cost_share`` splits the cost by airflow (evenly when the plant is off).
    """
    flows = b.gather(c.flow_table, levels, axis=1)
    hvac_heat = flows * AIR_CP_J_PER_KG_K * (c.supply[:, None] - temps)
    total_flow = b.sum(flows, axis=1)
    frac = total_flow / c.plant_max_flow
    fan_power = c.fan_scale * b.power(frac, 3)
    safe_total = b.where(total_flow > 0.0, total_flow, 1.0)
    return_temp = b.sum(flows * temps, axis=1) / safe_total
    mixed = (1.0 - c.oaf) * return_temp + c.oaf * temp_out
    delta = b.maximum(mixed - c.supply, 0.0)
    coil_power = b.where(
        total_flow > 0.0, total_flow * AIR_CP_J_PER_KG_K * delta / c.cop, 0.0
    )
    power_w = fan_power + coil_power
    energy_kwh = power_w * dt / 3.6e6
    cost_usd = energy_kwh * price
    cost_share = b.where(
        total_flow[:, None] > 0.0,
        flows / safe_total[:, None],
        c.zone_mask / c.n_zones[:, None],
    )
    return hvac_heat, cost_share, power_w, energy_kwh, cost_usd


def propagate(b: ArrayBackend, decay, gain, temps, temp_out, heat_w, cap, ua):
    """Exact RC step ``decay @ T + gain @ forcing`` under held ambient and heat."""
    forcing = (ua * temp_out[:, None] + heat_w) / cap
    return (
        b.matmul(decay, temps[..., None])[..., 0]
        + b.matmul(gain, forcing[..., None])[..., 0]
    )


def thermal_advance(
    b, c: StepColumns, decay, gain, cap, ua, temps, temp_out, ghi, gains, hvac_heat
):
    """Zone temperatures after one step of held solar, internal and HVAC heat."""
    heat = c.aperture * ghi[:, None] + gains + hvac_heat
    return propagate(b, decay, gain, temps, temp_out, heat, cap, ua)


def comfort_reward(b, c: StepColumns, new_temps, occupied, cost_usd, cost_share, dt_hours):
    """Comfort on end-of-step temperatures, and the reward: ``(violations,
    violation_deg_hours, reward, reward_per_zone)``, where ``reward =
    -cost_weight * cost - comfort_weight * violation_deg_hours``.
    """
    low = b.where(occupied, c.occ_low, c.set_low)
    high = b.where(occupied, c.occ_high, c.set_high)
    violations = b.maximum(0.0, b.maximum(new_temps - high, low - new_temps))
    violations = b.where(c.zone_mask, violations, 0.0)
    violation_deg_hours = b.sum(violations, axis=1) * dt_hours
    reward = -c.cost_w * cost_usd - c.comfort_w * violation_deg_hours
    reward_per_zone = (
        -c.cost_w[:, None] * cost_usd[:, None] * cost_share
        - c.comfort_w[:, None] * violations * dt_hours
    )
    return violations, violation_deg_hours, reward, reward_per_zone
