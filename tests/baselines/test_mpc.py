"""Tests for the receding-horizon MPC baseline."""

from itertools import product

import numpy as np
import pytest

from repro.baselines import (
    LookaheadController,
    MPCController,
    RandomController,
    ThermostatController,
)
from repro.building import four_zone_office, single_zone_building
from repro.env import HVACEnv, HVACEnvConfig
from repro.eval import evaluate_controller, run_episode
from repro.sysid import collect_trace, fit_first_order_zone


class TestConstruction:
    def test_true_model_default(self, single_zone_env):
        mpc = MPCController(single_zone_env, horizon=3)
        zone = single_zone_env.building.zones[0]
        assert mpc.model.capacitance_j_per_k == zone.capacitance_j_per_k
        assert mpc.model.ua_w_per_k == zone.ua_ambient_w_per_k

    def test_rejects_multizone(self, four_zone_env):
        with pytest.raises(ValueError, match="single-zone"):
            MPCController(four_zone_env)

    def test_rejects_huge_search(self, single_zone_env):
        with pytest.raises(ValueError, match="exceed limit"):
            MPCController(single_zone_env, horizon=12, max_sequences=1000)

    def test_rejects_bad_horizon(self, single_zone_env):
        with pytest.raises(ValueError, match="horizon"):
            MPCController(single_zone_env, horizon=0)


class TestControl:
    def test_actions_valid(self, single_zone_env):
        mpc = MPCController(single_zone_env, horizon=3)
        obs = single_zone_env.reset()
        for _ in range(5):
            action = mpc.select_action(obs)
            assert single_zone_env.action_space.contains(action)
            obs, *_ = single_zone_env.step(action)

    def test_beats_random(self, single_zone_env):
        mpc = MPCController(single_zone_env, horizon=3)
        mpc_metrics, _ = run_episode(single_zone_env, mpc)
        rand_metrics, _ = run_episode(
            single_zone_env, RandomController(single_zone_env.action_space, rng=0)
        )
        assert mpc_metrics.episode_return > rand_metrics.episode_return

    def test_competitive_with_thermostat(self, single_zone_env):
        mpc = MPCController(single_zone_env, horizon=4)
        mpc_metrics = evaluate_controller(single_zone_env, mpc)
        thermo_metrics = evaluate_controller(
            single_zone_env, ThermostatController(single_zone_env)
        )
        # A planner with the true model should never be much worse.
        assert mpc_metrics.episode_return > thermo_metrics.episode_return - 2.0

    def test_keeps_comfort(self, single_zone_env):
        mpc = MPCController(single_zone_env, horizon=4)
        metrics, _ = run_episode(single_zone_env, mpc)
        assert metrics.violation_rate < 0.15


class TestWithIdentifiedModel:
    def test_fitted_model_controls(self, single_zone_env):
        trace = collect_trace(single_zone_env, n_steps=400, rng=2)
        model = fit_first_order_zone(trace)
        mpc = MPCController(single_zone_env, model=model, horizon=3)
        metrics, _ = run_episode(single_zone_env, mpc)
        rand_metrics, _ = run_episode(
            single_zone_env, RandomController(single_zone_env.action_space, rng=0)
        )
        assert metrics.episode_return > rand_metrics.episode_return
        assert metrics.violation_rate < 0.2


def rollout_score(env, model, levels):
    """Reward of one level sequence, stepped scalar-by-scalar."""
    dt = env.weather.dt_seconds
    temp = float(env.zone_temps_c[0])
    total = 0.0
    for k, level in enumerate(levels):
        i = min(env.time_index + k, len(env.weather) - 1)
        day, hour = env.weather.day_of_year(i), env.weather.hour_of_day(i)
        temp_out = float(env.weather.temp_out_c[i])
        occupied = bool(env.building.occupancy(day, hour)[0])
        heat = float(env.vav.zone_heat_w([level], [temp])[0])
        power = env.vav.electric_power_w([level], [temp], temp_out)
        cost = env.tariff.energy_cost_usd(power, dt, day, hour)
        temp = model.step(
            temp, temp_out, float(env.weather.ghi_w_m2[i]), heat, occupied, dt
        )
        violation = float(env.comfort.violations_deg(np.array([temp]), np.array([occupied]))[0])
        total += -env.config.cost_weight * cost
        total += -env.config.comfort_weight * violation * dt / 3600.0
    return total


class TestBatchedScores:
    def test_scores_match_stepwise_rollout(self, single_zone_env):
        single_zone_env.reset()
        mpc = MPCController(single_zone_env, horizon=3)
        sequences = list(product(range(4), repeat=3))
        # Midnight, a warm occupied morning, and late evening.
        for n_steps in (0, 44, 40):
            for _ in range(n_steps):
                single_zone_env.step([0])
            scores = mpc._scores()
            assert scores.shape == (len(sequences),)
            for seq, score in zip(sequences, scores):
                expected = rollout_score(single_zone_env, mpc.model, seq)
                assert score == pytest.approx(expected, rel=0.0, abs=1e-12), seq

    def test_all_tied_scores_pick_level_zero(self, summer_weather):
        config = HVACEnvConfig(episode_days=1.0, cost_weight=0.0, comfort_weight=0.0)
        single = HVACEnv(single_zone_building(), summer_weather, config=config, rng=0)
        multi = HVACEnv(four_zone_office(), summer_weather, config=config, rng=0)
        single.reset()
        multi.reset()
        mpc = MPCController(single, horizon=3)
        assert np.all(mpc._scores() == mpc._scores()[0])
        assert np.array_equal(mpc.select_action(None), [0])
        assert np.array_equal(LookaheadController(single).select_action(None), [0])
        assert np.array_equal(LookaheadController(multi).select_action(None), [0] * 4)
