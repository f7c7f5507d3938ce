"""Tests for the model-based myopic lookahead reference."""

import copy
import dataclasses

import numpy as np
import pytest

from repro.baselines import LookaheadController, RandomController
from repro.building import Building, single_zone_building
from repro.env import HVACEnv, HVACEnvConfig, TimeLimit
from repro.eval import run_episode


class TestLookahead:
    def test_action_valid(self, single_zone_env):
        obs = single_zone_env.reset()
        oracle = LookaheadController(single_zone_env)
        assert single_zone_env.action_space.contains(oracle.select_action(obs))

    @pytest.mark.parametrize("env_name", ["single_zone_env", "four_zone_env"])
    def test_one_step_reward_matches_env(self, env_name, request):
        """Each candidate's score is the reward env.step would return.

        At one zone the kernel is the scalar step operation for
        operation, so the match is exact; across zones the propagator
        matmul and zone sums may round differently.
        """
        env = request.getfixturevalue(env_name)
        env.reset()
        space = env.action_space
        for n_steps in (0, 44):  # midnight, then a warm occupied morning
            for _ in range(n_steps):
                env.step(np.zeros(space.nvec.shape, dtype=int))
            scores = LookaheadController(env)._scores()
            assert scores.shape == (space.n_joint,)
            for joint in range(0, space.n_joint, 7):
                env_copy = copy.deepcopy(env)
                _, actual, _, _ = env_copy.step(space.unflatten(joint))
                if env.building.n_zones == 1:
                    assert scores[joint] == actual, f"joint {joint}"
                else:
                    assert scores[joint] == pytest.approx(
                        actual, rel=1e-9, abs=1e-12
                    ), f"joint {joint}"

    def test_beats_random_on_immediate_reward(self, single_zone_env):
        oracle = LookaheadController(single_zone_env)
        oracle_metrics, _ = run_episode(single_zone_env, oracle)
        rand = RandomController(single_zone_env.action_space, rng=0)
        rand_metrics, _ = run_episode(single_zone_env, rand)
        assert oracle_metrics.episode_return > rand_metrics.episode_return

    def test_works_through_wrappers(self, single_zone_env):
        wrapped = TimeLimit(single_zone_env, max_steps=10)
        oracle = LookaheadController(wrapped)
        metrics, _ = run_episode(wrapped, oracle)
        assert metrics.steps == 10

    def test_rejects_zone_isolated_from_ambient(self, summer_weather):
        base = single_zone_building()
        isolated = dataclasses.replace(base.zones[0], name="core", ua_ambient_w_per_k=0.0)
        building = Building(
            zones=[base.zones[0], isolated],
            ua_interzone=np.zeros((2, 2)),
            schedules=base.schedules * 2,
        )
        env = HVACEnv(building, summer_weather, config=HVACEnvConfig(episode_days=1.0), rng=0)
        with pytest.raises(ValueError, match="coupled to ambient"):
            LookaheadController(env)

    def test_rejects_huge_action_spaces(self, four_zone_env):
        with pytest.raises(ValueError, match="exceeds limit"):
            LookaheadController(four_zone_env, max_joint_actions=10)

    def test_rejects_non_hvac_env(self):
        class Fake:
            def unwrapped(self):
                return self

        with pytest.raises(TypeError, match="HVACEnv"):
            LookaheadController(Fake())  # type: ignore[arg-type]
