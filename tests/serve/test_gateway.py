"""FleetGateway: routing, mixed fleets, hot swap, telemetry integrity."""

import numpy as np
import pytest

from repro.core import DQNAgent
from repro.serve import (
    CheckpointFormatError,
    FleetGateway,
    MicroBatcherConfig,
    ResilienceConfig,
    default_registry,
)
from repro.serve.chaos import BrokenPolicy, ChaosInjector, FlushStall
from repro.sim import VectorHVACEnv, build_fleet


def make_fleet(n=6, scenario="baseline-tou"):
    return VectorHVACEnv(build_fleet(scenario, seeds=range(n)), autoreset=True)


def make_registry(vec):
    registry = default_registry()
    env = vec.envs[0]
    registry.publish("dqn", DQNAgent(env.obs_dim, env.action_space, rng=0))
    return registry


DETERMINISTIC = MicroBatcherConfig(max_batch_size=64, deterministic=True)


class TestRouting:
    def test_single_spec_routes_whole_fleet(self):
        vec = make_fleet(4)
        gateway = FleetGateway(vec, make_registry(vec), "dqn", config=DETERMINISTIC)
        gateway.run(3)
        assert gateway.stats.requests_per_policy == {"dqn@1": 12}

    def test_mixed_fleet_runs_heterogeneous_controllers(self):
        vec = make_fleet(6)
        routes = ["dqn", "dqn", "baseline:thermostat", "baseline:pid", "dqn", "baseline:thermostat"]
        gateway = FleetGateway(vec, make_registry(vec), routes, config=DETERMINISTIC)
        stats = gateway.run(4)
        assert stats.requests_per_policy == {
            "dqn@1": 12,
            "baseline:thermostat": 8,
            "baseline:pid": 4,
        }
        # Every client was served every tick.
        assert stats.total_requests == 6 * 4
        assert stats.env_steps == 24

    def test_route_count_must_match_fleet(self):
        vec = make_fleet(4)
        with pytest.raises(ValueError, match="one route per client"):
            FleetGateway(vec, make_registry(vec), ["dqn"] * 3)

    def test_unknown_route_fails_at_construction(self):
        vec = make_fleet(2)
        with pytest.raises(KeyError, match="unknown policy"):
            FleetGateway(vec, make_registry(vec), ["dqn", "nope"])
        with pytest.raises(KeyError, match="unknown baseline"):
            FleetGateway(vec, make_registry(vec), ["dqn", "baseline:mpc"])

    def test_pinned_revision_route(self):
        vec = make_fleet(2)
        registry = make_registry(vec)
        env = vec.envs[0]
        registry.publish("dqn", DQNAgent(env.obs_dim, env.action_space, rng=1))
        gateway = FleetGateway(
            vec, registry, ["dqn@1", "dqn"], config=DETERMINISTIC
        )
        gateway.run(2)
        assert gateway.stats.requests_per_policy == {"dqn@1": 2, "dqn@2": 2}


class TestSession:
    def test_tick_returns_fleet_rewards(self):
        vec = make_fleet(5)
        gateway = FleetGateway(vec, make_registry(vec), "dqn", config=DETERMINISTIC)
        gateway.reset()
        rewards = gateway.tick()
        assert rewards.shape == (5,)
        assert np.all(np.isfinite(rewards))

    def test_run_serves_across_episode_boundaries(self):
        """Autoreset keeps a serving session alive past episode ends."""
        vec = make_fleet(3)
        episode_steps = int(vec.envs[0].episode_steps)
        gateway = FleetGateway(vec, make_registry(vec), "dqn", config=DETERMINISTIC)
        stats = gateway.run(episode_steps + 5)
        assert stats.env_steps == 3 * (episode_steps + 5)

    def test_stats_window_measures_throughput(self):
        vec = make_fleet(2)
        gateway = FleetGateway(vec, make_registry(vec), "dqn", config=DETERMINISTIC)
        stats = gateway.run(3)
        assert stats.throughput_rps > 0
        assert stats.elapsed_s > 0


class TestEpisodeBoundaries:
    def test_local_controllers_restart_on_autoreset(self):
        """Stateful baselines must begin_episode when their env auto-resets,
        matching the scalar evaluation loop's per-episode reset."""

        class EpisodeProbe:
            def __init__(self, env):
                self.n_zones = len(env.unwrapped().action_space.nvec)
                self.begins = 0

            def begin_episode(self, obs):
                self.begins += 1

            def select_action(self, obs, *, explore=False):
                return np.zeros(self.n_zones, dtype=int)

        vec = make_fleet(2)
        registry = make_registry(vec)
        registry.register_baseline("probe", EpisodeProbe)
        gateway = FleetGateway(
            vec, registry, "baseline:probe", config=DETERMINISTIC
        )
        episode_steps = int(vec.envs[0].episode_steps)
        gateway.run(episode_steps + 1)  # crosses one episode boundary
        probes = list(gateway._local_controllers.values())
        # One begin at reset() plus one per autoreset boundary.
        assert all(p.begins == 2 for p in probes)


class TestPartialTicks:
    def test_inactive_clients_hold_their_last_action(self):
        vec = make_fleet(3)
        gateway = FleetGateway(vec, make_registry(vec), "dqn", config=DETERMINISTIC)
        gateway.reset()
        gateway.tick()  # everyone requests; actions now held
        held = np.array(gateway.last_actions, copy=True)
        gateway.tick(active=[1])
        # Clients 0 and 2 reused their previous action verbatim.
        assert np.array_equal(gateway.last_actions[0], held[0])
        assert np.array_equal(gateway.last_actions[2], held[2])

    def test_first_tick_inactive_clients_apply_zero_action(self):
        vec = make_fleet(2)
        gateway = FleetGateway(vec, make_registry(vec), "dqn", config=DETERMINISTIC)
        gateway.reset()
        gateway.tick(active=[])
        assert np.all(gateway.last_actions == 0)

    def test_only_active_clients_cost_inference(self):
        vec = make_fleet(4)
        gateway = FleetGateway(vec, make_registry(vec), "dqn", config=DETERMINISTIC)
        gateway.reset()
        gateway.tick(active=[0, 3])
        assert gateway.stats.total_requests == 2
        # The simulation still stepped the whole fleet.
        assert gateway.stats.env_steps == 4

    def test_partial_ticks_serve_local_controllers_too(self):
        vec = make_fleet(2)
        gateway = FleetGateway(
            vec, make_registry(vec), "baseline:thermostat", config=DETERMINISTIC
        )
        gateway.reset()
        gateway.tick(active=[1])
        assert gateway.stats.requests_per_policy == {"baseline:thermostat": 1}


class TestDegradedHoldLast:
    """Timeout / breaker-rejected clients hold their last action — they are
    never silently zeroed, matching the inactive-client hold-last path."""

    def resilient_gateway(self, n=3, **res_kwargs):
        vec = make_fleet(n)
        registry = make_registry(vec)
        resilience = ResilienceConfig(**res_kwargs)
        gateway = FleetGateway(
            vec, registry, "dqn", config=DETERMINISTIC, resilience=resilience
        )
        gateway.reset()
        return gateway

    def test_timeout_clients_hold_last_action(self):
        gateway = self.resilient_gateway(deadline_s=0.05)
        gateway.tick()  # healthy tick establishes held actions
        held = np.array(gateway.last_actions, copy=True)
        # Every flush now stalls for 1 s of virtual latency — all requests
        # blow the 50 ms deadline, retries included.
        gateway.batcher.chaos = ChaosInjector(
            [FlushStall(probability=1.0, stall_s=1.0)], seed=0
        )
        gateway.tick()
        assert gateway.stats.errors_by_kind["timeout"] > 0
        assert np.array_equal(gateway.last_actions, held)

    def test_breaker_rejected_clients_hold_last_action(self):
        gateway = self.resilient_gateway(auto_rollback=False)
        gateway.tick()
        held = np.array(gateway.last_actions, copy=True)
        gateway.swap("dqn", BrokenPolicy(), validate=False)
        for _ in range(5):
            gateway.tick()
            assert np.array_equal(gateway.last_actions, held)
        stats = gateway.stats
        assert stats.fallbacks_by_route.get("hold-last", 0) > 0
        assert stats.env_steps == 6 * gateway.n_clients

    def test_degraded_partial_tick_holds_inactive_and_rejected(self):
        gateway = self.resilient_gateway()
        gateway.tick()
        held = np.array(gateway.last_actions, copy=True)
        gateway.swap("dqn", BrokenPolicy(), validate=False)
        gateway.tick(active=[0, 2])
        # Inactive client 1 held; degraded actives 0 and 2 held too.
        assert np.array_equal(gateway.last_actions, held)

    def test_out_of_range_active_indices_raise(self):
        vec = make_fleet(2)
        gateway = FleetGateway(vec, make_registry(vec), "dqn", config=DETERMINISTIC)
        gateway.reset()
        with pytest.raises(ValueError, match="out of range"):
            gateway.tick(active=[0, 2])


class TestWarmup:
    def test_warmup_ticks_stay_out_of_the_measurement_window(self):
        vec = make_fleet(3)
        gateway = FleetGateway(vec, make_registry(vec), "dqn", config=DETERMINISTIC)
        stats = gateway.run(4, warmup=2)
        # Only the measured steps appear in the session stats.
        assert stats.total_requests == 3 * 4
        assert stats.env_steps == 3 * 4

    def test_warmup_still_advances_the_simulation(self):
        vec = make_fleet(2)
        gateway = FleetGateway(vec, make_registry(vec), "dqn", config=DETERMINISTIC)
        gateway.run(1, warmup=3)
        # The vector env's batched step counter saw warmup + measured ticks.
        assert list(vec._steps_taken) == [4, 4]

    def test_negative_warmup_raises(self):
        vec = make_fleet(2)
        gateway = FleetGateway(vec, make_registry(vec), "dqn", config=DETERMINISTIC)
        with pytest.raises(ValueError, match="warmup"):
            gateway.run(1, warmup=-1)


class TestHotSwap:
    def test_swap_changes_serving_revision_without_dropping_requests(self):
        vec = make_fleet(4)
        registry = make_registry(vec)
        gateway = FleetGateway(vec, registry, "dqn", config=DETERMINISTIC)
        gateway.run(2)  # 8 requests on dqn@1
        env = vec.envs[0]
        new_key = gateway.swap("dqn", DQNAgent(env.obs_dim, env.action_space, rng=3))
        assert new_key == "dqn@2"
        gateway.run(2)  # 8 requests on dqn@2
        stats = gateway.stats
        assert stats.requests_per_policy == {"dqn@1": 8, "dqn@2": 8}
        assert stats.total_requests == 16  # nothing dropped
        assert stats.swaps == 1

    def test_swap_mid_tick_pins_in_flight_batch(self):
        """Requests queued before the swap flush through the old revision."""
        vec = make_fleet(3)
        registry = make_registry(vec)
        gateway = FleetGateway(
            vec,
            registry,
            "dqn",
            config=MicroBatcherConfig(max_batch_size=64, deterministic=True),
        )
        gateway.reset()
        per_env_obs = vec.split_obs(gateway._obs)
        tickets = [
            gateway.batcher.submit("dqn", per_env_obs[k], client_id=k)
            for k in range(3)
        ]
        env = vec.envs[0]
        gateway.swap("dqn", DQNAgent(env.obs_dim, env.action_space, rng=4))
        gateway.batcher.flush()
        assert all(t.done for t in tickets)
        assert {t.policy_key for t in tickets} == {"dqn@1"}

    def test_swap_to_partly_nan_policy_rolls_back(self):
        vec = make_fleet(2)
        registry = make_registry(vec)
        gateway = FleetGateway(vec, registry, "dqn", config=DETERMINISTIC)
        gateway.run(1)
        env = vec.envs[0]
        poisoned = DQNAgent(env.obs_dim, env.action_space, rng=3)
        poisoned.online.parameters()[-1].value[1] = np.nan  # one Q column
        with pytest.raises(CheckpointFormatError, match="non-finite Q-values"):
            gateway.swap("dqn", poisoned)
        assert registry.latest_rev("dqn") == 1
        gateway.run(1)
        stats = gateway.stats
        assert stats.swaps == 0
        assert stats.requests_per_policy == {"dqn@1": 4}
