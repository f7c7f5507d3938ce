"""PolicyRegistry: every checkpoint format, versioning, hot-swap safety."""

import json

import numpy as np
import pytest

from repro.core import DQNAgent, DQNConfig, FactoredDQNAgent, Trainer, TrainerConfig
from repro.env.spaces import MultiDiscrete
from repro.nn.serialization import state_dict as nn_state_dict
from repro.serve import (
    CheckpointFormatError,
    PolicyRegistry,
    agent_from_checkpoint,
    default_registry,
    load_checkpoint_file,
    split_spec,
)
from repro.store import ExperimentStore


def make_agent(seed=0, nvec=(4,)):
    return DQNAgent(6, MultiDiscrete(list(nvec)), rng=seed)


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return path


class TestCheckpointFormats:
    def test_loads_full_dqn_state_dict(self, tmp_path):
        agent = make_agent(seed=3)
        path = write_json(
            tmp_path / "agent.json", agent.state_dict(include_buffer=False)
        )
        loaded = load_checkpoint_file(path)
        obs = np.linspace(-1.0, 1.0, 6)
        assert np.array_equal(loaded.select_action(obs), agent.select_action(obs))

    def test_loads_factored_dqn_state_dict(self, tmp_path):
        agent = FactoredDQNAgent(6, MultiDiscrete([3, 3]), rng=7)
        path = write_json(
            tmp_path / "factored.json", agent.state_dict(include_buffer=False)
        )
        loaded = load_checkpoint_file(path)
        assert isinstance(loaded, FactoredDQNAgent)
        obs = np.linspace(-1.0, 1.0, 6)
        assert np.array_equal(loaded.select_action(obs), agent.select_action(obs))

    def test_loads_trainer_checkpoint_from_train_store(self, tmp_path):
        """The `train --store` format: the agent nested in trainer state."""
        from repro.cli import main

        run_dir = tmp_path / "run"
        assert main(["train", "--episodes", "2", "--store", str(run_dir)]) == 0
        store = ExperimentStore.open(run_dir)
        registry = PolicyRegistry()
        version = registry.load_from_store(store, checkpoint="trainer")
        assert version.key == "trainer@1"
        obs = np.zeros(version.policy.obs_dim)
        action = version.policy.select_action(obs)
        assert action.shape == (1,)

    def test_loads_legacy_weights_only_format(self, tmp_path):
        agent = make_agent(seed=11)
        payload = {
            "obs_dim": agent.obs_dim,
            "nvec": agent.action_space.nvec.tolist(),
            "hidden": list(agent.config.hidden),
            "state": nn_state_dict(agent.online),
        }
        loaded = load_checkpoint_file(write_json(tmp_path / "legacy.json", payload))
        obs = np.linspace(-0.5, 0.5, 6)
        assert np.array_equal(loaded.select_action(obs), agent.select_action(obs))

    def test_rejects_campaign_cell_payload(self, tmp_path):
        cell = {
            "scenario": "heat-wave",
            "controller": "thermostat",
            "row": {"mean": {}, "std": {}},
        }
        with pytest.raises(CheckpointFormatError, match="unrecognized"):
            load_checkpoint_file(write_json(tmp_path / "cell.json", cell))

    def test_rejects_corrupt_truncated_json(self, tmp_path):
        agent = make_agent()
        text = json.dumps(agent.state_dict(include_buffer=False))
        path = tmp_path / "truncated.json"
        path.write_text(text[: len(text) // 2])
        with pytest.raises(CheckpointFormatError, match="corrupt or truncated"):
            load_checkpoint_file(path)

    def test_rejects_non_object_payload(self, tmp_path):
        with pytest.raises(CheckpointFormatError, match="JSON object"):
            load_checkpoint_file(write_json(tmp_path / "list.json", [1, 2, 3]))

    def test_rejects_trainer_without_nested_agent(self):
        with pytest.raises(CheckpointFormatError, match="no nested agent"):
            agent_from_checkpoint({"kind": "trainer"})

    def test_store_missing_checkpoint_lists_available(self, tmp_path):
        store = ExperimentStore.create(tmp_path / "run", kind="train")
        store.save_checkpoint("other", make_agent().state_dict(include_buffer=False))
        registry = PolicyRegistry()
        with pytest.raises(FileNotFoundError, match="other"):
            registry.load_from_store(store, checkpoint="trainer")


class TestVersioning:
    def test_publish_bumps_revision(self):
        registry = PolicyRegistry()
        assert registry.publish("dqn", make_agent(0)).key == "dqn@1"
        assert registry.publish("dqn", make_agent(1)).key == "dqn@2"
        assert registry.latest_rev("dqn") == 2

    def test_bare_name_resolves_latest_pinned_spec_resolves_exact(self):
        registry = PolicyRegistry()
        first = registry.publish("dqn", make_agent(0))
        second = registry.publish("dqn", make_agent(1))
        assert registry.resolve("dqn").policy is second.policy
        assert registry.resolve("dqn@1").policy is first.policy

    def test_old_revisions_survive_hot_swap(self):
        """In-flight requests pinned to a revision must stay servable."""
        registry = PolicyRegistry()
        old = registry.publish("dqn", make_agent(0))
        pinned = registry.resolve("dqn")  # what an in-flight batch holds
        registry.publish("dqn", make_agent(1))
        assert pinned.policy is old.policy
        assert registry.resolve(pinned.key).policy is old.policy

    def test_unknown_name_and_revision_raise(self):
        registry = PolicyRegistry()
        registry.publish("dqn", make_agent())
        with pytest.raises(KeyError, match="unknown policy"):
            registry.resolve("nope")
        with pytest.raises(KeyError, match="revisions 1..1"):
            registry.resolve("dqn@9")

    def test_invalid_names_rejected(self):
        registry = PolicyRegistry()
        with pytest.raises(ValueError):
            registry.publish("a@b", make_agent())
        with pytest.raises(ValueError):
            registry.publish("baseline:pid", make_agent())

    def test_split_spec(self):
        assert split_spec("dqn") == ("dqn", None)
        assert split_spec("dqn@3") == ("dqn", 3)
        with pytest.raises(ValueError):
            split_spec("@3")
        with pytest.raises(ValueError):
            split_spec("dqn@x")

    def test_contains(self):
        registry = PolicyRegistry()
        registry.publish("dqn", make_agent())
        assert "dqn" in registry
        assert "dqn@1" in registry
        assert "dqn@2" not in registry


class TestTransactionalSwap:
    def probe(self):
        return np.zeros(6)

    def test_publish_with_probe_validates(self):
        registry = PolicyRegistry()
        version = registry.publish("dqn", make_agent(), probe_obs=self.probe())
        assert version.key == "dqn@1"

    def test_probe_failure_leaves_registry_untouched(self):
        class Broken:
            def select_action(self, obs, explore=False):
                raise RuntimeError("poisoned weights")

        registry = PolicyRegistry()
        registry.publish("dqn", make_agent(0))
        with pytest.raises(CheckpointFormatError, match="probe inference"):
            registry.publish("dqn", Broken(), probe_obs=self.probe())
        assert registry.latest_rev("dqn") == 1
        assert "dqn@2" not in registry

    def test_non_finite_probe_action_rejected(self):
        class NaNPolicy:
            def select_action(self, obs, explore=False):
                return np.array([np.nan])

        registry = PolicyRegistry()
        with pytest.raises(CheckpointFormatError, match="non-finite"):
            registry.publish("bad", NaNPolicy(), probe_obs=self.probe())
        assert "bad" not in registry

    def test_partly_nan_q_values_rejected(self):
        """Regression: one NaN output column leaves the greedy action
        finite, but the policy must still be rejected."""
        agent = make_agent(1)
        agent.online.parameters()[-1].value[2] = np.nan  # output bias
        q = agent.q_values(self.probe())
        assert np.isnan(q[2]) and np.all(np.isfinite(np.delete(q, 2)))
        registry = PolicyRegistry()
        incumbent = registry.publish("dqn", make_agent(0))
        with pytest.raises(CheckpointFormatError, match="non-finite Q-values"):
            registry.publish("dqn", agent, probe_obs=self.probe())
        assert registry.latest_rev("dqn") == 1
        assert registry.resolve("dqn").policy is incumbent.policy

    def test_factored_agent_with_one_nan_head_rejected(self):
        agent = FactoredDQNAgent(6, MultiDiscrete([3, 3]), rng=7)
        agent.online[1].parameters()[-1].value[0] = np.nan
        with pytest.raises(CheckpointFormatError, match="non-finite Q-values"):
            PolicyRegistry().publish("mz", agent, probe_obs=self.probe())

    def test_truncated_json_swap_mid_serve(self, tmp_path):
        """Regression: a half-written checkpoint swapped mid-serve must
        raise CheckpointFormatError and leave the incumbent serving."""
        registry = PolicyRegistry()
        incumbent = registry.publish("dqn", make_agent(0))
        pinned = registry.resolve("dqn")  # an in-flight batch's view
        text = json.dumps(make_agent(1).state_dict(include_buffer=False))
        path = tmp_path / "half.json"
        path.write_text(text[: len(text) // 2])
        with pytest.raises(CheckpointFormatError, match="corrupt or truncated"):
            registry.load_checkpoint("dqn", path, probe_obs=self.probe())
        # Incumbent untouched: bare name and the pinned key still serve.
        assert registry.latest_rev("dqn") == 1
        assert registry.resolve("dqn").policy is incumbent.policy
        assert registry.resolve(pinned.key).policy is incumbent.policy

    def test_load_checkpoint_with_probe_accepts_good_file(self, tmp_path):
        agent = make_agent(5)
        path = write_json(
            tmp_path / "good.json", agent.state_dict(include_buffer=False)
        )
        registry = PolicyRegistry()
        version = registry.load_checkpoint("dqn", path, probe_obs=self.probe())
        assert version.key == "dqn@1"


class TestRollback:
    def test_rollback_demotes_head_keeps_pins(self):
        registry = PolicyRegistry()
        first = registry.publish("dqn", make_agent(0))
        second = registry.publish("dqn", make_agent(1))
        restored = registry.rollback("dqn")
        assert restored.policy is first.policy
        assert registry.resolve("dqn").rev == 1
        # The retired canary stays pinned-resolvable for in-flight work.
        assert registry.resolve("dqn@2").policy is second.policy

    def test_publish_after_rollback_becomes_new_head(self):
        registry = PolicyRegistry()
        registry.publish("dqn", make_agent(0))
        registry.publish("dqn", make_agent(1))
        registry.rollback("dqn")
        third = registry.publish("dqn", make_agent(2))
        assert third.rev == 3
        assert registry.resolve("dqn").rev == 3

    def test_rollback_at_first_revision_raises(self):
        registry = PolicyRegistry()
        registry.publish("dqn", make_agent())
        with pytest.raises(ValueError, match="no revision before"):
            registry.rollback("dqn")

    def test_rollback_unknown_name_raises(self):
        registry = PolicyRegistry()
        with pytest.raises(KeyError, match="unknown policy"):
            registry.rollback("ghost")


class TestBaselines:
    def test_default_registry_names_match_campaign_vocabulary(self):
        registry = default_registry()
        assert registry.baseline_names() == ["pid", "random", "thermostat"]

    def test_unknown_baseline_raises(self):
        registry = default_registry()
        with pytest.raises(KeyError, match="unknown baseline"):
            registry.baseline_factory("baseline:mpc")

    def test_is_baseline_spec(self):
        assert PolicyRegistry.is_baseline_spec("baseline:pid")
        assert not PolicyRegistry.is_baseline_spec("dqn@2")
