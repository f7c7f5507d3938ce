"""Versioned policy registry: every deployable controller, by ``name@rev``.

The registry is the serving tier's source of truth for *what code runs
for which request*.  Policies enter it three ways:

* :meth:`PolicyRegistry.publish` — an in-memory agent object (a trained
  ``DQNAgent``, a baseline, anything with the agent surface);
* :meth:`PolicyRegistry.load_checkpoint` — a checkpoint file in **any
  format the library has ever emitted**: full agent state dicts
  (``kind="dqn"`` / ``"factored_dqn"``), trainer checkpoints with the
  agent nested inside (``kind="trainer"`` / ``"vector_trainer"``), and
  the legacy weights-only payload of pre-store releases;
* :meth:`PolicyRegistry.load_from_store` — an
  :class:`~repro.store.ExperimentStore` run directory (``train --store``
  output), picking up its named checkpoints.

Baselines that sense environment state directly (thermostat, PID) cannot
be shared across buildings, so they register as **factories**
(:meth:`PolicyRegistry.register_baseline`) that the gateway instantiates
per client against its env view.

Publishing an existing name bumps its revision; resolution by bare name
returns the latest revision while ``name@rev`` pins one.  In-flight
requests that resolved a policy *before* a swap keep the object they
resolved — nothing is mutated in place — which is what makes hot swaps
safe mid-batch (see :class:`~repro.serve.batcher.MicroBatcher`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.agent import AgentBase
from repro.core.dqn import DQNAgent, DQNConfig
from repro.core.multizone import FactoredDQNAgent
from repro.env.spaces import MultiDiscrete
from repro.nn.serialization import load_state_dict as nn_load_state_dict


class CheckpointFormatError(ValueError):
    """A payload is not (and does not contain) a loadable policy."""


def agent_from_checkpoint(payload: dict) -> AgentBase:
    """Reconstruct an agent from any checkpoint payload the library emits.

    Accepted shapes:

    * ``kind="dqn"`` — a full :meth:`DQNAgent.state_dict`;
    * ``kind="factored_dqn"`` — a full :meth:`FactoredDQNAgent.state_dict`;
    * ``kind="trainer"`` / ``"vector_trainer"`` — a trainer checkpoint
      (``train --store``): the nested ``"agent"`` state is loaded;
    * the legacy weights-only format of pre-store releases
      (``{obs_dim, nvec, hidden, state}``), loaded as a greedy-only DQN.

    Anything else — campaign cells, manifests, truncated JSON parsed into
    a non-dict — raises :class:`CheckpointFormatError`.
    """
    if not isinstance(payload, dict):
        raise CheckpointFormatError(
            f"checkpoint payload must be a JSON object, got {type(payload).__name__}"
        )
    kind = payload.get("kind")
    if kind in ("trainer", "vector_trainer"):
        agent_state = payload.get("agent")
        if not isinstance(agent_state, dict):
            raise CheckpointFormatError(
                f"{kind} checkpoint has no nested agent state"
            )
        return agent_from_checkpoint(agent_state)
    if kind == "dqn":
        return DQNAgent.from_state_dict(payload)
    if kind == "factored_dqn":
        return FactoredDQNAgent.from_state_dict(payload)
    if {"obs_dim", "nvec", "hidden", "state"} <= payload.keys():
        # Legacy weights-only checkpoint from pre-store releases.
        agent = DQNAgent(
            int(payload["obs_dim"]),
            MultiDiscrete(payload["nvec"]),
            config=DQNConfig(hidden=tuple(payload["hidden"])),
            rng=0,
        )
        nn_load_state_dict(agent.online, payload["state"])
        agent.target.copy_weights_from(agent.online)
        return agent
    raise CheckpointFormatError(
        f"unrecognized checkpoint format (kind={kind!r}); expected an agent "
        "state dict, a trainer checkpoint, or a legacy weights payload"
    )


def load_checkpoint_file(path: str | Path) -> AgentBase:
    """Read a checkpoint JSON file and reconstruct its agent.

    Corrupt or truncated JSON raises :class:`CheckpointFormatError` with
    the parse position, so a half-written file is rejected loudly instead
    of surfacing as an arbitrary ``KeyError`` deep in reconstruction.
    """
    path = Path(path)
    try:
        payload = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise CheckpointFormatError(
            f"{path} is not valid JSON (corrupt or truncated checkpoint): {exc}"
        ) from exc
    return agent_from_checkpoint(payload)


def validate_policy(policy: AgentBase, probe_obs) -> None:
    """Run one probe inference; raise :class:`CheckpointFormatError` on failure.

    The transactional half of a hot swap: a checkpoint that *parses* but
    cannot answer a real observation (wrong dims, NaN weights, broken
    surface) must be rejected **before** promotion, while the incumbent
    revision is still serving.
    """
    probe = np.asarray(probe_obs, dtype=np.float64)
    try:
        if hasattr(policy, "select_actions"):
            action = np.asarray(policy.select_actions(probe[None, :], explore=False))[0]
        else:
            action = np.atleast_1d(policy.select_action(probe, explore=False))
        action = np.asarray(action, dtype=float)
        # The greedy action alone hides NaN weights feeding only the
        # other actions' Q-values; every value (each head) must be finite.
        q = policy.q_values(probe) if hasattr(policy, "q_values") else []
        q_finite = all(np.all(np.isfinite(h)) for h in (q if isinstance(q, list) else [q]))
    except CheckpointFormatError:
        raise
    except Exception as exc:
        raise CheckpointFormatError(
            f"policy failed probe inference: {type(exc).__name__}: {exc}"
        ) from exc
    if action.size == 0 or not np.all(np.isfinite(action)):
        raise CheckpointFormatError(
            "policy probe inference returned an empty or non-finite action"
        )
    if not q_finite:
        raise CheckpointFormatError("policy probe inference returned non-finite Q-values")


@dataclass(frozen=True)
class PolicyVersion:
    """One immutable published revision of a named policy."""

    name: str
    rev: int
    policy: AgentBase
    source: str = ""

    @property
    def key(self) -> str:
        """The fully qualified ``name@rev`` identifier."""
        return f"{self.name}@{self.rev}"


def split_spec(spec: str) -> Tuple[str, Optional[int]]:
    """Parse ``"name"`` / ``"name@rev"`` into ``(name, rev-or-None)``."""
    name, sep, rev = spec.partition("@")
    if not name:
        raise ValueError(f"empty policy name in spec {spec!r}")
    if not sep:
        return name, None
    try:
        return name, int(rev)
    except ValueError:
        raise ValueError(f"bad revision in policy spec {spec!r}") from None


BASELINE_PREFIX = "baseline:"


class PolicyRegistry:
    """Named, versioned policies plus per-client baseline factories."""

    def __init__(self) -> None:
        self._versions: Dict[str, List[PolicyVersion]] = {}
        self._heads: Dict[str, int] = {}
        self._baselines: Dict[str, Callable[..., AgentBase]] = {}

    # ------------------------------------------------------------ publishing
    def publish(
        self,
        name: str,
        policy: AgentBase,
        *,
        source: str = "",
        probe_obs=None,
    ) -> PolicyVersion:
        """Register ``policy`` under ``name``, bumping the revision.

        Returns the new :class:`PolicyVersion`; earlier revisions stay
        resolvable by ``name@rev``, so requests pinned to them (including
        in-flight batches) are never invalidated.

        With ``probe_obs`` the publish is **transactional**: the policy
        must answer one probe inference (:func:`validate_policy`) before
        it is promoted.  On failure :class:`CheckpointFormatError`
        propagates and the registry — including the incumbent head
        revision — is completely untouched.
        """
        if "@" in name or name.startswith(BASELINE_PREFIX):
            raise ValueError(
                f"policy name {name!r} may not contain '@' or the "
                f"{BASELINE_PREFIX!r} prefix"
            )
        if probe_obs is not None:
            validate_policy(policy, probe_obs)
        history = self._versions.setdefault(name, [])
        version = PolicyVersion(
            name=name, rev=len(history) + 1, policy=policy, source=source
        )
        history.append(version)
        self._heads[name] = version.rev
        return version

    def rollback(self, name: str) -> PolicyVersion:
        """Demote the head of ``name`` to the previous revision.

        The canary-failure escape hatch: a freshly swapped revision that
        trips its circuit breaker is retired from bare-name resolution
        while staying pinned-resolvable (``name@rev``) so in-flight
        requests settle normally.  Returns the restored head.  Raises
        ``ValueError`` when there is no earlier revision to restore.
        """
        head = self._heads.get(name)
        if head is None:
            available = ", ".join(sorted(self._versions)) or "none"
            raise KeyError(
                f"unknown policy {name!r}; registered: {available}"
            )
        if head <= 1:
            raise ValueError(
                f"policy {name!r} has no revision before {head} to roll back to"
            )
        self._heads[name] = head - 1
        return self._versions[name][head - 2]

    def load_checkpoint(
        self, name: str, path: str | Path, *, probe_obs=None
    ) -> PolicyVersion:
        """Publish the agent reconstructed from a checkpoint file.

        ``probe_obs`` makes the publish transactional, exactly as in
        :meth:`publish`: a checkpoint that parses but cannot serve is
        rejected with the incumbent left untouched.
        """
        policy = load_checkpoint_file(path)
        return self.publish(name, policy, source=str(path), probe_obs=probe_obs)

    def load_from_store(
        self,
        store,
        *,
        checkpoint: str = "trainer",
        name: Optional[str] = None,
    ) -> PolicyVersion:
        """Publish a named checkpoint out of an experiment-store run dir.

        ``store`` is an :class:`~repro.store.ExperimentStore` (or any
        object with ``load_checkpoint``/``has_checkpoint`` and a
        manifest).  The policy name defaults to the checkpoint name.
        """
        if not store.has_checkpoint(checkpoint):
            available = ", ".join(store.list_checkpoints()) or "none"
            raise FileNotFoundError(
                f"run {store.root} has no checkpoint {checkpoint!r} "
                f"(available: {available})"
            )
        policy = agent_from_checkpoint(store.load_checkpoint(checkpoint))
        return self.publish(
            name or checkpoint,
            policy,
            source=f"{store.root}:{checkpoint}",
        )

    # ------------------------------------------------------------- baselines
    def register_baseline(
        self, name: str, factory: Callable[..., AgentBase]
    ) -> None:
        """Register a per-client controller factory under ``baseline:name``.

        ``factory(env)`` is called by the gateway once per routed client
        with that client's env view (thermostat/PID sense zone state
        directly, so each building needs its own instance).
        """
        self._baselines[name] = factory

    def baseline_factory(self, spec: str) -> Callable[..., AgentBase]:
        """The factory behind a ``baseline:<name>`` route spec."""
        name = spec[len(BASELINE_PREFIX):] if spec.startswith(BASELINE_PREFIX) else spec
        try:
            return self._baselines[name]
        except KeyError:
            available = ", ".join(sorted(self._baselines)) or "none"
            raise KeyError(
                f"unknown baseline {name!r}; registered: {available}"
            ) from None

    @staticmethod
    def is_baseline_spec(spec: str) -> bool:
        """Whether a route spec names a per-client baseline."""
        return spec.startswith(BASELINE_PREFIX)

    # ------------------------------------------------------------- resolving
    def resolve(self, spec: str) -> PolicyVersion:
        """``"name"`` → head revision; ``"name@rev"`` → that revision.

        The head is normally the newest publish, but :meth:`rollback`
        can demote it to an earlier revision.
        """
        name, rev = split_spec(spec)
        try:
            history = self._versions[name]
        except KeyError:
            available = ", ".join(sorted(self._versions)) or "none"
            raise KeyError(
                f"unknown policy {name!r}; registered: {available}"
            ) from None
        if rev is None:
            return history[self._heads[name] - 1]
        if not 1 <= rev <= len(history):
            raise KeyError(
                f"policy {name!r} has revisions 1..{len(history)}, not {rev}"
            )
        return history[rev - 1]

    def latest_rev(self, name: str) -> int:
        """The current head revision number of ``name``."""
        return self.resolve(name).rev

    def names(self) -> List[str]:
        """Sorted registered policy names (excluding baselines)."""
        return sorted(self._versions)

    def baseline_names(self) -> List[str]:
        """Sorted registered baseline names."""
        return sorted(self._baselines)

    def __contains__(self, spec: str) -> bool:
        try:
            self.resolve(spec)
        except KeyError:
            return False
        return True

    def __repr__(self) -> str:
        return (
            f"PolicyRegistry(policies={self.names()}, "
            f"baselines={self.baseline_names()})"
        )


def default_registry() -> PolicyRegistry:
    """A registry preloaded with the library's standard baselines.

    ``baseline:thermostat``, ``baseline:pid``, and ``baseline:random``
    match the campaign runner's controller names, so a fleet routed by
    campaign vocabulary serves without extra wiring.
    """
    from repro.baselines import (
        PIDController,
        RandomController,
        ThermostatController,
    )

    registry = PolicyRegistry()
    registry.register_baseline("thermostat", ThermostatController)
    registry.register_baseline("pid", PIDController)
    registry.register_baseline(
        "random",
        lambda env, rng=0: RandomController(env.unwrapped().action_space, rng=rng),
    )
    return registry
