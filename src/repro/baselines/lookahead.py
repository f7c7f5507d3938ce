"""Model-based myopic oracle.

Enumerates every joint action, simulates one control step with the *true*
simulator components (building, VAV plant, tariff, comfort band, actual
weather), and picks the action with the best immediate reward.  It is not
optimal — it cannot pre-cool ahead of price peaks — but it is the exact
greedy policy of the true one-step model, a useful reference bound for
model-free agents and a check that the environment's reward surface is
sane.

Only feasible for modest joint action spaces (``levels**zones``); the
constructor guards against combinatorial blow-up.  It also rejects a
building with a zone cut off from the outside air: the batched search
needs the exact RC propagator, which ``HVACEnv`` replaces by Euler there.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.planner import ExhaustivePlanner
from repro.env.core import Env
from repro.env.hvac_env import HVACEnv
from repro.hvac.kernel import thermal_advance


class LookaheadController(ExhaustivePlanner):
    """One-step exhaustive search over the true simulator model."""

    def __init__(self, env: Env, *, max_joint_actions: int = 4096) -> None:
        inner = env.unwrapped()
        if not isinstance(inner, HVACEnv):
            raise TypeError(
                f"LookaheadController requires an HVACEnv, got {type(inner).__name__}"
            )
        n_joint = inner.action_space.n_joint
        if n_joint > max_joint_actions:
            raise ValueError(
                f"joint action space of {n_joint} exceeds limit {max_joint_actions}"
            )
        if inner.building.network._m_inverse is None:
            raise ValueError("LookaheadController needs every zone coupled to ambient")
        super().__init__(inner, horizon=1)

    def _advance(self, temps, hvac_heat, temp_out, ghi, occupied, day, hour):
        """The building's RC network advanced for every candidate at once."""
        net, b = self.env.building.network, self._backend
        decay, gain = net._propagator(self.env.weather.dt_seconds)
        gains = self.env.building.internal_gains_w(day, hour)
        return thermal_advance(
            b, self._columns, decay, gain, net.capacitance, net.ua_ambient,
            temps, temp_out, ghi, gains, hvac_heat,
        )

    def select_action(self, obs: np.ndarray, *, explore: bool = False) -> np.ndarray:
        return self._plan()
