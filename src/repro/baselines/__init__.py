"""Baseline controllers the paper compares against (plus references).

* :class:`ThermostatController` — the conventional rule-based ON/OFF
  (two-position, hysteresis) control the paper uses as its primary
  baseline.
* :class:`TabularQAgent` — Q-learning on a discretized state space, the
  paper's classical-RL comparison point.
* :class:`PIDController` — proportional-integral-derivative tracking of a
  setpoint, a stronger conventional baseline.
* :class:`RandomController` — the sanity floor.
* :class:`LookaheadController` and :class:`MPCController` — one batched
  exhaustive planner (:mod:`repro.baselines.planner`) in two settings:
  the myopic one-step oracle on the true simulator model, and
  receding-horizon MPC over an identified (or true) zone model, the
  model-based alternative whose model requirement motivates DRL.
"""

from repro.baselines.rule_based import ThermostatController
from repro.baselines.pid import PIDController
from repro.baselines.random_policy import RandomController
from repro.baselines.tabular_q import ObsDiscretizer, TabularQAgent, TabularQConfig
from repro.baselines.lookahead import LookaheadController
from repro.baselines.mpc import MPCController

__all__ = [
    "ThermostatController",
    "PIDController",
    "RandomController",
    "ObsDiscretizer",
    "TabularQAgent",
    "TabularQConfig",
    "LookaheadController",
    "MPCController",
]
