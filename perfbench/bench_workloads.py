"""The benchmark's three workloads.

Each workload turns a seed into inputs (:meth:`Workload.make_inputs`,
untimed), builds what its timed operation needs (:meth:`Workload.setup`,
timed as set-up), runs the operation through the program's public entry
points (:meth:`Workload.run`, timed) and checks the result
(:meth:`Workload.check`, untimed), returning an :class:`Outcome` that
counts the work of the whole operation (one e1 call, one replay, one
planner day) in env-steps and requests.
"""

from __future__ import annotations

import importlib
import math
import sys
import time
from dataclasses import dataclass, field, replace
from typing import Dict, List

import numpy as np

from repro.baselines import LookaheadController, MPCController
from repro.building import single_zone_building
from repro.core import AgentBase
from repro.eval import experiments
from repro.eval.runner import evaluate_controller
from repro.sysid import collect_trace, fit_first_order_zone
from repro.workloads import SuiteJob, build_suite_gateway, generate_trace, get_workload, replay_trace

STEPS_PER_DAY = 96  # 15-minute control interval
clock = time.perf_counter


@dataclass
class Outcome:
    """One timed operation's result after its output checks."""

    attempted: int
    env_steps: int
    requests: int
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    values: Dict[str, object] = field(default_factory=dict)


def derive_seeds(seed: int, n: int) -> List[int]:
    """``n`` independent 31-bit seeds from one workload seed."""
    state = np.random.SeedSequence(int(seed)).generate_state(n)
    return [int(s) & 0x7FFFFFFF for s in state]


class Workload:
    """Base class: one seeded workload of the benchmark."""

    name = ""
    #: Timed operations a run makes at the least.
    min_ops = 3

    def make_inputs(self, seed: int):
        return seed

    def setup(self, inputs):
        raise NotImplementedError

    def run(self, state):
        raise NotImplementedError

    def check(self, state, result, probes=None) -> Outcome:
        """``probes`` are the ``probe.Probes`` of the timed operation, if any."""
        raise NotImplementedError

    def compare(self, outcomes: List[Outcome]) -> None:
        """Checks across the operations of one run (none by default)."""

    def figures(self, outcomes: List[Outcome]) -> Dict[str, float]:
        """Workload-specific figures of the run (see ``README.md``)."""
        return {}


# ------------------------------------------------------------------ paper-e1
def _program_modules() -> Dict[str, object]:
    return {name: module for name, module in sys.modules.items()
            if name == "repro" or name.startswith("repro.")}


class PaperE1(Workload):
    """Table I as researchers run it: ``e1_single_zone_table(FAST)``."""

    name = "paper-e1"
    profile = experiments.FAST

    def setup(self, inputs):
        # The experiment builds all its objects inside the call, so its
        # set-up is importing the program: fresh module objects for
        # repro.eval.experiments and all it imports.  The run keeps the
        # modules it loaded first; they are put back afterwards.
        loaded = _program_modules()
        for name in loaded:
            del sys.modules[name]
        try:
            importlib.import_module("repro.eval.experiments")
        finally:
            for name in _program_modules():
                del sys.modules[name]
            sys.modules.update(loaded)

    def run(self, state):
        return experiments.e1_single_zone_table(self.profile)

    def check(self, state, result, probes=None) -> Outcome:
        table = result.table
        train_steps = 2 * result.extras["dqn"].total_steps  # DQN and tabular, same budget
        env_steps = train_steps + len(table.rows) * self.profile.eval_days * STEPS_PER_DAY
        out = Outcome(attempted=env_steps, env_steps=env_steps, requests=env_steps)
        for row in table.rows:
            numbers = (row.cost_usd, row.energy_kwh, row.violation_deg_hours, row.episode_return)
            if not all(math.isfinite(x) for x in numbers):
                out.problems.append(f"non-finite metrics in row {row.name}")
        dqn, thermostat, random = (table.row(n) for n in ("drl_dqn", "thermostat", "random"))
        if not dqn.cost_usd < thermostat.cost_usd:
            out.problems.append(
                f"DQN cost {dqn.cost_usd:.3f} is not below the thermostat's {thermostat.cost_usd:.3f}"
            )
        others = [r.violation_deg_hours for r in table.rows if r.name != "random"]
        if not random.violation_deg_hours > max(others):
            out.problems.append("random does not have the worst comfort violation")
        if out.problems:
            out.failed = env_steps
        out.values.update(
            dqn_cost_saving_pct=table.cost_saving_pct("drl_dqn"),
            dqn_violation_deg_hours=dqn.violation_deg_hours,
        )
        return out

    def figures(self, outcomes):
        return {k: float(np.median([o.values[k] for o in outcomes]))
                for k in ("dqn_cost_saving_pct", "dqn_violation_deg_hours")}


# ------------------------------------------------------------ serve-dr-daily
class ServeDrDaily(Workload):
    """A 14-day demand-response trace replayed through the serving gateway."""

    name = "serve-dr-daily"
    n_buildings = 256
    days = 14

    def make_inputs(self, seed):
        fleet_seed, trace_seed = derive_seeds(seed, 2)
        spec = get_workload("dr-event-spike").with_overrides(
            duration_s=86_400.0 * self.days,
            spike_starts_s=tuple(46_800.0 + 86_400.0 * d for d in range(self.days)),
        )
        trace = generate_trace(spec, n_clients=self.n_buildings, seed=trace_seed)
        job = SuiteJob(
            scenario="baseline-tou", controller="dqn", fault="none", workload=spec,
            fleet=self.n_buildings, seed=fleet_seed, max_batch=self.n_buildings,
        )
        per_tick = np.array([b.size for b in trace.requests_by_tick()])
        return job, trace, per_tick

    def setup(self, inputs):
        job, trace, per_tick = inputs
        return build_suite_gateway(job), trace, per_tick

    def run(self, state):
        gateway, trace, _ = state
        starts: List[float] = []
        ends: List[float] = []
        tick = gateway.tick

        def timed_tick(active=None):
            starts.append(clock())
            try:
                return tick(active)
            finally:
                ends.append(clock())

        gateway.tick = timed_tick  # this gateway only; the class is untouched
        try:
            result = replay_trace(trace, gateway)
        finally:
            del gateway.tick
        return result, np.array(starts), np.array(ends)

    def check(self, state, result, probes=None) -> Outcome:
        gateway, trace, per_tick = state
        replay, starts, ends = result
        tick_s = ends - starts
        if probes is not None:
            tick_s = tick_s - probes.within(starts, ends)
        n_requests = int(per_tick.sum())
        stats = gateway.stats
        answered = stats.total_requests - stats.total_errors
        # Every tick steps all of the fleet's buildings.
        out = Outcome(attempted=n_requests, env_steps=len(starts) * gateway.n_clients,
                      requests=n_requests)
        out.failed = max(n_requests - answered, 0) + stats.shed
        if replay.n_requests != n_requests or answered != n_requests:
            out.problems.append(f"answered {answered} of {n_requests} requests")
        if stats.total_errors or stats.shed:
            out.problems.append(f"{stats.total_errors} errors, {stats.shed} shed")
        if not math.isfinite(replay.total_reward):
            out.problems.append("non-finite total reward")
            out.failed = n_requests
        out.values.update(
            fingerprint=replay.fingerprint, tick_s=tick_s, errors=stats.total_errors,
            shed=stats.shed, answered_ratio=answered / n_requests,
            trace_events=trace.n_events,
        )
        return out

    def compare(self, outcomes):
        """Replays of one seed must leave one fingerprint."""
        first = outcomes[0].values["fingerprint"]
        for out in outcomes[1:]:
            if out.values["fingerprint"] != first:
                out.problems.append("replay fingerprint differs between replays of one seed")
                out.failed = out.attempted

    def figures(self, outcomes):
        ticks_ms = 1e3 * np.concatenate([o.values["tick_s"] for o in outcomes])
        return {
            "tick_p50_ms": float(np.percentile(ticks_ms, 50)),
            "tick_p99_ms": float(np.percentile(ticks_ms, 99)),
            "serve.answered_ratio": min(o.values["answered_ratio"] for o in outcomes),
            "serve.errors": sum(o.values["errors"] for o in outcomes),
            "serve.shed": sum(o.values["shed"] for o in outcomes),
            "workloads.trace_events": outcomes[0].values["trace_events"],
        }


# --------------------------------------------------------------- planner-day
class _CheckedController(AgentBase):
    """Passes a controller's actions through, counting any outside the space."""

    def __init__(self, inner: AgentBase, space) -> None:
        self.inner, self.space, self.invalid = inner, space, 0

    def begin_episode(self, obs):
        self.inner.begin_episode(obs)

    def select_action(self, obs, *, explore=False):
        action = self.inner.select_action(obs, explore=explore)
        if not self.space.contains(action):
            self.invalid += 1
        return action


class PlannerDay(Workload):
    """One day of fitted-model MPC, then lookahead, on e10's evaluation env."""

    name = "planner-day"
    horizon = 4

    def make_inputs(self, seed):
        (sysid_seed,) = derive_seeds(seed, 1)
        return sysid_seed

    def setup(self, sysid_seed):
        profile = experiments.FAST
        eval_env = experiments.make_env(
            single_zone_building(), experiments.make_weather(profile, "eval"),
            replace(profile, eval_days=1), split="eval",
        )
        sysid_env = experiments.make_env(
            single_zone_building(), experiments.make_weather(profile, "train"),
            profile, split="train", seed_offset=2,
        )
        fitted = fit_first_order_zone(collect_trace(sysid_env, n_steps=600, rng=sysid_seed))
        return eval_env, fitted

    def run(self, state):
        env, fitted = state
        mpc = _CheckedController(MPCController(env, model=fitted, horizon=self.horizon),
                                 env.action_space)
        lookahead = _CheckedController(LookaheadController(env), env.action_space)
        return (mpc, evaluate_controller(env, mpc)), (lookahead, evaluate_controller(env, lookahead))

    def check(self, state, result, probes=None) -> Outcome:
        # A request is a controller decision: one per env-step.
        steps = sum(summary.steps for _, summary in result)
        out = Outcome(attempted=steps, env_steps=steps, requests=steps)
        for controller, summary in result:
            label = type(controller.inner).__name__
            if controller.invalid:
                out.problems.append(f"{label}: {controller.invalid} actions outside the space")
                out.failed += controller.invalid
            if not math.isfinite(summary.episode_return):
                out.problems.append(f"{label}: non-finite return")
                out.failed += summary.steps
        out.values["mpc_return"] = result[0][1].episode_return
        return out

    def figures(self, outcomes):
        return {"mpc_return": float(np.median([o.values["mpc_return"] for o in outcomes]))}


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (PaperE1(), ServeDrDaily(), PlannerDay())
}
