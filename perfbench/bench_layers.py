"""Per-layer tracing from outside the program.

The traced run replaces the public entry points of each ``repro`` layer
(the :data:`LAYERS` table) with timing wrappers for the duration of a
``with installed(tracer):`` block and restores the original callables on
exit, so an untraced run never carries them.  Each wrapped call records a
span ``(id, parent, name, start, end)`` in memory; hot leaf calls that run
hundreds of thousands of times per workload (``hot=True``) record only a
count and summed time, charged to the innermost open span so self times
stay exact.  :func:`summarize` turns one tracer into per-layer busy time,
self time and counts.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import json
import sys
import time
import types
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

#: ``tally(args, kwargs, result)`` -> ``(counter name, increment)`` pairs.
Tally = Callable[[tuple, dict, object], Iterable[Tuple[str, float]]]


@dataclass(frozen=True)
class Layer:
    """One traced layer: its metric prefix and the calls that make it up."""

    name: str
    module: str
    targets: Tuple[str, ...]
    count: str
    hot: bool = False
    tally: Optional[Tally] = None


def _env_steps(args, kwargs, result):
    return (("sim.env_steps", args[0].n_envs),)


def _rows(args, kwargs, result):
    obs = args[1] if len(args) > 1 else kwargs["obs_batch"]
    return (("core.select_actions_rows", len(obs)),)


def _updates(args, kwargs, result):
    return (("core.learn_updates", int(result is not None)),)


def _episodes(args, kwargs, result):
    return (("eval.episodes", kwargs.get("n_episodes", 1)),)


def _flushed(args, kwargs, result):
    return (("serve.flushes", int(result > 0)), ("serve.flushed_requests", result))


LAYERS: Tuple[Layer, ...] = (
    Layer("weather.generate", "repro.weather.synthetic", ("generate_weather",),
          "weather.generate_calls"),
    Layer("weather.forecast_noise", "repro.weather.forecast",
          ("ForecastProvider.draw_noise",), "weather.forecast_noise_calls", hot=True),
    Layer("env.build", "repro.env.hvac_env", ("HVACEnv.__init__",), "env.builds"),
    Layer("env.reset", "repro.env.hvac_env", ("HVACEnv.reset",), "env.resets"),
    Layer("env.step", "repro.env.hvac_env", ("HVACEnv.step",), "env.steps"),
    Layer("sim.build", "repro.sim.vector_env", ("VectorHVACEnv.__init__",), "sim.builds"),
    Layer("sim.reset", "repro.sim.vector_env", ("VectorHVACEnv.reset",), "sim.resets"),
    Layer("sim.step", "repro.sim.vector_env", ("VectorHVACEnv.step",), "sim.steps",
          tally=_env_steps),
    Layer("core.select_action", "repro.core.dqn", ("DQNAgent.select_action",),
          "core.select_action_calls"),
    Layer("core.select_actions", "repro.core.dqn", ("DQNAgent.select_actions",),
          "core.select_actions_calls", tally=_rows),
    Layer("core.store", "repro.core.dqn", ("DQNAgent.store",), "core.store_calls"),
    Layer("core.learn", "repro.core.dqn", ("DQNAgent.learn",), "core.learn_calls",
          tally=_updates),
    Layer("core.replay_sample", "repro.core.replay", ("ReplayBuffer.sample",),
          "core.replay_sample_calls"),
    Layer("baselines.tabular", "repro.baselines.tabular_q",
          ("TabularQAgent.select_action", "TabularQAgent.store", "TabularQAgent.learn"),
          "baselines.tabular_calls"),
    Layer("baselines.rule", "repro.baselines.rule_based",
          ("ThermostatController.select_action",), "baselines.rule_calls"),
    Layer("baselines.mpc_plan", "repro.baselines.mpc", ("MPCController.select_action",),
          "baselines.mpc_plan_calls"),
    Layer("baselines.lookahead_plan", "repro.baselines.lookahead",
          ("LookaheadController.select_action",), "baselines.lookahead_plan_calls"),
    Layer("eval.evaluate", "repro.eval.runner", ("evaluate_controller",),
          "eval.evaluate_calls", tally=_episodes),
    Layer("sysid.collect", "repro.sysid.trace", ("collect_trace",), "sysid.collect_calls"),
    Layer("sysid.fit", "repro.sysid.fit", ("fit_first_order_zone",), "sysid.fit_calls"),
    Layer("serve.tick", "repro.serve.gateway", ("FleetGateway.tick",), "serve.ticks"),
    Layer("serve.submit", "repro.serve.batcher", ("MicroBatcher.submit",), "serve.requests"),
    # The one flush path: both flush() and a full queue inside submit() use it.
    Layer("serve.flush", "repro.serve.batcher", ("MicroBatcher._flush_queue",),
          "serve.flush_calls", tally=_flushed),
    Layer("workloads.replay", "repro.workloads.replay", ("replay_trace",),
          "workloads.replay_calls"),
)

#: Figures the workload reports from its untraced pass (zero where they
#: do not apply), alongside the layer metrics of the traced pass.
WORKLOAD_FIGURES = {
    "tick_p50_ms": "ms",
    "tick_p99_ms": "ms",
    "error_ratio": "ratio",
    "dqn_cost_saving_pct": "%",
    "dqn_violation_deg_hours": "degC.h",
    "mpc_return": "reward",
    "serve.answered_ratio": "ratio",
    "serve.errors": "count",
    "serve.shed": "count",
    "workloads.trace_events": "count",
}

#: Tracing-overhead metrics every traced run reports.
OVERHEAD_METRICS = {
    "trace.untraced_wall_s": "s",
    "trace.traced_wall_s": "s",
    "trace.overhead_s": "s",
}


def per_layer_metric_units() -> Dict[str, str]:
    """Every per-layer metric name the traced run emits, with its unit."""
    units: Dict[str, str] = {}
    for layer in LAYERS:
        units[f"{layer.name}_s"] = "s"
        units[f"{layer.name}_self_s"] = "s"
        units[layer.count] = "count"
    units.update({
        "sim.env_steps": "count",
        "core.select_actions_rows": "count",
        "core.learn_updates": "count",
        "core.learn_useful_ratio": "ratio",
        "eval.episodes": "count",
        "serve.flushes": "count",
        "serve.mean_batch_size": "requests",
    })
    units.update(WORKLOAD_FIGURES)
    units.update(OVERHEAD_METRICS)
    return units


class Tracer:
    """In-memory span and counter store for one traced run."""

    def __init__(self, run_id: str, clock=time.perf_counter) -> None:
        self.run_id = run_id
        self.clock = clock
        self.spans: List[Tuple[int, Optional[int], str, float, float]] = []
        self.hot: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0])
        self.hot_cover: Dict[Optional[int], float] = defaultdict(float)
        self.counts: Counter = Counter()
        self._stack: List[int] = []
        self._next_id = 0

    def record_hot(self, name: str, seconds: float) -> None:
        entry = self.hot[name]
        entry[0] += 1
        entry[1] += seconds
        self.hot_cover[self._stack[-1] if self._stack else None] += seconds

    def wrap(self, layer: Layer, fn: Callable) -> Callable:
        """A timing wrapper around ``fn`` recording into this tracer."""
        name, clock, tally = layer.name, self.clock, layer.tally
        if layer.hot:
            def wrapper(*args, **kwargs):
                start = clock()
                result = fn(*args, **kwargs)
                self.record_hot(name, clock() - start)
                return result
        else:
            stack, spans = self._stack, self.spans

            def wrapper(*args, **kwargs):
                sid = self._next_id
                self._next_id += 1
                parent = stack[-1] if stack else None
                stack.append(sid)
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    spans.append((sid, parent, name, start, clock()))
                    stack.pop()
                if tally is not None:
                    for key, n in tally(args, kwargs, result):
                        self.counts[key] += n
                return result
        functools.update_wrapper(wrapper, fn)
        wrapper.__perfbench_original__ = fn
        return wrapper

    def write(self, path: str, header: dict) -> None:
        """Write the header and every span, one JSON object a line, gzipped."""
        with gzip.open(path, "wt") as out:
            out.write(json.dumps(dict(header, run_id=self.run_id)) + "\n")
            for sid, parent, name, start, end in self.spans:
                out.write(json.dumps(
                    {"id": sid, "parent": parent, "name": name,
                     "start": start, "end": end, "run_id": self.run_id}
                ) + "\n")
            for name, (calls, seconds) in sorted(self.hot.items()):
                out.write(json.dumps(
                    {"name": name, "calls": calls, "seconds": seconds,
                     "run_id": self.run_id, "aggregated": True}
                ) + "\n")


def _resolve(layer: Layer, target: str):
    """``(owner, attribute, original)`` for one ``Class.method`` or function."""
    module = importlib.import_module(layer.module)
    owner_name, _, attr = target.rpartition(".")
    if owner_name:
        owner = getattr(module, owner_name)
        if attr not in vars(owner):
            raise AttributeError(f"{target} is not defined on {owner_name} itself")
        return owner, attr, vars(owner)[attr]
    return module, attr, getattr(module, attr)


@contextlib.contextmanager
def installed(tracer: Tracer, layers: Iterable[Layer] = LAYERS):
    """Wrap every layer's targets for the duration of the block.

    Module-level functions are rebound in every loaded module that
    imported them by name; methods are replaced on their defining class.
    Every original is put back on exit, also when the block raises.
    """
    patches: List[Tuple[object, str, object]] = []
    try:
        for layer in layers:
            for target in layer.targets:
                owner, attr, original = _resolve(layer, target)
                wrapper = tracer.wrap(layer, original)
                if isinstance(owner, type):
                    patches.append((owner, attr, original))
                    setattr(owner, attr, wrapper)
                    continue
                for module in list(sys.modules.values()):
                    namespace = getattr(module, "__dict__", None)
                    if not namespace:
                        continue
                    for key, value in list(namespace.items()):
                        if value is original:
                            patches.append((module, key, original))
                            setattr(module, key, wrapper)
        yield tracer
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)


def _is_wrapper(value) -> bool:
    # Checked on the function's own __dict__: objects such as mock
    # sentinels answer any attribute lookup.
    return isinstance(value, types.FunctionType) and "__perfbench_original__" in vars(value)


def wrapped_bindings(layers: Iterable[Layer] = LAYERS) -> List[str]:
    """Names of layer targets currently bound to a tracing wrapper."""
    found = []
    for layer in layers:
        for target in layer.targets:
            owner, attr, current = _resolve(layer, target)
            if _is_wrapper(current):
                found.append(target)
    for name, module in list(sys.modules.items()):
        namespace = getattr(module, "__dict__", None) or {}
        for key, value in list(namespace.items()):
            if _is_wrapper(value):
                found.append(f"{name}.{key}")
    return found


def _covered(parent: Tuple[float, float], children: List[Tuple[float, float]]) -> float:
    """Length of the union of ``children`` intervals clipped to ``parent``."""
    lo, hi = parent
    total, reach = 0.0, lo
    for start, end in sorted(children):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def layer_times(
    spans: List[Tuple[int, Optional[int], str, float, float]],
    hot_cover: Optional[Dict[Optional[int], float]] = None,
) -> Dict[str, Tuple[float, float, int]]:
    """Per span name: ``(busy_s, self_s, calls)``.

    Busy time sums the outermost span of each nested run of one name, so
    recursion is not counted twice.  Self time is each span's duration
    minus the part of it covered by its child spans and by hot leaf calls
    charged to it.
    """
    hot_cover = hot_cover or {}
    by_id = {s[0]: s for s in spans}
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for sid, parent, _, start, end in spans:
        if parent is not None:
            children[parent].append((start, end))
    out: Dict[str, List[float]] = defaultdict(lambda: [0.0, 0.0, 0])
    for sid, parent, name, start, end in spans:
        entry = out[name]
        entry[2] += 1
        entry[1] += (end - start) - _covered((start, end), children[sid]) - hot_cover.get(sid, 0.0)
        ancestor = by_id.get(parent)
        while ancestor is not None and ancestor[2] != name:
            ancestor = by_id.get(ancestor[1])
        if ancestor is None:
            entry[0] += end - start
    return {name: (busy, own, int(calls)) for name, (busy, own, calls) in out.items()}


def summarize(tracer: Tracer) -> Dict[str, float]:
    """Per-layer metrics of one traced run (zero for layers left idle)."""
    times = layer_times(tracer.spans, tracer.hot_cover)
    metrics: Dict[str, float] = {}
    for layer in LAYERS:
        if layer.hot:
            calls, busy = tracer.hot.get(layer.name, (0, 0.0))
            own = busy
        else:
            busy, own, calls = times.get(layer.name, (0.0, 0.0, 0))
        metrics[f"{layer.name}_s"] = busy
        metrics[f"{layer.name}_self_s"] = own
        metrics[layer.count] = calls
    counts = tracer.counts
    for key in ("sim.env_steps", "core.select_actions_rows", "core.learn_updates",
                "eval.episodes", "serve.flushes"):
        metrics[key] = counts.get(key, 0)
    learn_calls = metrics["core.learn_calls"]
    metrics["core.learn_useful_ratio"] = (
        metrics["core.learn_updates"] / learn_calls if learn_calls else 0.0
    )
    flushes = metrics["serve.flushes"]
    metrics["serve.mean_batch_size"] = (
        counts.get("serve.flushed_requests", 0) / flushes if flushes else 0.0
    )
    return metrics
