"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
With ``--trace 0`` the run measures the workload untraced, in reference
seconds (see ``probe``), and prints the end-to-end metrics.  With
``--trace 1`` it runs one untraced pass and one pass with the layer
wrappers of ``bench_layers`` installed, and prints the per-layer busy
time, self time and counts plus the tracing overhead (in wall seconds).
Either way the last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

A result record (and, when traced, the spans) is written to
``perfbench/out/``.  The exit code is 0 when every output check passed,
1 when one failed and 2 when the program cannot be found.
"""

from __future__ import annotations

import argparse
import copy
import gc
import json
import os
import resource
import statistics
import sys
import time
import traceback

from bench_layers import LAYERS, WORKLOAD_FIGURES, Tracer, installed, per_layer_metric_units, summarize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC_DIR = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, "perfbench", "out")
#: Reference seconds of set-up a run times at the least, so that where
#: set-up is cheap ``setup_s`` is the median of many set-ups.
SETUP_SECONDS = 4.0
#: Set-ups a run times at the least.
MIN_SETUPS = 3
#: One BLAS thread: the reference host has two cores, shared with other tenants.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {
    "setup_s": "s",
    "env_steps_per_s": "1/s",
    "requests_per_s": "1/s",
    "peak_rss_mb": "MB",
}
clock = time.perf_counter


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="minimum timed seconds of an untraced run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def rate(outcomes, seconds, work: str) -> float:
    """Work per second of the run's operations at their median time.

    ``work`` names the outcome's count (``env_steps`` or ``requests``);
    ``seconds`` are the operations' reference seconds.  The operations of
    a run repeat identical work.
    """
    first = outcomes[0]
    for o in outcomes[1:]:
        if (o.env_steps, o.requests) != (first.env_steps, first.requests):
            raise RuntimeError("the operations of one run did different work")
    return getattr(first, work) / statistics.median(seconds)


def timed_pass(workload, inputs):
    """One set-up and one timed operation; returns the outcome and the
    seconds both took."""
    start = clock()
    state = workload.setup(inputs)
    result = workload.run(state)
    wall = clock() - start
    return workload.check(state, result), wall


def measure(workload, inputs, seconds):
    """Untraced run: set-ups and operations, timed in reference seconds.

    The first ``MIN_SETUPS`` operations each follow a set-up of their own;
    every operation runs on an untimed deep copy of the latest set-up, so
    all of them start from the same state and later ones need no new
    set-up.  Operations go on until ``seconds`` of wall time have been
    timed, then set-ups until ``SETUP_SECONDS`` have.
    """
    from probe import Probes  # imports numpy: after the thread settings

    setups, ops, walls, probe_medians, outcomes = [], [], [], [], []
    pristine = None
    while sum(walls) < seconds or len(outcomes) < workload.min_ops:
        if len(setups) < MIN_SETUPS:
            gc.collect()
            with Probes() as probes:
                pristine = workload.setup(inputs)
            setups.append(probes.reference_s())
        state = copy.deepcopy(pristine)
        gc.collect()
        start = clock()
        with Probes() as probes:
            result = workload.run(state)
        walls.append(clock() - start)
        ops.append(probes.reference_s())
        probe_medians.append(statistics.median(probes.times))
        outcomes.append(workload.check(state, result, probes))
        state = result = None
    while sum(setups) < SETUP_SECONDS:
        gc.collect()
        with Probes() as probes:
            workload.setup(inputs)
        setups.append(probes.reference_s())
    metrics = {
        "setup_s": statistics.median(setups),
        "env_steps_per_s": rate(outcomes, ops, "env_steps"),
        "requests_per_s": rate(outcomes, ops, "requests"),
        "peak_rss_mb": peak_rss_mb(),
    }
    samples = {"setup_s": setups, "op_s": ops, "op_wall_s": walls, "probe_median_s": probe_medians}
    return metrics, outcomes, samples


def measure_traced(workload, inputs, run_id):
    """One untraced and one traced pass of set-up plus operation."""
    gc.collect()
    plain, untraced_wall = timed_pass(workload, inputs)
    gc.collect()
    tracer = Tracer(run_id)
    with installed(tracer):
        traced, traced_wall = timed_pass(workload, inputs)
    metrics = summarize(tracer)
    metrics.update({
        "trace.untraced_wall_s": untraced_wall,
        "trace.traced_wall_s": traced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
    })
    return metrics, [plain, traced], tracer


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC_DIR, "repro")):
        print(f"error: the program is not in {SRC_DIR}/repro; run from a checkout root",
              file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    if SRC_DIR not in sys.path:
        sys.path.insert(0, SRC_DIR)
    from bench_workloads import WORKLOADS  # imports numpy: after the thread settings

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    run_id = f"{workload.name}-seed{args.seed}-{os.getpid()}-{time.time_ns()}"
    print(f"workload={workload.name} seed={args.seed} trace={args.trace} run_id={run_id}")
    tracer, samples = None, {}
    try:
        inputs = workload.make_inputs(args.seed)
        if args.trace:
            metrics, outcomes, tracer = measure_traced(workload, inputs, run_id)
        else:
            metrics, outcomes, samples = measure(workload, inputs, args.seconds)
        workload.compare(outcomes)
        figures = workload.figures(outcomes[:1] if args.trace else outcomes)
    except Exception:  # report any failure of the program as a failed run
        traceback.print_exc()
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1

    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    problems = [p for o in outcomes for p in o.problems]
    figures["error_ratio"] = failed / attempted
    if args.trace:
        units = per_layer_metric_units()
        metrics.update({k: figures.get(k, 0.0) for k in WORKLOAD_FIGURES})
        shown = print_layer_table(metrics)
    else:
        units, shown = END_TO_END_UNITS, set()
    for name, unit in units.items():
        if name not in shown:
            print(f"{name:34s} {metrics[name]:>16.6g} {unit}")
    if not args.trace:
        print("workload figures (reported per layer by the traced run):")
        for name, value in sorted(figures.items()):
            print(f"  {name:32s} {value:>16.6g} {WORKLOAD_FIGURES[name]}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)

    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{workload.name}-seed{args.seed}-trace{args.trace}")
    record = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
              "run_id": run_id, "metrics": metrics, "figures": figures,
              "samples": samples, "problems": problems}
    with open(stem + ".json", "w") as out:
        json.dump(record, out, indent=1)
    if tracer is not None:
        tracer.write(stem + ".spans.jsonl.gz", {"workload": workload.name, "seed": args.seed})

    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


def print_layer_table(metrics) -> set:
    """Print busy time, self time and count per layer; returns the names shown."""
    shown = set()
    print(f"{'layer':26s} {'busy_s':>10s} {'self_s':>10s} {'count':>10s}  count metric")
    for layer in LAYERS:
        names = (f"{layer.name}_s", f"{layer.name}_self_s", layer.count)
        busy, own, count = (metrics[n] for n in names)
        print(f"{layer.name:26s} {busy:10.4f} {own:10.4f} {count:10d}  {layer.count}")
        shown.update(names)
    return shown


if __name__ == "__main__":
    sys.exit(main())
