"""Canonical layered benchmark of the termination analyzer.

Run from the repository root::

    python3 perfbench/run.py --workload corpus_cold --seed 1 --seconds 20 --trace 0

One process, no worker pool.  Every program starts cold:
``clear_caches()``, a collected heap, a fresh analyzer and no
certificate cache.  Times are reference-speed seconds (see
:mod:`speed`), which takes the host's speed drift out.  Set-up
imports the analyzer afresh and builds the workload's inputs, several
times, and reports the median.  The measured region analyzes whole
passes over the workload, starting another only while it should end
within ``--seconds`` (at least one pass); the correctness gate runs
after it, outside the timing.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` analyzes
one pass with :mod:`layers` wrapped around the analyzer's public
functions and prints the per-layer metrics instead; ``--trace-out
FILE`` also writes those spans as a ``repro.trace/1`` stream that
``repro-trace FILE`` renders.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import resource
import statistics
import sys
from contextlib import nullcontext
from time import perf_counter

import layers
import workloads
from speed import REFERENCE_PROBE_S, SpeedSampler

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
INVARIANTS = os.path.join(HERE, "invariants.json")

SETUP_ROUNDS = 5
CACHE_STATE = ("cold: clear_caches(), gc.collect() and a fresh analyzer per "
               "program, no certificate cache")

#: The smallest tail sample count that makes a tail percentile a tail.
TAIL_MIN_PROGRAMS = 20


class Outcome:
    """One analyzed query: its verdict, time and gate findings."""

    __slots__ = ("item", "status", "seconds", "raw_seconds", "failure",
                 "result")

    def __init__(self, item, status, seconds, raw_seconds, result):
        self.item = item
        self.status = status
        self.seconds = seconds  # reference-speed seconds
        self.raw_seconds = raw_seconds
        self.failure = ""
        self.result = result  # the analysis result, or the error raised


# -- set-up -------------------------------------------------------------------


def import_analyzer():
    """Import (or re-import) the analyzer's packages."""
    for name in [n for n in sys.modules
                 if n == "repro" or n.startswith("repro.")]:
        del sys.modules[name]
    for name in ("repro", "repro.core", "repro.methods", "repro.corpus"):
        importlib.import_module(name)


def setup(workload, seed, rounds=SETUP_ROUNDS):
    """``(items, median seconds)`` over *rounds* fresh set-ups, timed
    in reference-speed seconds."""
    times = []
    items = None
    with SpeedSampler() as sampler:
        for _ in range(rounds):
            started = perf_counter()
            import_analyzer()
            items = workloads.build(workload, seed)
            times.append(sampler.normalize(started, perf_counter()))
    return items, statistics.median(times)


# -- the measured region ------------------------------------------------------


def run_pass(items, sampler, tracer=None):
    """Analyze every item cold; one :class:`Outcome` each, timed in
    reference-speed seconds by *sampler*."""
    from repro.core import AnalyzerSettings, clear_caches
    from repro.lp.program import Program
    from repro.methods import MethodRunner

    outcomes = []
    for item in items:
        clear_caches()
        gc.collect()
        root = tracer.root(item.name) if tracer else nullcontext()
        with root:
            started = perf_counter()
            try:
                program = Program.from_text(item.source)
                runner = MethodRunner(AnalyzerSettings(method=item.method))
                result = runner.analyze(program, item.root, item.mode)
                status = result.status
            except Exception as error:  # a raising analysis is a failure
                result = "%s: %s" % (type(error).__name__, error)
                status = "ERROR"
            ended = perf_counter()
        outcomes.append(Outcome(
            item, status, sampler.normalize(started, ended),
            ended - started, result))
    return outcomes


# -- the correctness gate -----------------------------------------------------


def gate(outcomes):
    """Mark every outcome that raised, contradicts its ground truth, or
    carries a certificate the independent verifier rejects."""
    from repro.core import DISPROVED, PROVED, VerificationError, verify_proof

    for outcome in outcomes:
        item = outcome.item
        if outcome.status == "ERROR":
            outcome.failure = outcome.result
            continue
        if outcome.status == PROVED and item.terminating is False:
            outcome.failure = "PROVED, but the query does not terminate"
        elif outcome.status == DISPROVED and item.terminating is True:
            outcome.failure = "DISPROVED, but the query terminates"
        for scc in outcome.result.scc_results:
            if scc.proved and scc.proof is not None:
                try:
                    verify_proof(scc.proof)
                except VerificationError as error:
                    outcome.failure = "certificate rejected: %s" % error
        outcome.result = None  # keep no analysis state past the gate


def load_invariants():
    with open(INVARIANTS) as handle:
        return json.load(handle)


def verdict_drift(workload, outcomes, invariants):
    """``(lost, changed)`` program names against the pinned verdicts:
    *lost* were decided at the pin and are not now, *changed* hold
    another verdict than the pinned one."""
    pinned = invariants["verdicts"][workload]
    lost, changed = set(), set()
    for outcome in outcomes:
        name = outcome.item.name
        expected = pinned.get(name, pinned.get("*"))
        if outcome.status == expected:
            continue
        changed.add(name)
        if expected in ("PROVED", "DISPROVED"):
            lost.add(name)
    return sorted(lost), sorted(changed)


# -- metrics ------------------------------------------------------------------


def end_to_end(outcomes, pass_walls, setup_s):
    """The end-to-end metrics of untraced passes."""
    attempted = len(outcomes)
    decided = sum(1 for o in outcomes if o.status in ("PROVED", "DISPROVED"))
    failed = sum(1 for o in outcomes if o.failure)
    return {
        "wall_s": (statistics.median(pass_walls), "s"),
        "verdict_ms_p50": (
            hd_median([o.seconds for o in outcomes]) * 1000, "ms"),
        "decided_ratio": (decided / attempted, "ratio"),
        "correct_ratio": (1 - failed / attempted, "ratio"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def hd_median(values):
    """The Harrell-Davis estimate of the median of *values*.

    A weighted mean of all order statistics, with Beta((n+1)/2,
    (n+1)/2) weights.  Unlike the middle order statistic it does not
    jump between neighbours when per-program noise reorders programs
    around a gap in the distribution, which the corpus has at its
    median.
    """
    ordered = sorted(values)
    count = len(ordered)
    shape = (count + 1) / 2
    log_beta = 2 * math.lgamma(shape) - math.lgamma(2 * shape)
    steps = 100  # midpoint rule over each [i/n, (i+1)/n]
    weights = []
    for index in range(count):
        weight = 0.0
        for step in range(steps):
            t = (index + (step + 0.5) / steps) / count
            weight += math.exp((shape - 1) * math.log(t * (1 - t)) - log_beta)
        weights.append(weight)
    return sum(w * v for w, v in zip(weights, ordered)) / sum(weights)


def verdict_tail(outcomes):
    """``(percentile, ms, beyond)``: the highest percentile with ten
    samples beyond it, or None when there are too few programs."""
    samples = sorted(o.seconds * 1000 for o in outcomes)
    if len(samples) < TAIL_MIN_PROGRAMS:
        return None
    index = len(samples) - 11
    return 100 * (index + 1) // len(samples), samples[index], 10


def per_layer(summary, wall_s, overhead_s, reference_wall_s):
    """The per-layer metrics of one traced pass: layer times as shares
    of its raw *wall_s*, and the pass in reference-speed seconds."""
    metrics = {}

    def pct(seconds):
        return 100 * seconds / wall_s if wall_s else 0.0

    for name in layers.LAYERS:
        entry = summary[name]
        metrics[name + ".calls"] = (entry["calls"], "count")
        metrics[name + ".pct"] = (pct(entry["wall_s"]), "%")
        metrics[name + ".self_pct"] = (pct(entry["self_s"]), "%")
    for name in layers.ROW_LAYERS:
        metrics[name + ".rows_in"] = (summary[name]["rows_in"], "count")
        metrics[name + ".rows_out"] = (summary[name]["rows_out"], "count")
    prune = summary["linalg.fm.prune"]
    prune_lps = summary[layers.LP_LAYER + ".prune"]["calls"]
    metrics["linalg.fm.prune.redundant_ratio"] = (
        (prune["rows_in"] - prune["rows_out"]) / prune_lps
        if prune_lps else 0.0, "ratio")
    dualize = summary["core.dualize"]
    metrics["core.dualize.hit_ratio"] = (
        dualize["hits"] / dualize["calls"] if dualize["calls"] else 0.0,
        "ratio")
    unattributed = summary[layers.ROOT]["self_s"]
    metrics["trace.wall_s"] = (reference_wall_s, "s")
    metrics["trace.coverage_pct"] = (pct(wall_s - unattributed), "%")
    metrics["trace.overhead_pct"] = (pct(overhead_s), "%")
    return metrics


def layer_counts(metrics):
    """The exact invariants among the per-layer metrics: the counts."""
    return {
        name: value for name, (value, unit) in metrics.items()
        if unit == "count"
    }


# -- reporting ----------------------------------------------------------------


def print_metrics(metrics):
    width = max(len(name) for name in metrics)
    for name, (value, unit) in metrics.items():
        print("%-*s  %14.6g %s" % (width, name, value, unit))


def print_layer_table(summary):
    print("%-32s %8s %12s %12s" % ("layer", "calls", "ms", "self_ms"))
    for name in layers.LAYERS + (layers.ROOT,):
        entry = summary[name]
        print("%-32s %8d %12.3f %12.3f" % (
            name, entry["calls"], entry["wall_s"] * 1000,
            entry["self_s"] * 1000))


def write_spans(path, tracer, meta):
    from repro.obs import write_trace

    write_trace(path, tracer.to_spans(), meta=meta)


def update_invariants(invariants, workload, seed, counts):
    invariants["counts"].setdefault(workload, {})[str(seed)] = counts
    with open(INVARIANTS, "w") as handle:
        json.dump(invariants, handle, indent=1, sort_keys=True)
        handle.write("\n")


# -- entry point --------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measure whole passes, one more only while "
                        "it should end within this many seconds (at "
                        "least one pass)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", metavar="FILE",
                        help="with --trace 1, write the spans as a "
                        "repro.trace/1 stream")
    parser.add_argument("--update-invariants", action="store_true",
                        help="with --trace 1, record this seed's layer "
                        "counts in invariants.json")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print("perfbench: no analyzer sources under %s" % SRC,
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    invariants = load_invariants()
    items, setup_s = setup(args.workload, args.seed)
    print("# perfbench workload=%s seed=%d trace=%d programs=%d"
          % (args.workload, args.seed, args.trace, len(items)))
    print("# cache state: %s" % CACHE_STATE)

    if args.trace:
        overhead_per_call = layers.wrapper_cost_s()
        tracer = layers.LayerTracer().install()
        try:
            with SpeedSampler() as sampler:
                outcomes = run_pass(items, sampler, tracer)
        finally:
            tracer.uninstall()
        summary, raw_wall = tracer.summary()
        spans = sum(entry["calls"] for name, entry in summary.items()
                    if name != layers.ROOT)
        metrics = per_layer(summary, raw_wall, spans * overhead_per_call,
                            sum(o.seconds for o in outcomes))
        raw_walls = [raw_wall]
    else:
        outcomes, pass_walls, raw_walls = [], [], []
        started = perf_counter()
        with SpeedSampler() as sampler:
            while True:
                done = run_pass(items, sampler)
                outcomes.extend(done)
                pass_walls.append(sum(o.seconds for o in done))
                raw_walls.append(sum(o.raw_seconds for o in done))
                elapsed = perf_counter() - started
                if elapsed + raw_walls[-1] > args.seconds:
                    break
        metrics = end_to_end(outcomes, pass_walls, setup_s)
    print("# passes: %d; raw seconds per pass: %s; median probe %.4f ms "
          "(reference %.4f ms)" % (
              len(raw_walls), ", ".join("%.3f" % w for w in raw_walls),
              statistics.median(sampler.durations) * 1000,
              REFERENCE_PROBE_S * 1000))

    gate(outcomes)
    failed = [o for o in outcomes if o.failure]
    for outcome in outcomes[:len(items)]:
        print("# program %-22s %-9s %10.3f ms (raw %.3f ms)" % (
            outcome.item.name, outcome.status, outcome.seconds * 1000,
            outcome.raw_seconds * 1000))
    for outcome in failed:
        print("# FAILED %s: %s" % (outcome.item.name, outcome.failure))
    lost, changed = verdict_drift(args.workload, outcomes, invariants)
    print("# pinned verdicts: %d differ (lost proofs: %s)"
          % (len(changed), ", ".join(lost) or "none"))

    if args.trace:
        print_layer_table(summary)
        counts = layer_counts(metrics)
        recorded = invariants["counts"].get(args.workload, {}).get(
            str(args.seed))
        if recorded is not None:
            moved = sorted(k for k in counts if counts[k] != recorded.get(k))
            print("# layer counts vs invariants.json: %s"
                  % ("identical" if not moved else "differ in "
                     + ", ".join(moved)))
        if args.update_invariants:
            update_invariants(invariants, args.workload, args.seed, counts)
        if args.trace_out:
            write_spans(args.trace_out, tracer, {
                "tool": "perfbench", "workload": args.workload,
                "seed": args.seed, "cache": CACHE_STATE,
            })
    else:
        tail = verdict_tail(outcomes)
        if tail is None:
            print("# verdict_ms_tail: omitted, %d programs" % len(outcomes))
        else:
            print("# verdict_ms_tail: p%d = %.3f ms (%d of %d beyond)"
                  % (tail[0], tail[1], tail[2], len(outcomes)))
    print_metrics(metrics)
    print(json.dumps({
        "correct": not failed,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
