"""Smoke test of the benchmark on a tiny configuration.

Run from the repository root::

    python3 -m pytest perfbench/test_smoke.py

Checks the metric names and units against ``BENCHMARK.json``, the
correctness gate, that two traced passes give identical layer counts,
and that the runner refuses to run without the analyzer's sources.
"""

import json
import os
import random
import shutil
import subprocess
import sys
from dataclasses import replace

import pytest

import layers
import run
import workloads
from speed import SpeedSampler

REPO = os.path.dirname(run.HERE)
if run.SRC not in sys.path:
    sys.path.insert(0, run.SRC)

TINY_CORPUS = ("even_odd", "list_member", "tree_member")


@pytest.fixture(scope="module")
def tiny_items():
    from repro.corpus import get_program

    items = [
        workloads.corpus_item(get_program(name), "argsize")
        for name in TINY_CORPUS
    ]
    items.append(
        workloads.corpus_item(get_program("loop_direct"), "portfolio")
    )
    items += workloads.ring_items(random.Random(0), strata=((3, 4, 2),))
    return items


def _benchmark_spec():
    with open(os.path.join(REPO, "BENCHMARK.json")) as handle:
        return json.load(handle)


def _units(entries):
    return {entry["name"]: entry["unit"] for entry in entries}


def _run(items, tracer=None):
    with SpeedSampler() as sampler:
        return run.run_pass(items, sampler, tracer)


def _traced(items):
    tracer = layers.LayerTracer().install()
    try:
        outcomes = _run(items, tracer)
    finally:
        tracer.uninstall()
    return tracer, outcomes


def test_end_to_end_metric_names_and_units(tiny_items):
    outcomes = _run(tiny_items)
    run.gate(outcomes)
    metrics = run.end_to_end(outcomes, [1.0], 0.1)
    assert {name: unit for name, (_, unit) in metrics.items()} == _units(
        _benchmark_spec()["end_to_end"])
    assert metrics["correct_ratio"][0] == 1.0
    # even_odd, list_member, tree_member and the rings are PROVED and
    # loop_direct DISPROVED: everything is decided.
    assert metrics["decided_ratio"][0] == 1.0


def test_per_layer_metric_names_units_and_coverage(tiny_items):
    tracer, _ = _traced(tiny_items)
    summary, wall = tracer.summary()
    metrics = run.per_layer(summary, wall, 0.0, wall)
    assert {name: unit for name, (_, unit) in metrics.items()} == _units(
        _benchmark_spec()["per_layer"])
    assert metrics["trace.coverage_pct"][0] >= 95.0
    assert metrics["methods.nonterm.sld.calls"][0] >= 1
    assert metrics["linalg.simplex.lp.theta.calls"][0] >= 1


def test_two_traced_runs_count_identically(tiny_items):
    counts = []
    for _ in range(2):
        tracer, _ = _traced(tiny_items)
        summary, wall = tracer.summary()
        counts.append(run.layer_counts(run.per_layer(summary, wall, 0, 0)))
    assert counts[0] == counts[1]
    assert counts[0]["linalg.fm.prune.rows_in"] > 0


def test_uninstall_restores_every_alias():
    import repro.core.verifier
    import repro.linalg.simplex

    original = repro.linalg.simplex.solve_lp
    tracer = layers.LayerTracer().install()
    assert repro.core.verifier.solve_lp is not original
    tracer.uninstall()
    assert repro.linalg.simplex.solve_lp is original
    assert repro.core.verifier.solve_lp is original


def test_gate_flags_wrong_verdicts_errors_and_bad_certificates(tiny_items):
    from fractions import Fraction

    proved = tiny_items[0]
    wrong_truth = replace(proved, name="wrong", terminating=False)
    broken = replace(proved, name="broken", source="p(X :- q.")
    outcomes = _run([proved, wrong_truth, broken])
    forged = outcomes[0]
    for scc in forged.result.scc_results:
        if scc.proof is not None and not scc.proof.trivially_nonrecursive:
            for weights in scc.proof.lambdas.values():
                for position in weights:
                    weights[position] = Fraction(0)
    run.gate(outcomes)
    assert forged.failure.startswith("certificate rejected")
    assert outcomes[1].failure.startswith("PROVED, but")
    assert outcomes[2].status == "ERROR" and outcomes[2].failure


def test_pinned_verdicts_report_lost_proofs(tiny_items):
    invariants = run.load_invariants()
    outcomes = _run(tiny_items[:1])
    outcomes[0].status = "UNKNOWN"
    lost, changed = run.verdict_drift("corpus_cold", outcomes, invariants)
    assert lost == changed == [TINY_CORPUS[0]]


def test_spans_render_with_repro_trace(tiny_items, tmp_path, capsys):
    from repro.cli import trace_main

    tracer, _ = _traced(tiny_items)
    path = str(tmp_path / "tiny.trace.jsonl")
    run.write_spans(path, tracer, {"workload": "tiny"})
    assert trace_main([path]) == 0
    assert "linalg.simplex.lp.theta" in capsys.readouterr().out


def test_refuses_to_run_without_the_analyzer(tmp_path):
    shutil.copy(os.path.join(REPO, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "corpus_cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert '"metrics"' not in completed.stdout


def test_harrell_davis_median():
    assert run.hd_median([5.0]) == 5.0
    assert abs(run.hd_median(range(101)) - 50) < 1e-9
    # With a gap at the middle the estimate falls inside the gap.
    assert 2 < run.hd_median([1, 1, 2, 9, 10, 10]) < 9
