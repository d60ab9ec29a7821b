"""Experiment F11: the vectorized array kernels.

Two claims to regenerate (both gated on numpy — the array kernel is
the optional ``repro[perf]`` accelerator):

- the numpy array kernel beats the integer row kernel by >= 2x on the
  FM-heavy hull(4) projection of experiment F8, with byte-identical
  projections;
- an end-to-end corpus sweep under ``fm_kernel="array"`` beats the
  ``"int"`` sweep with identical verdicts.

Each test folds its measurements into the repo-level ``BENCH_F11.json``
so the headline numbers are quotable without re-running pytest.
"""

import json
import os

import pytest

from repro.linalg.array_kernel import numpy_available
from repro.linalg.fourier_motzkin import eliminate_all_tracked

from benchmarks.conftest import emit
from benchmarks.test_bench_kernel import best_of, hull_lift_workload

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HEADLINE_PATH = os.path.join(REPO_ROOT, "BENCH_F11.json")

pytestmark = pytest.mark.skipif(
    not numpy_available(),
    reason="experiment F11 measures the numpy array kernel",
)


def _update_headline(key, value):
    """Merge one section into the repo-level BENCH_F11.json artifact."""
    payload = {}
    if os.path.exists(HEADLINE_PATH):
        with open(HEADLINE_PATH) as handle:
            payload = json.load(handle)
    payload[key] = value
    with open(HEADLINE_PATH, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


# -- FM array kernel on the F8 hull workload ----------------------------------


def test_fm_array_speedup(benchmark):
    rows = []
    records = []
    hull4_ratio = 0.0
    for nd in (3, 4):
        lifted, to_eliminate = hull_lift_workload(nd)
        int_time, int_result = best_of(
            5, lambda: eliminate_all_tracked(lifted, to_eliminate,
                                             kernel="int")
        )
        array_time, array_result = best_of(
            5, lambda: eliminate_all_tracked(lifted, to_eliminate,
                                             kernel="array")
        )
        assert (list(array_result.constraints)
                == list(int_result.constraints))
        ratio = int_time / array_time
        if nd == 4:
            hull4_ratio = ratio
        rows.append(
            "hull(%d)   int=%7.4fs   array=%7.4fs   %5.2fx   rows_out=%d"
            % (nd, int_time, array_time, ratio, len(int_result))
        )
        records.append({
            "workload": "hull(%d)" % nd,
            "int_seconds": int_time,
            "array_seconds": array_time,
            "speedup": ratio,
            "rows_out": len(int_result),
        })

    lifted, to_eliminate = hull_lift_workload(4)
    benchmark.pedantic(
        lambda: eliminate_all_tracked(lifted, to_eliminate,
                                      kernel="array"),
        rounds=3, iterations=1,
    )
    emit(
        "F11_fm_array",
        "Numpy array kernel vs integer row kernel\n"
        "(tracked FM projection of lifted hull systems; projections\n"
        "byte-identical by assertion)\n" + "\n".join(rows) + "\n",
        data=records,
    )
    _update_headline("fm_array", records)
    # The acceptance target: >= 2x over the integer kernel on the
    # elimination-bound hull(4) workload.
    assert hull4_ratio >= 2.0, rows


# -- end-to-end corpus sweep --------------------------------------------------


def test_corpus_kernel_sweep(benchmark):
    from repro.batch import analyze_many
    from repro.core import AnalyzerSettings, clear_caches
    from repro.corpus import all_programs

    entries = all_programs()

    def sweep(kernel):
        clear_caches()
        return analyze_many(
            entries, jobs=1, settings=AnalyzerSettings(fm_kernel=kernel)
        )

    int_report = sweep("int")
    array_report = sweep("array")
    assert (
        [(r.name, r.mode, r.status, r.reasons)
         for r in array_report.results]
        == [(r.name, r.mode, r.status, r.reasons)
            for r in int_report.results]
    )
    ratio = int_report.wall_time / array_report.wall_time

    benchmark.pedantic(lambda: sweep("array"), rounds=1, iterations=1)
    lines = [
        "corpus sweep over %d programs, serial (jobs=1)" % len(entries),
        "fm_kernel=int:    %6.2fs" % int_report.wall_time,
        "fm_kernel=array:  %6.2fs" % array_report.wall_time,
        "speedup:          %5.2fx" % ratio,
        "verdicts identical: True",
    ]
    record = {
        "programs": len(entries),
        "int_seconds": int_report.wall_time,
        "array_seconds": array_report.wall_time,
        "speedup": ratio,
        "verdicts_identical": True,
    }
    emit("F11_corpus_sweep", "\n".join(lines) + "\n", data=record)
    _update_headline("corpus_sweep", record)
    # End-to-end the sweep is not purely FM/LP-bound (parsing, graph
    # work); the array kernel must still win clearly.
    assert ratio >= 1.3, lines
