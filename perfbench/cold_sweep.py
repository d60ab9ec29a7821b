"""One cold sweep of the whole corpus under a chosen method.

Run from the repository root::

    python3 perfbench/cold_sweep.py --method portfolio

Every program starts cold, exactly as in the ``corpus_cold`` workload,
which this sweep equals for ``--method argsize``.  Prints the sweep's
raw wall time, its time in reference-speed seconds (see :mod:`speed`)
and the verdict counts, and exits 1 if the correctness gate fails.
"""

import argparse
import sys
from collections import Counter
from dataclasses import replace
from time import perf_counter

import run
from speed import SpeedSampler


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--method", default="argsize")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    sys.path.insert(0, run.SRC)
    items, _ = run.setup("corpus_cold", args.seed, rounds=1)
    items = [replace(item, method=args.method) for item in items]
    started = perf_counter()
    with SpeedSampler() as sampler:
        outcomes = run.run_pass(items, sampler)
    wall = perf_counter() - started
    run.gate(outcomes)
    failed = [o.item.name for o in outcomes if o.failure]
    verdicts = Counter(o.status for o in outcomes)
    print("method=%s programs=%d cache=%s" % (
        args.method, len(outcomes), run.CACHE_STATE))
    print("wall %.3f s (%.3f reference-speed s); %s; failed: %s" % (
        wall, sum(o.seconds for o in outcomes),
        ", ".join("%s %d" % pair for pair in sorted(verdicts.items())),
        ", ".join(failed) or "none"))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
