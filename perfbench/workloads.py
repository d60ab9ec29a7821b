"""The benchmark's workloads: seeded inputs with known answers.

Each workload is a list of :class:`Item` queries.  Inputs come from
``--seed`` only; the analyzer receives nothing but the generated
program text, root and mode.

``corpus_cold``
    All corpus programs in their declared modes under the default
    settings (``argsize``, ``int`` kernel); the seed permutes the order.
``mutual_rings``
    Ring programs ``p1 -> ... -> pk -> p1`` over one bound argument.
    Each hop shrinks the argument (``s(X)``) or passes it through, and
    at least one hop shrinks, so every query terminates.  Ring sizes
    are drawn from the seed within fixed strata, so every seed yields
    the same spread of sizes and a comparable amount of work.
``portfolio_residue``
    ``method=portfolio`` on the corpus programs that ``argsize``
    leaves UNKNOWN; the seed permutes the order.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

WORKLOADS = ("corpus_cold", "mutual_rings", "portfolio_residue")

#: Corpus programs ``argsize`` leaves UNKNOWN, fixed by name.
RESIDUE = (
    "example_a1", "mergesort", "ackermann", "loop_direct", "loop_growing",
    "loop_swap", "loop_mutual", "tc_left_recursive", "count_up", "seesaw",
    "bounded_counter",
)

#: Ring sizes: ``count`` rings drawn uniformly from ``[low, high]``.
#: The single-size middle stratum holds the median ring.
RING_STRATA = ((8, 9, 2), (10, 11, 2), (12, 12, 3), (13, 14, 2),
               (15, 16, 2))


@dataclass(frozen=True)
class Item:
    """One query: program text, root, mode, method and ground truth.

    ``terminating`` is True, False, or None when the answer depends on
    the input.
    """

    name: str
    source: str
    root: tuple
    mode: str
    method: str
    terminating: object


def build(workload, seed):
    """The workload's items for *seed* (imports ``repro.corpus``)."""
    rng = random.Random("%s/%d" % (workload, seed))
    if workload == "corpus_cold":
        items = [corpus_item(entry, "argsize") for entry in _corpus()]
    elif workload == "portfolio_residue":
        by_name = {entry.name: entry for entry in _corpus()}
        items = [corpus_item(by_name[name], "portfolio") for name in RESIDUE]
    elif workload == "mutual_rings":
        return ring_items(rng)
    else:
        raise ValueError("unknown workload %r; choose from %s"
                         % (workload, ", ".join(WORKLOADS)))
    rng.shuffle(items)
    return items


def _corpus():
    from repro.corpus import all_programs

    return all_programs()


def corpus_item(entry, method):
    """The :class:`Item` for a corpus entry, analyzed by *method*."""
    return Item(entry.name, entry.source, tuple(entry.root), entry.mode,
                method, entry.terminating)


def ring_items(rng, strata=RING_STRATA):
    """One ring program per drawn size, in a seeded order."""
    sizes = [
        rng.randint(low, high)
        for low, high, count in strata
        for _ in range(count)
    ]
    rng.shuffle(sizes)
    return [
        Item("ring%02d_k%d" % (index, size), ring_source(size, rng),
             ("p1", 1), "b", "argsize", True)
        for index, size in enumerate(sizes)
    ]


def ring_source(size, rng):
    """A ring of *size* predicates; half the hops (rounded up) shrink."""
    shrinking = set(rng.sample(range(size), (size + 1) // 2))
    lines = ["p1(0)."]
    for hop in range(size):
        head, callee = hop + 1, (hop + 1) % size + 1
        if hop in shrinking:
            lines.append("p%d(s(X)) :- p%d(X)." % (head, callee))
        else:
            lines.append("p%d(X) :- p%d(X)." % (head, callee))
    return "\n".join(lines) + "\n"
