"""Differential properties: vectorized array kernel vs integer kernel.

The array kernel inherits the byte-identity contract the integer row
kernel holds against the reference pipeline: for every projection the
same constraint rows, in the same canonical form, in the same
insertion order — and identical backend verdicts, witnesses, and
pivot counts on top.  Near-int64 coefficients must *fall back*, never
wrap: the guarded paths still return the exact integer kernel's rows.

With numpy absent the whole module degrades to the integer kernel;
those tests run regardless (the fallback path is the subject).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FMBlowupError
from repro.linalg.array_kernel import numpy_available
from repro.linalg.constraints import Constraint, ConstraintSystem
from repro.linalg.fourier_motzkin import (
    eliminate,
    eliminate_all,
    eliminate_all_tracked,
)
from repro.linalg.linexpr import LinearExpr
from repro.linalg.simplex import solve_lp
from repro.solve import get_backend

from tests.property.strategies import constraint_systems

POOL = ("x", "y", "z", "w")

needs_numpy = pytest.mark.skipif(
    not numpy_available(), reason="array kernel needs numpy >= 2.0"
)


def identical(first, second):
    """Order-sensitive row-for-row equality of two systems."""
    return list(first.constraints) == list(second.constraints)


@needs_numpy
@given(constraint_systems(POOL), st.sampled_from(POOL))
@settings(max_examples=120)
def test_eliminate_byte_identical(system, var):
    assert identical(
        eliminate(system, var, kernel="array"),
        eliminate(system, var, kernel="int"),
    )


@needs_numpy
@given(
    constraint_systems(POOL),
    st.lists(st.sampled_from(POOL), min_size=1, max_size=4, unique=True),
)
@settings(max_examples=80, deadline=None)
def test_eliminate_all_byte_identical(system, targets):
    assert identical(
        eliminate_all(system, targets, kernel="array"),
        eliminate_all(system, targets, kernel="int"),
    )


@needs_numpy
@given(
    constraint_systems(POOL),
    st.lists(st.sampled_from(POOL), min_size=1, max_size=4, unique=True),
)
@settings(max_examples=60, deadline=None)
def test_tracked_elimination_byte_identical(system, targets):
    """Same projection — or the same blow-up — from both kernels."""
    try:
        from_array = eliminate_all_tracked(system, targets, kernel="array")
    except FMBlowupError:
        from_array = None
    try:
        from_int = eliminate_all_tracked(system, targets, kernel="int")
    except FMBlowupError:
        from_int = None
    if from_array is None or from_int is None:
        assert from_array is None and from_int is None
    else:
        assert identical(from_array, from_int)


@given(constraint_systems(POOL))
@settings(max_examples=80, deadline=None)
def test_fm_backend_verdicts_identical(system):
    """The ``fm`` backend under ``kernel="array"``: same verdict, same
    witness.  Runs with or without numpy — without, the degradation
    path itself is what must produce the identical outcome."""
    from_array = get_backend("fm", kernel="array").feasible_point(system)
    from_int = get_backend("fm").feasible_point(system)
    assert from_array.feasible == from_int.feasible
    if from_array.feasible:
        assert from_array.witness == from_int.witness
        assert system.satisfied_by(from_array.witness)


@given(constraint_systems(POOL))
@settings(max_examples=60, deadline=None)
def test_simplex_array_tableau_identical(system):
    """``solve_lp`` on the fraction-free int64 tableau: identical
    status, optimum, assignment, and pivot count."""
    objective = LinearExpr.constant(0)
    from_array = solve_lp(objective, system, kernel="array")
    from_int = solve_lp(objective, system)
    assert from_array.status == from_int.status
    assert from_array.value == from_int.value
    assert from_array.assignment == from_int.assignment
    assert from_array.pivots == from_int.pivots


@needs_numpy
@given(
    constraint_systems(POOL, max_rows=4),
    st.integers(min_value=2**60, max_value=2**62),
)
@settings(max_examples=40, deadline=None)
def test_near_overflow_falls_back_identically(system, big):
    """Rows with near-int64 coefficients must route through the exact
    fallback and still match the integer kernel byte for byte."""
    spiked = ConstraintSystem(system)
    spiked.add(
        Constraint(
            LinearExpr.of("x", big) + LinearExpr.of("y", -big + 7)
            + LinearExpr.constant(big - 1),
            ">=",
        )
    )
    for var in ("x", "y"):
        assert identical(
            eliminate(spiked, var, kernel="array"),
            eliminate(spiked, var, kernel="int"),
        )
    from_array = get_backend("fm", kernel="array").feasible_point(spiked)
    from_int = get_backend("fm").feasible_point(spiked)
    assert from_array.feasible == from_int.feasible
    assert from_array.witness == from_int.witness
