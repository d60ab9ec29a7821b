"""The array kernel's availability gate and graceful degradation.

The vectorized kernel is an optional accelerator: numpy missing (or
too old), oversized coefficients, and potential int64 overflow are
all *routing signals* — the caller lands on the exact integer kernel
and the ``fm.array.fallbacks.*`` counters record the detour.  These
tests drive the gates directly, simulating a numpy-less process by
poisoning the lazy import cache.
"""

import pytest

from repro.linalg import array_kernel
from repro.linalg.array_kernel import (
    ArrayKernelUnavailable,
    numpy_available,
    require_numpy,
)
from repro.linalg.constraints import Constraint, ConstraintSystem
from repro.linalg.fourier_motzkin import eliminate, eliminate_all_tracked
from repro.linalg.linexpr import LinearExpr
from repro.obs import METRICS
from repro.solve import get_backend


def x(coeff=1):
    return LinearExpr.of("x", coeff)


def y(coeff=1):
    return LinearExpr.of("y", coeff)


SYSTEM = ConstraintSystem([
    Constraint(x() - y() - LinearExpr.constant(1), ">="),
    Constraint(y() - LinearExpr.constant(2), ">="),
    Constraint(-x(1) + LinearExpr.constant(10), ">="),
])


@pytest.fixture
def no_numpy(monkeypatch):
    """Make the lazy loader report numpy as missing."""
    monkeypatch.setattr(array_kernel, "_numpy", None)
    monkeypatch.setattr(array_kernel, "_numpy_checked", True)


@pytest.fixture
def fresh_metrics():
    previous = METRICS.set_enabled(True)
    before = METRICS.snapshot()["counters"]
    yield before
    METRICS.set_enabled(previous)


def _counter_delta(before, name):
    after = METRICS.snapshot()["counters"]
    return after.get(name, 0) - before.get(name, 0)


class TestAvailabilityGate:
    def test_require_numpy_signals_unavailable(self, no_numpy,
                                               fresh_metrics):
        assert not numpy_available()
        with pytest.raises(ArrayKernelUnavailable) as excinfo:
            require_numpy()
        assert excinfo.value.reason == "unavailable"
        assert _counter_delta(
            fresh_metrics, "fm.array.fallbacks.unavailable"
        ) == 1

    def test_eliminate_degrades_to_int_kernel(self, no_numpy,
                                              fresh_metrics):
        """``kernel="array"`` without numpy must not error: the call
        silently lands on the integer kernel and counts the detour."""
        from_array = eliminate(SYSTEM, "x", kernel="array")
        from_int = eliminate(SYSTEM, "x", kernel="int")
        assert list(from_array.constraints) == list(from_int.constraints)
        assert _counter_delta(
            fresh_metrics, "fm.array.fallbacks.unavailable"
        ) >= 1

    def test_tracked_elimination_degrades(self, no_numpy):
        from_array = eliminate_all_tracked(SYSTEM, ("x",), kernel="array")
        from_int = eliminate_all_tracked(SYSTEM, ("x",), kernel="int")
        assert list(from_array.constraints) == list(from_int.constraints)

    def test_fm_backend_degrades(self, no_numpy):
        from_array = get_backend("fm", kernel="array").feasible_point(SYSTEM)
        from_int = get_backend("fm").feasible_point(SYSTEM)
        assert from_array.feasible == from_int.feasible
        assert from_array.witness == from_int.witness


class TestOverflowGate:
    def test_oversized_input_coefficients_fall_back(self, fresh_metrics):
        if not numpy_available():
            pytest.skip("array kernel needs numpy >= 2.0")
        huge = 1 << 80
        system = ConstraintSystem([
            Constraint(x(huge) - LinearExpr.constant(1), ">="),
            Constraint(-x(1) + LinearExpr.constant(huge), ">="),
        ])
        from_array = eliminate(system, "x", kernel="array")
        from_int = eliminate(system, "x", kernel="int")
        assert list(from_array.constraints) == list(from_int.constraints)
        assert _counter_delta(
            fresh_metrics, "fm.array.fallbacks.overflow"
        ) >= 1
