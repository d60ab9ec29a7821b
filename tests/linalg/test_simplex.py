"""Unit tests for the exact two-phase simplex."""

from fractions import Fraction

import pytest

from repro.errors import InfeasibleError, UnboundedError
from repro.linalg.constraints import Constraint, ConstraintSystem
from repro.linalg.linexpr import LinearExpr
from repro.linalg.simplex import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    _IntStandardForm,
    _make_tableau,
    _StandardForm,
    entails,
    entails_nonempty,
    feasible_point,
    is_feasible,
    minimum,
    solve_lp,
)


def x():
    return LinearExpr.of("x")


def y():
    return LinearExpr.of("y")


class TestBasicSolves:
    def test_simple_minimum(self):
        result = solve_lp(
            x() + y(),
            [Constraint.ge(x(), 1), Constraint.ge(y(), 2)],
        )
        assert result.status == OPTIMAL
        assert result.value == 3
        assert result.assignment == {"x": 1, "y": 2}

    def test_maximization(self):
        result = solve_lp(
            x(),
            [Constraint.le(x(), 7), Constraint.ge(x(), 0)],
            sense="max",
        )
        assert result.status == OPTIMAL
        assert result.value == 7

    def test_objective_constant_shift(self):
        result = solve_lp(x() + 10, [Constraint.ge(x(), 1)])
        assert result.value == 11

    def test_exact_fractions(self):
        # min x subject to 3x >= 1.
        result = solve_lp(x(), [Constraint.ge(x() * 3, 1)])
        assert result.value == Fraction(1, 3)

    def test_free_variables(self):
        # x is free: min x subject to x >= -5 is -5.
        result = solve_lp(x(), [Constraint.ge(x(), -5)])
        assert result.value == -5

    def test_equality_constraints(self):
        result = solve_lp(
            x() + y(),
            [Constraint.eq(x() + y(), 4), Constraint.ge(x(), 0),
             Constraint.ge(y(), 0)],
        )
        assert result.value == 4

    def test_nonnegative_option(self):
        result = solve_lp(x(), [], nonnegative=["x"])
        assert result.value == 0

    def test_nonnegative_all(self):
        result = solve_lp(x() + y(), [], nonnegative="all")
        assert result.value == 0

    def test_degenerate_no_constraints(self):
        result = solve_lp(LinearExpr.constant(5), [])
        assert result.status == OPTIMAL
        assert result.value == 5

    def test_invalid_sense(self):
        with pytest.raises(ValueError):
            solve_lp(x(), [], sense="best")


class TestStatuses:
    def test_infeasible(self):
        result = solve_lp(
            x(), [Constraint.ge(x(), 3), Constraint.le(x(), 2)]
        )
        assert result.status == INFEASIBLE

    def test_unbounded(self):
        result = solve_lp(-x(), [Constraint.ge(x(), 0)])
        assert result.status == UNBOUNDED

    def test_redundant_equalities_ok(self):
        result = solve_lp(
            x(),
            [Constraint.eq(x(), 2), Constraint.eq(x() * 2, 4)],
        )
        assert result.status == OPTIMAL
        assert result.value == 2


class TestDuality:
    def test_strong_duality_value(self):
        # min x + 2y s.t. x + y >= 3, x >= 0, y >= 0.
        constraints = ConstraintSystem(
            [
                Constraint.ge(x() + y(), 3),
                Constraint.ge(x(), 0),
                Constraint.ge(y(), 0),
            ]
        )
        result = solve_lp(x() + y() * 2, constraints)
        assert result.status == OPTIMAL
        assert result.value == 3
        # Dual: y.b where row i's "b" is -const of its expr.
        dual_value = sum(
            result.duals[i] * (-row.expr.const)
            for i, row in enumerate(constraints)
        )
        assert dual_value == result.value

    def test_dual_signs_for_min_ge(self):
        # For min with >= rows, dual multipliers are nonnegative.
        constraints = ConstraintSystem(
            [Constraint.ge(x(), 1), Constraint.ge(y(), 2)]
        )
        result = solve_lp(x() + y(), constraints)
        assert all(value >= 0 for value in result.duals.values())


class TestHelpers:
    def test_is_feasible(self):
        assert is_feasible([Constraint.ge(x(), 0)])
        assert not is_feasible(
            [Constraint.ge(x(), 1), Constraint.le(x(), 0)]
        )

    def test_feasible_point_satisfies(self):
        system = ConstraintSystem(
            [Constraint.ge(x() + y(), 2), Constraint.le(x(), 1)]
        )
        point = feasible_point(system)
        assert system.satisfied_by(point)

    def test_feasible_point_none(self):
        assert feasible_point(
            [Constraint.ge(x(), 1), Constraint.le(x(), 0)]
        ) is None

    def test_minimum_raises_infeasible(self):
        with pytest.raises(InfeasibleError):
            minimum(x(), [Constraint.ge(x(), 1), Constraint.le(x(), 0)])

    def test_minimum_raises_unbounded(self):
        with pytest.raises(UnboundedError):
            minimum(x(), [])

    def test_entails_true(self):
        system = [Constraint.ge(x(), 2)]
        assert entails(system, Constraint.ge(x(), 1))

    def test_entails_false(self):
        system = [Constraint.ge(x(), 1)]
        assert not entails(system, Constraint.ge(x(), 2))

    def test_entails_equality(self):
        system = [Constraint.eq(x(), 2)]
        assert entails(system, Constraint.eq(x() * 2, 4))
        assert not entails(system, Constraint.eq(x(), 3))

    def test_infeasible_entails_everything(self):
        system = [Constraint.ge(x(), 1), Constraint.le(x(), 0)]
        assert entails(system, Constraint.ge(x(), 100))


def ge(expr):
    return Constraint.ge(expr)


def const(value):
    return LinearExpr.constant(value)


class TestFarkasEntailment:
    """Entailment and emptiness decided on the multiplier side."""

    def test_infeasible_without_a_contradiction_row(self):
        # x >= 1 and -x >= 0: no row is contradictory on its own.
        system = [Constraint.ge(x(), 1), ge(-x())]
        assert not any(row.is_contradiction() for row in system)
        assert not is_feasible(system)
        assert entails(system, Constraint.ge(y(), 100))
        assert entails(system, Constraint.eq(x() + y(), 7))
        assert entails(system, ge(const(-1)))

    def test_candidate_variable_no_row_mentions(self):
        system = [ge(x())]
        assert not entails(system, ge(y()))
        assert not entails(system, ge(x() + y()))
        assert not entails_nonempty(system, Constraint.eq(y(), 0))
        # ... unless the system is empty.
        assert entails(system + [Constraint.le(x(), -1)], ge(y()))

    def test_equality_rows_take_free_multipliers(self):
        # x - y = 0 is stored with a positive first coefficient; y >= x
        # needs the multiplier -1 on it.
        system = [Constraint.eq(x(), y()), Constraint.ge(y(), 2)]
        assert entails(system, Constraint.ge(y(), x()))
        assert entails(system, Constraint.ge(x(), y()))
        assert entails(system, Constraint.ge(x(), 2))
        assert not entails(system, Constraint.ge(x(), 3))
        assert not entails(system, Constraint.le(x(), 2))

    def test_equality_candidates(self):
        system = [Constraint.eq(x(), y()), Constraint.eq(y(), 3)]
        assert entails(system, Constraint.eq(x(), 3))
        assert entails(system, Constraint.eq(x() * 2, y() + 3))
        assert not entails(system, Constraint.eq(x(), 4))
        # One direction holds, the other does not.
        assert not entails([Constraint.ge(x(), 3)], Constraint.eq(x(), 3))

    def test_constant_candidates(self):
        system = [ge(x())]
        assert entails(system, ge(const(0)))
        assert entails(system, ge(const(5)))
        assert entails(system, Constraint.eq(const(0), 0))
        assert not entails(system, ge(const(-1)))
        assert not entails(system, Constraint.eq(const(2), 0))

    def test_zero_row_system(self):
        assert is_feasible([])
        assert is_feasible(ConstraintSystem())
        assert entails([], ge(const(0)))
        assert not entails([], ge(const(-1)))
        assert not entails([], ge(x()))
        assert not entails([], Constraint.eq(x(), 0))

    def test_nonnegative_variables_become_rows(self):
        assert entails([], ge(x()), nonnegative=["x"])
        assert not entails([], ge(y()), nonnegative=["x"])
        assert entails([], ge(x() + y()), nonnegative="all")
        # x + y <= 1 bounds x only when y >= 0.
        system = [Constraint.le(x() + y(), 1)]
        assert entails(system, Constraint.le(x(), 1), nonnegative="all")
        assert not entails(system, Constraint.le(x(), 1))
        assert entails(system, Constraint.le(x(), 1), nonnegative=["y"])
        # x <= -1 is satisfiable, but not with x >= 0.
        assert is_feasible([Constraint.le(x(), -1)])
        assert not is_feasible([Constraint.le(x(), -1)], nonnegative=["x"])
        assert not is_feasible([Constraint.le(x(), -1)], nonnegative="all")

    def test_entails_nonempty_matches_entails_on_feasible_systems(self):
        system = [Constraint.ge(x(), 1), Constraint.ge(y(), x())]
        for candidate in (
            Constraint.ge(y(), 1),
            Constraint.ge(y(), 2),
            Constraint.ge(x() + y(), 2),
            Constraint.eq(x(), 1),
        ):
            assert entails(system, candidate) == entails_nonempty(
                system, candidate
            )


def both_tableaus(objective, rows, sense="min", nonnegative=()):
    """Solve on the integer and on the Fraction tableau; they must
    agree on everything, pivot count included."""
    results = [
        form(objective, rows, sense, nonnegative).solve()
        for form in (_IntStandardForm, _StandardForm)
    ]
    int_result, reference = (
        (r.status, r.value, r.assignment, r.duals, r.pivots)
        for r in results
    )
    assert int_result == reference
    return results[0]


def raw(coefficients, constant=0, relation=">="):
    """A row kept exactly as written (no canonical integer scaling)."""
    return Constraint._from_canonical(
        LinearExpr(coefficients, constant), relation
    )


class TestIntTableau:
    """The fraction-free integer tableau of the ``int`` kernel."""

    def test_kernels_select_their_tableau(self):
        rows = [ge(x())]
        assert type(_make_tableau(x(), rows, "min", (), "int")) is (
            _IntStandardForm
        )
        assert type(_make_tableau(x(), rows, "min", (), "reference")) is (
            _StandardForm
        )

    def test_beale_cycling_example_with_fraction_rows(self):
        # Beale's LP cycles under the largest-coefficient rule; Bland's
        # rule must reach the optimum, through degenerate pivots, on
        # rows that keep their Fraction coefficients.
        f = Fraction
        objective = LinearExpr(
            {"x4": f(-3, 4), "x5": 150, "x6": f(-1, 50), "x7": 6}
        )
        rows = [
            raw({"x4": f(-1, 4), "x5": 60, "x6": f(1, 25), "x7": -9}),
            raw({"x4": f(-1, 2), "x5": 90, "x6": f(1, 50), "x7": -3}),
            raw({"x6": -1}, 1),
        ]
        result = both_tableaus(objective, rows, nonnegative="all")
        assert result.status == OPTIMAL
        assert result.value == f(-1, 20)
        assert result.assignment == {
            "x4": f(1, 25), "x5": 0, "x6": 1, "x7": 0,
        }
        assert result.pivots > 2

    def test_fraction_rows_scale_duals_back(self):
        # min x + y over x/2 + y/3 >= 1 and x - y/4 = 1/2, x, y free.
        f = Fraction
        rows = [
            raw({"x": f(1, 2), "y": f(1, 3)}, -1),
            raw({"x": 1, "y": f(-1, 4)}, f(-1, 2), "="),
            ge(x()),
            ge(y()),
        ]
        result = both_tableaus(x() + y(), rows)
        assert result.status == OPTIMAL
        assert sum(
            result.duals[i] * -row.expr.const for i, row in enumerate(rows)
        ) == result.value

    def test_fraction_objective_under_max(self):
        rows = [
            Constraint.eq(x() + y(), 4),
            Constraint.le(x(), 3),
            Constraint.le(y() * 2, 5),
        ]
        objective = x() * Fraction(1, 3) + y() * Fraction(5, 2)
        result = both_tableaus(objective, rows, "max", "all")
        assert result.status == OPTIMAL
        assert result.value == Fraction(1, 2) + Fraction(25, 4)
        assert any(result.duals.values())

    def test_entries_beyond_int64(self):
        big = 2**70 + 3
        rows = [
            Constraint.ge(x() * big + y(), 1),
            Constraint.le(x() + y() * big, big * 5 + 1),
            Constraint.eq(x() * (big + 2) - y() * big, 7),
        ]
        for sense in ("min", "max"):
            result = both_tableaus(x() + y() * 3, rows, sense, "all")
            assert result.status == OPTIMAL
            assert all(row.satisfied_by(result.assignment) for row in rows)

    def test_infeasible_and_unbounded(self):
        infeasible = both_tableaus(
            x(), [Constraint.ge(x(), 1), Constraint.le(x(), 0)]
        )
        assert infeasible.status == INFEASIBLE
        unbounded = both_tableaus(-x(), [Constraint.ge(x(), 0)])
        assert unbounded.status == UNBOUNDED

    def test_redundant_equalities_drive_out_artificials(self):
        rows = [
            Constraint.eq(x() + y(), 2),
            Constraint.eq(x() * 2 + y() * 2, 4),
            Constraint.ge(x(), 0),
            Constraint.ge(y(), 0),
        ]
        result = both_tableaus(x() - y(), rows)
        assert result.status == OPTIMAL
        assert result.value == -2


class TestAgainstScipy:
    """Cross-check random LPs against scipy.optimize.linprog."""

    def test_random_instances(self):
        import random

        import numpy
        from scipy.optimize import linprog

        rng = random.Random(7)
        for trial in range(25):
            num_vars = rng.randint(1, 4)
            num_rows = rng.randint(1, 5)
            names = ["v%d" % i for i in range(num_vars)]
            constraints = []
            a_ub, b_ub = [], []
            for _ in range(num_rows):
                coeffs = [rng.randint(-3, 3) for _ in names]
                const = rng.randint(-5, 5)
                # expr >= 0 with expr = coeffs.v + const
                constraints.append(
                    Constraint.ge(
                        LinearExpr(dict(zip(names, coeffs)), const)
                    )
                )
                a_ub.append([-c for c in coeffs])  # -coeffs.v <= const
                b_ub.append(const)
            objective_coeffs = [rng.randint(-2, 2) for _ in names]
            objective = LinearExpr(dict(zip(names, objective_coeffs)))

            ours = solve_lp(objective, constraints, nonnegative="all")
            theirs = linprog(
                numpy.array(objective_coeffs, dtype=float),
                A_ub=numpy.array(a_ub, dtype=float),
                b_ub=numpy.array(b_ub, dtype=float),
                bounds=[(0, None)] * num_vars,
                method="highs",
            )
            if ours.status == OPTIMAL:
                assert theirs.status == 0, "trial %d disagreement" % trial
                assert abs(float(ours.value) - theirs.fun) < 1e-7
            elif ours.status == INFEASIBLE:
                assert theirs.status == 2
            else:
                assert theirs.status == 3
