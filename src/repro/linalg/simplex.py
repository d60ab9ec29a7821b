"""Exact two-phase simplex over rationals, with dual values.

The paper's decision procedure rests on LP duality (Section 4).  The
analyzer constructs the dual *symbolically* and reduces it with
Fourier–Motzkin, but we also need a numeric LP solver for

- feasibility of the final lambda constraint systems (cross-check path),
- independent verification of termination certificates via the *primal*
  problem Eq. 4 ("minimize lambda^T x - lambda^T y subject to Eq. 1"),
- polyhedron emptiness / entailment in inter-argument inference,
- exact LP-based redundancy pruning.

Emptiness (:func:`is_feasible`) and entailment (:func:`entails`,
:func:`entails_nonempty`) are decided on the multiplier side, by the
same affine Farkas lemma the paper uses for Eqs. 5-9: one feasibility
LP with one row per variable plus one, whatever the number of
constraints (the inter-argument systems have many rows over few
variables).

The solver is exact and uses Bland's rule, so it cannot cycle.  The
``int`` kernel pivots a fraction-free tableau of Python ints
(:class:`_IntStandardForm`); the ``reference`` kernel keeps the
:class:`fractions.Fraction` tableau (:class:`_StandardForm`), and both
take the same pivots.

Conventions
-----------
Variables are free unless listed in ``nonnegative`` (pass the string
``"all"`` to make every variable nonnegative).  Constraints come from
:mod:`repro.linalg.constraints` (``expr >= 0`` / ``expr = 0`` form).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm as _lcm

from repro.errors import InfeasibleError, UnboundedError
from repro.linalg.constraints import EQ, Constraint, ConstraintSystem
from repro.linalg.linexpr import LinearExpr
from repro.obs import METRICS

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


@dataclass
class LPResult:
    """Outcome of an LP solve.

    ``assignment`` maps every original variable to its optimal value;
    ``duals`` maps constraint index (position in the input system) to
    the dual multiplier of that row, in the convention of the row as
    written (``expr >= 0`` / ``expr = 0``).  ``pivots`` counts the
    tableau pivots performed across both phases (solver-cost telemetry
    for the backend layer).
    """

    status: str
    value: Fraction = None
    assignment: dict = None
    duals: dict = None
    pivots: int = 0

    @property
    def is_optimal(self):
        """True when the solve reached an optimum."""
        return self.status == OPTIMAL


def _make_tableau(objective, rows, sense, nonnegative, kernel=None):
    """The tableau implementation the resolved kernel selects.

    ``"int"`` runs the fraction-free Python-int tableau
    (:class:`_IntStandardForm`); ``"reference"`` runs the Fraction
    list-of-lists tableau (:class:`_StandardForm`), the oracle the
    other two are checked against; ``"array"`` runs the int64 numpy
    tableau when numpy is importable and the Fraction tableau
    otherwise.  The pivot sequence — and therefore every verdict,
    witness, value and dual — is identical in all of them: Bland's
    selections are reproduced exactly from integer signs and
    cross-multiplied ratio tests.
    """
    from repro.linalg.fourier_motzkin import (
        KERNEL_ARRAY,
        KERNEL_INT,
        _validate_kernel,
    )

    kernel = _validate_kernel(kernel)
    if kernel == KERNEL_INT:
        return _IntStandardForm(objective, rows, sense, nonnegative)
    if kernel == KERNEL_ARRAY:
        from repro.linalg.array_kernel import (
            ArrayKernelUnavailable,
            numpy_available,
        )

        if numpy_available():
            try:
                return _ArrayStandardForm(
                    objective, rows, sense, nonnegative
                )
            except ArrayKernelUnavailable:
                pass  # counted by the raiser; run the Fraction tableau
        elif METRICS.enabled:
            METRICS.counter("simplex.array.fallbacks.unavailable").inc()
    return _StandardForm(objective, rows, sense, nonnegative)


def solve_lp(objective, constraints, sense="min", nonnegative=(),
             kernel=None):
    """Optimize *objective* subject to *constraints*.

    Parameters
    ----------
    objective:
        A :class:`LinearExpr` (its constant shifts the optimum value).
    constraints:
        A :class:`ConstraintSystem` or iterable of :class:`Constraint`.
    sense:
        ``"min"`` or ``"max"``.
    nonnegative:
        Iterable of variable names constrained to be >= 0, or the
        string ``"all"``.
    kernel:
        ``None`` (follow the process default), ``"int"`` (fraction-free
        integer tableau), ``"reference"`` (Fraction tableau) or
        ``"array"`` (numpy tableau); all exact, all pivot alike.
    """
    if isinstance(constraints, ConstraintSystem):
        rows = list(constraints)
    else:
        rows = list(constraints)
    if sense not in ("min", "max"):
        raise ValueError("sense must be 'min' or 'max'")

    problem = _make_tableau(objective, rows, sense, nonnegative, kernel)
    result = problem.solve()
    if METRICS.enabled:
        METRICS.counter("simplex.solves").inc()
        METRICS.counter("simplex.pivots").inc(result.pivots)
        METRICS.histogram("simplex.pivots.per_solve").observe(result.pivots)
    return result


def is_feasible(constraints, nonnegative=()):
    """True if the constraint system has a solution.

    Decided on the multiplier side: the system is empty exactly when
    some combination of its rows reads ``b >= 0`` with ``b <= -1``
    (see :func:`_farkas_combination`).
    """
    return not _farkas_combination(
        list(constraints), nonnegative, LinearExpr.constant(-1)
    )


def feasible_point(constraints, nonnegative=()):
    """A satisfying assignment, or None if infeasible."""
    result = solve_lp(
        LinearExpr.constant(0), constraints, nonnegative=nonnegative
    )
    return result.assignment if result.status == OPTIMAL else None


def minimum(objective, constraints, nonnegative=()):
    """Exact minimum of *objective*, raising on infeasible/unbounded."""
    result = solve_lp(objective, constraints, nonnegative=nonnegative)
    if result.status == INFEASIBLE:
        raise InfeasibleError("constraints are infeasible")
    if result.status == UNBOUNDED:
        raise UnboundedError("objective is unbounded below")
    return result.value


def entails(constraints, candidate, nonnegative=()):
    """Does *constraints* imply *candidate* (a Constraint)?

    An empty system implies everything.  A Farkas certificate
    (:func:`entails_nonempty`) proves the implication whether or not
    the system is empty, so it is tried first and emptiness is decided
    only when it fails.
    """
    rows = list(constraints)
    return entails_nonempty(rows, candidate, nonnegative) or not (
        is_feasible(rows, nonnegative)
    )


def entails_nonempty(constraints, candidate, nonnegative=()):
    """:func:`entails` for a system the caller knows to be non-empty.

    By the affine Farkas lemma a non-empty system implies
    ``c.x + c0 >= 0`` exactly when the rows combine to it: some
    multipliers give ``c.x + b`` with ``b <= c0``.  An equality is
    entailed iff both defining inequalities are.
    """
    rows = list(constraints)
    return all(
        _farkas_combination(rows, nonnegative, half.expr)
        for half in candidate.as_inequalities()
    )


def _farkas_combination(rows, nonnegative, target):
    """Do *rows* combine to ``c.x + b`` with ``b <= c0``?

    ``target`` is ``c.x + c0``.  The rows are ``a_i.x + b_i >= 0`` and
    ``a_j.x + b_j = 0``, plus ``x_k >= 0`` for every *nonnegative*
    variable.  The question is one feasibility LP over the multipliers
    ``l`` (``>= 0`` on inequality rows, free on equalities)::

        sum_i l_i a_i  = c          (one equality per variable)
        sum_i l_i b_i <= c0

    — one row per variable plus one, however many rows the system
    has.  ``target = -1`` asks for ``0.x + b`` with ``b <= -1``: a
    proof that the system is empty.
    """
    if nonnegative == "all":
        nonnegative = set(target.variables()).union(
            *(row.variables() for row in rows)
        )
    rows = rows + [
        Constraint._from_canonical(LinearExpr.of(var)) for var in nonnegative
    ]
    columns = {var: {} for var in target.variables()}
    bound = {}
    signed = []
    for i, row in enumerate(rows):
        expr = row.expr
        terms = expr._coefficients
        fresh = [var for var in terms if var not in columns]
        if fresh:
            # LP rows in the order a sorted walk of the rows meets
            # their variables.
            for var in sorted(fresh, key=repr):
                columns[var] = {}
        for var, coeff in terms.items():
            columns[var][i] = coeff
        if expr.const:
            bound[i] = -expr.const
        if not row.is_equality():
            signed.append(i)
    # The LP rows never leave this function: they skip canonical
    # scaling, which the solver does not need, and their coefficients
    # are already nonzero Fractions.
    lp = []
    for var, column in columns.items():
        coeff = target.coefficient(var)
        lp.append(Constraint._from_canonical(
            LinearExpr._from_fractions(column, -coeff if coeff else coeff),
            EQ,
        ))
    lp.append(Constraint._from_canonical(
        LinearExpr._from_fractions(bound, target.const)
    ))
    result = solve_lp(LinearExpr.constant(0), lp, nonnegative=signed)
    return result.status == OPTIMAL


class _StandardForm:
    """Builds the tableau and runs the two phases."""

    def __init__(self, objective, rows, sense, nonnegative):
        self._objective = objective
        self._rows = rows
        self._sense = sense
        self._variables = self._collect_variables()
        if nonnegative == "all":
            self._nonnegative = set(self._variables)
        else:
            self._nonnegative = set(nonnegative)

        # Column layout: for each variable either one column (nonneg)
        # or a +/- pair (free); then one slack per inequality; then one
        # artificial per row.
        self._columns = []          # (kind, payload) descriptors
        self._var_columns = {}      # var -> (plus_index, minus_index|None)
        for var in self._variables:
            if var in self._nonnegative:
                self._var_columns[var] = (len(self._columns), None)
                self._columns.append(("var+", var))
            else:
                plus = len(self._columns)
                self._columns.append(("var+", var))
                minus = len(self._columns)
                self._columns.append(("var-", var))
                self._var_columns[var] = (plus, minus)

        self._build_matrix()

    def _collect_variables(self):
        names = set(self._objective.variables())
        for row in self._rows:
            names |= row.variables()
        return sorted(names, key=repr)

    def _build_matrix(self):
        num_structural = len(self._columns)
        slack_of_row = {}
        for i, row in enumerate(self._rows):
            if not row.is_equality():
                slack_of_row[i] = num_structural
                self._columns.append(("slack", i))
                num_structural += 1
        self._artificial_of_row = {}
        for i in range(len(self._rows)):
            self._artificial_of_row[i] = num_structural
            self._columns.append(("artificial", i))
            num_structural += 1
        self._num_columns = num_structural

        matrix = []
        rhs = []
        basis = []
        self._row_sign = []
        for i, row in enumerate(self._rows):
            # Row as written: linear . x  (relation)  -const
            coeffs = [Fraction(0)] * self._num_columns
            for var, coeff in row.expr.items():
                plus, minus = self._var_columns[var]
                coeffs[plus] += coeff
                if minus is not None:
                    coeffs[minus] -= coeff
            right = -row.expr.const
            if i in slack_of_row:
                # linear . x - s = -const  with s >= 0
                coeffs[slack_of_row[i]] = Fraction(-1)
            sign = 1
            if right < 0:
                coeffs = [-c for c in coeffs]
                right = -right
                sign = -1
            coeffs[self._artificial_of_row[i]] = Fraction(1)
            matrix.append(coeffs)
            rhs.append(right)
            self._row_sign.append(sign)
            # When the (sign-normalized) slack enters with +1 it can
            # serve as the initial basic variable — the artificial then
            # starts nonbasic at 0 and phase 1 has nothing to do for
            # this row.  Its column is still built so dual extraction
            # can read B^-1 from it.
            if i in slack_of_row and coeffs[slack_of_row[i]] == 1:
                basis.append(slack_of_row[i])
            else:
                basis.append(self._artificial_of_row[i])
        self._matrix = matrix
        self._rhs = rhs
        self._basis = basis
        self._pivots = 0

    # -- cost vectors -------------------------------------------------------------

    def _phase1_costs(self):
        costs = [Fraction(0)] * self._num_columns
        for column in self._artificial_of_row.values():
            costs[column] = Fraction(1)
        return costs

    def _phase2_costs(self):
        costs = [Fraction(0)] * self._num_columns
        factor = Fraction(1) if self._sense == "min" else Fraction(-1)
        for var, coeff in self._objective.items():
            plus, minus = self._var_columns[var]
            costs[plus] += factor * coeff
            if minus is not None:
                costs[minus] -= factor * coeff
        return costs

    # -- simplex machinery -----------------------------------------------------------

    def _reduced_costs(self, costs):
        reduced = list(costs)
        for r, basic_column in enumerate(self._basis):
            basic_cost = costs[basic_column]
            if basic_cost == 0:
                continue
            for j, value in enumerate(self._matrix[r]):
                if value:
                    reduced[j] -= basic_cost * value
        return reduced

    def _objective_value(self, costs):
        return sum(
            costs[self._basis[r]] * self._rhs[r]
            for r in range(len(self._rhs))
        )

    def _pivot(self, pivot_row, pivot_column):
        matrix, rhs = self._matrix, self._rhs
        pivot_value = matrix[pivot_row][pivot_column]
        inverse = Fraction(1) / pivot_value
        matrix[pivot_row] = [c * inverse for c in matrix[pivot_row]]
        rhs[pivot_row] *= inverse
        pivot_row_values = matrix[pivot_row]
        # Only the pivot row's nonzero columns change in other rows —
        # exploiting that sparsity is the difference between usable and
        # unusable on the redundancy-pruning workload.
        touched = [
            j for j, value in enumerate(pivot_row_values) if value
        ]
        for r in range(len(matrix)):
            if r == pivot_row:
                continue
            factor = matrix[r][pivot_column]
            if factor == 0:
                continue
            row = matrix[r]
            for j in touched:
                row[j] -= factor * pivot_row_values[j]
            rhs[r] -= factor * rhs[pivot_row]
        self._basis[pivot_row] = pivot_column
        self._pivots += 1

    def _run_simplex(self, costs, allow_artificial):
        """Bland's rule loop; returns 'optimal' or 'unbounded'."""
        artificial_columns = set(self._artificial_of_row.values())
        while True:
            reduced = self._reduced_costs(costs)
            entering = None
            for j in range(self._num_columns):
                if not allow_artificial and j in artificial_columns:
                    continue
                if reduced[j] < 0:
                    entering = j
                    break
            if entering is None:
                return OPTIMAL
            leaving = None
            best_ratio = None
            for r in range(len(self._matrix)):
                coefficient = self._matrix[r][entering]
                if coefficient > 0:
                    ratio = self._rhs[r] / coefficient
                    if (
                        best_ratio is None
                        or ratio < best_ratio
                        or (
                            ratio == best_ratio
                            and self._basis[r] < self._basis[leaving]
                        )
                    ):
                        best_ratio = ratio
                        leaving = r
            if leaving is None:
                return UNBOUNDED
            self._pivot(leaving, entering)

    def _drive_out_artificials(self):
        """After phase 1, pivot artificials out of the basis when
        possible; rows where it is impossible are redundant (all-zero)."""
        artificial_columns = set(self._artificial_of_row.values())
        for r in range(len(self._matrix)):
            if self._basis[r] not in artificial_columns:
                continue
            pivot_column = None
            for j in range(self._num_columns):
                if j in artificial_columns:
                    continue
                if self._matrix[r][j] != 0:
                    pivot_column = j
                    break
            if pivot_column is not None:
                self._pivot(r, pivot_column)

    # -- solve -------------------------------------------------------------------------

    def solve(self):
        """Run phase 1 and phase 2; return an LPResult."""
        phase1_costs = self._phase1_costs()
        status = self._run_simplex(phase1_costs, allow_artificial=True)
        if status != OPTIMAL or self._objective_value(phase1_costs) > 0:
            return LPResult(status=INFEASIBLE, pivots=self._pivots)
        self._drive_out_artificials()

        phase2_costs = self._phase2_costs()
        status = self._run_simplex(phase2_costs, allow_artificial=False)
        if status == UNBOUNDED:
            return LPResult(status=UNBOUNDED, pivots=self._pivots)

        assignment = self._extract_assignment()
        value = self._objective.evaluate(assignment)
        duals = self._extract_duals(phase2_costs)
        return LPResult(
            status=OPTIMAL, value=value, assignment=assignment, duals=duals,
            pivots=self._pivots,
        )

    def _extract_assignment(self):
        column_values = [Fraction(0)] * self._num_columns
        for r, column in enumerate(self._basis):
            column_values[column] = self._rhs[r]
        assignment = {}
        for var in self._variables:
            plus, minus = self._var_columns[var]
            value = column_values[plus]
            if minus is not None:
                value -= column_values[minus]
            assignment[var] = value
        return assignment

    def _extract_duals(self, costs):
        """y_i = c_B . (B^-1 e_i), read from the artificial columns.

        Adjusted for row sign normalization and for sense=max (where the
        tableau optimizes the negated objective).
        """
        duals = {}
        factor = Fraction(1) if self._sense == "min" else Fraction(-1)
        for i, column in self._artificial_of_row.items():
            y = sum(
                costs[self._basis[r]] * self._matrix[r][column]
                for r in range(len(self._matrix))
            )
            duals[i] = factor * self._row_sign[i] * y
        return duals


def _bareiss(row, pivot_row, pivot_value, divisor, pivot_column):
    """*row* after one fraction-free pivot (see :class:`_IntStandardForm`)."""
    factor = row[pivot_column]
    if not factor:
        if pivot_value == divisor:
            return row
        return [value * pivot_value // divisor for value in row]
    return [
        (value * pivot_value - factor * pivot) // divisor
        for value, pivot in zip(row, pivot_row)
    ]


class _IntStandardForm:
    """Fraction-free integer tableau on Python ints (the ``int`` kernel).

    Same column layout, initial basis and Bland selections as
    :class:`_StandardForm`, but every entry is a Python int.  The
    tableau is kept as ``A = p * T``, where ``T`` is the Fraction
    tableau and ``p`` the determinant of the current basis columns
    (Bareiss).
    A pivot on ``(r, c)`` with ``a = A[r][c]`` is::

        A[i] <- (a * A[i] - A[i][c] * A[r]) // p    (i != r, exact)
        p    <- a                                   (A[r] unchanged)

    Python ints do not overflow, so there is no guard and no fallback.

    The rows are built straight from the constraints.  A row whose
    coefficients or constant have denominators is scaled by their LCM
    ``L_i`` — its slack and artificial entries too — and ``p`` starts
    at the product of the ``L_i`` instead of 1, so ``A / p`` is the
    Fraction tableau throughout and values and duals come out
    unscaled.

    The phase-1 and phase-2 objectives are two more rows, updated by
    every pivot: ``p * s * (c - c_B T)`` for the costs ``c`` scaled by
    a positive integer ``s``, with ``-p * s * z`` in the right-hand
    column.  Entering and leaving columns are chosen from their signs
    (relative to the sign of ``p``) and from cross-multiplied ratios,
    exactly as :class:`_StandardForm` chooses them from Fractions, so
    the pivot sequence is the same.
    """

    def __init__(self, objective, rows, sense, nonnegative):
        self._objective = objective
        names = set(objective.variables())
        for row in rows:
            names |= row.variables()
        self._variables = sorted(names, key=repr)
        if nonnegative != "all":
            names = set(nonnegative)

        # Columns: each variable (a +/- pair unless nonnegative), one
        # slack per inequality row, one artificial per row, then the
        # right-hand side.
        self._var_columns = var_columns = {}
        width = 0
        for var in self._variables:
            if var in names:
                var_columns[var] = (width, None)
                width += 1
            else:
                var_columns[var] = (width, width + 1)
                width += 2
        slacks = []
        for row in rows:
            if row.is_equality():
                slacks.append(None)
            else:
                slacks.append(width)
                width += 1
        self._first_artificial = width
        self._rhs = rhs = width + len(rows)

        tableau = []
        basis = []
        self._row_sign = []
        scales = []
        for i, row in enumerate(rows):
            terms = row.expr._coefficients
            const = row.expr.const
            scale = const.denominator
            for coeff in terms.values():
                if coeff.denominator != 1:
                    scale = _lcm(scale, coeff.denominator)
            line = [0] * (rhs + 1)
            for var, coeff in terms.items():
                value = coeff.numerator
                if scale != 1:
                    value *= scale // coeff.denominator
                plus, minus = var_columns[var]
                line[plus] = value
                if minus is not None:
                    line[minus] = -value
            right = -const.numerator * (scale // const.denominator)
            slack = slacks[i]
            if slack is not None:
                line[slack] = -scale
            sign = 1
            if right < 0:
                line = [-value for value in line]
                right = -right
                sign = -1
            line[width + i] = scale
            line[rhs] = right
            tableau.append(line)
            scales.append(scale)
            self._row_sign.append(sign)
            # The slack starts basic where it enters with +1.
            if slack is not None and sign < 0:
                basis.append(slack)
            else:
                basis.append(width + i)
        divisor = 1
        for scale in scales:
            divisor *= scale
        if divisor != 1:
            tableau = [
                [value * (divisor // scale) for value in line]
                for line, scale in zip(tableau, scales)
            ]
        self._tableau = tableau
        self._basis = basis
        self._p = divisor
        self._pivots = 0

        # Phase 1: cost 1 on every artificial column.
        phase1 = [0] * width + [divisor] * len(rows) + [0]
        for line, column in zip(tableau, basis):
            if column >= width:
                phase1 = [c - v for c, v in zip(phase1, line)]
        # Phase 2: the objective (negated for max), scaled to ints.  The
        # starting basis holds no variable column, so c_B is 0.
        self._factor = Fraction(1) if sense == "min" else Fraction(-1)
        scale = 1
        for _, coeff in objective.items():
            scale = _lcm(scale, coeff.denominator)
        self._cost_scale = scale
        phase2 = [0] * (rhs + 1)
        for var, coeff in objective.items():
            cost = self._factor * coeff * scale * divisor
            plus, minus = var_columns[var]
            phase2[plus] += int(cost)
            if minus is not None:
                phase2[minus] -= int(cost)
        self._costs = [phase1, phase2]

    # -- pivoting -----------------------------------------------------------------

    def _pivot(self, pivot_row, pivot_column):
        tableau = self._tableau
        row = tableau[pivot_row]
        value = row[pivot_column]
        divisor = self._p
        for r, other in enumerate(tableau):
            if r != pivot_row:
                tableau[r] = _bareiss(
                    other, row, value, divisor, pivot_column
                )
        costs = self._costs
        for k, other in enumerate(costs):
            costs[k] = _bareiss(other, row, value, divisor, pivot_column)
        self._p = value
        self._basis[pivot_row] = pivot_column
        self._pivots += 1

    def _run_simplex(self, limit):
        """Bland's rule on the first cost row over columns ``< limit``;
        returns 'optimal' or 'unbounded'."""
        tableau, basis, rhs = self._tableau, self._basis, self._rhs
        while True:
            reduced = self._costs[0]
            positive = self._p > 0
            # A reduced cost is negative when its sign is opposite p's.
            if positive:
                entering = next(
                    (j for j in range(limit) if reduced[j] < 0), None
                )
            else:
                entering = next(
                    (j for j in range(limit) if reduced[j] > 0), None
                )
            if entering is None:
                return OPTIMAL
            # Every candidate entry shares p's sign, so comparing the
            # cross products compares the ratios rhs / entry.
            leaving = None
            for r, line in enumerate(tableau):
                entry = line[entering]
                if not entry or (entry > 0) != positive:
                    continue
                if leaving is None:
                    leaving, best_rhs, best_entry = r, line[rhs], entry
                    continue
                left = line[rhs] * best_entry
                right = best_rhs * entry
                if left < right or (
                    left == right and basis[r] < basis[leaving]
                ):
                    leaving, best_rhs, best_entry = r, line[rhs], entry
            if leaving is None:
                return UNBOUNDED
            self._pivot(leaving, entering)

    def _drive_out_artificials(self):
        """After phase 1, pivot artificials out of the basis when
        possible; rows where it is impossible are redundant (all-zero)."""
        first = self._first_artificial
        for r in range(len(self._tableau)):
            if self._basis[r] < first:
                continue
            line = self._tableau[r]
            for j in range(first):
                if line[j]:
                    self._pivot(r, j)
                    break

    # -- solve --------------------------------------------------------------------

    def solve(self):
        """Run phase 1 and phase 2; return an LPResult."""
        status = self._run_simplex(self._rhs)
        # The phase-1 optimum is -phase1[rhs] / p; positive means
        # infeasible.
        value = self._costs[0][self._rhs]
        if status != OPTIMAL or (value and (value < 0) == (self._p > 0)):
            return LPResult(status=INFEASIBLE, pivots=self._pivots)
        del self._costs[0]
        self._drive_out_artificials()
        status = self._run_simplex(self._first_artificial)
        if status == UNBOUNDED:
            return LPResult(status=UNBOUNDED, pivots=self._pivots)

        p, rhs = self._p, self._rhs
        column_values = {
            column: line[rhs] for column, line in zip(self._basis, self._tableau)
        }
        assignment = {}
        for var in self._variables:
            plus, minus = self._var_columns[var]
            value = column_values.get(plus, 0)
            if minus is not None:
                value -= column_values.get(minus, 0)
            assignment[var] = Fraction(value, p)
        # y_i = c_B . (B^-1 e_i) = -(reduced cost of artificial i), read
        # off the phase-2 row; adjusted for row sign normalization and
        # for sense=max (where the tableau minimizes the negation).
        reduced = self._costs[0]
        denominator = p * self._cost_scale
        duals = {}
        for i, sign in enumerate(self._row_sign):
            y = Fraction(-reduced[self._first_artificial + i], denominator)
            duals[i] = self._factor * sign * y
        return LPResult(
            status=OPTIMAL, value=self._objective.evaluate(assignment),
            assignment=assignment, duals=duals, pivots=self._pivots,
        )


class _TableauOverflow(Exception):
    """Integer tableau entries would exceed the int64 guard."""


_INT64_GUARD = 1 << 62


class _ArrayStandardForm(_StandardForm):
    """Fraction-free integer tableau on int64 numpy arrays.

    Keeps ``A = p * T`` where ``T`` is the exact Fraction tableau of
    :class:`_StandardForm` and ``p`` is the previous pivot element
    (Bareiss-style integer pivoting, ``p = 1`` initially).  One pivot
    is a whole-matrix rank-1 update::

        A <- (A * a_rc - outer(A[:, c], A[r, :])) // p ;  A[r] <- old row

    with exact integer division — no rounding ever happens.  Bland's
    entering/leaving selections are reproduced from integer signs and
    cross-multiplied ratio comparisons, so the pivot *sequence* equals
    the Fraction tableau's and every verdict, witness, value, and dual
    is byte-identical.  Entry growth is guarded against int64
    overflow; :meth:`solve` falls back to the serial Fraction tableau
    when the guard trips (deterministic, so the outcome is unchanged).
    """

    def __init__(self, objective, rows, sense, nonnegative):
        from repro.linalg.array_kernel import (
            ArrayKernelUnavailable,
            require_numpy,
        )

        self._np = require_numpy()
        super().__init__(objective, rows, sense, nonnegative)
        np = self._np
        for row_values, right in zip(self._matrix, self._rhs):
            for value in list(row_values) + [right]:
                if value.denominator != 1:
                    if METRICS.enabled:
                        METRICS.counter(
                            "simplex.array.fallbacks.unavailable"
                        ).inc()
                    raise ArrayKernelUnavailable(
                        "unavailable", "non-integer tableau entry"
                    )
        try:
            self._A = np.array(
                [
                    [int(value) for value in row_values] + [int(right)]
                    for row_values, right in zip(self._matrix, self._rhs)
                ],
                dtype=np.int64,
            )
        except OverflowError:
            if METRICS.enabled:
                METRICS.counter("simplex.array.fallbacks.overflow").inc()
            raise ArrayKernelUnavailable(
                "overflow", "tableau entry exceeds int64"
            ) from None
        self._A = self._A.reshape(len(self._rhs), self._num_columns + 1)
        self._p = 1
        if METRICS.enabled:
            METRICS.counter("simplex.array.tableaus").inc()

    # -- integer machinery --------------------------------------------------------

    def _max_entry(self):
        return int(self._np.abs(self._A).max()) if self._A.size else 0

    def _ipivot(self, pivot_row, pivot_column):
        """One Bareiss pivot as whole-matrix int64 array updates."""
        np = self._np
        A = self._A
        peak = self._max_entry()
        if 2 * peak * peak >= _INT64_GUARD:
            raise _TableauOverflow
        pivot_value = int(A[pivot_row, pivot_column])
        column = A[:, pivot_column].copy()
        row_values = A[pivot_row].copy()
        A *= pivot_value
        A -= np.outer(column, row_values)
        A //= self._p          # exact: every entry is divisible by p
        A[pivot_row] = row_values
        self._p = pivot_value
        self._basis[pivot_row] = pivot_column
        self._pivots += 1

    def _int_costs(self, costs):
        """*costs* (Fractions) scaled by a positive integer to int64.

        Positive scaling preserves every reduced-cost sign, so the
        entering choices — and hence the pivot sequence — match the
        unscaled Fraction run.
        """
        scale = 1
        for value in costs:
            scale = scale * value.denominator // gcd(
                scale, value.denominator
            )
        return [int(value * scale) for value in costs]

    def _ireduced(self, int_costs):
        """``s * p * (c - c_B T)`` — the reduced costs up to the
        positive factor ``s`` and the tracked-sign factor ``p``."""
        np = self._np
        A = self._A
        rows = len(self._basis)
        basic = [int_costs[column] for column in self._basis]
        cost_peak = max(
            (abs(value) for value in int_costs), default=0
        )
        bound = cost_peak * (abs(self._p) + rows * self._max_entry())
        if bound >= _INT64_GUARD:
            raise _TableauOverflow
        reduced = np.array(int_costs, dtype=np.int64) * self._p
        if rows:
            reduced -= np.array(basic, dtype=np.int64) @ A[:, :-1]
        return reduced

    def _irun(self, int_costs, allow_artificial):
        """Bland's rule on the integer tableau."""
        np = self._np
        artificial_columns = set(self._artificial_of_row.values())
        blocked = np.zeros(self._num_columns, dtype=bool)
        if not allow_artificial:
            for column in artificial_columns:
                blocked[column] = True
        while True:
            reduced = self._ireduced(int_costs)
            # rho[j] < 0  <=>  sign(reduced[j]) opposite to sign(p)
            negative = reduced < 0 if self._p > 0 else reduced > 0
            negative &= ~blocked
            candidates = np.nonzero(negative)[0]
            if not len(candidates):
                return OPTIMAL
            entering = int(candidates[0])
            sp = 1 if self._p > 0 else -1
            column = self._A[:, entering]
            right = self._A[:, -1]
            leaving = None
            best_n = best_d = None
            for r in range(len(self._basis)):
                denominator = int(column[r]) * sp
                if denominator <= 0:
                    continue
                numerator = int(right[r]) * sp
                if (
                    leaving is None
                    or numerator * best_d < best_n * denominator
                    or (
                        numerator * best_d == best_n * denominator
                        and self._basis[r] < self._basis[leaving]
                    )
                ):
                    best_n = numerator
                    best_d = denominator
                    leaving = r
            if leaving is None:
                return UNBOUNDED
            self._ipivot(leaving, entering)

    def _idrive_out_artificials(self):
        artificial_columns = set(self._artificial_of_row.values())
        for r in range(len(self._basis)):
            if self._basis[r] not in artificial_columns:
                continue
            for j in range(self._num_columns):
                if j in artificial_columns:
                    continue
                if self._A[r, j] != 0:
                    self._ipivot(r, j)
                    break

    def _materialize(self):
        """Write ``T = A / p`` back into the Fraction fields so the
        serial extraction helpers read the exact tableau."""
        p = self._p
        self._matrix = [
            [Fraction(int(value), p) for value in row_values[:-1]]
            for row_values in self._A
        ]
        self._rhs = [
            Fraction(int(row_values[-1]), p) for row_values in self._A
        ]

    # -- solve --------------------------------------------------------------------

    def solve(self):
        """Run both phases on the integer tableau; fall back to the
        Fraction tableau when entries would overflow int64."""
        try:
            return self._solve_array()
        except _TableauOverflow:
            if METRICS.enabled:
                METRICS.counter("simplex.array.fallbacks.overflow").inc()
            fallback = _StandardForm(
                self._objective, self._rows, self._sense,
                self._nonnegative,
            )
            return fallback.solve()

    def _solve_array(self):
        phase1_costs = self._phase1_costs()
        phase1_ints = self._int_costs(phase1_costs)
        status = self._irun(phase1_ints, allow_artificial=True)
        if status == OPTIMAL:
            basic = [phase1_ints[column] for column in self._basis]
            value_numerator = int(
                sum(b * int(v) for b, v in zip(basic, self._A[:, -1]))
            )
            infeasible = value_numerator != 0 and (
                (value_numerator > 0) == (self._p > 0)
            )
        if status != OPTIMAL or infeasible:
            return LPResult(status=INFEASIBLE, pivots=self._pivots)
        self._idrive_out_artificials()

        phase2_costs = self._phase2_costs()
        status = self._irun(
            self._int_costs(phase2_costs), allow_artificial=False
        )
        if status == UNBOUNDED:
            return LPResult(status=UNBOUNDED, pivots=self._pivots)

        self._materialize()
        assignment = self._extract_assignment()
        value = self._objective.evaluate(assignment)
        duals = self._extract_duals(phase2_costs)
        return LPResult(
            status=OPTIMAL, value=value, assignment=assignment,
            duals=duals, pivots=self._pivots,
        )
