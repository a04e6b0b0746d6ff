"""Exact rational linear algebra and a small LP feasibility oracle.

Inputs and results are integers or ``Fraction``s, but the work runs on
Python ints: each routine scales its input to integers once
(:func:`integer_numerators`) and then eliminates fraction-free, after
E. H. Bareiss, "Sylvester's identity and multistep integer-preserving
Gaussian elimination", Math. Comp. 22 (1968).  Two routines do the
work, and both pivot with :func:`_pivot`, which the simplex walk of
:mod:`sonckit.geometry` shares.  Each row carries its own scale, the
pivot at which it was last rewritten, and holds that scale times its
rational row.  A pivot rewrites only the rows with a nonzero entry in
its column; every other row keeps its rational values, so skipping it
is exact, and it is brought up to date, exactly, when a later pivot
does touch it.  Each division is exact, no gcd is taken inside a loop,
and a ``Fraction`` is built only for a returned value.  No floating
point, no tolerances.  Problem sizes are tiny (dimension <= 6 at desk
scale), so dense textbook methods fit.  One fraction-free Gauss--Jordan
routine, :class:`EchelonSolver`, answers every rank
(:func:`matrix_rank`) and every linear solve.  A phase-one simplex with
Bland's rule, which guarantees termination, decides convex-hull
membership.  Its tableau holds only the structural columns: the
artificial variables survive as basis labels, and the loop stops at the
first basis where no structural column can enter, which decides
feasibility and returns the same point as the full tableau.  A system
with no columns, such as a hull test against an empty coordinate face,
is answered at entry, feasible exactly when its right side is zero.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from operator import mul
from typing import Sequence

from .errors import DimensionMismatch

_ZERO = Fraction(0)


def integer_numerators(values: Sequence[Fraction | int]) -> tuple[list[int], int]:
    """``values`` as integer numerators over their least common denominator.

    Returns ``(numerators, denominator)`` with
    ``values[i] == Fraction(numerators[i], denominator)``.  Anything
    ``Fraction`` accepts is accepted.  A list of plain ints, such as an
    exponent row or a batch of integer points, comes back as a copy over
    denominator 1 without the per-value normalisation.
    """
    if all(type(v) is int for v in values):
        return list(values), 1
    exact = [v if isinstance(v, (int, Fraction)) else Fraction(v) for v in values]
    common = math.lcm(*[v.denominator for v in exact])
    if common == 1:
        return [v.numerator for v in exact], 1
    return [v.numerator * (common // v.denominator) for v in exact], common


def _pivot(
    rows: list[list[int]], scales: list[int], top: int, col: int, previous: int
) -> int:
    """Fraction-free pivot on ``rows[top][col]``; returns the pivot ``p``.

    Row ``r`` holds ``scales[r]`` times its rational row, its scale being
    the pivot that last rewrote it.  The pivot row is first brought,
    exactly, to the scale ``previous`` of the last pivot.  Every other
    row with a nonzero ``row[col]`` becomes
    ``(p * row - row[col] * rows[top]) // scales[r]``: the Bareiss update,
    over ``previous``, of the row brought to scale ``previous``, so the
    division is exact by Sylvester's identity.  A row with
    ``row[col] == 0`` keeps its rational values under this pivot, so it
    is skipped and keeps its scale.  Every changed row is rebound to a
    new list, never mutated in place, so a caller that pivots shallow
    copies of ``rows`` and ``scales`` leaves the originals intact.
    """
    pivot_row = rows[top]
    if scales[top] != previous:
        pivot_row = rows[top] = [a * previous // scales[top] for a in pivot_row]
    p = scales[top] = pivot_row[col]
    for r in range(len(rows)):
        row = rows[r]
        factor = row[col]
        if factor and r != top:
            scale = scales[r]
            rows[r] = [(p * a - factor * b) // scale for a, b in zip(row, pivot_row)]
            scales[r] = p
    return p


def matrix_rank(rows: Sequence[Sequence[Fraction | int]]) -> int:
    """Rank over the rationals: that of :class:`EchelonSolver`, 0 for no rows."""
    return EchelonSolver(rows).rank if rows else 0


class EchelonSolver:
    """Row-reduce a coefficient matrix once, then solve many right sides.

    Solves ``M x = b`` for an ``nrows x ncols`` matrix.  ``solve`` returns
    the solution with free variables set to zero, or ``None`` when the
    system is inconsistent.  ``unique`` tells whether the column rank is
    full, i.e. whether solutions are unique when they exist.

    The reduction is fraction-free Gauss--Jordan on ``[S M | S]``, where
    the diagonal ``S`` scales each row of ``M`` to integers.  It leaves
    ``transform @ M = R`` with every pivot entry of ``R`` equal to one
    positive ``denominator``, so :meth:`solve_numerators` reads integer
    solutions over it directly.
    """

    def __init__(self, rows: Sequence[Sequence[Fraction | int]]):
        scaled = [integer_numerators(row) for row in rows]
        if not scaled:
            raise ValueError("empty coefficient matrix")
        self.nrows, self.ncols = len(scaled), len(scaled[0][0])
        if any(len(numerators) != self.ncols for numerators, _ in scaled):
            raise ValueError("ragged coefficient matrix")
        # Row i of the transform starts as scale_i * e_i, so right sides
        # get the same row scaling as the matrix.
        m = [
            numerators + [scale if i == j else 0 for j in range(self.nrows)]
            for i, (numerators, scale) in enumerate(scaled)
        ]
        pivots: list[tuple[int, int]] = []
        scales = [1] * self.nrows
        previous = 1
        for col in range(self.ncols):
            row = len(pivots)
            if row == self.nrows:
                break
            pivot = next((r for r in range(row, self.nrows) if m[r][col]), None)
            if pivot is None:
                continue
            m[row], m[pivot] = m[pivot], m[row]
            scales[row], scales[pivot] = scales[pivot], scales[row]
            previous = _pivot(m, scales, row, col, previous)
            pivots.append((row, col))
        # Every row brought to the scale |last pivot| has its pivot entry
        # equal to it: one positive denominator for every solution.
        self.denominator = abs(previous)
        self.transform = [
            [v * self.denominator // scale for v in current[self.ncols :]]
            for current, scale in zip(m, scales)
        ]
        self.pivots = pivots
        self.rank = len(pivots)
        self.unique = self.rank == self.ncols

    def solve_numerators(self, rhs: Sequence[int]) -> list[int] | None:
        """Integer numerators over ``denominator`` of the solution for an
        integer right side, free variables zero; ``None`` if inconsistent."""
        if len(rhs) != self.nrows:
            raise ValueError("right-hand side has wrong length")
        reduced = [sum(map(mul, trow, rhs)) for trow in self.transform]
        if any(reduced[self.rank :]):
            return None
        solution = [0] * self.ncols
        for row, col in self.pivots:
            solution[col] = reduced[row]
        return solution

    def solve(self, rhs: Sequence[Fraction | int]) -> list[Fraction] | None:
        numerators, common = integer_numerators(rhs)
        solution = self.solve_numerators(numerators)
        if solution is None:
            return None
        denominator = self.denominator * common
        return [Fraction(v, denominator) for v in solution]


def simplex_feasible(
    a_rows: Sequence[Sequence[Fraction | int]], b: Sequence[Fraction | int]
) -> list[Fraction] | None:
    """Find ``x >= 0`` with ``A x = b``, or ``None`` if infeasible.

    Phase-one simplex: minimize the sum of artificial variables with
    Bland's anti-cycling rule.  The tableau holds integers: row ``i`` is
    ``scales[i]`` times the rational row, its scale being the (positive)
    pivot at which it was last rewritten, so each sign and ratio test
    agrees with the rational one and the pivots and the returned weights
    are those of rational arithmetic.

    The artificial columns are never stored.  Their labels start as the
    basis, for Bland's tie-break, but only structural columns enter, and
    the loop stops once none of them has a negative reduced cost.  Up to
    there the pivots are those of the full tableau, which lists the
    structural columns first.  At that stop the duals ``y`` satisfy
    ``y A <= 0``, so any ``x >= 0`` with ``A x = b`` would give the
    objective ``y b = y A x <= 0``: a positive objective proves the
    system infeasible.  A zero one is the minimum, and any further pivot
    of the full tableau, on an artificial column or not, is degenerate
    and leaves ``x`` as it is.
    """
    nrows = len(a_rows)
    ncols = len(a_rows[0]) if nrows else 0
    if any(len(row) != ncols for row in a_rows):
        raise ValueError("ragged constraint matrix")
    if len(b) != nrows:
        raise ValueError("right-hand side has wrong length")
    if ncols == 0:
        # No columns: x = [] solves A x = b exactly when b is zero, so no
        # tableau is built.
        return None if any(b) else []

    # One denominator for the whole system: scaling rows apart would
    # reweight the artificial variables in the objective, and the LP
    # could end at another vertex.
    values, _ = integer_numerators([*itertools.chain.from_iterable(a_rows), *b])
    tableau: list[list[int]] = []
    for i in range(nrows):
        coeffs = values[i * ncols : (i + 1) * ncols]
        beta = values[nrows * ncols + i]
        if beta < 0:
            beta = -beta
            coeffs = [-v for v in coeffs]
        tableau.append(coeffs + [beta])
    # Last row: reduced costs of the objective and minus its value, kept
    # up to date by the same pivots.
    sums = [sum(column) for column in zip(*tableau)]
    tableau.append([-s for s in sums[:ncols]] + [-sums[-1]])
    # The artificial columns are not stored; their labels ncols + i stay
    # in the basis until they leave, for Bland's tie-break.
    basis = list(range(ncols, ncols + nrows))
    scales = [1] * (nrows + 1)
    previous = 1

    while True:
        costs = tableau[nrows]
        # Bland: first negative reduced cost of a structural column.
        entering = next((j for j in range(ncols) if costs[j] < 0), -1)
        if entering < 0:
            break
        leaving = -1
        for i in range(nrows):
            coeff = tableau[i][entering]
            if coeff > 0:
                if leaving < 0:
                    leaving = i
                    continue
                # Compare rhs_i / coeff with the best ratio; both
                # denominators are positive.
                best = tableau[leaving]
                lhs = tableau[i][-1] * best[entering]
                rhs = best[-1] * coeff
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leaving]):
                    leaving = i
        if leaving < 0:
            raise ArithmeticError("phase-one objective unbounded; bug")
        previous = _pivot(tableau, scales, leaving, entering, previous)
        basis[leaving] = entering

    if tableau[nrows][-1] != 0:
        return None
    solution = [_ZERO] * ncols
    for i, var in enumerate(basis):
        if var < ncols:
            solution[var] = Fraction(tableau[i][-1], scales[i])
    return solution


def point_in_hull(
    point: Sequence[Fraction | int], generators: Sequence[Sequence[Fraction | int]]
) -> list[Fraction] | None:
    """Convex-combination weights expressing ``point`` over ``generators``.

    Decides membership in the convex hull by exact LP feasibility of
    ``point = sum mu_g g`` with ``mu >= 0`` and ``sum mu = 1``; returns the
    weights or ``None``.  No generators is one LP with no columns, which
    is infeasible.  A generator whose length differs from the point's
    raises :class:`DimensionMismatch`.
    """
    generators = list(generators)
    dim = len(point)
    if any(len(g) != dim for g in generators):
        raise DimensionMismatch(f"a generator differs in length from {tuple(point)}")
    rows: list[list[Fraction | int]] = [
        [g[coordinate] for g in generators] for coordinate in range(dim)
    ]
    rows.append([1] * len(generators))
    rhs = list(point) + [1]
    return simplex_feasible(rows, rhs)
