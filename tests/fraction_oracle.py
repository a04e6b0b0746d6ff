"""Reference ``Fraction`` implementations of the exact kernel.

These are the routines ``sonckit.exactlp`` and ``sonckit.forms.evaluate``
ran on before they moved to integer arithmetic: textbook Gaussian
elimination, Gauss--Jordan on ``[M | I]`` and a phase-one simplex, all in
``Fraction``, plus term-by-term ``Fraction`` evaluation and the corpus
sampling check that built one ``Fraction`` point per draw.  The
differential tests require the integer kernel to return identical
results.

It also keeps the simplex enumeration ``sonckit.geometry`` ran before it
capped subset sizes at the pool's affine rank: subsets of every size up to
``n + 1``, each given a rank test before its barycentric solve.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from typing import Iterable, Sequence

from sonckit.errors import CapExceeded, DimensionMismatch
from sonckit.forms import Exponent, RationalLike, SparseForm, grlex_key
from sonckit.geometry import (
    DEFAULT_CANDIDATE_CAP,
    Simplex,
    _box_contains,
    affinely_independent,
    barycentric_coordinates,
)

_ZERO = Fraction(0)
_ONE = Fraction(1)

Matrix = list[list[Fraction]]


def _as_matrix(rows: Sequence[Sequence[Fraction | int]]) -> Matrix:
    return [[Fraction(v) for v in row] for row in rows]


def matrix_rank(rows: Sequence[Sequence[Fraction | int]]) -> int:
    """Rank over the rationals by fraction-exact Gaussian elimination."""
    m = _as_matrix(rows)
    if not m:
        return 0
    nrows, ncols = len(m), len(m[0])
    rank = 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, nrows) if m[r][col] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = 1 / m[rank][col]
        m[rank] = [v * inv for v in m[rank]]
        for r in range(nrows):
            if r != rank and m[r][col] != 0:
                factor = m[r][col]
                m[r] = [a - factor * b for a, b in zip(m[r], m[rank])]
        rank += 1
        if rank == nrows:
            break
    return rank


class EchelonSolver:
    """Row-reduce a coefficient matrix once, then solve many right sides.

    Solves ``M x = b`` for an ``nrows x ncols`` matrix.  ``solve`` returns
    the solution with free variables set to zero, or ``None`` when the
    system is inconsistent.  ``unique`` tells whether the column rank is
    full, i.e. whether solutions are unique when they exist.
    """

    def __init__(self, rows: Sequence[Sequence[Fraction | int]]):
        m = _as_matrix(rows)
        if not m:
            raise ValueError("empty coefficient matrix")
        self.nrows, self.ncols = len(m), len(m[0])
        # Track T with T @ M = R by eliminating on [M | I].
        transform = [
            [_ONE if i == j else _ZERO for j in range(self.nrows)]
            for i in range(self.nrows)
        ]
        pivots: list[tuple[int, int]] = []
        row = 0
        for col in range(self.ncols):
            pivot = next((r for r in range(row, self.nrows) if m[r][col] != 0), None)
            if pivot is None:
                continue
            m[row], m[pivot] = m[pivot], m[row]
            transform[row], transform[pivot] = transform[pivot], transform[row]
            inv = 1 / m[row][col]
            m[row] = [v * inv for v in m[row]]
            transform[row] = [v * inv for v in transform[row]]
            for r in range(self.nrows):
                if r != row and m[r][col] != 0:
                    factor = m[r][col]
                    m[r] = [a - factor * b for a, b in zip(m[r], m[row])]
                    transform[r] = [
                        a - factor * b for a, b in zip(transform[r], transform[row])
                    ]
            pivots.append((row, col))
            row += 1
            if row == self.nrows:
                break
        self.echelon = m
        self.transform = transform
        self.pivots = pivots
        self.rank = len(pivots)
        self.unique = self.rank == self.ncols

    def solve(self, rhs: Sequence[Fraction | int]) -> list[Fraction] | None:
        if len(rhs) != self.nrows:
            raise ValueError("right-hand side has wrong length")
        b = [Fraction(v) for v in rhs]
        reduced = [
            sum((t * v for t, v in zip(trow, b)), _ZERO) for trow in self.transform
        ]
        for r in range(self.rank, self.nrows):
            if reduced[r] != 0:
                return None
        # Reduced row echelon form with free variables pinned to zero: each
        # pivot equation then reads x_pivot = reduced[row] directly.
        solution = [_ZERO] * self.ncols
        for row, col in self.pivots:
            solution[col] = reduced[row]
        return solution


def simplex_feasible(
    a_rows: Sequence[Sequence[Fraction | int]], b: Sequence[Fraction | int]
) -> list[Fraction] | None:
    """Find ``x >= 0`` with ``A x = b``, or ``None`` if infeasible.

    Phase-one simplex: minimize the sum of artificial variables with
    Bland's anti-cycling rule, all in exact rationals.
    """
    nrows = len(a_rows)
    ncols = len(a_rows[0]) if nrows else 0
    if any(len(row) != ncols for row in a_rows):
        raise ValueError("ragged constraint matrix")
    if len(b) != nrows:
        raise ValueError("right-hand side has wrong length")
    if nrows == 0:
        return []

    tableau: list[list[Fraction]] = []
    for row, beta in zip(a_rows, b):
        beta = Fraction(beta)
        coeffs = [Fraction(v) for v in row]
        if beta < 0:
            beta = -beta
            coeffs = [-v for v in coeffs]
        tableau.append(coeffs + [_ZERO] * nrows + [beta])
    total_cols = ncols + nrows
    for i in range(nrows):
        tableau[i][ncols + i] = _ONE
    basis = list(range(ncols, ncols + nrows))
    cost = [_ZERO] * ncols + [_ONE] * nrows

    while True:
        duals_cost = [cost[basis[i]] for i in range(nrows)]
        entering = -1
        for j in range(total_cols):
            reduced = cost[j] - sum(
                (duals_cost[i] * tableau[i][j] for i in range(nrows)), _ZERO
            )
            if reduced < 0:
                entering = j  # Bland: first negative reduced cost
                break
        if entering < 0:
            break
        leaving = -1
        best_ratio: Fraction | None = None
        for i in range(nrows):
            coeff = tableau[i][entering]
            if coeff > 0:
                ratio = tableau[i][-1] / coeff
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and basis[i] < basis[leaving])
                ):
                    best_ratio = ratio
                    leaving = i
        if leaving < 0:
            raise ArithmeticError("phase-one objective unbounded; bug")
        pivot_value = tableau[leaving][entering]
        tableau[leaving] = [v / pivot_value for v in tableau[leaving]]
        for i in range(nrows):
            if i != leaving and tableau[i][entering] != 0:
                factor = tableau[i][entering]
                tableau[i] = [
                    a - factor * p for a, p in zip(tableau[i], tableau[leaving])
                ]
        basis[leaving] = entering

    objective = sum((cost[basis[i]] * tableau[i][-1] for i in range(nrows)), _ZERO)
    if objective != 0:
        return None
    solution = [_ZERO] * ncols
    for i, var in enumerate(basis):
        if var < ncols:
            solution[var] = tableau[i][-1]
    return solution


def point_in_hull(
    point: Sequence[Fraction | int], generators: Sequence[Sequence[Fraction | int]]
) -> list[Fraction] | None:
    """Convex-combination weights expressing ``point`` over ``generators``.

    Decides membership in the convex hull by exact LP feasibility of
    ``point = sum mu_g g`` with ``mu >= 0`` and ``sum mu = 1``; returns the
    weights or ``None``.
    """
    generators = list(generators)
    if not generators:
        return None
    dim = len(point)
    rows: list[list[Fraction | int]] = [
        [g[coordinate] for g in generators] for coordinate in range(dim)
    ]
    rows.append([1] * len(generators))
    rhs = list(point) + [1]
    return simplex_feasible(rows, rhs)


def enumerate_simplices(
    beta: Exponent,
    candidates: Iterable[Exponent],
    cap: int = DEFAULT_CANDIDATE_CAP,
) -> list[Simplex]:
    """All simplices spanned by candidate points that contain ``beta`` in
    their relative interior.

    Subsets of size 1 .. n+1 are enumerated in graded-lex order on sorted
    vertex lists; each survivor carries its barycentric coordinates.
    Candidates strictly above the cap raise :class:`CapExceeded`.
    """
    beta = tuple(beta)
    dim = len(beta)
    # A simplex covering beta in its relative interior uses only points
    # vanishing wherever beta vanishes (weights are strictly positive).
    zero_positions = [i for i, b in enumerate(beta) if b == 0]
    pool = sorted(
        (
            point
            for point in {tuple(p) for p in candidates}
            if all(point[i] == 0 for i in zero_positions)
        ),
        key=grlex_key,
    )
    if len(pool) > cap:
        raise CapExceeded(
            f"{len(pool)} candidate points for {beta} exceed the cap of {cap}"
        )
    found: list[Simplex] = []
    for size in range(1, min(len(pool), dim + 1) + 1):
        for subset in itertools.combinations(pool, size):
            if not _box_contains(subset, beta):
                continue
            if not affinely_independent(subset):
                continue
            weights = barycentric_coordinates(beta, subset)
            if weights is not None:
                found.append(Simplex(vertices=subset, barycentric=weights))
    return found


def evaluate(f: SparseForm, point: Sequence[RationalLike]) -> Fraction:
    """Exact value of ``f`` at a rational point."""
    if len(point) != f.num_vars:
        raise DimensionMismatch(
            f"point has {len(point)} coordinates, form has {f.num_vars} variables"
        )
    values = [Fraction(v) for v in point]
    total = Fraction(0)
    for exponent, coeff in f.terms.items():
        term = coeff
        for value, power in zip(values, exponent):
            if power:
                term *= value**power
        total += term
    return total


def sampling_nonneg(f: SparseForm, count: int) -> str:
    """The corpus ``sampling_nonneg`` check point by point: ``count`` seeded
    ``Fraction`` points ``p / 8``, each evaluated by :func:`evaluate`."""
    rng = random.Random(f"sampling:{f.name}")
    for _ in range(count):
        point = tuple(
            Fraction(rng.randint(-3 * 8, 3 * 8), 8) for _ in range(f.num_vars)
        )
        if evaluate(f, point) < 0:
            return f"negative at {point}"
    return "ok"
