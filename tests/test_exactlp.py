"""Exact linear algebra and the LP feasibility oracle."""

import copy
import random
from fractions import Fraction

import pytest

from sonckit.errors import DimensionMismatch
from sonckit.exactlp import (
    EchelonSolver,
    integer_numerators,
    matrix_rank,
    point_in_hull,
    simplex_feasible,
)


def test_matrix_rank():
    assert matrix_rank([[1, 0], [0, 1]]) == 2
    assert matrix_rank([[1, 2], [2, 4]]) == 1
    assert matrix_rank([[0, 0], [0, 0]]) == 0
    assert matrix_rank([[2, 4, 6]]) == 1


@pytest.mark.parametrize(
    "routine, rows",
    [
        (matrix_rank, [[0], [0, 1]]),  # used to read rank 0
        (EchelonSolver, [[1, 2], [3]]),  # used to report rank 2, unique
        (matrix_rank, [[1, 2], [3]]),  # used to raise IndexError
    ],
)
def test_ragged_coefficient_matrix_is_rejected(routine, rows):
    with pytest.raises(ValueError, match="ragged coefficient matrix"):
        routine(rows)


def test_solve_unique_system():
    solution = EchelonSolver([[2, 1], [1, -1]]).solve([5, 1])
    assert solution == [Fraction(2), Fraction(1)]


def test_solve_inconsistent_system():
    assert EchelonSolver([[1, 1], [2, 2]]).solve([1, 3]) is None


def test_echelon_solver_reuse():
    solver = EchelonSolver([[1, 1], [1, -1]])
    assert solver.unique
    assert solver.solve([2, 0]) == [Fraction(1), Fraction(1)]
    assert solver.solve([0, 2]) == [Fraction(1), Fraction(-1)]


def test_simplex_feasible_basic():
    # x1 + x2 = 1, x1 - x2 = 0 has the solution (1/2, 1/2).
    solution = simplex_feasible([[1, 1], [1, -1]], [1, 0])
    assert solution == [Fraction(1, 2), Fraction(1, 2)]
    # x1 + x2 = -1 with x >= 0 is infeasible.
    assert simplex_feasible([[1, 1]], [-1]) is None


def test_point_in_hull_whole_segment():
    generators = [(0, 0), (2, 0)]
    assert point_in_hull((1, 0), generators) is not None
    assert point_in_hull((0, 0), generators) is not None
    assert point_in_hull((3, 0), generators) is None
    assert point_in_hull((1, 1), generators) is None


def test_point_in_hull_returns_exact_weights():
    generators = [(4, 2, 0), (2, 4, 0), (0, 0, 6)]
    weights = point_in_hull((2, 2, 2), generators)
    assert weights is not None
    assert sum(weights) == 1
    for coordinate in range(3):
        assert (
            sum(w * g[coordinate] for w, g in zip(weights, generators))
            == (2, 2, 2)[coordinate]
        )


def test_point_in_hull_rejects_generators_of_another_length():
    # The third coordinate of the generators used to be ignored, which
    # gave the weights [1/2, 1/2].
    for point, generators in (
        ((1, 1), [(2, 0, 9), (0, 2, 9)]),
        ((1, 1, 1), [(2, 0), (0, 2)]),
        ((1, 1), [(2, 0), (0, 2, 0)]),
    ):
        with pytest.raises(DimensionMismatch):
            point_in_hull(point, generators)


def test_point_in_hull_random_convex_combinations():
    rng = random.Random(21)
    for _ in range(40):
        n = rng.randint(2, 4)
        count = rng.randint(2, 6)
        generators = [
            tuple(rng.randint(0, 8) for _ in range(n)) for _ in range(count)
        ]
        raw = [rng.randint(0, 5) for _ in range(count)]
        if sum(raw) == 0:
            raw[0] = 1
        total = sum(raw)
        weights = [Fraction(r, total) for r in raw]
        point = tuple(
            sum((w * g[i] for w, g in zip(weights, generators)), Fraction(0))
            for i in range(n)
        )
        assert point_in_hull(point, generators) is not None
        # A point beyond the bounding box never belongs to the hull.
        outside = tuple(max(g[i] for g in generators) + 1 for i in range(n))
        assert point_in_hull(outside, generators) is None


def test_integer_numerators_copies_a_list_of_ints():
    values = [3, -1, 0, 7]
    numerators, denominator = integer_numerators(values)
    assert (numerators, denominator) == ([3, -1, 0, 7], 1)
    assert numerators is not values
    numerators[0] = 99
    assert values == [3, -1, 0, 7]


@pytest.mark.parametrize(
    "values, expected",
    [
        ([True, 2], ([1, 2], 1)),
        ([1, Fraction(1, 2)], ([2, 1], 2)),
        (["1/4", 3], ([1, 12], 4)),
        ([], ([], 1)),
    ],
)
def test_integer_numerators_of_mixed_values(values, expected):
    numerators, denominator = integer_numerators(values)
    assert (numerators, denominator) == expected
    assert all(type(v) is int for v in numerators)


def test_kernel_leaves_integer_rows_unmodified():
    rows = [[2, 0, 4], [0, 6, 0], [1, 3, 2]]
    rhs = [2, 6, 4]
    saved = copy.deepcopy((rows, rhs))
    assert matrix_rank(rows) == 2
    solver = EchelonSolver(rows)
    assert solver.solve(rhs) is not None
    assert simplex_feasible(rows, rhs) is not None
    assert (rows, rhs) == saved
