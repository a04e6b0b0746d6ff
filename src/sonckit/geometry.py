"""Exact combinatorial geometry over the support of a form.

Provides Newton-polytope vertices, the monomial-square / remainder support
partition, barycentric coordinates, enumeration of covering simplex
families, lattice points of simplices, and half-support candidates for
sum-of-squares summands.  Vertex detection and hull membership run on the
exact rational LP from :mod:`sonckit.exactlp`; nothing here touches
floating point.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .errors import (
    AffinelyDependentInput,
    CapExceeded,
    DimensionMismatch,
    OddDegree,
    ZeroFormInput,
)
from .exactlp import EchelonSolver, matrix_rank, point_in_hull
from .forms import Exponent, SparseForm, grlex_key

#: Hard cap on candidate points per inner exponent during simplex
#: enumeration; subsets are exponential, so fail loudly instead of
#: truncating silently.
DEFAULT_CANDIDATE_CAP = 22


@dataclass(frozen=True)
class Simplex:
    """Affinely independent vertex list with the barycentric coordinates
    of the inner exponent it covers (all positive, summing to one)."""

    vertices: tuple[Exponent, ...]
    barycentric: tuple[Fraction, ...]


@dataclass(frozen=True)
class SupportPartition:
    """Support split of a form.

    ``s_set`` holds the monomial-square exponents (all entries even,
    positive coefficient), ``i_set`` the rest, ``vertices`` the Newton
    polytope vertices, ``simplex_families`` the covering simplices per
    inner exponent, and ``r_set`` the squares used by no covering simplex.
    """

    s_set: frozenset[Exponent]
    i_set: frozenset[Exponent]
    vertices: frozenset[Exponent]
    r_set: frozenset[Exponent]
    simplex_families: dict[Exponent, tuple[Simplex, ...]]

    def family_size(self, beta: Exponent) -> int:
        return len(self.simplex_families.get(beta, ()))

    @property
    def uncovered_inner(self) -> frozenset[Exponent]:
        return frozenset(b for b in self.i_set if self.family_size(b) == 0)


def canonical_points(points: Iterable[Exponent]) -> list[Exponent]:
    return sorted({tuple(p) for p in points}, key=grlex_key)


def affinely_independent(points: Sequence[Exponent]) -> bool:
    """Rank test on difference vectors, exact over the rationals."""
    points = list(points)
    if len(points) <= 1:
        return bool(points)
    base = points[0]
    diffs = [[p[i] - base[i] for i in range(len(base))] for p in points[1:]]
    return matrix_rank(diffs) == len(points) - 1


def monomial_square_support(f: SparseForm) -> frozenset[Exponent]:
    """Exponents with every entry even and a positive coefficient."""
    return frozenset(
        e for e, c in f.terms.items() if c > 0 and all(v % 2 == 0 for v in e)
    )


def hull_vertices(points: Iterable[Exponent]) -> frozenset[Exponent]:
    """Vertices of the convex hull of a finite point set.

    A point is a vertex exactly when it is not a convex combination of
    the remaining points, decided by exact rational LP feasibility.
    """
    unique = canonical_points(points)
    if not unique:
        raise ValueError("empty point set")
    if len(unique) == 1:
        return frozenset(unique)
    vertices = []
    for index, point in enumerate(unique):
        others = unique[:index] + unique[index + 1 :]
        if point_in_hull(point, others) is None:
            vertices.append(point)
    return frozenset(vertices)


def barycentric_coordinates(
    beta: Exponent, vertices: Sequence[Exponent]
) -> tuple[Fraction, ...] | None:
    """Positive weights expressing ``beta`` over affinely independent
    ``vertices``, or ``None`` when ``beta`` is not in the relative
    interior of their hull.

    Solves ``[vertices; all-ones] * lam = [beta; 1]`` in one elimination:
    that matrix has full column rank exactly when the vertices are
    affinely independent, and :class:`AffinelyDependentInput` is raised
    otherwise.  A vertex whose length differs from ``beta``'s raises
    :class:`DimensionMismatch`.
    """
    vertices = [tuple(v) for v in vertices]
    if any(len(v) != len(beta) for v in vertices):
        raise DimensionMismatch(f"a vertex of {vertices} differs in length from {beta}")
    rows: list[list[int]] = [[v[i] for v in vertices] for i in range(len(beta))]
    rows.append([1] * len(vertices))
    solver = EchelonSolver(rows)
    # An empty vertex list passes the rank test but spans nothing.
    if not vertices or not solver.unique:
        raise AffinelyDependentInput(f"{vertices} is affinely dependent")
    solution = solver.solve(list(beta) + [1])
    if solution is None or any(weight <= 0 for weight in solution):
        return None
    return tuple(solution)


def enumerate_simplices(
    beta: Exponent,
    candidates: Iterable[Exponent],
    cap: int = DEFAULT_CANDIDATE_CAP,
) -> list[Simplex]:
    """All simplices spanned by candidate points that contain ``beta`` in
    their relative interior.

    Subsets of size 1 up to the pool's affine rank plus one (larger ones
    are dependent) are enumerated in graded-lex order on sorted vertex
    lists; the barycentric solve rejects dependent ones and gives each
    survivor its coordinates.  Candidates strictly above the cap raise
    :class:`CapExceeded`, candidates of another length than ``beta``
    :class:`DimensionMismatch`.
    """
    beta = tuple(beta)
    points = {tuple(p) for p in candidates}
    if any(len(point) != len(beta) for point in points):
        raise DimensionMismatch(f"a candidate differs in length from {beta}")
    # A simplex covering beta in its relative interior uses only points
    # vanishing wherever beta vanishes (weights are strictly positive).
    zero_positions = [i for i, b in enumerate(beta) if b == 0]
    pool = sorted(
        (point for point in points if all(point[i] == 0 for i in zero_positions)),
        key=grlex_key,
    )
    if len(pool) > cap:
        raise CapExceeded(
            f"{len(pool)} candidate points for {beta} exceed the cap of {cap}"
        )
    rank = matrix_rank([[a - b for a, b in zip(point, pool[0])] for point in pool[1:]])
    found: list[Simplex] = []
    for size in range(1, rank + 2):
        for subset in itertools.combinations(pool, size):
            if not _box_contains(subset, beta):
                continue
            try:
                weights = barycentric_coordinates(beta, subset)
            except AffinelyDependentInput:
                continue
            if weights is not None:
                found.append(Simplex(vertices=subset, barycentric=weights))
    return found


def _box_contains(points: Sequence[Exponent], target: Exponent) -> bool:
    return all(
        min(p[i] for p in points) <= t <= max(p[i] for p in points)
        for i, t in enumerate(target)
    )


def support_partition(
    f: SparseForm, cap: int = DEFAULT_CANDIDATE_CAP
) -> SupportPartition:
    """Full support partition with covering simplex families per inner
    exponent; raises :class:`ZeroFormInput` on the zero form."""
    if f.is_zero:
        raise ZeroFormInput("support partition needs a nonzero form")
    support = list(f.terms.keys())
    s_set = monomial_square_support(f)
    i_set = frozenset(support) - s_set
    vertices = hull_vertices(support)
    families: dict[Exponent, tuple[Simplex, ...]] = {}
    used: set[Exponent] = set()
    for beta in sorted(i_set, key=grlex_key):
        family = tuple(enumerate_simplices(beta, s_set, cap=cap))
        families[beta] = family
        for simplex in family:
            used.update(simplex.vertices)
    r_set = frozenset(s_set - used)
    return SupportPartition(
        s_set=s_set,
        i_set=i_set,
        vertices=vertices,
        r_set=r_set,
        simplex_families=families,
    )


# ---------------------------------------------------------------------------
# lattice points
# ---------------------------------------------------------------------------

def _bounded_compositions(
    total: int, lows: Sequence[int], highs: Sequence[int]
) -> Iterator[Exponent]:
    """Integer tuples within [lows, highs] summing to ``total``."""
    n = len(lows)

    def rec(position: int, remaining: int, prefix: tuple[int, ...]) -> Iterator[Exponent]:
        if position == n - 1:
            if lows[position] <= remaining <= highs[position]:
                yield prefix + (remaining,)
            return
        tail_low = sum(lows[position + 1 :])
        tail_high = sum(highs[position + 1 :])
        start = max(lows[position], remaining - tail_high)
        stop = min(highs[position], remaining - tail_low)
        for value in range(start, stop + 1):
            yield from rec(position + 1, remaining - value, prefix + (value,))

    if n == 0:
        if total == 0:
            yield ()
        return
    yield from rec(0, total, ())


def _integer_candidates(points: Sequence[Sequence[Fraction]]) -> Iterator[Exponent]:
    """Integer points of the bounding box, restricted to the total-degree
    range spanned by the generators (convexity makes the restriction
    exact for the hull)."""
    dim = len(points[0])
    lows = [math.ceil(min(p[i] for p in points)) for i in range(dim)]
    highs = [math.floor(max(p[i] for p in points)) for i in range(dim)]
    if any(lo > hi for lo, hi in zip(lows, highs)):
        return
    degree_low = math.ceil(min(sum(p) for p in points))
    degree_high = math.floor(max(sum(p) for p in points))
    for total in range(degree_low, degree_high + 1):
        yield from _bounded_compositions(total, lows, highs)


def lattice_points(simplex_vertices: Sequence[Exponent]) -> frozenset[Exponent]:
    """All integer points of the convex hull of affinely independent
    vertices, by a bounding-box scan with exact barycentric containment."""
    vertices = [tuple(v) for v in simplex_vertices]
    if not vertices:
        raise ValueError("empty vertex list")
    dim = len(vertices[0])
    rows: list[list[int]] = [[v[i] for v in vertices] for i in range(dim)]
    rows.append([1] * len(vertices))
    # Full column rank of [vertices; 1] is affine independence.
    solver = EchelonSolver(rows)
    if not solver.unique:
        raise AffinelyDependentInput(f"{vertices} is affinely dependent")
    inside = []
    for candidate in _integer_candidates(vertices):
        # Weights are these numerators over a positive denominator.
        weights = solver.solve_numerators([*candidate, 1])
        if weights is not None and all(w >= 0 for w in weights):
            inside.append(candidate)
    return frozenset(inside)


def polytope_lattice_points(points: Sequence[Exponent]) -> frozenset[Exponent]:
    """Integer points of conv(points) for arbitrary finite point sets.

    Affinely independent sets go through the fast barycentric route;
    otherwise each candidate is decided by the exact LP.
    """
    unique = canonical_points(points)
    if not unique:
        raise ValueError("empty point set")
    try:
        return lattice_points(unique)
    except AffinelyDependentInput:
        pass
    inside = [
        candidate
        for candidate in _integer_candidates(unique)
        if point_in_hull(candidate, unique) is not None
    ]
    return frozenset(inside)


def half_newton_support(f: SparseForm) -> frozenset[Exponent]:
    """Lattice points of half the Newton polytope: the candidate supports
    of summands in any sum-of-squares decomposition."""
    if f.is_zero:
        return frozenset()
    if f.degree % 2 != 0:
        raise OddDegree(f"degree {f.degree} is odd")
    return polytope_lattice_points(
        [[Fraction(e, 2) for e in exponent] for exponent in f.terms.keys()]
    )


def non_square_vertex(
    vertices: Iterable[Exponent], squares: frozenset[Exponent]
) -> Exponent | None:
    """The grlex-largest Newton polytope vertex that is not a monomial
    square: the witness of the Newton precheck, or ``None``."""
    candidates = [vertex for vertex in vertices if vertex not in squares]
    return max(candidates, key=grlex_key) if candidates else None


def psd_newton_precheck(f: SparseForm) -> Exponent | None:
    """Cheap necessary condition for nonnegativity.

    Every vertex of the Newton polytope of a nonnegative form is a
    monomial square.  Returns a violating vertex as witness, or ``None``
    when the check passes (including for the zero form).
    """
    if f.is_zero:
        return None
    return non_square_vertex(hull_vertices(f.terms.keys()), monomial_square_support(f))
