"""Exact combinatorial geometry over the support of a form.

Provides Newton-polytope vertices, the monomial-square / remainder support
partition, barycentric coordinates, enumeration of covering simplex
families, lattice points of simplices, and half-support candidates for
sum-of-squares summands.  Vertex detection and hull membership run on the
exact rational LP from :mod:`sonckit.exactlp`.  The covering simplices of
an inner exponent ``beta`` are the positive circuits of the vectors
``p - beta``; one depth-first walk finds them, pivoting each linearly
independent prefix once on the same fraction-free kernel and reading the
weights off its integer pivots.  The walk prunes on the signs of its
reduced rows alone, by two rules.  A pivot row is zero on the other
prefix columns, so a positive kernel vector needs a later point whose
entry in that row has the sign opposite to the pivot's: each pivot
row's last such point bounds the walk's next point.  A new independent
point becomes the pivot of its row, so it is pivoted only if a later
point has the opposite sign in that row.  Zero patterns are support
masks, bit ``i`` set where coordinate ``i`` is nonzero.  The squares are
checked, sorted and masked once per set, not once per inner exponent,
and the pool of ``beta`` keeps the squares whose mask lies inside
``beta``'s.  The support partition enumerates the simplices first and
takes the hull over the squares and the uncovered inner exponents only,
since a covered one is no vertex.  On points with no negative
coordinate, each hull LP sees only the points whose mask lies inside
its point's, cut by one AND before the coordinate-face scan.  Nothing
here touches floating point.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import (
    AffinelyDependentInput,
    CapExceeded,
    DimensionMismatch,
    OddDegree,
    ZeroFormInput,
)
from .exactlp import EchelonSolver, _pivot, matrix_rank, point_in_hull
from .forms import Exponent, SparseForm, grlex_key

#: Hard cap on candidate points per inner exponent during simplex
#: enumeration; subsets are exponential, so fail loudly instead of
#: truncating silently.
DEFAULT_CANDIDATE_CAP = 22

#: Hard cap on the integer candidates of one lattice-point scan; a short
#: text can name a simplex with more lattice points than any run can visit,
#: so the scan fails loudly instead.
LATTICE_CANDIDATE_CAP = 10_000


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


def check_common_length(points: Sequence[Exponent]) -> None:
    """Raise :class:`DimensionMismatch` unless all points have one length."""
    if any(len(p) != len(points[0]) for p in points):
        raise DimensionMismatch(f"the points {list(points)} differ in length")


def affinely_independent(points: Sequence[Exponent]) -> bool:
    """Rank test on difference vectors, exact over the rationals.  Points
    of different lengths raise :class:`DimensionMismatch`."""
    points = list(points)
    check_common_length(points)
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


def _support_mask(point: Sequence[Fraction | int]) -> int:
    """The point's support as a bit mask: bit ``i`` is set where
    ``point[i] != 0``."""
    return sum(1 << i for i, value in enumerate(point) if value)


def _face(
    point: Sequence[Fraction | int], generators: list[Sequence[Fraction | int]]
) -> list[Sequence[Fraction | int]]:
    """The generators that can carry weight in a convex combination equal
    to ``point``.

    Where ``point`` attains the minimum or the maximum of the generators'
    coordinate ``i``, a combination ``sum mu_q q = point`` has
    ``sum mu_q (q_i - point_i) = 0`` with terms of one sign, so every
    ``q`` with ``mu_q > 0`` has ``q_i = point_i``; the others go, and the
    scan repeats until nothing goes.  A coordinate outside the range
    leaves no generator.  So ``point`` is in the hull of the result
    exactly when it is in the hull of ``generators``.
    """
    while generators:
        size = len(generators)
        for i, value in enumerate(point):
            column = [q[i] for q in generators]
            low, high = min(column), max(column)
            if value < low or value > high:
                return []
            if value == low or value == high:
                generators = [q for q in generators if q[i] == value]
        if len(generators) == size:
            break
    return generators


def hull_vertices(points: Iterable[Exponent]) -> frozenset[Exponent]:
    """Vertices of the convex hull of a finite point set.

    A point is a vertex exactly when it is not a convex combination of
    the other points.  The points are tested once each, in graded-lex
    order, by exact rational LP feasibility against the points still
    alive; a point found inside leaves the alive set.  That keeps the
    hull, since a non-vertex is a convex combination of vertices alone
    and no vertex ever leaves, so each test is infeasible exactly when
    its point is a vertex, and later LPs get fewer columns.  Each LP
    sees only the alive points on the point's coordinate face
    (:func:`_face`): exponents are sparse, so a point at the low or high
    end of a coordinate is tested against the few points that share that
    value, often none, and an LP with no columns is answered without a
    tableau.  When no coordinate is negative, the face scan starts from
    the alive points whose support mask (:func:`_support_mask`) lies
    inside the point's: 0 is then the low end of every coordinate, so
    these are exactly the points the face keeps on the point's zero
    coordinates.  A negative coordinate anywhere sets every mask to 0,
    which keeps every point.  Points of different lengths raise
    :class:`DimensionMismatch`.
    """
    unique = canonical_points(points)
    if not unique:
        raise ValueError("empty point set")
    check_common_length(unique)
    if len(unique) == 1:
        return frozenset(unique)
    # The masks do _face's zero-coordinate passes only on nonnegative points.
    nonnegative = all(value >= 0 for point in unique for value in point)
    masks = {point: _support_mask(point) if nonnegative else 0 for point in unique}
    alive = list(unique)
    vertices = []
    for point in unique:
        outside = ~masks[point]
        inside = [q for q in alive if not masks[q] & outside and q != point]
        if point_in_hull(point, _face(point, inside)) is None:
            vertices.append(point)
        else:
            alive.remove(point)
    return frozenset(vertices)


def barycentric_coordinates(
    beta: Exponent, vertices: Sequence[Exponent]
) -> tuple[Fraction, ...] | None:
    """Positive weights expressing ``beta`` over affinely independent
    ``vertices``, or ``None`` when ``beta`` is not in the relative
    interior of their hull.

    Solves ``[vertices; all-ones] * lam = [beta; 1]`` with
    :class:`EchelonSolver`.  The matrix has full column rank exactly when
    the vertices are affinely independent, and
    :class:`AffinelyDependentInput` is raised otherwise or for no
    vertices; an inconsistent system means ``beta`` is off their affine
    hull.  A vertex whose length differs from ``beta``'s raises
    :class:`DimensionMismatch`.
    """
    if any(len(v) != len(beta) for v in vertices):
        raise DimensionMismatch(f"a vertex of {vertices} differs in length from {beta}")
    rows: list[list[int]] = [[v[i] for v in vertices] for i in range(len(beta))]
    rows.append([1] * len(vertices))
    solver = EchelonSolver(rows)
    if not vertices or not solver.unique:
        raise AffinelyDependentInput(f"{vertices} is affinely dependent")
    solution = solver.solve([*beta, 1])
    if solution is None or any(weight <= 0 for weight in solution):
        return None
    return tuple(solution)


@functools.lru_cache(maxsize=1)
def _sorted_pool(
    points: frozenset[Exponent], length: int
) -> tuple[tuple[Exponent, ...], tuple[int, ...]]:
    """``points`` in graded-lex order and their support masks
    (:func:`_support_mask`), built once per set of points: a partition
    passes its squares for every inner exponent in turn, so the last set
    is the one kept.  Both tuples are immutable, so no caller can change a
    later call's input.  As in :func:`hull_vertices`, a negative
    coordinate anywhere sets every mask to 0, which keeps every point.
    Points of another length than ``length`` raise
    :class:`DimensionMismatch` on every call, since a call that raises is
    not cached."""
    if any(len(point) != length for point in points):
        raise DimensionMismatch(f"a candidate is not of length {length}")
    pool = tuple(sorted(points, key=grlex_key))
    nonnegative = all(value >= 0 for point in pool for value in point)
    return pool, tuple(_support_mask(point) if nonnegative else 0 for point in pool)


def _last_opposite(row: list[int], sign: int, start: int) -> int:
    """The last index ``q >= start`` with ``row[q] * sign < 0``, or
    ``start - 1`` when there is none."""
    q = len(row) - 1
    if sign > 0:
        while q >= start and row[q] >= 0:
            q -= 1
    else:
        while q >= start and row[q] <= 0:
            q -= 1
    return q


def enumerate_simplices(beta: Exponent, candidates: Iterable[Exponent]) -> list[Simplex]:
    """All simplices spanned by candidate points that contain ``beta`` in
    their relative interior, ordered by size and then by their vertex
    indices in the graded-lex sorted pool, as ``itertools.combinations``
    would list them.

    A point set S is such a simplex exactly when the vectors
    ``d_p = p - beta`` for p in S form a circuit, a minimally dependent
    set, whose kernel vector is strictly positive; the kernel vector
    scaled to sum one is the barycentric weights.  One depth-first walk
    over the pool finds them.  It grows prefixes whose d-vectors are
    linearly independent, holding their fraction-free Gauss--Jordan form
    ``rows`` over all pool columns, so each prefix costs one pivot.  A
    later point ``j`` whose ``d_j`` lies in the span of the prefix,
    ``d_j = sum c_k d_k``, closes a simplex exactly when every ``c_k`` is
    negative, and the walk never goes past it: every larger set is
    dependent but not minimally so.  The weights come from integers: over
    the lcm of the pivot entries each ``-c_k`` is an integer part, and
    each weight is one ``Fraction`` of a part, or of the lcm for ``j``,
    over their sum.  (``p = beta`` has ``d_p = 0`` and is a simplex of one
    point.)

    Two rules read off the signs of the reduced rows prune the walk.
    Every simplex below a prefix P is ``P | T``, with T a set of later
    points and a kernel vector ``x > 0``.

    * Pivot rows bound the loop.  The pivot row ``r`` of prefix column
      ``k`` is zero on the other prefix columns, so
      ``rows[r][k] x_k = -sum_{q in T} rows[r][q] x_q``.  T must hold
      some q with ``rows[r][q] * rows[r][k] < 0``, and the loop over
      ``j`` stops after the last such q of the pivot row that has it
      earliest.
    * The new row is tested before pivoting.  A point ``j`` independent
      of P, with pivot row ``top``, is the column of ``top`` below
      ``P + j``, so by the rule above the walk pivots on it only if some
      ``q > j`` has ``rows[top][q] * rows[top][j] < 0``.

    Both rules compare signs within one row, so the row's scale, which
    may be negative, does not matter.  Candidates strictly above
    :data:`DEFAULT_CANDIDATE_CAP` raise :class:`CapExceeded`, candidates of another length than
    ``beta`` :class:`DimensionMismatch`.
    """
    beta = tuple(beta)
    n = len(beta)
    if not isinstance(candidates, frozenset):
        candidates = frozenset(map(tuple, candidates))
    # On a nonnegative pool, a simplex covering beta in its relative
    # interior uses only points vanishing wherever beta vanishes (weights
    # are strictly positive): those whose support mask lies inside beta's.
    outside = ~_support_mask(beta)
    pool = [
        point for point, mask in zip(*_sorted_pool(candidates, n)) if not mask & outside
    ]
    size = len(pool)
    if size > DEFAULT_CANDIDATE_CAP:
        raise CapExceeded(
            f"{size} candidate points for {beta} exceed the cap of {DEFAULT_CANDIDATE_CAP}"
        )
    rows = [[point[i] - beta[i] for point in pool] for i in range(n)]
    found: list[tuple[tuple[int, ...], tuple[Fraction, ...]]] = []

    def walk(prefix, pivot_rows, free, rows, scales, previous):
        # Column k of ``rows`` is d_k; pivot_rows[i] holds the pivot of
        # column prefix[i], the rows in ``free`` are zero on the prefix
        # columns.  Each pivot row bounds j by its last opposite sign.
        start = prefix[-1] + 1 if prefix else 0
        stop = min((_last_opposite(rows[r], rows[r][k], start) + 1
                    for r, k in zip(pivot_rows, prefix)), default=size)
        for j in range(start, stop):
            for top in free:
                if rows[top][j]:
                    break
            else:
                # d_j = sum c_k d_k with c_k = rows[r][j] / rows[r][k]; a
                # simplex when every c_k < 0, its weights -c_k and 1 over
                # their sum, here integer parts over lcm(rows[r][k]).
                pairs = [(rows[r][j], rows[r][k]) for r, k in zip(pivot_rows, prefix)]
                if all(a * b < 0 for a, b in pairs):
                    common = math.lcm(*[b for _, b in pairs])
                    parts = [-a * (common // b) for a, b in pairs]
                    total = common + sum(parts)
                    weights = (*(Fraction(part, total) for part in parts),
                               Fraction(common, total))
                    found.append(((*prefix, j), weights))
                continue
            if _last_opposite(rows[top], rows[top][j], j + 1) == j:
                continue
            # _pivot rebinds every row it changes, so copies of the two
            # lists leave this level's form intact.
            child_rows, child_scales = rows[:], scales[:]
            pivot = _pivot(child_rows, child_scales, top, j, previous)
            walk((*prefix, j), (*pivot_rows, top), [r for r in free if r != top],
                 child_rows, child_scales, pivot)

    walk((), (), list(range(n)), rows, [1] * n, 1)
    found.sort(key=lambda item: (len(item[0]), item[0]))
    return [
        Simplex(vertices=tuple(pool[j] for j in subset), barycentric=weights)
        for subset, weights in found
    ]


def support_partition(f: SparseForm) -> SupportPartition:
    """Full support partition with covering simplex families per inner
    exponent; raises :class:`ZeroFormInput` on the zero form.

    The families come first.  An inner exponent with a nonempty family is
    a positive convex combination of at least two squares, so it is no
    vertex of the Newton polytope and leaving it out keeps the hull: the
    vertices are taken over the squares and the uncovered inner exponents
    alone.
    """
    if f.is_zero:
        raise ZeroFormInput("support partition needs a nonzero form")
    s_set = monomial_square_support(f)
    i_set = frozenset(f.terms) - s_set
    families: dict[Exponent, tuple[Simplex, ...]] = {}
    used: set[Exponent] = set()
    for beta in sorted(i_set, key=grlex_key):
        family = tuple(enumerate_simplices(beta, s_set))
        families[beta] = family
        for simplex in family:
            used.update(simplex.vertices)
    vertices = hull_vertices(
        [*s_set, *(beta for beta, family in families.items() if not family)]
    )
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

def _integer_candidates(points: Sequence[Sequence[Fraction]]) -> list[Exponent]:
    """Integer points of the bounding box, restricted to the total-degree
    range spanned by the generators (convexity makes the restriction
    exact for the hull).  Prefixes grow one coordinate at a time and keep
    only values from which that range stays reachable, so a degree-d
    simplex in n variables does not cost a box of (d + 1)^n points.  Every
    kept prefix extends to a candidate, so the list only grows; once it
    would hold more than :data:`LATTICE_CANDIDATE_CAP` prefixes, the scan
    raises :class:`CapExceeded` before building them."""
    dim = len(points[0])
    lows = [math.ceil(min(p[i] for p in points)) for i in range(dim)]
    highs = [math.floor(max(p[i] for p in points)) for i in range(dim)]
    degree_low = math.ceil(min(sum(p) for p in points))
    degree_high = math.floor(max(sum(p) for p in points))
    prefixes: list[tuple[Exponent, int]] = [((), 0)]
    for i in range(dim):
        rest_low, rest_high = sum(lows[i + 1 :]), sum(highs[i + 1 :])
        grown: list[tuple[Exponent, int]] = []
        for prefix, total in prefixes:
            low = max(lows[i], degree_low - total - rest_high)
            high = min(highs[i], degree_high - total - rest_low)
            if len(grown) + high - low + 1 > LATTICE_CANDIDATE_CAP:
                raise CapExceeded(
                    f"the lattice scan exceeds the cap of {LATTICE_CANDIDATE_CAP} candidate points"
                )
            grown += [((*prefix, value), total + value) for value in range(low, high + 1)]
        prefixes = grown
    return [prefix for prefix, _ in prefixes]


def lattice_points(simplex_vertices: Sequence[Exponent]) -> frozenset[Exponent]:
    """All integer points of the convex hull of affinely independent
    vertices, by a bounding-box scan with exact barycentric containment.
    Vertices of different lengths raise :class:`DimensionMismatch`, a scan
    over more than :data:`LATTICE_CANDIDATE_CAP` candidates
    :class:`CapExceeded`."""
    vertices = [tuple(v) for v in simplex_vertices]
    if not vertices:
        raise ValueError("empty vertex list")
    check_common_length(vertices)
    rows: list[list[int]] = [[v[i] for v in vertices] for i in range(len(vertices[0]))]
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


def hull_lattice_points(points: Sequence[Exponent]) -> frozenset[Exponent]:
    """Integer points of conv(points), each candidate decided by the exact
    LP against the points on its coordinate face (:func:`_face`); for
    point sets that may be affinely dependent.  An empty set raises
    :class:`ValueError`, points of different lengths
    :class:`DimensionMismatch`."""
    unique = canonical_points(points)
    if not unique:
        raise ValueError("empty point set")
    check_common_length(unique)
    return frozenset(
        candidate
        for candidate in _integer_candidates(unique)
        if point_in_hull(candidate, _face(candidate, unique)) is not None
    )


def polytope_lattice_points(points: Sequence[Exponent]) -> frozenset[Exponent]:
    """Integer points of conv(points) for arbitrary finite point sets.

    Affinely independent sets go through the fast barycentric route;
    otherwise :func:`hull_lattice_points` decides each candidate by LP.
    """
    unique = canonical_points(points)
    if not unique:
        raise ValueError("empty point set")
    try:
        return lattice_points(unique)
    except AffinelyDependentInput:
        return hull_lattice_points(unique)


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
