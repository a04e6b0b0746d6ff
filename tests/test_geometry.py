"""Newton-polytope geometry: hull vertices, simplex families, lattice points."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from benchmark_forms import random_specs
from sonckit import exactlp, geometry
from sonckit.errors import (
    AffinelyDependentInput,
    CapExceeded,
    DimensionMismatch,
    OddDegree,
    ZeroFormInput,
)
from sonckit.exactlp import EchelonSolver, point_in_hull
from sonckit.forms import make_form, mul_forms, parse_form, variable, add_forms
from sonckit.geometry import (
    affinely_independent,
    barycentric_coordinates,
    canonical_points,
    enumerate_simplices,
    half_newton_support,
    hull_lattice_points,
    hull_vertices,
    lattice_points,
    polytope_lattice_points,
    psd_newton_precheck,
    support_partition,
)
from sonckit.corpus import (
    FORM_BUILDERS,
    motzkin,
    p_family,
    robinson2,
    separator_ternary,
)


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------

def _box_contains(points, target):
    return all(
        min(p[i] for p in points) <= t <= max(p[i] for p in points)
        for i, t in enumerate(target)
    )


def _hull_coords(point, subset):
    rows = [[v[i] for v in subset] for i in range(len(point))]
    rows.append([1] * len(subset))
    return EchelonSolver(rows).solve(list(point) + [1])


def hull_vertices_oracle(points):
    """Brute force: p is interior to the others' hull iff some affinely
    independent subset of at most n+1 others contains it with nonnegative
    barycentric weights."""
    pts = sorted(set(points))
    n = len(pts[0])
    vertices = set()
    for p in pts:
        others = [q for q in pts if q != p]
        inside = False
        for size in range(1, min(len(others), n + 1) + 1):
            for subset in itertools.combinations(others, size):
                if not _box_contains(subset, p):
                    continue
                if not affinely_independent(subset):
                    continue
                weights = _hull_coords(p, subset)
                if weights is not None and all(w >= 0 for w in weights):
                    inside = True
                    break
            if inside:
                break
        if not inside:
            vertices.add(p)
    return frozenset(vertices)


def _assert_partition_vertices_are_the_hull(f):
    """The partition takes its hull over part of the support; its
    vertices must be those of the whole support."""
    assert support_partition(f).vertices == hull_vertices(f.support), f


def lattice_points_oracle(points):
    """Plain bounding-box scan with LP containment, no degree slicing."""
    n = len(points[0])
    lows = [min(p[i] for p in points) for i in range(n)]
    highs = [max(p[i] for p in points) for i in range(n)]
    out = set()
    for candidate in itertools.product(
        *(range(lo, hi + 1) for lo, hi in zip(lows, highs))
    ):
        if point_in_hull(candidate, points) is not None:
            out.add(candidate)
    return frozenset(out)


# ---------------------------------------------------------------------------
# hull vertices
# ---------------------------------------------------------------------------

def test_hull_vertices_collinear():
    assert hull_vertices([(6, 0), (4, 2), (0, 6)]) == {(6, 0), (0, 6)}


def test_hull_vertices_single_point():
    assert hull_vertices([(3, 1)]) == {(3, 1)}


def test_hull_vertices_robinson2_support():
    expected = {
        (4, 0, 0, 0),
        (0, 4, 0, 0),
        (0, 0, 4, 0),
        (2, 0, 0, 2),
        (0, 2, 0, 2),
        (0, 0, 2, 2),
    }
    support = robinson2().support
    assert hull_vertices(support) == expected
    assert hull_vertices_oracle(support) == expected


def test_hull_vertices_matches_oracle_on_corpus_supports():
    for builder in FORM_BUILDERS.values():
        support = builder().support
        assert hull_vertices(support) == hull_vertices_oracle(support), builder
        _assert_partition_vertices_are_the_hull(builder())


def test_hull_vertices_matches_oracle_on_random_supports():
    rng = random.Random(31)
    for _ in range(200):
        n = rng.randint(2, 4)
        count = rng.randint(1, 10)
        points = {
            tuple(rng.randint(0, 8) for _ in range(n)) for _ in range(count)
        }
        points = sorted(points)
        assert hull_vertices(points) == hull_vertices_oracle(points)


@st.composite
def _hull_point_sets(draw):
    """Small point sets, not homogeneous in general, with a collinear run
    through one of the points, midpoints drawn twice (as ``Fraction``s
    where they are not integral), and now and then every point halved."""
    n = draw(st.integers(1, 4))
    points = draw(st.lists(st.tuples(*[st.integers(0, 6)] * n), min_size=1, max_size=5))
    if draw(st.booleans()):
        start = draw(st.sampled_from(points))
        step = draw(st.tuples(*[st.integers(-2, 2)] * n))
        points += [
            tuple(a + k * d for a, d in zip(start, step))
            for k in range(1, draw(st.integers(2, 3)))
        ]
    ends = st.tuples(st.sampled_from(points), st.sampled_from(points))
    for p, q in draw(st.lists(ends, max_size=2)):
        points += [tuple(Fraction(a + b, 2) for a, b in zip(p, q))] * 2
    if draw(st.booleans()):
        points = [tuple(Fraction(v, 2) for v in p) for p in points]
    return points


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_hull_point_sets())
def test_hull_vertices_matches_oracle_hypothesis(points):
    assert hull_vertices(points) == hull_vertices_oracle(points)


def _counted_hull_vertices(monkeypatch, points):
    """``hull_vertices(points)`` and each ``point_in_hull`` call it made,
    as ``(point, infeasible)``."""
    calls = []

    def counting(point, generators):
        weights = exactlp.point_in_hull(point, generators)
        calls.append((tuple(point), weights is None))
        return weights

    monkeypatch.setattr(geometry, "point_in_hull", counting)
    return hull_vertices(points), calls


def test_hull_vertices_makes_one_lp_per_distinct_point(monkeypatch):
    # The benchmark reads the infeasible LPs of a hull as its vertices.
    for builder in FORM_BUILDERS.values():
        support = builder().support
        vertices, calls = _counted_hull_vertices(monkeypatch, support + support[:2])
        assert [point for point, _ in calls] == canonical_points(support)
        assert {point for point, infeasible in calls if infeasible} == vertices
    vertices, calls = _counted_hull_vertices(monkeypatch, [(2, 0), (1, 1), (0, 2)])
    assert calls == [((0, 2), True), ((1, 1), False), ((2, 0), True)]


def test_hull_vertices_rejects_points_of_another_length():
    # Used to raise a bare IndexError.
    for points in ([(2, 0), (0, 2, 0)], [(0, 2, 0), (2, 0)], [(1, 1), (2, 0), (0, 2, 4)]):
        with pytest.raises(DimensionMismatch):
            hull_vertices(points)


# ---------------------------------------------------------------------------
# face restriction of the hull LPs
# ---------------------------------------------------------------------------

def _unrestricted_hull_vertices(points):
    """The points that are no convex combination of all the others, one
    LP each over every other point: no face, no alive set."""
    unique = canonical_points(points)
    return frozenset(
        p for p in unique if point_in_hull(p, [q for q in unique if q != p]) is None
    )


def _assert_face_decides_like_all_others(points, targets):
    for p in targets:
        others = [q for q in points if q != p]
        face = geometry._face(p, others)
        assert set(face) <= set(others)
        assert (point_in_hull(p, face) is None) == (point_in_hull(p, others) is None), p


@pytest.mark.parametrize("n", range(2, 13))
def test_hull_vertices_of_p_family(n):
    support = p_family(n, 6).support
    vertices = hull_vertices(support)
    assert vertices == _unrestricted_hull_vertices(support)
    _assert_partition_vertices_are_the_hull(p_family(n, 6))
    # The brute-force oracle tries every subset of up to n + 1 points;
    # it takes seconds from n = 5 on.
    if n <= 4:
        assert vertices == hull_vertices_oracle(support)
    _assert_face_decides_like_all_others(canonical_points(support), support)


@pytest.mark.parametrize("seed", [7, 8, 9])
def test_hull_vertices_of_benchmark_random_forms(seed):
    for spec in random_specs(seed):
        support = canonical_points(spec.terms)
        assert hull_vertices(support) == _unrestricted_hull_vertices(support), spec.name
        _assert_partition_vertices_are_the_hull(make_form(spec.num_vars, spec.terms))
        _assert_face_decides_like_all_others(support, support)


def test_face_decides_hull_membership_seeded():
    """Sparse points with shared zeros and shared extreme values, integer
    and halved, tested at the points themselves, at midpoints and at
    points of the box, inside the hull or not."""
    rng = random.Random(15)
    for trial in range(300):
        n, top = rng.randint(1, 5), rng.randint(1, 6)
        points = [
            tuple(rng.choice([0, 0, top, rng.randint(0, top)]) for _ in range(n))
            for _ in range(rng.randint(1, 9))
        ]
        targets = points + [
            tuple(Fraction(a + b, 2) for a, b in zip(*rng.sample(points * 2, 2))),
            tuple(rng.choice([0, top, rng.randint(0, top)]) for _ in range(n)),
        ]
        if trial % 2:
            points = [tuple(Fraction(v, 2) for v in p) for p in points]
            targets = [tuple(Fraction(v, 2) for v in p) for p in targets]
        _assert_face_decides_like_all_others(points, targets)


@st.composite
def _face_point_sets(draw):
    """Point sets whose coordinates are mostly 0 or one shared maximum, so
    many points sit on a coordinate face of the set."""
    n, top = draw(st.integers(1, 4)), draw(st.integers(1, 6))
    value = st.one_of(st.just(0), st.just(top), st.integers(0, top))
    return draw(st.lists(st.tuples(*[value] * n), min_size=1, max_size=7))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_face_point_sets())
def test_hull_vertices_on_coordinate_faces_match_oracle_hypothesis(points):
    assert hull_vertices(points) == hull_vertices_oracle(points)
    _assert_face_decides_like_all_others(points, points)


# ---------------------------------------------------------------------------
# barycentric coordinates
# ---------------------------------------------------------------------------

def test_barycentric_motzkin_center():
    weights = barycentric_coordinates((2, 2, 2), [(4, 2, 0), (2, 4, 0), (0, 0, 6)])
    assert weights == (Fraction(1, 3), Fraction(1, 3), Fraction(1, 3))


def test_barycentric_segments():
    assert barycentric_coordinates((3, 3), [(2, 4), (4, 2)]) == (
        Fraction(1, 2),
        Fraction(1, 2),
    )
    assert barycentric_coordinates((3, 3), [(2, 4), (6, 0)]) == (
        Fraction(3, 4),
        Fraction(1, 4),
    )


def test_barycentric_not_in_relint():
    assert barycentric_coordinates((5, 1), [(2, 4), (4, 2)]) is None
    # on the boundary: a zero weight is not a relative-interior point
    assert barycentric_coordinates((2, 4), [(2, 4), (4, 2)]) is None


def test_barycentric_rejects_dependent_vertices():
    # The empty list passes the rank test but spans nothing.
    for vertices in ([(2, 4), (4, 2), (6, 0)], []):
        with pytest.raises(AffinelyDependentInput):
            barycentric_coordinates((3, 3), vertices)


def test_barycentric_rejects_vertices_of_another_length():
    for beta, vertices in (
        ((1, 1), [(2, 0, 5), (0, 2, 5)]),
        ((1, 1, 1), [(2, 0), (0, 2)]),
        ((1, 1), [(2, 0), (0, 2, 0)]),
    ):
        with pytest.raises(DimensionMismatch):
            barycentric_coordinates(beta, vertices)


# ---------------------------------------------------------------------------
# simplex enumeration
# ---------------------------------------------------------------------------

def test_enumerate_simplices_two_segments():
    simplices = enumerate_simplices((3, 3), [(2, 4), (4, 2), (6, 0)])
    assert len(simplices) == 2
    assert {s.vertices for s in simplices} == {
        ((2, 4), (4, 2)),
        ((2, 4), (6, 0)),
    }


def test_enumerate_simplices_motzkin_single_triangle():
    simplices = enumerate_simplices((2, 2, 2), [(4, 2, 0), (2, 4, 0), (0, 0, 6)])
    assert len(simplices) == 1
    assert set(simplices[0].vertices) == {(4, 2, 0), (2, 4, 0), (0, 0, 6)}


def test_enumerate_simplices_outside_hull():
    assert enumerate_simplices((9, 9), [(2, 4), (4, 2), (6, 0)]) == []


def test_enumerate_simplices_cap():
    # One candidate above geometry.DEFAULT_CANDIDATE_CAP.
    candidates = [(i, 44 - i) for i in range(0, 45, 2)]
    assert len(candidates) == 23
    with pytest.raises(CapExceeded):
        enumerate_simplices((21, 23), candidates)


def test_enumerate_simplices_rejects_candidates_of_another_length():
    for beta, candidates in (
        ((1, 1), [(2, 0, 5), (0, 2, -1)]),
        ((1, 1), [(2, 0, 5)]),
        ((0, 1, 1), [(0, 2), (0, 0, 2)]),
    ):
        with pytest.raises(DimensionMismatch):
            enumerate_simplices(beta, candidates)


def test_enumerate_simplices_checks_lengths_on_every_call():
    """The sorted pool is cached per set of points and length, but a call
    that raises is not cached: the same squares with a beta of another
    length raise each time, before and after a call that succeeds."""
    squares = frozenset({(4, 0, 0), (0, 4, 0), (0, 0, 4)})
    for beta in ((1, 1), (1, 1), (2, 1, 1), (1, 1, 1, 1), (1, 1, 1, 1)):
        if len(beta) == 3:
            assert enumerate_simplices(beta, squares)
        else:
            with pytest.raises(DimensionMismatch):
                enumerate_simplices(beta, squares)


def test_enumerate_simplices_takes_candidates_in_any_form():
    """Lists, generators and duplicates give what a frozenset of tuples
    gives, whatever an earlier call left in the cache."""
    squares = [(6, 0, 0), (0, 6, 0), (0, 0, 6), (2, 2, 2), (4, 2, 0), (0, 2, 4)]
    beta = (2, 3, 1)
    expected = enumerate_simplices(beta, frozenset(squares))
    assert len(expected) > 1
    for candidates in (
        [list(p) for p in squares],
        (p for p in reversed(squares)),
        squares + squares[:3],
        iter([list(p) for p in squares * 2]),
        frozenset(squares),
    ):
        assert enumerate_simplices(beta, candidates) == expected


def test_enumerate_simplices_cached_pool_is_immutable():
    """The cached pool is a tuple of tuples, so neither a caller nor the
    walk can change what a later call with the same squares is given."""
    squares = [[2, 0], [0, 2], [1, 1]]
    first = enumerate_simplices((1, 1), squares)
    squares[0][0] = 8
    pool = geometry._sorted_pool(frozenset({(2, 0), (0, 2), (1, 1)}), 2)
    assert pool == ((0, 2), (1, 1), (2, 0))
    hash(pool)  # every level is immutable
    with pytest.raises(TypeError):
        pool[0] = (8, 0)
    assert enumerate_simplices((1, 1), [(2, 0), (0, 2), (1, 1)]) == first


def test_enumerate_simplices_exhaustive_closure():
    """Returned subsets re-verify; every non-returned subset fails either
    affine independence or relative-interior membership."""
    rng = random.Random(32)
    for _ in range(30):
        n = rng.randint(2, 3)
        count = rng.randint(1, 6)
        candidates = sorted(
            {tuple(2 * rng.randint(0, 3) for _ in range(n)) for _ in range(count)}
        )
        beta = tuple(rng.randint(0, 6) for _ in range(n))
        returned = {
            frozenset(s.vertices) for s in enumerate_simplices(beta, candidates)
        }
        for size in range(1, n + 2):
            for subset in itertools.combinations(sorted(candidates), size):
                qualifies = False
                if affinely_independent(subset):
                    weights = _hull_coords(beta, subset)
                    qualifies = weights is not None and all(w > 0 for w in weights)
                assert qualifies == (frozenset(subset) in returned), (beta, subset)


def test_simplex_invariants_on_corpus():
    for builder in FORM_BUILDERS.values():
        f = builder()
        partition = support_partition(f)
        for beta, family in partition.simplex_families.items():
            for simplex in family:
                assert sum(simplex.barycentric) == 1
                assert all(w > 0 for w in simplex.barycentric)
                for i in range(f.num_vars):
                    assert (
                        sum(
                            w * v[i]
                            for w, v in zip(simplex.barycentric, simplex.vertices)
                        )
                        == beta[i]
                    )


def test_r_set_recomputable_from_families():
    for builder in FORM_BUILDERS.values():
        partition = support_partition(builder())
        used = {
            v
            for family in partition.simplex_families.values()
            for simplex in family
            for v in simplex.vertices
        }
        assert partition.r_set == partition.s_set - used


def test_support_partition_monomial_squares_only():
    f = parse_form("x1^4 + x2^4")
    partition = support_partition(f)
    assert partition.i_set == frozenset()
    assert partition.r_set == partition.s_set == {(4, 0), (0, 4)}


def test_support_partition_zero_form():
    with pytest.raises(ZeroFormInput):
        support_partition(make_form(2, {}, zero_degree=2))


def test_support_partition_of_embedding_matches():
    from sonckit.forms import embed_variables

    f = motzkin()
    base = support_partition(f)
    wide = support_partition(embed_variables(f, 1))

    def pad(points):
        return {p + (0,) for p in points}

    assert wide.s_set == pad(base.s_set)
    assert wide.i_set == pad(base.i_set)
    assert wide.r_set == pad(base.r_set)
    assert wide.vertices == pad(base.vertices)
    for beta, family in base.simplex_families.items():
        wide_family = wide.simplex_families[beta + (0,)]
        assert [
            tuple(v + (0,) for v in s.vertices) for s in family
        ] == [s.vertices for s in wide_family]
        assert [s.barycentric for s in family] == [
            s.barycentric for s in wide_family
        ]


# ---------------------------------------------------------------------------
# support partition: the hull over squares and uncovered inner exponents
# ---------------------------------------------------------------------------

@st.composite
def _partition_forms(draw):
    """Sparse forms of degree 2, 4 or 6 in 2-4 variables: a few squares,
    then terms at midpoints of two squares (covered inner exponents),
    at any exponent of the degree (often uncovered), at ``(d-1) e_i +
    e_j`` (odd exponents that tend to be vertices), and at squares with a
    negative coefficient."""
    num_vars, half = draw(st.integers(2, 4)), draw(st.integers(1, 3))
    degree = 2 * half

    def composition(total):
        cuts = sorted(draw(st.lists(st.integers(0, total), min_size=num_vars - 1,
                                    max_size=num_vars - 1)))
        return tuple(b - a for a, b in zip([0, *cuts], [*cuts, total]))

    squares = [tuple(2 * v for v in composition(half))
               for _ in range(draw(st.integers(2, 5)))]
    terms = [(e, draw(st.integers(1, 3))) for e in squares]
    coefficient = st.sampled_from([-3, -1, 1, 2])
    kinds = st.sampled_from(["covered", "covered", "any", "odd", "negative"])
    for kind in draw(st.lists(kinds, min_size=2, max_size=5)):
        if kind == "covered":
            a, b = draw(st.sampled_from(squares)), draw(st.sampled_from(squares))
            exponent = tuple((x + y) // 2 for x, y in zip(a, b))
        elif kind == "any":
            exponent = composition(degree)
        elif kind == "odd":
            i, j = draw(st.permutations(range(num_vars)))[:2]
            exponent = tuple((degree - 1) * (k == i) + (k == j) for k in range(num_vars))
        else:
            exponent = draw(st.sampled_from(squares))
        terms.append((exponent, draw(coefficient)))
    f = make_form(num_vars, terms)
    assume(not f.is_zero)
    return f


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_partition_forms())
def test_partition_vertices_are_the_hull_of_the_support_hypothesis(f):
    _assert_partition_vertices_are_the_hull(f)


def _counted_partition(monkeypatch, f):
    """``support_partition(f)`` and the points of its hull LPs."""
    calls = []

    def counting(point, generators):
        calls.append(tuple(point))
        return exactlp.point_in_hull(point, generators)

    monkeypatch.setattr(geometry, "point_in_hull", counting)
    return support_partition(f), calls


def test_support_partition_runs_hull_lps_on_squares_and_uncovered_inner(monkeypatch):
    # p_family(9, 6) has 40 terms; its 16 inner exponents are all covered.
    f = p_family(9, 6)
    partition, calls = _counted_partition(monkeypatch, f)
    assert len(f.terms) == 40 and not partition.uncovered_inner
    assert len(calls) == 24 and set(calls) == partition.s_set
    # (3, 1) is uncovered and a vertex, so its LP stays.
    partition, calls = _counted_partition(monkeypatch, parse_form("x1^3*x2 + x2^4"))
    assert partition.uncovered_inner == {(3, 1)}
    assert sorted(calls) == [(0, 4), (3, 1)]
    assert partition.vertices == {(0, 4), (3, 1)}


# ---------------------------------------------------------------------------
# lattice points
# ---------------------------------------------------------------------------

def test_lattice_points_half_triangle():
    points = lattice_points([(2, 1, 0), (1, 2, 0), (0, 0, 3)])
    assert points == {(2, 1, 0), (1, 2, 0), (0, 0, 3), (1, 1, 1)}


def test_lattice_points_single_vertex():
    assert lattice_points([(3, 5)]) == {(3, 5)}


def test_lattice_points_motzkin_triangle_contains_center():
    points = lattice_points([(4, 2, 0), (2, 4, 0), (0, 0, 6)])
    assert (2, 2, 2) in points
    assert (3, 3, 0) in points


def test_lattice_points_rejects_vertices_of_another_length():
    # Used to return three points, reading only two coordinates of each.
    for vertices in ([(2, 0), (0, 2, 1)], [(0, 2, 1), (2, 0)]):
        with pytest.raises(DimensionMismatch):
            lattice_points(vertices)
        with pytest.raises(DimensionMismatch):
            polytope_lattice_points(vertices)


def test_hull_lattice_points_rejects_mixed_lengths_and_no_points():
    # Both used to raise IndexError.
    for points in ([(0, 0), (2,)], [(2,), (0, 0)], [(0, 0), (2, 0), (0, 2, 1)]):
        with pytest.raises(DimensionMismatch):
            hull_lattice_points(points)
    with pytest.raises(ValueError, match="empty point set"):
        hull_lattice_points([])


def test_affinely_independent_rejects_points_of_another_length():
    # The first used to return True, reading one coordinate of each point;
    # the second raised IndexError.
    for points in ([(0,), (1, 1)], [(0, 0, 0), (1, 1)]):
        with pytest.raises(DimensionMismatch):
            affinely_independent(points)


def test_lattice_points_rejects_dependent():
    with pytest.raises(AffinelyDependentInput):
        lattice_points([(0, 0), (1, 1), (2, 2)])


def test_lattice_points_matches_brute_force_scan():
    rng = random.Random(33)
    cases = 0
    while cases < 20:
        n = rng.randint(2, 3)
        count = rng.randint(1, n + 1)
        points = sorted(
            {tuple(rng.randint(0, 6) for _ in range(n)) for _ in range(count)}
        )
        if not affinely_independent(points):
            continue
        box = 1
        for i in range(n):
            box *= max(p[i] for p in points) - min(p[i] for p in points) + 1
        if box > 500:
            continue
        cases += 1
        assert lattice_points(points) == lattice_points_oracle(points)


def test_integer_candidates_are_the_box_points_in_the_degree_range():
    from sonckit.geometry import _integer_candidates

    rng = random.Random(41)
    for _ in range(60):
        n = rng.randint(1, 4)
        points = [
            tuple(Fraction(rng.randint(0, 12), rng.choice((1, 2))) for _ in range(n))
            for _ in range(rng.randint(1, 4))
        ]
        lows = [math.ceil(min(p[i] for p in points)) for i in range(n)]
        highs = [math.floor(max(p[i] for p in points)) for i in range(n)]
        degrees = [sum(p) for p in points]
        expected = {
            candidate
            for candidate in itertools.product(
                *(range(lo, hi + 1) for lo, hi in zip(lows, highs))
            )
            if min(degrees) <= sum(candidate) <= max(degrees)
        }
        candidates = _integer_candidates(points)
        assert len(candidates) == len(expected) and set(candidates) == expected, points


def test_integer_candidates_stop_at_the_cap():
    from sonckit.geometry import LATTICE_CANDIDATE_CAP as cap, _integer_candidates

    # The segment from (0, n) to (n, 0) holds n + 1 candidates.
    assert len(_integer_candidates([(0, cap - 1), (cap - 1, 0)])) == cap
    assert len(lattice_points([(0, cap - 1), (cap - 1, 0)])) == cap
    with pytest.raises(CapExceeded):
        _integer_candidates([(0, cap), (cap, 0)])
    with pytest.raises(CapExceeded):
        lattice_points([(0, cap), (cap, 0)])
    # Raised while the prefixes are built: this box has 10**40 points.
    with pytest.raises(CapExceeded):
        _integer_candidates([(0, 0, 10**20), (10**20, 10**20, 0)])


def test_lattice_points_of_a_nine_variable_simplex():
    # 3003 = C(14, 8) points of degree 6, out of 7**9 in the bounding box.
    vertices = [tuple(6 * (i == j) for i in range(9)) for j in range(9)]
    assert len(lattice_points(vertices)) == 3003


def test_polytope_lattice_points_handles_dependent_sets():
    square = [(0, 0), (2, 0), (0, 2), (2, 2)]
    assert polytope_lattice_points(square) == lattice_points_oracle(square)


def test_polytope_lattice_points_eliminates_a_simplex_once(monkeypatch):
    from sonckit import exactlp, geometry

    eliminations = []

    class CountingSolver(EchelonSolver):
        def __init__(self, rows):
            eliminations.append(rows)
            super().__init__(rows)

    def no_rank(rows):
        raise AssertionError("independence is read from the solver")

    monkeypatch.setattr(geometry, "EchelonSolver", CountingSolver)
    monkeypatch.setattr(geometry, "matrix_rank", no_rank)
    triangle = [(4, 2, 0), (2, 4, 0), (0, 0, 6)]
    assert polytope_lattice_points(triangle) == lattice_points(triangle)
    assert len(eliminations) == 2  # one per call


# ---------------------------------------------------------------------------
# half support
# ---------------------------------------------------------------------------

def test_half_newton_separator():
    assert half_newton_support(separator_ternary()) == {
        (2, 1, 0),
        (1, 2, 0),
        (1, 1, 1),
        (0, 0, 3),
    }


def test_half_newton_single_square():
    assert half_newton_support(parse_form("x1^2")) == {(1,)}


def test_half_newton_product_with_linear_square():
    x, y, z = (variable(3, i) for i in range(1, 4))
    linear = add_forms(x, y, z)
    f = mul_forms(mul_forms(linear, linear), motzkin())
    half = half_newton_support(f)
    # Known generating set of the halved polytope; (2,2,0) is a midpoint of
    # two generators, so compare hulls rather than raw vertex lists.
    generators = [(3, 1, 0), (2, 2, 0), (1, 0, 3), (1, 3, 0), (0, 1, 3), (0, 0, 4)]
    assert set(generators) <= half
    assert hull_vertices(half) == hull_vertices(generators)


def test_half_newton_odd_degree():
    with pytest.raises(OddDegree):
        half_newton_support(parse_form("x1^3"))


# ---------------------------------------------------------------------------
# nonnegativity precheck
# ---------------------------------------------------------------------------

def test_precheck_witnesses():
    f = parse_form("-1*x1^2*x2^2 + x1^4")
    assert psd_newton_precheck(f) == (2, 2)
    g = parse_form("x1^3*x2 + x1*x2^3")
    assert psd_newton_precheck(g) in {(3, 1), (1, 3)}


def test_precheck_passes_motzkin():
    assert psd_newton_precheck(motzkin()) is None


def test_precheck_zero_form():
    assert psd_newton_precheck(make_form(2, {}, zero_degree=2)) is None
