"""Differential tests: ``geometry.enumerate_simplices`` against the
enumeration it replaced, kept in ``fraction_oracle``.

The current enumeration walks the pool depth first: it grows prefixes of
points whose vectors ``p - beta`` are linearly independent, one
fraction-free pivot per prefix, and reads each covering simplex off a
later point whose vector lies in the prefix's span with all coefficients
negative.  It never extends a dependent prefix, and three rules prune the
rest:

* bitmasks: a point is tried only if the prefix, it and the points after
  it can still reach ``beta`` in every coordinate from below and above;
* pivot rows: each pivot row bounds the next point by its last later
  entry of the sign opposite to its pivot;
* the new row: an independent point is pivoted only if a later point has
  the sign opposite to it in its pivot row.

The oracle tries every subset of size up to ``n + 1`` with a box test, a
rank test and a ``Fraction`` barycentric solve.  Both must return the
same simplices in the same order with the same weights: on pools that
lose dimensions to zeros in ``beta``, on non-homogeneous point sets, on
duplicate candidates and single-point pools, at the candidate cap, and on
pools shaped like the benchmark's (5--6 variables, 8--16 even exponents of
one degree, some with three collinear points).  Seeded loops and
derandomised hypothesis generate the instances.  On larger pools, the
partitions of the benchmark's random forms, the corpus and
``p_family(n, 6)``, the oracle is the walk with the bitmask rule alone,
``fraction_oracle.walk_simplices``; a count of the walk's pivots pins how
much the sign rules prune.
"""

import functools
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fraction_oracle as oracle
from sonckit import geometry
from sonckit.corpus import FORM_BUILDERS, p_family
from sonckit.errors import CapExceeded
from sonckit.forms import make_form
from sonckit.geometry import DEFAULT_CANDIDATE_CAP, enumerate_simplices, support_partition
from test_geometry import _sparse_forms


def _even_exponents(num_vars, degree):
    return [
        e
        for e in itertools.product(range(0, degree + 1, 2), repeat=num_vars)
        if sum(e) == degree
    ]


def _assert_same(beta, candidates):
    expected = oracle.enumerate_simplices(beta, candidates)
    assert enumerate_simplices(beta, candidates) == expected, (beta, candidates)
    return expected


def _instance(rng):
    """A (beta, candidates) pair: homogeneous or not, with some zero
    coordinates shared by beta and part of the pool, with duplicates."""
    num_vars = rng.randint(1, 4)
    zeros = {i for i in range(num_vars) if rng.random() < 0.3}
    if rng.random() < 0.5:
        universe = _even_exponents(num_vars, 2 * rng.randint(1, 4))
    else:
        universe = list(itertools.product(range(0, 7, 2), repeat=num_vars))
    flat = [p for p in universe if all(p[i] == 0 for i in zeros)] or universe
    pool = rng.sample(flat, min(len(flat), rng.randint(1, 7)))
    pool += rng.sample(universe, min(len(universe), rng.randint(0, 4)))
    if rng.random() < 0.7:
        s, t = rng.choice(pool), rng.choice(pool)
        beta = tuple((a + b) // 2 for a, b in zip(s, t))
    else:
        beta = tuple(rng.randint(0, 6) for _ in range(num_vars))
    candidates = pool + [rng.choice(pool) for _ in range(rng.randint(0, 3))]
    rng.shuffle(candidates)
    return beta, candidates


def test_matches_oracle_on_seeded_instances():
    rng = random.Random(808)
    found = 0
    for _ in range(400):
        found += len(_assert_same(*_instance(rng)))
    assert found > 100  # the instances do cover beta


@settings(derandomize=True, max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_matches_oracle_hypothesis(seed):
    _assert_same(*_instance(random.Random(seed)))


@st.composite
def _zero_heavy(draw):
    """Pools where beta vanishes on most coordinates, so the pool loses
    those dimensions and its affine rank drops well below n."""
    num_vars = draw(st.integers(3, 5))
    support = draw(st.sets(st.integers(0, num_vars - 1), min_size=1, max_size=2))
    entry = st.sampled_from([0, 2, 4, 6])
    point = st.tuples(*[entry if i in support else st.just(0) for i in range(num_vars)])
    pool = draw(st.lists(point, min_size=1, max_size=8))
    noise = draw(st.lists(st.tuples(*[entry] * num_vars), max_size=4))
    s, t = draw(st.sampled_from(pool)), draw(st.sampled_from(pool))
    return tuple((a + b) // 2 for a, b in zip(s, t)), pool + noise


@settings(derandomize=True, max_examples=150, deadline=None)
@given(case=_zero_heavy())
def test_matches_oracle_when_zeros_drop_dimensions(case):
    _assert_same(*case)


@st.composite
def _boundary_beta(draw):
    """A pool whose coordinates are mostly 0 or one shared maximum, and a
    beta where the walk tests the bitmasks of dependent points first: a
    pool point, the floored midpoint of two points on a coordinate face
    of the pool's hull, or any point with one coordinate at the pool's
    minimum or maximum."""
    num_vars, top = draw(st.integers(2, 4)), draw(st.integers(2, 6))
    value = st.one_of(st.just(0), st.just(top), st.integers(0, top))
    pool = draw(st.lists(st.tuples(*[value] * num_vars), min_size=1, max_size=8))
    kind = draw(st.sampled_from(["member", "face", "extreme"]))
    if kind == "member":
        return kind, draw(st.sampled_from(pool)), pool
    i = draw(st.integers(0, num_vars - 1))
    end = draw(st.sampled_from([min(p[i] for p in pool), max(p[i] for p in pool)]))
    if kind == "face":
        face = st.sampled_from([p for p in pool if p[i] == end])
        s, t = draw(face), draw(face)
        return kind, tuple((a + b) // 2 for a, b in zip(s, t)), pool
    beta = list(draw(st.tuples(*[st.integers(0, top)] * num_vars)))
    beta[i] = end
    return kind, tuple(beta), pool


@settings(derandomize=True, max_examples=200, deadline=None)
@given(case=_boundary_beta())
def test_matches_oracle_with_beta_on_the_boundary_hypothesis(case):
    kind, beta, pool = case
    found = _assert_same(beta, pool)
    if kind == "member":
        assert found[0] == geometry.Simplex(vertices=(beta,), barycentric=(1,))


def test_single_point_and_duplicate_pools():
    assert _assert_same((2, 2), [(2, 2)]) != []
    assert _assert_same((2, 2), [(2, 2), (2, 2), (2, 2)]) != []
    assert _assert_same((1, 1), [(2, 0)] * 3) == []
    assert _assert_same((0, 3), [(0, 2), (0, 4), (0, 4), (2, 2)]) != []
    assert _assert_same((1, 1), []) == []


def test_non_homogeneous_pool_has_full_rank():
    pool = [(0, 0), (4, 0), (0, 4), (2, 2), (4, 4)]
    simplices = _assert_same((1, 1), pool)
    assert any(len(s.vertices) == 3 for s in simplices)


@pytest.mark.parametrize("num_vars, degree, beta", [(2, 44, (21, 23)), (3, 12, (3, 4, 5))])
def test_cap_boundary(num_vars, degree, beta):
    # beta has no zero entry, so no candidate is filtered out of the pool.
    pool = random.Random(degree).sample(
        _even_exponents(num_vars, degree), DEFAULT_CANDIDATE_CAP + 1
    )
    assert _assert_same(beta, pool[:-1])
    for enumerate_ in (enumerate_simplices, oracle.enumerate_simplices):
        with pytest.raises(CapExceeded):
            enumerate_(beta, pool)


def _benchmark_like(rng, collinear):
    """A (beta, candidates) pair like the benchmark's random forms: 8--16
    even exponents of one degree in 5 or 6 variables plus duplicates, and
    beta the midpoint of two of them or a lattice point of that degree.
    With ``collinear`` the pool holds three points on a line, so the walk
    meets a dependent prefix that it must not extend."""
    num_vars = rng.randint(5, 6)
    degree = rng.choice([4, 6, 8])
    universe = _even_exponents(num_vars, degree)
    pool = rng.sample(universe, rng.randint(8, min(16, len(universe))))
    if collinear:
        j = rng.randrange(num_vars)
        i = rng.choice([k for k in range(num_vars) if k != j])
        start = rng.choice([p for p in universe if p[j] >= 4])
        step = [2 * (k == i) - 2 * (k == j) for k in range(num_vars)]
        pool[:3] = [tuple(a + t * s for a, s in zip(start, step)) for t in range(3)]
    if rng.random() < 0.5:
        s, t = rng.sample(pool, 2)
        beta = tuple((a + b) // 2 for a, b in zip(s, t))
    else:
        beta = [0] * num_vars
        for _ in range(degree):
            beta[rng.randrange(num_vars)] += 1
        beta = tuple(beta)
    candidates = pool + rng.choices(pool, k=rng.randint(1, 4))
    rng.shuffle(candidates)
    return beta, candidates


def test_matches_oracle_on_benchmark_like_pools():
    rng = random.Random(1414)
    found = 0
    for k in range(24):
        found += len(_assert_same(*_benchmark_like(rng, collinear=k % 2 == 0)))
    assert found > 40


@settings(derandomize=True, max_examples=16, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), collinear=st.booleans())
def test_matches_oracle_on_benchmark_like_pools_hypothesis(seed, collinear):
    _assert_same(*_benchmark_like(random.Random(seed), collinear))


def test_collinear_points_close_no_simplex_through_their_line():
    # (4,4,0,0,0) is the midpoint of (8,0,0,0,0) and (0,8,0,0,0): the
    # prefix of the two endpoints spans it with coefficients of both signs.
    pool = [(8, 0, 0, 0, 0), (4, 4, 0, 0, 0), (0, 8, 0, 0, 0), (0, 0, 8, 0, 0),
            (0, 0, 0, 4, 4), (2, 2, 2, 2, 0), (4, 0, 0, 4, 0), (0, 4, 0, 0, 4)]
    assert _assert_same((3, 3, 1, 0, 1), pool + pool[:2])
    midpoint = _assert_same((4, 4, 0, 0, 0), pool)
    assert [s.vertices for s in midpoint[:2]] == [
        ((4, 4, 0, 0, 0),), ((0, 8, 0, 0, 0), (8, 0, 0, 0, 0))
    ]


def test_walk_needs_no_rank_test_and_no_solve(monkeypatch):
    """The walk decides independence and reads the weights off its own
    pivots: no rank, independence test, barycentric solve or
    ``EchelonSolver`` runs."""
    pool = _even_exponents(3, 6)
    expected = oracle.enumerate_simplices((2, 2, 2), pool)

    def forbidden(*args, **kwargs):
        raise AssertionError("the walk called a separate solver")

    for name in ("matrix_rank", "affinely_independent", "barycentric_coordinates",
                 "EchelonSolver"):
        monkeypatch.setattr(geometry, name, forbidden)
    assert len(expected) > 1
    assert enumerate_simplices((2, 2, 2), pool) == expected


# ---------------------------------------------------------------------------
# large pools: the walk before the sign rules as the oracle
# ---------------------------------------------------------------------------

@functools.cache
def _benchmark_random_forms(seed):
    """The random forms of the benchmark's ``analyze`` workload: 10--16
    squares in 4--6 variables, too many for the subset oracle."""
    return tuple(
        make_form(spec.num_vars, spec.terms) for spec in _sparse_forms().random_forms(seed)
    )


def _assert_partition_matches_walk(f):
    """Every family of ``support_partition(f)`` equals the walk with the
    bitmask rule alone: vertices, weights and order."""
    partition = support_partition(f)
    assert set(partition.simplex_families) == partition.i_set
    for beta, family in partition.simplex_families.items():
        assert family == tuple(oracle.walk_simplices(beta, partition.s_set)), (f, beta)


@pytest.mark.parametrize("seed", range(1, 31))
def test_partition_matches_bitmask_walk_on_benchmark_random_forms(seed):
    for f in _benchmark_random_forms(seed):
        _assert_partition_matches_walk(f)


def test_partition_matches_bitmask_walk_on_corpus_and_p_family():
    for build in FORM_BUILDERS.values():
        _assert_partition_matches_walk(build())
    for n in range(3, 13):
        _assert_partition_matches_walk(p_family(n, 6))


def _walk_pivots(monkeypatch, forms):
    """Pivots of the simplex walk over the partitions of ``forms``; the
    hull LPs pivot through ``exactlp`` and are not counted."""
    count = 0
    pivot = geometry._pivot

    def counting(*args):
        nonlocal count
        count += 1
        return pivot(*args)

    monkeypatch.setattr(geometry, "_pivot", counting)
    for f in forms:
        support_partition(f)
    return count


def test_sign_rules_prune_the_walk(monkeypatch):
    """The sign rules skip prefixes that the bitmask rule alone pivots:
    1234 pivots on the seed-7 random forms and 284 on the corpus without
    them.  The p_family walk was already tight and stays at 105."""
    assert _walk_pivots(monkeypatch, _benchmark_random_forms(7)) <= 600
    assert _walk_pivots(monkeypatch, [build() for build in FORM_BUILDERS.values()]) <= 190
    assert _walk_pivots(monkeypatch, [p_family(n, 6) for n in range(3, 10)]) == 105
