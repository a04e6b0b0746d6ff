"""Differential tests: ``geometry.enumerate_simplices`` against the
enumeration it replaced, kept in ``fraction_oracle``.

The current enumeration computes the affine rank of the candidate pool
once, tries subset sizes only up to that rank plus one, and lets the
barycentric solve reject dependent subsets.  The oracle tries every size
up to ``n + 1`` and gives each subset a rank test first.  Both must return
the same simplices in the same order with the same weights: on pools that
lose dimensions to zeros in ``beta``, on non-homogeneous point sets, on
duplicate candidates and single-point pools, and at the candidate cap.
Seeded loops and derandomised hypothesis generate the instances.
"""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fraction_oracle as oracle
from sonckit import geometry
from sonckit.errors import CapExceeded
from sonckit.geometry import DEFAULT_CANDIDATE_CAP, enumerate_simplices


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


def test_one_rank_and_no_independence_test(monkeypatch):
    ranks = []
    rank = geometry.matrix_rank

    def counting_rank(rows):
        ranks.append(rows)
        return rank(rows)

    def no_independence_test(points):
        raise AssertionError("the barycentric solve decides independence")

    monkeypatch.setattr(geometry, "matrix_rank", counting_rank)
    monkeypatch.setattr(geometry, "affinely_independent", no_independence_test)
    pool = _even_exponents(3, 6)
    simplices = enumerate_simplices((2, 2, 2), pool)
    assert len(simplices) > 1
    assert len(ranks) == 1
