"""Midpoint sets, maximal mediated sets, and the circuit SOS decision."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fraction_oracle as oracle

from sonckit.errors import DimensionMismatch, NotNonnegativeCircuit, OddPointInDelta
from sonckit.circuits import detect_circuit
from sonckit.forms import parse_form
from sonckit.geometry import affinely_independent, polytope_lattice_points
from sonckit.mediated import (
    SimplexClass,
    circuit_is_sos,
    maximal_mediated_set,
    mediated_set_of_circuit,
    mid_set,
    naive_mediated_fixpoint,
)
from sonckit.corpus import (
    choi_lam_q1,
    choi_lam_q2,
    motzkin,
    motzkin_bcj,
    motzkin_tilde,
)

MOTZKIN_VERTICES = [(4, 2, 0), (2, 4, 0), (0, 0, 6)]


def test_mid_set_motzkin_vertices():
    assert mid_set(MOTZKIN_VERTICES) == {(3, 3, 0), (2, 1, 3), (1, 2, 3)}


def test_mid_set_singleton_and_triangle():
    assert mid_set([(2, 4)]) == frozenset()
    assert mid_set([(0, 0), (2, 0), (0, 2)]) == {(1, 0), (0, 1), (1, 1)}


def test_mid_set_rejects_points_of_another_length():
    # The first used to return {(1,)}, pairing coordinates through zip; an
    # odd point of another length is rejected too.
    for points in ([(0, 0), (2,)], [(0, 0), (2, 0), (1, 1, 1)]):
        with pytest.raises(DimensionMismatch):
            mid_set(points)


def test_mid_set_ignores_odd_points():
    assert mid_set([(0, 0), (2, 0), (1, 1)]) == {(1, 0)}


def test_mms_motzkin_is_m_simplex():
    mediated = maximal_mediated_set(MOTZKIN_VERTICES)
    assert mediated.star == set(MOTZKIN_VERTICES) | {(3, 3, 0), (2, 1, 3), (1, 2, 3)}
    assert (2, 2, 2) not in mediated.star
    assert mediated.classification is SimplexClass.M_SIMPLEX


def test_mms_eliminates_the_generators_once(monkeypatch):
    from sonckit import exactlp, geometry

    eliminations = []

    class CountingSolver(exactlp.EchelonSolver):
        def __init__(self, rows):
            eliminations.append(rows)
            super().__init__(rows)

    def no_rank(rows):
        raise AssertionError("independence is read from the lattice-point solver")

    monkeypatch.setattr(geometry, "EchelonSolver", CountingSolver)
    monkeypatch.setattr(geometry, "matrix_rank", no_rank)
    mediated = maximal_mediated_set(MOTZKIN_VERTICES)
    assert mediated.classification is SimplexClass.M_SIMPLEX
    assert len(eliminations) == 1


def test_mms_of_dependent_generators_runs_lattice_points_once(monkeypatch):
    from sonckit import geometry, mediated as mediated_module

    calls = []
    original = geometry.lattice_points

    def counting_lattice_points(vertices):
        calls.append(vertices)
        return original(vertices)

    monkeypatch.setattr(geometry, "lattice_points", counting_lattice_points)
    monkeypatch.setattr(mediated_module, "lattice_points", counting_lattice_points)
    mediated = maximal_mediated_set([(0, 0), (2, 0), (0, 2), (2, 2)])
    assert len(calls) == 1
    assert mediated.classification is SimplexClass.NOT_SIMPLICIAL
    assert len(mediated.lattice) == 9


def test_mms_unit_triangle_is_h_simplex():
    mediated = maximal_mediated_set([(0, 0), (2, 0), (0, 2)])
    assert mediated.star == mediated.lattice
    assert len(mediated.star) == 6
    assert mediated.classification is SimplexClass.H_SIMPLEX


def test_mms_choi_lam_excludes_inner_points():
    q1 = maximal_mediated_set([(2, 2, 0, 0), (2, 0, 2, 0), (0, 2, 2, 0), (0, 0, 0, 4)])
    assert (1, 1, 1, 1) not in q1.star
    q2 = maximal_mediated_set([(4, 2, 0), (0, 4, 2), (2, 0, 4)])
    assert (2, 2, 2) not in q2.star


def test_mms_rejects_odd_generators():
    with pytest.raises(OddPointInDelta):
        maximal_mediated_set([(1, 1)])


def test_mms_invariant_chain():
    for delta in (
        MOTZKIN_VERTICES,
        [(0, 0), (2, 0), (0, 2)],
        [(2, 2, 0, 0), (2, 0, 2, 0), (0, 2, 2, 0), (0, 0, 0, 4)],
    ):
        mediated = maximal_mediated_set(delta)
        assert mediated.delta <= mediated.star <= mediated.lattice
        assert mediated.delta | mediated.mid_delta <= mediated.star
        # the result is itself mediated: every non-generator is a midpoint
        survivors_mid = mid_set(mediated.star)
        assert all(
            q in survivors_mid for q in mediated.star - mediated.delta
        )


def test_mms_non_simplicial_generators_allowed():
    from sonckit.geometry import hull_vertices

    # four coplanar even points are affinely dependent
    coplanar = [(4, 2, 0), (2, 4, 0), (0, 0, 6), (2, 2, 2)]
    mediated = maximal_mediated_set(coplanar)
    assert mediated.classification is SimplexClass.NOT_SIMPLICIAL
    assert set(coplanar) <= mediated.star
    hexagon = sorted(hull_vertices(motzkin_tilde().support))
    sheared = maximal_mediated_set(hexagon)
    assert sheared.classification is SimplexClass.NOT_SIMPLICIAL
    assert sheared.star  # still computed for non-simplicial generators


def _random_even_simplicial_sets(count, seed, max_entry=6, max_lattice=60, dependent=0):
    """``count`` affinely independent sets of even points, then
    ``dependent`` affinely dependent ones of 3 to n + 2 points."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(2, 4)
        size = rng.randint(2, min(n + 1, 4))
        points = sorted(
            {
                tuple(2 * rng.randint(0, max_entry // 2) for _ in range(n))
                for _ in range(size)
            }
        )
        if len(points) < 2 or not affinely_independent(points):
            continue
        if len(polytope_lattice_points(points)) > max_lattice:
            continue
        out.append(points)
    while len(out) < count + dependent:
        n = rng.randint(2, 4)
        points = sorted(
            {
                tuple(2 * rng.randint(0, max_entry // 2) for _ in range(n))
                for _ in range(rng.randint(3, n + 2))
            }
        )
        if len(points) < 3 or affinely_independent(points):
            continue
        if len(polytope_lattice_points(points)) > max_lattice:
            continue
        out.append(points)
    return out


def test_fixpoint_matches_naive_oracle_on_random_sets():
    simplicial = []
    for delta in _random_even_simplicial_sets(50, seed=51, dependent=25):
        mediated = maximal_mediated_set(delta)
        assert mediated.star == naive_mediated_fixpoint(delta), delta
        simplicial.append(mediated.classification is not SimplexClass.NOT_SIMPLICIAL)
        # Mediated, checked pair by pair: every non-generator is the
        # midpoint of two distinct even points of the set.
        even = [p for p in mediated.star if all(v % 2 == 0 for v in p)]
        for q in mediated.star - mediated.delta:
            assert any(
                s != t and all(a + b == 2 * c for a, b, c in zip(s, t, q))
                for s in even
                for t in even
            ), (delta, q)
    assert simplicial == [True] * 50 + [False] * 25


def test_witness_fixpoint_matches_round_oracle_seeded():
    for delta in _random_even_simplicial_sets(100, seed=53, max_lattice=120, dependent=25):
        assert maximal_mediated_set(delta).star == oracle.mediated_star_by_rounds(delta), delta


@settings(max_examples=100, deadline=None)
@given(
    st.integers(2, 4).flatmap(
        lambda n: st.lists(
            st.tuples(*[st.integers(0, 4).map(lambda v: 2 * v)] * n),
            min_size=1,
            max_size=n + 2,
            unique=True,
        )
    )
)
def test_witness_fixpoint_matches_round_oracle(delta):
    assert maximal_mediated_set(delta).star == oracle.mediated_star_by_rounds(delta)


def test_fixpoint_order_independence():
    for delta in _random_even_simplicial_sets(10, seed=52):
        reference = naive_mediated_fixpoint(delta)
        for order_seed in range(5):
            assert naive_mediated_fixpoint(delta, deletion_order_seed=order_seed) == reference


def test_circuit_is_sos_known_cases():
    for builder in (motzkin, motzkin_bcj, choi_lam_q1, choi_lam_q2):
        circuit = detect_circuit(builder())
        assert not circuit_is_sos(circuit, mediated_set_of_circuit(circuit)), builder


def test_circuit_is_sos_square_sums():
    circuit = detect_circuit(parse_form("x1^4 + x2^4"))
    assert circuit_is_sos(circuit, mediated_set_of_circuit(circuit))


def test_circuit_is_sos_accepting_case():
    # x^4 + y^4 + c*x^2*y^2 with small positive... use inner on the segment:
    # x1^4 + x2^4 - x1^2*x2^2 is a nonnegative circuit whose inner exponent
    # (2,2) is the midpoint of the generators, hence a sum of squares.
    circuit = detect_circuit(parse_form("x1^4 + x2^4 - x1^2*x2^2"))
    mediated = mediated_set_of_circuit(circuit)
    assert (2, 2) in mediated.star
    assert circuit_is_sos(circuit, mediated)


def test_circuit_is_sos_requires_nonnegative():
    bad = detect_circuit(parse_form("x1^4 + x2^4 - 3*x1^2*x2^2"))
    with pytest.raises(NotNonnegativeCircuit):
        circuit_is_sos(bad, maximal_mediated_set([(4, 0), (0, 4)]))


def test_circuit_is_sos_rejects_foreign_mediated_set():
    circuit = detect_circuit(motzkin())
    with pytest.raises(ValueError):
        circuit_is_sos(circuit, maximal_mediated_set([(0, 0, 0), (2, 0, 0)]))
