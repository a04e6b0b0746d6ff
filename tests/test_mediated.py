"""Midpoint sets, maximal mediated sets, and the circuit SOS decision."""

import ast
import pathlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fraction_oracle as oracle

from sonckit import mediated as mediated_module
from sonckit.errors import DimensionMismatch, OddPointInDelta
from sonckit.forms import make_form, parse_form
from sonckit.geometry import (
    affinely_independent,
    barycentric_coordinates,
    polytope_lattice_points,
)
from sonckit.mediated import (
    SimplexClass,
    maximal_mediated_set,
    mid_set,
    naive_mediated_fixpoint,
)
from sonckit.report import analyze
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


def _sos_verdicts(report):
    return [
        (v.conclusion, v.certificate)
        for v in report.verdicts
        if v.conclusion in ("SOS", "not SOS")
    ]


def test_circuit_is_sos_known_cases():
    for builder in (motzkin, motzkin_bcj, choi_lam_q1, choi_lam_q2):
        report = analyze(builder())
        assert _sos_verdicts(report) == [("not SOS", "exact")], builder
        assert report.circuit_sos is False


def test_circuit_is_sos_square_sums():
    report = analyze(parse_form("x1^4 + x2^4"))
    assert _sos_verdicts(report) == [("SOS", "exact")]
    assert report.circuit_sos is True and report.mediated is None


def test_circuit_is_sos_accepting_case():
    # x1^4 + x2^4 - x1^2*x2^2 is a nonnegative circuit whose inner exponent
    # (2,2) is the midpoint of the generators, hence a sum of squares.
    report = analyze(parse_form("x1^4 + x2^4 - x1^2*x2^2"))
    assert (2, 2) in report.mediated.star
    assert _sos_verdicts(report) == [("SOS", "exact")]
    assert report.circuit_sos is True


def _random_nonnegative_circuits(count, seed, shape=None):
    """``count`` nonnegative circuits in 2 or 3 variables of degree 4, 6
    or 8, or of the given ``shape`` (variables, degree): even vertices, an
    inner exponent in the relative interior with coefficient -1, and outer
    coefficients ``lambda_i * r_i`` with ``r_i >= 1``, so the circuit
    number is at least 1."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n, degree = shape or (rng.randint(2, 3), rng.choice((4, 6, 8)))
        vertices = set()
        for _ in range(rng.randint(2, n)):
            head = [2 * rng.randint(0, degree // 2) for _ in range(n - 1)]
            if sum(head) <= degree:
                vertices.add((*head, degree - sum(head)))
        vertices = sorted(vertices)
        if len(vertices) < 2 or not affinely_independent(vertices):
            continue
        interior = sorted(
            beta
            for beta in polytope_lattice_points(vertices)
            if beta not in vertices and barycentric_coordinates(beta, vertices)
        )
        if not interior:
            continue
        beta = rng.choice(interior)
        weights = barycentric_coordinates(beta, vertices)
        terms = {
            vertex: weight * rng.choice((1, 1, Fraction(3, 2), 2))
            for vertex, weight in zip(vertices, weights)
        }
        out.append(make_form(n, {**terms, beta: Fraction(-1)}))
    return out


def test_analyze_sos_verdict_matches_the_naive_fixpoint_on_random_circuits():
    verdicts = []
    for f in _random_nonnegative_circuits(60, seed=32):
        report = analyze(f)
        circuit = report.circuit
        assert report.circuit_nonnegative, f
        naive = naive_mediated_fixpoint(e for e, _ in circuit.outer)
        expected = "SOS" if circuit.inner[0] in naive else "not SOS"
        assert _sos_verdicts(report) == [(expected, "exact")], f
        verdicts.append(expected)
    assert set(verdicts) == {"SOS", "not SOS"}


@pytest.mark.parametrize("shape", [(2, 4), (2, 6), (2, 8), (3, 4), (3, 2), (4, 2), (5, 2)])
def test_nonnegative_circuits_in_the_hilbert_cases_are_sos(shape):
    # There nonnegative forms are SOS (Hilbert 1888), so the closure adds
    # SOS to every nonnegative circuit and raises if the mediated set says
    # "not SOS".
    for f in _random_nonnegative_circuits(25, seed=33, shape=shape):
        report = analyze(f)
        assert report.hilbert_case and report.circuit_nonnegative, f
        exact = {v.conclusion for v in report.verdicts if v.certificate == "exact"}
        assert {"nonnegative", "SONC", "SOS", "SOS+SONC"} <= exact, f


def test_mediated_module_imports_only_lattice_geometry():
    """Mediated sets are plain lattice geometry: within the package,
    ``mediated.py`` imports only ``errors``, ``forms`` and ``geometry``."""
    tree = ast.parse(pathlib.Path(mediated_module.__file__).read_text())
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            modules.add(f"sonckit.{node.module or ''}" if node.level else node.module)
        elif isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
    package = {module for module in modules if module.split(".")[0] == "sonckit"}
    assert package <= {"sonckit.errors", "sonckit.forms", "sonckit.geometry"}
