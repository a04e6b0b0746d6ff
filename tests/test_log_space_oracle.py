"""Differential tests: the log-space helpers of ``sonckit.circuits``
against the numpy oracle in ``numpy_oracle``.

``ZeroLocus.sample_solutions`` and ``negative_witness`` now take their
linear algebra from the exact ``EchelonSolver``, the samples draw from
``random.Random``, and ``logs_affinely_independent`` decides rank by a
pivoted modified Gram--Schmidt.  The draws differ from numpy's, so the
tests compare what must agree: every sample solves the log system, the
null-space bases span the same space, the rank verdicts match wherever
the singular values lie clear of the tolerance, and a negative witness is
found wherever the oracle finds one.  The circuits are the corpus
boundary circuits, their positive diagonal rescalings, and generated
ones; hypothesis runs derandomised.
"""

import itertools
import math
import random
from fractions import Fraction

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import numpy_oracle as oracle
from sonckit.circuits import (
    Circuit,
    CircuitKind,
    ZeroLocus,
    decide_circuit_nonnegativity,
    detect_circuit,
    logs_affinely_independent,
    negative_witness,
    zero_locus,
)
from sonckit.corpus import FORM_BUILDERS
from sonckit.exactlp import matrix_rank
from sonckit.forms import evaluate, make_form, parse_form
from sonckit.geometry import affinely_independent

_BOUNDARY_CORPUS = ("motzkin", "motzkin_bcj_boundary", "choi_lam_q1", "choi_lam_q2")


def _rescaled(f, d):
    """``f(d * x)`` for a positive rational vector ``d``."""
    return make_form(
        f.num_vars,
        {
            e: c * math.prod(Fraction(s) ** k for s, k in zip(d, e))
            for e, c in f.terms.items()
        },
        name=f.name,
    )


def _corpus_loci(seed):
    """Zero loci of the corpus boundary circuits, as given and under a
    seeded positive diagonal rescaling (which keeps them boundary)."""
    rng = random.Random(seed)
    loci = []
    for name in _BOUNDARY_CORPUS:
        f = FORM_BUILDERS[name]()
        d = [Fraction(rng.randint(1, 5), rng.randint(1, 5)) for _ in range(f.num_vars)]
        for form in (f, _rescaled(f, d)):
            locus = zero_locus(detect_circuit(form))
            assert isinstance(locus, ZeroLocus)
            loci.append(locus)
    return loci


def _assert_samples_solve(locus, count=40, seed=0):
    samples = locus.sample_solutions(count, seed=seed)
    assert len(samples) == count
    assert samples == locus.sample_solutions(count, seed=seed)
    rhs = locus.rhs_floats()
    for y in samples:
        assert isinstance(y, tuple) and len(y) == len(locus.matrix[0])
        for row, target in zip(locus.matrix, rhs):
            terms = [a * v for a, v in zip(row, y)]
            scale = max(1.0, abs(target), *map(abs, terms))
            assert abs(math.fsum(terms) - target) <= 1e-9 * scale


def _assert_solution_space_matches(locus):
    particular, basis = locus._solution_space()
    reference = oracle.null_basis(locus)
    assert len(basis) == reference.shape[0] == locus.dimension
    matrix = np.array(locus.matrix, dtype=float)
    rhs = np.array(locus.rhs_floats())
    lstsq, *_ = np.linalg.lstsq(matrix, rhs, rcond=None)
    assert np.allclose(particular, lstsq, rtol=0, atol=1e-9 * max(1.0, np.abs(lstsq).max()))
    if basis:
        ours = np.array(basis)
        assert np.allclose(ours @ ours.T, np.eye(len(basis)), rtol=0, atol=1e-12)
        assert np.allclose(matrix @ ours.T, 0, rtol=0, atol=1e-9)
        # Both bases are orthonormal: equal projectors mean equal spans.
        assert np.allclose(ours.T @ ours, reference.T @ reference, rtol=0, atol=1e-9)


def _oracle_samples_solve(locus):
    """The oracle's own samples pass the same residual test, so the
    tolerance is one numpy meets too."""
    rhs = locus.rhs_floats()
    for y in oracle.sample_solutions(locus, 10, seed=1):
        for row, target in zip(locus.matrix, rhs):
            terms = [a * float(v) for a, v in zip(row, y)]
            scale = max(1.0, abs(target), *map(abs, terms))
            assert abs(math.fsum(terms) - target) <= 1e-9 * scale


def test_corpus_boundary_loci_match_oracle():
    for seed in range(5):
        for locus in _corpus_loci(seed):
            _oracle_samples_solve(locus)
            _assert_samples_solve(locus, seed=seed)
            _assert_solution_space_matches(locus)


def test_boundary_locus_beyond_the_float_range_matches_oracle():
    """The outer coefficients' ratio 10^800 is no float, but its logarithm
    is: the samples lie near +-460 and solve the system."""
    f = parse_form(f"{10**400}*x1^2 + 1/{10**400}*x2^2 - 2*x1*x2")
    locus = zero_locus(detect_circuit(f))
    assert isinstance(locus, ZeroLocus) and locus.dimension == 1
    assert math.isclose(abs(locus.rhs_floats()[0]), 800 * math.log(10))
    _oracle_samples_solve(locus)
    _assert_samples_solve(locus)
    _assert_solution_space_matches(locus)
    for y in locus.sample_solutions(10):
        assert all(math.isclose(abs(v), 200 * math.log(10), rel_tol=0.05) for v in y)


def test_sample_solutions_returns_float_tuples():
    locus = zero_locus(detect_circuit(FORM_BUILDERS["motzkin"]()))
    samples = locus.sample_solutions(3, seed=7)
    assert all(type(v) is float for y in samples for v in y)
    assert locus.sample_solutions(0) == []


# ---------------------------------------------------------------------------
# generated circuits
# ---------------------------------------------------------------------------

@st.composite
def _circuit_parts(draw):
    """Even affinely independent vertices, positive integer weights, the
    inner exponent at their weighted mean (everything scaled up until it
    is integral), and a positive rational rescaling ``d``."""
    n = draw(st.integers(2, 4))
    half_degree = draw(st.integers(1, 3))
    compositions = [
        c for c in itertools.product(range(half_degree + 1), repeat=n) if sum(c) == half_degree
    ]
    k = draw(st.integers(2, min(n, len(compositions))))
    halves = draw(st.lists(st.sampled_from(compositions), min_size=k, max_size=k, unique=True))
    assume(affinely_independent(halves))
    weights = draw(st.lists(st.integers(1, 4), min_size=k, max_size=k))
    total = sum(weights)
    sums = [sum(2 * w * a[j] for w, a in zip(weights, halves)) for j in range(n)]
    scale = total // math.gcd(total, *sums)
    vertices = [tuple(2 * scale * v for v in a) for a in halves]
    beta = tuple(s * scale // total for s in sums)
    lambdas = [Fraction(w, total) for w in weights]
    d = [
        Fraction(draw(st.integers(1, 4)), draw(st.integers(1, 4))) for _ in range(n)
    ]
    return vertices, lambdas, beta, d


def _circuit(parts, inner_factor):
    """``sum lambda_i x^alpha_i + inner_factor * x^beta`` rescaled by ``d``:
    a boundary circuit for ``inner_factor = -1``, whose circuit number is 1
    before the rescaling."""
    vertices, lambdas, beta, d = parts
    terms = dict(zip(vertices, lambdas))
    terms[beta] = Fraction(inner_factor)
    circuit = detect_circuit(_rescaled(make_form(len(beta), terms, name="generated"), d))
    assert isinstance(circuit, Circuit) and circuit.kind is CircuitKind.PROPER
    return circuit


@settings(derandomize=True, max_examples=150, deadline=None)
@given(parts=_circuit_parts())
def test_generated_boundary_loci_match_oracle(parts):
    locus = zero_locus(_circuit(parts, -1))
    assert isinstance(locus, ZeroLocus)
    _assert_samples_solve(locus, count=10, seed=3)
    _assert_solution_space_matches(locus)


@st.composite
def _loci(draw):
    """Full-row-rank integer systems with arbitrary positive log ratios."""
    ncols = draw(st.integers(1, 5))
    nrows = draw(st.integers(1, ncols))
    entry = st.integers(-6, 6)
    rows = draw(
        st.lists(
            st.tuples(*[entry] * ncols), min_size=nrows, max_size=nrows
        )
    )
    assume(matrix_rank(rows) == nrows)
    ratio = st.fractions(min_value=Fraction(1, 20), max_value=20).filter(bool)
    rhs = draw(st.lists(st.tuples(ratio, ratio), min_size=nrows, max_size=nrows))
    return ZeroLocus(matrix=tuple(rows), rhs_symbolic=tuple(rhs), dimension=ncols - nrows)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(locus=_loci())
def test_generated_systems_match_oracle(locus):
    _assert_samples_solve(locus, count=10, seed=5)
    _assert_solution_space_matches(locus)


# ---------------------------------------------------------------------------
# negative witnesses
# ---------------------------------------------------------------------------

def _assert_witness_where_oracle_has_one(circuit):
    assert not decide_circuit_nonnegativity(circuit).is_nonnegative
    try:
        oracle.negative_witness(circuit)
    except ArithmeticError:
        return False
    witness = negative_witness(circuit)
    assert evaluate(circuit.form, witness) < 0
    assert negative_witness(circuit) == witness
    return True


def test_negative_witness_on_corpus_like_circuits():
    forms = [
        "x1^4*x2^2 + x1^2*x2^4 - 4*x1^2*x2^2*x3^2 + x3^6",
        "x1^4 + x2^4 + 3*x1^3*x2",
    ]
    circuits = [detect_circuit(parse_form(text)) for text in forms]
    rng = random.Random(11)
    for name in _BOUNDARY_CORPUS:
        f = FORM_BUILDERS[name]()
        beta = next(e for e, c in f.terms.items() if c < 0)
        for factor in (Fraction(1001, 1000), Fraction(2)):
            pushed = make_form(
                f.num_vars,
                {e: c * factor if e == beta else c for e, c in f.terms.items()},
            )
            d = [Fraction(rng.randint(1, 5), rng.randint(1, 5)) for _ in range(f.num_vars)]
            circuits += [detect_circuit(pushed), detect_circuit(_rescaled(pushed, d))]
    assert all(_assert_witness_where_oracle_has_one(c) for c in circuits)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    parts=_circuit_parts(),
    excess=st.sampled_from([Fraction(1, 1000), Fraction(1, 10), Fraction(1), Fraction(5)]),
    flip=st.booleans(),
)
def test_negative_witness_matches_oracle_on_generated_circuits(parts, excess, flip):
    beta = parts[2]
    # A positive inner term needs an odd entry, or it is a monomial square.
    sign = 1 if flip and any(e % 2 for e in beta) else -1
    _assert_witness_where_oracle_has_one(_circuit(parts, sign * (1 + excess)))


# ---------------------------------------------------------------------------
# rank of log images
# ---------------------------------------------------------------------------

def _log_singular_values(points):
    logs = np.log(np.abs(np.array(points, dtype=float)))
    return np.linalg.svd(logs[1:] - logs[0], compute_uv=False)


def _clear_of_tolerance(points):
    """Whether the oracle's singular values leave no doubt about the
    rank: nonzero ones above 1e-6, zero ones below 1e-12."""
    if len(points) < 2 or len(points) > len(points[0]) + 1:
        return True
    return all(s > 1e-6 or s < 1e-12 for s in _log_singular_values(points))


def _point_set(rng_float, n, count, dependent, signs):
    """Points with the given coordinate signs whose log images are random,
    or, when ``dependent``, have the last an affine combination of the
    others (or a repeat of the first when there is only one other)."""
    logs = [[rng_float() for _ in range(n)] for _ in range(count)]
    if dependent and count >= 2:
        others = logs[:-1]
        coefficients = [rng_float() / 5 for _ in others[1:]]
        coefficients.insert(0, 1 - sum(coefficients))
        logs[-1] = [sum(c * row[j] for c, row in zip(coefficients, others)) for j in range(n)]
    return [
        tuple(s * math.exp(v) for s, v in zip(sign_row, row)) for sign_row, row in zip(signs, logs)
    ]


def test_logs_affinely_independent_matches_oracle_seeded():
    rng = random.Random(2024)
    verdicts = {True: 0, False: 0}
    for _ in range(600):
        n = rng.randint(1, 5)
        count = rng.randint(1, n + 2)
        signs = [[rng.choice((-1, 1)) for _ in range(n)] for _ in range(count)]
        points = _point_set(
            lambda: rng.uniform(-3, 3), n, count, rng.random() < 0.5, signs
        )
        if not _clear_of_tolerance(points):
            continue
        expected = oracle.logs_affinely_independent(points)
        assert logs_affinely_independent(points) == expected
        verdicts[expected] += 1
    assert min(verdicts.values()) >= 100


@st.composite
def _log_point_sets(draw):
    n = draw(st.integers(1, 5))
    count = draw(st.integers(1, n + 2))
    value = st.floats(-5, 5, allow_nan=False, allow_subnormal=False)
    signs = draw(
        st.lists(
            st.lists(st.sampled_from((-1, 1)), min_size=n, max_size=n),
            min_size=count,
            max_size=count,
        )
    )
    return _point_set(lambda: draw(value), n, count, draw(st.booleans()), signs)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(points=_log_point_sets())
def test_logs_affinely_independent_matches_oracle_hypothesis(points):
    assume(_clear_of_tolerance(points))
    assert logs_affinely_independent(points) == oracle.logs_affinely_independent(points)


def test_logs_affinely_independent_corpus_example():
    points = [(1.0, -2.0, 1.0), (-2.0, 1.0, 1.0), (math.e,) * 3, (1.0, 1.0, 1.0)]
    assert logs_affinely_independent(points) is oracle.logs_affinely_independent(points)
    assert logs_affinely_independent(points) is True


def test_logs_affinely_independent_pivots_past_a_nearly_parallel_row():
    """Log images 0, v1, 1.1 v1 + 1e-7 u and 2 v1 + 30 u (u a unit vector
    orthogonal to v1): the last is in the span of the others, and the SVD
    says so (singular values 30, 0.19, 2e-15).  Without pivoting, Gram--
    Schmidt would take the third row's rounded direction as exact and
    leave a residual of 2.4e-8 on the fourth, above the tolerance."""
    points = [
        (1.0, 1.0, 1.0, 1.0),
        (1.1051709180756477, 1.030454533953517, 1.0725081812542165, 1.0),
        (1.1162780927098328, 1.0335505143698858, 1.0800420567760227, 1.0000000932400326),
        (482.96837762573097, 0.0007776629301525951, 0.004947677048788972, 1406335475547.6338),
    ]
    singular = _log_singular_values(points)
    assert singular[1] > 1e-6 and singular[2] < 1e-12
    assert oracle.logs_affinely_independent(points) is False
    assert logs_affinely_independent(points) is False
