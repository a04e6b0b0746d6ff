"""Circuit detection, circuit numbers, nonnegativity, zero loci."""

import math
import random
import time
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fraction_oracle as oracle

from sonckit.errors import (
    DimensionMismatch,
    MonomialSquareSumHasNoCircuitNumber,
    NotNonnegativeCircuit,
    ZeroCoordinate,
    ZeroFormInput,
)
from sonckit.circuits import (
    Circuit,
    CircuitKind,
    CircuitNumber,
    Comparison,
    NotACircuit,
    ZeroLocus,
    ZeroLocusStatus,
    circuit_number,
    compare_circuit_number,
    decide_circuit_nonnegativity,
    detect_circuit,
    logs_affinely_independent,
    negative_witness,
    zero_locus,
)
from sonckit import corpus
from sonckit.forms import (
    evaluate,
    evaluate_many,
    make_form,
    parse_form,
    scale_form,
    substitute_linear,
)
from sonckit.report import analyze
from sonckit.corpus import (
    choi_lam_q1,
    choi_lam_q2,
    motzkin,
    motzkin_bcj,
    motzkin_bcj_boundary,
    robinson1,
)


def test_detect_motzkin():
    circuit = detect_circuit(motzkin())
    assert isinstance(circuit, Circuit)
    assert circuit.kind is CircuitKind.PROPER
    assert circuit.inner == ((2, 2, 2), Fraction(-3))
    assert circuit.barycentric == (Fraction(1, 3),) * 3


def test_detect_monomial_square_sum():
    circuit = detect_circuit(parse_form("x1^4 + x2^4"))
    assert isinstance(circuit, Circuit)
    assert circuit.kind is CircuitKind.MONOMIAL_SQUARE_SUM
    assert circuit.inner is None
    assert circuit.barycentric == ()


def test_detect_robinson_fails_on_inner_count():
    result = detect_circuit(robinson1())
    assert isinstance(result, NotACircuit)
    assert result.reason == "multiple_inner_exponents"


def test_detect_square_off_vertex_set():
    result = detect_circuit(parse_form("x1^4 + x1^2*x2^2 + x2^4"))
    assert isinstance(result, NotACircuit)
    assert result.reason == "vertex_square_mismatch"


def test_detect_inner_on_proper_face_rejected():
    # (2,2,0) sits on an edge of the triangle, not in its relative interior
    result = detect_circuit(parse_form("x1^4 + x2^4 + x3^4 - x1^2*x2^2"))
    assert isinstance(result, NotACircuit)
    assert result.reason == "inner_not_in_relint"


def test_detect_non_square_vertex_rejected():
    result = detect_circuit(parse_form("x1^4 + 1/2*x1^3*x2"))
    assert isinstance(result, NotACircuit)
    assert result.reason == "vertex_square_mismatch"


def test_detect_affinely_dependent_vertices():
    # The four squares form a parallelogram; (1,1,1,1) is its centre.
    squares = "x1^2*x2^2 + x2^2*x3^2 + x3^2*x4^2 + x4^2*x1^2"
    for text in (squares, squares + " - x1*x2*x3*x4"):
        result = detect_circuit(parse_form(text))
        assert isinstance(result, NotACircuit)
        assert result.reason == "affinely_dependent_vertices"


def test_detect_proper_circuit_takes_no_rank_test(monkeypatch):
    from sonckit import circuits, exactlp, geometry

    def no_rank(rows):
        raise AssertionError("independence is read from the barycentric solve")

    for module in (circuits, exactlp, geometry):
        monkeypatch.setattr(module, "matrix_rank", no_rank)
    circuit = detect_circuit(motzkin())
    assert isinstance(circuit, Circuit) and circuit.kind is CircuitKind.PROPER


# ---------------------------------------------------------------------------
# the detector against the hull-first oracle
# ---------------------------------------------------------------------------

_OUTCOMES = {
    "MonomialSquareSum",
    "ProperCircuit",
    "multiple_inner_exponents",
    "vertex_square_mismatch",
    "affinely_dependent_vertices",
    "inner_not_in_relint",
}


def _outcome(result):
    return result.kind.value if isinstance(result, Circuit) else result.reason


def _exponent(cuts, n, degree, even):
    """The exponent of ``n`` entries summing to ``degree``, split at the
    first ``n - 1`` of ``cuts`` clipped to the total; an even exponent is
    twice a split of ``degree // 2``."""
    total = degree // 2 if even else degree
    cuts = sorted(min(c, total) for c in cuts[: n - 1])
    parts = [b - a for a, b in zip([0, *cuts], [*cuts, total])]
    return tuple(2 * p for p in parts) if even else tuple(parts)


def _candidate(n, degree, squares, others):
    """A form of ``n`` variables with the squares ``squares``, given as
    ``(cuts, coefficient)`` with a positive coefficient, and the terms
    ``others``, given as ``(cuts, even, coefficient)``."""
    terms = {_exponent(cuts, n, degree, True): coeff for cuts, coeff in squares}
    for cuts, even, coeff in others:
        terms[_exponent(cuts, n, degree, even)] = coeff
    return make_form(n, terms, zero_degree=degree)


def _random_candidate(rng):
    """Mostly at most one inner exponent, so that every outcome occurs."""
    n = rng.randint(1, 4)
    degree = rng.choice((2, 4, 6))

    def cuts():
        return [rng.randint(0, degree) for _ in range(n - 1)]

    def coeff():
        return Fraction(rng.randint(1, 9), rng.randint(1, 4))

    squares = [(cuts(), coeff()) for _ in range(rng.randint(1, n + 2))]
    others = [
        (cuts(), rng.random() < 0.2, rng.choice((-1, 1)) * coeff())
        for _ in range(rng.choice((0, 1, 1, 1, 2)))
    ]
    return _candidate(n, degree, squares, others)


def test_detect_circuit_matches_the_hull_first_oracle_on_random_forms():
    rng = random.Random(2026)
    seen = set()
    for _ in range(5000):
        f = _random_candidate(rng)
        result = detect_circuit(f)
        assert result == oracle.detect_circuit(f), f
        seen.add(_outcome(result))
    assert seen == _OUTCOMES


@st.composite
def _candidates(draw):
    n = draw(st.integers(1, 4))
    degree = draw(st.sampled_from((2, 4, 6)))
    cuts = st.lists(st.integers(0, degree), min_size=n - 1, max_size=n - 1)
    coeffs = st.fractions(min_value=Fraction(1, 4), max_value=9, max_denominator=4)
    squares = draw(st.lists(st.tuples(cuts, coeffs), min_size=1, max_size=n + 2))
    signed = st.builds(lambda c, sign: sign * c, coeffs, st.sampled_from((-1, 1)))
    others = draw(st.lists(st.tuples(cuts, st.booleans(), signed), max_size=2))
    return _candidate(n, degree, squares, others)


@settings(max_examples=300)
@given(_candidates())
def test_detect_circuit_matches_the_hull_first_oracle_hypothesis(f):
    assert detect_circuit(f) == oracle.detect_circuit(f)


def test_detect_zero_form():
    with pytest.raises(ZeroFormInput):
        detect_circuit(make_form(2, {}, zero_degree=2))


def test_circuit_number_motzkin():
    theta = circuit_number(detect_circuit(motzkin()))
    assert theta.factor_bases == (Fraction(3),) * 3
    assert theta.exponents == (Fraction(1, 3),) * 3
    assert abs(theta.float_value - 3.0) < 1e-12
    assert compare_circuit_number(theta, 3) is Comparison.EQUAL


def test_circuit_number_undefined_for_square_sums():
    with pytest.raises(MonomialSquareSumHasNoCircuitNumber):
        circuit_number(detect_circuit(parse_form("x1^4 + x2^4")))


def _one_parameter_circuit(nu: Fraction) -> Circuit:
    """4*x^4*z^4 + (nu/4)*y^4*z^4 - 2*x^2*y^2*z^4 from the one-parameter
    family of the squared-trinomial instance."""
    f = make_form(
        3,
        {
            (4, 0, 4): Fraction(4),
            (0, 4, 4): Fraction(1, 4) * nu,
            (2, 2, 4): Fraction(-2),
        },
    )
    circuit = detect_circuit(f)
    assert isinstance(circuit, Circuit)
    return circuit


def test_one_parameter_family_circuit_number():
    theta = circuit_number(_one_parameter_circuit(Fraction(1, 4)))
    # 2 * sqrt(1/4) = 1, decided exactly
    assert compare_circuit_number(theta, 1) is Comparison.EQUAL
    assert compare_circuit_number(theta, 2) is Comparison.GREATER
    theta_half = circuit_number(_one_parameter_circuit(Fraction(1, 2)))
    # theta = sqrt(2): strictly between 1 and 2
    assert compare_circuit_number(theta_half, 1) is Comparison.LESS
    assert compare_circuit_number(theta_half, 2) is Comparison.GREATER


def test_circuit_number_scales_linearly():
    theta_double = circuit_number(detect_circuit(scale_form(motzkin(), 2)))
    assert compare_circuit_number(theta_double, 6) is Comparison.EQUAL


def test_compare_zero_is_less():
    theta = circuit_number(detect_circuit(motzkin()))
    assert compare_circuit_number(theta, 0) is Comparison.LESS
    with pytest.raises(ValueError):
        compare_circuit_number(theta, Fraction(-1))


def test_exact_and_float_comparison_agree_away_from_ties():
    theta = circuit_number(detect_circuit(motzkin()))
    rng = random.Random(41)
    for _ in range(200):
        t = Fraction(rng.randint(1, 600), rng.randint(1, 120))
        gap = abs(math.log(float(t)) - math.log(theta.float_value))
        if gap <= 1e-6:
            continue
        exact = compare_circuit_number(theta, t)
        by_float = (
            Comparison.LESS if float(t) < theta.float_value else Comparison.GREATER
        )
        assert exact is by_float


def _compare_by_powers(theta, t):
    """The trichotomy by powers alone: ``t`` and the circuit number raised
    to the least common multiple of the weight denominators."""
    lcm = math.lcm(*(weight.denominator for weight in theta.exponents))
    lhs = Fraction(t) ** lcm
    rhs = math.prod(
        base ** int(weight * lcm) for base, weight in zip(theta.factor_bases, theta.exponents)
    )
    return Comparison.LESS if lhs < rhs else Comparison.EQUAL if lhs == rhs else Comparison.GREATER


def _random_comparison(rng):
    """A circuit number of 1-4 positive bases and weights summing to one,
    with a ``t`` at its bracket's ends, just past them, inside the bracket,
    or, for bases raised to the weights' common denominator, at the
    circuit number itself."""
    parts = [rng.randint(1, 6) for _ in range(rng.randint(1, 4))]
    weights = tuple(Fraction(part, sum(parts)) for part in parts)
    if rng.random() < 0.2:
        roots = [Fraction(rng.randint(1, 4), rng.randint(1, 3)) for _ in weights]
        bases = tuple(root ** sum(parts) for root in roots)
        theta = math.prod(root ** part for root, part in zip(roots, parts))
        return CircuitNumber(bases, weights, None), theta
    bases = tuple(Fraction(rng.randint(1, 30), rng.randint(1, 6)) for _ in weights)
    arithmetic = sum(w * b for w, b in zip(weights, bases))
    harmonic = 1 / sum(w / b for w, b in zip(weights, bases))
    nudge = Fraction(1, 10**rng.randint(1, 12))
    inside = harmonic + (arithmetic - harmonic) * Fraction(rng.randint(0, 1000), 1000)
    t = rng.choice([
        arithmetic, harmonic, arithmetic + nudge, max(harmonic - nudge, Fraction(0)), inside,
    ])
    return CircuitNumber(bases, weights, None), t


def test_compare_circuit_number_matches_the_power_path_on_random_cases():
    rng = random.Random(30)
    seen = set()
    for _ in range(3000):
        theta, t = _random_comparison(rng)
        comparison = compare_circuit_number(theta, t)
        assert comparison is _compare_by_powers(theta, t), (theta, t)
        seen.add(comparison)
    assert seen == set(Comparison)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(1, 6),
            st.builds(Fraction, st.integers(1, 30), st.integers(1, 6)),
        ),
        min_size=1,
        max_size=4,
    ),
    st.integers(0, 12),
)
def test_compare_circuit_number_matches_the_power_path_at_near_ties(parts, k):
    # t is the float circuit number with its denominator limited to 10^k:
    # within about 10^-2k of it, or equal to it when the number is rational.
    weights = tuple(Fraction(part, sum(p for p, _ in parts)) for part, _ in parts)
    bases = tuple(base for _, base in parts)
    value = math.exp(sum(float(w) * math.log(b) for w, b in zip(weights, bases)))
    theta = CircuitNumber(bases, weights, value)
    t = Fraction(value).limit_denominator(10**k)
    assert compare_circuit_number(theta, t) is _compare_by_powers(theta, t)


@pytest.mark.parametrize("digits", [40, 100])
def test_compare_circuit_number_refines_the_logarithms_at_a_close_tie(digits):
    # 162^(1/3) to `digits` digits differs from it by about 10^-digits,
    # beyond the first 32-digit logarithms.
    theta = CircuitNumber((Fraction(6), Fraction(3), Fraction(9)), (Fraction(1, 3),) * 3, None)
    with localcontext() as context:
        context.prec = digits
        root = Decimal(162) ** (Decimal(1) / 3)
        near = [Fraction(root), Fraction(root.next_plus()), Fraction(root.next_minus())]
    for t in near:
        assert compare_circuit_number(theta, t) is _compare_by_powers(theta, t)


def test_compare_circuit_number_outside_the_bracket_takes_no_power():
    # A huge lcm of the weight denominators: 2 * 10^6 here.
    theta = circuit_number(
        detect_circuit(parse_form("x1^2000000 + x2^2000000 - x1*x2^1999999"))
    )
    start = time.perf_counter()
    assert compare_circuit_number(theta, 3) is Comparison.GREATER
    assert compare_circuit_number(theta, Fraction(1, 2)) is Comparison.LESS
    assert time.perf_counter() - start < 1.0


def test_decide_nonnegativity():
    verdict = decide_circuit_nonnegativity(detect_circuit(motzkin()))
    assert verdict.is_nonnegative and verdict.boundary
    square_sum = decide_circuit_nonnegativity(detect_circuit(parse_form("x1^4 + x2^4")))
    assert square_sum.is_nonnegative and not square_sum.boundary
    strict = decide_circuit_nonnegativity(detect_circuit(motzkin_bcj()))
    assert strict.is_nonnegative and not strict.boundary


def test_decide_nonnegativity_failure_and_witness():
    bad = parse_form("x1^4*x2^2 + x1^2*x2^4 - 4*x1^2*x2^2*x3^2 + x3^6")
    circuit = detect_circuit(bad)
    verdict = decide_circuit_nonnegativity(circuit)
    assert not verdict.is_nonnegative
    assert evaluate(bad, (1, 1, 1)) == -1
    witness = negative_witness(circuit)
    assert evaluate(bad, witness) < 0


def test_negative_witness_with_positive_inner():
    bad = parse_form("x1^4 + x2^4 + 3*x1^3*x2")
    circuit = detect_circuit(bad)
    assert not decide_circuit_nonnegativity(circuit).is_nonnegative
    witness = negative_witness(circuit)
    assert evaluate(bad, witness) < 0


@pytest.mark.parametrize("gap", ["1e-25", "1e-30", "1e-60"])
def test_negative_witness_just_above_the_circuit_number(gap):
    # 2x^4y^2 + x^2y^4 + 3z^6 - c*x^2y^2z^2 has circuit number 162^(1/3);
    # at c a relative gap above it, no candidate rounded to a denominator
    # of 1e6 is negative, and the AM-GM point must be refined.
    with localcontext() as context:
        context.prec = 100
        c = Fraction(Decimal(162) ** (Decimal(1) / 3) * (1 + Decimal(gap)))
    terms = {(4, 2, 0): Fraction(2), (2, 4, 0): Fraction(1), (0, 0, 6): Fraction(3)}
    circuit = detect_circuit(make_form(3, {**terms, (2, 2, 2): -c}))
    assert not decide_circuit_nonnegativity(circuit).is_nonnegative
    assert c**3 > 162 > (c / (1 + 10 * Fraction(gap))) ** 3
    witness = negative_witness(circuit)
    assert evaluate(circuit.form, witness) < 0
    assert negative_witness(circuit) == witness


def test_zero_locus_motzkin():
    locus = zero_locus(detect_circuit(motzkin()))
    assert isinstance(locus, ZeroLocus)
    assert locus.dimension == 1
    # all outer coefficients and weights coincide: right-hand side is zero,
    # so y = 0 (the all-ones point) lies on the locus
    assert all(a == 1 and b == 1 for a, b in locus.rhs_symbolic)
    for row in locus.matrix:
        assert sum(v * 0 for v in row) == 0
    for y in locus.sample_solutions(50, seed=3):
        point = [math.exp(v) for v in y]
        assert abs(evaluate(motzkin(), point)) <= 1e-9 * max(
            1.0, max(abs(p) for p in point) ** 6
        )


def test_zero_locus_dimension_matches_rank():
    locus = zero_locus(detect_circuit(choi_lam_q1()))
    assert isinstance(locus, ZeroLocus)
    assert locus.dimension == 4 - 3


def test_zero_locus_with_unequal_outer_coefficients():
    # x^4 + 4 y^4 - 4 x^2 y^2 is a boundary circuit (threshold 4) whose
    # positive zeros satisfy y = x / 2^(1/2); checks the right-hand side
    # bookkeeping for outer coefficients that differ from their weights.
    f = parse_form("x1^4 + 4*x2^4 - 4*x1^2*x2^2")
    circuit = detect_circuit(f)
    verdict = decide_circuit_nonnegativity(circuit)
    assert verdict.is_nonnegative and verdict.boundary
    locus = zero_locus(circuit)
    assert isinstance(locus, ZeroLocus)
    assert locus.dimension == 1
    x = 1.3
    y = x / math.sqrt(2.0)
    point = (math.log(x), math.log(y))
    rhs = locus.rhs_floats()
    for row, target in zip(locus.matrix, rhs):
        assert abs(sum(r * p for r, p in zip(row, point)) - target) < 1e-12
    assert abs(evaluate(f, (x, y))) < 1e-12
    for solution in locus.sample_solutions(50, seed=5):
        values = [math.exp(v) for v in solution]
        assert abs(evaluate(f, values)) <= 1e-9 * max(
            1.0, max(values) ** 4
        )


def test_zero_locus_interior_circuit_has_none():
    assert (
        zero_locus(detect_circuit(motzkin_bcj()))
        is ZeroLocusStatus.EMPTY_IN_OPEN_ORTHANT
    )


def test_zero_locus_positive_boundary_case_surfaced():
    # inner coefficient +4 equals the circuit number with weights (1/4, 3/4)
    boundary_positive = parse_form("x1^4 + 3*x2^4 + 4*x1*x2^3")
    circuit = detect_circuit(boundary_positive)
    verdict = decide_circuit_nonnegativity(circuit)
    assert verdict.is_nonnegative and verdict.boundary
    assert zero_locus(circuit) is ZeroLocusStatus.SIGN_CASE_OUT_OF_SCOPE


def test_zero_locus_requires_nonnegative():
    bad = parse_form("x1^4*x2^2 + x1^2*x2^4 - 4*x1^2*x2^2*x3^2 + x3^6")
    with pytest.raises(NotNonnegativeCircuit):
        zero_locus(detect_circuit(bad))


def test_zero_locus_boundary_rescaled_bcj():
    locus = zero_locus(detect_circuit(motzkin_bcj_boundary()))
    assert isinstance(locus, ZeroLocus)
    assert locus.dimension == 1


def test_zero_locus_check_reports_a_sample_off_the_zero_set(monkeypatch):
    # The first sample, the all-ones point, is a zero of the Motzkin form;
    # the second, (1, 1, 2), is not: its exact value 54 exceeds 1e-8 times
    # the largest term, 64.  The check evaluates both in one batch.
    f = motzkin()
    report = analyze(f)
    samples = [(0.0, 0.0, 0.0), (0.0, 0.0, math.log(2.0))]
    monkeypatch.setattr(ZeroLocus, "sample_solutions", lambda self, count, seed=0: samples)
    calls = []

    def counting_evaluate_many(form, points):
        calls.append(len(points))
        return evaluate_many(form, points)

    monkeypatch.setattr(corpus, "evaluate_many", counting_evaluate_many)
    assert corpus.CHECKS["zero_locus"](f, report, "") == "dim=1;residual=5.40e+01"
    assert calls == [2]
    monkeypatch.setattr(ZeroLocus, "sample_solutions", lambda self, count, seed=0: samples[:1])
    assert corpus.CHECKS["zero_locus"](f, report, "") == "dim=1;residuals=ok"


def test_logs_affinely_independent_examples():
    points = [
        (1.0, -2.0, 1.0),
        (-2.0, 1.0, 1.0),
        (math.e, math.e, math.e),
        (1.0, 1.0, 1.0),
    ]
    assert logs_affinely_independent(points)
    assert not logs_affinely_independent([(1, 1, 1), (2, 2, 2), (4, 4, 4)])
    assert not logs_affinely_independent([(1, 2, 3), (1, 2, 3)])
    with pytest.raises(ZeroCoordinate):
        logs_affinely_independent([(0.0, 1.0, 1.0)])


def test_logs_affinely_independent_rejects_points_of_another_length():
    # Used to return True, reading two coordinates of each point.
    with pytest.raises(DimensionMismatch):
        logs_affinely_independent([(1.0, 2.0), (3.0, 5.0, 7.0)])


def test_detect_circuit_permutation_invariance():
    permutation = [[0, 1, 0], [0, 0, 1], [1, 0, 0]]  # x->y->z->x
    base = detect_circuit(motzkin())
    permuted = detect_circuit(substitute_linear(motzkin(), permutation))
    assert isinstance(permuted, Circuit)
    assert permuted.kind is CircuitKind.PROPER

    def apply(exponent):
        # substitution x_i -> x_{sigma(i)} permutes exponent entries
        return tuple(exponent[j] for j in (2, 0, 1))

    assert {p for p, _ in permuted.outer} == {apply(p) for p, _ in base.outer}
    assert permuted.inner is not None and base.inner is not None
    assert permuted.inner[0] == apply(base.inner[0])
    assert sorted(permuted.barycentric) == sorted(base.barycentric)


def test_nonnegative_circuits_sample_nonnegative():
    rng = random.Random(42)
    for builder in (motzkin, motzkin_bcj, choi_lam_q1, choi_lam_q2):
        f = builder()
        assert decide_circuit_nonnegativity(detect_circuit(f)).is_nonnegative
        for _ in range(2000):
            point = tuple(
                Fraction(rng.randint(-24, 24), 8) for _ in range(f.num_vars)
            )
            assert evaluate(f, point) >= 0
