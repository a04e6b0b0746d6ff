"""Circuit detection, circuit numbers, nonnegativity, zero loci."""

import math
import random
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest

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
from sonckit.forms import (
    evaluate,
    evaluate_float,
    make_form,
    parse_form,
    scale_form,
    substitute_linear,
)
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
        assert abs(evaluate_float(motzkin(), point)) <= 1e-9 * max(
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
    assert abs(evaluate_float(f, (x, y))) < 1e-12
    for solution in locus.sample_solutions(50, seed=5):
        values = [math.exp(v) for v in solution]
        assert abs(evaluate_float(f, values)) <= 1e-9 * max(
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
