"""Necessary condition, corollary, decomposition verification, and search."""

import functools
import itertools
import math
import operator
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import search_oracle

from sonckit import certify
from sonckit.errors import (
    BudgetExceeded,
    PreconditionNotEquality,
    UncoveredInnerExponent,
    ZeroFormInput,
)
from sonckit.certify import (
    ConditionVerdict,
    CorollaryViolation,
    _SearchProblem,
    SearchBudget,
    SearchStatus,
    SoncDecomposition,
    corollary_check,
    necessary_condition,
    per_simplex_weights,
    sonc_feasibility_search,
    verify_decomposition,
)
from sonckit.circuits import Circuit, detect_circuit
from sonckit.forms import grlex_key, make_form, parse_form
from sonckit.geometry import support_partition
from sonckit.report import analyze, render_text, report_to_dict
from sonckit.corpus import (
    FORM_BUILDERS,
    motzkin,
    motzkin_bcj,
    p_family,
    q_family,
    robinson1,
    robinson2,
    schmuedgen,
    square_trinomial,
)


def _report(f):
    return necessary_condition(f, support_partition(f))


def test_necessary_condition_robinson_violations():
    r1 = _report(robinson1())
    assert (r1.inner_sum, r1.outer_sum) == (6, 3)
    assert r1.verdict is ConditionVerdict.VIOLATED
    assert not r1.uncovered_inner
    r2 = _report(robinson2())
    assert (r2.inner_sum, r2.outer_sum) == (16, 6)
    assert r2.verdict is ConditionVerdict.VIOLATED


def test_necessary_condition_motzkin_equality_passes_corollary():
    report = _report(motzkin())
    assert (report.inner_sum, report.outer_sum) == (3, 3)
    assert report.verdict is ConditionVerdict.EQUALITY
    assert report.corollary is not None and report.corollary.passed


def test_necessary_condition_inconclusive_cases():
    for f in (schmuedgen(), square_trinomial()):
        report = _report(f)
        assert report.verdict is ConditionVerdict.STRICTLY_SATISFIED


def test_necessary_condition_rules_out_sonc():
    # Violated, equality with a failed corollary, equality with a passed
    # corollary, strictly satisfied.
    expected = {"robinson1": True, "p_2_6": True, "motzkin": False, "schmuedgen": False}
    for name, rules_out in expected.items():
        assert _report(FORM_BUILDERS[name]()).rules_out_sonc is rules_out, name


@pytest.mark.parametrize("text", ["x1^4 + x1^2*x2^2 + x2^4", "x1^4 + x2^4 + x3^4"])
def test_necessary_condition_without_inner_exponents_is_vacuous(text):
    f = parse_form(text)
    report = _report(f)
    assert (report.inner_sum, report.outer_sum) == (0, 0)
    assert report.verdict is ConditionVerdict.VACUOUS
    assert report.corollary is None and not report.rules_out_sonc
    analysis = analyze(f)
    assert report_to_dict(analysis)["necessary_condition"] == {
        "inner_sum": "0",
        "outer_sum": "0",
        "verdict": "Vacuous",
        "uncovered_inner": [],
        "corollary_violations": None,
    }
    assert "coefficient sums: inner 0 vs outer 0 -> Vacuous" in render_text(
        analysis
    ).splitlines()


def test_necessary_condition_zero_form():
    with pytest.raises(ZeroFormInput):
        necessary_condition(
            make_form(2, {}, zero_degree=2),
            support_partition(parse_form("x1^2", num_vars=2)),
        )


def test_uncovered_inner_exponent_forces_violation():
    # (1,1,2) needs a square exponent with positive last coordinate and
    # there is none, so no covering simplex exists even though the sums
    # themselves would pass (3 <= 20).
    f = parse_form("10*x1^4 + 10*x2^4 - x1*x2*x3^2 - 2*x1^2*x2^2")
    report = _report(f)
    assert report.inner_sum < report.outer_sum
    assert report.uncovered_inner == {(1, 1, 2)}
    assert report.verdict is ConditionVerdict.VIOLATED


def test_vertex_inner_exponent_is_uncovered():
    f = parse_form("x1^4 + 1/2*x1^3*x2")
    report = _report(f)
    assert report.uncovered_inner == {(3, 1)}
    assert report.verdict is ConditionVerdict.VIOLATED
    # the lone square supports no simplex, so it counts as unused
    assert report.outer_sum == 0


def test_corollary_violation_for_squares_family():
    f = p_family(2, 6)
    partition = support_partition(f)
    report = corollary_check(f, partition)
    assert not report.passed
    found = {(v.alpha, v.beta): (v.bound, v.coefficient) for v in report.violations}
    assert found[((2, 4), (3, 3))] == (Fraction(2), Fraction(1))
    assert per_simplex_weights(partition, (2, 4), (3, 3)) == (
        Fraction(1, 2),
        Fraction(3, 4),
    )
    assert partition.family_size((3, 3)) == 2


def test_corollary_zero_weight_pairs_never_violate():
    f = p_family(2, 6)
    partition = support_partition(f)
    # (6,0) is not a vertex of the first simplex covering (3,3)
    weights = per_simplex_weights(partition, (6, 0), (3, 3))
    assert min(weights) == 0
    report = corollary_check(f, partition)
    assert ((6, 0), (3, 3)) not in {(v.alpha, v.beta) for v in report.violations}


def _pairwise_corollary_violations(f, partition):
    """The corollary over every (used square, inner exponent) pair, each
    bound the minimum of its per-simplex weights, zeros included."""
    used = sorted(partition.s_set - partition.r_set, key=grlex_key, reverse=True)
    inners = sorted(partition.i_set, key=grlex_key, reverse=True)
    violations = []
    for alpha in used:
        for beta in inners:
            bound = min(per_simplex_weights(partition, alpha, beta)) * abs(f.terms[beta])
            if f.terms[alpha] < bound:
                violations.append(CorollaryViolation(alpha, beta, bound, f.terms[alpha]))
    return tuple(violations)


def _equality_forms(rng, count):
    """Seeded forms with the inner coefficients scaled so that both sums
    agree: even squares of one degree with random positive coefficients,
    and negative terms at midpoints of pairs of them, which their segment
    covers."""
    for index in range(count):
        n, degree = rng.randint(2, 4), rng.choice([4, 6])
        evens = [
            e for e in itertools.product(range(0, degree + 1, 2), repeat=n)
            if sum(e) == degree
        ]
        squares = rng.sample(evens, min(len(evens), rng.randint(3, 8)))
        inner = {
            tuple((a + b) // 2 for a, b in zip(*rng.sample(squares, 2)))
            for _ in range(rng.randint(1, 4))
        } - set(squares)
        terms = {e: Fraction(rng.randint(1, 9)) for e in squares}
        terms.update({e: Fraction(-rng.randint(1, 9)) for e in inner})
        partition = support_partition(make_form(n, terms))
        if not partition.i_set or partition.uncovered_inner:
            continue
        inner_sum = sum(-terms[b] for b in partition.i_set)
        outer_sum = sum(terms[a] for a in partition.s_set - partition.r_set)
        for beta in partition.i_set:
            terms[beta] *= outer_sum / inner_sum
        yield make_form(n, terms, name=f"equality_{index}")


def test_corollary_matches_pairwise_bounds():
    forms = [p_family(n, 6) for n in range(2, 8)] + [p_family(3, 8)]
    forms += [b() for b in FORM_BUILDERS.values()]
    forms += _equality_forms(random.Random(15), 200)
    checked = violated = 0
    for f in forms:
        partition = support_partition(f)
        report = necessary_condition(f, partition)
        if report.verdict is not ConditionVerdict.EQUALITY:
            continue
        expected = _pairwise_corollary_violations(f, partition)
        assert corollary_check(f, partition).violations == expected, f.name
        checked, violated = checked + 1, violated + bool(expected)
    assert checked > 100 and violated > 20


def test_corollary_requires_equality():
    f = robinson1()
    with pytest.raises(PreconditionNotEquality):
        corollary_check(f, support_partition(f))


def test_verify_motzkin_self_decomposition():
    m = motzkin()
    circuit = detect_circuit(m)
    assert isinstance(circuit, Circuit)
    decomposition = SoncDecomposition(
        circuits=(circuit,),
        monomial_square_remainder=make_form(3, {}, zero_degree=6),
    )
    assert verify_decomposition(m, decomposition).valid


def _square_trinomial_candidate(nu1: Fraction) -> SoncDecomposition:
    """The forced decomposition shape with a chosen split of the y^4*z^4
    coefficient: remainder 8*x^4*y^2*z^2 plus two circuits."""
    nu2 = 1 - nu1
    f1 = make_form(
        3,
        {
            (4, 0, 4): Fraction(4),
            (0, 4, 4): Fraction(1, 4) * nu1,
            (2, 2, 4): Fraction(-2),
        },
    )
    f2 = make_form(
        3,
        {
            (4, 4, 0): Fraction(4),
            (0, 4, 4): Fraction(1, 4) * nu2,
            (2, 4, 2): Fraction(-2),
        },
    )
    c1, c2 = detect_circuit(f1), detect_circuit(f2)
    assert isinstance(c1, Circuit) and isinstance(c2, Circuit)
    remainder = make_form(3, {(4, 2, 2): Fraction(8)}, zero_degree=8)
    return SoncDecomposition(circuits=(c1, c2), monomial_square_remainder=remainder)


def test_verify_rejects_even_split_of_trinomial_square():
    f = square_trinomial()
    candidate = _square_trinomial_candidate(Fraction(1, 2))
    result = verify_decomposition(f, candidate)
    assert not result.valid
    assert result.reason == "circuit_not_nonnegative"


def test_verify_rejects_sum_mismatch():
    m = motzkin()
    circuit = detect_circuit(m)
    remainder = make_form(3, {(0, 0, 6): Fraction(1)}, zero_degree=6)
    result = verify_decomposition(
        m, SoncDecomposition(circuits=(circuit,), monomial_square_remainder=remainder)
    )
    assert not result.valid and result.reason == "sum_mismatch"


def test_verify_rejects_foreign_support():
    target = parse_form("x1^4 + x2^4")
    piece = detect_circuit(parse_form("x1^4 + x2^4 - x1^2*x2^2"))
    patch = make_form(2, {(2, 2): Fraction(1)}, zero_degree=4)
    result = verify_decomposition(
        target,
        SoncDecomposition(circuits=(piece,), monomial_square_remainder=patch),
    )
    assert not result.valid and result.reason == "support_not_contained"


def test_search_motzkin_trivially_feasible():
    m = motzkin()
    outcome = sonc_feasibility_search(m, support_partition(m))
    assert outcome.status is SearchStatus.FEASIBLE and outcome.exact
    assert outcome.decomposition is not None
    assert len(outcome.decomposition.circuits) == 1
    assert verify_decomposition(m, outcome.decomposition).valid


def test_search_bcj_feasible():
    f = motzkin_bcj()
    outcome = sonc_feasibility_search(f, support_partition(f))
    assert outcome.status is SearchStatus.FEASIBLE and outcome.exact


def test_search_square_trinomial_infeasible_with_margin():
    f = square_trinomial()
    outcome = sonc_feasibility_search(f, support_partition(f))
    assert outcome.status is SearchStatus.INFEASIBLE
    assert outcome.margin is not None
    # optimum of max(2 - 2*sqrt(t), 2 - 2*sqrt(1-t)) is 2 - sqrt(2)
    assert abs(outcome.margin - 0.5857864376269) < 1e-3
    assert outcome.margin >= 0.5


def test_search_budget_exceeded():
    f = square_trinomial()
    with pytest.raises(BudgetExceeded):
        sonc_feasibility_search(
            f, support_partition(f), SearchBudget(max_params=0)
        )


def test_negative_search_budget_is_an_input_error():
    with pytest.raises(ValueError, match="at least 0, got -1"):
        SearchBudget(max_params=-1)
    assert SearchBudget(max_params=0).max_params == 0


def test_search_uncovered_inner_exponent():
    f = parse_form("x1^4 + 1/2*x1^3*x2")
    with pytest.raises(UncoveredInnerExponent):
        sonc_feasibility_search(f, support_partition(f))


def _trinomial_family_form(c: Fraction):
    """4x^4z^4 + 4x^4y^4 + c*y^4z^4 + 8x^4y^2z^2 - 2x^2y^2z^4 - 2x^2y^4z^2:
    the split of c across the two forced circuits is the one free weight;
    the family is feasible exactly when c >= 1/2."""
    return make_form(
        3,
        {
            (4, 0, 4): Fraction(4),
            (4, 4, 0): Fraction(4),
            (0, 4, 4): c,
            (4, 2, 2): Fraction(8),
            (2, 2, 4): Fraction(-2),
            (2, 4, 2): Fraction(-2),
        },
        name="trinomial_family",
    )


def test_search_feasible_with_free_parameter_interval():
    f = _trinomial_family_form(Fraction(1))
    outcome = sonc_feasibility_search(f, support_partition(f))
    assert outcome.status is SearchStatus.FEASIBLE and outcome.exact
    assert outcome.decomposition is not None
    assert verify_decomposition(f, outcome.decomposition).valid


def test_search_feasible_boundary_split_is_certified_exactly():
    # only the split 1/2 + 1/2 works; both circuits land on the threshold
    f = _trinomial_family_form(Fraction(1, 2))
    outcome = sonc_feasibility_search(f, support_partition(f))
    assert outcome.status is SearchStatus.FEASIBLE and outcome.exact
    assert outcome.decomposition is not None
    result = verify_decomposition(f, outcome.decomposition)
    assert result.valid, result
    split = sorted(
        circuit.form.terms[(0, 4, 4)] for circuit in outcome.decomposition.circuits
    )
    assert split == [Fraction(1, 4), Fraction(1, 4)]


def test_search_zero_parameter_infeasibility_is_exact():
    # Motzkin with inner coefficient -4: the only candidate decomposition
    # is the form itself and it fails the exact nonnegativity test.
    f = parse_form("x1^4*x2^2 + x1^2*x2^4 - 4*x1^2*x2^2*x3^2 + x3^6")
    outcome = sonc_feasibility_search(f, support_partition(f))
    assert outcome.status is SearchStatus.INFEASIBLE
    assert outcome.exact
    assert outcome.margin is not None and abs(outcome.margin - 1.0) < 1e-9


def test_search_pure_square_sum():
    # The second form is a sum of squares but no circuit.
    for text in ("x1^4 + x2^4", "x1^4 + x1^2*x2^2 + x2^4"):
        f = parse_form(text)
        outcome = sonc_feasibility_search(f, support_partition(f))
        assert outcome.status is SearchStatus.FEASIBLE and outcome.exact, text
        assert outcome.decomposition is not None
        assert outcome.decomposition.circuits == ()
        assert outcome.decomposition.monomial_square_remainder == f
        assert verify_decomposition(f, outcome.decomposition).valid


# ---------------------------------------------------------------------------
# the search's analytic gradient against the central-difference oracle
# ---------------------------------------------------------------------------

#: The smoothing temperatures of the four search phases, in units of the
#: largest inner coefficient magnitude.
_TAU_PHASES = (0.3, 0.03, 0.003, 0.0003)


def _search_problem(f):
    return _SearchProblem(f, support_partition(f))


@pytest.fixture(scope="module")
def corpus_problems():
    """Search problems of the corpus forms with free weights."""
    problems = []
    for name, build in FORM_BUILDERS.items():
        f = build()
        try:
            problem = _search_problem(f)
        except UncoveredInnerExponent:
            continue
        if problem.size:
            problems.append((name, f, problem))
    return problems


def _random_weights(rng, problem, logit):
    """Split weights in the search's layout: group softmaxes of one logit
    per weight, each drawn by ``logit(rng)``."""
    return problem.weights([logit(rng) for _ in range(problem.weight_count)])


def _assert_gradient_matches_oracle(problem, weights, tau):
    values, thresholds = problem.margins(weights)
    analytic = problem.gradient(
        weights, values, thresholds, tau, certify._smoothed_max(values, tau)
    )
    # Richardson extrapolation over steps h and h/2 cancels the h**2
    # truncation error of central differences, which exceeds the tolerance
    # where two margins cross at the smallest tau.
    coarse = search_oracle.central_difference_gradient(problem, weights, tau, step=1e-6)
    fine = search_oracle.central_difference_gradient(problem, weights, tau, step=5e-7)
    numeric = [(4 * b - a) / 3 for a, b in zip(coarse, fine)]
    # The oracle steps each weight in proportion to it, so both sides are
    # compared as w * dS/dw.  In these units the difference quotient's
    # rounding noise is a few 1e-9 times the largest term the smoothed
    # maximum is computed from (some nu * |f_beta| or theta), whatever the
    # weights; the floor sits above that noise for a vanishing gradient.
    magnitude = max(max(v + t, t) for v, t in zip(values, thresholds))
    reference = max(max(w * abs(n) for w, n in zip(weights, numeric)), 1e-2 * magnitude)
    error = max(w * abs(a - n) for w, a, n in zip(weights, analytic, numeric))
    assert error <= 1e-6 * reference, (weights, tau, analytic, numeric)
    return analytic, numeric


def test_search_forward_pass_matches_reference_margins():
    # Same float operations in the same order: the values agree bitwise.
    rng = random.Random(11)
    for name, build in FORM_BUILDERS.items():
        f = build()
        partition = support_partition(f)
        try:
            problem = _SearchProblem(f, partition)
        except UncoveredInnerExponent:
            continue
        for _ in range(5):
            weights = _random_weights(rng, problem, lambda r: r.uniform(-3.0, 3.0))
            values, _ = problem.margins(weights)
            expected = search_oracle.reference_margins(f, partition, weights)
            assert values == expected, name


def test_search_gradient_matches_central_difference_on_corpus(corpus_problems):
    # 13 forms: the 7 searched at max_params=9 and the 6 beyond it
    assert len(corpus_problems) == 13
    rng = random.Random(3)
    for _, _, problem in corpus_problems:
        scale = max(abs_inner for _, abs_inner, _ in problem.slots)
        for factor in _TAU_PHASES:
            for _ in range(3):
                weights = _random_weights(rng, problem, lambda r: r.uniform(-3.0, 3.0))
                _assert_gradient_matches_oracle(problem, weights, factor * scale)


def test_search_gradient_is_flat_below_the_weight_clamp(corpus_problems):
    # Logits 700 and more apart push square splits under 1e-300 or to 0,
    # where the forward pass clamps them and neither gradient may see a slope.
    rng = random.Random(5)
    clamped = 0
    for _, _, problem in corpus_problems:
        scale = max(abs_inner for _, abs_inner, _ in problem.slots)
        # Only the square splits mu pass through the clamp; nu is linear.
        outer = {mu_index for _, _, terms in problem.slots for mu_index, _, _ in terms}
        for factor in _TAU_PHASES:
            weights = _random_weights(
                rng,
                problem,
                lambda r: r.choice((-800.0, -700.0, 700.0, r.uniform(-1.0, 1.0))),
            )
            analytic, numeric = _assert_gradient_matches_oracle(
                problem, weights, factor * scale
            )
            below = [i for i in outer if weights[i] < 1e-300]
            assert all(analytic[i] == numeric[i] == 0.0 for i in below)
            clamped += bool(below)
    assert clamped >= 40


@settings(max_examples=60, deadline=None)
@given(
    c=st.fractions(min_value=Fraction(1, 20), max_value=8, max_denominator=50),
    split=st.floats(min_value=1e-6, max_value=1 - 1e-6),
    phase=st.sampled_from(_TAU_PHASES),
)
# The symmetric split at which a floor scaled by |f_beta| alone fell below
# the difference quotient's noise, which grows with c.
@example(c=Fraction(341, 46), split=0.5, phase=0.3)
def test_search_gradient_matches_central_difference_on_trinomial_family(
    c, split, phase
):
    problem = _search_problem(_trinomial_family_form(c))
    assert problem.size == 1
    [(first, _)] = [group for group in problem.groups if group[1] == 2]
    weights = [1.0] * problem.weight_count
    weights[first : first + 2] = [split, 1 - split]
    scale = max(abs_inner for _, abs_inner, _ in problem.slots)
    _assert_gradient_matches_oracle(problem, weights, phase * scale)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), phase=st.sampled_from(_TAU_PHASES))
def test_search_gradient_matches_central_difference_hypothesis(
    corpus_problems, data, phase
):
    _, _, problem = data.draw(st.sampled_from(corpus_problems))
    logits = data.draw(
        st.lists(
            st.floats(min_value=-8.0, max_value=8.0),
            min_size=problem.weight_count,
            max_size=problem.weight_count,
        )
    )
    scale = max(abs_inner for _, abs_inner, _ in problem.slots)
    _assert_gradient_matches_oracle(problem, problem.weights(logits), phase * scale)


def test_search_sums_are_left_folds():
    # From Python 3.12 on, builtin sum of floats is compensated.  One 1.0
    # and many terms below half its ulp tell the two apart: a left fold
    # stays at 1.0, a compensated sum does not.
    tiny = math.log(1e-16)
    values = [0.0] + [tiny] * 10
    exps = [math.exp(v) for v in values]
    left = functools.reduce(operator.add, exps)
    assert left == 1.0 and math.fsum(exps) != left
    # peak 0 and tau 1: the smoothed maximum is log(left) = 0
    assert certify._smoothed_max(values, 1.0) == 0.0

    problem = _search_problem(FORM_BUILDERS["motzkin_tilde"]())
    first, size = max(problem.groups, key=lambda group: group[1])
    logits = [0.0] * problem.weight_count
    logits[first + 1 : first + size] = [tiny] * (size - 1)
    exps = [math.exp(v) for v in logits[first : first + size]]
    left = functools.reduce(operator.add, exps)
    assert math.fsum(exps) != left
    weights = problem.weights(logits)
    assert weights[first : first + size] == [e / left for e in exps]


def test_search_stops_when_the_slope_overflows():
    # A weight pushed near the clamp can give a slope beyond the float
    # range; the step then halves to zero and the search keeps its best.
    problem = _search_problem(_trinomial_family_form(Fraction(1, 4)))
    start, _ = problem.margins(problem.weights([0.0] * problem.weight_count))
    with mock.patch.object(
        problem, "gradient", lambda *args: [math.inf] * problem.weight_count
    ):
        margin, weights = certify._optimize(problem)
    assert margin == max(start)
    assert weights == problem.weights([0.0] * problem.weight_count)


def test_search_problem_sizes_of_the_corpus():
    # The free weights the budget counts, one fewer than each group's size;
    # the corpus pins of BudgetExceeded rest on these.
    sizes = {name: _search_problem(build()).size for name, build in FORM_BUILDERS.items()}
    assert sizes == {
        "motzkin": 0,
        "motzkin_bcj": 0,
        "motzkin_bcj_boundary": 0,
        "robinson1": 9,
        "robinson2": 20,
        "choi_lam_q1": 0,
        "choi_lam_q2": 0,
        "schmuedgen": 65,
        "p_2_6": 7,
        "p_3_6": 14,
        "p_3_8": 14,
        "q_3_6": 3,
        "q_3_8": 3,
        "square_trinomial": 1,
        "separator_ternary": 8,
        "separator_quaternary": 6,
        "motzkin_tilde": 123,
        "q1_tilde": 14,
    }


# ---------------------------------------------------------------------------
# corpus search pins
# ---------------------------------------------------------------------------

#: Search status of every corpus form at ``SearchBudget(max_params=9)``;
#: the same table as the benchmark's ``SEARCH_PINS``.
SEARCH_PINS = {
    "motzkin": "Feasible",
    "motzkin_bcj": "Feasible",
    "motzkin_bcj_boundary": "Feasible",
    "robinson1": "InfeasibleWithMargin",
    "robinson2": "BudgetExceeded",
    "choi_lam_q1": "Feasible",
    "choi_lam_q2": "Feasible",
    "schmuedgen": "BudgetExceeded",
    "p_2_6": "InfeasibleWithMargin",
    "p_3_6": "BudgetExceeded",
    "p_3_8": "BudgetExceeded",
    "q_3_6": "InfeasibleWithMargin",
    "q_3_8": "InfeasibleWithMargin",
    "square_trinomial": "InfeasibleWithMargin",
    "separator_ternary": "InfeasibleWithMargin",
    "separator_quaternary": "InfeasibleWithMargin",
    "motzkin_tilde": "BudgetExceeded",
    "q1_tilde": "BudgetExceeded",
}

#: Margins of the numeric InfeasibleWithMargin outcomes: the optima of the
#: convex search problem (2 - sqrt(3) for p_2_6, 2 - sqrt(2) for
#: square_trinomial), which the mirror descent reaches to within 1e-4.
SEARCH_MARGINS = {
    "robinson1": 0.5000,
    "p_2_6": 0.2679,
    "q_3_6": 1.0000,
    "q_3_8": 1.0000,
    "square_trinomial": 0.5858,
    "separator_ternary": 0.5210,
    "separator_quaternary": 0.6313,
}


def _corpus_search_outcomes():
    budget = SearchBudget(max_params=9)
    outcomes = {}
    for name in SEARCH_PINS:
        result = analyze(FORM_BUILDERS[name](), search=True, budget=budget)
        if result.feasibility is None:
            outcomes[name] = (result.feasibility_note.split(":", 1)[0], None, None)
        else:
            outcome = result.feasibility
            outcomes[name] = (outcome.status.value, outcome.margin, outcome.exact)
    return outcomes


def test_search_corpus_pins_and_margins():
    first = _corpus_search_outcomes()
    assert set(first) == set(FORM_BUILDERS)
    assert {name: status for name, (status, _, _) in first.items()} == SEARCH_PINS
    numeric = {
        name
        for name, (status, _, exact) in first.items()
        if status == "InfeasibleWithMargin" and not exact
    }
    assert numeric == set(SEARCH_MARGINS)
    for name, expected in SEARCH_MARGINS.items():
        assert abs(first[name][1] - expected) <= 1e-3, (name, first[name][1])
    # The search is deterministic and runs in plain floats: reruns are
    # bit-identical.
    assert _corpus_search_outcomes() == first


def _random_even_point(rng, n, half_degree):
    cuts = sorted(rng.randint(0, half_degree) for _ in range(n - 1))
    parts = [b - a for a, b in zip([0] + cuts, cuts + [half_degree])]
    return tuple(2 * p for p in parts)


def _random_nonneg_circuit(rng, n, degree, force_negative_inner=False):
    """Nonnegative circuit with rational circuit number by construction:
    outer coefficients proportional to the barycentric weights give the
    threshold c, and the inner magnitude stays at or below it."""
    from sonckit.geometry import (
        affinely_independent,
        barycentric_coordinates,
        lattice_points,
    )
    from sonckit.forms import make_form

    for _ in range(200):
        size = rng.randint(2, n + 1)
        vertices = sorted(
            {_random_even_point(rng, n, degree // 2) for _ in range(size)}
        )
        if len(vertices) < 2 or not affinely_independent(vertices):
            continue
        interior = [
            p
            for p in lattice_points(vertices)
            if p not in set(vertices)
            and barycentric_coordinates(p, vertices) is not None
        ]
        if not interior:
            continue
        beta = interior[rng.randrange(len(interior))]
        weights = barycentric_coordinates(beta, vertices)
        c = Fraction(rng.randint(1, 8), rng.randint(1, 4))
        t = c * Fraction(rng.randint(1, 8), 8)
        sign = -1 if force_negative_inner else rng.choice((-1, 1))
        terms = {v: c * w for v, w in zip(vertices, weights)}
        terms[beta] = terms.get(beta, Fraction(0)) + sign * t
        return make_form(n, terms)
    return None


def test_necessary_condition_sound_on_random_sonc_sums():
    """Sums of nonnegative circuits may never be disproved: the verdict is
    never Violated, every inner exponent is covered, the equality-case
    bounds hold, and the vertex precheck passes."""
    import random as random_mod

    from sonckit.forms import add_forms
    from sonckit.geometry import psd_newton_precheck

    rng = random_mod.Random(99)
    built = 0
    while built < 40:
        n = rng.randint(2, 3)
        degree = 2 * rng.randint(2, 4)
        pieces = [
            piece
            for piece in (
                _random_nonneg_circuit(rng, n, degree)
                for _ in range(rng.randint(1, 3))
            )
            if piece is not None
        ]
        if not pieces:
            continue
        total = add_forms(*pieces)
        if total.is_zero:
            continue
        built += 1
        assert psd_newton_precheck(total) is None, total
        report = _report(total)
        assert report.verdict is not ConditionVerdict.VIOLATED, total
        assert not report.uncovered_inner, total
        if report.verdict is ConditionVerdict.EQUALITY:
            assert report.corollary is not None and report.corollary.passed, total


def test_verify_accepts_random_cancellation_free_sums():
    import random as random_mod

    from sonckit.forms import add_forms, make_form

    rng = random_mod.Random(101)
    built = 0
    while built < 20:
        n = rng.randint(2, 3)
        degree = 2 * rng.randint(2, 3)
        pieces = [
            piece
            for piece in (
                _random_nonneg_circuit(rng, n, degree, force_negative_inner=True)
                for _ in range(rng.randint(1, 2))
            )
            if piece is not None
        ]
        if not pieces:
            continue
        total = add_forms(*pieces)
        union_support = set().union(*(set(p.terms) for p in pieces))
        if set(total.terms) != union_support:
            continue  # a term cancelled; not a cancellation-free witness
        circuits = []
        for piece in pieces:
            detected = detect_circuit(piece)
            if not isinstance(detected, Circuit):
                break
            circuits.append(detected)
        else:
            built += 1
            decomposition = SoncDecomposition(
                circuits=tuple(circuits),
                monomial_square_remainder=make_form(n, {}, zero_degree=degree),
            )
            assert verify_decomposition(total, decomposition).valid, total


# ---------------------------------------------------------------------------
# the mirror descent against the former Adam search
# ---------------------------------------------------------------------------

def _certified(outcome):
    return outcome.status is SearchStatus.FEASIBLE and outcome.exact


def _search_against_oracle(f):
    """The search's outcome and the oracle's on ``f`` at ``max_params=9``,
    after checking that the search does at least as well: it certifies
    whatever the oracle certifies and, where the oracle concludes, its
    margin is no larger."""
    budget = SearchBudget(max_params=9)
    partition = support_partition(f)
    new = sonc_feasibility_search(f, partition, budget)
    with mock.patch.object(certify, "_optimize", search_oracle.adam_optimize):
        old = sonc_feasibility_search(f, partition, budget)
    if _certified(new):
        return new, old
    assert not _certified(old), f
    if old.status is SearchStatus.INCONCLUSIVE:
        # Where neither search settles the form, the search may stop a
        # little higher than the oracle but never claims infeasibility.
        assert new.status is not SearchStatus.INFEASIBLE, (f, new, old)
    else:
        # Both stop at the first margin <= 1e-10, so only the oracle's
        # margin above zero bounds the search's.
        scale = max((a for _, a, _ in _search_problem(f).slots), default=1.0)
        assert new.margin <= max(old.margin, 0.0) + 1e-9 * max(1.0, scale), (f, new, old)
    return new, old


def test_search_matches_adam_oracle_on_corpus():
    searched = 0
    for name, build in FORM_BUILDERS.items():
        f = build()
        if _search_problem(f).size > 9:
            continue
        new, old = _search_against_oracle(f)
        assert new.status is old.status, name
        assert new.status.value == SEARCH_PINS[name], name
        searched += 1
    assert searched == 12


@settings(max_examples=60, deadline=None)
@given(c=st.fractions(min_value=Fraction(1, 20), max_value=8, max_denominator=50))
def test_search_matches_adam_oracle_on_trinomial_family(c):
    _search_against_oracle(_trinomial_family_form(c))


def _random_cancellation_free_sums(seed, count):
    """Sums of 2-3 random nonnegative circuits with negative inner terms in
    which no exponent gets coefficients of both signs, each with at most 9
    free split weights."""
    from sonckit.forms import add_forms

    rng = random.Random(seed)
    sums = []
    while len(sums) < count:
        n = rng.randint(2, 3)
        degree = 2 * rng.randint(2, 3)
        pieces = [
            _random_nonneg_circuit(rng, n, degree, force_negative_inner=True)
            for _ in range(rng.randint(2, 3))
        ]
        if any(piece is None for piece in pieces):
            continue
        signs = {}
        for piece in pieces:
            for exponent, coeff in piece.terms.items():
                signs.setdefault(exponent, set()).add(coeff > 0)
        if any(len(kinds) > 1 for kinds in signs.values()):
            continue
        total = add_forms(*pieces)
        if _search_problem(total).size <= 9:
            sums.append(total)
    return sums


@pytest.fixture(scope="module")
def random_sums():
    return _random_cancellation_free_sums(1, 60)


def test_search_matches_adam_oracle_on_random_sums(random_sums):
    for total in random_sums:
        _search_against_oracle(total)


def test_search_certifies_random_cancellation_free_sums(random_sums):
    assert {_search_problem(total).size for total in random_sums} == set(range(10))
    open_forms = []
    for total in random_sums:
        outcome = sonc_feasibility_search(
            total, support_partition(total), SearchBudget(max_params=9)
        )
        if _certified(outcome):
            assert verify_decomposition(total, outcome.decomposition).valid, total
        else:
            assert outcome.status is SearchStatus.INCONCLUSIVE, (total, outcome)
            open_forms.append(str(total))
    # Both circuits of this sum sit on their threshold, so its only
    # certificate gives nothing to the other simplex covering x1^3*x2 (on
    # x1^4 and x2^4): a corner of the weight simplices that the search nears
    # (margin 2.7e-6) but does not reach.  The former Adam search left it
    # open too (7.8e-7).
    assert open_forms == [
        "4/3*x1^4 - 8/3*x1^3*x2 + 4/3*x1^2*x2^2 + x2^4 - 2*x2^3*x3 + x2^2*x3^2"
    ]


# ---------------------------------------------------------------------------
# the mirror descent against its former step, which recomputed the
# smoothed maximum for the gradient, the level and every trial
# ---------------------------------------------------------------------------

def _assert_descent_matches_reference(problem):
    # Exact float equality: the search's trajectory is unchanged.
    assert certify._optimize(problem) == search_oracle.reference_optimize(problem)


def test_search_descent_matches_reference_on_corpus(corpus_problems):
    searched = 0
    for name, _, problem in corpus_problems:
        if problem.size <= 9:
            assert certify._optimize(problem) == search_oracle.reference_optimize(
                problem
            ), name
            searched += 1
    assert searched == 7


@settings(max_examples=30, deadline=None)
@given(c=st.fractions(min_value=Fraction(1, 20), max_value=8, max_denominator=50))
def test_search_descent_matches_reference_on_trinomial_family(c):
    _assert_descent_matches_reference(_search_problem(_trinomial_family_form(c)))


def test_search_descent_matches_reference_on_random_sums(random_sums):
    for total in random_sums:
        problem = _search_problem(total)
        if problem.size:
            _assert_descent_matches_reference(problem)


def test_search_computes_one_smoothed_maximum_per_forward_pass():
    calls = {"smoothed": 0, "margins": 0}

    def counting(name, function):
        def counted(*args):
            calls[name] += 1
            return function(*args)

        return counted

    for name in ("robinson1", "separator_ternary"):
        problem = _search_problem(FORM_BUILDERS[name]())
        calls.update(smoothed=0, margins=0)
        with mock.patch.object(
            certify, "_smoothed_max", counting("smoothed", certify._smoothed_max)
        ), mock.patch.object(
            _SearchProblem, "margins", counting("margins", _SearchProblem.margins)
        ):
            certify._optimize(problem)
        # One per forward pass, and one more at each change of temperature.
        assert calls["margins"] > 0, name
        assert calls["smoothed"] <= calls["margins"] + len(certify._TAUS), (name, calls)


def test_reduction_transforms_preserve_exact_disproofs():
    from sonckit.forms import embed_variables, multiply_monomial_square

    def not_sonc_exact(f):
        report = _report(f)
        if report.verdict is ConditionVerdict.VIOLATED:
            return True
        return (
            report.verdict is ConditionVerdict.EQUALITY
            and report.corollary is not None
            and not report.corollary.passed
        )

    for f in (robinson1(), robinson2(), p_family(2, 6), q_family(3, 6)):
        assert not_sonc_exact(f), f.name
        assert not_sonc_exact(embed_variables(f, 1)), f.name
        assert not_sonc_exact(multiply_monomial_square(f, f.num_vars, 1)), f.name
