"""Parsing, serialization, evaluation, and the instance-building transforms."""

import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fraction_oracle as oracle

from sonckit.errors import DimensionMismatch, NotHomogeneous, ParseError
from sonckit.exactlp import EchelonSolver
from sonckit.forms import (
    add_forms,
    embed_variables,
    evaluate,
    evaluate_float,
    format_form,
    grlex_key,
    load_form_file,
    make_form,
    mul_forms,
    multiply_monomial_square,
    parse_form,
    save_form_file,
    scale_form,
    substitute_linear,
)
from sonckit.corpus import (
    FORM_BUILDERS,
    MOTZKIN_SHEAR,
    MOTZKIN_SHEAR_INVERSE,
    motzkin,
    p_family,
    q_family,
    robinson1,
)
from sonckit.report import analyze


def test_parse_motzkin():
    f = parse_form("x1^4*x2^2 + x1^2*x2^4 - 3*x1^2*x2^2*x3^2 + x3^6")
    assert f.num_vars == 3
    assert f.degree == 6
    assert len(f.terms) == 4
    assert f.terms[(2, 2, 2)] == Fraction(-3)
    assert f.terms[(0, 0, 6)] == Fraction(1)


def test_parse_cancellation_to_zero():
    f = parse_form("x1^2 - x1^2")
    assert f.is_zero
    assert f.degree == 2
    assert f.num_vars == 1


def test_parse_mixed_degrees_rejected():
    with pytest.raises(NotHomogeneous):
        parse_form("x1^2 + x2^3")


@pytest.mark.parametrize(
    "text",
    ["", "x1 +", "x0^2", "3//2*x1", "x1^0", "1/0*x1", "y1^2", "x1^2 * * x2"],
)
def test_parse_grammar_violations(text):
    with pytest.raises(ParseError):
        parse_form(text)


@pytest.mark.parametrize(
    "text, offset",
    [("x1 +", 2), ("3//2*x1", 1), ("y1^2", 0), ("x1^2 * * x2", 4), ("x1 x2", 2)],
)
def test_malformed_term_names_its_offset(text, offset):
    """Offsets count the characters of the text without its whitespace."""
    with pytest.raises(ParseError, match=f"offset {offset}:"):
        parse_form(text)


def _outcome(parse, text, num_vars):
    try:
        f = parse(text, num_vars=num_vars)
    except Exception as error:
        return type(error)
    return f.num_vars, f.degree, list(f.terms.items())


@st.composite
def _grammar_texts(draw):
    """Forms in the grammar, most of them homogeneous, with one-digit
    variable indices and whitespace between the tokens.  In half of them,
    the first index, exponent or denominator is set to zero."""
    space = st.sampled_from(["", "", " ", "\t", "\u00a0"])
    degree = draw(st.integers(0, 6))
    terms = []
    for _ in range(draw(st.integers(1, 4))):
        factors = []
        while sum(p for _, p in factors) < degree:
            factors.append((draw(st.integers(1, 9)), draw(st.integers(1, degree))))
        mono = f"{draw(space)}*{draw(space)}".join(
            f"x{i}" + (f"^{p}" if p > 1 or draw(st.booleans()) else "") for i, p in factors
        )
        coeff = str(draw(st.integers(0, 30)))
        if draw(st.booleans()):
            coeff += f"/{draw(st.integers(1, 12))}"
        if not mono:
            terms.append(coeff)
        else:
            terms.append(f"{coeff}*{mono}" if draw(st.booleans()) else mono)
    signs = [draw(st.sampled_from(["", "-", "+"]))]
    signs += [draw(st.sampled_from(["-", "+"])) for _ in terms[1:]]
    text = "".join(f"{sign}{draw(space)}{term}{draw(space)}" for sign, term in zip(signs, terms))
    zero = draw(st.sampled_from(["", "", "", "x", "^", "/"]))
    return re.sub(re.escape(zero) + r"\d+", zero + "0", text, count=1) if zero else text


# Arbitrary strings over the grammar's characters, Unicode whitespace and
# digits, a superscript two and a stray letter.  An index of ``k`` digits
# builds a tuple of about ``10**k`` entries, so each ``x`` keeps one digit.
_arbitrary_texts = st.text(alphabet="x0123456789+-*/^ \t\u00a0\u0663\u00b2y", max_size=30).map(
    lambda text: re.sub(r"x(\s*\d)[\s\d]*", r"x\1", text)
)


@settings(max_examples=1000)
@given(
    st.one_of(_grammar_texts(), _arbitrary_texts),
    st.none() | st.integers(0, 9),
)
def test_parse_form_matches_the_recursive_descent_oracle(text, num_vars):
    assert _outcome(parse_form, text, num_vars) == _outcome(oracle.parse_form, text, num_vars)


def test_parse_rational_coefficients_and_repeated_factors():
    f = parse_form("1/2*x1*x1 - 3/4*x2^2")
    assert f.terms[(2, 0)] == Fraction(1, 2)
    assert f.terms[(0, 2)] == Fraction(-3, 4)


def test_parse_bare_constant():
    f = parse_form("3", num_vars=2)
    assert f.degree == 0
    assert f.terms[(0, 0)] == 3


def test_round_trip_on_corpus():
    for builder in FORM_BUILDERS.values():
        f = builder()
        again = parse_form(format_form(f), num_vars=f.num_vars)
        assert again == f, f.name


def test_round_trip_zero_form_keeps_degree():
    zero = make_form(3, {}, zero_degree=6)
    again = parse_form(format_form(zero))
    assert again.is_zero and again.degree == 6 and again.num_vars == 3


def test_canonical_term_order_is_graded_lex():
    f = parse_form("x3^6 - 3*x1^2*x2^2*x3^2 + x1^2*x2^4 + x1^4*x2^2")
    assert list(f.terms.keys()) == [(4, 2, 0), (2, 4, 0), (2, 2, 2), (0, 0, 6)]


@pytest.mark.parametrize("exponent", [(2.5, 1.5), ("2", 1)])
def test_make_form_rejects_non_integral_exponent_entries(exponent):
    with pytest.raises(ValueError, match=r"exponent \(.*\)"):
        make_form(2, {exponent: 1})


def test_make_form_accepts_integral_exponent_entries():
    f = make_form(2, [((2, 1), 1), ((2.0, 1.0), 1)])
    assert list(f.terms.items()) == [((2, 1), Fraction(2))]
    assert all(type(e) is int for e in next(iter(f.terms)))


_BUILT = {
    **FORM_BUILDERS,
    **{f"p_{n}_{d}": (lambda n=n, d=d: p_family(n, d)) for n, d in [(4, 6), (6, 8), (9, 6)]},
    **{f"q_{n}_{d}": (lambda n=n, d=d: q_family(n, d)) for n, d in [(4, 6), (5, 4), (6, 10)]},
}


@pytest.mark.parametrize("name", _BUILT)
def test_built_forms_are_named_and_canonical(name):
    """Builders rename their last form with ``dataclasses.replace``, and
    the arithmetic and the monomial transforms lay out terms without
    ``make_form``: each result must still be what ``make_form`` would
    make of its terms, in graded-lex descending order."""
    f = _BUILT[name]()
    assert f.name == name
    for g in (f, embed_variables(f, 1), multiply_monomial_square(f, f.num_vars, 1)):
        keys = [grlex_key(e) for e in g.terms]
        assert keys == sorted(keys, reverse=True)
        assert list(make_form(g.num_vars, g.terms).terms.items()) == list(g.terms.items())


def test_file_round_trip(tmp_path):
    path = tmp_path / "form.poly"
    save_form_file(str(path), motzkin())
    loaded = load_form_file(str(path))
    assert loaded == motzkin()
    assert loaded.name == "motzkin"


def test_file_round_trip_keeps_unused_variables(tmp_path):
    path = tmp_path / "form.poly"
    f = embed_variables(p_family(2, 6), 1)
    save_form_file(str(path), f)
    assert "# vars: 3\n" in path.read_text(encoding="utf-8")
    loaded = load_form_file(str(path))
    assert loaded == f and loaded.num_vars == 3
    assert not analyze(loaded).hilbert_case


def test_file_without_vars_line_counts_the_indices_used(tmp_path):
    path = tmp_path / "form.poly"
    path.write_text("# name: binary\nx1^6 + x2^6\n", encoding="utf-8")
    loaded = load_form_file(str(path))
    assert loaded.num_vars == 2 and loaded.name == "binary"


@pytest.mark.parametrize("value", ["three", "-1", "2.0", ""])
def test_file_with_malformed_vars_line_is_rejected(tmp_path, value):
    path = tmp_path / "form.poly"
    path.write_text(f"# vars: {value}\nx1^2\n", encoding="utf-8")
    with pytest.raises(ParseError, match="vars"):
        load_form_file(str(path))


def test_file_with_too_few_declared_vars_is_rejected(tmp_path):
    path = tmp_path / "form.poly"
    path.write_text("# vars: 1\nx1^2 + x2^2\n", encoding="utf-8")
    with pytest.raises(ParseError, match="exceeds the declared 1 variables"):
        load_form_file(str(path))


def test_evaluate_robinson_values():
    r1 = robinson1()
    assert evaluate(r1, (0, 0, 1)) == 1
    assert evaluate(r1, (1, 1, 1)) == 0


def test_evaluate_all_ones_is_coefficient_sum():
    for builder in FORM_BUILDERS.values():
        f = builder()
        ones = (1,) * f.num_vars
        assert evaluate(f, ones) == sum(f.terms.values())


def test_evaluate_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        evaluate(motzkin(), (1, 2))


def test_evaluate_float():
    m = motzkin()
    assert abs(evaluate_float(m, (1.0, 1.0, 1.0))) <= 1e-12
    assert evaluate_float(m, (1.0, 0.0, 0.0)) == 0.0
    zero = make_form(2, {}, zero_degree=4)
    assert evaluate_float(zero, (3.0, 4.0)) == 0.0


def test_evaluate_respects_ring_operations():
    rng = random.Random(11)
    f = motzkin()
    g = robinson1()
    total = add_forms(f, g)
    for _ in range(25):
        point = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(3))
        assert evaluate(total, point) == evaluate(f, point) + evaluate(g, point)


def test_homogeneity_under_scaling():
    rng = random.Random(12)
    for builder in (motzkin, robinson1):
        f = builder()
        for _ in range(10):
            t = Fraction(rng.randint(1, 7), rng.randint(1, 7))
            point = tuple(
                Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                for _ in range(f.num_vars)
            )
            scaled = tuple(t * v for v in point)
            assert evaluate(f, scaled) == t**f.degree * evaluate(f, point)


def test_embed_variables():
    m = motzkin()
    wide = embed_variables(m, 1)
    assert wide.num_vars == 4
    assert wide.degree == 6
    assert set(wide.terms) == {e + (0,) for e in m.terms}
    assert embed_variables(m, 0) == m


def test_multiply_monomial_square():
    m = motzkin()
    shifted = multiply_monomial_square(m, 3, 1)
    assert shifted.degree == 8
    assert set(shifted.terms) == {
        (e[0], e[1], e[2] + 2) for e in m.terms
    }
    twice = multiply_monomial_square(multiply_monomial_square(m, 3, 1), 3, 1)
    assert twice == multiply_monomial_square(m, 3, 2)


def test_substitute_identity():
    m = motzkin()
    identity = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert substitute_linear(m, identity) == m


def test_substitute_inverse_recovers_motzkin():
    sheared = substitute_linear(motzkin(), MOTZKIN_SHEAR)
    assert substitute_linear(sheared, MOTZKIN_SHEAR_INVERSE) == motzkin()


def _rational_inverse(matrix):
    n = len(matrix)
    solver = EchelonSolver(matrix)
    columns = []
    for i in range(n):
        unit = [Fraction(int(j == i)) for j in range(n)]
        column = solver.solve(unit)
        assert column is not None
        columns.append(column)
    return [[columns[j][i] for j in range(n)] for i in range(n)]


def test_substitute_then_inverse_is_identity_on_random_matrices():
    rng = random.Random(13)
    m = motzkin()
    produced = 0
    while produced < 8:
        matrix = [
            [Fraction(rng.randint(-2, 2)) for _ in range(3)] for _ in range(3)
        ]
        solver = EchelonSolver(matrix)
        if solver.rank != 3:
            continue
        produced += 1
        inverse = _rational_inverse(matrix)
        assert substitute_linear(substitute_linear(m, matrix), inverse) == m


def test_substitute_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        substitute_linear(motzkin(), [[1, 0], [0, 1]])


def test_mul_and_scale():
    x2 = parse_form("x1^2", num_vars=2)
    y2 = parse_form("x2^2", num_vars=2)
    assert mul_forms(x2, y2) == parse_form("x1^2*x2^2")
    assert scale_form(x2, Fraction(1, 2)) == parse_form("1/2*x1^2", num_vars=2)
    with pytest.raises(NotHomogeneous):
        add_forms(x2, parse_form("x1^4", num_vars=2))
