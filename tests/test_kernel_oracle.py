"""Differential tests: the integer kernel against the ``Fraction`` oracle.

Every routine must return exactly what the ``Fraction`` implementation in
``fraction_oracle`` returns: the same rank, the same solution vector, the
same LP weights (hence the same pivot path), the same value and the same
sampling-check string.  The form arithmetic on integer numerators must
build the same terms, in the same order, with the same degree and variable
count as the ``Fraction`` arithmetic before it.
"""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fraction_oracle as oracle
from sonckit import exactlp
from sonckit.corpus import (
    _SAMPLING_ALPHABET,
    FORM_BUILDERS,
    _check_sampling_nonneg,
    _sampling_codes,
)
from sonckit.errors import AffinelyDependentInput, DimensionMismatch
from sonckit.exactlp import (
    EchelonSolver,
    integer_numerators,
    matrix_rank,
    point_in_hull,
    simplex_feasible,
)
from sonckit.forms import (
    add_forms,
    embed_variables,
    evaluate,
    evaluate_columns,
    evaluate_many,
    form_power,
    make_form,
    mul_forms,
    multiply_monomial_square,
    parse_form,
    scale_form,
    substitute_linear,
)
from sonckit.geometry import barycentric_coordinates
from sonckit.report import analyze


def _entry(rng, fractions):
    value = rng.randint(-4, 4)
    if fractions and rng.random() < 0.5:
        return Fraction(value, rng.randint(1, 6))
    return value


def _random_matrix(rng, nrows, ncols, fractions=False):
    """A matrix that is rank-deficient about half the time: some rows are
    rational combinations of others."""
    rows = [[_entry(rng, fractions) for _ in range(ncols)] for _ in range(nrows)]
    if nrows > 1 and rng.random() < 0.5:
        for i in rng.sample(range(nrows), rng.randint(1, nrows - 1)):
            a, b = rng.sample(range(nrows), 2)
            s, t = Fraction(rng.randint(-3, 3), rng.randint(1, 3)), rng.randint(-2, 2)
            rows[i] = [s * x + t * y for x, y in zip(rows[a], rows[b])]
    return rows


def _right_sides(rng, rows, fractions):
    """A consistent right side (rows @ x) and an arbitrary one, which is
    inconsistent whenever the matrix is rank-deficient and it misses the
    column space."""
    ncols = len(rows[0])
    x = [_entry(rng, fractions) for _ in range(ncols)]
    consistent = [sum((a * v for a, v in zip(row, x)), Fraction(0)) for row in rows]
    arbitrary = [_entry(rng, fractions) for _ in rows]
    return [consistent, arbitrary]


def _assert_solver_agrees(rows, right_sides):
    solver, reference = EchelonSolver(rows), oracle.EchelonSolver(rows)
    assert (solver.rank, solver.unique) == (reference.rank, reference.unique)
    assert matrix_rank(rows) == oracle.matrix_rank(rows) == reference.rank
    for rhs in right_sides:
        expected = reference.solve(rhs)
        assert solver.solve(rhs) == expected
        assert EchelonSolver(rows).solve(rhs) == expected
        numerators, common = integer_numerators(rhs)
        if common == 1:
            integral = solver.solve_numerators(numerators)
            assert (integral is None) == (expected is None)
            if integral is not None:
                assert [Fraction(v, solver.denominator) for v in integral] == expected


def _assert_lp_agrees(rows, rhs):
    assert simplex_feasible(rows, rhs) == oracle.simplex_feasible(rows, rhs)


def test_integer_numerators():
    assert integer_numerators([1, -2, 0]) == ([1, -2, 0], 1)
    assert integer_numerators([Fraction(1, 2), Fraction(-2, 3), 1, "1/4"]) == (
        [6, -8, 12, 3],
        12,
    )
    assert integer_numerators([]) == ([], 1)


def test_linear_algebra_matches_oracle_seeded():
    rng = random.Random(2024)
    for trial in range(400):
        fractions = trial % 2 == 1
        rows = _random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6), fractions)
        _assert_solver_agrees(rows, _right_sides(rng, rows, fractions))


def test_linear_algebra_edge_cases():
    cases = [
        [[0, 0], [0, 0]],
        [[0, 0, 0]],
        [[1, 2], [2, 4], [3, 6]],
        [[0, 1], [1, 0]],
        [[Fraction(1, 3), Fraction(2, 3)], [1, 2]],
        [[-2, 4, 6], [1, -2, -3], [0, 0, 1]],
    ]
    for rows in cases:
        zero = [0] * len(rows)
        ones = [1] * len(rows)
        _assert_solver_agrees(rows, [zero, ones, [Fraction(1, 2)] * len(rows)])


def test_lp_matches_oracle_seeded():
    rng = random.Random(7)
    for trial in range(300):
        fractions = trial % 3 == 2
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 7)
        rows = _random_matrix(rng, nrows, ncols, fractions)
        if rng.random() < 0.5:
            # Feasible by construction; zero entries in x make it degenerate.
            x = [rng.choice([0, 0, 1, Fraction(1, 2), 3]) for _ in range(ncols)]
            rhs = [sum((a * v for a, v in zip(row, x)), Fraction(0)) for row in rows]
        else:
            rhs = [_entry(rng, fractions) for _ in range(nrows)]
        _assert_lp_agrees(rows, rhs)


def test_lp_degenerate_cases():
    # Zero right sides, duplicated columns and repeated rows.
    _assert_lp_agrees([[1, 1, -1], [2, 2, -2]], [0, 0])
    _assert_lp_agrees([[1, 1, 1], [1, 1, 1]], [2, 2])
    _assert_lp_agrees([[1, -1], [-1, 1]], [0, 0])
    _assert_lp_agrees([[0, 0]], [0])
    _assert_lp_agrees([[0, 0]], [1])
    _assert_lp_agrees([[Fraction(1, 2), Fraction(1, 3)], [1, 1]], [Fraction(-1, 6), 1])


def _entering_columns(monkeypatch, rows, rhs):
    """``simplex_feasible(rows, rhs)`` and the column of each pivot it made."""
    columns, pivot = [], exactlp._pivot

    def recording(tableau, scales, top, col, previous):
        columns.append(col)
        return pivot(tableau, scales, top, col, previous)

    monkeypatch.setattr(exactlp, "_pivot", recording)
    return simplex_feasible(rows, rhs), columns


# On these two systems Bland's rule over a tableau that stores the
# artificial columns pivots on columns 0 and 1 and then brings an
# artificial column back in (column 2 and column 4); without those
# columns the loop stops after the same first two pivots.
_INFEASIBLE_REENTRY = ([[-1, 0], [1, 1], [-1, 1]], [-1, 2, 1])
_DEGENERATE_REENTRY = ([[1, 0], [0, -2], [-1, 1]], [2, -2, -1])


def test_lp_stops_before_an_artificial_column_would_reenter(monkeypatch):
    rows, rhs = _INFEASIBLE_REENTRY
    assert oracle.simplex_feasible(rows, rhs) is None
    assert _entering_columns(monkeypatch, rows, rhs) == (None, [0, 1])
    rows, rhs = _DEGENERATE_REENTRY
    expected = oracle.simplex_feasible(rows, rhs)
    assert expected == [Fraction(2), Fraction(1)]
    assert _entering_columns(monkeypatch, rows, rhs) == (expected, [0, 1])


def test_point_in_hull_of_no_generators_runs_one_lp(monkeypatch):
    calls = []

    def counting(rows, rhs):
        weights = simplex_feasible(rows, rhs)
        calls.append(weights)
        return weights

    monkeypatch.setattr(exactlp, "simplex_feasible", counting)
    assert point_in_hull((1, 2), []) is None
    assert point_in_hull((), []) is None
    assert calls == [None, None]


def test_point_in_hull_matches_oracle_on_boundaries():
    rng = random.Random(99)
    for _ in range(150):
        n = rng.randint(1, 4)
        generators = [
            tuple(rng.randint(0, 6) for _ in range(n)) for _ in range(rng.randint(1, 7))
        ]
        picks = [
            rng.choice(generators),  # a vertex or a repeated point
            tuple(Fraction(a + b, 2) for a, b in zip(*rng.sample(generators * 2, 2))),
            tuple(rng.randint(0, 6) for _ in range(n)),
        ]
        for point in picks:
            assert point_in_hull(point, generators) == oracle.point_in_hull(
                point, generators
            )


def test_hull_lp_on_halved_supports_matches_oracle():
    for builder in FORM_BUILDERS.values():
        f = builder()
        halved = [tuple(Fraction(e, 2) for e in exponent) for exponent in f.terms]
        for point in f.terms:
            assert point_in_hull(point, halved) == oracle.point_in_hull(point, halved)


def _weighted_point(vertices, weights):
    """``(beta, scaled)`` with ``beta = sum w_i v_i`` and every vertex scaled
    by ``sum(w)``, so that ``beta`` has the weights ``w / sum(w)`` over the
    scaled vertices; it is in their relative interior exactly when every
    ``w_i`` is positive."""
    total = sum(weights)
    beta = tuple(
        sum(w * v[i] for w, v in zip(weights, vertices)) for i in range(len(vertices[0]))
    )
    return beta, [tuple(total * x for x in v) for v in vertices]


def _assert_barycentric_agrees(beta, vertices):
    """The weights of ``beta`` equal the ``Fraction`` oracle's, and a
    dependent vertex list raises; returns the weights, or ``"dependent"``."""
    if not oracle.affinely_independent(vertices):
        with pytest.raises(AffinelyDependentInput):
            barycentric_coordinates(beta, vertices)
        return "dependent"
    expected = oracle.barycentric_coordinates(beta, vertices)
    assert barycentric_coordinates(beta, vertices) == expected
    return expected


def test_barycentric_coordinates_match_oracle_seeded():
    rng = random.Random(19)
    seen = set()
    for _ in range(400):
        n = rng.randint(2, 5)
        vertices = [
            tuple(rng.randint(0, 6) for _ in range(n)) for _ in range(rng.randint(1, n + 1))
        ]
        k = len(vertices)
        kind = rng.choice(
            ["interior", "off", "dependent"] + (["boundary", "outside"] if k > 1 else [])
        )
        weights = [rng.randint(1, 4) for _ in range(k)]
        if kind == "boundary":
            weights[rng.randrange(k)] = 0
        elif kind == "outside":
            i, j = rng.sample(range(k), 2)
            weights[i], weights[j] = -weights[i], weights[j] + 2 * weights[i]
        beta, scaled = _weighted_point(vertices, weights)
        if kind == "off":
            beta = tuple(rng.randint(0, 12) for _ in range(n))
        elif kind == "dependent":
            a, b = rng.choice(scaled), rng.choice(scaled)
            scaled.insert(rng.randint(0, k), tuple(2 * x - y for x, y in zip(a, b)))
        result = _assert_barycentric_agrees(beta, scaled)
        if kind == "dependent":
            assert result == "dependent"
        elif result != "dependent" and kind != "off":
            total = sum(weights)
            interior = tuple(Fraction(w, total) for w in weights)
            assert result == (interior if kind == "interior" else None), (beta, scaled)
        seen.add((kind, result is None))
    assert {("interior", False), ("boundary", True), ("outside", True)} <= seen
    assert {("off", True), ("off", False), ("dependent", False)} <= seen


@st.composite
def _barycentric_cases(draw):
    """Integer vertices in 2-5 variables, one more than an affinely
    independent set now and then, and a point with integer weights over
    them (some zero or negative) or an arbitrary integer point."""
    n = draw(st.integers(2, 5))
    entry = st.integers(0, 6)
    vertices = draw(st.lists(st.tuples(*[entry] * n), min_size=1, max_size=n + 2))
    weights = draw(st.lists(st.integers(-2, 4), min_size=len(vertices), max_size=len(vertices)))
    if sum(weights) > 0:
        return _weighted_point(vertices, weights)
    return draw(st.tuples(*[st.integers(0, 12)] * n)), vertices


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_barycentric_cases())
@example(((2, 2), [(0, 0), (4, 0), (0, 4)]))  # relative interior
@example(((2, 2), [(0, 0), (4, 0), (0, 4), (4, 4)]))  # dependent
@example(((2, 0), [(0, 0), (4, 0), (0, 4)]))  # boundary
@example(((3, 3), [(0, 0), (4, 0), (0, 4)]))  # off the hull
@example(((1, 1, 1), [(0, 0, 0), (2, 2, 0)]))  # off the affine hull
def test_barycentric_coordinates_match_oracle_hypothesis(case):
    beta, vertices = case
    _assert_barycentric_agrees(beta, vertices)


def test_evaluate_matches_oracle_seeded():
    rng = random.Random(5)
    forms = [builder() for builder in FORM_BUILDERS.values()]
    forms.append(make_form(3, {}, zero_degree=4))
    for f in forms:
        for _ in range(25):
            point = tuple(_entry(rng, True) for _ in range(f.num_vars))
            assert evaluate(f, point) == oracle.evaluate(f, point)
        text = tuple(
            str(Fraction(rng.randint(-5, 5), rng.randint(1, 5))) for _ in range(f.num_vars)
        )
        assert evaluate(f, text) == oracle.evaluate(f, text)


def _assert_many_agrees(f, points):
    numerators, denominator = evaluate_many(f, points)
    assert denominator > 0 and len(numerators) == len(points)
    for point, numerator in zip(points, numerators):
        assert Fraction(numerator, denominator) == oracle.evaluate(f, point)


def test_evaluate_many_matches_oracle_seeded():
    rng = random.Random(11)
    forms = [builder() for builder in FORM_BUILDERS.values()]
    forms.append(make_form(3, {}, zero_degree=4))  # the zero form
    forms.append(make_form(3, {(0, 0, 0): Fraction(-7, 3)}))  # degree 0
    for f in forms:
        n = f.num_vars
        _assert_many_agrees(f, [])
        _assert_many_agrees(f, [tuple(_entry(rng, True) for _ in range(n))])
        _assert_many_agrees(f, [(0,) * n, (-1,) * n, (Fraction(-1, 2),) * n])
        # Every coordinate over its own denominator, zeros and signs mixed.
        mixed = [
            tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(n))
            for _ in range(40)
        ]
        _assert_many_agrees(f, mixed)
        for _ in range(5):
            batch = [
                tuple(_entry(rng, True) for _ in range(n))
                for _ in range(rng.randint(2, 30))
            ]
            _assert_many_agrees(f, batch)


@pytest.mark.parametrize("size", [0, 1, 1000])
def test_evaluate_many_shared_power_columns_match_oracle(size):
    # (variable, power) pairs shared by two or three terms next to pairs
    # that occur once; x2^4 must not reuse the x2^2 column.
    rng = random.Random(size)
    forms = [
        FORM_BUILDERS["motzkin"](),
        parse_form("x1^4*x2^2 + x1^2*x2^4 - 3*x1^2*x2^2*x3^2 + x3^6 + 1/2*x1^2*x3^4"),
        parse_form("x1^2*x2^2 - 2/3*x1^2*x3^2 + x2^2*x3^2 + x1^4 + x2^4 - x3^4"),
    ]
    for f in forms:
        points = [
            tuple(_entry(rng, True) for _ in range(f.num_vars)) for _ in range(size)
        ]
        _assert_many_agrees(f, points)
        integer_points = [
            tuple(rng.randint(-24, 24) for _ in range(f.num_vars)) for _ in range(size)
        ]
        _assert_many_agrees(f, integer_points)


def test_evaluate_many_rejects_any_wrong_length_point():
    f = parse_form("x1^2 - x2*x3")
    good = (1, Fraction(1, 2), -3)
    for bad in [(1, 2), (1, 2, 3, 4), ()]:
        for position in range(3):
            batch = [good, good]
            batch.insert(position, bad)
            with pytest.raises(DimensionMismatch) as error:
                evaluate_many(f, batch)
            assert str(error.value) == (
                f"point has {len(bad)} coordinates, form has 3 variables"
            )
    with pytest.raises(DimensionMismatch, match="point has 2 coordinates"):
        evaluate(f, (1, 2))


def test_evaluate_columns_rejects_malformed_batches():
    f = parse_form("x1^2 + x2^2")
    with pytest.raises(DimensionMismatch, match="1 columns given, form has 2 variables"):
        evaluate_columns(f, [[1, 2, 3]], 3)
    with pytest.raises(DimensionMismatch, match="3 columns given, form has 2 variables"):
        evaluate_columns(f, [[1], [2], [3]], 1)
    # A short column once made map() truncate the batch to one value.
    with pytest.raises(DimensionMismatch, match="column of x2 has 1 entries, expected 3"):
        evaluate_columns(f, [[1, 2, 3], [1]], 3)
    with pytest.raises(DimensionMismatch, match="column of x1 has 3 entries, expected 2"):
        evaluate_columns(f, [[1, 2, 3], [1, 2]], 2)
    with pytest.raises(ValueError, match="size must be nonnegative, got -1"):
        evaluate_columns(f, [[], []], -1)
    assert evaluate_columns(f, [[1, 2, 3], [1, 2, 3]], 3) == ([2, 8, 18], 1)


# ---------------------------------------------------------------------------
# the corpus sampling check
# ---------------------------------------------------------------------------

#: The first sampled point of "neg" is negative almost at once.
_INDEFINITE = "x1^2 - 2*x1*x2 + x2^2 - x3^2"
#: Negative only on the x3 axis; the first such draw of "needle" is point
#: 1252, in the second batch.
_NEEDLE = "x1^2 + x2^2 - 1/1152*x3^2"


def _sampling(f, count):
    return _check_sampling_nonneg(f, analyze(f), str(count))


#: The first four Mersenne words of this seed all give 49 or more, so
#: every round of a draw of one or two coordinates rejects all it drew,
#: more than once in a row.
_REJECTING = "rejects119"


@pytest.mark.parametrize("name", ["motzkin", "choi_lam_q1", "neg", "needle", _REJECTING])
@pytest.mark.parametrize("k", [0, 1, 2999, 3000, 3001, 50000])
def test_sampling_draws_are_those_of_randint(name, k):
    # k = 3000 is one batch of three-variable points; 50 000 coordinates
    # hold about 15 000 rejected draws.
    rng = random.Random(f"sampling:{name}")
    reference = random.Random(f"sampling:{name}")
    drawn = _sampling_codes(rng, k)
    assert type(drawn) is bytes
    assert [b - 24 for b in drawn] == [reference.randint(-24, 24) for _ in range(k)]
    assert rng.getstate() == reference.getstate()


def test_sampling_draws_continue_across_batches():
    # The check draws one batch of 1000 three-variable points per call.
    for name in ("needle", _REJECTING):
        rng = random.Random(f"sampling:{name}")
        reference = random.Random(f"sampling:{name}")
        drawn = b""
        while len(drawn) < 50000:
            drawn += _sampling_codes(rng, min(3000, 50000 - len(drawn)))
        assert [b - 24 for b in drawn] == [reference.randint(-24, 24) for _ in range(50000)]
    # One coordinate per call: each call makes five rounds or more at first.
    rng = random.Random(f"sampling:{_REJECTING}")
    reference = random.Random(f"sampling:{_REJECTING}")
    drawn = [_sampling_codes(rng, 1)[0] for _ in range(200)]
    assert [b - 24 for b in drawn] == [reference.randint(-24, 24) for _ in range(200)]
    assert rng.getstate() == reference.getstate()


def test_sampling_check_matches_oracle_on_corpus_forms():
    for name in ("motzkin", "motzkin_bcj", "choi_lam_q1", "choi_lam_q2"):
        f = FORM_BUILDERS[name]()
        assert _sampling(f, 10000) == oracle.sampling_nonneg(f, 10000) == "ok"


@pytest.mark.parametrize("name", ["motzkin", "motzkin_bcj", "choi_lam_q1", "choi_lam_q2"])
def test_sampling_batch_values_match_oracle(name):
    # The "ok" rows pin only that no value is negative; pin every value of
    # the first batch the check draws.
    f = FORM_BUILDERS[name]()
    n = f.num_vars
    drawn = _sampling_codes(random.Random(f"sampling:{name}"), n * 1000)
    values, denominator = evaluate_columns(
        f, [drawn[i::n] for i in range(n)], 1000, alphabet=_SAMPLING_ALPHABET
    )
    assert len(values) == 1000
    flat = [b - 24 for b in drawn]
    for j, value in enumerate(values):
        assert Fraction(value, denominator) == oracle.evaluate(f, flat[j * n:(j + 1) * n])


def test_sampling_check_reports_the_first_negative_draw():
    f = parse_form(_INDEFINITE, name="neg")
    expected = "negative at (Fraction(17, 8), Fraction(1, 4), Fraction(-21, 8))"
    assert _sampling(f, 100) == oracle.sampling_nonneg(f, 100) == expected


@pytest.mark.parametrize("count", [0, 1, 999, 1000, 1001, 1252, 1253, 2500])
def test_sampling_check_draw_order_across_batches(count):
    for f in (
        parse_form(_INDEFINITE, name="neg"),
        parse_form(_NEEDLE, name="needle"),
    ):
        assert _sampling(f, count) == oracle.sampling_nonneg(f, count)
    needle = _sampling(parse_form(_NEEDLE, name="needle"), count)
    assert needle == (
        "negative at (Fraction(0, 1), Fraction(0, 1), Fraction(-3, 4))"
        if count > 1252
        else "ok"
    )


# ---------------------------------------------------------------------------
# hypothesis
# ---------------------------------------------------------------------------

_rationals = st.one_of(
    st.integers(-5, 5),
    st.fractions(min_value=-5, max_value=5, max_denominator=7),
)


@st.composite
def _systems(draw):
    nrows, ncols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    row = st.lists(_rationals, min_size=ncols, max_size=ncols)
    rows = draw(st.lists(row, min_size=nrows, max_size=nrows))
    # Repeat a scaled row now and then to force rank deficiency.
    if nrows > 1 and draw(st.booleans()):
        scale = draw(_rationals)
        rows[-1] = [scale * v for v in rows[0]]
    rhs = draw(st.lists(_rationals, min_size=nrows, max_size=nrows))
    return rows, rhs


@settings(max_examples=200, deadline=None)
@given(_systems())
def test_linear_algebra_matches_oracle_hypothesis(system):
    rows, rhs = system
    _assert_solver_agrees(rows, [rhs, [0] * len(rows)])


@settings(max_examples=200, deadline=None)
@given(_systems())
def test_lp_matches_oracle_hypothesis(system):
    rows, rhs = system
    _assert_lp_agrees(rows, rhs)


@st.composite
def _zero_heavy_systems(draw):
    """Systems with at least half their entries 0 and now and then whole
    zero columns, so that most pivots leave most rows untouched and rows
    go stale across several pivots before one rewrites them."""
    nrows, ncols = draw(st.integers(1, 6)), draw(st.integers(1, 7))
    nonzero = _rationals.filter(bool)
    cells = nrows * ncols
    filled = draw(st.sets(st.integers(0, cells - 1), max_size=cells // 2))
    zero_columns = draw(st.sets(st.integers(0, ncols - 1), max_size=ncols // 2))
    rows = [[0] * ncols for _ in range(nrows)]
    for cell in sorted(filled):
        i, j = divmod(cell, ncols)
        if j not in zero_columns:
            rows[i][j] = draw(nonzero)
    if draw(st.booleans()):
        # Feasible by construction, with zeros in x: degenerate pivots.
        x = draw(st.lists(st.sampled_from([0, 0, 1, Fraction(1, 2), 3]), min_size=ncols, max_size=ncols))
        rhs = [sum((a * v for a, v in zip(row, x)), Fraction(0)) for row in rows]
    else:
        rhs = draw(st.lists(st.one_of(st.just(0), _rationals), min_size=nrows, max_size=nrows))
    return rows, rhs


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_zero_heavy_systems())
def test_kernel_matches_oracle_on_zero_heavy_systems(system):
    rows, rhs = system
    _assert_lp_agrees(rows, rhs)
    _assert_solver_agrees(rows, [rhs, [0] * len(rows), [1] * len(rows)])


def _draw_form(draw, num_vars, degree, max_terms=6):
    # A monomial of the degree, as the multiset of its variables.
    monomials = st.lists(st.integers(0, num_vars - 1), min_size=degree, max_size=degree)
    terms = draw(st.lists(st.tuples(monomials, _rationals), max_size=max_terms))
    return make_form(
        num_vars,
        [(tuple(m.count(i) for i in range(num_vars)), c) for m, c in terms],
        zero_degree=degree,
    )


@st.composite
def _forms(draw):
    return _draw_form(draw, draw(st.integers(1, 4)), draw(st.integers(0, 6)))


def _points(f):
    return st.lists(_rationals, min_size=f.num_vars, max_size=f.num_vars)


@st.composite
def _forms_and_points(draw):
    f = draw(_forms())
    return f, draw(_points(f))


@st.composite
def _forms_and_batches(draw):
    f = draw(_forms())
    return f, draw(st.lists(_points(f), max_size=8))


@settings(max_examples=200, deadline=None)
@given(_forms_and_points())
def test_evaluate_matches_oracle_hypothesis(case):
    f, point = case
    assert evaluate(f, point) == oracle.evaluate(f, point)


@settings(max_examples=200, deadline=None)
@given(_forms_and_batches())
def test_evaluate_many_matches_oracle_hypothesis(case):
    f, points = case
    _assert_many_agrees(f, points)


@st.composite
def _column_cases(draw):
    """A form with coefficients 1 and -1 among other rationals and
    exponents 1 among higher ones, in 0-4 variables, with a batch of 0-8
    integer points for :func:`evaluate_columns` and one of 0-8 points
    mixing ints and ``Fraction``s for :func:`evaluate_many`."""
    num_vars = draw(st.integers(0, 4))
    degree = draw(st.integers(0, 6)) if num_vars else 0
    monomials = st.lists(
        st.integers(0, max(num_vars - 1, 0)), min_size=degree, max_size=degree
    )
    coefficients = st.one_of(st.sampled_from([1, -1]), _rationals)
    terms = draw(st.lists(st.tuples(monomials, coefficients), max_size=6))
    f = make_form(
        num_vars,
        [(tuple(m.count(i) for i in range(num_vars)), c) for m, c in terms],
        zero_degree=degree,
    )
    integer_point = st.lists(st.integers(-24, 24), min_size=num_vars, max_size=num_vars)
    integer_points = draw(st.lists(integer_point, max_size=8))
    return f, integer_points, draw(st.lists(_points(f), max_size=8))


_TERMS_OF_EVERY_KIND = parse_form("x1*x2^2 - 3/2*x1^2*x3 + x3^3 - x2*x3^2 + 2/7*x2^3")


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_column_cases())
@example((make_form(3, {}, zero_degree=4), [], []))  # zero form, empty batches
@example((make_form(2, {}, zero_degree=2), [[1, -2], [0, 3]], [[1, Fraction(1, 2)]]))
@example((make_form(0, {(): Fraction(-7, 3)}), [[], []], [[]]))  # no variables
@example((make_form(2, {(0, 0): 5}), [[1, 2]], [[Fraction(1, 3), 4], [0, -1]]))
@example((
    _TERMS_OF_EVERY_KIND,
    [[1, -2, 3], [0, 24, -24], [-1, -1, -1]],
    [[1, Fraction(-2, 3), 5], [Fraction(1, 4), 0, Fraction(-7, 2)], [0, 0, 0]],
))
def test_evaluate_columns_and_many_match_oracle(case):
    f, integer_points, points = case
    columns = [[point[i] for point in integer_points] for i in range(f.num_vars)]
    inputs = [list(column) for column in columns]
    values, denominator = evaluate_columns(f, columns, len(integer_points))
    assert columns == inputs  # power-1 columns are shared, never written
    assert denominator > 0 and len(values) == len(integer_points)
    for point, value in zip(integer_points, values):
        assert Fraction(value, denominator) == oracle.evaluate(f, point)
    _assert_many_agrees(f, points)


# ---------------------------------------------------------------------------
# the Horner schedule of evaluate_columns
# ---------------------------------------------------------------------------

def _monomials(num_vars, degree, cap):
    return [
        e for e in itertools.product(range(cap + 1), repeat=num_vars) if sum(e) == degree
    ]


@st.composite
def _shared_factor_cases(draw):
    """8-14 terms with coefficients 1 and -1, degree up to 8 and single
    exponents up to 7, at least two of them multiples of one drawn factor
    of degree 1 or more, with a batch of 0-8 integer points."""
    num_vars = draw(st.integers(2, 4))
    # The least degree with eight monomials or more whose exponents are <= 7.
    degree = draw(st.integers({2: 7, 3: 3, 4: 2}[num_vars], 7 if num_vars == 2 else 8))
    monomials = _monomials(num_vars, degree, 7)
    factor = draw(st.sampled_from(_monomials(num_vars, draw(st.integers(1, degree - 1)), 7)))
    multiples = [m for m in monomials if all(a >= b for a, b in zip(m, factor))]
    support = draw(st.lists(st.sampled_from(multiples), min_size=2, max_size=6, unique=True))
    support += draw(st.lists(
        st.sampled_from([m for m in monomials if m not in support]),
        min_size=max(8 - len(support), 0), max_size=14 - len(support), unique=True,
    ))
    signs = draw(st.lists(st.sampled_from([1, -1]), min_size=len(support), max_size=len(support)))
    f = make_form(num_vars, dict(zip(support, signs)))
    point = st.lists(st.integers(-24, 24), min_size=num_vars, max_size=num_vars)
    return f, draw(st.lists(point, max_size=8))


#: All 35 squares of degree 8 in four variables and one inner term.
_QUATERNARY_OCTIC = make_form(
    4,
    {
        **{tuple(2 * a for a in alpha): 1 for alpha in _monomials(4, 4, 4)},
        (1, 1, 3, 3): -4,
    },
)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_shared_factor_cases())
# Runs as x1^2*(x1*(x2 + 2/3*x3) - 5*x2^2): coefficients other than 1 left
# after the shared factors.
@example((parse_form("x1^3*x2 - 5*x1^2*x2^2 + 2/3*x1^3*x3"), [[2, -3, 1], [-1, 24, 0]]))
@example((parse_form("x1^7"), [[2], [-3], [0], [24]]))  # the chain x2, x3, x4, x7
@example((_QUATERNARY_OCTIC, [[1, -2, 3, -4], [24, -24, 1, 0], [1, 1, 1, 1]]))
def test_horner_schedule_matches_oracle(case):
    f, integer_points = case
    columns = [[point[i] for point in integer_points] for i in range(f.num_vars)]
    inputs = [list(column) for column in columns]
    values, denominator = evaluate_columns(f, columns, len(integer_points))
    assert columns == inputs  # power-1 columns are shared, never written
    assert denominator > 0 and len(values) == len(integer_points)
    for point, value in zip(integer_points, values):
        assert Fraction(value, denominator) == oracle.evaluate(f, point)


def test_schedule_cache_keeps_each_form_apart():
    # The schedule is cached per form and reads only the exponents: forms
    # that share a support, or are equal but distinct objects, must each
    # still get their own coefficients.
    motzkin = FORM_BUILDERS["motzkin"]()
    scaled = make_form(3, dict(zip(motzkin.terms, [2, Fraction(-1, 3), 5, -7])))
    twin = FORM_BUILDERS["motzkin"]()
    assert scaled.support == motzkin.support and twin == motzkin and twin is not motzkin
    rng = random.Random(23)
    for _ in range(3):
        for f in (motzkin, scaled, twin):
            points = [tuple(rng.randint(-24, 24) for _ in range(3)) for _ in range(20)]
            columns = [[point[i] for point in points] for i in range(3)]
            values, denominator = evaluate_columns(f, columns, len(points))
            for point, value in zip(points, values):
                assert Fraction(value, denominator) == oracle.evaluate(f, point)
            point = (Fraction(rng.randint(-9, 9), 4), 3, Fraction(-1, 2))
            assert evaluate(f, point) == oracle.evaluate(f, point)


# ---------------------------------------------------------------------------
# evaluate_columns on coded columns
# ---------------------------------------------------------------------------

def _assert_coded_agrees(f, alphabet, codes):
    """``codes`` holds one tuple of codes per point: the lookup path, on
    ``bytes`` and on list columns, gives what the product chain gives on
    the decoded points, and each value is the oracle's."""
    size = len(codes)
    coded = [bytes(point[i] for point in codes) for i in range(f.num_vars)]
    listed = [list(column) for column in coded]
    points = [[alphabet[c] for c in point] for point in codes]
    result = evaluate_columns(f, coded, size, alphabet=alphabet)
    assert evaluate_columns(f, listed, size, alphabet=alphabet) == result
    assert listed == [list(column) for column in coded]  # input columns never written
    chain = evaluate_columns(f, [[p[i] for p in points] for i in range(f.num_vars)], size)
    assert result == chain
    values, denominator = result
    assert denominator > 0 and len(values) == size
    for point, value in zip(points, values):
        assert Fraction(value, denominator) == oracle.evaluate(f, point)


_ALPHABETS = [_SAMPLING_ALPHABET, [0], [-3], [7], [5, -5, 0, 7], range(-2, 3), [2, 2, -9]]


def test_lookup_path_matches_chain_and_oracle_seeded():
    rng = random.Random(36)
    forms = [builder() for builder in FORM_BUILDERS.values()]
    forms += [_TERMS_OF_EVERY_KIND, _QUATERNARY_OCTIC, parse_form("x1^7 - 2/3*x1^3*x2^4")]
    # Some power column is read twice (choi_lam_q1's x1), and some only once.
    reads = [count for f in forms for count in f._schedule[2].values()]
    assert 1 in reads and max(reads) > 1
    for f in forms:
        for alphabet in _ALPHABETS:
            for size in (0, 1, 2, 37):
                codes = [
                    tuple(rng.randrange(len(alphabet)) for _ in range(f.num_vars))
                    for _ in range(size)
                ]
                _assert_coded_agrees(f, alphabet, codes)


@st.composite
def _coded_cases(draw):
    """A form from :func:`_column_cases` or :func:`_shared_factor_cases`,
    an alphabet of 1-12 integers and 0-8 points as codes into it."""
    f = draw(st.one_of(_column_cases(), _shared_factor_cases()))[0]
    alphabet = draw(st.lists(st.integers(-30, 30), min_size=1, max_size=12))
    code = st.integers(0, len(alphabet) - 1)
    point = st.tuples(*[code] * f.num_vars)
    return f, alphabet, draw(st.lists(point, max_size=8))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_coded_cases())
@example((make_form(3, {}, zero_degree=4), [1, -1], []))  # zero form, no points
@example((make_form(0, {(): Fraction(-7, 3)}), [4], [(), ()]))  # no variables
@example((FORM_BUILDERS["choi_lam_q1"](), [0], [(0, 0, 0, 0)]))  # size 1, only 0
@example((_TERMS_OF_EVERY_KIND, [-24, 0, 24], [(0, 1, 2), (2, 2, 0), (1, 1, 1)]))
def test_lookup_path_matches_chain_and_oracle_hypothesis(case):
    _assert_coded_agrees(*case)


def test_lookup_path_rejects_codes_outside_the_alphabet():
    f = parse_form("x1^2 - 3*x1*x2")
    alphabet = [-1, 2, 5]
    # -1 and -3 would index from the end of a list; 256 is no byte.
    for bad in ([0, 3], [0, -1], [0, -3], [1, 256], b"\x00\x03", bytearray(b"\x09\x00")):
        with pytest.raises(ValueError):
            evaluate_columns(f, [[0, 1], bad], 2, alphabet=alphabet)
        with pytest.raises(ValueError):
            evaluate_columns(f, [bad, b"\x00\x01"], 2, alphabet=alphabet)
    with pytest.raises(ValueError, match=r"column of x2 has a code outside range\(3\)"):
        evaluate_columns(f, [b"\x00", b"\x03"], 1, alphabet=alphabet)
    # A column the schedule never reads is checked as well.
    with pytest.raises(ValueError, match=r"column of x2 has a code outside range\(1\)"):
        evaluate_columns(parse_form("x1^2 + 0*x2^2"), [[0], [1]], 1, alphabet=[4])
    with pytest.raises(ValueError):
        evaluate_columns(f, [[0], [0]], 1, alphabet=[])
    with pytest.raises(ValueError):  # codes are bytes: no alphabet above 256 letters
        evaluate_columns(f, [[0], [0]], 1, alphabet=range(257))
    assert evaluate_columns(f, [[], []], 0, alphabet=[]) == ([], 1)
    assert evaluate_columns(f, [[0, 2], [1, 1]], 2, alphabet=alphabet) == ([7, -5], 1)


# ---------------------------------------------------------------------------
# form arithmetic
# ---------------------------------------------------------------------------

def _matrices(n):
    """Square matrices: dense rational, singular (a zero row or a multiple
    of the first row), permutation and shear (the identity plus one
    rational entry)."""
    dense = st.lists(_rationals, min_size=n * n, max_size=n * n).map(
        lambda flat: [flat[i * n:(i + 1) * n] for i in range(n)]
    )

    def singular(case):
        rows, scale = case
        return rows[:-1] + [[scale * v for v in rows[0]]] if n > 1 else [[0]]

    def shear(case):
        i, j, value = case
        return [[value if (r, c) == (i, j) else int(r == c) for c in range(n)] for r in range(n)]

    index = st.integers(0, n - 1)
    return st.one_of(
        dense,
        st.tuples(dense, st.one_of(st.just(0), _rationals)).map(singular),
        st.permutations(range(n)).map(lambda p: [[int(c == p[r]) for c in range(n)] for r in range(n)]),
        st.tuples(index, index, _rationals).map(shear),
    )


@st.composite
def _arithmetic_cases(draw):
    """Forms ``f`` and ``h`` of one degree and ``g`` of another, in one
    variable count, any of them possibly zero, with rational coefficients
    over mixed denominators; ``minus_f`` cancels ``f`` in a sum.  Also a
    scale factor (0, negative, rational), a power, a matrix, a number of
    variables to embed into and a monomial square."""
    n = draw(st.integers(1, 3))
    degree = draw(st.integers(0, 4))
    f = _draw_form(draw, n, degree, max_terms=5)
    g = _draw_form(draw, n, draw(st.integers(0, 3)), max_terms=4)
    h = _draw_form(draw, n, degree, max_terms=5)
    minus_f = make_form(n, [(e, -c) for e, c in f.terms.items()], zero_degree=degree)
    return {
        "f": f, "g": g, "h": h, "minus_f": minus_f,
        "factor": draw(st.one_of(st.just(0), st.just(-1), _rationals)),
        "k": draw(st.integers(0, 3)),
        "matrix": draw(_matrices(n)),
        "m": draw(st.integers(0, 2)),
        "var_index": draw(st.integers(1, n)),
        "ell": draw(st.integers(0, 2)),
    }


def _assert_same_form(new, old):
    assert list(new.terms.items()) == list(old.terms.items())
    assert (new.degree, new.num_vars) == (old.degree, old.num_vars)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_arithmetic_cases())
@example({  # mixed denominators, a negative rational factor and a shear
    "f": parse_form("x1 - 1/2*x2"), "g": parse_form("1/3*x1 + x2"),
    "h": parse_form("x2 - x1"), "minus_f": parse_form("1/2*x2 - x1"),
    "factor": Fraction(-1, 2), "k": 2, "matrix": [[1, 1], [0, 2]],
    "m": 1, "var_index": 2, "ell": 1,
})
def test_form_arithmetic_matches_oracle_hypothesis(case):
    f, g, h, minus_f = case["f"], case["g"], case["h"], case["minus_f"]
    _assert_same_form(mul_forms(f, g), oracle.mul_forms(f, g))
    _assert_same_form(mul_forms(g, minus_f), oracle.mul_forms(g, minus_f))
    _assert_same_form(form_power(f, case["k"]), oracle.form_power(f, case["k"]))
    for terms in [(f, h), (f, minus_f), (f, h, minus_f), (minus_f, f, h, g)]:
        if len({t.degree for t in terms if not t.is_zero}) <= 1:
            _assert_same_form(add_forms(*terms), oracle.add_forms(*terms))
    _assert_same_form(scale_form(f, case["factor"]), oracle.scale_form(f, case["factor"]))
    _assert_same_form(
        substitute_linear(f, case["matrix"]), oracle.substitute_linear(f, case["matrix"])
    )
    _assert_same_form(embed_variables(f, case["m"]), oracle.embed_variables(f, case["m"]))
    _assert_same_form(
        multiply_monomial_square(f, case["var_index"], case["ell"]),
        oracle.multiply_monomial_square(f, case["var_index"], case["ell"]),
    )
