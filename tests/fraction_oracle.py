"""Reference ``Fraction`` implementations of the exact kernel.

These are the routines ``sonckit.exactlp`` and ``sonckit.forms.evaluate``
ran on before they moved to integer arithmetic: textbook Gaussian
elimination, Gauss--Jordan on ``[M | I]`` and a phase-one simplex, all in
``Fraction``, plus term-by-term ``Fraction`` evaluation and the corpus
sampling check that built one ``Fraction`` point per draw.  The
differential tests require the integer kernel to return identical
results.

It also keeps the simplex enumeration ``sonckit.geometry`` ran before it
capped subset sizes at the pool's affine rank: subsets of every size up to
``n + 1``, each given a bounding-box test by ``min`` and ``max``, a rank
test and a barycentric solve by the ``Fraction`` Gauss--Jordan solver on
``[M | I]`` above.  Nothing in it calls the integer kernel, so it checks
the depth-first circuit walk of the current enumeration, its pruning and
the weights it reads off its pivots, against an independent method.
That method is exponential in the pool, so the module also keeps the walk
as it was with the bitmask rule as its only pruning, before the signs of
its reduced rows bounded it: ``walk_simplices`` checks the current walk
on pools of 15--22 points.

Last, it keeps the form arithmetic as ``sonckit.forms`` ran it before it
moved to integer numerators: products, powers, sums, scalings and
substitutions term by term in ``Fraction``, each result canonicalised by
``make_form``, and the monomial transforms re-sorted by it.

Finally, it keeps the form parser ``sonckit.forms`` had before it matched
one regular expression per term: a tokenizer, a token stream and a
recursive descent over ``form := [sign] term {sign term}``.
``parse_form`` here must agree with ``sonckit.forms.parse_form`` on every
string: the same form, or the same exception type.
"""

from __future__ import annotations

import itertools
import math
import random
import re
from fractions import Fraction
from typing import Iterable, Sequence

from sonckit.errors import CapExceeded, DimensionMismatch, NotHomogeneous, ParseError
from sonckit.exactlp import _pivot
from sonckit.forms import Exponent, RationalLike, SparseForm, grlex_key, make_form
from sonckit.geometry import DEFAULT_CANDIDATE_CAP, Simplex

_ZERO = Fraction(0)
_ONE = Fraction(1)

Matrix = list[list[Fraction]]


def _as_matrix(rows: Sequence[Sequence[Fraction | int]]) -> Matrix:
    return [[Fraction(v) for v in row] for row in rows]


def matrix_rank(rows: Sequence[Sequence[Fraction | int]]) -> int:
    """Rank over the rationals by fraction-exact Gaussian elimination."""
    m = _as_matrix(rows)
    if not m:
        return 0
    nrows, ncols = len(m), len(m[0])
    rank = 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, nrows) if m[r][col] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = 1 / m[rank][col]
        m[rank] = [v * inv for v in m[rank]]
        for r in range(nrows):
            if r != rank and m[r][col] != 0:
                factor = m[r][col]
                m[r] = [a - factor * b for a, b in zip(m[r], m[rank])]
        rank += 1
        if rank == nrows:
            break
    return rank


class EchelonSolver:
    """Row-reduce a coefficient matrix once, then solve many right sides.

    Solves ``M x = b`` for an ``nrows x ncols`` matrix.  ``solve`` returns
    the solution with free variables set to zero, or ``None`` when the
    system is inconsistent.  ``unique`` tells whether the column rank is
    full, i.e. whether solutions are unique when they exist.
    """

    def __init__(self, rows: Sequence[Sequence[Fraction | int]]):
        m = _as_matrix(rows)
        if not m:
            raise ValueError("empty coefficient matrix")
        self.nrows, self.ncols = len(m), len(m[0])
        # Track T with T @ M = R by eliminating on [M | I].
        transform = [
            [_ONE if i == j else _ZERO for j in range(self.nrows)]
            for i in range(self.nrows)
        ]
        pivots: list[tuple[int, int]] = []
        row = 0
        for col in range(self.ncols):
            pivot = next((r for r in range(row, self.nrows) if m[r][col] != 0), None)
            if pivot is None:
                continue
            m[row], m[pivot] = m[pivot], m[row]
            transform[row], transform[pivot] = transform[pivot], transform[row]
            inv = 1 / m[row][col]
            m[row] = [v * inv for v in m[row]]
            transform[row] = [v * inv for v in transform[row]]
            for r in range(self.nrows):
                if r != row and m[r][col] != 0:
                    factor = m[r][col]
                    m[r] = [a - factor * b for a, b in zip(m[r], m[row])]
                    transform[r] = [
                        a - factor * b for a, b in zip(transform[r], transform[row])
                    ]
            pivots.append((row, col))
            row += 1
            if row == self.nrows:
                break
        self.echelon = m
        self.transform = transform
        self.pivots = pivots
        self.rank = len(pivots)
        self.unique = self.rank == self.ncols

    def solve(self, rhs: Sequence[Fraction | int]) -> list[Fraction] | None:
        if len(rhs) != self.nrows:
            raise ValueError("right-hand side has wrong length")
        b = [Fraction(v) for v in rhs]
        reduced = [
            sum((t * v for t, v in zip(trow, b)), _ZERO) for trow in self.transform
        ]
        for r in range(self.rank, self.nrows):
            if reduced[r] != 0:
                return None
        # Reduced row echelon form with free variables pinned to zero: each
        # pivot equation then reads x_pivot = reduced[row] directly.
        solution = [_ZERO] * self.ncols
        for row, col in self.pivots:
            solution[col] = reduced[row]
        return solution


def simplex_feasible(
    a_rows: Sequence[Sequence[Fraction | int]], b: Sequence[Fraction | int]
) -> list[Fraction] | None:
    """Find ``x >= 0`` with ``A x = b``, or ``None`` if infeasible.

    Phase-one simplex: minimize the sum of artificial variables with
    Bland's anti-cycling rule, all in exact rationals.
    """
    nrows = len(a_rows)
    ncols = len(a_rows[0]) if nrows else 0
    if any(len(row) != ncols for row in a_rows):
        raise ValueError("ragged constraint matrix")
    if len(b) != nrows:
        raise ValueError("right-hand side has wrong length")
    if nrows == 0:
        return []

    tableau: list[list[Fraction]] = []
    for row, beta in zip(a_rows, b):
        beta = Fraction(beta)
        coeffs = [Fraction(v) for v in row]
        if beta < 0:
            beta = -beta
            coeffs = [-v for v in coeffs]
        tableau.append(coeffs + [_ZERO] * nrows + [beta])
    total_cols = ncols + nrows
    for i in range(nrows):
        tableau[i][ncols + i] = _ONE
    basis = list(range(ncols, ncols + nrows))
    cost = [_ZERO] * ncols + [_ONE] * nrows

    while True:
        duals_cost = [cost[basis[i]] for i in range(nrows)]
        entering = -1
        for j in range(total_cols):
            reduced = cost[j] - sum(
                (duals_cost[i] * tableau[i][j] for i in range(nrows)), _ZERO
            )
            if reduced < 0:
                entering = j  # Bland: first negative reduced cost
                break
        if entering < 0:
            break
        leaving = -1
        best_ratio: Fraction | None = None
        for i in range(nrows):
            coeff = tableau[i][entering]
            if coeff > 0:
                ratio = tableau[i][-1] / coeff
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and basis[i] < basis[leaving])
                ):
                    best_ratio = ratio
                    leaving = i
        if leaving < 0:
            raise ArithmeticError("phase-one objective unbounded; bug")
        pivot_value = tableau[leaving][entering]
        tableau[leaving] = [v / pivot_value for v in tableau[leaving]]
        for i in range(nrows):
            if i != leaving and tableau[i][entering] != 0:
                factor = tableau[i][entering]
                tableau[i] = [
                    a - factor * p for a, p in zip(tableau[i], tableau[leaving])
                ]
        basis[leaving] = entering

    objective = sum((cost[basis[i]] * tableau[i][-1] for i in range(nrows)), _ZERO)
    if objective != 0:
        return None
    solution = [_ZERO] * ncols
    for i, var in enumerate(basis):
        if var < ncols:
            solution[var] = tableau[i][-1]
    return solution


def point_in_hull(
    point: Sequence[Fraction | int], generators: Sequence[Sequence[Fraction | int]]
) -> list[Fraction] | None:
    """Convex-combination weights expressing ``point`` over ``generators``.

    Decides membership in the convex hull by exact LP feasibility of
    ``point = sum mu_g g`` with ``mu >= 0`` and ``sum mu = 1``; returns the
    weights or ``None``.
    """
    generators = list(generators)
    if not generators:
        return None
    dim = len(point)
    rows: list[list[Fraction | int]] = [
        [g[coordinate] for g in generators] for coordinate in range(dim)
    ]
    rows.append([1] * len(generators))
    rhs = list(point) + [1]
    return simplex_feasible(rows, rhs)


def _box_contains(points: Sequence[Exponent], target: Exponent) -> bool:
    return all(
        min(p[i] for p in points) <= t <= max(p[i] for p in points)
        for i, t in enumerate(target)
    )


def affinely_independent(points: Sequence[Exponent]) -> bool:
    """Rank test on difference vectors."""
    base = points[0]
    return matrix_rank([[a - b for a, b in zip(p, base)] for p in points[1:]]) == (
        len(points) - 1
    )


def barycentric_coordinates(
    beta: Exponent, vertices: Sequence[Exponent]
) -> tuple[Fraction, ...] | None:
    """Positive weights of ``beta`` over affinely independent ``vertices``
    by :class:`EchelonSolver` on ``[vertices; all-ones]``, or ``None``."""
    rows: list[list[Fraction | int]] = [[v[i] for v in vertices] for i in range(len(beta))]
    rows.append([1] * len(vertices))
    solution = EchelonSolver(rows).solve([*beta, 1])
    if solution is None or any(weight <= 0 for weight in solution):
        return None
    return tuple(solution)


def enumerate_simplices(
    beta: Exponent,
    candidates: Iterable[Exponent],
    cap: int = DEFAULT_CANDIDATE_CAP,
) -> list[Simplex]:
    """All simplices spanned by candidate points that contain ``beta`` in
    their relative interior.

    Subsets of size 1 .. n+1 are enumerated in graded-lex order on sorted
    vertex lists; each survivor carries its barycentric coordinates.
    Candidates strictly above the cap raise :class:`CapExceeded`.
    """
    beta = tuple(beta)
    dim = len(beta)
    # A simplex covering beta in its relative interior uses only points
    # vanishing wherever beta vanishes (weights are strictly positive).
    zero_positions = [i for i, b in enumerate(beta) if b == 0]
    pool = sorted(
        (
            point
            for point in {tuple(p) for p in candidates}
            if all(point[i] == 0 for i in zero_positions)
        ),
        key=grlex_key,
    )
    if len(pool) > cap:
        raise CapExceeded(
            f"{len(pool)} candidate points for {beta} exceed the cap of {cap}"
        )
    found: list[Simplex] = []
    for size in range(1, min(len(pool), dim + 1) + 1):
        for subset in itertools.combinations(pool, size):
            if not _box_contains(subset, beta):
                continue
            if not affinely_independent(subset):
                continue
            weights = barycentric_coordinates(beta, subset)
            if weights is not None:
                found.append(Simplex(vertices=subset, barycentric=weights))
    return found


def walk_simplices(
    beta: Exponent,
    candidates: Iterable[Exponent],
    cap: int = DEFAULT_CANDIDATE_CAP,
) -> list[Simplex]:
    """The depth-first circuit walk of ``sonckit.geometry`` with the
    bitmask rule as its only pruning: no bound from the signs of the
    pivot rows.  It is fast enough for pools of 15--22 points, where the
    subset enumeration above is not.  It shares only the kernel's
    ``_pivot`` with the package.
    """
    beta = tuple(beta)
    points = {tuple(p) for p in candidates}
    if any(len(point) != len(beta) for point in points):
        raise DimensionMismatch(f"a candidate differs in length from {beta}")
    # A simplex covering beta in its relative interior uses only points
    # vanishing wherever beta vanishes (weights are strictly positive).
    zero_positions = [i for i, b in enumerate(beta) if b == 0]
    pool = sorted(
        (point for point in points if all(point[i] == 0 for i in zero_positions)),
        key=grlex_key,
    )
    if len(pool) > cap:
        raise CapExceeded(
            f"{len(pool)} candidate points for {beta} exceed the cap of {cap}"
        )
    # Bit i: coordinate i at most beta's; bit n + i: at least beta's.
    n, size = len(beta), len(pool)
    full = (1 << 2 * n) - 1
    masks = [
        sum(1 << i for i in range(n) if point[i] <= beta[i])
        | sum(1 << n + i for i in range(n) if point[i] >= beta[i])
        for point in pool
    ]
    # later[j]: OR of the masks of pool[j:].
    later = [0] * (size + 1)
    for j in range(size - 1, -1, -1):
        later[j] = later[j + 1] | masks[j]
    found: list[tuple[tuple[int, ...], tuple[Fraction, ...]]] = []

    def walk(prefix, pivot_rows, free, rows, scales, previous, covered):
        # Column k of ``rows`` is d_k; pivot_rows[i] holds the pivot of
        # column prefix[i], the rows in ``free`` are zero on the prefix
        # columns.
        for j in range(prefix[-1] + 1 if prefix else 0, size):
            if covered | masks[j] | later[j + 1] != full:
                continue
            for top in free:
                if rows[top][j]:
                    break
            else:
                # d_j = sum c_k d_k with c_k = rows[r][j] / rows[r][k]; a
                # simplex when every c_k < 0, its weights -c_k and 1 over
                # their sum, here integer parts over lcm(rows[r][k]).
                pairs = [(rows[r][j], rows[r][k]) for r, k in zip(pivot_rows, prefix)]
                if all(a * b < 0 for a, b in pairs):
                    common = math.lcm(*[b for _, b in pairs])
                    parts = [-a * (common // b) for a, b in pairs]
                    total = common + sum(parts)
                    weights = (*(Fraction(part, total) for part in parts),
                               Fraction(common, total))
                    found.append(((*prefix, j), weights))
                continue
            # _pivot rebinds every row it changes, so copies of the two
            # lists leave this level's form intact.
            child_rows, child_scales = rows[:], scales[:]
            pivot = _pivot(child_rows, child_scales, top, j, previous)
            walk((*prefix, j), (*pivot_rows, top), [r for r in free if r != top],
                 child_rows, child_scales, pivot, covered | masks[j])

    rows = [[point[i] - beta[i] for point in pool] for i in range(n)]
    walk((), (), list(range(n)), rows, [1] * n, 1, 0)
    found.sort(key=lambda item: (len(item[0]), item[0]))
    return [
        Simplex(vertices=tuple(pool[j] for j in subset), barycentric=weights)
        for subset, weights in found
    ]


def evaluate(f: SparseForm, point: Sequence[RationalLike]) -> Fraction:
    """Exact value of ``f`` at a rational point."""
    if len(point) != f.num_vars:
        raise DimensionMismatch(
            f"point has {len(point)} coordinates, form has {f.num_vars} variables"
        )
    values = [Fraction(v) for v in point]
    total = Fraction(0)
    for exponent, coeff in f.terms.items():
        term = coeff
        for value, power in zip(values, exponent):
            if power:
                term *= value**power
        total += term
    return total


def sampling_nonneg(f: SparseForm, count: int) -> str:
    """The corpus ``sampling_nonneg`` check point by point: ``count`` seeded
    ``Fraction`` points ``p / 8``, each evaluated by :func:`evaluate`."""
    rng = random.Random(f"sampling:{f.name}")
    for _ in range(count):
        point = tuple(
            Fraction(rng.randint(-3 * 8, 3 * 8), 8) for _ in range(f.num_vars)
        )
        if evaluate(f, point) < 0:
            return f"negative at {point}"
    return "ok"


def add_forms(*forms: SparseForm) -> SparseForm:
    if not forms:
        raise ValueError("add_forms needs at least one form")
    num_vars = forms[0].num_vars
    if any(f.num_vars != num_vars for f in forms):
        raise DimensionMismatch("cannot add forms in different variable counts")
    degrees = {f.degree for f in forms if not f.is_zero}
    if len(degrees) > 1:
        raise NotHomogeneous(f"cannot add forms of degrees {sorted(degrees)}")
    pairs = [(e, c) for f in forms for e, c in f.terms.items()]
    hint = degrees.pop() if degrees else forms[0].degree
    return make_form(num_vars, pairs, zero_degree=hint)


def scale_form(f: SparseForm, factor: RationalLike) -> SparseForm:
    factor = Fraction(factor)
    return make_form(
        f.num_vars,
        [(e, c * factor) for e, c in f.terms.items()],
        zero_degree=f.degree,
    )


def mul_forms(f: SparseForm, g: SparseForm) -> SparseForm:
    if f.num_vars != g.num_vars:
        raise DimensionMismatch("cannot multiply forms in different variable counts")
    product: dict[Exponent, Fraction] = {}
    for ef, cf in f.terms.items():
        for eg, cg in g.terms.items():
            key = tuple(a + b for a, b in zip(ef, eg))
            product[key] = product.get(key, _ZERO) + cf * cg
    return make_form(f.num_vars, product, zero_degree=f.degree + g.degree)


def form_power(f: SparseForm, k: int) -> SparseForm:
    if k < 0:
        raise ValueError("nonnegative powers only")
    result = make_form(f.num_vars, {(0,) * f.num_vars: _ONE})
    for _ in range(k):
        result = mul_forms(result, f)
    return result


def embed_variables(f: SparseForm, m: int) -> SparseForm:
    """Zero-pad every exponent to ``num_vars + m`` variables."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    if m == 0:
        return f
    pad = (0,) * m
    return make_form(
        f.num_vars + m,
        [(e + pad, c) for e, c in f.terms.items()],
        zero_degree=f.degree,
    )


def multiply_monomial_square(f: SparseForm, var_index: int, ell: int) -> SparseForm:
    """Multiply by ``x<var_index>^(2*ell)``; raises the degree by ``2*ell``."""
    if not 1 <= var_index <= f.num_vars:
        raise DimensionMismatch(f"variable x{var_index} outside 1..{f.num_vars}")
    if ell < 0:
        raise ValueError("ell must be nonnegative")
    shift = 2 * ell
    position = var_index - 1
    pairs = [
        (tuple(e + shift if i == position else e for i, e in enumerate(exp)), c)
        for exp, c in f.terms.items()
    ]
    return make_form(f.num_vars, pairs, zero_degree=f.degree + shift)


def substitute_linear(f: SparseForm, matrix: Sequence[Sequence[RationalLike]]) -> SparseForm:
    """Expand ``f(A x)`` exactly for a square rational matrix ``A``, one
    linear factor at a time."""
    n = f.num_vars
    if len(matrix) != n or any(len(row) != n for row in matrix):
        raise DimensionMismatch(f"matrix must be {n}x{n}")
    rows = [[Fraction(v) for v in row] for row in matrix]
    one = (0,) * n
    linear: list[dict[Exponent, Fraction]] = []
    for row in rows:
        entry = {
            tuple(1 if j == i else 0 for j in range(n)): value
            for i, value in enumerate(row)
            if value != 0
        }
        linear.append(entry)

    def dict_mul(a: dict[Exponent, Fraction], b: dict[Exponent, Fraction]) -> dict[Exponent, Fraction]:
        out: dict[Exponent, Fraction] = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                key = tuple(p + q for p, q in zip(ea, eb))
                out[key] = out.get(key, _ZERO) + ca * cb
        return {e: c for e, c in out.items() if c != 0}

    accumulated: dict[Exponent, Fraction] = {}
    for exponent, coeff in f.terms.items():
        partial: dict[Exponent, Fraction] = {one: coeff}
        for position, power in enumerate(exponent):
            for _ in range(power):
                partial = dict_mul(partial, linear[position])
                if not partial:
                    break
            if not partial:
                break
        for key, value in partial.items():
            accumulated[key] = accumulated.get(key, _ZERO) + value
    return make_form(n, accumulated, zero_degree=f.degree)


_TOKEN = re.compile(r"\d+|[+\-*/^x]")
_SPACE = re.compile(r"\s+")


def _tokenize(text: str) -> list[str]:
    stripped = _SPACE.sub("", text)
    tokens: list[str] = []
    pos = 0
    while pos < len(stripped):
        match = _TOKEN.match(stripped, pos)
        if match is None:
            raise ParseError(f"unexpected character {stripped[pos]!r} at offset {pos}")
        tokens.append(match.group(0))
        pos = match.end()
    return tokens


class _TokenStream:
    def __init__(self, tokens: list[str]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> str:
        token = self.peek()
        if token is None:
            raise ParseError("unexpected end of input")
        self.pos += 1
        return token

    def expect_int(self, what: str) -> int:
        token = self.take()
        if not token.isdigit():
            raise ParseError(f"expected {what}, found {token!r}")
        return int(token)


def _parse_factor(stream: _TokenStream) -> tuple[int, int]:
    """factor := 'x' posint [ '^' posint ]; returns (variable index, power)."""
    token = stream.take()
    if token != "x":
        raise ParseError(f"expected variable, found {token!r}")
    index = stream.expect_int("variable index")
    if index < 1:
        raise ParseError("variable indices start at 1")
    power = 1
    if stream.peek() == "^":
        stream.take()
        power = stream.expect_int("exponent")
        if power < 1:
            raise ParseError("exponents must be positive")
    return index, power


def _parse_term(stream: _TokenStream) -> tuple[Fraction, dict[int, int]]:
    coeff = Fraction(1)
    powers: dict[int, int] = {}
    token = stream.peek()
    if token is None:
        raise ParseError("empty term")
    if token.isdigit():
        numerator = stream.expect_int("coefficient")
        denominator = 1
        if stream.peek() == "/":
            stream.take()
            denominator = stream.expect_int("denominator")
            if denominator < 1:
                raise ParseError("denominators must be positive")
        coeff = Fraction(numerator, denominator)
        if stream.peek() == "*":
            stream.take()
        else:
            return coeff, powers  # bare constant term
    elif token != "x":
        raise ParseError(f"expected term, found {token!r}")
    index, power = _parse_factor(stream)
    powers[index] = powers.get(index, 0) + power
    while stream.peek() == "*":
        stream.take()
        index, power = _parse_factor(stream)
        powers[index] = powers.get(index, 0) + power
    return coeff, powers


def parse_form(text: str, num_vars: int | None = None, name: str | None = None) -> SparseForm:
    """Parse polynomial text by recursive descent over its tokens."""
    stream = _TokenStream(_tokenize(text))
    if stream.peek() is None:
        raise ParseError("empty form")
    raw_terms: list[tuple[Fraction, dict[int, int]]] = []
    sign = Fraction(1)
    if stream.peek() in {"+", "-"}:
        sign = Fraction(-1) if stream.take() == "-" else Fraction(1)
    while True:
        coeff, powers = _parse_term(stream)
        raw_terms.append((sign * coeff, powers))
        token = stream.peek()
        if token is None:
            break
        if token not in {"+", "-"}:
            raise ParseError(f"expected '+' or '-', found {token!r}")
        sign = Fraction(-1) if stream.take() == "-" else Fraction(1)
    max_index = max((max(p) for _, p in raw_terms if p), default=0)
    if num_vars is None:
        num_vars = max_index
    elif max_index > num_vars:
        raise ParseError(
            f"variable x{max_index} exceeds the declared {num_vars} variables"
        )
    pairs = []
    for coeff, powers in raw_terms:
        exponent = tuple(powers.get(i, 0) for i in range(1, num_vars + 1))
        pairs.append((exponent, coeff))
    return make_form(num_vars, pairs, name=name)
