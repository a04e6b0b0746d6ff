"""Exact sparse homogeneous polynomials over the rationals.

A form is stored as a map from exponent tuples to nonzero ``Fraction``
coefficients.  All arithmetic is exact and nothing here uses floating
point; a float coordinate is read as the rational it stores.  Evaluation
has one kernel, ``evaluate_columns``: it evaluates a batch of integer
points held as coordinate columns and returns integer values over the
coefficients' common denominator.  It runs on a multivariate Horner
schedule, chosen greedily from the exponents and cached on the form, that
multiplies a power of a variable shared by several terms in once for all
of them.  ``evaluate_many`` writes a batch of rational points over one
denominator and slices it into columns for the kernel; ``evaluate`` is
``evaluate_many`` on a batch of one.

Variables are written ``x1, x2, ...`` in text.  The grammar (whitespace
ignored) is:

    form   := [sign] term { sign term }     sign   := '+' | '-'
    term   := coeff [ '*' mono ] | mono     coeff  := int [ '/' posint ]
    mono   := factor { '*' factor }         factor := 'x' posint [ '^' posint ]

Nothing in it nests, so it is a regular language: ``parse_form`` matches
one regular expression per signed term, left to right, and checks the
numbers it captured.

Files hold one form each; lines starting with ``#`` carry metadata
(``# name: motzkin``, ``# vars: 3``).  Serialization emits coefficients as
``p/q`` when ``q != 1``, so ``parse_form(format_form(f))`` round-trips
bit-exactly, and a file keeps the variable count as well.
"""

from __future__ import annotations

import functools
import re
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import repeat
from operator import add, mul
from typing import Iterable, Mapping, NamedTuple, Sequence

from .errors import DimensionMismatch, NotHomogeneous, ParseError
from .exactlp import integer_numerators

Exponent = tuple[int, ...]
RationalLike = Fraction | int | str

def grlex_key(exponent: Exponent) -> tuple[int, Exponent]:
    """Graded-lexicographic sort key: total degree first, then lex."""
    return (sum(exponent), exponent)


def format_rational(value: Fraction) -> str:
    """Render exactly as ``p`` or ``p/q``; inverse of ``Fraction(text)``."""
    return str(value)


@dataclass(frozen=True)
class SparseForm:
    """Homogeneous polynomial with exact rational coefficients.

    ``terms`` maps exponent tuples (one entry per variable) to nonzero
    coefficients, stored in graded-lex descending order; treat it as
    read-only.  The zero form has an empty map and keeps whatever degree
    the construction context supplied.
    """

    num_vars: int
    degree: int
    terms: dict[Exponent, Fraction]
    name: str | None = field(default=None, compare=False)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def support(self) -> tuple[Exponent, ...]:
        return tuple(self.terms.keys())

    @functools.cached_property
    def _schedule(
        self,
    ) -> tuple[tuple[_PowerStep, ...], tuple[_Term | _Factor, ...], Counter[_PowerKey]]:
        """The steps that build the power columns, the Horner sum that
        :func:`evaluate_columns` reads the values from, and how many times
        the sum reads each power column.  All three depend on the exponents
        alone, so they are built once per form."""
        reads: Counter[_PowerKey] = Counter()
        parts = _horner_parts([(e, index) for index, e in enumerate(self.terms)], reads)
        return _power_chain(reads), parts, reads

    def __str__(self) -> str:
        return format_form(self)


def make_form(
    num_vars: int,
    terms: Mapping[Exponent, RationalLike] | Iterable[tuple[Exponent, RationalLike]],
    name: str | None = None,
    zero_degree: int = 0,
) -> SparseForm:
    """Build the canonical form: like terms combined, zeros dropped.

    ``zero_degree`` records the degree when everything cancels; a nonzero
    result infers its degree from the terms and raises ``NotHomogeneous``
    on mixed total degrees.
    """
    if num_vars < 0:
        raise ValueError("num_vars must be nonnegative")
    items = terms.items() if isinstance(terms, Mapping) else terms
    combined: dict[Exponent, Fraction] = {}
    degree: int | None = None
    for given, coeff in items:
        given = tuple(given)
        exponent = tuple(map(int, given))
        if exponent != given:
            raise ValueError(f"non-integral entry in exponent {given}")
        if len(exponent) != num_vars:
            raise DimensionMismatch(
                f"exponent {exponent} has length {len(exponent)}, expected {num_vars}"
            )
        if any(e < 0 for e in exponent):
            raise ValueError(f"negative entry in exponent {exponent}")
        total = sum(exponent)
        if degree is None:
            degree = total
        elif total != degree:
            raise NotHomogeneous(
                f"mixed total degrees {degree} and {total} in one form"
            )
        coeff = Fraction(coeff)
        combined[exponent] = combined[exponent] + coeff if exponent in combined else coeff
    ordered = {
        e: c
        for e, c in sorted(combined.items(), key=lambda t: grlex_key(t[0]), reverse=True)
        if c != 0
    }
    if not ordered:
        degree = degree if degree is not None else zero_degree
    assert degree is not None
    return SparseForm(num_vars=num_vars, degree=degree, terms=ordered, name=name)


# ---------------------------------------------------------------------------
# parsing / serialization
# ---------------------------------------------------------------------------

# A term is a sign, which only the first term may omit (``^`` matches at
# the start of the text alone), and a coefficient ``int [/ posint]`` with
# an optional ``* monomial``, or a bare monomial.
_MONO = r"x\d+(?:\^\d+)?(?:\*x\d+(?:\^\d+)?)*"
_TERM = re.compile(rf"([+-]|^)(?:(\d+)(?:/(\d+))?(?:\*({_MONO}))?|({_MONO}))")
_FACTOR = re.compile(r"x(\d+)(?:\^(\d+))?")
_SPACE = re.compile(r"\s+")

#: The most variables a parsed form may have; more raise ``ParseError``.
MAX_VARIABLES = 1000


def _integer(digits: str, where: str) -> int:
    """``int(digits)``; Python's limit on the digits it converts raises
    ``ParseError`` naming ``where``."""
    try:
        return int(digits)
    except ValueError as error:
        raise ParseError(f"{where}: {error}") from error


def parse_form(text: str, num_vars: int | None = None, name: str | None = None) -> SparseForm:
    """Parse polynomial text into its canonical form.

    With ``num_vars`` omitted, the variable count is the maximal index
    used.  Cancellation to zero is accepted (the result is flagged by
    ``is_zero``); mixed total degrees raise ``NotHomogeneous``.  Offsets
    in a ``ParseError`` count characters of the text without whitespace.
    """
    text = _SPACE.sub("", text)
    if not text:
        raise ParseError("empty form")
    raw_terms: list[tuple[Fraction, dict[int, int]]] = []
    pos = 0
    while pos < len(text):
        match = _TERM.match(text, pos)
        if match is None:
            raise ParseError(f"malformed term at offset {pos}: {text[pos:pos + 16]!r}")
        sign, numerator, denominator, scaled, bare = match.groups()
        where = f"the term at offset {pos}"
        coeff = Fraction(1)
        if numerator is not None:
            numerator = _integer(numerator, where)
            denominator = _integer(denominator or "1", where)
            if denominator < 1:
                raise ParseError(f"zero denominator in the term at offset {pos}")
            coeff = Fraction(numerator, denominator)
        powers: dict[int, int] = {}
        for index, power in _FACTOR.findall(scaled or bare or ""):
            index, power = _integer(index, where), _integer(power or "1", where)
            if index < 1 or power < 1:
                raise ParseError(f"variable indices and exponents start at 1, in {where}")
            powers[index] = powers.get(index, 0) + power
        raw_terms.append((-coeff if sign == "-" else coeff, powers))
        pos = match.end()
    max_index = max((max(p) for _, p in raw_terms if p), default=0)
    if max(max_index, num_vars or 0) > MAX_VARIABLES:
        raise ParseError(f"more than MAX_VARIABLES = {MAX_VARIABLES} variables")
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


def format_form(f: SparseForm) -> str:
    """Serialize in graded-lex descending term order; exact round trip."""
    if f.is_zero:
        if f.num_vars >= 1 and f.degree >= 1:
            mono = f"x{f.num_vars}" + (f"^{f.degree}" if f.degree > 1 else "")
            return f"0*{mono}"
        return "0"
    parts: list[str] = []
    for position, (exponent, coeff) in enumerate(f.terms.items()):
        factors = [
            f"x{i + 1}" + (f"^{e}" if e > 1 else "")
            for i, e in enumerate(exponent)
            if e > 0
        ]
        magnitude = abs(coeff)
        if not factors:
            body = format_rational(magnitude)
        elif magnitude == 1:
            body = "*".join(factors)
        else:
            body = format_rational(magnitude) + "*" + "*".join(factors)
        if position == 0:
            parts.append(("-" if coeff < 0 else "") + body)
        else:
            parts.append(("- " if coeff < 0 else "+ ") + body)
    return " ".join(parts)


def load_form_file(path: str) -> SparseForm:
    """Read a one-form UTF-8 file; '#' lines are metadata ('# name: ...',
    '# vars: N').  Without a vars line, the variable count is the maximal
    index used."""
    try:
        with open(path, encoding="utf-8") as handle:
            lines = [line.strip() for line in handle]
    except UnicodeDecodeError as error:
        raise ParseError(f"{path} is not UTF-8: {error}") from error
    meta: dict[str, str] = {}
    for line in lines:
        key, colon, value = line.lstrip("#").partition(":")
        if line.startswith("#") and colon:
            meta[key.strip().lower()] = value.strip()
    num_vars = meta.get("vars")
    if num_vars is not None and not num_vars.isdecimal():
        raise ParseError(f"malformed '# vars: {num_vars}' in {path}")
    body = [line for line in lines if line and not line.startswith("#")]
    if not body:
        raise ParseError(f"no polynomial text in {path}")
    return parse_form(
        " ".join(body),
        num_vars=None if num_vars is None else _integer(num_vars, f"'# vars:' in {path}"),
        name=meta.get("name"),
    )


def save_form_file(path: str, f: SparseForm) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        if f.name:
            handle.write(f"# name: {f.name}\n")
        handle.write(f"# vars: {f.num_vars}\n")
        handle.write(format_form(f) + "\n")


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

#: A (variable, power) pair, the key of one power column.
_PowerKey = tuple[int, int]
#: ``(key, left, right)``: power column ``key`` is ``left`` times ``right``.
_PowerStep = tuple[_PowerKey, _PowerKey, _PowerKey]


class _Term(NamedTuple):
    """Coefficient ``index`` of ``terms`` times the power columns ``keys``,
    which belong to distinct variables; ``keys`` is empty for a constant."""

    index: int
    keys: tuple[_PowerKey, ...]


class _Factor(NamedTuple):
    """Power column ``key`` times the sum ``quotient``."""

    key: _PowerKey
    quotient: tuple[_Term | _Factor, ...]


def _horner_parts(
    terms: list[tuple[Exponent, int]], reads: Counter[_PowerKey]
) -> tuple[_Term | _Factor, ...]:
    """Greedy multivariate Horner split of ``(exponent, index)`` terms.

    While some variable occurs in two terms or more, the one in the most
    terms (the first on ties) has its smallest positive power factored out
    of those terms, whose quotient is split the same way; the terms left
    share no variable and are summed.  Each use of a power key is counted
    in ``reads``.
    """
    parts: list[_Term | _Factor] = []
    while terms:
        counts = [len(terms) - powers.count(0) for powers in zip(*[e for e, _ in terms])]
        best = max(range(len(counts)), key=counts.__getitem__, default=None)
        if best is None or counts[best] < 2:
            break
        power = min(e[best] for e, _ in terms if e[best])
        quotient = [
            (e[:best] + (e[best] - power,) + e[best + 1:], index)
            for e, index in terms
            if e[best]
        ]
        terms = [(e, index) for e, index in terms if not e[best]]
        reads[best, power] += 1
        parts.append(_Factor((best, power), _horner_parts(quotient, reads)))
    for exponent, index in terms:
        keys = tuple((i, e) for i, e in enumerate(exponent) if e)
        reads.update(keys)
        parts.append(_Term(index, keys))
    return tuple(parts)


def _power_chain(needed: Iterable[_PowerKey]) -> tuple[_PowerStep, ...]:
    """Steps that build every needed power column from power-1 columns.

    Powers of one variable are built in increasing order, each as the
    product of two powers already built when such a pair exists, and
    otherwise from its two halves, built first: ``x^4 = x^2 * x^2``,
    ``x^5 = x^4 * x``, ``x^7 = x^3 * x^4``.
    """
    steps: list[_PowerStep] = []
    built: dict[int, set[int]] = {}

    def build(i: int, e: int) -> None:
        have = built.setdefault(i, {1})
        if e in have:
            return
        left = next((a for a in sorted(have, reverse=True) if e - a in have), None)
        if left is None:
            left = e // 2
            build(i, left)
            build(i, e - left)
        steps.append(((i, e), (i, left), (i, e - left)))
        have.add(e)

    for i, e in sorted(needed):
        build(i, e)
    return tuple(steps)


def _sum_values(
    parts: tuple[_Term | _Factor, ...],
    coefficients: list[int],
    powers: dict[_PowerKey, Iterable[int]],
    size: int,
) -> Iterable[int]:
    """The values of ``parts``, as one lazy pass over the power columns."""
    total: Iterable[int] | None = None
    for part in parts:
        if type(part) is _Factor:
            quotient = _sum_values(part.quotient, coefficients, powers, size)
            value = map(mul, powers[part.key], quotient)
        else:
            coefficient = coefficients[part.index]
            if not part.keys:
                value = repeat(coefficient, size)
            else:
                value = powers[part.keys[0]]
                for key in part.keys[1:]:
                    value = map(mul, value, powers[key])
                if coefficient != 1:
                    value = map(mul, value, repeat(coefficient))
        total = value if total is None else map(add, total, value)
    assert total is not None
    return total


def evaluate_columns(
    f: SparseForm,
    columns: Sequence[Sequence[int]],
    size: int,
    *,
    alphabet: Sequence[int] | None = None,
) -> tuple[list[int], int]:
    """Values of ``f`` at ``size`` integer points given column by column.

    ``columns[i][j]`` is coordinate ``i`` of point ``j``, or, with an
    ``alphabet`` of at most 256 integers, its code: the coordinate is
    ``alphabet[columns[i][j]]``.  Codes are byte values, so ``bytes``
    columns are read as they are.  The size is passed because a form in
    no variables has no column to read it from.  Returns ``(values, denominator)`` with
    ``f(point j) == Fraction(values[j], denominator)``, where
    ``denominator > 0`` is the least common denominator of the
    coefficients, cleared once per call.  Raises ``ValueError`` for a
    negative size or a code outside ``range(len(alphabet))``, and
    ``DimensionMismatch`` unless there is one column per variable, each
    of ``size`` entries.

    The form is evaluated by the greedy Horner schedule of its support
    (see :func:`_horner_parts`), built once per form: a power of a
    variable shared by several terms is multiplied in once for all of
    them.  Each power column above 1 is the product of two lower ones,
    computed once per call; a power-1 column is the input column itself,
    never written.  With an alphabet, each power column the sum reads is
    instead looked up, code by code, in a table of that power of every
    letter, built per call: it stays a lazy ``map`` when the sum reads it
    once and is listed once when it reads it more often.  A sum starts
    from its first part, and a term is scaled by its coefficient only when
    that is not 1.  The products and sums are chained ``map``s over whole
    columns, in Python ints, which the returned list consumes in one pass.
    """
    if size < 0:
        raise ValueError(f"size must be nonnegative, got {size}")
    if len(columns) != f.num_vars:
        raise DimensionMismatch(
            f"{len(columns)} columns given, form has {f.num_vars} variables"
        )
    letters = None if alphabet is None else bytes(range(len(alphabet)))
    for i, column in enumerate(columns):
        if len(column) != size:
            raise DimensionMismatch(
                f"column of x{i + 1} has {len(column)} entries, expected {size}"
            )
        # bytes() rejects a code outside range(256); translate deletes the valid ones.
        if letters is not None and bytes(column).translate(None, letters):
            raise ValueError(f"column of x{i + 1} has a code outside range({len(letters)})")
    coefficients, denominator = integer_numerators(list(f.terms.values()))
    if not coefficients:
        return [0] * size, denominator
    chain, parts, reads = f._schedule
    powers: dict[_PowerKey, Iterable[int]] = {}
    if alphabet is None:
        powers.update(((i, 1), column) for i, column in enumerate(columns))
        for key, left, right in chain:
            powers[key] = list(map(mul, powers[left], powers[right]))
    else:
        for (i, e), count in reads.items():
            lookup = map([a**e for a in alphabet].__getitem__, columns[i])
            powers[i, e] = lookup if count == 1 else list(lookup)
    return list(_sum_values(parts, coefficients, powers, size)), denominator


def evaluate_many(
    f: SparseForm, points: Sequence[Sequence[RationalLike]]
) -> tuple[list[int], int]:
    """Exact values of ``f`` at a batch of rational points, as integers.

    Returns ``(numerators, denominator)`` with
    ``f(points[i]) == Fraction(numerators[i], denominator)`` and
    ``denominator > 0``, so signs and zeros can be read off the ints.
    Every coordinate of the batch is written over one common denominator
    ``D``; homogeneity gives ``f(p / D) = f(p) / D**degree``, and
    :func:`evaluate_columns` evaluates the integer points ``p``, sliced
    into coordinate columns.  No ``Fraction`` is built.
    """
    n = f.num_vars
    for point in points:
        if len(point) != n:
            raise DimensionMismatch(
                f"point has {len(point)} coordinates, form has {n} variables"
            )
    flat, point_denominator = integer_numerators([v for point in points for v in point])
    values, denominator = evaluate_columns(f, [flat[i::n] for i in range(n)], len(points))
    return values, denominator * point_denominator**f.degree


def evaluate(f: SparseForm, point: Sequence[RationalLike]) -> Fraction:
    """Exact value of ``f`` at one rational point.

    :func:`evaluate_many` on a batch of one; the one ``Fraction`` built
    is the result.
    """
    (numerator,), denominator = evaluate_many(f, [point])
    return Fraction(numerator, denominator)


# ---------------------------------------------------------------------------
# form arithmetic (what the transforms and test-instance builders need)
#
# The arithmetic runs on integer numerators: each input form becomes its
# coefficients' numerators over their least common denominator, one product
# kernel multiplies ``{exponent: int}`` maps, and each coefficient of the
# result is built as a ``Fraction`` once, at the end.
# ---------------------------------------------------------------------------

def _numerators(f: SparseForm) -> tuple[dict[Exponent, int], int]:
    numerators, denominator = integer_numerators(list(f.terms.values()))
    return dict(zip(f.terms, numerators)), denominator


def _product(a: dict[Exponent, int], b: dict[Exponent, int]) -> dict[Exponent, int]:
    """The product of two ``{exponent: int}`` maps; a cancelled term stays as 0."""
    out: dict[Exponent, int] = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            key = tuple(map(add, ea, eb))
            out[key] = out.get(key, 0) + ca * cb
    return out


def _from_numerators(
    num_vars: int, numerators: dict[Exponent, int], denominator: int, degree: int
) -> SparseForm:
    """The form ``numerators / denominator``, zeros dropped.  Its exponents
    share one total degree, so descending order is graded-lex order."""
    terms = {
        e: Fraction(numerators[e], denominator)
        for e in sorted(numerators, reverse=True)
        if numerators[e]
    }
    return SparseForm(num_vars=num_vars, degree=degree, terms=terms)


def add_forms(*forms: SparseForm) -> SparseForm:
    if not forms:
        raise ValueError("add_forms needs at least one form")
    num_vars = forms[0].num_vars
    if any(f.num_vars != num_vars for f in forms):
        raise DimensionMismatch("cannot add forms in different variable counts")
    degrees = {f.degree for f in forms if not f.is_zero}
    if len(degrees) > 1:
        raise NotHomogeneous(f"cannot add forms of degrees {sorted(degrees)}")
    numerators, denominator = integer_numerators([c for f in forms for c in f.terms.values()])
    total: dict[Exponent, int] = {}
    for e, c in zip([e for f in forms for e in f.terms], numerators):
        total[e] = total.get(e, 0) + c
    hint = degrees.pop() if degrees else forms[0].degree
    return _from_numerators(num_vars, total, denominator, hint)


def scale_form(f: SparseForm, factor: RationalLike) -> SparseForm:
    factor = Fraction(factor)
    numerators, denominator = _numerators(f)
    scaled = {e: c * factor.numerator for e, c in numerators.items()}
    return _from_numerators(f.num_vars, scaled, denominator * factor.denominator, f.degree)


def mul_forms(f: SparseForm, g: SparseForm) -> SparseForm:
    if f.num_vars != g.num_vars:
        raise DimensionMismatch("cannot multiply forms in different variable counts")
    (a, da), (b, db) = _numerators(f), _numerators(g)
    return _from_numerators(f.num_vars, _product(a, b), da * db, f.degree + g.degree)


def form_power(f: SparseForm, k: int) -> SparseForm:
    if k < 0:
        raise ValueError("nonnegative powers only")
    numerators, denominator = _numerators(f)
    result = {(0,) * f.num_vars: 1}
    for _ in range(k):
        result = _product(result, numerators)
    return _from_numerators(f.num_vars, result, denominator**k, k * f.degree)


def variable(num_vars: int, index: int) -> SparseForm:
    """The form ``x<index>`` (1-based, to match the text grammar)."""
    if not 1 <= index <= num_vars:
        raise DimensionMismatch(f"variable x{index} outside 1..{num_vars}")
    exponent = tuple(1 if i == index - 1 else 0 for i in range(num_vars))
    return SparseForm(num_vars=num_vars, degree=1, terms={exponent: Fraction(1)})


# ---------------------------------------------------------------------------
# transforms used to build test instances
# ---------------------------------------------------------------------------

def embed_variables(f: SparseForm, m: int) -> SparseForm:
    """Zero-pad every exponent to ``num_vars + m`` variables."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    if m == 0:
        return f
    pad = (0,) * m
    terms = {e + pad: c for e, c in f.terms.items()}
    return SparseForm(num_vars=f.num_vars + m, degree=f.degree, terms=terms)


def multiply_monomial_square(f: SparseForm, var_index: int, ell: int) -> SparseForm:
    """Multiply by ``x<var_index>^(2*ell)``; raises the degree by ``2*ell``."""
    if not 1 <= var_index <= f.num_vars:
        raise DimensionMismatch(f"variable x{var_index} outside 1..{f.num_vars}")
    if ell < 0:
        raise ValueError("ell must be nonnegative")
    shift = 2 * ell
    i = var_index - 1
    terms = {e[:i] + (e[i] + shift,) + e[i + 1:]: c for e, c in f.terms.items()}
    return SparseForm(num_vars=f.num_vars, degree=f.degree + shift, terms=terms)


def substitute_linear(f: SparseForm, matrix: Sequence[Sequence[RationalLike]]) -> SparseForm:
    """Expand ``f(A x)`` exactly for a square rational matrix ``A``.

    Row ``i`` of the matrix gives the substitution of variable ``x(i+1)``.
    The matrix is scaled to one integer denominator, and the powers of each
    row's linear form are computed once per call, as the terms need them.
    """
    n = f.num_vars
    if len(matrix) != n or any(len(row) != n for row in matrix):
        raise DimensionMismatch(f"matrix must be {n}x{n}")
    flat, scale = integer_numerators([v for row in matrix for v in row])
    one = (0,) * n
    # chains[i][p] is the p-th power of row i's linear form, over scale**p.
    units = [one[:j] + (1,) + one[j + 1:] for j in range(n)]
    rows = [flat[i * n:i * n + n] for i in range(n)]
    chains = [[{one: 1}, {e: v for e, v in zip(units, row) if v}] for row in rows]
    numerators, denominator = _numerators(f)
    total: dict[Exponent, int] = {}
    for exponent, coeff in numerators.items():
        partial = {one: coeff}
        for chain, power in zip(chains, exponent):
            while len(chain) <= power:
                chain.append(_product(chain[-1], chain[1]))
            if power:
                partial = _product(partial, chain[power])
        for key, value in partial.items():
            total[key] = total.get(key, 0) + value
    return _from_numerators(n, total, denominator * scale**f.degree, f.degree)
