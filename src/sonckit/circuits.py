"""Circuit detection, exact circuit-number comparison, and zero loci.

A circuit is a form whose monomial-square exponents are affinely
independent, plus at most one inner exponent in the relative interior of
their simplex; the squares are then exactly its Newton polytope vertices.
Nonnegativity of a circuit reduces to comparing the inner coefficient
magnitude against the circuit number

    theta = prod (f_alpha / lambda_alpha) ** lambda_alpha,

which this module decides exactly -- boundary cases must never flip under
rounding: equality by valuations on a coprime base of the rationals
involved, order by logarithms at a precision that outgrows a proven
rounding bound.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from decimal import ROUND_HALF_EVEN, Decimal, localcontext
from enum import Enum
from fractions import Fraction
from operator import mul
from typing import Iterable, Sequence

from .errors import (
    AffinelyDependentInput,
    DimensionMismatch,
    InternalInvariantViolation,
    MonomialSquareSumHasNoCircuitNumber,
    NotNonnegativeCircuit,
    ZeroCoordinate,
    ZeroFormInput,
)
from .exactlp import EchelonSolver, matrix_rank
from .forms import Exponent, SparseForm, evaluate, grlex_key
from .geometry import (
    affinely_independent,
    barycentric_coordinates,
    hull_vertices,
    monomial_square_support,
)

#: Pivot norm at or below which :func:`logs_affinely_independent` reads
#: the log images as affinely dependent.
LOG_INDEPENDENCE_TOLERANCE = 1e-9


class CircuitKind(Enum):
    MONOMIAL_SQUARE_SUM = "MonomialSquareSum"
    PROPER = "ProperCircuit"


@dataclass(frozen=True)
class Circuit:
    """Validated circuit form.

    ``outer`` pairs the vertex exponents with their (positive)
    coefficients in canonical order; ``barycentric`` aligns with ``outer``
    and is empty for sums of monomial squares.
    """

    form: SparseForm
    outer: tuple[tuple[Exponent, Fraction], ...]
    inner: tuple[Exponent, Fraction] | None
    barycentric: tuple[Fraction, ...]
    kind: CircuitKind


@dataclass(frozen=True)
class NotACircuit:
    """Why a form failed circuit detection."""

    reason: str
    detail: str


@dataclass(frozen=True)
class CircuitNumber:
    """The AM-GM threshold ``prod base_i ** exponent_i`` kept in factored
    exact shape, with positive bases and the circuit's barycentric weights,
    which sum to one, as exponents; ``float_value`` is display-only and never decides, and is
    ``None`` when a base or the threshold lies outside the float range."""

    factor_bases: tuple[Fraction, ...]
    exponents: tuple[Fraction, ...]
    float_value: float | None


class Comparison(Enum):
    LESS = "Less"
    EQUAL = "Equal"
    GREATER = "Greater"


@dataclass(frozen=True)
class NonnegativityVerdict:
    """Outcome of the circuit nonnegativity decision; ``boundary`` marks
    the AM-GM equality case."""

    is_nonnegative: bool
    boundary: bool


class ZeroLocusStatus(Enum):
    EMPTY_IN_OPEN_ORTHANT = "EmptyInOpenOrthant"
    SIGN_CASE_OUT_OF_SCOPE = "SignCaseOutOfScope"


@dataclass(frozen=True)
class ZeroLocus:
    """Solution set of ``f(exp(y)) = 0`` for a boundary circuit with
    negative inner coefficient, as an affine-linear system in ``y``.

    Row ``i`` of ``matrix`` is ``alpha(i) - alpha(0)``; the matching
    ``rhs_symbolic`` entry ``(a, b)`` denotes the exact right-hand side
    ``log(a) - log(b)`` where ``a = lambda_i / lambda_0`` and
    ``b = f_i / f_0`` (ratios against the base vertex keep the system
    correct for arbitrary outer coefficients).
    """

    matrix: tuple[tuple[int, ...], ...]
    rhs_symbolic: tuple[tuple[Fraction, Fraction], ...]
    dimension: int

    def rhs_floats(self) -> list[float]:
        return [math.log(a) - math.log(b) for a, b in self.rhs_symbolic]

    def sample_solutions(self, count: int, seed: int = 0) -> list[tuple[float, ...]]:
        """``count`` float points of the affine solution space: the
        minimum-norm solution plus standard normal multiples of an
        orthonormal null-space basis, drawn from ``random.Random(seed)``."""
        particular, basis = self._solution_space()
        rng = random.Random(seed)
        return [
            _combine(particular, [rng.gauss(0.0, 1.0) for _ in basis], basis)
            for _ in range(count)
        ]

    def _solution_space(self) -> tuple[tuple[float, ...], list[tuple[float, ...]]]:
        """Minimum-norm solution and orthonormal null-space basis, in floats,
        from one exact elimination: free column ``j`` gives the null vector
        ``e_j - solve(M e_j)``, and floats are dyadic rationals, so the solve
        at the float right sides is exact until it is rounded."""
        solver = EchelonSolver(self.matrix)
        columns = list(zip(*self.matrix))
        free = set(range(solver.ncols)) - {col for _, col in solver.pivots}
        null = [[(j == k) - x for k, x in enumerate(solver.solve(columns[j]))] for j in free]
        basis = _orthonormal(null, 0.0)
        particular = [float(x) for x in solver.solve([Fraction(r) for r in self.rhs_floats()])]
        return _combine(particular, [-sum(map(mul, particular, v)) for v in basis], basis), basis


# ---------------------------------------------------------------------------
# detection
# ---------------------------------------------------------------------------

def detect_circuit(f: SparseForm) -> Circuit | NotACircuit:
    """Decide the circuit conditions by one exact solve on the squares:
    independent squares with the inner exponent, if any, in the relative
    interior of their simplex are the Newton polytope vertices.  Only a
    failing form computes the hull, to name the first condition it fails."""
    if f.is_zero:
        raise ZeroFormInput("circuit detection needs a nonzero form")
    squares = monomial_square_support(f)
    inner_set = sorted(set(f.terms.keys()) - squares, key=grlex_key)
    if len(inner_set) > 1:
        return NotACircuit(
            reason="multiple_inner_exponents",
            detail=f"{len(inner_set)} exponents are not monomial squares",
        )
    outer_points = sorted(squares, key=grlex_key, reverse=True)
    outer = tuple((e, f.terms[e]) for e in outer_points)
    reason = "affinely_dependent_vertices"
    detail = f"vertex set {outer_points} is affinely dependent"
    if not inner_set and affinely_independent(outer_points):
        return Circuit(f, outer, inner=None, barycentric=(), kind=CircuitKind.MONOMIAL_SQUARE_SUM)
    if inner_set:
        beta = inner_set[0]
        try:
            weights = barycentric_coordinates(beta, outer_points)
        except AffinelyDependentInput:
            pass  # the reason above stands
        else:
            if weights is not None:
                return Circuit(f, outer, (beta, f.terms[beta]), weights, CircuitKind.PROPER)
            reason = "inner_not_in_relint"
            detail = f"{beta} is not in the relative interior of the vertex hull"
    vertices = hull_vertices(f.terms.keys())
    if vertices != squares:
        missing = sorted(squares - vertices, key=grlex_key)
        extra = sorted(vertices - squares, key=grlex_key)
        reason = "vertex_square_mismatch"
        detail = f"squares off the vertex set: {missing}; non-square vertices: {extra}"
    return NotACircuit(reason=reason, detail=detail)


# ---------------------------------------------------------------------------
# circuit number
# ---------------------------------------------------------------------------

def circuit_number(c: Circuit) -> CircuitNumber:
    if c.kind is not CircuitKind.PROPER:
        raise MonomialSquareSumHasNoCircuitNumber(
            "sums of monomial squares carry no circuit number"
        )
    bases = tuple(coeff / lam for (_, coeff), lam in zip(c.outer, c.barycentric))
    try:
        float_value = math.exp(
            sum(float(lam) * math.log(float(base)) for base, lam in zip(bases, c.barycentric))
        )
    except (OverflowError, ValueError):  # a base or the value beyond the float range
        float_value = None
    return CircuitNumber(
        factor_bases=bases, exponents=tuple(c.barycentric), float_value=float_value
    )


def compare_circuit_number(theta: CircuitNumber, t: Fraction | int) -> Comparison:
    """Exact trichotomy of a nonnegative rational against the circuit
    number.  The number is a weighted geometric mean of its bases, so it
    lies between their weighted harmonic and arithmetic means, and a ``t``
    strictly outside that bracket is decided by them.  A ``t`` inside it
    is first tested for equality on a coprime base of the numerators and
    denominators, then ordered by logarithms at doubling precision; no
    power to the weights' common denominator is taken."""
    t = Fraction(t)
    if t < 0:
        raise ValueError("comparison is defined for nonnegative t")
    if t == 0:
        return Comparison.LESS  # bases are positive, so theta > 0
    lcm = math.lcm(*(weight.denominator for weight in theta.exponents))
    powers = [int(weight * lcm) for weight in theta.exponents]
    # lcm times the arithmetic mean is above / a, lcm over the harmonic
    # mean below / b: integer fractions, so no sum pays for a gcd.
    above, a, below, b = 0, 1, 0, 1
    for base, power in zip(theta.factor_bases, powers):
        p, q = base.numerator, base.denominator
        above, a = above * q + power * p * a, a * q
        below, b = below * p + power * q * b, b * p
    if t.numerator * lcm * a > t.denominator * above:
        return Comparison.GREATER
    if t.numerator * below < t.denominator * lcm * b:
        return Comparison.LESS
    # theta = t iff t**lcm = prod base**power, that is iff both sides have
    # the same valuation at every element of a coprime base of all the
    # numerators and denominators.
    values = (t, *theta.factor_bases)
    coprime = _coprime_base(n for v in values for n in (v.numerator, v.denominator))
    if all(
        lcm * _valuation(t, q)
        == sum(power * _valuation(base, q) for base, power in zip(theta.factor_bases, powers))
        for q in coprime
    ):
        return Comparison.EQUAL
    # Otherwise gap = log t - sum lambda_i log b_i is not 0.  At P digits
    # with half-even rounding, a rational x becomes x(1 + d) with
    # |d| <= e = 5 * 10**-P, and the correctly rounded log of that is off
    # from log x by at most |log(1 + d)| + e (|log x| + 2e) <= e (|log x| + 3),
    # where |log x| is below the larger bit length of x's numerator and
    # denominator.  The weights are positive and sum to one and the sum is
    # exact, so the gap is off by at most e (bits(t) + sum lambda_i bits(b_i)
    # + 6).  A gap beyond that bound has its true sign, and since the true
    # gap is not 0, doubling P reaches such a gap.
    bound = _log_bound(t) + 6 + sum(
        weight * _log_bound(base) for base, weight in zip(theta.factor_bases, theta.exponents)
    )
    digits = 32
    while True:
        with localcontext() as context:
            context.prec, context.rounding = digits, ROUND_HALF_EVEN
            gap = Fraction(_decimal(t).ln()) - sum(
                weight * Fraction(_decimal(base).ln())
                for base, weight in zip(theta.factor_bases, theta.exponents)
            )
        if abs(gap) * 10**digits > 5 * bound:
            return Comparison.LESS if gap < 0 else Comparison.GREATER
        digits *= 2


def _coprime_base(numbers: Iterable[int]) -> list[int]:
    """Pairwise coprime integers above 1 of which each of ``numbers`` is a
    product of powers, by gcd refinement with no factoring: a number
    sharing ``g > 1`` with a base element is split, with that element,
    into ``g`` and both parts stripped of ``g``."""
    base: list[int] = []
    pending = list(numbers)
    while pending:
        n = pending.pop()
        if n == 1:
            continue
        for i, q in enumerate(base):
            g = math.gcd(n, q)
            if g > 1:
                del base[i]
                pending += [g, n // g ** _multiplicity(n, g), q // g ** _multiplicity(q, g)]
                break
        else:
            base.append(n)
    return base


def _multiplicity(n: int, q: int) -> int:
    """The largest ``k`` with ``q**k`` dividing the nonzero ``n``, for
    ``q > 1``."""
    k = 0
    while n % q == 0:
        n //= q
        k += 1
    return k


def _valuation(x: Fraction, q: int) -> int:
    """The exponent of ``q`` in ``x``, for ``q`` in a coprime base of its
    numerator and denominator."""
    return _multiplicity(x.numerator, q) - _multiplicity(x.denominator, q)


def _log_bound(x: Fraction) -> int:
    """An upper bound on ``|log x|`` for a positive rational ``x``."""
    return max(x.numerator.bit_length(), x.denominator.bit_length())


def decide_circuit_nonnegativity(c: Circuit) -> NonnegativityVerdict:
    """Nonnegativity is exactly |inner coefficient| <= circuit number."""
    if c.kind is CircuitKind.MONOMIAL_SQUARE_SUM:
        return NonnegativityVerdict(is_nonnegative=True, boundary=False)
    assert c.inner is not None
    comparison = compare_circuit_number(circuit_number(c), abs(c.inner[1]))
    if comparison is Comparison.GREATER:
        return NonnegativityVerdict(is_nonnegative=False, boundary=False)
    return NonnegativityVerdict(
        is_nonnegative=True, boundary=comparison is Comparison.EQUAL
    )


# ---------------------------------------------------------------------------
# zero loci
# ---------------------------------------------------------------------------

def zero_locus(c: Circuit) -> ZeroLocus | ZeroLocusStatus:
    """Zeros of a nonnegative circuit on the open positive orthant.

    Strictly interior circuits have none; boundary circuits with negative
    inner coefficient vanish exactly on an affine subspace in the
    ``y = log x`` coordinates; the positive-inner boundary case is
    surfaced unresolved rather than guessing a sign change of variables.
    """
    if c.kind is not CircuitKind.PROPER:
        raise ValueError("zero locus is defined for proper circuits")
    verdict = decide_circuit_nonnegativity(c)
    if not verdict.is_nonnegative:
        raise NotNonnegativeCircuit("circuit takes negative values")
    if not verdict.boundary:
        return ZeroLocusStatus.EMPTY_IN_OPEN_ORTHANT
    assert c.inner is not None
    if c.inner[1] > 0:
        return ZeroLocusStatus.SIGN_CASE_OUT_OF_SCOPE
    locus = _log_system(c)
    if matrix_rank(locus.matrix) != len(locus.matrix):
        raise InternalInvariantViolation("vertex differences lost rank")
    return locus


def _log_system(c: Circuit) -> ZeroLocus:
    """The system in ``y = log x`` that puts every outer term of ``c`` at
    its barycentric share: the AM-GM equality case."""
    base_point, base_coeff = c.outer[0]
    base_weight = c.barycentric[0]
    rows = tuple(
        tuple(v - b for v, b in zip(point, base_point)) for point, _ in c.outer[1:]
    )
    rhs = tuple(
        (weight / base_weight, coeff / base_coeff)
        for (point, coeff), weight in zip(c.outer[1:], c.barycentric[1:])
    )
    return ZeroLocus(matrix=rows, rhs_symbolic=rhs, dimension=len(base_point) - len(rows))


def logs_affinely_independent(points: Sequence[Sequence[float]]) -> bool:
    """Whether the coordinatewise log-absolute images of the points are
    affinely independent, in floats: a pivoted modified Gram--Schmidt on
    their differences to the first keeps every pivot norm above
    :data:`LOG_INDEPENDENCE_TOLERANCE`.  Points of different lengths raise
    :class:`DimensionMismatch`."""
    if not points:
        return False
    if any(len(point) != len(points[0]) for point in points):
        raise DimensionMismatch(f"the points {points} differ in length")
    for point in points:
        if any(value == 0 for value in point):
            raise ZeroCoordinate(f"point {tuple(point)} has a zero coordinate")
    logs = [[math.log(abs(v)) for v in point] for point in points]
    diffs = [[a - b for a, b in zip(row, logs[0])] for row in logs[1:]]
    if len(diffs) > len(logs[0]):
        return False
    return len(_orthonormal(diffs, LOG_INDEPENDENCE_TOLERANCE)) == len(diffs)


def _orthonormal(rows: Sequence[Sequence[float]], tolerance: float) -> list[tuple[float, ...]]:
    """Modified Gram--Schmidt with pivoting: normalise the remaining row of
    largest residual norm, project it out of the others, and stop once
    that norm is at most ``tolerance``."""
    remaining = [tuple(map(float, row)) for row in rows]
    basis: list[tuple[float, ...]] = []
    while remaining:
        norm, index = max((math.hypot(*row), i) for i, row in enumerate(remaining))
        if norm <= tolerance:
            break
        vector = tuple(v / norm for v in remaining.pop(index))
        basis.append(vector)
        remaining = [_combine(row, [-sum(map(mul, row, vector))], [vector]) for row in remaining]
    return basis


def _combine(
    point: Sequence[float], steps: Sequence[float], vectors: Sequence[Sequence[float]]
) -> tuple[float, ...]:
    """``point`` plus ``steps[i]`` times ``vectors[i]`` for every ``i``."""
    for step, vector in zip(steps, vectors):
        point = [p + step * v for p, v in zip(point, vector)]
    return tuple(point)


# ---------------------------------------------------------------------------
# witnesses
# ---------------------------------------------------------------------------

def negative_witness(c: Circuit) -> tuple[Fraction, ...]:
    """Rational point with exactly negative value, for circuits that fail
    the nonnegativity test.

    The AM-GM equality direction (minimum-norm solution of the locus-style
    system) is the natural violator: first rounded to a denominator of at
    most 1e6, then, if that point is not negative, at growing decimal
    precision.  The returned point is verified exactly.
    """
    if decide_circuit_nonnegativity(c).is_nonnegative:
        raise ValueError("circuit is nonnegative; no negative witness exists")
    assert c.inner is not None and c.kind is CircuitKind.PROPER
    locus = _log_system(c)
    solution, _ = locus._solution_space()
    signs = _sign_pattern_for_negative_inner(*c.inner)
    point = tuple(
        sign * Fraction(math.exp(min(max(v, -12.0), 12.0))).limit_denominator(10**6)
        for sign, v in zip(signs, solution)
    )
    if evaluate(c.form, point) < 0:
        return point
    # Near the circuit number the value at the AM-GM point exceeds its
    # minimum by the square of the rounding error, so refine that point at
    # doubling precision until the exact value is negative; the limit is
    # negative, so this ends.
    solver = EchelonSolver(locus.matrix)
    digits = 32
    while True:
        with localcontext() as context:
            context.prec = digits
            rhs = [Fraction(_decimal(a).ln() - _decimal(b).ln()) for a, b in locus.rhs_symbolic]
            logs = solver.solve(rhs)
            point = tuple(sign * Fraction(_decimal(y).exp()) for sign, y in zip(signs, logs))
        if evaluate(c.form, point) < 0:
            return point
        digits *= 2


def _decimal(value: Fraction) -> Decimal:
    """``value`` rounded to the precision of the current decimal context."""
    return Decimal(value.numerator) / value.denominator


def _sign_pattern_for_negative_inner(
    beta: Exponent, inner_coeff: Fraction
) -> tuple[int, ...]:
    """Sign flips making the inner term negative on the positive orthant.

    Outer terms are monomial squares, so flips leave them unchanged.  A
    positive inner coefficient forces an odd entry in ``beta`` (else the
    term were itself a square), and flipping that variable works.
    """
    if inner_coeff < 0:
        return tuple(1 for _ in beta)
    odd = next(i for i, e in enumerate(beta) if e % 2 == 1)
    return tuple(-1 if i == odd else 1 for i in range(len(beta)))
