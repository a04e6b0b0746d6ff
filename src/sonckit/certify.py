"""Membership tests for the cone of sums of nonnegative circuit forms.

The exact routes are the coefficient-sum necessary condition

    sum over inner exponents of |f_beta|
        <=  sum over used square exponents of f_alpha,

its equality-case corollary ``f_alpha >= min_k lambda_alpha^k * |f_beta|``,
and exact verification of explicit cancellation-free decompositions: the
pieces are plain forms, and :func:`verify_decomposition` alone detects
each as a circuit and decides its nonnegativity.  A bounded numeric
feasibility search over decomposition weights covers small instances the
exact routes leave open.  It runs mirror descent on a smoothed maximum of
the circuit margins, which is convex in the weights.  A numeric result
never certifies -- feasible weights are rounded to rationals, the pieces
they make must pass :func:`verify_decomposition`, and infeasibility is
only reported with an explicit margin: the smallest margin a first-order
method found for a convex objective; numeric, not a bound.  Each search
compiles one function for its problem on first use, which runs the whole
descent: one loop over the steps around a forward pass and a gradient written as
straight-line Python, with the float operations of the interpreted loops
kept as test oracles in the same order; every float the search reports
comes from it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from types import FunctionType
from typing import Sequence

from .errors import (
    BudgetExceeded,
    DimensionMismatch,
    FloatRangeExceeded,
    NotHomogeneous,
    PreconditionNotEquality,
    UncoveredInnerExponent,
    ZeroFormInput,
)
from .circuits import Circuit, decide_circuit_nonnegativity, detect_circuit
from .forms import Exponent, SparseForm, add_forms, grlex_key, make_form
from .geometry import SupportPartition, Simplex

_ZERO = Fraction(0)
_ONE = Fraction(1)


class ConditionVerdict(Enum):
    VIOLATED = "Violated"
    EQUALITY = "Equality"
    STRICTLY_SATISFIED = "StrictlySatisfied"
    #: No inner exponent: both sums are empty, and there is nothing to
    #: compare or to bound.
    VACUOUS = "Vacuous"


@dataclass(frozen=True)
class CorollaryViolation:
    alpha: Exponent
    beta: Exponent
    bound: Fraction
    coefficient: Fraction


@dataclass(frozen=True)
class CorollaryReport:
    violations: tuple[CorollaryViolation, ...]

    @property
    def passed(self) -> bool:
        return not self.violations


@dataclass(frozen=True)
class NecessaryConditionReport:
    """Exact inner/outer coefficient sums with the resulting verdict.

    ``uncovered_inner`` lists inner exponents covered by no simplex; any
    such exponent already rules out a cancellation-free decomposition, so
    the verdict is ``VIOLATED`` whenever it is nonempty.  A form with no
    inner exponent gets ``VACUOUS``.  The corollary report is attached
    exactly in the equality case.
    """

    inner_sum: Fraction
    outer_sum: Fraction
    verdict: ConditionVerdict
    uncovered_inner: frozenset[Exponent]
    corollary: CorollaryReport | None

    @property
    def rules_out_sonc(self) -> bool:
        """Exact "not SONC": the condition is violated, or it holds with
        equality and the corollary fails."""
        return self.verdict is ConditionVerdict.VIOLATED or (
            self.corollary is not None and not self.corollary.passed
        )


def _coefficient_sums(
    f: SparseForm, partition: SupportPartition
) -> tuple[Fraction, Fraction]:
    """The sum of ``|f_beta|`` over the inner exponents and the sum of
    the used squares' coefficients."""
    inner_sum = sum((abs(f.terms[b]) for b in partition.i_set), _ZERO)
    outer_sum = sum((f.terms[a] for a in partition.s_set - partition.r_set), _ZERO)
    return inner_sum, outer_sum


def necessary_condition(
    f: SparseForm, partition: SupportPartition
) -> NecessaryConditionReport:
    if f.is_zero:
        raise ZeroFormInput("necessary condition needs a nonzero form")
    inner_sum, outer_sum = _coefficient_sums(f, partition)
    uncovered = partition.uncovered_inner
    if not partition.i_set:
        verdict = ConditionVerdict.VACUOUS
    elif uncovered or inner_sum > outer_sum:
        verdict = ConditionVerdict.VIOLATED
    elif inner_sum == outer_sum:
        verdict = ConditionVerdict.EQUALITY
    else:
        verdict = ConditionVerdict.STRICTLY_SATISFIED
    corollary = (
        corollary_check(f, partition)
        if verdict is ConditionVerdict.EQUALITY
        else None
    )
    return NecessaryConditionReport(
        inner_sum=inner_sum,
        outer_sum=outer_sum,
        verdict=verdict,
        uncovered_inner=uncovered,
        corollary=corollary,
    )


def per_simplex_weights(
    partition: SupportPartition, alpha: Exponent, beta: Exponent
) -> tuple[Fraction, ...]:
    """Barycentric weight of ``alpha`` in each covering simplex of
    ``beta``; zero where ``alpha`` is not among that simplex's vertices."""
    weights = []
    for simplex in partition.simplex_families.get(tuple(beta), ()):
        try:
            weights.append(simplex.barycentric[simplex.vertices.index(tuple(alpha))])
        except ValueError:
            weights.append(_ZERO)
    return tuple(weights)


def corollary_check(f: SparseForm, partition: SupportPartition) -> CorollaryReport:
    """Equality-case lower bounds on the used square coefficients.

    For every used square exponent and inner exponent, the coefficient
    must reach ``min_k lambda^k * |f_beta|``; strict failures are
    returned as violations, by used square and then by inner exponent,
    both in descending graded-lex order.  The bound is zero unless
    ``alpha`` is a vertex of every simplex in the family of ``beta``, and
    a used square has a positive coefficient, so one pass over each
    family, over the vertices all its simplices share, finds them all.
    """
    inner_sum, outer_sum = _coefficient_sums(f, partition)
    if partition.uncovered_inner or inner_sum != outer_sum:
        raise PreconditionNotEquality(
            "corollary applies only when the inner and outer sums agree"
        )
    violations = []
    for beta in partition.i_set:
        first, *rest = partition.simplex_families[beta]
        lowest = dict(zip(first.vertices, first.barycentric))
        for simplex in rest:
            weights = dict(zip(simplex.vertices, simplex.barycentric))
            lowest = {a: min(w, weights[a]) for a, w in lowest.items() if a in weights}
        for alpha, weight in lowest.items():
            bound = weight * abs(f.terms[beta])
            if f.terms[alpha] < bound:
                violations.append(
                    CorollaryViolation(
                        alpha=alpha,
                        beta=beta,
                        bound=bound,
                        coefficient=f.terms[alpha],
                    )
                )
    violations.sort(key=lambda v: (grlex_key(v.alpha), grlex_key(v.beta)), reverse=True)
    return CorollaryReport(violations=tuple(violations))


# ---------------------------------------------------------------------------
# explicit decompositions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SoncDecomposition:
    """Candidate decomposition into nonnegative circuit forms plus a
    monomial square remainder, all supported inside the target's support.
    ``circuits`` holds the piece forms; :func:`verify_decomposition`
    decides whether each is a nonnegative circuit."""

    circuits: tuple[SparseForm, ...]
    monomial_square_remainder: SparseForm


@dataclass(frozen=True)
class VerificationResult:
    valid: bool
    reason: str | None = None


def verify_decomposition(f: SparseForm, d: SoncDecomposition) -> VerificationResult:
    """Exact validity check; names the first failing condition.  Each piece
    is detected here: the zero form and a form that fails
    :func:`detect_circuit` are ``not_a_circuit``."""
    try:
        total = add_forms(
            *d.circuits, d.monomial_square_remainder
        ) if d.circuits else d.monomial_square_remainder
    except (DimensionMismatch, NotHomogeneous):
        return VerificationResult(False, "sum_mismatch")
    if total != f:
        return VerificationResult(False, "sum_mismatch")
    for piece in d.circuits:
        circuit = None if piece.is_zero else detect_circuit(piece)
        if not isinstance(circuit, Circuit):
            return VerificationResult(False, "not_a_circuit")
        if not decide_circuit_nonnegativity(circuit).is_nonnegative:
            return VerificationResult(False, "circuit_not_nonnegative")
    support = set(f.terms.keys())
    for piece in d.circuits:
        if not set(piece.terms.keys()) <= support:
            return VerificationResult(False, "support_not_contained")
    remainder = d.monomial_square_remainder
    if any(
        coeff < 0 or any(e % 2 for e in exponent)
        for exponent, coeff in remainder.terms.items()
    ):
        return VerificationResult(False, "remainder_not_monomial_squares")
    return VerificationResult(True, None)


# ---------------------------------------------------------------------------
# bounded feasibility search
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SearchBudget:
    """Largest number of free split weights the search takes on; larger
    problems raise :class:`BudgetExceeded` before any work.  A negative
    budget raises :class:`ValueError`."""

    max_params: int = 6

    def __post_init__(self) -> None:
        if self.max_params < 0:
            raise ValueError(f"max_params must be at least 0, got {self.max_params}")


#: Best margin above which a numeric search reports infeasibility.
_INFEASIBILITY_MARGIN = 1e-3
#: Smoothing temperatures in units of the largest |f_beta|, the steps of
#: each phase before the last, and the cap on all steps.
_TAUS = (0.3, 0.03, 0.003, 0.0003)
_PHASE = 300
_ITERATIONS = 25_000


class SearchStatus(Enum):
    FEASIBLE = "Feasible"
    INFEASIBLE = "InfeasibleWithMargin"
    INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class SearchOutcome:
    """Search result; ``exact`` marks conclusions backed by rational
    arithmetic (a decomposition :func:`verify_decomposition` accepted, or
    an exhausted zero-parameter family).  ``margin`` is the best achieved
    maximum over circuits of ``nu * |f_beta| - theta`` in coefficient
    units."""

    status: SearchStatus
    margin: float | None
    decomposition: SoncDecomposition | None
    exact: bool


def _verified_decomposition(
    f: SparseForm,
    partition: SupportPartition,
    problem: _SearchProblem,
    weights: Sequence[Fraction],
) -> SoncDecomposition | None:
    """The decomposition that exact weights, laid out like ``problem``'s
    split weights, make of ``f``, if :func:`verify_decomposition` accepts
    it.  A piece whose inner weight is zero is a sum of squares and joins
    the remainder; a rounded piece that is no circuit (a zero square
    weight) is rejected there."""
    remainder_terms: dict[Exponent, Fraction] = {
        alpha: f.terms[alpha] for alpha in partition.r_set
    }
    pieces: list[SparseForm] = []
    for (beta, simplex), (nu_index, mu_indices) in zip(problem.circuits, problem.indices):
        nu = weights[nu_index]
        outer_pairs = {
            alpha: weights[mu_index] * f.terms[alpha]
            for alpha, mu_index in zip(simplex.vertices, mu_indices)
        }
        if nu == 0:
            for alpha, coeff in outer_pairs.items():
                remainder_terms[alpha] = remainder_terms.get(alpha, _ZERO) + coeff
            continue
        terms = {**outer_pairs, beta: nu * f.terms[beta]}
        pieces.append(make_form(f.num_vars, terms, zero_degree=f.degree))
    remainder = make_form(f.num_vars, remainder_terms, zero_degree=f.degree)
    decomposition = SoncDecomposition(tuple(pieces), remainder)
    return decomposition if verify_decomposition(f, decomposition).valid else None


def _rationalize_group(values: Sequence[float]) -> list[Fraction]:
    """A group's best weights as rationals that sum to one.  They are a
    softmax, so the largest, at least ``1 / len(values)``, is not snapped
    to zero."""
    snapped = []
    for value in values:
        if value < 1e-9:
            snapped.append(_ZERO)
        elif value > 1 - 1e-9:
            snapped.append(_ONE)
        else:
            snapped.append(Fraction(value).limit_denominator(10**6))
    total = sum(snapped, _ZERO)
    return [value / total for value in snapped]


def sonc_feasibility_search(
    f: SparseForm,
    partition: SupportPartition,
    budget: SearchBudget | None = None,
) -> SearchOutcome:
    """Search cancellation-free decomposition weights.

    Square coefficients are split across covering simplices and inner
    coefficients across their circuits (both splits summing to one); a
    choice is feasible when every resulting circuit passes the exact
    nonnegativity test.  Each margin ``nu * |f_beta| - theta`` is convex in
    the splits (``theta`` is a weighted geometric mean of linear functions),
    and the search runs entropic mirror descent on their smoothed maximum
    with the exact reverse-mode gradient.  Its numeric result never
    certifies: any feasible point is rounded to rationals, and the pieces
    they make must pass :func:`verify_decomposition`.
    """
    budget = budget or SearchBudget()
    if f.is_zero:
        raise ZeroFormInput("feasibility search needs a nonzero form")
    problem = _SearchProblem(f, partition)
    if problem.size > budget.max_params:
        raise BudgetExceeded(
            f"{problem.size} free weights exceed the budget of {budget.max_params}"
        )
    if problem.size == 0:
        # Every split is forced; with no inner exponent the remainder is f.
        ones = [_ONE] * problem.weight_count
        decomposition = _verified_decomposition(f, partition, problem, ones)
        if decomposition is not None:
            return SearchOutcome(SearchStatus.FEASIBLE, 0.0, decomposition, exact=True)
    try:
        if problem.size == 0:
            # Floats for the report only; the infeasibility itself is exact.
            margin = problem._descent(1.0, 0)[0]  # the start's hard maximum
            return SearchOutcome(SearchStatus.INFEASIBLE, margin, None, exact=True)
        best_margin, best_weights = _optimize(problem)
    except OverflowError:  # only ``exp`` raises it, for a theta beyond the float range
        raise FloatRangeExceeded("a circuit threshold lies above the float range") from None
    if best_margin <= 1e-6:
        # Promising enough to try the exact gate; rounding hits boundary
        # optima (weights like 1/2) exactly via continued fractions.
        exact = [
            weight
            for first, size in problem.groups
            for weight in _rationalize_group(best_weights[first : first + size])
        ]
        decomposition = _verified_decomposition(f, partition, problem, exact)
        if decomposition is not None:
            return SearchOutcome(SearchStatus.FEASIBLE, best_margin, decomposition, exact=True)
    if best_margin <= 1e-9:
        return SearchOutcome(SearchStatus.FEASIBLE, best_margin, None, exact=False)
    if best_margin > _INFEASIBILITY_MARGIN:
        return SearchOutcome(SearchStatus.INFEASIBLE, best_margin, None, exact=False)
    return SearchOutcome(SearchStatus.INCONCLUSIVE, best_margin, None, exact=False)


class _SearchProblem:
    """The weight-splitting problem of a support partition, laid out once
    as flat index lists for the float search and the exact gate.

    ``circuits`` holds ``(beta, simplex)`` per circuit slot: inner
    exponents in graded-lex order, each followed by its covering family.
    All split weights sit in one list: one group per used square (the
    slots whose simplex has it as a vertex), then one per inner exponent
    (the slots of its family), each in graded-lex and then slot order.
    ``groups`` holds ``(first weight, size)`` per group; the mirror descent
    keeps one logit per weight.  ``indices`` holds ``(nu index, [mu
    index])`` per circuit slot; ``slots``, made on first use, ``(nu index,
    |f_beta|, [(mu index, lambda, log f_alpha - log lambda)])``, and a
    coefficient above the float range, or a square one that rounds to 0.0,
    raises :class:`FloatRangeExceeded` there.  ``size`` is the number of
    free weights, the sum of group size - 1.  An inner exponent with no
    covering simplex raises :class:`UncoveredInnerExponent`.

    One function, ``_descent``, runs the whole mirror descent, its forward
    pass and gradient unrolled into straight-line source.  It is generated
    from this layout and compiled on first use, so a problem over the
    budget or settled as feasible at size 0 compiles nothing.  Its results
    equal those of the interpreted loops it replaces (kept as oracles in
    the tests) bit for bit.
    """

    def __init__(self, f: SparseForm, partition: SupportPartition):
        # Square and inner exponents are disjoint, so one map holds the
        # slot indices of both kinds of group.
        used = sorted(partition.s_set - partition.r_set, key=grlex_key)
        members: dict[Exponent, list[int]] = {alpha: [] for alpha in used}
        self.circuits: list[tuple[Exponent, Simplex]] = []
        for beta in sorted(partition.i_set, key=grlex_key):
            family = partition.simplex_families.get(beta, ())
            if not family:
                raise UncoveredInnerExponent(
                    f"inner exponent {beta} lies in no covering simplex"
                )
            for simplex in family:
                for key in (beta, *simplex.vertices):
                    members.setdefault(key, []).append(len(self.circuits))
                self.circuits.append((beta, simplex))
        self.groups: list[tuple[int, int]] = []
        self.size = 0
        self.weight_count = 0
        position: dict[tuple[Exponent, int], int] = {}
        for key, indices in members.items():
            self.groups.append((self.weight_count, len(indices)))
            for index in indices:
                position[key, index] = self.weight_count
                self.weight_count += 1
            self.size += len(indices) - 1
        # The groups the softmax acts on; a group of one is forced to 1.
        self._free_groups = [
            (first, first + size) for first, size in self.groups if size > 1
        ]
        # The weights that have a logit in the search.
        self._free = [k for first, stop in self._free_groups for k in range(first, stop)]
        self.indices = [
            (position[beta, index], [position[alpha, index] for alpha in simplex.vertices])
            for index, (beta, simplex) in enumerate(self.circuits)
        ]
        self._terms = f.terms

    @functools.cached_property
    def slots(self) -> list[tuple[int, float, list[tuple[int, float, float]]]]:
        # Made on first use, after the exact gate at size 0, which needs none.
        terms = self._terms
        return [
            (nu_index, _magnitude(terms, beta), [
                (mu_index, float(lam), _log_magnitude(terms, alpha) - math.log(float(lam)))
                for mu_index, alpha, lam in zip(mu_indices, simplex.vertices, simplex.barycentric)
            ])
            for (beta, simplex), (nu_index, mu_indices) in zip(self.circuits, self.indices)
        ]

    @functools.cached_property
    def _descent(self) -> FunctionType:
        """``descend(scale, iterations)``: :func:`_optimize`'s mirror descent
        at that scale for at most that many steps, which returns the best
        hard margin, the weights that reach it (forced ones 1.0), and the
        number of trial steps and of forward passes it ran."""
        return _compile("descend(scale, iterations)", self._descent_source())

    # The generated source.  Weight ``k`` is the local ``w{k}``, its logit
    # ``l{k}`` and its gradient entry ``g{k}``; slot ``i`` has margin
    # ``v{i}`` and threshold ``th{i}``.  Each float operation of the loops
    # this kernel replaces is kept, in the same order, but for a few that
    # are exact:
    # - a left fold's leading ``0.0 +``: softmax totals, the smoothed
    #   maximum and a nu's gradient entry (each weight gets one term) add
    #   terms that are never -0.0, and a ``log theta`` fold only feeds
    #   ``exp``, to which the sign of a zero makes no difference;
    # - a forced weight is 1.0: ``1.0 * |f_beta|`` is ``|f_beta|``, and a
    #   forced mu's term ``lambda * (log(1.0) + c)`` is computed here by the
    #   same operations; no step reads a forced weight's gradient entry.
    # Every sum is a left fold: builtin ``sum`` of floats is compensated
    # from Python 3.12 on, which would change the search's trajectory.

    def _softmax_source(self) -> list[str]:
        lines = []
        for first, stop in self._free_groups:
            group = range(first, stop)
            # ``max`` keeps the first of equal items, as this chain does.
            lines.append(f"p = l{first}")
            lines += [f"p = l{k} if l{k} > p else p" for k in group[1:]]
            lines += [f"e{k} = exp(l{k} - p)" for k in group]
            lines.append(f"t = {' + '.join(f'e{k}' for k in group)}")
            lines += [f"w{k} = e{k} / t" for k in group]
        return lines

    def _margin_source(self) -> list[str]:
        """``th{i}`` and ``v{i}`` per slot, then their hard maximum ``m``
        and their smoothed maximum ``smoothed`` at temperature ``tau``."""
        free = set(self._free)
        lines = []
        for i, (nu_index, abs_inner, terms) in enumerate(self.slots):
            parts = [
                f"{lam!r} * (log(1e-300 if w{k} < 1e-300 else w{k}) + {constant!r})"
                if k in free
                else repr(lam * (math.log(1.0) + constant))
                for k, lam, constant in terms
            ]
            lines.append(f"th{i} = exp({' + '.join(parts)})")
            nu = f"w{nu_index} * " if nu_index in free else ""
            lines.append(f"v{i} = {nu}{abs_inner!r} - th{i}")
        values = [f"v{i}" for i in range(len(self.slots))]
        exps = " + ".join(f"exp(({v} - m) / tau)" for v in values)
        lines.append("m = v0")
        lines += [f"m = {v} if {v} > m else m" for v in values[1:]]
        lines.append(f"smoothed = m + tau * log({exps})")
        return lines

    def _gradient_source(self) -> list[str]:
        """``g{k}`` of each free weight, at the smoothed maximum ``level``:
        every weight has exactly one term, as the nu of one slot or as a mu
        of one slot."""
        free = set(self._free)
        lines = []
        for i, (nu_index, abs_inner, terms) in enumerate(self.slots):
            mus = [(k, lam) for k, lam, _ in terms if k in free]
            if nu_index not in free and not mus:
                continue
            lines.append(f"s = exp((v{i} - level) / tau)")
            if nu_index in free:
                lines.append(f"g{nu_index} = s * {abs_inner!r}")
            if mus:
                lines.append(f"p = s * th{i}")
            lines += [
                f"g{k} = 0.0 - p * {lam!r} / w{k} if w{k} > 1e-300 else 0.0"
                for k, lam in mus
            ]
        return lines

    def _step_source(self) -> list[str]:
        """The trial logits ``l{k}``, a step of length ``step`` from ``o{k}``
        against the gradient."""
        return [f"l{k} = o{k} - step * g{k}" for k in self._free]

    def _descent_source(self) -> list[str]:
        """The body of :attr:`_descent`.  Each turn of its loop runs the one
        forward pass: at the start logits, at a new temperature, or at the
        trial logits it computes first.  A rejected trial halves the step
        and turns again; every other pass is followed by the gradient that
        the next trial steps against."""
        free = set(self._free)
        last = len(_TAUS) - 1
        best = (f"b{k}" if k in free else "1.0" for k in range(self.weight_count))
        return [
            f"tau = {_TAUS[0]!r} * scale",
            f"step = {3 * _TAUS[0]!r} / scale",
            "tolerance = 1e-7 * max(1.0, scale)",
            *(f"l{k} = 0.0" for k in self._free),
            "best = inf",
            "iteration = stalled = trials = passes = 0",
            "trial = False",
            "while True:",
            *_block([
                "if trial:",
                *_block(["trials += 1", *self._step_source()]),
                "passes += 1",
                *self._softmax_source(),
                *self._margin_source(),
                "if trial:",
                *_block([
                    # A short enough step leaves the logits, and the level,
                    # as they are; only a slope that overflowed can run the
                    # step down to 0.
                    "if step and not smoothed <= level:",
                    *_block(["step /= 2", "continue"]),
                    "if smoothed < level:",
                    *_block(["step *= 2"]),
                    # Only the last phase counts steps that hardly improve
                    # the margin.
                    f"stalled = 0 if phase < {last} or m < best - tolerance else stalled + 1",
                    "iteration += 1",
                ]),
                # A pass at a new temperature has the weights of the step
                # before it, so it never improves the best margin.
                "if m < best:",
                *_block(["best = m", *(f"b{k} = w{k}" for k in self._free)]),
                "level = smoothed",
                f"if best <= 1e-10 or stalled >= {_PHASE + 60} or iteration == iterations:",
                *_block([f"return best, [{', '.join(best)}], trials, passes"]),
                f"phase = min(iteration // {_PHASE}, {last})",
                f"if trial and iteration == phase * {_PHASE}:",
                *_block([f"tau = {_TAUS!r}[phase] * scale", "trial = False", "continue"]),
                *self._gradient_source(),
                *(f"o{k} = l{k}" for k in self._free),
                "trial = True",
            ]),
        ]


def _magnitude(terms: dict[Exponent, Fraction], exponent: Exponent) -> float:
    """``|f_exponent|`` as a float, 0.0 if it rounds to that."""
    try:
        return float(abs(terms[exponent]))
    except OverflowError:
        raise FloatRangeExceeded(f"the coefficient of {exponent} lies above the float range")


def _log_magnitude(terms: dict[Exponent, Fraction], exponent: Exponent) -> float:
    """``log |f_exponent|``, of a coefficient that must not round to 0.0."""
    magnitude = _magnitude(terms, exponent)
    if not magnitude:
        raise FloatRangeExceeded(f"the coefficient of {exponent} lies below the float range")
    return math.log(magnitude)


def _block(lines: list[str]) -> list[str]:
    return ["    " + line for line in lines]


def _compile(header: str, body: list[str]) -> FunctionType:
    """The function ``def {header}:`` of generated ``body``, over ``exp``,
    ``log`` and ``inf``.  The source holds only local names, integers and
    floats written by ``repr``, which round-trips them exactly; each float
    is finite, since :class:`_SearchProblem` admits only coefficients in
    the float range."""
    namespace = {"exp": math.exp, "log": math.log, "inf": math.inf}
    text = "\n".join([f"def {header}:", *_block(body)])
    exec(compile(text, "<search kernel>", "exec"), namespace)
    return namespace[header.partition("(")[0]]


def _optimize(problem: _SearchProblem) -> tuple[float, list[float]]:
    """Best hard margin found and the split weights that reach it, by one
    entropic mirror descent run from the uniform split: each step takes the
    weight-space gradient, times a step length that halves until the
    smoothed maximum does not rise, off the logits of the group softmaxes.
    Only free weights have logits.  The whole descent runs in the problem's
    compiled kernel, one forward pass per trial, one at the start and one
    at each later change of temperature, whose smoothed maximum is the
    level of the next step."""
    scale = max(abs_inner for _, abs_inner, _ in problem.slots)
    if not scale:
        raise FloatRangeExceeded("every inner coefficient lies below the float range")
    best_margin, best_weights, _, _ = problem._descent(scale, _ITERATIONS)
    return best_margin, best_weights
