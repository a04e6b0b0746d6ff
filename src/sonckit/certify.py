"""Membership tests for the cone of sums of nonnegative circuit forms.

The exact routes are the coefficient-sum necessary condition

    sum over inner exponents of |f_beta|
        <=  sum over used square exponents of f_alpha,

its equality-case corollary ``f_alpha >= min_k lambda_alpha^k * |f_beta|``,
and exact verification of explicit cancellation-free decompositions.  A
bounded numeric feasibility search over decomposition weights covers small
instances the exact routes leave open.  It runs mirror descent on a
smoothed maximum of the circuit margins, which is convex in the weights.  A
numeric result never certifies -- feasible weights are rounded to rationals
and re-verified exactly, and infeasibility is only reported with an
explicit margin: the smallest margin a first-order method found for a
convex objective; numeric, not a bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Sequence

from .errors import (
    BudgetExceeded,
    PreconditionNotEquality,
    UncoveredInnerExponent,
    ZeroFormInput,
)
from .circuits import (
    Circuit,
    NotACircuit,
    decide_circuit_nonnegativity,
    detect_circuit,
)
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


def necessary_condition(
    f: SparseForm, partition: SupportPartition
) -> NecessaryConditionReport:
    if f.is_zero:
        raise ZeroFormInput("necessary condition needs a nonzero form")
    inner_sum = sum((abs(f.terms[b]) for b in partition.i_set), _ZERO)
    outer_sum = sum((f.terms[a] for a in partition.s_set - partition.r_set), _ZERO)
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
    inner_sum = sum((abs(f.terms[b]) for b in partition.i_set), _ZERO)
    outer_sum = sum((f.terms[a] for a in partition.s_set - partition.r_set), _ZERO)
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
    """Candidate decomposition into nonnegative circuits plus a monomial
    square remainder, all supported inside the target's support."""

    circuits: tuple[Circuit, ...]
    monomial_square_remainder: SparseForm


@dataclass(frozen=True)
class VerificationResult:
    valid: bool
    reason: str | None = None


def verify_decomposition(f: SparseForm, d: SoncDecomposition) -> VerificationResult:
    """Exact validity check; names the first failing condition."""
    try:
        total = add_forms(
            *(c.form for c in d.circuits), d.monomial_square_remainder
        ) if d.circuits else d.monomial_square_remainder
    except Exception:
        return VerificationResult(False, "sum_mismatch")
    if total != f:
        return VerificationResult(False, "sum_mismatch")
    for circuit in d.circuits:
        redetected = detect_circuit(circuit.form)
        if isinstance(redetected, NotACircuit):
            return VerificationResult(False, "not_a_circuit")
        if not decide_circuit_nonnegativity(redetected).is_nonnegative:
            return VerificationResult(False, "circuit_not_nonnegative")
    support = set(f.terms.keys())
    for circuit in d.circuits:
        if not set(circuit.form.terms.keys()) <= support:
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
    arithmetic (verified decomposition, or exhausted zero-parameter
    family).  ``margin`` is the best achieved maximum over circuits of
    ``nu * |f_beta| - theta`` in coefficient units."""

    status: SearchStatus
    margin: float | None
    decomposition: SoncDecomposition | None
    exact: bool


def _build_exact_decomposition(
    f: SparseForm,
    partition: SupportPartition,
    problem: _SearchProblem,
    weights: Sequence[Fraction],
) -> SoncDecomposition | None:
    """Assemble the candidate decomposition from exact weights laid out
    like ``problem``'s split weights; ``None`` when some piece fails to be
    a circuit (rounding artefacts)."""
    remainder_terms: dict[Exponent, Fraction] = {
        alpha: f.terms[alpha] for alpha in partition.r_set
    }
    circuits: list[Circuit] = []
    for (beta, simplex), (nu_index, _, terms) in zip(problem.circuits, problem.slots):
        nu = weights[nu_index]
        outer_pairs = {
            alpha: weights[mu_index] * f.terms[alpha]
            for alpha, (mu_index, _, _) in zip(simplex.vertices, terms)
        }
        if nu == 0:
            for alpha, coeff in outer_pairs.items():
                if coeff != 0:
                    remainder_terms[alpha] = remainder_terms.get(alpha, _ZERO) + coeff
            continue
        if any(coeff == 0 for coeff in outer_pairs.values()):
            return None
        terms = dict(outer_pairs)
        terms[beta] = terms.get(beta, _ZERO) + nu * f.terms[beta]
        piece = make_form(f.num_vars, terms, zero_degree=f.degree)
        detected = detect_circuit(piece)
        if isinstance(detected, NotACircuit):
            return None
        circuits.append(detected)
    remainder = make_form(f.num_vars, remainder_terms, zero_degree=f.degree)
    return SoncDecomposition(
        circuits=tuple(circuits), monomial_square_remainder=remainder
    )


def _rationalize_group(values: Sequence[float]) -> list[Fraction] | None:
    snapped = []
    for value in values:
        if value < 1e-9:
            snapped.append(_ZERO)
        elif value > 1 - 1e-9:
            snapped.append(_ONE)
        else:
            snapped.append(Fraction(value).limit_denominator(10**6))
    total = sum(snapped, _ZERO)
    if total == 0:
        return None
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
    certifies: any feasible point is rounded to rationals and must
    re-verify exactly.
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
        decomposition = _build_exact_decomposition(f, partition, problem, ones)
        if decomposition is not None and verify_decomposition(f, decomposition).valid:
            return SearchOutcome(SearchStatus.FEASIBLE, 0.0, decomposition, exact=True)
        # Floats for the report only; the infeasibility itself is exact.
        values, _ = problem.margins([1.0] * problem.weight_count)
        return SearchOutcome(SearchStatus.INFEASIBLE, max(values), None, exact=True)

    best_margin, best_weights = _optimize(problem)
    if best_margin <= 1e-6:
        # Promising enough to try the exact gate; rounding hits boundary
        # optima (weights like 1/2) exactly via continued fractions.
        groups = [
            _rationalize_group(best_weights[first : first + size])
            for first, size in problem.groups
        ]
        if all(group is not None for group in groups):
            exact = [weight for group in groups for weight in group]
            decomposition = _build_exact_decomposition(f, partition, problem, exact)
            if decomposition is not None and verify_decomposition(f, decomposition).valid:
                return SearchOutcome(
                    SearchStatus.FEASIBLE, best_margin, decomposition, exact=True
                )
    if best_margin <= 1e-9:
        return SearchOutcome(SearchStatus.FEASIBLE, best_margin, None, exact=False)
    if best_margin > _INFEASIBILITY_MARGIN:
        return SearchOutcome(SearchStatus.INFEASIBLE, best_margin, None, exact=False)
    return SearchOutcome(SearchStatus.INCONCLUSIVE, best_margin, None, exact=False)


def _smoothed_max(values: Sequence[float], tau: float) -> float:
    """``peak + tau * log sum exp((v - peak) / tau)``, the search's objective.

    The sum is a left fold: builtin ``sum`` of floats is compensated from
    Python 3.12 on, which would change the search's trajectory."""
    exp = math.exp
    peak = max(values)
    total = 0.0
    for v in values:
        total += exp((v - peak) / tau)
    return peak + tau * math.log(total)


class _SearchProblem:
    """The weight-splitting problem of a support partition, laid out once
    as flat index lists for the float search and the exact gate.

    ``circuits`` holds ``(beta, simplex)`` per circuit slot: inner
    exponents in graded-lex order, each followed by its covering family.
    All split weights sit in one list: one group per used square (the
    slots whose simplex has it as a vertex), then one per inner exponent
    (the slots of its family), each in graded-lex and then slot order.
    ``groups`` holds ``(first weight, size)`` per group; the mirror descent
    keeps one logit per weight.  ``slots`` holds ``(nu index, |f_beta|,
    [(mu index, lambda, log f_alpha - log lambda)])`` per circuit slot.
    ``size`` is the number of free weights, the sum of group size - 1.  An
    inner exponent with no covering simplex raises
    :class:`UncoveredInnerExponent`.
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
        self.slots = [
            (
                position[beta, index],
                float(abs(f.terms[beta])),
                [
                    (
                        position[alpha, index],
                        float(lam),
                        math.log(float(f.terms[alpha])) - math.log(float(lam)),
                    )
                    for alpha, lam in zip(simplex.vertices, simplex.barycentric)
                ],
            )
            for index, (beta, simplex) in enumerate(self.circuits)
        ]

    def weights(self, logits: Sequence[float]) -> list[float]:
        """The group softmaxes of ``logits``, one logit per weight, flat.
        Each total is a left fold, as in :func:`_smoothed_max`."""
        exp = math.exp
        weights = [1.0] * self.weight_count
        for first, stop in self._free_groups:
            group = logits[first:stop]
            peak = max(group)
            exps = [exp(v - peak) for v in group]
            total = 0.0
            for e in exps:
                total += e
            weights[first:stop] = [e / total for e in exps]
        return weights

    def margins(self, weights: Sequence[float]) -> tuple[list[float], list[float]]:
        """Each slot's margin ``nu * |f_beta| - theta`` and its threshold
        ``theta = prod (mu_alpha f_alpha / lambda_alpha) ** lambda_alpha``,
        with each mu clamped below at 1e-300."""
        log, exp = math.log, math.exp
        values, thresholds = [], []
        for nu_index, abs_inner, terms in self.slots:
            log_theta = 0.0
            for mu_index, lam, constant in terms:
                mu = weights[mu_index]
                # ``max(mu, 1e-300)`` without the call, NaN included
                log_theta += lam * (log(1e-300 if mu < 1e-300 else mu) + constant)
            threshold = exp(log_theta)
            values.append(weights[nu_index] * abs_inner - threshold)
            thresholds.append(threshold)
        return values, thresholds

    def gradient(
        self,
        weights: Sequence[float],
        values: Sequence[float],
        thresholds: Sequence[float],
        tau: float,
        smoothed: float,
    ) -> list[float]:
        """Gradient in the split weights of the smoothed maximum of the
        margins, by reverse mode through the forward pass that gave these
        values.  ``smoothed`` is ``_smoothed_max(values, tau)``, which the
        caller has already computed.  The entries of forced weights (groups
        of one) are never used."""
        exp = math.exp
        upstream = [0.0] * self.weight_count
        for (nu_index, abs_inner, terms), v, threshold in zip(self.slots, values, thresholds):
            share = exp((v - smoothed) / tau)
            upstream[nu_index] += share * abs_inner
            pull = share * threshold
            for mu_index, lam, _ in terms:
                mu = weights[mu_index]
                if mu > 1e-300:  # the clamp in ``margins`` is flat below
                    upstream[mu_index] -= pull * lam / mu
        return upstream


def _optimize(problem: _SearchProblem) -> tuple[float, list[float]]:
    """Best hard margin found and the split weights that reach it, by one
    entropic mirror descent run from the uniform split: each step takes the
    weight-space gradient, times a step length that halves until the
    smoothed maximum does not rise, off the logits of the group softmaxes.
    The smoothed maximum is computed once per forward pass, and once more
    at each change of temperature: the accepted trial's value is the next
    step's level and goes into its gradient."""
    scale = max(abs_inner for _, abs_inner, _ in problem.slots)
    last_phase = len(_TAUS) - 1
    logits = [0.0] * problem.weight_count
    weights = problem.weights(logits)
    values, thresholds = problem.margins(weights)
    best_margin, best_weights = max(values), weights
    step = 3 * _TAUS[0] / scale
    stalled = 0
    for iteration in range(_ITERATIONS):
        if best_margin <= 1e-10 or stalled >= _PHASE + 60:
            break
        phase = min(iteration // _PHASE, last_phase)
        if iteration == phase * _PHASE:  # the first step at a new temperature
            tau = _TAUS[phase] * scale
            level = _smoothed_max(values, tau)
        gradient = problem.gradient(weights, values, thresholds, tau, level)
        while True:
            trial = [v - step * g for v, g in zip(logits, gradient)]
            weights = problem.weights(trial)
            values, thresholds = problem.margins(weights)
            # A short enough step leaves the logits, and the level, as they
            # are; only a slope that overflowed can run the step down to 0.
            smoothed = _smoothed_max(values, tau)
            if smoothed <= level or not step:
                break
            step /= 2
        logits = trial
        step *= 2 if smoothed < level else 1
        level = smoothed
        current = max(values)
        # Only the last phase counts steps that hardly improve the margin.
        progress = current < best_margin - 1e-7 * max(1.0, scale)
        stalled = 0 if phase < last_phase or progress else stalled + 1
        if current < best_margin:
            best_margin, best_weights = current, weights
    return best_margin, best_weights
