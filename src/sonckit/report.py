"""Analysis pipeline and machine-readable reports.

``analyze`` runs support partition, circuit detection, the necessary
condition with its equality-case corollary, the mediated-set
sum-of-squares decision for circuits, and (on request) the bounded
feasibility search, then condenses everything into tagged verdicts.
The partition's Newton polytope vertices serve the precheck alone;
circuit detection reads the squares.  Every verdict carries its certificate kind:
``exact`` conclusions rest on exact rational arithmetic, ``numeric`` ones
come from the margin-reporting search.  Four rules assemble the verdicts:
the first reason found for a conclusion wins; "not nonnegative" implies
"not SONC"; a numeric verdict never overrides an exact opposite; and
contradictory exact verdicts raise :class:`InternalInvariantViolation`
(exit 2).  The JSON records the verdicts with their reasons and the data
behind them (partition, coefficient sums, corollary violations, circuit
weights, mediated set or the note of a scan over the lattice cap, search
status), but not yet every certificate needed to replay an exact
verdict; see ROADMAP item 5.  JSON output is schema-versioned and
serializes all rationals as ``p/q`` strings.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from .errors import (
    BudgetExceeded,
    CapExceeded,
    FloatRangeExceeded,
    InternalInvariantViolation,
    UncoveredInnerExponent,
)
from .certify import (
    ConditionVerdict,
    NecessaryConditionReport,
    SearchBudget,
    SearchOutcome,
    SearchStatus,
    necessary_condition,
    sonc_feasibility_search,
)
from .circuits import (
    Circuit,
    CircuitKind,
    NotACircuit,
    circuit_number,
    decide_circuit_nonnegativity,
    detect_circuit,
)
from .forms import SparseForm, format_rational, grlex_key
from .geometry import SupportPartition, non_square_vertex, support_partition
from .mediated import MediatedSet, circuit_is_sos, mediated_set_of_circuit

JSON_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class Verdict:
    conclusion: str
    certificate: str  # "exact" | "numeric"
    reason: str


@dataclass
class AnalysisReport:
    form_name: str
    num_vars: int
    degree: int
    zero_form: bool
    hilbert_case: bool
    partition: SupportPartition | None = None
    circuit: Circuit | NotACircuit | None = None
    circuit_nonnegative: bool | None = None
    circuit_boundary: bool | None = None
    circuit_theta_float: float | None = None
    circuit_sos: bool | None = None
    mediated: MediatedSet | None = None
    mediated_note: str | None = None
    precheck_witness: tuple[int, ...] | None = None
    necessary: NecessaryConditionReport | None = None
    feasibility: SearchOutcome | None = None
    feasibility_note: str | None = None
    verdicts: list[Verdict] = field(default_factory=list)


# Conclusions that cannot hold together: direct negations, and "not
# nonnegative" next to a cone that implies nonnegativity.  "SOS" and "not
# SONC" can both hold, so they are no pair.
_CONTRADICTIONS = (
    ("SONC", "not SONC"),
    ("SOS", "not SOS"),
    ("nonnegative", "not nonnegative"),
    ("SONC", "not nonnegative"),
    ("SOS", "not nonnegative"),
)


def _is_hilbert_case(num_vars: int, degree: int) -> bool:
    """Variable/degree ranges where nonnegativity and sums of squares
    coincide; informational only."""
    return num_vars == 2 or degree == 2 or (num_vars, degree) == (3, 4)


def analyze(
    f: SparseForm,
    search: bool = False,
    budget: SearchBudget | None = None,
) -> AnalysisReport:
    report = AnalysisReport(
        form_name=f.name or "anonymous",
        num_vars=f.num_vars,
        degree=f.degree,
        zero_form=f.is_zero,
        hilbert_case=_is_hilbert_case(f.num_vars, f.degree),
    )
    if f.is_zero:
        return report
    # One verdict per conclusion, in the order first concluded.
    verdicts: dict[str, Verdict] = {}

    def conclude(conclusion: str, reason: str) -> None:
        verdicts.setdefault(conclusion, Verdict(conclusion, "exact", reason))
        if conclusion == "not nonnegative":
            conclude("not SONC", "not nonnegative, hence in no nonnegativity cone")

    report.partition = partition = support_partition(f)
    report.precheck_witness = witness = non_square_vertex(
        partition.vertices, partition.s_set
    )
    if witness is not None:
        conclude(
            "not nonnegative",
            f"Newton polytope vertex {witness} is not a monomial square",
        )

    report.circuit = circuit = detect_circuit(f)
    if isinstance(circuit, Circuit):
        decision = decide_circuit_nonnegativity(circuit)
        report.circuit_nonnegative = decision.is_nonnegative
        report.circuit_boundary = decision.boundary
        if circuit.kind is CircuitKind.PROPER:
            report.circuit_theta_float = circuit_number(circuit).float_value
        if decision.is_nonnegative:
            flavor = "boundary" if decision.boundary else "strictly above the threshold"
            conclude("nonnegative", f"nonnegative circuit ({flavor})")
            conclude("SONC", "a nonnegative circuit form")
            if circuit.kind is CircuitKind.MONOMIAL_SQUARE_SUM:
                report.circuit_sos = True
                conclude("SOS", "sum of monomial squares")
            else:
                try:
                    report.mediated = mediated_set_of_circuit(circuit)
                except CapExceeded as error:
                    # Too many lattice points to scan: no SOS verdict.
                    report.mediated_note = f"{type(error).__name__}: {error}"
                else:
                    report.circuit_sos = sos = circuit_is_sos(circuit, report.mediated)
                    assert circuit.inner is not None
                    conclude(
                        "SOS" if sos else "not SOS",
                        f"inner exponent {circuit.inner[0]}"
                        f" {'lies in' if sos else 'is outside'} the maximal mediated set",
                    )
        else:
            conclude(
                "not nonnegative",
                "inner coefficient magnitude exceeds the circuit number",
            )

    if not partition.i_set:
        # Circuit forms keep their reasons above.
        for conclusion in ("nonnegative", "SONC", "SOS"):
            conclude(conclusion, "a sum of monomial squares with positive coefficients")

    report.necessary = necessary = necessary_condition(f, partition)
    if necessary.rules_out_sonc:
        if necessary.uncovered_inner:
            uncovered = sorted(necessary.uncovered_inner, key=grlex_key)
            reason = (
                f"inner exponents {uncovered} lie in no simplex spanned by"
                " monomial squares"
            )
        elif necessary.verdict is ConditionVerdict.VIOLATED:
            reason = (
                f"inner coefficient sum {necessary.inner_sum} exceeds the"
                f" available square coefficient sum {necessary.outer_sum}"
            )
        else:
            violation = necessary.corollary.violations[0]
            reason = (
                f"equality case forces coefficient of {violation.alpha} to be"
                f" at least {violation.bound}, found {violation.coefficient}"
            )
        conclude("not SONC", reason)

    if search:
        try:
            report.feasibility = sonc_feasibility_search(f, partition, budget)
        except (BudgetExceeded, FloatRangeExceeded, UncoveredInnerExponent) as error:
            report.feasibility_note = f"{type(error).__name__}: {error}"
        else:
            verdict = _search_verdict(report.feasibility, verdicts)
            if verdict is not None:
                verdicts.setdefault(verdict.conclusion, verdict)

    report.verdicts = list(verdicts.values())
    _enforce_consistency(report.verdicts)
    return report


def _search_verdict(
    outcome: SearchOutcome, verdicts: dict[str, Verdict]
) -> Verdict | None:
    """The SONC verdict the search outcome adds to ``verdicts``, if any.

    Every verdict before the search is exact, and a numeric verdict never
    overrides an exact opposite; the raw outcome stays visible in the
    report's feasibility field either way."""
    if outcome.status is SearchStatus.FEASIBLE:
        conclusion, opposite = "SONC", "not SONC"
        if outcome.exact:
            decomposition = outcome.decomposition
            count = 0 if decomposition is None else len(decomposition.circuits)
            reason = f"verified cancellation-free decomposition into {count} circuits"
        else:
            reason = "numerically feasible weights; exact rounding failed"
    elif outcome.status is SearchStatus.INFEASIBLE:
        conclusion, opposite = "not SONC", "SONC"
        reason = f"no cancellation-free decomposition; margin {outcome.margin:.6g}"
    else:
        return None
    if outcome.exact:
        return Verdict(conclusion, "exact", reason)
    return None if opposite in verdicts else Verdict(conclusion, "numeric", reason)


def _enforce_consistency(verdicts: list[Verdict]) -> None:
    conclusions = {v.conclusion for v in verdicts}
    for positive, negative in _CONTRADICTIONS:
        if positive in conclusions and negative in conclusions:
            raise InternalInvariantViolation(
                f"contradictory verdicts {positive!r} and {negative!r}"
            )


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _exponent_list(exponent) -> list[int]:
    return [int(v) for v in exponent]


def _sorted_exponents(exponents) -> list[list[int]]:
    return [_exponent_list(e) for e in sorted(exponents, key=grlex_key)]


def report_to_dict(report: AnalysisReport) -> dict[str, Any]:
    data: dict[str, Any] = {
        "schema": JSON_SCHEMA_VERSION,
        "name": report.form_name,
        "num_vars": report.num_vars,
        "degree": report.degree,
        "zero_form": report.zero_form,
        "hilbert_case": report.hilbert_case,
        "verdicts": [
            {
                "conclusion": v.conclusion,
                "certificate": v.certificate,
                "reason": v.reason,
            }
            for v in report.verdicts
        ],
    }
    if report.partition is not None:
        partition = report.partition
        data["partition"] = {
            "squares": _sorted_exponents(partition.s_set),
            "inner": _sorted_exponents(partition.i_set),
            "vertices": _sorted_exponents(partition.vertices),
            "unused_squares": _sorted_exponents(partition.r_set),
            "family_sizes": {
                str(tuple(beta)): len(family)
                for beta, family in sorted(partition.simplex_families.items())
            },
        }
    if report.necessary is not None:
        necessary = report.necessary
        data["necessary_condition"] = {
            "inner_sum": format_rational(necessary.inner_sum),
            "outer_sum": format_rational(necessary.outer_sum),
            "verdict": necessary.verdict.value,
            "uncovered_inner": _sorted_exponents(necessary.uncovered_inner),
            "corollary_violations": None
            if necessary.corollary is None
            else [
                {
                    "alpha": _exponent_list(v.alpha),
                    "beta": _exponent_list(v.beta),
                    "bound": format_rational(v.bound),
                    "coefficient": format_rational(v.coefficient),
                }
                for v in necessary.corollary.violations
            ],
        }
    if isinstance(report.circuit, Circuit):
        circuit = report.circuit
        data["circuit"] = {
            "kind": circuit.kind.value,
            "outer": [
                {"exponent": _exponent_list(e), "coefficient": format_rational(c)}
                for e, c in circuit.outer
            ],
            "inner": None
            if circuit.inner is None
            else {
                "exponent": _exponent_list(circuit.inner[0]),
                "coefficient": format_rational(circuit.inner[1]),
            },
            "barycentric": [format_rational(w) for w in circuit.barycentric],
            "nonnegative": report.circuit_nonnegative,
            "boundary": report.circuit_boundary,
            "circuit_number_float": report.circuit_theta_float,
            "is_sos": report.circuit_sos,
        }
    elif isinstance(report.circuit, NotACircuit):
        data["circuit"] = {"kind": "NotACircuit", "reason": report.circuit.reason}
    if report.mediated is not None:
        mediated = report.mediated
        data["mediated_set"] = {
            "generators": _sorted_exponents(mediated.delta),
            "star": _sorted_exponents(mediated.star),
            "classification": mediated.classification.value,
        }
    elif report.mediated_note is not None:
        data["mediated_set_note"] = report.mediated_note
    if report.feasibility is not None:
        outcome = report.feasibility
        data["feasibility"] = {
            "status": outcome.status.value,
            "margin": outcome.margin,
            "exact": outcome.exact,
            "circuits": None
            if outcome.decomposition is None
            else len(outcome.decomposition.circuits),
        }
    elif report.feasibility_note is not None:
        data["feasibility"] = {"status": "error", "detail": report.feasibility_note}
    return data


def verdicts_from_dict(data: Any) -> list[Verdict]:
    """Re-ingest the verdict list of a serialized report; raises
    :class:`ValueError` naming the first malformed part."""
    if not isinstance(data, dict):
        raise ValueError("report must be a JSON object")
    if data.get("schema") != JSON_SCHEMA_VERSION:
        raise ValueError(f"unsupported schema {data.get('schema')!r}")
    items = data.get("verdicts")
    if not isinstance(items, list):
        raise ValueError("'verdicts' must be a list")
    verdicts = []
    for index, item in enumerate(items):
        if not isinstance(item, dict):
            raise ValueError(f"verdict {index} must be a JSON object")
        for key in ("conclusion", "certificate", "reason"):
            if not isinstance(item.get(key), str):
                raise ValueError(f"verdict {index} needs a string {key!r}")
        if item["certificate"] not in ("exact", "numeric"):
            raise ValueError(
                f"verdict {index} has certificate {item['certificate']!r},"
                " not 'exact' or 'numeric'"
            )
        verdicts.append(
            Verdict(item["conclusion"], item["certificate"], item["reason"])
        )
    return verdicts


def render_text(report: AnalysisReport) -> str:
    lines = [
        f"form: {report.form_name}",
        f"variables: {report.num_vars}   degree: {report.degree}",
    ]
    if report.zero_form:
        lines.append("zero form: nothing to analyze")
        return "\n".join(lines)
    if report.hilbert_case:
        lines.append(
            "note: in this variable/degree range nonnegativity and sums of"
            " squares coincide"
        )
    partition = report.partition
    assert partition is not None and report.necessary is not None
    lines.append(
        f"support: {len(partition.s_set)} squares, {len(partition.i_set)} inner,"
        f" {len(partition.r_set)} unused squares"
    )
    necessary = report.necessary
    lines.append(
        f"coefficient sums: inner {necessary.inner_sum} vs outer"
        f" {necessary.outer_sum} -> {necessary.verdict.value}"
    )
    if isinstance(report.circuit, Circuit):
        extra = ""
        if report.circuit_theta_float is not None:
            extra = f", circuit number ~ {report.circuit_theta_float:.6g}"
        lines.append(f"circuit: {report.circuit.kind.value}{extra}")
    elif isinstance(report.circuit, NotACircuit):
        lines.append(f"circuit: no ({report.circuit.reason})")
    if report.mediated_note is not None:
        lines.append(f"mediated set: {report.mediated_note}")
    if report.feasibility is not None:
        outcome = report.feasibility
        margin = "" if outcome.margin is None else f", margin {outcome.margin:.6g}"
        lines.append(
            f"feasibility search: {outcome.status.value}"
            f" ({'exact' if outcome.exact else 'numeric'}{margin})"
        )
    elif report.feasibility_note is not None:
        lines.append(f"feasibility search: {report.feasibility_note}")
    if report.verdicts:
        lines.append("verdicts:")
        for verdict in report.verdicts:
            lines.append(
                f"  - {verdict.conclusion} [{verdict.certificate}] {verdict.reason}"
            )
    else:
        lines.append("verdicts: none (inconclusive)")
    return "\n".join(lines)
