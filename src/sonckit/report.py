"""Analysis pipeline and machine-readable reports.

``analyze`` runs support partition, circuit detection, the necessary
condition with its equality-case corollary, the mediated-set
sum-of-squares decision for circuits, and (on request) the bounded
feasibility search, then condenses everything into tagged verdicts.
The support partition computes the Newton polytope vertices; every later
stage reads them from there.  Every verdict carries its certificate kind:
``exact`` conclusions rest on exact rational arithmetic, ``numeric`` ones
come from the margin-reporting search.  The JSON records the verdicts with
their reasons and the data behind them (partition, coefficient sums,
corollary violations, circuit weights, mediated set, search status), but
not yet every certificate needed to replay an exact verdict; see ROADMAP
item 5.  JSON output is schema-versioned and serializes all rationals as
``p/q`` strings.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from .errors import (
    BudgetExceeded,
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
    verdicts: list[Verdict] = []

    report.partition = partition = support_partition(f)
    report.precheck_witness = non_square_vertex(partition.vertices, partition.s_set)
    if report.precheck_witness is not None:
        witness = report.precheck_witness
        verdicts.append(
            Verdict(
                "not nonnegative",
                "exact",
                f"Newton polytope vertex {witness} is not a monomial square",
            )
        )
        verdicts.append(
            Verdict(
                "not SONC",
                "exact",
                "not nonnegative, hence in no nonnegativity cone",
            )
        )

    report.circuit = detect_circuit(f, vertices=partition.vertices)
    if isinstance(report.circuit, Circuit):
        circuit = report.circuit
        verdict = decide_circuit_nonnegativity(circuit)
        report.circuit_nonnegative = verdict.is_nonnegative
        report.circuit_boundary = verdict.boundary
        if circuit.kind is CircuitKind.PROPER:
            report.circuit_theta_float = circuit_number(circuit).float_value
        if verdict.is_nonnegative:
            flavor = "boundary" if verdict.boundary else "strictly above the threshold"
            verdicts.append(
                Verdict(
                    "nonnegative",
                    "exact",
                    f"nonnegative circuit ({flavor})",
                )
            )
            verdicts.append(
                Verdict("SONC", "exact", "a nonnegative circuit form")
            )
            if circuit.kind is CircuitKind.MONOMIAL_SQUARE_SUM:
                report.circuit_sos = True
                verdicts.append(
                    Verdict("SOS", "exact", "sum of monomial squares")
                )
            else:
                report.mediated = mediated_set_of_circuit(circuit)
                report.circuit_sos = circuit_is_sos(circuit, report.mediated)
                assert circuit.inner is not None
                inner = circuit.inner[0]
                if report.circuit_sos:
                    verdicts.append(
                        Verdict(
                            "SOS",
                            "exact",
                            f"inner exponent {inner} lies in the maximal mediated set",
                        )
                    )
                else:
                    verdicts.append(
                        Verdict(
                            "not SOS",
                            "exact",
                            f"inner exponent {inner} is outside the maximal mediated set",
                        )
                    )
        else:
            verdicts.append(
                Verdict(
                    "not nonnegative",
                    "exact",
                    "inner coefficient magnitude exceeds the circuit number",
                )
            )
            verdicts.append(
                Verdict(
                    "not SONC",
                    "exact",
                    "not nonnegative, hence in no nonnegativity cone",
                )
            )

    if not partition.i_set:
        # Circuit forms keep their reasons above; _dedupe drops these.
        reason = "a sum of monomial squares with positive coefficients"
        verdicts.extend(Verdict(c, "exact", reason) for c in ("nonnegative", "SONC", "SOS"))

    report.necessary = necessary_condition(f, partition)
    necessary = report.necessary
    if necessary.verdict is ConditionVerdict.VIOLATED:
        if necessary.uncovered_inner:
            uncovered = sorted(necessary.uncovered_inner, key=grlex_key)
            reason = (
                f"inner exponents {uncovered} lie in no simplex spanned by"
                " monomial squares"
            )
        else:
            reason = (
                f"inner coefficient sum {necessary.inner_sum} exceeds the"
                f" available square coefficient sum {necessary.outer_sum}"
            )
        verdicts.append(Verdict("not SONC", "exact", reason))
    elif (
        necessary.verdict is ConditionVerdict.EQUALITY
        and necessary.corollary is not None
        and not necessary.corollary.passed
    ):
        violation = necessary.corollary.violations[0]
        verdicts.append(
            Verdict(
                "not SONC",
                "exact",
                f"equality case forces coefficient of {violation.alpha} to be"
                f" at least {violation.bound}, found {violation.coefficient}",
            )
        )

    if search:
        try:
            report.feasibility = sonc_feasibility_search(
                f, partition, budget
            )
        except (BudgetExceeded, UncoveredInnerExponent) as error:
            report.feasibility_note = f"{type(error).__name__}: {error}"
        else:
            outcome = report.feasibility
            kind = "exact" if outcome.exact else "numeric"
            # Numeric conclusions never override exact ones; the raw search
            # outcome stays visible in the feasibility field either way.
            exact_conclusions = {
                v.conclusion for v in verdicts if v.certificate == "exact"
            }
            if outcome.status is SearchStatus.FEASIBLE:
                count = (
                    len(outcome.decomposition.circuits)
                    if outcome.decomposition is not None
                    else 0
                )
                reason = (
                    f"verified cancellation-free decomposition into {count} circuits"
                    if outcome.exact
                    else "numerically feasible weights; exact rounding failed"
                )
                if outcome.exact or "not SONC" not in exact_conclusions:
                    verdicts.append(Verdict("SONC", kind, reason))
            elif outcome.status is SearchStatus.INFEASIBLE:
                if outcome.exact or "SONC" not in exact_conclusions:
                    verdicts.append(
                        Verdict(
                            "not SONC",
                            kind,
                            "no cancellation-free decomposition;"
                            f" margin {outcome.margin:.6g}",
                        )
                    )

    report.verdicts = _dedupe(verdicts)
    _enforce_consistency(report.verdicts)
    return report


def _dedupe(verdicts: list[Verdict]) -> list[Verdict]:
    seen: set[str] = set()
    out = []
    for verdict in verdicts:
        if verdict.conclusion not in seen:
            seen.add(verdict.conclusion)
            out.append(verdict)
    return out


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
            "squares": [_exponent_list(e) for e in sorted(partition.s_set, key=grlex_key)],
            "inner": [_exponent_list(e) for e in sorted(partition.i_set, key=grlex_key)],
            "vertices": [
                _exponent_list(e) for e in sorted(partition.vertices, key=grlex_key)
            ],
            "unused_squares": [
                _exponent_list(e) for e in sorted(partition.r_set, key=grlex_key)
            ],
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
            "uncovered_inner": [
                _exponent_list(e)
                for e in sorted(necessary.uncovered_inner, key=grlex_key)
            ],
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
            "generators": [_exponent_list(e) for e in sorted(mediated.delta, key=grlex_key)],
            "star": [_exponent_list(e) for e in sorted(mediated.star, key=grlex_key)],
            "classification": mediated.classification.value,
        }
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


def verdicts_from_dict(data: dict[str, Any]) -> list[Verdict]:
    """Re-ingest the verdict list of a serialized report."""
    if data.get("schema") != JSON_SCHEMA_VERSION:
        raise ValueError(f"unsupported schema {data.get('schema')!r}")
    return [
        Verdict(
            conclusion=item["conclusion"],
            certificate=item["certificate"],
            reason=item["reason"],
        )
        for item in data["verdicts"]
    ]


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
