"""Built-in regression corpus: classical forms with frozen expectations.

Each entry pairs a form with named checks whose expected values are
pinned; ``run_corpus`` recomputes everything and reports one row per
check.  The forms are the classical nonnegative-but-not-SOS examples
(Motzkin, Robinson, Choi-Lam, Schmudgen, Berg-Christensen-Jensen), the
squares/products families separating the circuit cone from the SOS cone,
and linear-change-of-variables variants.
"""

from __future__ import annotations

import itertools
import math
import random
import re
from dataclasses import dataclass, replace
from fractions import Fraction
from operator import mul
from typing import Callable, Iterable

from .certify import (
    SearchStatus,
    necessary_condition,
    per_simplex_weights,
    sonc_feasibility_search,
)
from .circuits import (
    Circuit,
    NotACircuit,
    ZeroLocusStatus,
    circuit_number,
    compare_circuit_number,
    logs_affinely_independent,
    zero_locus,
)
from .forms import (
    Exponent,
    SparseForm,
    add_forms,
    embed_variables,
    evaluate,
    evaluate_columns,
    evaluate_many,
    form_power,
    grlex_key,
    mul_forms,
    multiply_monomial_square,
    parse_form,
    scale_form,
    substitute_linear,
    variable,
)
from .geometry import half_newton_support, support_partition
from .mediated import maximal_mediated_set, naive_mediated_fixpoint
from .report import AnalysisReport, analyze

# ---------------------------------------------------------------------------
# form builders
# ---------------------------------------------------------------------------

def motzkin() -> SparseForm:
    return parse_form(
        "x1^4*x2^2 + x1^2*x2^4 - 3*x1^2*x2^2*x3^2 + x3^6", name="motzkin"
    )


def motzkin_bcj() -> SparseForm:
    return parse_form(
        "x3^6 - x1^2*x2^2*x3^2 + x1^4*x2^2 + x1^2*x2^4", name="motzkin_bcj"
    )


def motzkin_bcj_boundary() -> SparseForm:
    """Inner coefficient rescaled onto the AM-GM equality boundary."""
    return parse_form(
        "x3^6 - 3*x1^2*x2^2*x3^2 + x1^4*x2^2 + x1^2*x2^4",
        name="motzkin_bcj_boundary",
    )


def robinson1() -> SparseForm:
    return parse_form(
        "x1^6 + x2^6 + x3^6"
        " - x1^4*x2^2 - x1^4*x3^2 - x2^4*x1^2 - x2^4*x3^2 - x3^4*x1^2 - x3^4*x2^2"
        " + 3*x1^2*x2^2*x3^2",
        name="robinson1",
    )


def robinson2() -> SparseForm:
    x, y, z, w = (variable(4, i) for i in range(1, 5))

    def clamp(v: SparseForm) -> SparseForm:
        return mul_forms(form_power(v, 2), form_power(add_forms(v, scale_form(w, -1)), 2))

    tail = mul_forms(
        scale_form(mul_forms(mul_forms(x, y), z), 2),
        add_forms(x, y, z, scale_form(w, -2)),
    )
    form = add_forms(clamp(x), clamp(y), clamp(z), tail)
    return replace(form, name="robinson2")


def choi_lam_q1() -> SparseForm:
    return parse_form(
        "x1^2*x2^2 + x1^2*x3^2 + x2^2*x3^2 + x4^4 - 4*x1*x2*x3*x4",
        name="choi_lam_q1",
    )


def choi_lam_q2() -> SparseForm:
    return parse_form(
        "x1^4*x2^2 + x2^4*x3^2 + x3^4*x1^2 - 3*x1^2*x2^2*x3^2", name="choi_lam_q2"
    )


def schmuedgen() -> SparseForm:
    x, y, z = (variable(3, i) for i in range(1, 4))
    a = add_forms(form_power(x, 3), scale_form(mul_forms(x, form_power(z, 2)), -4))
    b = add_forms(form_power(y, 3), scale_form(mul_forms(y, form_power(z, 2)), -4))
    part1 = scale_form(add_forms(mul_forms(a, a), mul_forms(b, b)), 200)
    c1 = add_forms(form_power(y, 2), scale_form(form_power(x, 2), -1))
    c2 = add_forms(x, scale_form(z, 2))
    c3 = add_forms(
        mul_forms(x, add_forms(x, scale_form(z, -2))),
        scale_form(
            add_forms(form_power(y, 2), scale_form(form_power(z, 2), -4)), 2
        ),
    )
    part2 = mul_forms(mul_forms(mul_forms(c1, x), c2), c3)
    form = add_forms(part1, part2)
    return replace(form, name="schmuedgen")


def p_family(n: int, two_d: int) -> SparseForm:
    """Sum of squared trinomials; SOS by construction, never SONC."""
    if n < 2 or two_d % 2 or two_d < 6:
        raise ValueError("family defined for n >= 2 and even degree >= 6")
    d = two_d // 2
    xn = variable(n, n)
    pieces = []
    for i in range(1, n):
        xi = variable(n, i)
        base = add_forms(
            mul_forms(form_power(xi, d - 2), form_power(xn, 2)),
            scale_form(mul_forms(form_power(xi, d - 1), xn), 2),
            form_power(xi, d),
        )
        pieces.append(mul_forms(base, base))
    form = add_forms(*pieces)
    return replace(form, name=f"p_{n}_{two_d}")


def q_family(n: int, two_d: int) -> SparseForm:
    """Squared quadric times a monomial square plus spare even powers."""
    if n < 3 or two_d % 2 or two_d < 4:
        raise ValueError("family defined for n >= 3 and even degree >= 4")
    x1, x2, xn = variable(n, 1), variable(n, 2), variable(n, n)
    core = add_forms(mul_forms(x1, xn), mul_forms(x2, xn), mul_forms(x1, x2))
    form = mul_forms(mul_forms(core, core), form_power(xn, two_d - 4))
    spares = [form_power(variable(n, i), two_d) for i in range(3, n)]
    if spares:
        form = add_forms(form, *spares)
    return replace(form, name=f"q_{n}_{two_d}")


def square_trinomial() -> SparseForm:
    """The square whose one-parameter circuit family is infeasible."""
    x, y, z = (variable(3, i) for i in range(1, 4))
    t = add_forms(
        scale_form(mul_forms(form_power(x, 2), form_power(z, 2)), 2),
        scale_form(mul_forms(form_power(x, 2), form_power(y, 2)), 2),
        scale_form(mul_forms(form_power(y, 2), form_power(z, 2)), Fraction(-1, 2)),
    )
    form = mul_forms(t, t)
    return replace(form, name="square_trinomial")


def separator_ternary() -> SparseForm:
    """Half a square plus the Motzkin form: in the mixed cone, in neither
    summand cone."""
    x, y, z = (variable(3, i) for i in range(1, 4))
    g = add_forms(
        form_power(z, 3),
        scale_form(mul_forms(mul_forms(x, y), z), 2),
        mul_forms(form_power(x, 2), y),
    )
    form = add_forms(scale_form(mul_forms(g, g), Fraction(1, 2)), motzkin())
    return replace(form, name="separator_ternary")


def separator_quaternary() -> SparseForm:
    x, y, z, w = (variable(4, i) for i in range(1, 5))
    h = add_forms(mul_forms(x, y), mul_forms(x, z), mul_forms(y, z))
    form = add_forms(mul_forms(h, h), form_power(w, 4), choi_lam_q1())
    return replace(form, name="separator_quaternary")


MOTZKIN_SHEAR = ((1, 0, -1), (0, 1, -1), (0, 0, 1))
MOTZKIN_SHEAR_INVERSE = ((1, 0, 1), (0, 1, 1), (0, 0, 1))
CHOI_LAM_SHEAR = ((1, 0, 0, -1), (0, 1, 0, -1), (0, 0, 1, 1), (0, 0, 0, 1))
CHOI_LAM_SHEAR_INVERSE = ((1, 0, 0, 1), (0, 1, 0, 1), (0, 0, 1, -1), (0, 0, 0, 1))


def motzkin_tilde() -> SparseForm:
    form = substitute_linear(motzkin(), MOTZKIN_SHEAR)
    return replace(form, name="motzkin_tilde")


def q1_tilde() -> SparseForm:
    form = substitute_linear(choi_lam_q1(), CHOI_LAM_SHEAR)
    return replace(form, name="q1_tilde")


FORM_BUILDERS: dict[str, Callable[[], SparseForm]] = {
    "motzkin": motzkin,
    "motzkin_bcj": motzkin_bcj,
    "motzkin_bcj_boundary": motzkin_bcj_boundary,
    "robinson1": robinson1,
    "robinson2": robinson2,
    "choi_lam_q1": choi_lam_q1,
    "choi_lam_q2": choi_lam_q2,
    "schmuedgen": schmuedgen,
    "p_2_6": lambda: p_family(2, 6),
    "p_3_6": lambda: p_family(3, 6),
    "p_3_8": lambda: p_family(3, 8),
    "q_3_6": lambda: q_family(3, 6),
    "q_3_8": lambda: q_family(3, 8),
    "square_trinomial": square_trinomial,
    "separator_ternary": separator_ternary,
    "separator_quaternary": separator_quaternary,
    "motzkin_tilde": motzkin_tilde,
    "q1_tilde": q1_tilde,
}

#: Points per ``evaluate_columns`` call in the sampling check; bounds the
#: integer lists held at once.
_SAMPLING_BATCH = 1000

GRIDS: dict[str, tuple[tuple[int, ...], ...]] = {
    "X": tuple(itertools.product((-1, 0, 1), (-1, 0, 1), (1,))),
    "Xprime": tuple(itertools.product((-2, 0, 2), (-2, 0, 2), (1,))),
    "Y": tuple(itertools.product((0, 1), (0, 1), (0, 1), (1,))),
}


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def _fmt_exp(exponent: Exponent) -> str:
    return "(" + ",".join(str(e) for e in exponent) + ")"


def _fmt_exps(points: Iterable[Exponent]) -> str:
    ordered = sorted(points, key=grlex_key)
    return ",".join(_fmt_exp(p) for p in ordered) if ordered else "empty"


def _parse_exp(text: str) -> Exponent:
    return tuple(int(v) for v in text.split(","))


def _proper_circuit(report: AnalysisReport) -> Circuit:
    if not isinstance(report.circuit, Circuit):
        raise ValueError(f"{report.form_name} is not a circuit")
    return report.circuit


def _check_necessary(f: SparseForm, report: AnalysisReport, arg: str) -> str:
    necessary = report.necessary
    return (
        f"inner={necessary.inner_sum} outer={necessary.outer_sum}"
        f" {necessary.verdict.value}"
    )


def _check_not_sonc_exact(f: SparseForm, report: AnalysisReport, arg: str) -> str:
    return str(report.necessary.rules_out_sonc)


def _check_corollary_first_violation(
    f: SparseForm, report: AnalysisReport, arg: str
) -> str:
    corollary = report.necessary.corollary
    if corollary is None or corollary.passed:
        return "none"
    first = corollary.violations[0]
    return (
        f"alpha={_fmt_exp(first.alpha)} beta={_fmt_exp(first.beta)}"
        f" bound={first.bound} coeff={first.coefficient}"
    )


def _check_corollary_violation_at(
    f: SparseForm, report: AnalysisReport, arg: str
) -> str:
    alpha, beta = (_parse_exp(part) for part in arg.split("|"))
    corollary = report.necessary.corollary
    if corollary is None:
        return "no-equality"
    for violation in corollary.violations:
        if violation.alpha == alpha and violation.beta == beta:
            return f"bound={violation.bound} coeff={violation.coefficient}"
    return "no-violation"


def _check_family_size(f: SparseForm, report: AnalysisReport, arg: str) -> str:
    return str(report.partition.family_size(_parse_exp(arg)))


def _check_lambda_profile(f: SparseForm, report: AnalysisReport, arg: str) -> str:
    alpha_text, beta_text = arg.split("|")
    weights = per_simplex_weights(
        report.partition, _parse_exp(alpha_text), _parse_exp(beta_text)
    )
    return ",".join(str(w) for w in weights)


def _check_r_set(f: SparseForm, report: AnalysisReport, arg: str) -> str:
    return _fmt_exps(report.partition.r_set)


def _check_vertices(f: SparseForm, report: AnalysisReport, arg: str) -> str:
    return _fmt_exps(report.partition.vertices)


def _check_circuit_kind(f: SparseForm, report: AnalysisReport, arg: str) -> str:
    circuit = report.circuit
    if isinstance(circuit, NotACircuit):
        return f"NotACircuit:{circuit.reason}"
    return circuit.kind.value


def _check_circuit_lambda(f: SparseForm, report: AnalysisReport, arg: str) -> str:
    return ",".join(str(w) for w in _proper_circuit(report).barycentric)


def _check_theta_cmp(f: SparseForm, report: AnalysisReport, arg: str) -> str:
    theta = circuit_number(_proper_circuit(report))
    return compare_circuit_number(theta, Fraction(arg)).value


def _check_nonnegative(f: SparseForm, report: AnalysisReport, arg: str) -> str:
    _proper_circuit(report)
    if not report.circuit_nonnegative:
        return "negative"
    return "boundary" if report.circuit_boundary else "strict"


def _check_circuit_sos(f: SparseForm, report: AnalysisReport, arg: str) -> str:
    _proper_circuit(report)
    return str(report.circuit_sos)


def _check_mms_excludes_inner(f: SparseForm, report: AnalysisReport, arg: str) -> str:
    circuit = _proper_circuit(report)
    if report.mediated is None:
        return "no mediated set"
    return str(circuit.inner[0] not in report.mediated.star)


def _check_mms_oracle(f: SparseForm, report: AnalysisReport, arg: str) -> str:
    vertices = sorted(report.partition.vertices, key=grlex_key)
    if any(e % 2 for vertex in vertices for e in vertex):
        return "skipped"
    star = maximal_mediated_set(vertices).star
    oracle = naive_mediated_fixpoint(vertices)
    return "ok" if star == oracle else f"mismatch:{_fmt_exps(star ^ oracle)}"


def _check_grid(f: SparseForm, report: AnalysisReport, arg: str) -> str:
    grid = GRIDS[arg]
    values, denominator = evaluate_many(f, grid)
    zeros = values.count(0)
    nonzero = [
        f"{_fmt_exp(point)}={Fraction(value, denominator)}"
        for point, value in zip(grid, values)
        if value
    ]
    return f"zeros={zeros};" + (";".join(nonzero) if nonzero else "all-zero")


def _check_eval_at(f: SparseForm, report: AnalysisReport, arg: str) -> str:
    point = tuple(Fraction(v) for v in arg.split(","))
    return str(evaluate(f, point))


def _check_half_newton(f: SparseForm, report: AnalysisReport, arg: str) -> str:
    return _fmt_exps(half_newton_support(f))


def _check_psd_precheck(f: SparseForm, report: AnalysisReport, arg: str) -> str:
    witness = report.precheck_witness
    return "pass" if witness is None else f"witness={_fmt_exp(witness)}"


def _check_search(f: SparseForm, report: AnalysisReport, arg: str) -> str:
    outcome = sonc_feasibility_search(f, report.partition)
    if outcome.status is SearchStatus.FEASIBLE:
        return "Feasible(exact)" if outcome.exact else "Feasible(numeric)"
    if outcome.status is SearchStatus.INFEASIBLE:
        assert outcome.margin is not None
        if outcome.margin >= 0.5:
            return "InfeasibleWithMargin>=0.5"
        return f"InfeasibleWithMargin({outcome.margin:.4f})"
    return f"Inconclusive({outcome.margin:.4f})"


def _check_reduction_preserved(f: SparseForm, report: AnalysisReport, arg: str) -> str:
    transformed = (
        embed_variables(f, 1),
        multiply_monomial_square(f, f.num_vars, 1),
    )
    if report.necessary.rules_out_sonc and all(
        necessary_condition(g, support_partition(g)).rules_out_sonc
        for g in transformed
    ):
        return "preserved"
    return "changed"


def _check_no_not_sonc(f: SparseForm, report: AnalysisReport, arg: str) -> str:
    conclusions = {v.conclusion for v in report.verdicts}
    bad = conclusions & {"not SONC", "not nonnegative"}
    return "ok" if not bad else ";".join(sorted(bad))


#: ``bytes.translate`` table: the top byte ``b`` of a 32-bit Mersenne word
#: becomes ``b >> 2``, the word's top 6 bits.
_TOP_SIX_BITS = bytes(b >> 2 for b in range(256))
#: The top bytes whose top 6 bits are 49 or more: rejected draws.
_REJECTED_BYTES = bytes(range(49 << 2, 256))


#: The sampling check's coordinates; a draw holds offsets into it.
_SAMPLING_ALPHABET = range(-24, 25)


def _sampling_codes(rng: random.Random, k: int) -> bytes:
    """``bytes(rng.randint(-24, 24) + 24 for _ in range(k))``, drawn
    without ``randint``.

    CPython's ``randint(-24, 24)`` is ``-24 + rng._randbelow(49)``, which
    draws ``getrandbits(6)`` (49 has 6 bits) and redraws while the value
    is 49 or more.  In CPython 3.10-3.13, ``getrandbits(k)`` for
    ``k <= 32`` takes one 32-bit Mersenne word and keeps its top ``k``
    bits, and ``getrandbits(32 * m)`` takes ``m`` words, the first as the
    least significant 32 bits.  So each round below takes one word for
    each coordinate still missing, reads the top byte of every word
    (byte ``3`` of each little-endian 4-byte group), deletes the bytes
    that give 49 or more and keeps ``byte >> 2`` of the rest: the kept
    offsets and the generator's final state are those of the ``randint``
    loop.
    """
    codes = b""
    while len(codes) < k:
        m = k - len(codes)
        words = rng.getrandbits(32 * m).to_bytes(4 * m, "little")
        codes += words[3::4].translate(_TOP_SIX_BITS, _REJECTED_BYTES)
    return codes


def _check_sampling_nonneg(f: SparseForm, report: AnalysisReport, arg: str) -> str:
    """Seeded points ``p / 8`` with integer ``p`` in ``[-24, 24]``.  By
    homogeneity ``f(p / 8)`` has the sign of ``f(p)``, so the integer
    points are evaluated in batches, and ``Fraction``s are built only for
    the first negative one.  The draw comes from :func:`_sampling_codes`,
    point by point, in the order and with the values of
    ``rng.randint(-24, 24)``, as offsets ``p + 24``; its coordinate
    columns stay ``bytes`` slices, which :func:`evaluate_columns` reads
    through :data:`_SAMPLING_ALPHABET`, one power table per column it
    reads."""
    count = int(arg)
    rng = random.Random(f"sampling:{f.name}")
    n = f.num_vars
    for start in range(0, count, _SAMPLING_BATCH):
        size = min(_SAMPLING_BATCH, count - start)
        codes = _sampling_codes(rng, n * size)
        values, _ = evaluate_columns(
            f, [codes[i::n] for i in range(n)], size, alphabet=_SAMPLING_ALPHABET
        )
        if min(values) < 0:
            j = next(j for j, value in enumerate(values) if value < 0)
            return f"negative at {tuple(Fraction(c - 24, 8) for c in codes[j * n:(j + 1) * n])}"
    return "ok"


def _check_zero_locus(f: SparseForm, report: AnalysisReport, arg: str) -> str:
    """Evaluate ``f`` exactly at ``x = exp(y)`` for 100 seeded samples
    ``y`` of the zero locus, and test ``|f(x)| <= 1e-8 * max |c_a x^a|`` in
    log space: ``log |f(x)|`` from the integer value and denominator, and
    ``log |c_a| + <a, y>`` from each coefficient's numerator and
    denominator, so coefficients beyond the float range do not overflow."""
    locus = zero_locus(_proper_circuit(report))
    if isinstance(locus, ZeroLocusStatus):
        return locus.value
    samples = locus.sample_solutions(100, seed=7)
    values, denominator = evaluate_many(f, [[math.exp(v) for v in y] for y in samples])
    log_coefficients = [
        math.log(abs(c.numerator)) - math.log(c.denominator) for c in f.terms.values()
    ]
    for y, value in zip(samples, values):
        if not value:
            continue
        log_residual = math.log(abs(value)) - math.log(denominator)
        log_scale = max(
            log_c + sum(map(mul, exponent, y))
            for log_c, exponent in zip(log_coefficients, f.terms)
        )
        if log_residual > math.log(1e-8) + log_scale:
            digits, mantissa = divmod(log_residual / math.log(10), 1)
            residual = f"{10**mantissa:.2f}e{int(digits):+03d}"  # may lie beyond the float range
            return f"dim={locus.dimension};residual={residual}"
    return f"dim={locus.dimension};residuals=ok"


def _check_logs_example(f: SparseForm, report: AnalysisReport, arg: str) -> str:
    points = [
        (1.0, -2.0, 1.0),
        (-2.0, 1.0, 1.0),
        (math.e, math.e, math.e),
        (1.0, 1.0, 1.0),
    ]
    return str(logs_affinely_independent(points))


def _check_inverse_transform(f: SparseForm, report: AnalysisReport, arg: str) -> str:
    base_name, matrix_text = arg.split(":")
    matrix = [
        [Fraction(v) for v in row.split(",")] for row in matrix_text.split(";")
    ]
    recovered = substitute_linear(f, matrix)
    return "recovered" if recovered == FORM_BUILDERS[base_name]() else "different"


#: A check reads the entry's form and its one ``analyze`` report.
CHECKS: dict[str, Callable[[SparseForm, AnalysisReport, str], str]] = {
    "necessary": _check_necessary,
    "not_sonc_exact": _check_not_sonc_exact,
    "corollary_first_violation": _check_corollary_first_violation,
    "corollary_violation_at": _check_corollary_violation_at,
    "family_size": _check_family_size,
    "lambda_profile": _check_lambda_profile,
    "r_set": _check_r_set,
    "vertices": _check_vertices,
    "circuit_kind": _check_circuit_kind,
    "circuit_lambda": _check_circuit_lambda,
    "theta_cmp": _check_theta_cmp,
    "nonnegative": _check_nonnegative,
    "circuit_sos": _check_circuit_sos,
    "mms_excludes_inner": _check_mms_excludes_inner,
    "mms_oracle": _check_mms_oracle,
    "grid": _check_grid,
    "eval_at": _check_eval_at,
    "half_newton": _check_half_newton,
    "psd_precheck": _check_psd_precheck,
    "search": _check_search,
    "reduction_preserved": _check_reduction_preserved,
    "no_not_sonc": _check_no_not_sonc,
    "sampling_nonneg": _check_sampling_nonneg,
    "zero_locus": _check_zero_locus,
    "logs_example": _check_logs_example,
    "inverse_transform": _check_inverse_transform,
}


# ---------------------------------------------------------------------------
# entries
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CorpusEntry:
    name: str
    checks: tuple[tuple[str, str, str], ...]  # (check, arg, expected)
    provenance: str

    def build(self) -> SparseForm:
        return FORM_BUILDERS[self.name]()


@dataclass(frozen=True)
class CorpusRow:
    entry: str
    check: str
    expected: str
    got: str
    ok: bool
    citation: str


_ENTRIES: tuple[CorpusEntry, ...] = (
    CorpusEntry(
        name="motzkin",
        provenance="Motzkin (1967)",
        checks=(
            ("circuit_kind", "", "ProperCircuit"),
            ("circuit_lambda", "", "1/3,1/3,1/3"),
            ("theta_cmp", "3", "Equal"),
            ("nonnegative", "", "boundary"),
            ("mms_excludes_inner", "", "True"),
            ("circuit_sos", "", "False"),
            ("necessary", "", "inner=3 outer=3 Equality"),
            ("corollary_first_violation", "", "none"),
            ("search", "", "Feasible(exact)"),
            ("mms_oracle", "", "ok"),
            ("no_not_sonc", "", "ok"),
            ("sampling_nonneg", "10000", "ok"),
            ("zero_locus", "", "dim=1;residuals=ok"),
            ("logs_example", "", "True"),
        ),
    ),
    CorpusEntry(
        name="motzkin_bcj",
        provenance="Berg, Christensen, Jensen (1979)",
        checks=(
            ("circuit_kind", "", "ProperCircuit"),
            ("theta_cmp", "1", "Less"),
            ("nonnegative", "", "strict"),
            ("mms_excludes_inner", "", "True"),
            ("circuit_sos", "", "False"),
            ("search", "", "Feasible(exact)"),
            ("zero_locus", "", "EmptyInOpenOrthant"),
            ("no_not_sonc", "", "ok"),
            ("sampling_nonneg", "10000", "ok"),
            ("mms_oracle", "", "ok"),
        ),
    ),
    CorpusEntry(
        name="motzkin_bcj_boundary",
        provenance="boundary rescaling of the Berg-Christensen-Jensen form",
        checks=(
            ("nonnegative", "", "boundary"),
            ("zero_locus", "", "dim=1;residuals=ok"),
        ),
    ),
    CorpusEntry(
        name="robinson1",
        provenance="Robinson (1969)",
        checks=(
            ("necessary", "", "inner=6 outer=3 Violated"),
            ("not_sonc_exact", "", "True"),
            ("circuit_kind", "", "NotACircuit:multiple_inner_exponents"),
            ("r_set", "", "(2,2,2)"),
            ("grid", "X", "zeros=8;(0,0,1)=1"),
            ("eval_at", "0,0,1", "1"),
            ("eval_at", "1,1,1", "0"),
            ("reduction_preserved", "", "preserved"),
            ("mms_oracle", "", "ok"),
        ),
    ),
    CorpusEntry(
        name="robinson2",
        provenance="Robinson (1969)",
        checks=(
            ("necessary", "", "inner=16 outer=6 Violated"),
            ("not_sonc_exact", "", "True"),
            ("r_set", "", "empty"),
            (
                "vertices",
                "",
                "(0,0,2,2),(0,0,4,0),(0,2,0,2),(0,4,0,0),(2,0,0,2),(4,0,0,0)",
            ),
            ("grid", "Y", "zeros=7;(1,1,1,1)=2"),
            ("reduction_preserved", "", "preserved"),
            ("mms_oracle", "", "ok"),
        ),
    ),
    CorpusEntry(
        name="choi_lam_q1",
        provenance="Choi, Lam (1977)",
        checks=(
            ("circuit_kind", "", "ProperCircuit"),
            ("circuit_lambda", "", "1/4,1/4,1/4,1/4"),
            ("theta_cmp", "4", "Equal"),
            ("nonnegative", "", "boundary"),
            ("mms_excludes_inner", "", "True"),
            ("circuit_sos", "", "False"),
            ("search", "", "Feasible(exact)"),
            ("no_not_sonc", "", "ok"),
            ("sampling_nonneg", "10000", "ok"),
            ("mms_oracle", "", "ok"),
        ),
    ),
    CorpusEntry(
        name="choi_lam_q2",
        provenance="Choi, Lam (1977)",
        checks=(
            ("circuit_kind", "", "ProperCircuit"),
            ("circuit_lambda", "", "1/3,1/3,1/3"),
            ("theta_cmp", "3", "Equal"),
            ("nonnegative", "", "boundary"),
            ("mms_excludes_inner", "", "True"),
            ("circuit_sos", "", "False"),
            ("no_not_sonc", "", "ok"),
            ("sampling_nonneg", "10000", "ok"),
            ("mms_oracle", "", "ok"),
        ),
    ),
    CorpusEntry(
        name="schmuedgen",
        provenance="Schmudgen (1979)",
        checks=(
            ("necessary", "", "inner=3241 outer=6801 StrictlySatisfied"),
            ("not_sonc_exact", "", "False"),
            ("grid", "Xprime", "zeros=8;(2,0,1)=256"),
            ("psd_precheck", "", "pass"),
        ),
    ),
    CorpusEntry(
        name="p_2_6",
        provenance="sum-of-squares family outside the circuit cone",
        checks=(
            ("necessary", "", "inner=8 outer=8 Equality"),
            ("corollary_violation_at", "2,4|3,3", "bound=2 coeff=1"),
            ("family_size", "3,3", "2"),
            ("lambda_profile", "2,4|3,3", "1/2,3/4"),
            ("not_sonc_exact", "", "True"),
            ("reduction_preserved", "", "preserved"),
        ),
    ),
    CorpusEntry(
        name="p_3_6",
        provenance="sum-of-squares family outside the circuit cone",
        checks=(
            ("necessary", "", "inner=16 outer=16 Equality"),
            ("not_sonc_exact", "", "True"),
        ),
    ),
    CorpusEntry(
        name="p_3_8",
        provenance="sum-of-squares family outside the circuit cone",
        checks=(
            ("necessary", "", "inner=16 outer=16 Equality"),
            ("not_sonc_exact", "", "True"),
        ),
    ),
    CorpusEntry(
        name="q_3_6",
        provenance="sum-of-squares family outside the circuit cone",
        checks=(
            ("necessary", "", "inner=6 outer=3 Violated"),
            ("not_sonc_exact", "", "True"),
            ("reduction_preserved", "", "preserved"),
        ),
    ),
    CorpusEntry(
        name="q_3_8",
        provenance="sum-of-squares family outside the circuit cone",
        checks=(
            ("necessary", "", "inner=6 outer=3 Violated"),
            ("not_sonc_exact", "", "True"),
        ),
    ),
    CorpusEntry(
        name="square_trinomial",
        provenance="square of a trinomial",
        checks=(
            ("necessary", "", "inner=4 outer=33/4 StrictlySatisfied"),
            ("r_set", "", "(4,2,2)"),
            ("search", "", "InfeasibleWithMargin>=0.5"),
        ),
    ),
    CorpusEntry(
        name="separator_ternary",
        provenance="half a square plus the Motzkin form",
        checks=(
            ("necessary", "", "inner=6 outer=4 Violated"),
            ("not_sonc_exact", "", "True"),
            ("half_newton", "", "(0,0,3),(1,1,1),(1,2,0),(2,1,0)"),
        ),
    ),
    CorpusEntry(
        name="separator_quaternary",
        provenance="a square plus a fourth power plus the Choi-Lam form",
        checks=(
            ("necessary", "", "inner=10 outer=8 Violated"),
            ("not_sonc_exact", "", "True"),
        ),
    ),
    CorpusEntry(
        name="motzkin_tilde",
        provenance="Motzkin form after a linear change of variables",
        checks=(
            (
                "vertices",
                "",
                "(0,2,4),(0,4,2),(2,0,4),(2,4,0),(4,0,2),(4,2,0)",
            ),
            ("psd_precheck", "", "pass"),
            (
                "inverse_transform",
                "motzkin:1,0,1;0,1,1;0,0,1",
                "recovered",
            ),
        ),
    ),
    CorpusEntry(
        name="q1_tilde",
        provenance="Choi-Lam form after a linear change of variables",
        checks=(
            (
                "vertices",
                "",
                "(0,0,2,2),(0,2,0,2),(0,2,2,0),(2,0,0,2),(2,0,2,0),(2,2,0,0)",
            ),
            ("psd_precheck", "", "pass"),
            (
                "inverse_transform",
                "choi_lam_q1:1,0,0,1;0,1,0,1;0,0,1,-1;0,0,0,1",
                "recovered",
            ),
        ),
    ),
)


def corpus_entries() -> tuple[CorpusEntry, ...]:
    return _ENTRIES


def _error_text(error: Exception) -> str:
    return f"error:{type(error).__name__}:{error}"


def run_entry(entry: CorpusEntry) -> list[CorpusRow]:
    """One row per check, all read from one ``analyze`` of the entry's
    form; if that raises, every row of the entry reports the error."""
    f = entry.build()
    try:
        report = analyze(f)
        failure = None
    except Exception as error:  # surfaced in the table, not swallowed
        failure = _error_text(error)
    rows = []
    for check, arg, expected in entry.checks:
        label = f"{check}({arg})" if arg else check
        got = failure
        if got is None:
            try:
                got = CHECKS[check](f, report, arg)
            except Exception as error:  # surfaced in the table, not swallowed
                got = _error_text(error)
        rows.append(
            CorpusRow(
                entry=entry.name,
                check=label,
                expected=expected,
                got=got,
                ok=got == expected,
                citation=entry.provenance,
            )
        )
    return rows


def run_corpus(name_filter: str | None = None) -> list[CorpusRow]:
    """Run all (or filtered) corpus entries; rows in canonical order."""
    return [
        row
        for entry in _ENTRIES
        if name_filter is None or re.search(name_filter, entry.name)
        for row in run_entry(entry)
    ]
