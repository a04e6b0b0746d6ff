"""Exact-arithmetic toolkit for sparse homogeneous polynomials.

Detects circuit forms, decides their nonnegativity through exact circuit
numbers, applies coefficient-sum necessary conditions for membership in
the cone of sums of nonnegative circuits, computes maximal mediated sets
for the circuit sum-of-squares decision, and ships a regression corpus of
classical forms.
"""

from .errors import SonckitError
from .forms import (
    Exponent,
    SparseForm,
    add_forms,
    embed_variables,
    evaluate,
    evaluate_columns,
    evaluate_many,
    format_form,
    load_form_file,
    make_form,
    mul_forms,
    multiply_monomial_square,
    parse_form,
    scale_form,
    substitute_linear,
)
from .geometry import (
    Simplex,
    SupportPartition,
    barycentric_coordinates,
    enumerate_simplices,
    half_newton_support,
    hull_vertices,
    lattice_points,
    psd_newton_precheck,
    support_partition,
)
from .circuits import (
    Circuit,
    CircuitKind,
    CircuitNumber,
    Comparison,
    NotACircuit,
    ZeroLocus,
    ZeroLocusStatus,
    circuit_number,
    compare_circuit_number,
    decide_circuit_nonnegativity,
    detect_circuit,
    logs_affinely_independent,
    zero_locus,
)
from .certify import (
    ConditionVerdict,
    CorollaryReport,
    NecessaryConditionReport,
    SearchBudget,
    SearchOutcome,
    SearchStatus,
    SoncDecomposition,
    corollary_check,
    necessary_condition,
    sonc_feasibility_search,
    verify_decomposition,
)
from .mediated import (
    MediatedSet,
    SimplexClass,
    maximal_mediated_set,
    mid_set,
)
from .report import AnalysisReport, Verdict, analyze, report_to_dict

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
