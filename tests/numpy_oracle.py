"""The numpy implementations of the three float log-space helpers of
:mod:`sonckit.circuits`, kept as test oracles.

``sonckit`` now does their linear algebra with the exact
``EchelonSolver`` and draws from ``random.Random``; these are the former
bodies, unchanged apart from taking the ``ZeroLocus`` as an argument.
``null_basis`` spells out the SVD null space that ``sample_solutions``
draws along.  numpy is a test dependency only.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

import numpy as np

from sonckit.circuits import (
    Circuit,
    CircuitKind,
    ZeroLocus,
    _sign_pattern_for_negative_inner,
    decide_circuit_nonnegativity,
)
from sonckit.errors import ZeroCoordinate
from sonckit.forms import evaluate


def sample_solutions(locus: ZeroLocus, count: int, seed: int = 0) -> np.ndarray:
    """Numeric points of the affine solution space (approximate)."""
    matrix = np.array(locus.matrix, dtype=float)
    rhs = np.array(locus.rhs_floats())
    particular, *_ = np.linalg.lstsq(matrix, rhs, rcond=None)
    _, singular, vh = np.linalg.svd(matrix)
    rank = int(np.sum(singular > 1e-12))
    null_basis = vh[rank:]
    rng = np.random.default_rng(seed)
    coefficients = rng.normal(scale=1.0, size=(count, null_basis.shape[0]))
    return particular[None, :] + coefficients @ null_basis


def null_basis(locus: ZeroLocus) -> np.ndarray:
    """The SVD null-space basis that ``sample_solutions`` draws along."""
    matrix = np.array(locus.matrix, dtype=float)
    _, singular, vh = np.linalg.svd(matrix)
    rank = int(np.sum(singular > 1e-12))
    return vh[rank:]


def logs_affinely_independent(
    points: Sequence[Sequence[float]], tolerance: float = 1e-9
) -> bool:
    """Whether the coordinatewise log-absolute images of the points are
    affinely independent (approximate: singular values vs. tolerance)."""
    if not points:
        return False
    for point in points:
        if any(value == 0 for value in point):
            raise ZeroCoordinate(f"point {tuple(point)} has a zero coordinate")
    logs = np.log(np.abs(np.array(points, dtype=float)))
    if logs.shape[0] == 1:
        return True
    if logs.shape[0] > logs.shape[1] + 1:
        return False
    diffs = logs[1:] - logs[0]
    singular = np.linalg.svd(diffs, compute_uv=False)
    return int(np.sum(singular > tolerance)) == logs.shape[0] - 1


def negative_witness(c: Circuit, seed: int = 0) -> tuple[Fraction, ...]:
    """Rational point with exactly negative value, for circuits that fail
    the nonnegativity test.

    The AM-GM equality direction (least-squares solution of the locus-style
    system) is the natural violator; falls back to seeded random search.
    The returned point is verified by exact evaluation.
    """
    if decide_circuit_nonnegativity(c).is_nonnegative:
        raise ValueError("circuit is nonnegative; no negative witness exists")
    assert c.inner is not None and c.kind is CircuitKind.PROPER
    beta, inner_coeff = c.inner
    base_point, base_coeff = c.outer[0]
    base_weight = c.barycentric[0]
    matrix = np.array(
        [[v - b for v, b in zip(point, base_point)] for point, _ in c.outer[1:]],
        dtype=float,
    )
    rhs = np.array(
        [
            math.log(float(weight / base_weight)) - math.log(float(coeff / base_coeff))
            for (point, coeff), weight in zip(c.outer[1:], c.barycentric[1:])
        ]
    )
    candidates: list[np.ndarray] = []
    solution, *_ = np.linalg.lstsq(matrix, rhs, rcond=None)
    candidates.append(solution)
    rng = np.random.default_rng(seed)
    candidates.extend(solution + rng.normal(scale=0.2, size=solution.shape) for _ in range(32))
    candidates.extend(rng.normal(scale=1.0, size=solution.shape) for _ in range(64))
    signs = _sign_pattern_for_negative_inner(beta, inner_coeff)
    for candidate in candidates:
        numeric = np.exp(np.clip(candidate, -12.0, 12.0))
        point = tuple(
            sign * Fraction(float(value)).limit_denominator(10**6)
            for sign, value in zip(signs, numeric)
        )
        if any(value == 0 for value in point):
            continue
        if evaluate(c.form, point) < 0:
            return point
    raise ArithmeticError("no negative witness found; bug")
