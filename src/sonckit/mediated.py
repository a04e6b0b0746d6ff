"""Maximal mediated sets: lattice geometry of even generating points.

Starting from the generating points ``delta`` (all entries even), the
maximal mediated set is the largest ``L`` with
``delta <= L <= Mid(L) + delta`` where ``Mid`` collects midpoints of
distinct even-point pairs.  It is computed as the fixpoint of deleting,
from the lattice points of ``conv(delta)``, every non-generator that is
not such a midpoint; a point ``q`` is one exactly when some even point
``s != q`` has its mirror image ``2q - s`` among the even points, so no
midpoint set is built.  :func:`sonckit.report.analyze` reads a
circuit's sum-of-squares verdict off the maximal mediated set of its
vertex exponents.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from operator import sub
from typing import Iterable

from .errors import AffinelyDependentInput, OddPointInDelta
from .forms import Exponent
from .geometry import (
    canonical_points,
    check_common_length,
    hull_lattice_points,
    lattice_points,
    polytope_lattice_points,
)


class SimplexClass(Enum):
    M_SIMPLEX = "MSimplex"
    H_SIMPLEX = "HSimplex"
    INTERMEDIATE = "Intermediate"
    NOT_SIMPLICIAL = "NotSimplicial"


@dataclass(frozen=True)
class MediatedSet:
    """Maximal mediated set ``star`` of the generators ``delta`` together
    with the bounding sets used for the M/H classification."""

    delta: frozenset[Exponent]
    star: frozenset[Exponent]
    lattice: frozenset[Exponent]
    mid_delta: frozenset[Exponent]
    classification: SimplexClass


def _is_even(point: Exponent) -> bool:
    return all(entry % 2 == 0 for entry in point)


def mid_set(points: Iterable[Exponent]) -> frozenset[Exponent]:
    """Midpoints of distinct pairs of even points; odd points contribute
    nothing.  Points of different lengths raise
    :class:`DimensionMismatch`."""
    unique = canonical_points(points)
    check_common_length(unique)
    even = [p for p in unique if _is_even(p)]
    mids = set()
    for i, s in enumerate(even):
        for t in even[i + 1 :]:
            mids.add(tuple((a + b) // 2 for a, b in zip(s, t)))
    return frozenset(mids)


def _generators(delta: Iterable[Exponent]) -> frozenset[Exponent]:
    """The distinct generators, which must be nonempty and even."""
    generators = frozenset(canonical_points(delta))
    if not generators:
        raise ValueError("empty generator set")
    for point in generators:
        if not _is_even(point):
            raise OddPointInDelta(f"generator {point} has an odd entry")
    return generators


def _is_mediated(q: Exponent, even: frozenset[Exponent]) -> bool:
    """Whether ``q`` is the midpoint of two distinct points of ``even``:
    some ``s != q`` in it has its mirror image ``2q - s`` in it too."""
    double = [2 * a for a in q]
    return any(s != q and tuple(map(sub, double, s)) in even for s in even)


def maximal_mediated_set(delta: Iterable[Exponent]) -> MediatedSet:
    """Fixpoint computation of the maximal mediated set.

    Starts from all lattice points of ``conv(delta)``; each round keeps
    the generators and every survivor ``q`` with a witness pair, an even
    survivor ``s != q`` whose mirror image ``2q - s`` is an even survivor,
    until a round deletes nothing.  The operator is monotone, since a
    deletion never adds a witness, so the rounds reach the same greatest
    fixpoint as deleting one point at a time in any order.  Generators are
    ``NotSimplicial`` when :func:`lattice_points` finds them dependent;
    their lattice points then come from :func:`hull_lattice_points`.
    """
    generators = _generators(delta)
    try:
        lattice, simplicial = lattice_points(sorted(generators)), True
    except AffinelyDependentInput:
        lattice, simplicial = hull_lattice_points(sorted(generators)), False
    star = lattice
    while True:
        even = frozenset(filter(_is_even, star))
        kept = frozenset(q for q in star if q in generators or _is_mediated(q, even))
        if kept == star:
            break
        star = kept
    mid_delta = mid_set(generators)
    lower = generators | mid_delta
    if not simplicial:
        classification = SimplexClass.NOT_SIMPLICIAL
    elif star == lattice:
        classification = SimplexClass.H_SIMPLEX
    elif star == lower:
        classification = SimplexClass.M_SIMPLEX
    else:
        classification = SimplexClass.INTERMEDIATE
    return MediatedSet(
        delta=generators,
        star=star,
        lattice=lattice,
        mid_delta=mid_delta,
        classification=classification,
    )


def naive_mediated_fixpoint(
    delta: Iterable[Exponent], deletion_order_seed: int | None = None
) -> frozenset[Exponent]:
    """Reference fixpoint used as an independent cross-check.

    Recomputes the midpoint set from scratch after every single deletion;
    the deletion order may be randomized, the fixpoint never changes.
    """
    generators = _generators(delta)
    alive = set(polytope_lattice_points(sorted(generators)))
    rng = (
        random.Random(deletion_order_seed)
        if deletion_order_seed is not None
        else None
    )
    while True:
        mids = mid_set(alive)
        deletable = sorted(
            q for q in alive if q not in generators and q not in mids
        )
        if not deletable:
            return frozenset(alive)
        victim = rng.choice(deletable) if rng else deletable[0]
        alive.discard(victim)

