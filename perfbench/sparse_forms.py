"""Seeded random sparse forms for the ``analyze`` workload.

Each form has monomial squares with positive integer coefficients and
inner terms with negative coefficients.  Every inner exponent is the
midpoint of its own pair of squares and has an odd entry, so it is never a
square exponent and always lies on a covering segment.  A candidate pool
holds at most all the squares of a form, at most 16, which is below
sonckit's enumeration cap of 22, so no draw can raise ``CapExceeded``.

The coefficients fix the necessary-condition verdict by construction, so
the benchmark checks it without calling sonckit:

* a *violated* form gives its inner terms more weight than all squares
  together carry;
* a *satisfied* form gives each inner term less weight than its own pair
  of squares, which every covering computation counts as used.

Nothing here imports sonckit.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass

Exponent = tuple[int, ...]

#: (variables, degree, squares, inner terms, box subsets) of each random
#: form in one pass.  The shapes span 4-6 variables, degree 6 and 8, 10-16
#: squares and 3-4 inner terms.  The last entry is the median of
#: :func:`box_subsets` over draws of the shape; a form is redrawn until its
#: count is within :data:`SUBSET_TOLERANCE` of it.  Enumeration time
#: follows that count, which varies tenfold between draws of one shape, so
#: pinning it keeps a pass's cost independent of the seed.
SHAPES: tuple[tuple[int, int, int, int, int], ...] = (
    (4, 6, 10, 3, 390),
    (4, 8, 10, 4, 555),
    (5, 6, 10, 4, 151),
    (5, 8, 12, 3, 302),
    (5, 6, 14, 4, 746),
    (6, 6, 10, 3, 38),
    (6, 8, 12, 4, 241),
    (6, 6, 14, 3, 173),
    (6, 8, 16, 4, 1135),
    (6, 6, 16, 4, 760),
)

#: Accepted relative distance of a form's box-subset count from its target.
SUBSET_TOLERANCE = 0.1

#: Draws tried per form before giving up.
MAX_DRAWS = 10_000


@dataclass(frozen=True)
class RandomForm:
    name: str
    num_vars: int
    degree: int
    squares: dict[Exponent, int]
    inner: dict[Exponent, int]
    violated: bool

    @property
    def terms(self) -> dict[Exponent, int]:
        return {**self.squares, **self.inner}

    @property
    def inner_abs_sum(self) -> int:
        return sum(-c for c in self.inner.values())


def to_json(form: RandomForm) -> dict:
    return {
        "name": form.name,
        "num_vars": form.num_vars,
        "degree": form.degree,
        "squares": [[list(e), c] for e, c in form.squares.items()],
        "inner": [[list(e), c] for e, c in form.inner.items()],
        "violated": form.violated,
    }


def from_json(data: dict) -> RandomForm:
    return RandomForm(
        name=data["name"],
        num_vars=data["num_vars"],
        degree=data["degree"],
        squares={tuple(e): c for e, c in data["squares"]},
        inner={tuple(e): c for e, c in data["inner"]},
        violated=data["violated"],
    )


def even_exponents(num_vars: int, degree: int) -> list[Exponent]:
    """All exponents of total ``degree`` with only even entries."""
    half = degree // 2
    slots = half + num_vars - 1
    out = []
    for cuts in itertools.combinations(range(slots), num_vars - 1):
        bounds = (-1,) + cuts + (slots,)
        out.append(tuple(2 * (bounds[i + 1] - bounds[i] - 1) for i in range(num_vars)))
    return out


def candidate_pool(beta: Exponent, squares) -> list[Exponent]:
    """Squares that vanish wherever ``beta`` does: the only points a
    simplex covering ``beta`` in its relative interior can use."""
    zeros = [i for i, v in enumerate(beta) if v == 0]
    return [s for s in squares if all(s[i] == 0 for i in zeros)]


def box_subsets(form: RandomForm, limit: float = math.inf) -> int:
    """Subsets of size 1..n+1 of each inner term's pool whose bounding box
    contains the inner exponent: the candidates that exhaustive
    enumeration passes on to an exact rank test.  Counting stops once the
    total exceeds ``limit``."""
    total = 0
    for beta in form.inner:
        pool = candidate_pool(beta, form.squares)
        for size in range(1, min(len(pool), form.num_vars + 1) + 1):
            for subset in itertools.combinations(pool, size):
                if all(
                    min(p[i] for p in subset) <= b <= max(p[i] for p in subset)
                    for i, b in enumerate(beta)
                ):
                    total += 1
                    if total > limit:
                        return total
    return total


def _draw_exponents(
    rng: random.Random, num_vars: int, degree: int, num_squares: int, num_inner: int
) -> tuple[list[Exponent], list[Exponent]]:
    """Squares (pairs first, pair i spanning inner term i) and inner terms."""
    pool = even_exponents(num_vars, degree)
    rng.shuffle(pool)
    chosen: list[Exponent] = []
    inner: list[Exponent] = []
    for s, t in itertools.combinations(pool, 2):
        if s in chosen or t in chosen:
            continue
        beta = tuple((a + b) // 2 for a, b in zip(s, t))
        if all(v % 2 == 0 for v in beta) or beta in inner:
            continue
        chosen += [s, t]
        inner.append(beta)
        if len(inner) == num_inner:
            break
    else:
        raise ValueError(f"no {num_inner} disjoint square pairs in this shape")
    chosen += [e for e in pool if e not in chosen][: num_squares - len(chosen)]
    return chosen, inner


def random_form(
    rng: random.Random,
    shape: tuple[int, int, int, int, int],
    violated: bool,
    name: str,
) -> RandomForm:
    """Draw exponents until the box-subset count fits the shape, then
    coefficients that fix the necessary-condition verdict."""
    num_vars, degree, num_squares, num_inner, target = shape
    if num_squares < 2 * num_inner:
        raise ValueError("each inner term needs its own pair of squares")
    low, high = target * (1 - SUBSET_TOLERANCE), target * (1 + SUBSET_TOLERANCE)
    for _ in range(MAX_DRAWS):
        squares, inner = _draw_exponents(rng, num_vars, degree, num_squares, num_inner)
        probe = RandomForm(name, num_vars, degree, dict.fromkeys(squares, 1),
                           dict.fromkeys(inner, -1), violated)
        if low <= box_subsets(probe, high) <= high:
            break
    else:
        raise ValueError(f"no draw of shape {shape} within the subset tolerance")
    coefficients = {e: rng.randint(1, 9) for e in squares}
    if violated:
        share = sum(coefficients.values()) // num_inner + 1
        magnitudes = [share + rng.randint(0, 9) for _ in inner]
    else:
        magnitudes = [
            rng.randint(1, coefficients[squares[2 * i]] + coefficients[squares[2 * i + 1]] - 1)
            for i in range(num_inner)
        ]
    return RandomForm(
        name=name,
        num_vars=num_vars,
        degree=degree,
        squares=coefficients,
        inner={beta: -m for beta, m in zip(inner, magnitudes)},
        violated=violated,
    )


def random_forms(seed: int) -> list[RandomForm]:
    """One form per entry of :data:`SHAPES`; every second one violated."""
    return [
        random_form(
            random.Random(f"sparse-form:{seed}:{index}"),
            shape,
            violated=index % 2 == 1,
            name=f"random_{seed}_{index}",
        )
        for index, shape in enumerate(SHAPES)
    ]
