"""Golden output snapshots: compute them, compare them, or rewrite them.

    PYTHONPATH=src python3 tools/golden.py          # compare, exit 1 on a difference
    PYTHONPATH=src python3 tools/golden.py --write  # regenerate tests/golden/

The snapshots are what a refactor of the exact kernel or the analysis
must leave unchanged:

- ``corpus_rows.json``: every ``run_corpus()`` row;
- ``corpus_reports.json``: ``report_to_dict(analyze(f))`` for each corpus
  form;
- ``corpus_reports_search.json``: the same with ``search=True`` and
  ``SearchBudget(max_params=9)``;
- ``corpus_text.json``: the lines of ``render_text`` for each corpus form,
  without (``analyze``) and with (``search``) the same search;
- ``p_family.json``: the reports of ``p_family(n, 6)`` for n = 3..9;
- ``random_forms.json``: the reports of the benchmark's seed-7 random
  sparse forms (``perfbench/sparse_forms.random_forms(7)``);
- ``simplex_families.json``: for every form above, each inner exponent's
  covering simplices in order, with their vertices and barycentric
  weights as ``p/q`` strings.

:func:`first_difference` compares floats to a relative 1e-12 and
everything else exactly, dictionary key order included.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from fractions import Fraction
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parents[1]
GOLDEN_DIR = ROOT / "tests" / "golden"

#: Relative tolerance for floats (circuit numbers, search margins).
FLOAT_RTOL = 1e-12
#: Seed of the benchmark's random forms in the snapshot.
RANDOM_SEED = 7


def _sparse_forms():
    perfbench = str(ROOT / "perfbench")
    if perfbench not in sys.path:
        sys.path.append(perfbench)
    import sparse_forms

    return sparse_forms


def _families(report) -> dict[str, list]:
    if report.partition is None:
        return {}
    return {
        str(beta): [
            {
                "vertices": [list(v) for v in simplex.vertices],
                "barycentric": [str(w) for w in simplex.barycentric],
            }
            for simplex in family
        ]
        for beta, family in sorted(report.partition.simplex_families.items())
    }


def compute() -> dict[str, Any]:
    """Every snapshot, by file name, as JSON-ready data."""
    from sonckit.certify import SearchBudget
    from sonckit.corpus import FORM_BUILDERS, p_family, run_corpus
    from sonckit.forms import make_form
    from sonckit.report import analyze, render_text, report_to_dict

    families: dict[str, Any] = {}

    def reports(forms, **options) -> dict[str, Any]:
        out = {}
        for f in forms:
            report = analyze(f, **options)
            out[f.name] = report_to_dict(report)
            families.setdefault(f.name, _families(report))
        return out

    corpus_forms = [builder() for builder in FORM_BUILDERS.values()]
    budget = SearchBudget(max_params=9)
    random_forms = [
        make_form(
            spec.num_vars, {e: Fraction(c) for e, c in spec.terms.items()}, name=spec.name
        )
        for spec in _sparse_forms().random_forms(RANDOM_SEED)
    ]
    return {
        "corpus_rows.json": [dataclasses.asdict(row) for row in run_corpus()],
        "corpus_reports.json": reports(corpus_forms),
        "corpus_reports_search.json": reports(
            corpus_forms, search=True, budget=budget
        ),
        "corpus_text.json": {
            f.name: {
                "analyze": render_text(analyze(f)).splitlines(),
                "search": render_text(
                    analyze(f, search=True, budget=budget)
                ).splitlines(),
            }
            for f in corpus_forms
        },
        "p_family.json": reports([p_family(n, 6) for n in range(3, 10)]),
        "random_forms.json": reports(random_forms),
        "simplex_families.json": families,
    }


def first_difference(expected: Any, got: Any, path: str = "$") -> str | None:
    """The path of the first place where ``got`` differs from ``expected``
    and both values there, or ``None`` when they agree."""
    if isinstance(expected, float) or isinstance(got, float):
        if (
            isinstance(expected, (int, float))
            and isinstance(got, (int, float))
            and not isinstance(expected, bool)
            and not isinstance(got, bool)
            and math.isclose(expected, got, rel_tol=FLOAT_RTOL, abs_tol=0.0)
        ):
            return None
        return f"{path}: expected {expected!r}, got {got!r}"
    if isinstance(expected, dict) and isinstance(got, dict):
        if list(expected) != list(got):
            return f"{path}: expected keys {list(expected)}, got {list(got)}"
        for key in expected:
            found = first_difference(expected[key], got[key], f"{path}[{key!r}]")
            if found:
                return found
        return None
    if isinstance(expected, list) and isinstance(got, list):
        for index, (a, b) in enumerate(zip(expected, got)):
            found = first_difference(a, b, f"{path}[{index}]")
            if found:
                return found
        if len(expected) != len(got):
            return f"{path}: expected {len(expected)} items, got {len(got)}"
        return None
    if type(expected) is not type(got) or expected != got:
        return f"{path}: expected {expected!r}, got {got!r}"
    return None


def load(name: str) -> Any:
    return json.loads((GOLDEN_DIR / name).read_text(encoding="utf-8"))


def differences(snapshots: dict[str, Any]) -> list[str]:
    """One line per snapshot file that differs from its committed copy."""
    found = []
    for name, data in snapshots.items():
        # Round-trip so tuples and lists compare as they are stored.
        difference = first_difference(load(name), json.loads(json.dumps(data)))
        if difference:
            found.append(f"{name} {difference}")
    return found


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", help="rewrite tests/golden/")
    args = parser.parse_args(argv)
    snapshots = compute()
    if args.write:
        GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
        for name, data in snapshots.items():
            text = json.dumps(data, indent=1, ensure_ascii=False) + "\n"
            (GOLDEN_DIR / name).write_text(text, encoding="utf-8")
        return 0
    found = differences(snapshots)
    for line in found:
        print(line, file=sys.stderr)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
