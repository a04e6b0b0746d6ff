"""Command-line front end.

Subcommands: ``analyze`` a polynomial file, ``corpus`` for the built-in
regression table, ``mms`` for maximal mediated sets of inline point
lists, and ``grid`` for exact evaluation over the named evaluation grids.
Exit codes: 0 ok, 1 input error, 2 internal invariant violation,
3 corpus mismatch.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import re
import sys
from fractions import Fraction

from .errors import InternalInvariantViolation, SonckitError
from .certify import SearchBudget
from .corpus import GRIDS, run_corpus
from .forms import SparseForm, evaluate_many, load_form_file
from .mediated import maximal_mediated_set
from .report import analyze, render_text, report_to_dict


def _load_form(path: str) -> SparseForm | None:
    """The form in ``path``, or ``None`` after printing why it is unreadable."""
    try:
        return load_form_file(path)
    except (OSError, SonckitError) as error:
        print(f"error: {error}", file=sys.stderr)
        return None


def _cmd_analyze(args: argparse.Namespace) -> int:
    try:
        budget = SearchBudget(max_params=args.max_params)
    except ValueError as error:
        print(f"error: --max-params: {error}", file=sys.stderr)
        return 1
    form = _load_form(args.file)
    if form is None:
        return 1
    try:
        report = analyze(form, search=args.search, budget=budget)
    except InternalInvariantViolation as error:
        print(f"internal invariant violation: {error}", file=sys.stderr)
        return 2
    except SonckitError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(report_to_dict(report), indent=2, sort_keys=True))
    else:
        print(render_text(report))
        if args.mms and report.mediated is not None:
            mediated = report.mediated
            print("mediated set detail:")
            print(f"  generators: {sorted(mediated.delta)}")
            print(f"  star:       {sorted(mediated.star)}")
            print(f"  lattice:    {sorted(mediated.lattice)}")
            print(f"  class:      {mediated.classification.value}")
    return 0


def _cmd_corpus(args: argparse.Namespace) -> int:
    if args.filter is not None:
        try:
            re.compile(args.filter)
        except re.error as error:
            print(f"error: invalid --filter regex: {error}", file=sys.stderr)
            return 1
    rows = run_corpus(name_filter=args.filter)
    if args.json:
        print(json.dumps([dataclasses.asdict(row) for row in rows], indent=2))
    else:
        if rows:
            widths = [
                max(len(row.entry) for row in rows),
                max(len(row.check) for row in rows),
                max(len(row.expected) for row in rows),
                max(len(row.got) for row in rows),
            ]
            for row in rows:
                status = "ok " if row.ok else "FAIL"
                print(
                    f"{status} {row.entry:<{widths[0]}} {row.check:<{widths[1]}}"
                    f" expected={row.expected:<{widths[2]}} got={row.got:<{widths[3]}}"
                    f" [{row.citation}]"
                )
        passed = sum(row.ok for row in rows)
        print(f"{passed}/{len(rows)} checks passed")
    return 0 if all(row.ok for row in rows) else 3


def _parse_points(text: str) -> list[tuple[int, ...]]:
    points = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        points.append(tuple(int(v.strip()) for v in chunk.split(",")))
    if not points:
        raise ValueError("no points given")
    if len({len(p) for p in points}) != 1:
        raise ValueError("points of mixed dimension")
    return points


def _cmd_mms(args: argparse.Namespace) -> int:
    try:
        points = _parse_points(args.points)
        mediated = maximal_mediated_set(points)
    except (ValueError, SonckitError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    print(f"generators:     {sorted(mediated.delta)}")
    print(f"midpoints:      {sorted(mediated.mid_delta)}")
    print(f"lattice points: {sorted(mediated.lattice)}")
    print(f"star:           {sorted(mediated.star)}")
    print(f"classification: {mediated.classification.value}")
    return 0


def _cmd_grid(args: argparse.Namespace) -> int:
    form = _load_form(args.file)
    if form is None:
        return 1
    grid = GRIDS[args.grid]
    if len(grid[0]) != form.num_vars:
        print(
            f"error: grid {args.grid} has arity {len(grid[0])},"
            f" form has {form.num_vars} variables",
            file=sys.stderr,
        )
        return 1
    values, denominator = evaluate_many(form, grid)
    for point, value in zip(grid, values):
        marker = "nonzero" if value else "zero"
        print(f"{point}  {Fraction(value, denominator)}  [{marker}]")
    print(f"{values.count(0)}/{len(grid)} grid points vanish")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sonckit",
        description=(
            "Exact analysis of sparse homogeneous polynomials: circuit"
            " nonnegativity, SONC membership checks, maximal mediated sets."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze_p = sub.add_parser("analyze", help="analyze a polynomial file")
    analyze_p.add_argument("file")
    analyze_p.add_argument("--json", action="store_true")
    analyze_p.add_argument(
        "--search", action="store_true", help="run the feasibility search"
    )
    analyze_p.add_argument(
        "--mms", action="store_true", help="print mediated-set detail"
    )
    analyze_p.add_argument("--max-params", type=int, default=SearchBudget().max_params)
    analyze_p.set_defaults(func=_cmd_analyze)

    corpus_p = sub.add_parser("corpus", help="run the built-in regression corpus")
    corpus_p.add_argument("--filter", default=None, help="regex on entry names")
    corpus_p.add_argument("--json", action="store_true")
    corpus_p.set_defaults(func=_cmd_corpus)

    mms_p = sub.add_parser("mms", help="maximal mediated set of a point list")
    mms_p.add_argument(
        "--points", required=True, help='e.g. "4,2,0; 2,4,0; 0,0,6"'
    )
    mms_p.set_defaults(func=_cmd_mms)

    grid_p = sub.add_parser("grid", help="exact evaluation over a named grid")
    grid_p.add_argument("file")
    grid_p.add_argument("--grid", required=True, choices=sorted(GRIDS))
    grid_p.set_defaults(func=_cmd_grid)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
