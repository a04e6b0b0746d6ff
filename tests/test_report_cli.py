"""Analysis reports, JSON round trip, and the command-line interface."""

import itertools
import json
import os
import pathlib
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sonckit import corpus, geometry
from sonckit.circuits import Circuit, detect_circuit
from sonckit.cli import main
from sonckit.forms import make_form, parse_form, save_form_file
from sonckit.geometry import psd_newton_precheck
from sonckit.report import analyze, render_text, report_to_dict, verdicts_from_dict
from sonckit.corpus import (
    FORM_BUILDERS,
    motzkin,
    robinson1,
    square_trinomial,
)


def _conclusions(report):
    return {v.conclusion for v in report.verdicts}


def test_analyze_motzkin_verdicts():
    report = analyze(motzkin())
    conclusions = _conclusions(report)
    assert {"nonnegative", "SONC", "not SOS"} <= conclusions
    assert "not SONC" not in conclusions
    assert report.circuit_boundary is True
    assert all(v.certificate == "exact" for v in report.verdicts)


def test_analyze_robinson_not_sonc():
    report = analyze(robinson1())
    verdict = next(v for v in report.verdicts if v.conclusion == "not SONC")
    assert verdict.certificate == "exact"
    assert "6" in verdict.reason and "3" in verdict.reason


@pytest.mark.parametrize(
    "text, circuit_reason",
    [
        ("x1^4 + x1^2*x2^2 + x2^4", "vertex_square_mismatch"),
        ("x1^2*x2^2 + x2^2*x3^2 + x3^2*x4^2 + x4^2*x1^2", "affinely_dependent_vertices"),
    ],
)
def test_analyze_sum_of_monomial_squares_that_is_no_circuit(text, circuit_reason):
    report = analyze(parse_form(text))
    assert report.circuit.reason == circuit_reason
    assert [(v.conclusion, v.certificate) for v in report.verdicts] == [
        ("nonnegative", "exact"),
        ("SONC", "exact"),
        ("SOS", "exact"),
    ]
    assert all("sum of monomial squares" in v.reason for v in report.verdicts)


def test_analyze_monomial_square_circuit_keeps_its_reasons():
    report = analyze(parse_form("x1^4 + x2^4 + x3^4"))
    assert [(v.conclusion, v.reason) for v in report.verdicts] == [
        ("nonnegative", "nonnegative circuit (strictly above the threshold)"),
        ("SONC", "a nonnegative circuit form"),
        ("SOS", "sum of monomial squares"),
    ]


def test_analyze_zero_form():
    report = analyze(make_form(3, {}, zero_degree=6))
    assert report.zero_form
    assert report.verdicts == []


def test_analyze_search_square_trinomial():
    report = analyze(square_trinomial(), search=True)
    verdict = next(v for v in report.verdicts if v.conclusion == "not SONC")
    assert verdict.certificate == "numeric"
    assert "margin" in verdict.reason


def test_analyze_search_budget_exceeded_is_reported():
    from sonckit.corpus import p_family

    report = analyze(p_family(2, 6), search=True)
    assert report.feasibility is None
    assert report.feasibility_note is not None
    assert "BudgetExceeded" in report.feasibility_note
    # the exact equality-case disproof still stands
    assert "not SONC" in _conclusions(report)


def test_analyze_hilbert_flag():
    from sonckit.corpus import p_family

    assert analyze(p_family(2, 6)).hilbert_case  # two variables
    assert not analyze(motzkin()).hilbert_case


def test_analyze_whole_corpus_consistent():
    for builder in FORM_BUILDERS.values():
        report = analyze(builder())
        conclusions = _conclusions(report)
        assert not ({"SONC", "not SONC"} <= conclusions)
        assert not ({"SOS", "not SOS"} <= conclusions)


def test_json_round_trip():
    report = analyze(motzkin())
    payload = json.loads(json.dumps(report_to_dict(report)))
    assert payload["schema"] == 1
    assert verdicts_from_dict(payload) == report.verdicts


def test_json_rationals_as_strings():
    report = analyze(square_trinomial())
    payload = report_to_dict(report)
    assert payload["necessary_condition"]["outer_sum"] == "33/4"
    assert payload["necessary_condition"]["inner_sum"] == "4"


@pytest.mark.parametrize(
    "data, message",
    [
        ([], "report must be a JSON object"),
        ({"schema": 2, "verdicts": []}, "unsupported schema 2"),
        ({"schema": 1}, "'verdicts' must be a list"),
        ({"schema": 1, "verdicts": None}, "'verdicts' must be a list"),
        ({"schema": 1, "verdicts": ["SONC"]}, "verdict 0 must be a JSON object"),
        (
            {"schema": 1, "verdicts": [{"certificate": "exact", "reason": "r"}]},
            "verdict 0 needs a string 'conclusion'",
        ),
        (
            {"schema": 1, "verdicts": [{"conclusion": "SONC", "reason": "r"}]},
            "verdict 0 needs a string 'certificate'",
        ),
        (
            {
                "schema": 1,
                "verdicts": [
                    {"conclusion": "SONC", "certificate": "exact", "reason": 3}
                ],
            },
            "verdict 0 needs a string 'reason'",
        ),
        (
            {
                "schema": 1,
                "verdicts": [
                    {"conclusion": "SONC", "certificate": "exact", "reason": "r"},
                    {"conclusion": "SOS", "certificate": "bogus", "reason": "r"},
                ],
            },
            "verdict 1 has certificate 'bogus', not 'exact' or 'numeric'",
        ),
    ],
)
def test_verdicts_from_dict_rejects_malformed_input(data, message):
    with pytest.raises(ValueError) as caught:
        verdicts_from_dict(data)
    assert str(caught.value) == message


# ---------------------------------------------------------------------------
# verdict precedence around the search
# ---------------------------------------------------------------------------

_MOTZKIN_VERDICTS = [("nonnegative", "exact"), ("SONC", "exact"), ("not SOS", "exact")]


@pytest.mark.parametrize(
    "name, status, exact, expected",
    [
        # An exact verdict before the search stands against a numeric one;
        # an exact search verdict against it is a contradiction (None).
        ("robinson1", "FEASIBLE", False, [("not SONC", "exact")]),
        ("robinson1", "FEASIBLE", True, None),
        ("robinson1", "INFEASIBLE", False, [("not SONC", "exact")]),
        ("robinson1", "INFEASIBLE", True, [("not SONC", "exact")]),
        ("robinson1", "INCONCLUSIVE", False, [("not SONC", "exact")]),
        ("robinson1", "INCONCLUSIVE", True, [("not SONC", "exact")]),
        ("motzkin", "FEASIBLE", False, _MOTZKIN_VERDICTS),
        ("motzkin", "FEASIBLE", True, _MOTZKIN_VERDICTS),
        ("motzkin", "INFEASIBLE", False, _MOTZKIN_VERDICTS),
        ("motzkin", "INFEASIBLE", True, None),
        ("motzkin", "INCONCLUSIVE", False, _MOTZKIN_VERDICTS),
        ("motzkin", "INCONCLUSIVE", True, _MOTZKIN_VERDICTS),
        # No verdict before the search: its own verdict is the only one.
        ("schmuedgen", "FEASIBLE", False, [("SONC", "numeric")]),
        ("schmuedgen", "FEASIBLE", True, [("SONC", "exact")]),
        ("schmuedgen", "INFEASIBLE", False, [("not SONC", "numeric")]),
        ("schmuedgen", "INFEASIBLE", True, [("not SONC", "exact")]),
        ("schmuedgen", "INCONCLUSIVE", False, []),
        ("schmuedgen", "INCONCLUSIVE", True, []),
    ],
)
def test_analyze_search_verdict_precedence(monkeypatch, name, status, exact, expected):
    from sonckit import report as report_mod
    from sonckit.certify import SearchOutcome, SearchStatus
    from sonckit.errors import InternalInvariantViolation

    outcome = SearchOutcome(SearchStatus[status], 0.5, None, exact)
    monkeypatch.setattr(
        report_mod, "sonc_feasibility_search", lambda *args, **kwargs: outcome
    )
    f = FORM_BUILDERS[name]()
    if expected is None:
        with pytest.raises(InternalInvariantViolation):
            analyze(f, search=True)
        return
    report = analyze(f, search=True)
    assert report.feasibility is outcome
    assert [(v.conclusion, v.certificate) for v in report.verdicts] == expected


# ---------------------------------------------------------------------------
# one analysis per form
# ---------------------------------------------------------------------------

def _count_calls(monkeypatch, original):
    """Wrap ``original`` in every sonckit module that binds it; returns
    the list that gets one entry per call."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] != "sonckit":
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, attr, counting)
    return calls


def test_analyze_computes_the_hull_once(monkeypatch):
    calls = _count_calls(monkeypatch, geometry.hull_vertices)
    circuits = 0
    for name, builder in FORM_BUILDERS.items():
        calls.clear()
        report = analyze(builder())
        circuits += isinstance(report.circuit, Circuit)
        assert len(calls) == 1, name
    assert circuits >= 4


def test_analyze_with_search_computes_the_hull_once(monkeypatch):
    from sonckit.certify import SearchBudget

    calls = _count_calls(monkeypatch, geometry.hull_vertices)
    for builder in FORM_BUILDERS.values():
        analyze(builder(), search=True, budget=SearchBudget(max_params=9))
    assert len(calls) == len(FORM_BUILDERS) == 18


def test_detect_circuit_computes_no_hull_for_a_circuit(monkeypatch):
    calls = _count_calls(monkeypatch, geometry.hull_vertices)
    circuits = [
        name for name, builder in FORM_BUILDERS.items()
        if isinstance(detect_circuit(builder()), Circuit)
    ]
    assert len(circuits) == 5
    assert calls == []


def test_run_entry_analyzes_each_form_once(monkeypatch):
    calls = _count_calls(monkeypatch, analyze)
    for entry in corpus.corpus_entries():
        calls.clear()
        rows = corpus.run_entry(entry)
        assert len(calls) == 1, entry.name
        assert all(row.ok for row in rows), entry.name


def test_run_entry_reports_a_failed_analysis_in_every_row(monkeypatch):
    def broken(f, *args, **kwargs):
        if f.name == "robinson1":
            raise ArithmeticError("synthetic")
        return analyze(f, *args, **kwargs)

    monkeypatch.setattr(corpus, "analyze", broken)
    rows = corpus.run_corpus("^(robinson1|robinson2)$")
    assert {row.entry for row in rows} == {"robinson1", "robinson2"}
    for row in rows:
        if row.entry == "robinson1":
            assert row.got == "error:ArithmeticError:synthetic"
        else:
            assert row.ok


def _assert_matches_standalone_routes(f):
    report = analyze(f)
    assert report.precheck_witness == psd_newton_precheck(f)
    assert report.circuit == detect_circuit(f)


def test_analyze_matches_standalone_routes_on_corpus():
    for builder in FORM_BUILDERS.values():
        _assert_matches_standalone_routes(builder())


@st.composite
def _small_forms(draw):
    """Ternary or binary forms of degree 2, 4 or 6 with a few monomial
    squares and a few arbitrary terms, so circuits and non-circuits,
    passing and failing prechecks all occur."""
    n = draw(st.integers(2, 3))
    degree = draw(st.sampled_from((2, 4, 6)))
    exponents = [
        e for e in itertools.product(range(degree + 1), repeat=n) if sum(e) == degree
    ]
    evens = [e for e in exponents if all(v % 2 == 0 for v in e)]
    terms = {
        e: Fraction(draw(st.integers(1, 4)))
        for e in draw(st.lists(st.sampled_from(evens), min_size=1, max_size=4))
    }
    for e in draw(st.lists(st.sampled_from(exponents), max_size=2)):
        numerator = draw(st.integers(-4, 4).filter(bool))
        terms[e] = Fraction(numerator, draw(st.integers(1, 3)))
    return make_form(n, terms, name="small")


@settings(derandomize=True, max_examples=150, deadline=None)
@given(f=_small_forms())
def test_analyze_matches_standalone_routes_hypothesis(f):
    _assert_matches_standalone_routes(f)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

@pytest.fixture
def motzkin_file(tmp_path):
    path = tmp_path / "motzkin.poly"
    save_form_file(str(path), motzkin())
    return str(path)


def test_cli_analyze_text(motzkin_file, capsys):
    assert main(["analyze", motzkin_file]) == 0
    out = capsys.readouterr().out
    assert "not SOS" in out
    assert "nonnegative" in out


def test_cli_analyze_json(motzkin_file, capsys):
    assert main(["analyze", motzkin_file, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema"] == 1
    conclusions = {v["conclusion"] for v in payload["verdicts"]}
    assert "SONC" in conclusions


def test_cli_analyze_parse_error(tmp_path, capsys):
    path = tmp_path / "bad.poly"
    path.write_text("x1^2 + x2^3\n")
    assert main(["analyze", str(path)]) == 1
    assert "error" in capsys.readouterr().err


def test_cli_analyze_missing_file(capsys):
    assert main(["analyze", "/nonexistent/f.poly"]) == 1


@pytest.mark.parametrize(
    "command, text",
    [
        ("analyze", "{digits}*x1^2\n"),
        ("grid", "# vars: {digits}\nx1^2 + x2^2\n"),
    ],
)
def test_cli_reports_a_number_beyond_the_int_digit_limit(
    tmp_path, capsys, int_digit_limit, command, text
):
    path = tmp_path / "long.poly"
    path.write_text(text.format(digits="1" * (int_digit_limit + 1)), encoding="utf-8")
    argv = [command, str(path)] + (["--grid", "X"] if command == "grid" else [])
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_cli_corpus_filter(capsys):
    assert main(["corpus", "--filter", "robinson1"]) == 0
    out = capsys.readouterr().out
    assert "robinson1" in out
    assert "FAIL" not in out


def test_cli_corpus_json(capsys):
    assert main(["corpus", "--filter", "motzkin_tilde", "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert rows and all(row["ok"] for row in rows)
    assert {"entry", "check", "expected", "got", "ok", "citation"} <= set(rows[0])


def test_cli_corpus_deterministic(capsys):
    assert main(["corpus", "--filter", "p_2_6"]) == 0
    first = capsys.readouterr().out
    assert main(["corpus", "--filter", "p_2_6"]) == 0
    second = capsys.readouterr().out
    assert first == second


def test_cli_mms(capsys):
    assert main(["mms", "--points", "4,2,0; 2,4,0; 0,0,6"]) == 0
    out = capsys.readouterr().out
    assert "MSimplex" in out
    assert "(2, 2, 2)" not in out.split("star:")[1].splitlines()[0]


def test_cli_mms_unit_triangle(capsys):
    assert main(["mms", "--points", "0,0; 2,0; 0,2"]) == 0
    assert "HSimplex" in capsys.readouterr().out


def test_cli_mms_odd_point(capsys):
    assert main(["mms", "--points", "1,1"]) == 1
    assert "error" in capsys.readouterr().err


def test_analyze_skips_a_mediated_set_over_the_lattice_cap():
    # The circuit's segment holds 2000001 lattice points, beyond
    # geometry.LATTICE_CANDIDATE_CAP: the scan stops at once, and the
    # report keeps every verdict but the SOS one.
    f = parse_form("x1^2000000 + x2^2000000 - x1^1000000*x2^1000000")
    start = time.perf_counter()
    report = analyze(f)
    assert time.perf_counter() - start < 1.0
    assert [(v.conclusion, v.certificate) for v in report.verdicts] == [
        ("nonnegative", "exact"),
        ("SONC", "exact"),
    ]
    assert report.mediated is None and report.circuit_sos is None
    data = report_to_dict(report)
    assert data["mediated_set_note"] == report.mediated_note
    assert report.mediated_note.startswith("CapExceeded: ")
    assert "mediated_set" not in data and data["circuit"]["is_sos"] is None
    assert f"mediated set: {report.mediated_note}" in render_text(report).splitlines()
    # Only a skipped mediated set adds the key.
    assert "mediated_set_note" not in report_to_dict(analyze(motzkin()))


def test_analyze_decides_a_circuit_number_with_a_huge_lcm_at_once():
    # The weights 1/2000000 and 1999999/2000000 put the circuit number
    # between its bases' weighted harmonic mean, about 1.000001, and their
    # arithmetic mean, 2; the inner coefficient 3 lies above that bracket,
    # so no power to the lcm 2000000 is taken.
    f = parse_form("x1^2000000 + x2^2000000 - 3*x1*x2^1999999")
    start = time.perf_counter()
    report = analyze(f)
    assert time.perf_counter() - start < 1.0
    assert [(v.conclusion, v.certificate) for v in report.verdicts] == [
        ("not nonnegative", "exact"),
        ("not SONC", "exact"),
    ]
    assert report.circuit_nonnegative is False


def test_cli_mms_over_the_lattice_cap(capsys):
    assert main(["mms", "--points", "2000000,0; 0,2000000"]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_cli_grid(tmp_path, capsys):
    path = tmp_path / "r1.poly"
    save_form_file(str(path), robinson1())
    assert main(["grid", str(path), "--grid", "X"]) == 0
    out = capsys.readouterr().out
    assert "8/9 grid points vanish" in out


def test_cli_grid_arity_mismatch(motzkin_file, capsys):
    assert main(["grid", motzkin_file, "--grid", "Y"]) == 1
    assert "arity" in capsys.readouterr().err


def test_cli_corpus_empty_filter(capsys):
    assert main(["corpus", "--filter", "no_such_entry"]) == 0
    assert "0/0 checks passed" in capsys.readouterr().out


def test_cli_corpus_invalid_filter(capsys):
    assert main(["corpus", "--filter", "["]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: invalid --filter regex: ")
    assert captured.out == ""


def test_cli_corpus_mismatch_exit_code(monkeypatch, capsys):
    from sonckit import cli as cli_mod
    from sonckit.corpus import CorpusRow

    def fake_run_corpus(name_filter=None):
        return [
            CorpusRow(
                entry="fake",
                check="necessary",
                expected="a",
                got="b",
                ok=False,
                citation="none",
            )
        ]

    monkeypatch.setattr(cli_mod, "run_corpus", fake_run_corpus)
    assert main(["corpus"]) == 3
    assert "FAIL" in capsys.readouterr().out


def test_cli_invariant_violation_exit_code(monkeypatch, motzkin_file, capsys):
    from sonckit import cli as cli_mod
    from sonckit.errors import InternalInvariantViolation

    def broken_analyze(*args, **kwargs):
        raise InternalInvariantViolation("synthetic")

    monkeypatch.setattr(cli_mod, "analyze", broken_analyze)
    assert main(["analyze", motzkin_file]) == 2
    assert "invariant" in capsys.readouterr().err


@pytest.mark.parametrize(
    "positive, negative",
    [
        ("SONC", "not SONC"),
        ("SOS", "not SOS"),
        ("nonnegative", "not nonnegative"),
        ("SONC", "not nonnegative"),
        ("SOS", "not nonnegative"),
    ],
)
def test_enforce_consistency_rejects_broken_pairs(positive, negative):
    from sonckit.errors import InternalInvariantViolation
    from sonckit.report import Verdict, _enforce_consistency

    verdicts = [Verdict(positive, "exact", "x"), Verdict(negative, "exact", "y")]
    with pytest.raises(InternalInvariantViolation):
        _enforce_consistency(verdicts)


def test_enforce_consistency_allows_sos_next_to_not_sonc():
    from sonckit.report import Verdict, _enforce_consistency

    conclusions = ("nonnegative", "SOS", "not SONC")
    _enforce_consistency([Verdict(c, "exact", "x") for c in conclusions])


def test_cli_analyze_zero_form(tmp_path, capsys):
    path = tmp_path / "zero.poly"
    path.write_text("# name: zero\nx1^2 - x1^2\n")
    assert main(["analyze", str(path)]) == 0
    assert "zero form" in capsys.readouterr().out


def test_cli_analyze_mms_detail(motzkin_file, capsys):
    assert main(["analyze", motzkin_file, "--mms"]) == 0
    out = capsys.readouterr().out
    assert "mediated set detail" in out
    assert "MSimplex" in out


def test_cli_analyze_with_search_flags(tmp_path, capsys):
    from sonckit.corpus import square_trinomial

    path = tmp_path / "square.poly"
    save_form_file(str(path), square_trinomial())
    assert main(["analyze", str(path), "--search"]) == 0
    out = capsys.readouterr().out
    assert "InfeasibleWithMargin" in out
    assert "not SONC" in out


#: A coefficient beyond the float range, and its reciprocal below it.
_HUGE = "1" + "0" * 400
_TINY = f"1/{_HUGE}"


@pytest.mark.parametrize(
    "scale, conclusions",
    [
        (_HUGE, ["nonnegative", "SONC", "not SOS"]),
        (_TINY, ["not nonnegative", "not SONC"]),
    ],
)
def test_cli_analyze_circuit_beyond_the_float_range(tmp_path, capsys, scale, conclusions):
    # The circuit number's display float is null when a base is beyond the
    # float range; the exact verdicts never depend on it.
    path = tmp_path / "circuit.poly"
    path.write_text(f"x1^4*x2^2 + x1^2*x2^4 - 3*x1^2*x2^2*x3^2 + {scale}*x3^6\n")
    assert main(["analyze", str(path), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [v["conclusion"] for v in payload["verdicts"]] == conclusions
    assert all(v["certificate"] == "exact" for v in payload["verdicts"])
    assert payload["circuit"]["circuit_number_float"] is None
    assert main(["analyze", str(path)]) == 0
    out = capsys.readouterr().out
    assert "circuit: ProperCircuit\n" in out and "circuit number ~" not in out


@pytest.mark.parametrize("scale", [_HUGE, _TINY])
def test_cli_analyze_search_beyond_the_float_range(tmp_path, capsys, scale):
    # The float search cannot take the coefficient; it is reported like an
    # exceeded budget, and every exact verdict stays.
    path = tmp_path / "quartic.poly"
    path.write_text(f"{scale}*x1^4 + x2^4 - x1^2*x2^2 + x1^3*x2\n")
    assert main(["analyze", str(path), "--json"]) == 0
    exact = json.loads(capsys.readouterr().out)
    assert main(["analyze", str(path), "--json", "--search"]) == 0
    searched = json.loads(capsys.readouterr().out)
    assert searched["feasibility"]["status"] == "error"
    assert searched["feasibility"]["detail"].startswith(
        "FloatRangeExceeded: the coefficient of (4, 0)"
    )
    assert searched["verdicts"] == exact["verdicts"]
    assert main(["analyze", str(path), "--search"]) == 0
    assert "feasibility search: FloatRangeExceeded" in capsys.readouterr().out


#: Coefficients inside the float range whose circuit thresholds, up to
#: twice their size, are not.
_NEAR_MAX = "17" + "0" * 307
_HALF_MAX = "102" + "0" * 306
_THRESHOLD = "a circuit threshold lies above the float range"


@pytest.mark.parametrize(
    "text, detail",
    [
        # Size 0: the threshold of the feasible first circuit.
        (f"{_NEAR_MAX}*x1^2 + {_NEAR_MAX}*x2^2 - x1*x2 + x3^2 + x4^2 - 3*x3*x4", _THRESHOLD),
        # Free weights: a threshold the descent reaches.
        (
            f"{_HALF_MAX}*x1^4 + {_HALF_MAX}*x2^4 - {_NEAR_MAX}*x1^2*x2^2"
            f" + x1^3*x2 + {_NEAR_MAX}*x1*x2^3",
            _THRESHOLD,
        ),
        # Free weights, and no inner coefficient to scale the temperature.
        (
            f"x1^4 + x2^4 - {_TINY}*x1^2*x2^2 + {_TINY}*x1^3*x2",
            "every inner coefficient lies below the float range",
        ),
    ],
)
def test_cli_analyze_search_reports_floats_it_cannot_use(tmp_path, capsys, text, detail):
    path = tmp_path / "form.poly"
    path.write_text(text + "\n")
    assert main(["analyze", str(path), "--json"]) == 0
    exact = json.loads(capsys.readouterr().out)
    assert main(["analyze", str(path), "--json", "--search"]) == 0
    searched = json.loads(capsys.readouterr().out)
    assert searched["feasibility"] == {
        "status": "error", "detail": f"FloatRangeExceeded: {detail}"
    }
    assert searched["verdicts"] == exact["verdicts"]


@pytest.mark.parametrize(
    "text",
    [
        # Size 0, an inner coefficient that rounds to 0.0.
        f"x1^2 - {_TINY}*x1*x2 + x2^2 + x3^2 - x3*x4 + x4^2",
        # Size 0, a square coefficient above the float range.
        f"{_HUGE}*x1^2 - x1*x2 + x2^2 + x3^2 - x3*x4 + x4^2",
        # Free weights, an inner coefficient that rounds to 0.0.
        f"x1^4 + x2^4 - x1^2*x2^2 + {_TINY}*x1^3*x2",
    ],
)
def test_cli_analyze_search_settles_beside_the_float_range(tmp_path, capsys, text):
    # The exact gate at size 0 needs no float, and an inner coefficient
    # that rounds to 0.0 is still a float the search can use.
    path = tmp_path / "form.poly"
    path.write_text(text + "\n")
    assert main(["analyze", str(path), "--json", "--search"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["feasibility"] == {
        "circuits": 2, "exact": True, "margin": 0.0, "status": "Feasible"
    }
    assert [(v["conclusion"], v["certificate"]) for v in payload["verdicts"]] == [
        ("SONC", "exact")
    ]


def test_cli_analyze_search_budget_is_max_params_only(capsys):
    with pytest.raises(SystemExit):
        main(["analyze", "--help"])
    out = capsys.readouterr().out
    assert "--max-params" in out
    for gone in ("--margin", "--iters", "--seeds"):
        assert gone not in out


@pytest.mark.parametrize("flags", [["--search"], []])
def test_cli_analyze_rejects_a_negative_budget(motzkin_file, capsys, flags):
    assert main(["analyze", motzkin_file, "--max-params", "-1", *flags]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "--max-params" in captured.err


@pytest.mark.parametrize("command", [["analyze"], ["grid", "--grid", "X"]])
def test_cli_rejects_a_file_that_is_not_utf8(tmp_path, capsys, command):
    path = tmp_path / "latin.poly"
    path.write_bytes(b"\xff\xfe x1^2")
    assert main([command[0], str(path), *command[1:]]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "not UTF-8" in err


def test_cli_analyze_default_budget_is_search_budget(monkeypatch, motzkin_file):
    from sonckit import cli as cli_mod
    from sonckit.certify import SearchBudget

    budgets = []

    def recording_analyze(form, search, budget):
        budgets.append(budget)
        return analyze(form)

    monkeypatch.setattr(cli_mod, "analyze", recording_analyze)
    assert main(["analyze", motzkin_file]) == 0
    assert budgets == [SearchBudget()]


def test_import_sonckit_leaves_numpy_unloaded():
    """The runtime is stdlib-only: a fresh interpreter that imports the
    package and its command line loads no numpy."""
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    code = (
        "import sys, sonckit, sonckit.cli;"
        " print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))"
    )
    env = {**os.environ, "PYTHONPATH": str(src)}
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "[]"


def test_python_dash_m_sonckit_runs_the_command_line():
    """``python -m sonckit`` from a checkout, without installing, is the
    ``sonckit`` console script."""
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    result = subprocess.run(
        [sys.executable, "-m", "sonckit", "corpus", "--filter", "motzkin_tilde", "--json"],
        env=env, capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr
    rows = json.loads(result.stdout)
    assert rows and all(row["ok"] for row in rows)
