"""Tests of the benchmark's own arithmetic, generator and tracer.

    python3 -m pytest perfbench -q
"""

import random
import threading
from fractions import Fraction

import pytest

import run
import sparse_forms
from tracer import TARGETS, Tracer, metric_names

sonckit = run.import_sonckit()
from sonckit import exactlp, forms, geometry  # noqa: E402


# -- generator ---------------------------------------------------------------

def test_same_seed_gives_identical_forms():
    assert sparse_forms.random_forms(7) == sparse_forms.random_forms(7)
    assert sparse_forms.random_forms(7) != sparse_forms.random_forms(8)


@pytest.mark.parametrize("seed", [0, 1, 12345])
def test_forms_have_their_shape_and_stay_under_the_cap(seed):
    for form, shape in zip(sparse_forms.random_forms(seed), sparse_forms.SHAPES):
        num_vars, degree, num_squares, num_inner, target = shape
        assert (form.num_vars, form.degree) == (num_vars, degree)
        assert (len(form.squares), len(form.inner)) == (num_squares, num_inner)
        assert all(len(e) == num_vars and sum(e) == degree for e in form.terms)
        assert all(c > 0 and all(v % 2 == 0 for v in e) for e, c in form.squares.items())
        assert all(c < 0 and any(v % 2 for v in e) for e, c in form.inner.items())
        squares = list(form.squares)
        for beta in form.inner:
            assert any(
                tuple((a + b) // 2 for a, b in zip(s, t)) == beta
                for s in squares for t in squares if s != t
            )
            pool = sparse_forms.candidate_pool(beta, squares)
            assert len(pool) <= geometry.DEFAULT_CANDIDATE_CAP
        count = sparse_forms.box_subsets(form)
        assert abs(count - target) <= sparse_forms.SUBSET_TOLERANCE * target


def test_coefficients_fix_the_necessary_condition():
    for form in sparse_forms.random_forms(3):
        total = sum(form.squares.values())
        if form.violated:
            assert form.inner_abs_sum > total
        else:
            assert form.inner_abs_sum < total


def test_verdict_by_construction_matches_sonckit():
    cheap = [s for s in sparse_forms.SHAPES if s[4] <= 300]
    for index, shape in enumerate(cheap):
        for violated in (False, True):
            spec = sparse_forms.random_form(random.Random(index), shape, violated, "t")
            f = forms.make_form(spec.num_vars, {e: Fraction(c) for e, c in spec.terms.items()})
            report = sonckit.necessary_condition(f, sonckit.support_partition(f))
            assert report.inner_sum == spec.inner_abs_sum
            assert report.verdict.value == ("Violated" if violated else "StrictlySatisfied")


def test_even_exponents_counts_compositions():
    assert len(sparse_forms.even_exponents(4, 6)) == 20
    assert len(sparse_forms.even_exponents(6, 8)) == 126
    assert all(sum(e) == 8 for e in sparse_forms.even_exponents(6, 8))


# -- statistics --------------------------------------------------------------

def test_percentile_matches_exact_harrell_davis_weights():
    # n = 3: Beta(2, 2) gives weights 7/27, 13/27, 7/27 at the median and
    # Beta(3, 1) gives 1/27, 7/27, 19/27 at the 75th percentile.
    assert run.percentile([27.0, 0.0, 0.0], 50) == pytest.approx(7.0, abs=1e-3)
    assert run.percentile([0.0, 27.0, 27.0], 50) == pytest.approx(20.0, abs=1e-3)
    assert run.percentile([0.0, 0.0, 27.0], 75) == pytest.approx(19.0, abs=1e-3)
    assert run.percentile([27.0, 0.0, 27.0], 75) == pytest.approx(26.0, abs=1e-3)


def test_percentile_is_a_smooth_quantile():
    assert run.percentile([5.0], 50) == 5.0
    assert run.percentile([2.0] * 7, 90) == pytest.approx(2.0)
    assert run.percentile([1.0, 2.0, 3.0, 4.0, 5.0], 50) == pytest.approx(3.0)
    rng = random.Random(0)
    samples = [rng.random() for _ in range(400)]
    values = [run.percentile(samples, pct) for pct in (50, 75, 90, 95)]
    assert values == sorted(values)
    for pct, value in zip((50, 75, 90, 95), values):
        assert value == pytest.approx(pct / 100, abs=0.06)
    with pytest.raises(ValueError):
        run.percentile([], 50)


@pytest.mark.parametrize(
    "samples, expected",
    [(5, 50.0), (19, 50.0), (20, 50.0), (40, 75.0), (99, 75.0), (100, 90.0),
     (200, 95.0), (999, 95.0), (1000, 99.0)],
)
def test_tail_is_highest_percentile_with_ten_beyond(samples, expected):
    assert run.tail_percentile(samples) == expected


# -- tracer ------------------------------------------------------------------

class _Clock:
    """Per-thread fake clock that functions advance explicitly."""

    def __init__(self):
        self.local = threading.local()

    def __call__(self):
        return getattr(self.local, "now", 0.0)

    def advance(self, seconds):
        self.local.now = self() + seconds


def _nested(tracer, clock):
    inner = tracer.wrap("inner", lambda: clock.advance(3.0))

    def body():
        clock.advance(1.0)
        inner()
        inner()
        clock.advance(2.0)

    return tracer.wrap("outer", body)


def test_self_time_subtracts_direct_children():
    clock = _Clock()
    tracer = Tracer(clock=clock)
    top = tracer.wrap("top", _nested(tracer, clock))
    top()
    totals = tracer.snapshot()
    assert (totals["outer"].calls, totals["outer"].self_s, totals["outer"].total_s) == (1, 3.0, 9.0)
    assert (totals["inner"].calls, totals["inner"].self_s) == (2, 6.0)
    assert (totals["top"].self_s, totals["top"].total_s) == (0.0, 9.0)


def test_self_time_counts_each_thread_once():
    clock = _Clock()
    tracer = Tracer(clock=clock)
    outer = _nested(tracer, clock)
    workers = [threading.Thread(target=outer) for _ in range(2)]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join(timeout=10)
    assert not any(worker.is_alive() for worker in workers)
    totals = tracer.snapshot()
    assert (totals["outer"].calls, totals["outer"].self_s) == (2, 6.0)
    assert (totals["inner"].calls, totals["inner"].self_s) == (4, 12.0)
    assert tracer.thread_calls("outer") == [1, 1]


def test_exceptions_close_their_span():
    clock = _Clock()
    tracer = Tracer(clock=clock)

    def fail():
        clock.advance(1.0)
        raise KeyError("x")

    failing = tracer.wrap("fail", fail, lambda args, result, error: {"errors": int(error is not None)})
    outer = tracer.wrap("outer", lambda: pytest.raises(KeyError, failing))
    outer()
    totals = tracer.snapshot()
    assert totals["fail"].counters == {"errors": 1}
    assert (totals["outer"].self_s, totals["outer"].total_s) == (0.0, 1.0)


def test_install_rebinds_every_module_attribute():
    originals = (exactlp.matrix_rank, geometry.matrix_rank, forms.evaluate, sonckit.evaluate)
    tracer = Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
        for bound in (exactlp.matrix_rank, geometry.matrix_rank, sonckit.circuits.matrix_rank):
            assert bound.__wrapped__ is originals[0]
        assert sonckit.evaluate is forms.evaluate
        assert forms.evaluate.__wrapped__ is originals[2]
        geometry.affinely_independent([(2, 0), (0, 2)])
        sonckit.hull_vertices([(2, 0), (1, 1), (0, 2)])
        totals = tracer.snapshot()
        assert totals["geometry.affinely_independent"].calls == 1
        assert totals["exactlp.matrix_rank"].calls == 1
        assert totals["geometry.hull_vertices"].counters["points_in"] == 3
        assert totals["exactlp.simplex_feasible"].counters["infeasible"] == 2
        assert exactlp.EchelonSolver.__init__.__wrapped__ is not None
    finally:
        tracer.uninstall()
    assert (exactlp.matrix_rank, geometry.matrix_rank, forms.evaluate, sonckit.evaluate) == originals
    assert not hasattr(exactlp.EchelonSolver.__init__, "__wrapped__")


def test_metric_names_are_unique_and_valid():
    names = metric_names()
    assert len(names) == len(set(names))
    assert all(len(name) <= 64 for name in names)
    assert {t.layer for t in TARGETS} == {
        "forms", "exactlp", "geometry", "mediated", "certify", "circuits",
        "report", "corpus", "cli",
    }
