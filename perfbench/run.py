"""sonckit benchmark: three workloads through the public entry points.

    python3 perfbench/run.py --workload {corpus,analyze,search} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; sonckit is imported from
``src/``.  A run sets up, then repeats whole passes over the workload
until the next pass would end after ``--seconds``, with a floor of
``min_passes`` passes.  Every output is checked; an op that raises or
fails its check counts in ``failed``.

With ``--trace 0`` the last line of standard output holds the end-to-end
metrics.  With ``--trace 1`` untraced and traced passes alternate, and
the last line holds the per-layer metrics of ``tracer.py``
plus ``trace.overhead``.  The line before it records the environment.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Percentiles a tail may be reported at, highest first.
TAIL_LADDER = (99.0, 95.0, 90.0, 75.0, 50.0)
#: Samples a tail percentile needs beyond it.
TAIL_BEYOND = 10
#: Fresh interpreters timed for ``setup_s``.
SETUP_SAMPLES = 3

SEARCH_MAX_PARAMS = 9

#: Search status of each corpus form under ``max_params=9``.
SEARCH_PINS = {
    "motzkin": "Feasible",
    "motzkin_bcj": "Feasible",
    "motzkin_bcj_boundary": "Feasible",
    "robinson1": "InfeasibleWithMargin",
    "robinson2": "BudgetExceeded",
    "choi_lam_q1": "Feasible",
    "choi_lam_q2": "Feasible",
    "schmuedgen": "BudgetExceeded",
    "p_2_6": "InfeasibleWithMargin",
    "p_3_6": "BudgetExceeded",
    "p_3_8": "BudgetExceeded",
    "q_3_6": "InfeasibleWithMargin",
    "q_3_8": "InfeasibleWithMargin",
    "square_trinomial": "InfeasibleWithMargin",
    "separator_ternary": "InfeasibleWithMargin",
    "separator_quaternary": "InfeasibleWithMargin",
    "motzkin_tilde": "BudgetExceeded",
    "q1_tilde": "BudgetExceeded",
}

#: p_family(n, 6) for n = 3..9: verdicts and the equal coefficient sums.
P_FAMILY = range(3, 10)
P_FAMILY_VERDICTS = [{"conclusion": "not SONC", "certificate": "exact"}]

CORPUS_ROWS = 94


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

#: Grid points for integrating the Beta density in :func:`percentile`.
_HD_GRID = 100_000


def percentile(samples: list[float], pct: float) -> float:
    """Harrell-Davis estimate of the ``pct`` percentile.

    A mean of all order statistics, weighted by the Beta(p(n+1),
    (1-p)(n+1)) probability of each one's rank interval.  Op latencies
    come from a few forms, each repeated once per pass, so a plain sample
    quantile jumps between the slowest sample of one form and the fastest
    of the next; this estimate moves smoothly.  The Beta density is
    integrated on a fine grid, which is exact enough for the shape
    parameters used here (both at least 1).
    """
    import numpy as np  # not at module level: set-up samples time its import

    if not samples:
        raise ValueError("no samples")
    ordered = np.sort(np.asarray(samples, dtype=float))
    n = len(ordered)
    p = pct / 100
    a, b = p * (n + 1), (1 - p) * (n + 1)
    grid = (np.arange(_HD_GRID) + 0.5) / _HD_GRID
    log_density = (a - 1) * np.log(grid) + (b - 1) * np.log1p(-grid)
    density = np.exp(log_density - log_density.max())
    rank = np.minimum((grid * n).astype(int), n - 1)
    weights = np.bincount(rank, weights=density, minlength=n)
    return float(weights @ ordered / weights.sum())


def tail_percentile(samples: int) -> float:
    """Highest ladder percentile with at least :data:`TAIL_BEYOND` of
    ``samples`` beyond it; the median when none has."""
    for pct in TAIL_LADDER:
        if (100 - pct) / 100 * samples >= TAIL_BEYOND:
            return pct
    return TAIL_LADDER[-1]


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

@dataclass
class Outcome:
    ok: bool
    exact: int = 0
    detail: str = ""


@dataclass
class Op:
    group: str
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], Outcome]


def import_sonckit():
    """Import sonckit from this checkout's ``src``, never from elsewhere."""
    package = SRC / "sonckit" / "__init__.py"
    if not package.is_file():
        raise SystemExit(f"no sonckit sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import sonckit

    if Path(sonckit.__file__).resolve() != package.resolve():
        raise SystemExit(f"imported sonckit from {sonckit.__file__}, not {package}")
    return sonckit


def _verdict_pairs(data: dict) -> list[dict]:
    return [
        {"conclusion": v["conclusion"], "certificate": v["certificate"]}
        for v in data["verdicts"]
    ]


def _exact_count(data: dict) -> int:
    return sum(v["certificate"] == "exact" for v in data["verdicts"])


class Workload:
    name = ""
    min_passes = 3
    #: Layers the traced run must see called at least once.
    layers: frozenset[str] = frozenset()

    def __init__(self, seed: int, inputs: Any = None):
        """Import sonckit and build the workload's forms: the timed set-up.
        ``inputs`` is what :meth:`inputs` made from the seed, as JSON."""
        self.seed = seed
        self.input_data = inputs

    @staticmethod
    def inputs(seed: int) -> Any:
        """Benchmark-side inputs made from the seed, before set-up."""
        return None

    def ops(self) -> list[Op]:
        raise NotImplementedError


class CorpusWorkload(Workload):
    """``sonckit corpus --json`` in-process; one op per invocation."""

    name = "corpus"
    layers = frozenset(
        {"forms", "exactlp", "geometry", "mediated", "certify", "circuits",
         "report", "corpus", "cli"}
    )

    def __init__(self, seed: int, inputs: Any = None):
        super().__init__(seed)
        os.environ.pop("SONCKIT_THREADS", None)
        import_sonckit()
        from sonckit import cli

        self.cli = cli

    def threads(self) -> int | None:
        count = getattr(self.cli, "_thread_count", None)
        return count() if count else None

    def _invoke(self) -> tuple[int, str]:
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = self.cli.main(["corpus", "--json"])
        return code, buffer.getvalue()

    def _check(self, output: tuple[int, str]) -> Outcome:
        code, text = output
        rows = json.loads(text)
        passed = sum(bool(row["ok"]) for row in rows)
        if code != 0 or len(rows) < CORPUS_ROWS or passed != len(rows):
            return Outcome(False, passed, f"exit {code}, {passed}/{len(rows)} rows ok")
        return Outcome(True, passed)

    def ops(self) -> list[Op]:
        return [Op("corpus", "corpus", self._invoke, self._check)]


class AnalyzeWorkload(Workload):
    """``report.analyze`` and ``report_to_dict`` on the scaling families."""

    name = "analyze"
    layers = frozenset({"exactlp", "geometry", "certify", "circuits", "report"})

    def __init__(self, seed: int, inputs: Any = None):
        super().__init__(seed, self.inputs(seed) if inputs is None else inputs)
        import sparse_forms

        specs = [sparse_forms.from_json(data) for data in self.input_data]
        import_sonckit()
        from sonckit import corpus, forms, report

        self.report = report
        self.p_forms = [corpus.p_family(n, 6) for n in P_FAMILY]
        self.random = [
            (spec, forms.make_form(
                spec.num_vars,
                {e: Fraction(c) for e, c in spec.terms.items()},
                name=spec.name,
            ))
            for spec in specs
        ]

    @staticmethod
    def inputs(seed: int) -> list:
        import sparse_forms

        return [sparse_forms.to_json(form) for form in sparse_forms.random_forms(seed)]

    def _run(self, form):
        result = self.report.analyze(form)
        return result, self.report.report_to_dict(result)

    def _round_trip(self, output) -> str:
        result, data = output
        if self.report.verdicts_from_dict(json.loads(json.dumps(data))) != result.verdicts:
            return "verdicts do not round-trip through JSON"
        return ""

    def _check_p(self, n: int):
        def check(output) -> Outcome:
            data = output[1]
            necessary = data["necessary_condition"]
            sums = (necessary["inner_sum"], necessary["outer_sum"], necessary["verdict"])
            detail = self._round_trip(output)
            if _verdict_pairs(data) != P_FAMILY_VERDICTS:
                detail = f"verdicts {_verdict_pairs(data)}"
            elif sums != (str(8 * (n - 1)), str(8 * (n - 1)), "Equality"):
                detail = f"necessary condition {sums}"
            return Outcome(not detail, _exact_count(data), detail)

        return check

    def _check_random(self, spec):
        def check(output) -> Outcome:
            data = output[1]
            necessary = data["necessary_condition"]
            partition = data["partition"]
            verdict = "Violated" if spec.violated else "StrictlySatisfied"
            expected = [{"conclusion": "not SONC", "certificate": "exact"}] if spec.violated else []
            detail = self._round_trip(output)
            if Fraction(necessary["inner_sum"]) != spec.inner_abs_sum:
                detail = f"inner sum {necessary['inner_sum']} != {spec.inner_abs_sum}"
            elif necessary["verdict"] != verdict:
                detail = f"necessary condition {necessary['verdict']} != {verdict}"
            elif (len(partition["squares"]), len(partition["inner"])) != (
                len(spec.squares), len(spec.inner)
            ):
                detail = "support partition sizes differ from the generator's"
            elif _verdict_pairs(data) != expected:
                detail = f"verdicts {_verdict_pairs(data)}"
            return Outcome(not detail, _exact_count(data), detail)

        return check

    def ops(self) -> list[Op]:
        out = [
            Op("p_family", form.name, lambda form=form: self._run(form), self._check_p(n))
            for n, form in zip(P_FAMILY, self.p_forms)
        ]
        out += [
            Op("random", form.name, lambda form=form: self._run(form), self._check_random(spec))
            for spec, form in self.random
        ]
        return out


class SearchWorkload(Workload):
    """``report.analyze(search=True)`` on every corpus form."""

    name = "search"
    min_passes = 6
    layers = frozenset({"exactlp", "geometry", "certify", "circuits", "report", "mediated"})

    def __init__(self, seed: int, inputs: Any = None):
        super().__init__(seed)
        import_sonckit()
        from sonckit import certify, corpus, report

        self.report = report
        self.budget = certify.SearchBudget(max_params=SEARCH_MAX_PARAMS)
        self.forms = {name: corpus.FORM_BUILDERS[name]() for name in SEARCH_PINS}

    def _check(self, name: str):
        def check(result) -> Outcome:
            data = self.report.report_to_dict(result)
            feasibility = data.get("feasibility") or {"status": "absent"}
            status = feasibility["status"]
            if status == "error":
                status = feasibility["detail"].split(":", 1)[0]
            if status != SEARCH_PINS[name]:
                return Outcome(False, _exact_count(data), f"search {status}")
            return Outcome(True, _exact_count(data))

        return check

    def ops(self) -> list[Op]:
        return [
            Op(
                "search",
                name,
                lambda form=form: self.report.analyze(form, search=True, budget=self.budget),
                self._check(name),
            )
            for name, form in self.forms.items()
        ]


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (CorpusWorkload, AnalyzeWorkload, SearchWorkload)
}


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------

def reference_seconds(blocks: int = 1) -> float:
    """Time of one block of fixed ``Fraction`` arithmetic, the kind of work
    sonckit spends its time on, averaged over ``blocks`` blocks."""
    start = time.perf_counter()
    for _ in range(blocks):
        total = Fraction(0)
        for i in range(1, 4000):
            total += Fraction(1, i) * Fraction(i % 7 + 1, 3)
    return (time.perf_counter() - start) / blocks


#: One reference block's typical time on the 2-core machine the bounds
#: were set on, so that scaled times read close to seconds there.
REFERENCE_SECONDS = 0.040
#: Blocks timed before and after a pass, and seconds of ops between the
#: single blocks timed inside it.
REFERENCE_EDGE_BLOCKS = 3
REFERENCE_EVERY = 1.0


@dataclass
class PassResult:
    op_seconds: list[float]
    exact: int
    #: ``REFERENCE_SECONDS`` over the mean reference block time of the pass.
    scale: float = 1.0
    failures: list[str] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(self.op_seconds)

    @property
    def scaled_ops(self) -> list[float]:
        return [seconds * self.scale for seconds in self.op_seconds]


def run_pass(
    ops: list[Op],
    mark: Callable[[str], None] = lambda group: None,
    sample_every: float = REFERENCE_EVERY,
) -> PassResult:
    """Time every op, then check the outputs outside the timed region.

    Other guests share the host, and the machine's speed drifts by a third
    within tens of seconds.  A reference loop slows with it, so the pass
    times the loop at both ends and, between ops, every ``sample_every``
    seconds, and scales its times by ``REFERENCE_SECONDS`` over the loop's
    mean time.
    """
    timed = []
    group = None
    blocks = REFERENCE_EDGE_BLOCKS
    reference = reference_seconds(blocks) * blocks
    since = 0.0
    for op in ops:
        if op.group != group:
            group = op.group
            mark(group)
        begin = time.perf_counter()
        try:
            output, error = op.run(), None
        except Exception as exc:  # an op that raises is a failed op
            output, error = None, exc
        seconds = time.perf_counter() - begin
        timed.append((op, seconds, output, error))
        since += seconds
        if since >= sample_every:
            reference += reference_seconds()
            blocks += 1
            since = 0.0
    mark("")
    reference += reference_seconds(REFERENCE_EDGE_BLOCKS) * REFERENCE_EDGE_BLOCKS
    blocks += REFERENCE_EDGE_BLOCKS
    scale = REFERENCE_SECONDS * blocks / reference
    result = PassResult([seconds for _, seconds, _, _ in timed], 0, scale)
    for op, _, output, error in timed:
        if error is not None:
            result.failures.append(f"{op.name}: {type(error).__name__}: {error}")
            continue
        try:
            outcome = op.check(output)
        except (KeyError, TypeError, ValueError) as exc:
            outcome = Outcome(False, 0, f"malformed output: {type(exc).__name__}: {exc}")
        result.exact += outcome.exact
        if not outcome.ok:
            result.failures.append(f"{op.name}: {outcome.detail}")
    return result


def run_passes(ops: list[Op], seconds: float, min_passes: int) -> list[PassResult]:
    """Whole passes until the next would end after ``seconds``."""
    results: list[PassResult] = []
    start = time.perf_counter()
    while True:
        results.append(run_pass(ops))
        elapsed = time.perf_counter() - start
        if len(results) >= min_passes and elapsed + results[-1].wall_s > seconds:
            return results


# ---------------------------------------------------------------------------
# set-up and environment
# ---------------------------------------------------------------------------

_SETUP_SNIPPET = """
import json, sys, time
sys.path.insert(0, sys.argv[1])
import run
workload = run.WORKLOADS[sys.argv[2]]
seed = int(sys.argv[3])
inputs = json.load(sys.stdin)
blocks = run.REFERENCE_EDGE_BLOCKS
before = run.reference_seconds(blocks)
start = time.process_time()
workload(seed, inputs)
seconds = time.process_time() - start
print(seconds * 2 * run.REFERENCE_SECONDS / (before + run.reference_seconds(blocks)))
"""


def time_setup(workload: Workload) -> list[float]:
    """CPU time of importing sonckit and building the workload's forms in
    fresh interpreters, so each sample pays the full import, scaled like
    every other time.  CPU time leaves out waits for the shared host's
    disk.  The benchmark's own input generator runs once, in this
    process."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(
            [sys.executable, "-c", _SETUP_SNIPPET, str(HERE), workload.name, str(workload.seed)],
            input=json.dumps(workload.input_data),
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def _git_commit() -> str | None:
    try:
        top = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def environment(workload: Workload) -> dict[str, Any]:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
        "corpus_threads": workload.threads() if isinstance(workload, CorpusWorkload) else None,
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "seed": workload.seed,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------

def measure(workload: Workload, seconds: float) -> tuple[dict, dict, list[PassResult]]:
    setup = time_setup(workload)
    passes = run_passes(workload.ops(), seconds, workload.min_passes)
    samples = [s for p in passes for s in p.scaled_ops]
    min_samples = workload.min_passes * len(passes[0].op_seconds)
    tail = tail_percentile(min_samples)
    metrics = {
        "setup_s": (percentile(setup, 50), "s"),
        "wall_s": (percentile([p.wall_s * p.scale for p in passes], 50), "s"),
        "op_p50_s": (percentile(samples, 50), "s"),
        "op_tail_s": (percentile(samples, tail), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "verdicts_exact": (statistics.median(p.exact for p in passes), "count"),
    }
    info = {
        "setup_samples_s": setup,
        "pass_wall_s": [p.wall_s for p in passes],
        "pass_scale": [p.scale for p in passes],
        "op_samples": len(samples),
        "op_tail_percentile": tail,
        "op_tail_beyond": round((100 - tail) / 100 * len(samples), 1),
    }
    return metrics, info, passes


def measure_traced(workload: Workload, seconds: float) -> tuple[dict, dict, list[PassResult]]:
    from tracer import TARGETS, Tracer

    ops = workload.ops()
    tracer = Tracer()
    per_pass: list[dict] = []
    group_totals: dict[str, list] = {}
    marks: dict[str, Any] = {}

    def mark(group: str) -> None:
        now = tracer.snapshot()
        previous = marks.get("group")
        if previous:
            delta = {k: v.minus(marks["at"].get(k, type(v)())) for k, v in now.items()}
            cpu = time.process_time() - marks["cpu"]
            group_totals.setdefault(previous, []).append((delta, cpu))
        marks.update(group=group, at=now, cpu=time.process_time())

    # Untraced and traced passes alternate, so both see the same drift.
    plain: list[PassResult] = []
    traced: list[PassResult] = []
    start = time.perf_counter()
    while True:
        plain.append(run_pass(ops))
        tracer.install()
        try:
            before = tracer.snapshot()
            entries = tracer.thread_calls("corpus.run_entry")
            traced.append(run_pass(ops, mark, sample_every=math.inf))
            after = tracer.snapshot()
        finally:
            tracer.uninstall()
        per_pass.append({k: v.minus(before.get(k, type(v)())) for k, v in after.items()})
        entries += [0] * (len(tracer.thread_calls("corpus.run_entry")) - len(entries))
        threads = sum(
            now > then for now, then in zip(tracer.thread_calls("corpus.run_entry"), entries)
        )
        elapsed = time.perf_counter() - start
        if elapsed + plain[-1].wall_s + traced[-1].wall_s > seconds:
            break

    metrics: dict[str, tuple[float, str]] = {}
    for target in TARGETS:
        for suffix in target.report:
            values = []
            for totals, scale in zip(per_pass, (p.scale for p in traced)):
                entry = totals.get(target.name)
                if entry is None:
                    values.append(0)
                elif suffix == "calls":
                    values.append(entry.calls)
                elif suffix == "self_s":
                    values.append(entry.self_s * scale)
                else:
                    values.append(entry.counters.get(suffix, 0))
            unit = "s" if suffix == "self_s" else "count"
            metrics[f"{target.name}.{suffix}"] = (statistics.median(values), unit)
    overhead = statistics.median(p.wall_s * p.scale for p in traced) / statistics.median(
        p.wall_s * p.scale for p in plain
    )
    metrics["trace.overhead"] = (overhead, "ratio")

    layer_calls: dict[str, int] = {}
    for target in TARGETS:
        calls = sum(t.get(target.name).calls for t in per_pass if target.name in t)
        layer_calls[target.layer] = layer_calls.get(target.layer, 0) + calls
    silent = sorted(layer for layer in workload.layers if not layer_calls.get(layer))
    info = {
        "traced_passes": len(traced),
        "untraced_pass_wall_s": [p.wall_s for p in plain],
        "traced_pass_wall_s": [p.wall_s for p in traced],
        "missing_targets": tracer.missing,
        "observer_errors": tracer.observer_errors,
        "silent_layers": silent,
        "shares": shares(workload.name, group_totals),
    }
    if isinstance(workload, CorpusWorkload):
        info["corpus_threads_observed"] = threads
    return metrics, info, plain + traced


#: The function whose inclusive CPU time should dominate each group.
SHARE_OF = {
    "corpus": ("forms.evaluate", "self"),
    "p_family": ("geometry.hull_vertices", "total"),
    "random": ("geometry.enumerate_simplices", "total"),
    "search": ("certify.sonc_feasibility_search", "total"),
}


def shares(workload: str, group_totals: dict[str, list]) -> dict[str, Any]:
    """Share of each group's process CPU time spent in its dominant
    function, median over traced passes."""
    out = {}
    for group, samples in group_totals.items():
        name, kind = SHARE_OF[group]
        values = []
        for delta, cpu in samples:
            entry = delta.get(name)
            spent = 0.0 if entry is None else (entry.self_s if kind == "self" else entry.total_s)
            values.append(spent / cpu if cpu > 0 else 0.0)
        delta, cpu = samples[-1]
        top = sorted(delta.items(), key=lambda item: -item[1].self_s)[:5]
        out[group] = {
            "function": name,
            "time": kind,
            "share": statistics.median(values),
            "top_self_share": {key: totals.self_s / cpu for key, totals in top},
        }
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed)
    if args.trace:
        metrics, info, passes = measure_traced(workload, args.seconds)
    else:
        metrics, info, passes = measure(workload, args.seconds)
    failures = [f for p in passes for f in p.failures]
    for failure in failures[:20]:
        print(f"failed: {failure}", file=sys.stderr)
    correct = not failures and not info.get("silent_layers")
    if info.get("silent_layers"):
        print(f"failed: no calls traced in {info['silent_layers']}", file=sys.stderr)
    info.update(environment(workload), workload=workload.name, passes=len(passes))
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": correct,
        "attempted": sum(len(p.op_seconds) for p in passes),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
