"""Per-layer spans around sonckit's public functions, installed from outside.

:class:`Tracer` replaces each target function with a wrapper that opens a
span, and rebinds every attribute of every loaded ``sonckit`` module that
holds the original object (``geometry.matrix_rank`` as well as
``exactlp.matrix_rank``), so calls through any import path are seen.
Methods are wrapped on their class.  :meth:`Tracer.uninstall` restores the
originals.

Spans are timed on the calling thread's CPU clock and kept per thread, so
the corpus worker threads, which take turns holding the interpreter lock,
are not counted twice.  A span's self time is its duration minus the
durations of the spans it directly encloses on the same thread.  Closed
spans are folded into per-thread totals as they close: a pass opens a few
hundred thousand of them, too many to keep one by one.
"""

from __future__ import annotations

import importlib
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable

Observer = Callable[[tuple, Any, BaseException | None], dict[str, int]]


def _none_result(counter: str) -> Observer:
    return lambda args, result, error: {counter: int(error is None and result is None)}


def _hits(args, result, error):
    return {"hits": int(error is None and result is not None)}


def _points_in(args, result, error):
    try:
        return {"points_in": len(args[0])}
    except (IndexError, TypeError):
        return {}


def _found(args, result, error):
    return {} if error else {"found": len(result)}


def _points(args, result, error):
    return {} if error else {"points": len(result)}


def _mediated(args, result, error):
    if error:
        return {}
    return {"lattice": len(result.lattice), "deleted": len(result.lattice) - len(result.star)}


def _search(args, result, error):
    if error is not None:
        return {"skipped": 1}
    return {"conclusive": int(result.status.value in ("Feasible", "InfeasibleWithMargin"))}


def _valid(args, result, error):
    return {} if error else {"valid": int(bool(result.valid))}


@dataclass(frozen=True)
class Target:
    """A function to trace: ``attr`` of ``sonckit.<module>``, which may be
    ``Class.method``; ``report`` names the per-layer metrics it yields."""

    name: str
    module: str
    attr: str
    report: tuple[str, ...]
    observe: Observer | None = None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


TARGETS: tuple[Target, ...] = (
    Target("forms.evaluate", "forms", "evaluate", ("calls", "self_s")),
    Target(
        "exactlp.simplex_feasible", "exactlp", "simplex_feasible",
        ("calls", "self_s", "infeasible"), _none_result("infeasible"),
    ),
    Target("exactlp.matrix_rank", "exactlp", "matrix_rank", ("calls", "self_s")),
    Target("exactlp.echelon_init", "exactlp", "EchelonSolver.__init__", ("calls", "self_s")),
    Target("exactlp.echelon_solve", "exactlp", "EchelonSolver.solve", ("calls", "self_s")),
    Target(
        "geometry.hull_vertices", "geometry", "hull_vertices",
        ("calls", "points_in", "self_s"), _points_in,
    ),
    Target(
        "geometry.enumerate_simplices", "geometry", "enumerate_simplices",
        ("calls", "found", "self_s"), _found,
    ),
    Target("geometry.affinely_independent", "geometry", "affinely_independent", ("calls",)),
    Target(
        "geometry.barycentric_coordinates", "geometry", "barycentric_coordinates",
        ("calls", "hits"), _hits,
    ),
    Target("geometry.support_partition", "geometry", "support_partition", ("self_s",)),
    Target(
        "geometry.lattice_points", "geometry", "lattice_points",
        ("calls", "points", "self_s"), _points,
    ),
    Target(
        "mediated.maximal_mediated_set", "mediated", "maximal_mediated_set",
        ("calls", "lattice", "deleted", "self_s"), _mediated,
    ),
    Target("mediated.naive_mediated_fixpoint", "mediated", "naive_mediated_fixpoint", ("self_s",)),
    Target(
        "certify.sonc_feasibility_search", "certify", "sonc_feasibility_search",
        ("calls", "skipped", "conclusive", "self_s"), _search,
    ),
    Target(
        "certify.verify_decomposition", "certify", "verify_decomposition",
        ("calls", "valid"), _valid,
    ),
    Target("certify.necessary_condition", "certify", "necessary_condition", ("self_s",)),
    Target("certify.corollary_check", "certify", "corollary_check", ("self_s",)),
    Target("circuits.detect_circuit", "circuits", "detect_circuit", ("calls", "self_s")),
    Target("circuits.compare_circuit_number", "circuits", "compare_circuit_number", ("calls", "self_s")),
    Target("circuits.zero_locus", "circuits", "zero_locus", ("self_s",)),
    Target("report.analyze", "report", "analyze", ("self_s",)),
    Target("report.report_to_dict", "report", "report_to_dict", ("self_s",)),
    Target("corpus.run_entry", "corpus", "run_entry", ("self_s",)),
    Target("cli.main", "cli", "main", ("self_s",)),
)


def metric_names() -> list[str]:
    """Every per-layer metric the traced run reports, in table order."""
    return [f"{t.name}.{suffix}" for t in TARGETS for suffix in t.report]


@dataclass
class Totals:
    calls: int = 0
    self_s: float = 0.0
    total_s: float = 0.0
    counters: dict[str, int] = field(default_factory=dict)

    def add(self, other: "Totals") -> None:
        self.calls += other.calls
        self.self_s += other.self_s
        self.total_s += other.total_s
        for key, value in other.counters.items():
            self.counters[key] = self.counters.get(key, 0) + value

    def minus(self, other: "Totals") -> "Totals":
        return Totals(
            self.calls - other.calls,
            self.self_s - other.self_s,
            self.total_s - other.total_s,
            {k: v - other.counters.get(k, 0) for k, v in self.counters.items()},
        )


class _ThreadState:
    def __init__(self):
        self.stack: list[float] = []  # child time accumulated per open span
        self.totals: dict[str, Totals] = {}


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.thread_time):
        self._clock = clock
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[_ThreadState] = []
        self._restore: list[tuple[Any, str, Any]] = []
        self.missing: list[str] = []
        self.observer_errors: dict[str, int] = {}

    # -- spans --------------------------------------------------------------

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState()
            with self._lock:
                self._threads.append(state)
            self._local.state = state
        return state

    def wrap(self, name: str, fn: Callable, observe: Observer | None = None) -> Callable:
        clock = self._clock

        def traced(*args, **kwargs):
            state = self._state()
            stack = state.stack
            stack.append(0.0)
            result = error = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                elapsed = clock() - start
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                totals = state.totals.get(name)
                if totals is None:
                    totals = state.totals[name] = Totals()
                totals.calls += 1
                totals.self_s += elapsed - children
                totals.total_s += elapsed
                if observe is not None:
                    self._observe(name, totals, observe, args, result, error)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def _observe(self, name, totals, observe, args, result, error) -> None:
        try:
            counts = observe(args, result, error)
        except (AttributeError, TypeError, ValueError):
            # The function's result changed shape; count it, keep tracing.
            self.observer_errors[name] = self.observer_errors.get(name, 0) + 1
            return
        for key, value in counts.items():
            totals.counters[key] = totals.counters.get(key, 0) + value

    def snapshot(self) -> dict[str, Totals]:
        """Totals per target name, summed over all threads so far."""
        out: dict[str, Totals] = {}
        with self._lock:
            states = list(self._threads)
        for state in states:
            for name, totals in state.totals.items():
                out.setdefault(name, Totals()).add(totals)
        return out

    def thread_calls(self, name: str) -> list[int]:
        """Calls of ``name`` so far on each thread, in order of first span."""
        with self._lock:
            return [s.totals.get(name, Totals()).calls for s in self._threads]

    # -- installation -------------------------------------------------------

    def install(self, targets: tuple[Target, ...] = TARGETS) -> None:
        self.missing = []
        for module in {t.module for t in targets}:
            importlib.import_module(f"sonckit.{module}")
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == "sonckit" or key.startswith("sonckit."))
        ]
        originals = []
        for target in targets:
            owner = sys.modules[f"sonckit.{target.module}"]
            *path, attr = target.attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = owner.__dict__.get(attr) if owner is not None else None
            if original is None:
                self.missing.append(target.name)
                continue
            wrapper = self.wrap(target.name, original, target.observe)
            self._bind(owner, attr, wrapper)
            if not path:
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original and (module, key) != (owner, attr):
                            self._bind(module, key, wrapper)
            originals.append(original)
        stale = [
            f"{module.__name__}.{key}"
            for module in modules
            for key, value in vars(module).items()
            if any(value is original for original in originals)
        ]
        if stale:
            self.uninstall()
            raise RuntimeError(f"untraced bindings remain: {stale}")

    def _bind(self, owner: Any, attr: str, value: Any) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)
