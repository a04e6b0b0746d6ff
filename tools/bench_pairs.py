"""Run the benchmark on two checkouts in alternating pairs; write a BENCH file.

    python3 tools/bench_pairs.py --parent DIR --change DIR \\
        --workload corpus=10 --workload analyze=5 --workload search=5 \\
        --first-seed 1101 --pr N --summary "what the change does" \\
        --out BENCH_N.json

``DIR`` is the root of a source checkout holding ``perfbench/run.py``;
each run starts ``python3 perfbench/run.py`` in that directory, so it
benchmarks that checkout's ``src/``, for the ``run_seconds`` the parent's
``BENCHMARK.json`` sets.  A workload given as ``NAME=N`` (N >= 2) runs N
pairs on seeds ``first-seed`` to ``first-seed + N - 1``; the parent runs
first in odd-numbered pairs and the change first in even-numbered ones.
Then one ``--trace 1`` run per side on seed :data:`TRACE_SEED` gives the
per-layer numbers.  Every run compiles its imports from source, as in a
fresh checkout, whatever ``__pycache__`` either checkout holds: see
:func:`run_bench`.  Quartiles are ``statistics.quantiles(n=4,
method="inclusive")`` over the runs; ``pairs_change_better`` counts the
pairs in which the change's value is strictly better, in the direction
``BENCHMARK.json`` gives for the metric.  ``notes`` is left empty for the
reader's account of the numbers.  If any run, traced or not, reports
``correct: false`` or ``failed > 0``, the BENCH file is still written,
those runs are named on stderr and the exit status is 1.  A run that
exits nonzero stops the tool at once with exit status 1, after naming the
run and repeating the end of its stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

#: Seed of the traced runs, the same in every BENCH file.
TRACE_SEED = 7
#: Lines of a crashed run's stderr repeated on the tool's own stderr.
CRASH_TAIL_LINES = 20


def run_bench(
    side: str, checkout: Path, workload: str, seed: int, seconds: float, trace: int,
    cache: Path,
) -> tuple[dict, dict]:
    """One benchmark run of ``side``; returns its ``info`` and its result line.

    Bytecode is looked up only in the empty directory ``cache`` and
    written nowhere, so a ``__pycache__`` left in one checkout cannot make
    that side's imports cheaper.  A run that exits nonzero is named on
    stderr with the last lines of its own stderr, and the tool exits 1.
    """
    env = {**os.environ, "PYTHONPYCACHEPREFIX": str(cache), "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, env=env, capture_output=True, text=True,
    )
    if done.returncode:
        tail = "\n".join(done.stderr.splitlines()[-CRASH_TAIL_LINES:])
        print(f"{side} run of {workload} seed {seed} trace {trace} exited with status "
              f"{done.returncode}; its stderr ends:\n{tail}", file=sys.stderr)
        raise SystemExit(1)
    *_, info, result = done.stdout.strip().splitlines()
    return json.loads(info)["info"], json.loads(result)


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def compare(unit: str, better: str, parent: list[float], change: list[float]) -> dict:
    wins = sum((c < p) if better == "lower" else (c > p) for p, c in zip(parent, change))
    parent_side, change_side = spread(parent), spread(change)
    return {
        "unit": unit,
        "parent": parent_side,
        "change": change_side,
        "change_over_parent": change_side["median"] / parent_side["median"],
        "pairs_change_better": f"{wins}/{len(parent)}",
    }


def bench_workload(
    args, seconds: float, name: str, pairs: int, better: dict[str, str], cache: Path
) -> tuple[dict, dict]:
    sides = {"parent": args.parent, "change": args.change}
    results: dict[str, list[dict]] = {"parent": [], "change": []}
    info = {}
    for k in range(pairs):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        for side in order:
            info, result = run_bench(
                side, sides[side], name, args.first_seed + k, seconds, 0, cache
            )
            results[side].append(result)
            print(f"{name} seed {args.first_seed + k} {side}: "
                  f"wall_s {result['metrics']['wall_s']['value']:.3f}", file=sys.stderr)
    metrics = results["parent"][0]["metrics"]
    end_to_end = {
        metric: compare(
            metrics[metric]["unit"], better[metric],
            [r["metrics"][metric]["value"] for r in results["parent"]],
            [r["metrics"][metric]["value"] for r in results["change"]],
        )
        for metric in metrics
    }
    health = {
        side: {key: [r[key] for r in runs] for key in ("correct", "attempted", "failed")}
        for side, runs in results.items()
    }
    traced = {
        side: run_bench(side, sides[side], name, TRACE_SEED, seconds, 1, cache)
        for side in sides
    }
    layers = {
        metric: {
            "unit": value["unit"],
            "parent": value["value"],
            "change": traced["change"][1]["metrics"][metric]["value"],
            "delta": traced["change"][1]["metrics"][metric]["value"] - value["value"],
        }
        for metric, value in traced["parent"][1]["metrics"].items()
    }
    per_layer = {
        "layers": layers,
        "shares_parent": traced["parent"][0].get("shares"),
        "shares_change": traced["change"][0].get("shares"),
        "correct": [traced["parent"][1]["correct"], traced["change"][1]["correct"]],
    }
    unhealthy = [
        f"{name} {side} seed {seed}"
        for side in sides
        for seed, result in [
            *zip(range(args.first_seed, args.first_seed + pairs), results[side]),
            (f"{TRACE_SEED} traced", traced[side][1]),
        ]
        if not result["correct"] or result["failed"] > 0
    ]
    machine = {key: info[key] for key in ("python", "numpy", "cpu_count")}
    sections = {"end_to_end": end_to_end, "run_health": health, "per_layer": per_layer}
    return sections, machine, unhealthy


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", action="append", required=True, metavar="NAME=PAIRS")
    parser.add_argument("--first-seed", type=int, required=True)
    parser.add_argument("--pr", type=int, required=True)
    parser.add_argument("--summary", required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    contract = json.loads((args.parent / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in contract["end_to_end"]}
    seconds = contract["run_seconds"]
    known = sorted(w["name"] for w in contract["workloads"])
    workloads = []
    # Checked before any run: with N < 2 the quartiles would fail only
    # after that workload's runs, and an unknown name inside run.py.
    for spec in args.workload:
        name, equals, pairs = spec.partition("=")
        if not equals:
            parser.error(f"--workload {spec!r}: expected NAME=N")
        if name not in known:
            parser.error(f"--workload {spec!r}: {name!r} is not one of {known}")
        if not pairs.isdigit() or int(pairs) < 2:
            parser.error(f"--workload {spec!r}: N must be an integer of at least 2")
        workloads.append((name, int(pairs)))
    layered = f"per_layer_traced_seed_{TRACE_SEED}"
    out: dict = {
        "pr": args.pr,
        "change": args.summary,
        "method": (
            f"python3 perfbench/run.py --workload W --seed S --seconds {seconds:g} on each of "
            "the parent commit and the change, each in its own directory; "
            + ", ".join(
                f"{pairs} pairs on {name} (seeds {args.first_seed}-{args.first_seed + pairs - 1})"
                for name, pairs in workloads
            )
            + ", alternating which side runs first (parent first on odd pairs); quartiles are "
            "statistics.quantiles(n=4, method='inclusive') over the run values. Per-layer numbers "
            f"come from one --trace 1 run per side with seed {TRACE_SEED}. "
            "Written by tools/bench_pairs.py."
        ),
        "machine": None,
        "end_to_end": {},
        "run_health": {},
        layered: {},
        "notes": [],
    }
    unhealthy: list[str] = []
    with tempfile.TemporaryDirectory(prefix="bench-pycache-") as cache:
        for name, pairs in workloads:
            sections, out["machine"], bad = bench_workload(
                args, seconds, name, pairs, better, Path(cache)
            )
            unhealthy += bad
            out["end_to_end"][name] = sections["end_to_end"]
            out["run_health"][name] = sections["run_health"]
            out[layered][name] = sections["per_layer"]
            args.out.write_text(json.dumps(out, indent=1) + "\n")
    if unhealthy:
        print("runs with correct false or failed > 0: " + ", ".join(unhealthy), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
