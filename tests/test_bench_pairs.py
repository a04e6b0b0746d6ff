"""Checks of ``tools/bench_pairs.py``; no benchmark is run."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"


def _load():
    spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def bench_pairs(monkeypatch):
    module = _load()

    def no_runs(*args, **kwargs):
        raise AssertionError("a benchmark run started")

    monkeypatch.setattr(module, "run_bench", no_runs)
    return module


@pytest.fixture
def checkout(tmp_path):
    contract = {
        "run_seconds": 36,
        "workloads": [{"name": "corpus"}, {"name": "analyze"}],
        "end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower"}],
    }
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(contract))
    return tmp_path


@pytest.mark.parametrize(
    "spec, message",
    [
        ("corpus", "expected NAME=N"),
        ("nosuch=5", "is not one of ['analyze', 'corpus']"),
        ("corpus=1", "at least 2"),
        ("corpus=0", "at least 2"),
        ("corpus=x", "at least 2"),
    ],
)
def test_bad_workload_is_rejected_before_any_run(
    bench_pairs, checkout, capsys, spec, message
):
    argv = [
        "--parent", str(checkout), "--change", str(checkout),
        "--workload", "analyze=5", "--workload", spec,
        "--first-seed", "1", "--pr", "1", "--summary", "s",
        "--out", str(checkout / "BENCH.json"),
    ]
    with pytest.raises(SystemExit) as exit_info:
        bench_pairs.main(argv)
    assert exit_info.value.code == 2
    assert message in capsys.readouterr().err
    assert not (checkout / "BENCH.json").exists()


def _fake_checkouts(tmp_path):
    contract = {
        "run_seconds": 36,
        "workloads": [{"name": "corpus"}],
        "end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower"}],
    }
    sides = {side: tmp_path / side for side in ("parent", "change")}
    for checkout in sides.values():
        (checkout / "__pycache__").mkdir(parents=True)
        (checkout / "BENCHMARK.json").write_text(json.dumps(contract))
    return sides


def test_every_run_compiles_from_source(monkeypatch, tmp_path):
    """Both sides look bytecode up in one empty directory outside both
    checkouts and write none, whatever ``__pycache__`` either holds."""
    module = _load()
    sides = _fake_checkouts(tmp_path)
    info = {"info": {"python": "3", "numpy": None, "cpu_count": 2, "shares": {}}}
    result = {
        "metrics": {"wall_s": {"value": 1.0, "unit": "s"}},
        "correct": True, "attempted": 1, "failed": 0,
    }
    runs = []

    def fake_run(command, cwd, env, **kwargs):
        prefix = Path(env["PYTHONPYCACHEPREFIX"])
        runs.append((cwd, prefix, env["PYTHONDONTWRITEBYTECODE"], list(prefix.iterdir())))
        stdout = json.dumps(info) + "\n" + json.dumps(result) + "\n"
        return subprocess.CompletedProcess(command, 0, stdout=stdout, stderr="")

    monkeypatch.setattr(module.subprocess, "run", fake_run)
    out = tmp_path / "BENCH.json"
    assert module.main([
        "--parent", str(sides["parent"]), "--change", str(sides["change"]),
        "--workload", "corpus=2", "--first-seed", "1", "--pr", "1",
        "--summary", "s", "--out", str(out),
    ]) == 0
    assert sorted(cwd.name for cwd, *_ in runs) == ["change"] * 3 + ["parent"] * 3
    prefixes = {prefix for _, prefix, _, _ in runs}
    assert len(prefixes) == 1
    (prefix,) = prefixes
    assert all(checkout not in prefix.parents for checkout in sides.values())
    assert all(flag == "1" and not listing for _, _, flag, listing in runs)
    assert not prefix.exists()
    assert json.loads(out.read_text())["run_health"]["corpus"]["parent"]["failed"] == [0, 0]


def test_unhealthy_runs_are_named_and_fail_after_the_bench_file(monkeypatch, tmp_path, capsys):
    """A run with ``correct: false`` or ``failed > 0`` makes the exit status
    1; the BENCH file is written all the same."""
    module = _load()
    sides = _fake_checkouts(tmp_path)
    info = {"info": {"python": "3", "numpy": None, "cpu_count": 2, "shares": {}}}
    # (side, seed, traced) -> (correct, failed); every other run is healthy.
    bad = {("change", "2", "0"): (False, 0), ("parent", "7", "1"): (True, 3)}

    def fake_run(command, cwd, env, **kwargs):
        seed, trace = command[command.index("--seed") + 1], command[-1]
        correct, failed = bad.get((cwd.name, seed, trace), (True, 0))
        result = {
            "metrics": {"wall_s": {"value": 1.0, "unit": "s"}},
            "correct": correct, "attempted": 1, "failed": failed,
        }
        stdout = json.dumps(info) + "\n" + json.dumps(result) + "\n"
        return subprocess.CompletedProcess(command, 0, stdout=stdout, stderr="")

    monkeypatch.setattr(module.subprocess, "run", fake_run)
    out = tmp_path / "BENCH.json"
    assert module.main([
        "--parent", str(sides["parent"]), "--change", str(sides["change"]),
        "--workload", "corpus=2", "--first-seed", "1", "--pr", "1",
        "--summary", "s", "--out", str(out),
    ]) == 1
    health = json.loads(out.read_text())["run_health"]["corpus"]
    assert health["change"]["correct"] == [True, False]
    err = capsys.readouterr().err.splitlines()[-1]
    assert err == (
        "runs with correct false or failed > 0: corpus parent seed 7 traced,"
        " corpus change seed 2"
    )


def test_a_crashed_run_is_named_with_its_stderr(monkeypatch, tmp_path, capsys):
    """A ``perfbench/run.py`` that exits nonzero stops the tool with exit
    status 1; stderr names the side, workload, seed and trace flag and
    repeats the end of the child's traceback."""
    module = _load()
    sides = _fake_checkouts(tmp_path)
    traceback = [f"  frame {k}" for k in range(30)] + ["ZeroDivisionError: boom"]

    def fake_run(command, cwd, env, **kwargs):
        assert not kwargs.get("check")
        stderr = "Traceback (most recent call last):\n" + "\n".join(traceback) + "\n"
        return subprocess.CompletedProcess(command, 1, stdout="", stderr=stderr)

    monkeypatch.setattr(module.subprocess, "run", fake_run)
    with pytest.raises(SystemExit) as exit_info:
        module.main([
            "--parent", str(sides["parent"]), "--change", str(sides["change"]),
            "--workload", "corpus=2", "--first-seed", "5", "--pr", "1",
            "--summary", "s", "--out", str(tmp_path / "BENCH.json"),
        ])
    assert exit_info.value.code == 1
    err = capsys.readouterr().err.splitlines()
    assert err[0] == "parent run of corpus seed 5 trace 0 exited with status 1; its stderr ends:"
    assert err[1:] == traceback[-module.CRASH_TAIL_LINES:]


@pytest.mark.parametrize(
    "stdout",
    [
        "",
        '{"metrics": {}}\n',
        '{"info": {}}\nwall_s 0.2\n',
        '[1, 2]\n{"metrics": {}}\n',
        'progress\n{"metrics": {}}\n',
    ],
)
def test_a_run_without_its_json_lines_is_named_with_its_stderr(
    monkeypatch, tmp_path, capsys, stdout
):
    """A run that exits 0 but whose stdout does not end with the info and
    result lines stops the tool like a crashed run, not with a traceback."""
    module = _load()
    sides = _fake_checkouts(tmp_path)
    stderr = [f"warning {k}" for k in range(25)]

    def fake_run(command, cwd, env, **kwargs):
        return subprocess.CompletedProcess(
            command, 0, stdout=stdout, stderr="\n".join(stderr) + "\n"
        )

    monkeypatch.setattr(module.subprocess, "run", fake_run)
    with pytest.raises(SystemExit) as exit_info:
        module.main([
            "--parent", str(sides["parent"]), "--change", str(sides["change"]),
            "--workload", "corpus=2", "--first-seed", "5", "--pr", "1",
            "--summary", "s", "--out", str(tmp_path / "BENCH.json"),
        ])
    assert exit_info.value.code == 1
    err = capsys.readouterr().err.splitlines()
    assert err[0] == (
        "parent run of corpus seed 5 trace 0 exited with status 0 but did not end "
        "with its info and result lines; its stderr ends:"
    )
    assert err[1:] == stderr[-module.CRASH_TAIL_LINES:]
