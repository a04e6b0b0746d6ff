"""Argument checks of ``tools/bench_pairs.py``; no benchmark is run."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"


@pytest.fixture
def bench_pairs(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)

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
