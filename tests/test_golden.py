"""Golden snapshots: the corpus rows, the JSON reports and the simplex
families that ``tools/golden.py --write`` committed under ``tests/golden/``
must come out the same.  Floats compare to a relative 1e-12, everything
else exactly; a failure names the first differing path."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "golden.py"


def _load():
    spec = importlib.util.spec_from_file_location("golden", _PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


golden = _load()


def test_outputs_match_the_golden_snapshots():
    snapshots = golden.compute()
    assert sorted(snapshots) == sorted(p.name for p in golden.GOLDEN_DIR.glob("*.json"))
    found = golden.differences(snapshots)
    assert not found, "\n".join(found)


@pytest.mark.parametrize(
    "expected, got, path",
    [
        ({"a": [1, "x"]}, {"a": [1, "y"]}, "$['a'][1]"),
        ({"a": 1, "b": 2}, {"b": 2, "a": 1}, "$"),
        ([1, 2], [1, 2, 3], "$"),
        ({"m": 1.0}, {"m": 1.0 + 1e-9}, "$['m']"),
        ({"n": 1}, {"n": True}, "$['n']"),
        ({"r": "1/2"}, {"r": "2/4"}, "$['r']"),
    ],
)
def test_first_difference_names_the_path(expected, got, path):
    found = golden.first_difference(expected, got)
    assert found is not None and found.startswith(path + ":")


def test_first_difference_forgives_float_rounding_only():
    assert golden.first_difference([1.0, 2], [1.0 + 1e-14, 2]) is None
    assert golden.first_difference([0.0], [1e-300]) is not None
