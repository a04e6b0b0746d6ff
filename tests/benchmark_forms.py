"""The benchmark's random forms, loaded once per test session.

``perfbench/sparse_forms.py`` draws each seed's forms by rejection, which
takes about a second per seed, so the module and each seed's draw are
cached here for every test module that checks them.
"""

import functools
import importlib.util
import sys
from pathlib import Path


@functools.cache
def sparse_forms():
    """``perfbench/sparse_forms.py``, the benchmark's random forms."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "sparse_forms.py"
    spec = importlib.util.spec_from_file_location("sparse_forms", path)
    module = importlib.util.module_from_spec(spec)
    # Its dataclass looks its module up in sys.modules.
    sys.modules.setdefault(spec.name, module)
    spec.loader.exec_module(module)
    return module


@functools.cache
def random_specs(seed):
    """The ``RandomForm`` specs of the benchmark's ``analyze`` workload
    for ``seed``."""
    return tuple(sparse_forms().random_forms(seed))
