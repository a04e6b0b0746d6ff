"""Every ``hypothesis`` test in this suite draws the same examples on
every run: a failure found once is found again, and no run fails by luck.
A test's own ``@settings`` still set its example count."""

import sys

import pytest
from hypothesis import settings

settings.register_profile("derandomized", derandomize=True, deadline=None)
settings.load_profile("derandomized")


@pytest.fixture
def int_digit_limit():
    """Python's default limit on the digits ``int(str)`` converts, set for
    the test whatever the environment asks for."""
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(previous)
