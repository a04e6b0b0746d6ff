"""Every ``hypothesis`` test in this suite draws the same examples on
every run: a failure found once is found again, and no run fails by luck.
A test's own ``@settings`` still set its example count."""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True, deadline=None)
settings.load_profile("derandomized")
