"""Shared test settings: one hypothesis profile for every property test.

Draws are derandomized and nothing is stored between runs, so a property
test sees the same examples on every run and machine; `max_examples` stays
with each test.
"""
from hypothesis import HealthCheck, settings

settings.register_profile(
    "qproc", derandomize=True, database=None, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("qproc")
