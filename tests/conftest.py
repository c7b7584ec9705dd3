"""Deterministic property tests: every run draws the same Hypothesis examples.

A failure seen once comes back on the next run, and no example database
carries state between runs.
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
