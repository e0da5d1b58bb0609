"""Hypothesis runs derandomized, without a deadline and without an example
database: every run draws the same examples, a failure reproduces on rerun,
and nothing is written to .hypothesis/.  Per-test max_examples still apply."""
from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, deadline=None, database=None)
settings.load_profile("deterministic")
