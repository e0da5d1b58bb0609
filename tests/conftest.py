"""Hypothesis runs derandomized, without a deadline and without an example
database: every run draws the same examples, a failure reproduces on rerun,
and nothing is written to .hypothesis/.  Per-test max_examples still apply.
Hypothesis also caches constants mined from the source whatever the database
setting, so its storage directory is a temporary one, removed at exit."""
import atexit
import os
import shutil
import tempfile

os.environ["HYPOTHESIS_STORAGE_DIRECTORY"] = _storage = tempfile.mkdtemp(prefix="hypothesis-")
atexit.register(shutil.rmtree, _storage, ignore_errors=True)

from hypothesis import settings  # noqa: E402  (reads the storage directory on first use)

settings.register_profile("deterministic", derandomize=True, deadline=None, database=None)
settings.load_profile("deterministic")
