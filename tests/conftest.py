"""Tier-1 is deterministic: every hypothesis property draws the same
examples on every run (derandomized, no example database to replay
from).  Each test's own ``max_examples`` is kept."""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, database=None)
settings.load_profile("tier1")
