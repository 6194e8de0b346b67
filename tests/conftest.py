"""Shared test settings.

Property tests run under one registered hypothesis profile: derandomized and
without an example database, so the suite draws the same examples on every
run; without a per-example deadline (fine grids take tens of milliseconds);
and with a bounded example count to keep the suite quick.
"""

from hypothesis import settings

settings.register_profile(
    "kmslab", derandomize=True, database=None, deadline=None, max_examples=10
)
settings.load_profile("kmslab")
