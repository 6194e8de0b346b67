"""Shared test settings and fixtures.

Property tests run under one registered hypothesis profile: derandomized and
without an example database, so the suite draws the same examples on every
run; without a per-example deadline (fine grids take tens of milliseconds);
and with a bounded example count to keep the suite quick.
"""

import pytest
from hypothesis import settings

from kmslab import verify

settings.register_profile(
    "kmslab", derandomize=True, database=None, deadline=None, max_examples=10
)
settings.load_profile("kmslab")


@pytest.fixture
def sweep_calls(monkeypatch):
    """The frequency count of every verify._sweep_vectors call, in call order."""
    calls = []
    sweep_vectors = verify._sweep_vectors

    def counting(config, freqs):
        calls.append(freqs.shape[0])
        return sweep_vectors(config, freqs)

    monkeypatch.setattr(verify, "_sweep_vectors", counting)
    return calls
