"""Settings shared by the whole suite.

One Hypothesis profile for every property test: derandomized, so a run
draws the same examples each time, with no example database, no deadline
and a bounded example count. A test's own @settings still override it.
"""

import pytest
from hypothesis import settings

from vsr3d import bicubic

settings.register_profile("vsr3d", derandomize=True, database=None, deadline=None,
                          max_examples=60)
settings.load_profile("vsr3d")


@pytest.fixture
def small_blocks(monkeypatch):
    """Banded filters in blocks of 5 outputs, so small planes span several
    bands; yields the block size."""
    monkeypatch.setattr(bicubic, "_BLOCK", 5)
    bicubic._bands.cache_clear()
    yield 5
    bicubic._bands.cache_clear()
