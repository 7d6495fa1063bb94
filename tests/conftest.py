"""Shared fixtures: one small SSB database and engines built once.

Scale factor 0.01 (60,000 fact rows) keeps the full suite fast while
leaving every dimension domain fully populated (all 250 cities, all
1000 brands).  Engines are session-scoped; each query execution gets its
own ledger, so sharing engines across tests does not leak measurements.
"""

import os

import pytest
from hypothesis import settings

from repro.colstore.engine import CStore
from repro.rowstore.designs import DesignKind
from repro.rowstore.engine import SystemX
from repro.simio.buffer_pool import BufferPool
from repro.simio.disk import SimulatedDisk
from repro.simio.stats import QueryStats
from repro.ssb.generator import generate

SMALL_SF = 0.01

# Hypothesis budgets, picked by HYPOTHESIS_PROFILE.  ``tier1`` (the
# default) is small and derandomized, so the gating suite runs the same
# examples every time; ``chaos`` is the deep, randomized run of CI's
# chaos lane.  A test that pins its own ``max_examples`` keeps it.
settings.register_profile("tier1", max_examples=100, deadline=None,
                          derandomize=True)
settings.register_profile("chaos", max_examples=2000, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "tier1"))


@pytest.fixture(scope="session")
def ssb_data():
    """The shared small SSB database (deterministic)."""
    return generate(SMALL_SF)


@pytest.fixture(scope="session")
def system_x(ssb_data):
    """A row store with all five designs built."""
    return SystemX(ssb_data, designs=list(DesignKind))


@pytest.fixture(scope="session")
def cstore(ssb_data):
    """A column store with compressed + plain projections and row-MVs."""
    return CStore(ssb_data, row_mv=True)


@pytest.fixture()
def disk():
    """A fresh simulated disk with its own ledger."""
    return SimulatedDisk(QueryStats())


@pytest.fixture()
def pool(disk):
    """A small buffer pool over the fresh disk."""
    return BufferPool(disk, capacity_bytes=64 * 32 * 1024)
