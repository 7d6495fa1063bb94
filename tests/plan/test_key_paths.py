"""Which ``KeyIndex`` path runs is a wall-clock matter only.

Every probe is forced down the sorted path, then down the direct path,
by patching the density bound; each query must produce the same ledger,
rows, simulated seconds and per-span exclusive ledgers either way —
13 queries under every legal configuration label and every row-store
plan shape, zone maps off and on.
"""

from dataclasses import replace
from itertools import product

import pytest

from repro.colstore.engine import CStore
from repro.core.config import ExecutionConfig
from repro.plan import keys as keys_module
from repro.rowstore.designs import DesignKind
from repro.rowstore.engine import SystemX
from repro.ssb.generator import generate
from repro.ssb.queries import all_queries
from tests.rowstore.test_batch_granularity import PLANS, _fingerprint

PATHS_SF = 0.004
#: the twelve labels ExecutionConfig accepts (an invisible join needs
#: late materialization)
LABELS = [t + i + c + m for t, i, c, m in product("tT", "iI", "cC", "lL")
          if not (i == "I" and m == "l")]
#: (DIRECT_MIN_SPAN, DIRECT_DENSITY) per forced path; no key span at
#: this scale approaches 2**40
FORCED = {"sorted": (0, 0), "direct": (1 << 40, 0)}


@pytest.fixture(scope="module")
def data():
    return generate(PATHS_SF)


@pytest.fixture(scope="module")
def cstore(data):
    return CStore(data)


@pytest.fixture(scope="module")
def system_x(data):
    return SystemX(data, designs=list(DesignKind))


def _assert_path_invisible(monkeypatch, execute):
    """Run every query once per forced path; both must agree, and each
    must really have probed down its own path only."""
    taken = []
    lookup = keys_module.KeyIndex.lookup

    def spying(index, values):
        if index.size:  # an empty index has no path to take
            taken.append(index.direct)
        return lookup(index, values)

    monkeypatch.setattr(keys_module.KeyIndex, "lookup", spying)
    probes = 0
    for query in all_queries():
        seen = {}
        for path, (min_span, density) in FORCED.items():
            monkeypatch.setattr(keys_module, "DIRECT_MIN_SPAN", min_span)
            monkeypatch.setattr(keys_module, "DIRECT_DENSITY", density)
            taken.clear()
            seen[path] = _fingerprint(execute(query))
            assert set(taken) <= {path == "direct"}, (query.name, path)
            probes += len(taken)
        assert seen["sorted"] == seen["direct"], query.name
    assert probes  # every plan shape joins through the kernel somewhere


@pytest.mark.parametrize("zone_maps", (False, True), ids=("full", "zm"))
@pytest.mark.parametrize("label", LABELS)
def test_key_path_is_invisible_to_the_column_store(monkeypatch, cstore,
                                                    label, zone_maps):
    config = replace(ExecutionConfig.from_label(label), zone_maps=zone_maps)
    _assert_path_invisible(monkeypatch,
                           lambda query: cstore.execute(query, config))


@pytest.mark.parametrize("zone_maps", (False, True), ids=("full", "zm"))
@pytest.mark.parametrize("plan", PLANS)
def test_key_path_is_invisible_to_the_row_store(monkeypatch, system_x, plan,
                                                 zone_maps):
    design, options = PLANS[plan]
    monkeypatch.setattr(system_x, "zone_maps", zone_maps)
    _assert_path_invisible(
        monkeypatch, lambda query: system_x.execute(query, design, **options))
