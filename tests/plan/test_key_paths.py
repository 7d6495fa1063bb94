"""Which ``KeyIndex`` path runs is a wall-clock matter only.

Every probe is forced down the sorted path with the probe search off,
then with the probe search taking every strictly ascending probe, then
down the direct path, by patching the density bound and the probe
search's ratio; each query must produce the same ledger, rows, simulated
seconds and per-span exclusive ledgers every way — 13 queries under
every legal configuration label and every row-store plan shape, zone
maps off and on.
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
#: (DIRECT_MIN_SPAN, DIRECT_DENSITY, PROBE_SEARCH_RATIO) per forced
#: path; no key span at this scale approaches 2**40, and no probe holds
#: 2**40 values per key
FORCED = {"sorted": (0, 0, 1 << 40), "probe-search": (0, 0, 0),
          "direct": (1 << 40, 0, 1 << 40)}
#: what a lookup may record down each forced path (a probe search is a
#: sorted-path lookup that searched its keys in the probe)
TAKES = {"sorted": {"sorted"}, "probe-search": {"sorted", "probe-search"},
         "direct": {"direct"}}


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
    """Run every query once per forced path; all must agree, and each
    must really have probed down its own path only.  Returns how many
    probes the forced probe search took."""
    taken = []
    lookup = keys_module.KeyIndex.lookup
    search_probe = keys_module.KeyIndex._search_probe

    def spying(index, values):
        if index.size:  # an empty index has no path to take
            taken.append("direct" if index.direct else "sorted")
        return lookup(index, values)

    def searching(index, probe):
        taken.append("probe-search")
        return search_probe(index, probe)

    monkeypatch.setattr(keys_module.KeyIndex, "lookup", spying)
    monkeypatch.setattr(keys_module.KeyIndex, "_search_probe", searching)
    probes = searched = 0
    for query in all_queries():
        seen = {}
        for path, (min_span, density, ratio) in FORCED.items():
            monkeypatch.setattr(keys_module, "DIRECT_MIN_SPAN", min_span)
            monkeypatch.setattr(keys_module, "DIRECT_DENSITY", density)
            monkeypatch.setattr(keys_module, "PROBE_SEARCH_RATIO", ratio)
            taken.clear()
            seen[path] = _fingerprint(execute(query))
            assert set(taken) <= TAKES[path], (query.name, path)
            probes += len(taken)
            searched += taken.count("probe-search")
        assert seen["sorted"] == seen["probe-search"] == seen["direct"], \
            query.name
    assert probes  # every plan shape joins through the kernel somewhere
    return searched


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
    searched = _assert_path_invisible(
        monkeypatch, lambda query: system_x.execute(query, design, **options))
    if plan == "VP-hash":
        # its hash position joins probe with ascending positions
        assert searched, plan
