"""``ExecutionConfig.workers`` is inert: the column store has one serial
execution path, and no value of the field reaches it.

All 13 SSBM queries under the seven Figure 7 configurations plus
``tIcL`` (the benchmark's uncompressed variant, which is the one that
sets ``workers=2``) must give, at ``workers=4``, the rows, the whole
flat ledger (``block_calls`` included) and the span tree of
``workers=1``.
"""

import dataclasses

import pytest

from repro.core.config import CONFIG_LADDER, ExecutionConfig
from repro.ssb.queries import ALL_QUERIES

_LABELS = [c.label for c in CONFIG_LADDER] + ["tIcL"]


@pytest.mark.parametrize("label", _LABELS)
@pytest.mark.parametrize("query", ALL_QUERIES, ids=lambda q: q.name)
def test_parallel_equivalence(cstore, query, label):
    serial = ExecutionConfig.from_label(label)
    run1 = cstore.execute(query, serial)
    run4 = cstore.execute(query, dataclasses.replace(serial, workers=4))
    assert run4.result.rows == run1.result.rows
    assert run4.stats.snapshot() == run1.stats.snapshot()
    assert run4.trace.to_dict() == run1.trace.to_dict()


def test_workers_knob_validation():
    from repro.errors import PlanError

    with pytest.raises(PlanError):
        ExecutionConfig(workers=0)
    assert ExecutionConfig(workers=4).label == "tICL"  # label unchanged
