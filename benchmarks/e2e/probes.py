"""Layer probes: timed micro-calls on real data during set-up.

Some layers are never alone on a workload's critical path (the codecs
sit under every column-store query, the SQL frontend under every served
request), so their cost is also measured directly: the probes below call
one public function of one layer on the benchmark's real inputs — the
generated lineorder columns cut into block-sized slices, the SQL texts
the workloads send — and report a rate or a median.  They run in every
workload's traced run, so the numbers exist even where no workload
isolates the layer.
"""

from __future__ import annotations

import statistics
import time
from typing import Dict, List, Sequence

import numpy as np

#: values per probed slice: a plain int32 page's worth
BLOCK_VALUES = 8000
#: probe every ``BLOCK_STRIDE``-th slice of every column, so the encode
#: probe (which tries every codec, like the loader) stays under a second
BLOCK_STRIDE = 3


def calibrate() -> float:
    """Milliseconds for a fixed numpy + pure-Python kernel.

    Timed at the start and at the end of a run: the program under test
    cannot change it, so a drift between the two means the host got
    noisier (or throttled) while the benchmark ran.
    """
    rng = np.random.default_rng(12345)
    values = rng.integers(0, 1 << 20, size=400_000, dtype=np.int64)
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        order = np.argsort(values, kind="stable")
        total = int(values[order][::7].sum())
        for i in range(60_000):
            total = (total * 31 + i) & 0xFFFFFFFF
        best = min(best, time.perf_counter() - t0)
    return best * 1e3


def codec_probe(lineorder) -> Dict[str, float]:
    """Encode then decode block-sized slices of every lineorder column.

    Encoding is the loader's own step (``choose_codec(v).frame(v)``);
    decoding feeds the frames just produced to ``decode_payload``.
    """
    from repro.storage.encodings import choose_codec, decode_payload

    slices: List[np.ndarray] = []
    for column in lineorder.columns():
        data = column.data
        for start in range(0, len(data), BLOCK_VALUES * BLOCK_STRIDE):
            slices.append(data[start:start + BLOCK_VALUES])
    values = sum(len(s) for s in slices)

    t0 = time.perf_counter()
    frames = [choose_codec(s).frame(s) for s in slices]
    encode_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    decoded = [decode_payload(frame) for frame in frames]
    decode_s = time.perf_counter() - t0
    for original, back in zip(slices, decoded):
        if not np.array_equal(original, back):
            raise AssertionError("codec probe: decode(encode(v)) != v")
    return {
        "storage.encode_mvalues_per_s": values / encode_s / 1e6,
        "storage.decode_mvalues_per_s": values / decode_s / 1e6,
    }


def sql_probe(texts: Sequence[str], insert_sql: str) -> Dict[str, float]:
    """Median parse and bind time over ``texts`` (SELECTs), and parse +
    bind time per row of one multi-row INSERT."""
    from repro.sql import bind, bind_insert, parse_statement

    parse_us: List[float] = []
    bind_us: List[float] = []
    for sql in texts:
        t0 = time.perf_counter()
        statement = parse_statement(sql)
        t1 = time.perf_counter()
        bind(statement, name="probe")
        t2 = time.perf_counter()
        parse_us.append((t1 - t0) * 1e6)
        bind_us.append((t2 - t1) * 1e6)
    insert_us: List[float] = []
    for _ in range(5):
        t0 = time.perf_counter()
        _table, rows = bind_insert(parse_statement(insert_sql))
        insert_us.append((time.perf_counter() - t0) * 1e6 / len(rows))
    return {
        "sql.parse_us_p50": statistics.median(parse_us),
        "sql.bind_us_p50": statistics.median(bind_us),
        "sql.insert_parse_us_per_row": statistics.median(insert_us),
    }


__all__ = ["calibrate", "codec_probe", "sql_probe"]
