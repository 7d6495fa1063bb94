"""Every page an engine build writes is pinned, byte for byte.

The digests below are sha256 over (file name, page number, page image)
of every file on the disk, recorded before the row-store build path was
vectorised (statistics on first use, sidecars by one reduction per
column, bitmap rid lists encoded in one pass).  Speeding a build up must
never move a byte: heap pages, zone-map sidecars, bitmap frames, column
files and the shadow a tuple move swaps in are all covered.

Two properties back the digests up on drawn inputs: the one-pass rid
list encoder equals framing each list on its own, and the vectorised
heap sidecar equals the page-by-page loop it replaced
(``reference_synopsis``).
"""

import hashlib
import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.colstore.engine import CStore
from repro.rowstore.designs import DesignKind
from repro.rowstore.engine import SystemX
from repro.simio.stats import QueryStats
from repro.ssb.generator import generate
from repro.storage.column import Column
from repro.storage.encodings.delta import (DELTA, decode_frames,
                                           encode_frames)
from repro.storage.rowpage import RowFormat
from repro.storage.table import Table
from repro.synopsis import heap_synopsis_blob
from repro.types import int32, int64
from tests.storage.reference_synopsis import reference_heap_blob
from tests.write.dml import write_mix

#: small enough to build every design in well under a second, large
#: enough that every heap spans several pages and carries a sidecar
SF, SEED = 0.004, 1


def disk_digest(disk) -> str:
    """sha256 over every (file name, page number, image) of ``disk``."""
    digest = hashlib.sha256()
    for name in disk.files():
        for page_no, image in enumerate(disk.file(name).pages):
            digest.update(name.encode() + struct.pack("<II", page_no,
                                                      len(image)))
            digest.update(image)
    return digest.hexdigest()


@pytest.fixture(scope="module")
def data():
    return generate(SF, seed=SEED)


def _moved(engine, data):
    rows, predicates = write_mix(data)
    stats = QueryStats()
    engine.insert("lineorder", rows, stats)
    engine.delete("lineorder", predicates, stats)
    assert engine.move(stats) > 0
    return engine


BUILDS = {
    "system_x": lambda d: SystemX(d),
    "cstore": lambda d: CStore(d),
    "system_x_moved": lambda d: _moved(SystemX(d), d),
    "cstore_moved": lambda d: _moved(CStore(d), d),
}
BUILDS.update({
    f"system_x_{design.name.lower()}":
        (lambda d, design=design: SystemX(d, designs=[design]))
    for design in DesignKind
})

GOLDEN = {
    "cstore":
        "b6a8daa42a1731935d80540889836d71d9fd9e793ef4f8f0e9ec9f9706a73882",
    "cstore_moved":
        "75dead284679419a99652c78e96be2701a4a69a524e5c72a7707e9e041ed8655",
    "system_x":
        "6b3d30159d403370cf3ff6d8159737cf7a77f8a4801130d2d33a3eedeea24e0c",
    "system_x_index_only":
        "381cac4dcf2188d85e0a8152b565d7ba85bb879f3ef431c3ef87e512d375ec6e",
    "system_x_materialized_views":
        "b2263d87119a0e1708aa0def860604b35b80634558d5ae30fe7b53d8de19ea65",
    "system_x_moved":
        "e26baac60089f87ca190a7b73fb0d19e7eefa9fb15619f12f7c796b534fbc229",
    "system_x_traditional":
        "62b75e2ecd7480e6c4a7ccdb65606c37d614faa119e0225358741a828e536b5c",
    "system_x_traditional_bitmap":
        "e3f702a9a2cd924e59d2d3d1f3648aed1959e543b2940639e32c4c96332e27d1",
    "system_x_vertical_partitioning":
        "4bea1bb4eab7976f79641f6cf9815e7e898c83a340f54b16ff2f1c774c567936",
}


@pytest.mark.parametrize("build", sorted(BUILDS))
def test_build_images_are_byte_identical(data, build):
    assert disk_digest(BUILDS[build](data).disk) == GOLDEN[build]


#: the same for every design at the shared suite's scale and the
#: default seed (the benchmark's data)
SYSTEM_X_SF01 = \
    "caa78fdcb41bd306a01cede6bac5c0ad6c85ac61f2fab179afa5d10745ed8687"


def test_system_x_images_at_the_suite_scale(ssb_data):
    assert disk_digest(SystemX(ssb_data).disk) == SYSTEM_X_SF01


# -------------------------------------------------------------------- #
# encode_frames: one pass over many rid lists
# -------------------------------------------------------------------- #
@st.composite
def delta_runs(draw):
    """One int64 run whose zigzagged deltas fit a drawn width (1-64
    bits, the packing kernel's byte-view widths drawn often), rising,
    falling or both, and wrapping where a 64-bit gap needs it."""
    count = draw(st.integers(1, 40))
    bits = draw(st.one_of(st.sampled_from([1, 8, 16, 32, 63, 64]),
                          st.integers(1, 64)))
    half = 1 << (bits - 1)
    deltas = draw(st.lists(st.integers(-half, half - 1),
                           min_size=count - 1, max_size=count - 1))
    first = draw(st.integers(-(1 << 63), (1 << 63) - 1))
    return np.cumsum(np.array([first] + deltas, dtype=np.int64),
                     dtype=np.int64)


@given(st.lists(delta_runs(), max_size=12))
def test_encode_frames_equals_one_frame_per_run(runs):
    values = np.concatenate([np.zeros(0, np.int64)] + runs)
    frames = encode_frames(values, [len(run) for run in runs])
    assert frames == [DELTA.frame(run) for run in runs]
    np.testing.assert_array_equal(decode_frames(frames), values)


# -------------------------------------------------------------------- #
# heap sidecars: one reduction per column
# -------------------------------------------------------------------- #
@st.composite
def heap_tables(draw):
    """A table of int32, int64 and CHAR(1-25) columns (strings drawn
    longer than their width get truncated) with a few rows, some columns
    all one value."""
    rows = draw(st.integers(1, 60))
    columns = []
    for i in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["i4", "i8", "str"]))
        same = draw(st.booleans())
        size = 1 if same else rows
        if kind == "str":
            width = draw(st.integers(1, 25))
            text = st.text(st.characters(min_codepoint=0, max_codepoint=127),
                           max_size=30)
            values = draw(st.lists(text, min_size=size, max_size=size))
            columns.append(Column.from_strings(f"c{i}", values * (rows // size),
                                               width=width))
        else:
            ctype, top = (int32(), 1 << 31) if kind == "i4" else \
                (int64(), 1 << 63)
            values = draw(st.lists(st.integers(-top, top - 1),
                                   min_size=size, max_size=size))
            columns.append(Column.from_ints(
                f"c{i}", np.array(values * (rows // size), dtype=np.int64),
                ctype))
    return Table("t", columns)


@given(heap_tables(), st.integers(1, 70), st.sampled_from([0, 4, 8]))
def test_heap_sidecar_equals_the_page_by_page_reference(table, page_rows,
                                                        header_bytes):
    fmt = RowFormat(table.schema, header_bytes=header_bytes)
    # pages of a drawn size, so a few rows span several pages (the last
    # one partial) or just one (no sidecar)
    fmt.rows_per_page = page_rows
    expected = reference_heap_blob(fmt.build_records(table), page_rows)
    assert heap_synopsis_blob(table, fmt) == expected
