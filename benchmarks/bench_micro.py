"""Microbenchmarks of the substrate (real wall-clock via pytest-benchmark):
codec encode/decode throughput, B+Tree operations, heap scans, and the
SSB generator itself."""

import numpy as np
import pytest

from repro.rowstore.btree import BPlusTree
from repro.simio.buffer_pool import BufferPool
from repro.simio.disk import SimulatedDisk
from repro.simio.stats import QueryStats
from repro.ssb.generator import generate
from repro.storage.colfile import ColumnFile, CompressionLevel
from repro.storage.column import Column
from repro.storage.encodings import (
    BitPackCodec,
    DeltaCodec,
    DictionaryCodec,
    PlainCodec,
    RleCodec,
    decode_payload,
)
from repro.types import int32

N = 200_000


@pytest.fixture(scope="module")
def int_data():
    rng = np.random.default_rng(0)
    return {
        "random": rng.integers(0, 2**28, N).astype(np.int32),
        "sorted": np.sort(rng.integers(0, 2**28, N)).astype(np.int32),
        "lowcard": rng.integers(0, 16, N).astype(np.int32),
        "runs": np.repeat(np.arange(N // 1000, dtype=np.int32), 1000),
    }


_CODEC_INPUTS = [
    ("plain", PlainCodec(), "random"),
    ("rle", RleCodec(), "runs"),
    ("bitpack", BitPackCodec(), "lowcard"),
    ("delta", DeltaCodec(), "sorted"),
    ("dictionary", DictionaryCodec(), "lowcard"),
]


@pytest.mark.parametrize("name,codec,key", _CODEC_INPUTS,
                         ids=[n for n, _c, _k in _CODEC_INPUTS])
def test_codec_encode(benchmark, int_data, name, codec, key):
    values = int_data[key]
    framed = benchmark(lambda: codec.frame(values))
    benchmark.extra_info["bytes_per_value"] = len(framed) / N


@pytest.mark.parametrize("name,codec,key", _CODEC_INPUTS,
                         ids=[n for n, _c, _k in _CODEC_INPUTS])
def test_codec_decode(benchmark, int_data, name, codec, key):
    framed = codec.frame(int_data[key])
    out = benchmark(lambda: decode_payload(framed))
    assert len(out) == N


def test_btree_bulk_load(benchmark, int_data):
    rids = np.arange(N, dtype=np.int32)

    def build():
        disk = SimulatedDisk(QueryStats())
        return BPlusTree.build(disk, "idx", int_data["random"], rids)

    tree = benchmark.pedantic(build, rounds=3, iterations=1)
    assert tree.num_entries == N


def test_btree_point_lookup(benchmark, int_data):
    disk = SimulatedDisk(QueryStats())
    tree = BPlusTree.build(disk, "idx", int_data["random"],
                           np.arange(N, dtype=np.int32))
    pool = BufferPool(disk, 64 * 1024 * 1024)
    key = int(int_data["random"][N // 2])
    rids = benchmark(lambda: tree.lookup(pool, key))
    assert len(rids) >= 1


def test_colfile_scan(benchmark, int_data):
    disk = SimulatedDisk(QueryStats())
    col = Column.from_ints("v", int_data["sorted"], int32())
    f = ColumnFile.load(disk, "c", col, CompressionLevel.MAX)
    pool = BufferPool(disk, 64 * 1024 * 1024)
    out = benchmark(lambda: f.read_all(pool))
    assert len(out) == N


@pytest.fixture(scope="module")
def group_matrix():
    """Realistic grouped-aggregation input: SSBM flight-4-style group
    codes (year x nation x category) over N surviving rows."""
    rng = np.random.default_rng(3)
    return np.stack([
        rng.integers(1997, 2004, N).astype(np.int64),
        rng.integers(0, 25, N).astype(np.int64),
        rng.integers(0, 25, N).astype(np.int64),
    ])


def test_group_factorize_packed(benchmark, group_matrix):
    """Packed-key factorization (the grouped_aggregate fast path)."""
    from repro.plan.aggregates import factorize_groups

    uniq, inverse = benchmark(lambda: factorize_groups(group_matrix))
    ref_uniq, ref_inverse = np.unique(group_matrix, axis=1,
                                      return_inverse=True)
    assert np.array_equal(uniq, ref_uniq)
    assert np.array_equal(inverse, np.ravel(ref_inverse))
    benchmark.extra_info["num_groups"] = int(uniq.shape[1])


def test_group_factorize_axis_unique(benchmark, group_matrix):
    """The np.unique(axis=1) path factorize_groups replaced (baseline)."""
    uniq, _inverse = benchmark(
        lambda: np.unique(group_matrix, axis=1, return_inverse=True))
    benchmark.extra_info["num_groups"] = int(uniq.shape[1])


def test_generator_throughput(benchmark):
    data = benchmark.pedantic(lambda: generate(0.01, seed=7), rounds=3,
                              iterations=1)
    assert data.lineorder.num_rows == 60_000
