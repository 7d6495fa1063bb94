"""Remembering the write-time CRC of a page image keeps verification exact.

``DiskFile.crc_of`` hashes an image only when it is not the exact
``bytes`` object the last write to that page stored.  Whatever the
history of a page — appended, rewritten, corrupted by the fault
injector (bit flip or torn tail), replaced by direct assignment, turned
into a ``bytearray`` and edited in place, truncated away with the
journal and appended again — every verdict must be the one a fresh hash
gives, on every read path: the buffer pool's miss loop, a morsel
worker's trace pool, ``warm``, the scrubber's audit and the zone-map
sidecar loader.  A twin disk that hashes on every verification replays
the same operations as the reference for the ledger, the errors and the
quarantine list.
"""

import warnings
import zlib
from unittest import mock

from hypothesis import given
from hypothesis import strategies as st

from repro import synopsis
from repro.colstore.parallel import TracePool
from repro.errors import ChecksumError, TransientIOError
from repro.scrub import audit_disk
from repro.simio import disk as disk_module
from repro.simio.buffer_pool import MAX_READ_RETRIES, BufferPool
from repro.simio.faults import FaultInjector, FaultPolicy
from repro.write.journal import JOURNAL_FILE, RedoJournal

NAME = JOURNAL_FILE
SEED = 7


def raw_crc(image) -> int:
    """The test's own hash, independent of the code under test."""
    return zlib.crc32(image) & 0xFFFFFFFF


class Side:
    """One disk, its pool and what the operations returned on it."""

    def __init__(self, raw: bool) -> None:
        self.journal = RedoJournal()
        self.disk = self.journal.disk
        self.disk.fault_injector = FaultInjector(
            seed=SEED, policies=[FaultPolicy(transient_rate=0.3)])
        self.pool = BufferPool(self.disk, 2 * disk_module.PAGE_SIZE)
        self.seen = []
        if raw:  # the reference: a fresh hash on every verification
            def verify(name, page_no, payload=None):
                if payload is None:
                    payload = self.disk.file(name).pages[page_no]
                return raw_crc(payload) == self.disk.expected_checksum(
                    name, page_no)
            self.disk.verify_page = verify

    @property
    def pages(self):
        return self.disk.file(NAME).pages

    def read(self, via, page_no):
        try:
            if via == "pool":
                return bytes(self.pool.read_page(NAME, page_no))
            trace = TracePool(self.pool)
            payload = bytes(trace.read_page(NAME, page_no))
            return payload, trace.trace, trace.stats.snapshot()
        except (ChecksumError, TransientIOError) as exc:
            return type(exc).__name__, str(exc)


class Model:
    """What the test knows: which object each page was last written as."""

    def __init__(self) -> None:
        self.written = {}

    def hashes_expected(self, page_no, image) -> int:
        trusted = type(image) is bytes and self.written.get(page_no) is image
        return 0 if trusted else 1


def apply(op, side, model=None):
    kind, a, b = op
    pages = side.pages
    n = len(pages)
    page_no = a % n if n else None
    if kind == "append":
        data = bytearray(b) if a % 2 else bytes(b)
        side.disk.append_page(NAME, data)
        if model is not None:
            model.written[n] = data
    elif n == 0:
        return
    elif kind == "rewrite":
        data = bytes(b)
        side.disk.rewrite_page(NAME, page_no, data)
        side.disk.unquarantine(NAME, page_no)
        side.pool.invalidate(NAME)
        if model is not None:
            model.written[page_no] = data
    elif kind in ("bitflip", "torn"):
        policy = FaultPolicy(page_lo=page_no, page_hi=page_no + 1,
                             **{f"{kind}_rate": 1.0})
        FaultInjector(seed=SEED, policies=[policy]).corrupt_disk(side.disk)
    elif kind == "assign":
        # a copy of the same bytes is still a new object
        pages[page_no] = (bytes(bytearray(pages[page_no])) if b == b""
                          else bytes(b))
    elif kind == "to_bytearray":
        pages[page_no] = bytearray(pages[page_no])
    elif kind == "poke":
        if isinstance(pages[page_no], bytearray) and pages[page_no]:
            pages[page_no][0] ^= 0x01
    elif kind == "truncate":
        side.journal.truncate_pages(page_no)
        if model is not None:
            for gone in range(page_no, n):
                model.written.pop(gone, None)
    elif kind in ("pool", "trace"):
        side.seen.append(side.read(kind, page_no))
    elif kind == "warm":
        side.pool.warm(NAME)
        side.seen.append(list(side.pool._pages))
    elif kind == "audit":
        side.seen.append(audit_disk(side.disk)[0].corrupt)
    elif kind == "sidecar":
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            key, blob = synopsis._read_verified_blob(side.disk, NAME)
        assert key == tuple(raw_crc(image) for image in pages)
        side.seen.append((key, blob))


KINDS = ("append", "rewrite", "bitflip", "torn", "assign", "to_bytearray",
         "poke", "truncate", "pool", "trace", "warm", "audit", "sidecar")
ops = st.lists(
    st.tuples(st.sampled_from(KINDS), st.integers(0, 63),
              st.binary(max_size=48)),
    max_size=30)


def _start(side, model=None):
    for i in range(4):
        apply(("append", 0, bytes([i + 1]) * (16 + i)), side, model)


@given(ops=ops)
def test_verify_cache_verdicts_match_raw_crc(ops):
    reference = Side(raw=True)
    _start(reference)
    for op in ops:
        apply(op, reference)

    side, model = Side(raw=False), Model()
    calls = []
    hashed = []
    real_checksum = disk_module.page_checksum

    def counting_checksum(payload):
        hashed.append(1)
        return real_checksum(payload)

    real_verify = side.disk.verify_page

    def checked_verify(name, page_no, payload=None):
        image = side.pages[page_no] if payload is None else payload
        before = len(hashed)
        verdict = real_verify(name, page_no, payload)
        calls.append(len(hashed) - before
                     == model.hashes_expected(page_no, image))
        assert verdict == (raw_crc(image)
                           == side.disk.expected_checksum(name, page_no))
        return verdict

    side.disk.verify_page = checked_verify
    with mock.patch.object(disk_module, "page_checksum", counting_checksum):
        _start(side, model)
        for op in ops:
            apply(op, side, model)
        assert all(calls), "a CRC was computed when it was not needed, " \
            "or skipped when it was"
        assert side.seen == reference.seen
        assert side.disk.stats.snapshot() == reference.disk.stats.snapshot()
        assert side.disk.quarantined_pages() \
            == reference.disk.quarantined_pages()

        # a second pass hashes exactly the pages no write stored as-is:
        # none when nothing changed them behind the disk's back
        audit_disk(side.disk)
        before = len(hashed)
        audit_disk(side.disk)
        foreign = sum(model.hashes_expected(page_no, image)
                      for page_no, image in enumerate(side.pages))
        assert len(hashed) - before == foreign


def test_verify_cache_hashes_only_what_no_write_stored():
    side = Side(raw=False)
    _start(side)
    side.disk.fault_injector = None
    with mock.patch.object(disk_module, "page_checksum",
                           wraps=disk_module.page_checksum) as crc:
        audit_disk(side.disk)
        side.pool.warm(NAME)
        assert crc.call_count == 0  # every image is the one written

        # equal bytes, new object
        side.pages[1] = bytes(bytearray(side.pages[1]))
        side.pages[2] = bytearray(side.pages[2])
        side.pool.clear()
        for _ in range(3):
            side.pool.read_page(NAME, 1)
            side.pool.read_page(NAME, 2)
            side.pool.clear()
        # the replaced image and the bytearray are hashed on every read
        assert crc.call_count == 6

        side.pages[3] = b"garbage"
        crc.reset_mock()
        try:
            side.pool.read_page(NAME, 3)
        except ChecksumError:
            pass
        # every attempt of the retry loop hashes the corrupt image again
        assert crc.call_count == side.disk.stats.checksum_failures \
            == MAX_READ_RETRIES + 1
