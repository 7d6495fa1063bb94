"""Disk scrubber: audit page checksums, repair from redundant projections.

``python -m repro.scrub`` walks every file on the column store's
simulated disk, verifies each page against the CRC recorded at write
time, and — unless ``--no-repair`` is given — rebuilds corrupt pages
from a redundant projection of the same table.

Repair works because every projection of a table is loaded with the
same sort keys (see ``CStore.load_table``): projections at different
compression levels share one position space, so the value range a
corrupt block covers can be re-fetched from any sibling projection that
has the column, converted back to the victim's stored domain
(dictionary codes ↔ expanded strings), and re-encoded.  The encoder is
deterministic, so a correct repair reproduces the original page bytes —
verified against the stored CRC before the page is rewritten.  Pages
with no intact donor are reported as unrepairable.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from .errors import ReproError, ScrubError
from .simio.disk import PAGE_SIZE, SimulatedDisk, page_checksum
from .storage.colfile import (
    _PAGE_HEADER_BYTES,
    ColumnFile,
    CompressionLevel,
)
from .storage.encodings import decode_payload
from .storage.encodings.plain import PLAIN
from .storage.projection import Projection
from .synopsis import (
    MIN_SIDECAR_BLOCKS,
    SIDECAR_SUFFIX,
    ColumnSynopsisBuilder,
    is_sidecar,
    sidecar_name,
    split_stamp,
    stamp_blob,
)


@dataclass
class FileHealth:
    """Checksum audit outcome for one disk file."""

    name: str
    num_pages: int
    corrupt: List[int] = field(default_factory=list)
    repaired: List[int] = field(default_factory=list)
    unrepairable: List[int] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.corrupt


@dataclass
class ScrubReport:
    """Full-disk audit (and repair) outcome."""

    files: List[FileHealth]
    #: zone-map sidecars rewritten because they no longer matched their
    #: (healthy) data file — a repaired page must never ride with a
    #: stale synopsis
    stale_synopses: int = 0
    #: sidecars whose write-epoch stamp trails the store's pending write
    #: epoch — legitimately behind a delta the tuple mover has not yet
    #: merged, NOT drift: their payload still matches the base pages
    behind_delta: int = 0

    @property
    def corrupt_pages(self) -> int:
        return sum(len(f.corrupt) for f in self.files)

    @property
    def repaired_pages(self) -> int:
        return sum(len(f.repaired) for f in self.files)

    @property
    def unrepairable_pages(self) -> int:
        return sum(len(f.unrepairable) for f in self.files)

    @property
    def clean(self) -> bool:
        return self.corrupt_pages == 0

    def render(self) -> str:
        lines = [f"scrubbed {len(self.files)} file(s): "
                 f"{self.corrupt_pages} corrupt page(s), "
                 f"{self.repaired_pages} repaired, "
                 f"{self.unrepairable_pages} unrepairable"]
        for f in self.files:
            if f.clean:
                continue
            status = []
            if f.repaired:
                status.append(f"repaired {f.repaired}")
            if f.unrepairable:
                status.append(f"UNREPAIRABLE {f.unrepairable}")
            lines.append(f"  {f.name} ({f.num_pages} page(s)): "
                         f"corrupt {f.corrupt} -> " + ", ".join(status))
        if self.stale_synopses:
            lines.append(f"  rebuilt {self.stale_synopses} stale "
                         f"synopsis sidecar(s)")
        if self.behind_delta:
            lines.append(f"  {self.behind_delta} sidecar(s) legitimately "
                         f"behind a pending delta (run the tuple mover)")
        if self.clean:
            lines.append("  all page checksums verify")
        return "\n".join(lines)


def audit_disk(disk: SimulatedDisk) -> List[FileHealth]:
    """CRC-check every page of every file (no repair, no ledger charge)."""
    report: List[FileHealth] = []
    for name in disk.files():
        f = disk.file(name)
        health = FileHealth(name=name, num_pages=f.num_pages)
        for page_no in range(f.num_pages):
            if not disk.verify_page(name, page_no):
                health.corrupt.append(page_no)
        report.append(health)
    return report


# --------------------------------------------------------------------- #
# repair
# --------------------------------------------------------------------- #
def _donors(store, victim: Projection, column: str) -> List[Projection]:
    """Sibling projections that can serve the victim's position space."""
    donors: List[Projection] = []
    for candidates in store._projections.values():
        for p in candidates:
            if (p.table_name == victim.table_name
                    and p.name != victim.name
                    and p.sort_order.keys == victim.sort_order.keys
                    and p.has_column(column)):
                donors.append(p)
    return donors


def _to_victim_domain(values: np.ndarray, donor_cf: ColumnFile,
                      victim_cf: ColumnFile) -> np.ndarray:
    """Convert fetched donor values into the victim's stored domain."""
    if victim_cf.dictionary is not None:
        if donor_cf.dictionary is not None:
            # both store codes over the same table-level dictionary
            return values.astype(np.int32)
        # donor stores expanded fixed-width bytes -> re-encode to codes
        strings = [v.decode("ascii").rstrip("\x00") for v in values]
        return victim_cf.dictionary.encode(strings)
    if donor_cf.dictionary is not None:
        # victim stores expanded bytes, donor stores codes -> expand
        expanded = np.asarray(donor_cf.dictionary.strings,
                              dtype=victim_cf.dtype)
        return expanded[values]
    return values.astype(victim_cf.dtype)


def _encode_page(chunk: np.ndarray, level: CompressionLevel) -> bytes:
    """Re-encode one block exactly as ``ColumnFile.load`` wrote it."""
    if len(chunk) == 0:
        framed = PLAIN.frame(chunk)
    else:
        framed = ColumnFile._codec_for(chunk, level).frame(chunk)
    return len(chunk).to_bytes(_PAGE_HEADER_BYTES, "little") + framed


def _sidecar_blob(disk: SimulatedDisk, data_name: str) -> Optional[bytes]:
    """Deterministically rebuild a column file's synopsis blob by decoding
    its (verified) data pages and re-running the write-time builder."""
    builder = ColumnSynopsisBuilder()
    for payload in disk.file(data_name).pages:
        data = decode_payload(payload[_PAGE_HEADER_BYTES:])
        if len(data):
            builder.add_block(data)
    # same gate as the write path: single-block files carry no sidecar
    if builder.num_blocks < MIN_SIDECAR_BLOCKS:
        return None
    return builder.blob()


def _repair_sidecar(store, file_name: str, page_no: int) -> bool:
    """Rebuild one corrupt zone-map sidecar page from its data file.

    Requires every data page to verify first (the fixpoint loop in
    :func:`scrub_store` repairs data before retrying sidecars), so a
    repaired data page can never ride with a stale zone map."""
    disk: SimulatedDisk = store.disk
    data_name = file_name[:-len(SIDECAR_SUFFIX)]
    if not disk.exists(data_name):
        return False
    data = disk.file(data_name)
    if any(not disk.verify_page(data_name, p)
           for p in range(data.num_pages)):
        return False
    try:
        blob = _sidecar_blob(disk, data_name)
    except ReproError:
        return False
    if blob is None:
        return False
    # moved stores stamp their sidecars with the merged write epoch; the
    # deterministic rebuild must carry the same trailer to reproduce the
    # original page bytes
    blob = stamp_blob(blob, getattr(store, "_zm_epoch", 0))
    payload = blob[page_no * PAGE_SIZE:(page_no + 1) * PAGE_SIZE]
    if page_checksum(payload) != disk.expected_checksum(file_name, page_no):
        return False
    disk.rewrite_page(file_name, page_no, payload, charge=True)
    disk.unquarantine(file_name, page_no)
    store.pool.invalidate(file_name)
    return True


def repair_page(store, file_name: str, page_no: int) -> bool:
    """Rebuild one corrupt column-file page from a sibling projection.

    Returns True when the page was rewritten byte-identically (checked
    against the stored CRC); False when no intact donor could serve it.
    Zone-map sidecars are rebuilt from their own data file instead.
    """
    disk: SimulatedDisk = store.disk
    if is_sidecar(file_name):
        return _repair_sidecar(store, file_name, page_no)
    owner = store.find_owner(file_name)
    if owner is None:
        return False
    victim, column = owner
    victim_cf = victim.column_file(column)
    starts = victim_cf.block_starts
    if page_no >= len(starts):
        return False
    start = int(starts[page_no])
    end = (int(starts[page_no + 1]) if page_no + 1 < len(starts)
           else victim_cf.num_values)
    for donor in _donors(store, victim, column):
        donor_cf = donor.column_file(column)
        try:
            if end > start:
                fetched = donor_cf.fetch(
                    store.pool, np.arange(start, end, dtype=np.int64))
            else:
                fetched = np.zeros(0, dtype=donor_cf.dtype)
            chunk = _to_victim_domain(fetched, donor_cf, victim_cf)
        except ReproError:
            continue  # donor is damaged too; try the next one
        payload = _encode_page(chunk, victim_cf.level)
        if page_checksum(payload) != disk.expected_checksum(file_name,
                                                            page_no):
            # donor data does not reproduce the original page bytes —
            # treat as unusable rather than install a guess
            continue
        disk.rewrite_page(file_name, page_no, payload, charge=True)
        disk.unquarantine(file_name, page_no)
        store.pool.invalidate(file_name)
        return True
    return False


def scrub_store(store, repair: bool = True) -> ScrubReport:
    """Audit (and optionally repair) every file on a column store's disk.

    ``store`` is a :class:`~repro.colstore.engine.CStore`; files that no
    projection owns (e.g. row-MV blobs) are audited but never repairable.
    """
    files = audit_disk(store.disk)
    if not repair:
        for health in files:
            health.unrepairable = list(health.corrupt)
        return ScrubReport(files=files)
    # iterate to a fixpoint: a page can become repairable only after a
    # donor page that covers the same positions was itself repaired
    pending = [(h, p) for h in files for p in h.corrupt]
    while pending:
        progress = False
        still: List[Tuple[FileHealth, int]] = []
        for health, page_no in pending:
            if repair_page(store, health.name, page_no):
                health.repaired.append(page_no)
                progress = True
            else:
                still.append((health, page_no))
        if not progress:
            for health, page_no in still:
                health.unrepairable.append(page_no)
            break
        pending = still
    rebuilt, behind = _rebuild_stale_synopses(store)
    return ScrubReport(files=files, stale_synopses=rebuilt,
                       behind_delta=behind)


def _rebuild_stale_synopses(store) -> Tuple[int, int]:
    """Verify every healthy data file's sidecar still matches a fresh
    rebuild; rewrite any that drifted.  Belt-and-braces: page repairs
    are byte-identical, so drift normally cannot happen — but a repaired
    page must never ride with a stale zone map.

    Sidecars carry a write-epoch stamp (see ``repro.synopsis``); the
    comparison strips it, so a sidecar that merely trails the store's
    pending writes is counted as *behind the delta* (second return
    value) rather than misdiagnosed as drifted — base pages do not
    change until the tuple mover runs, so its payload is still exact.
    """
    disk: SimulatedDisk = store.disk
    rebuilt = 0
    behind = 0
    pending_epoch = 0
    if getattr(store, "pending_writes", None) and store.pending_writes():
        pending_epoch = store.write_epoch
    for data_name in disk.files():
        if is_sidecar(data_name):
            continue
        zm_name = sidecar_name(data_name)
        if not disk.exists(zm_name):
            continue
        zm = disk.file(zm_name)
        data = disk.file(data_name)
        # only compare when both sides verify; corrupt pages were already
        # handled (or reported unrepairable) by the repair loop
        if any(not disk.verify_page(data_name, p)
               for p in range(data.num_pages)):
            continue
        if any(not disk.verify_page(zm_name, p)
               for p in range(zm.num_pages)):
            continue
        try:
            blob = _sidecar_blob(disk, data_name)
        except ReproError:
            continue
        expected = blob if blob is not None else b""
        stored, stamp = split_stamp(b"".join(zm.pages))
        if pending_epoch and stamp < pending_epoch:
            behind += 1
        if stored == expected:
            continue
        # genuine drift: rewrite the payload, preserving the stamp
        want_blob = stamp_blob(expected, stamp)
        for page_no in range(zm.num_pages):
            want = want_blob[page_no * PAGE_SIZE:(page_no + 1) * PAGE_SIZE]
            if zm.pages[page_no] != want:
                disk.rewrite_page(zm_name, page_no, want, charge=True)
        store.pool.invalidate(zm_name)
        rebuilt += 1
    return rebuilt, behind


# --------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------- #
def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.scrub",
        description="Audit page checksums on the column store's simulated "
                    "disk and repair corrupt pages from redundant "
                    "projections.",
    )
    parser.add_argument("--sf", type=float, default=None,
                        help="scale factor (default: REPRO_SF env or 0.05)")
    parser.add_argument("--fault-profile", default=None,
                        help="corrupt the disk first with this seeded "
                             "fault profile (transient|bitflip|torn|mixed)")
    parser.add_argument("--fault-seed", type=int, default=0,
                        help="seed for --fault-profile (default 0)")
    parser.add_argument("--no-repair", action="store_true",
                        help="audit only; report corrupt pages without "
                             "rewriting anything")
    args = parser.parse_args(argv)

    from .colstore.engine import CStore
    from .ssb.cache import load_or_generate, scale_factor_from_env

    scale_factor = args.sf if args.sf is not None else scale_factor_from_env()
    store = CStore(load_or_generate(scale_factor))
    print(f"scale factor {scale_factor}, "
          f"{len(store.disk.files())} file(s) on disk")
    if args.fault_profile:
        from .simio.faults import injector_from_profile

        injector = injector_from_profile(args.fault_profile,
                                         args.fault_seed)
        log = injector.install(store.disk)
        print(f"fault profile {args.fault_profile!r} seed "
              f"{args.fault_seed}: corrupted {len(log)} page(s)")

    report = scrub_store(store, repair=not args.no_repair)
    print(report.render())
    return 0 if report.unrepairable_pages == 0 else 1


if __name__ == "__main__":
    sys.exit(main())


#: Public alias: cold-start recovery (``repro.write.recovery``) reuses
#: the scrubber's stale-synopsis pass to re-derive zone-map sidecars
#: whose epoch stamp trails the recovered epoch.
rebuild_stale_synopses = _rebuild_stale_synopses


__all__ = ["FileHealth", "ScrubReport", "audit_disk", "repair_page",
           "scrub_store", "rebuild_stale_synopses", "main", "ScrubError"]
