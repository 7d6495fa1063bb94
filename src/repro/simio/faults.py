"""Deterministic fault injection for the simulated disk.

A :class:`FaultInjector` models three hardware failure modes:

* **transient read errors** — a read attempt raises
  :class:`~repro.errors.TransientIOError`; the same page succeeds after a
  bounded number of retries (the buffer pool's retry/backoff loop pays
  for the re-reads on the ledger);
* **single-bit corruption** — one bit of a stored page image is flipped
  in place.  The per-page CRC kept by :class:`SimulatedDisk` detects it
  (CRC32 catches every single-bit error), the page is quarantined, and
  the engines recover from a redundant projection or fail typed;
* **torn pages** — the tail half of a stored page is replaced with
  zeroes, modelling a write that only half completed.

Every decision is a pure function of ``(seed, kind, file, page)`` via a
keyed hash, so a fault schedule is exactly reproducible from its seed —
regardless of the order pages are touched, the number of worker threads,
or which queries run first.  Persistent corruption is applied to the
stored page images at :meth:`FaultInjector.install` time; the checksum
map is deliberately left alone (a real CRC would have been written when
the page was, before the fault happened).
"""

from __future__ import annotations

import fnmatch
import hashlib
import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import SimulatedCrashError, StorageError

#: What :meth:`FaultInjector.install` returns: (file, page, fault kind).
CorruptionLog = List[Tuple[str, int, str]]

#: The six kill points the write path exposes (see ``docs/writes.md``,
#: "Crash recovery").  Each sits on one side of a durability boundary:
#: the journal-append pair brackets the only I/O that makes a batch
#: durable, the move trio brackets the shadow rebuild and the
#: epoch-stamped move record that commits a swap, and the last sits
#: between a move's checkpoint and the journal-prefix drop it allows.
CRASH_BEFORE_JOURNAL_APPEND = "crash:before-journal-append"
CRASH_AFTER_JOURNAL_APPEND = "crash:after-journal-append"
CRASH_MID_MOVE_SHADOW = "crash:mid-move-shadow"
CRASH_BEFORE_MOVE_SWAP = "crash:before-move-swap"
CRASH_AFTER_MOVE_SWAP = "crash:after-move-swap"
CRASH_BEFORE_JOURNAL_TRUNCATE = "crash:before-journal-truncate"
CRASH_POINTS: Tuple[str, ...] = (
    CRASH_BEFORE_JOURNAL_APPEND,
    CRASH_AFTER_JOURNAL_APPEND,
    CRASH_MID_MOVE_SHADOW,
    CRASH_BEFORE_MOVE_SWAP,
    CRASH_AFTER_MOVE_SWAP,
    CRASH_BEFORE_JOURNAL_TRUNCATE,
)


def _unit(seed: int, kind: str, name: str, page_no: int) -> float:
    """A deterministic uniform [0, 1) draw keyed on all four inputs."""
    digest = hashlib.blake2b(
        f"{seed}:{kind}:{name}:{page_no}".encode(), digest_size=8
    ).digest()
    return int.from_bytes(digest, "little") / 2.0 ** 64


@dataclass(frozen=True)
class FaultPolicy:
    """One rule of a fault schedule, scoped by file glob and page range.

    Rates are per-page probabilities.  ``max_transient_failures`` bounds
    how many consecutive attempts on an afflicted page fail before it
    reads cleanly (each afflicted page draws its own count in
    ``[1, max_transient_failures]``).
    """

    file_glob: str = "*"
    page_lo: int = 0
    page_hi: Optional[int] = None  # exclusive; None = unbounded
    transient_rate: float = 0.0
    max_transient_failures: int = 2
    bitflip_rate: float = 0.0
    torn_rate: float = 0.0
    #: per-page probability that an ``append_page`` *write* fails
    #: transiently (journal appends, tuple-mover page rewrites); the
    #: write path retries with bounded backoff like the read path
    write_fail_rate: float = 0.0
    #: bound on consecutive failed write attempts per afflicted page
    max_write_failures: int = 2

    def applies_to(self, name: str, page_no: int) -> bool:
        if not fnmatch.fnmatchcase(name, self.file_glob):
            return False
        if page_no < self.page_lo:
            return False
        return self.page_hi is None or page_no < self.page_hi


@dataclass(frozen=True)
class CrashPolicy:
    """Arm one kill point: the process "dies" the ``at``-th time the
    write path passes it.

    ``at=None`` draws the arrival deterministically from the injector's
    seed in ``[1, max_at]`` — the seeded schedule the chaos soak uses so
    different seeds kill different batches, reproducibly.  A policy
    fires exactly once; recovery re-running the same code path does not
    re-trip it.
    """

    point: str
    at: Optional[int] = 1
    max_at: int = 3

    def __post_init__(self) -> None:
        if self.point not in CRASH_POINTS:
            raise StorageError(
                f"unknown crash point {self.point!r}; choices are "
                f"{list(CRASH_POINTS)}"
            )
        if self.at is not None and self.at < 1:
            raise StorageError(f"CrashPolicy.at must be >= 1, got {self.at}")
        if self.max_at < 1:
            raise StorageError(
                f"CrashPolicy.max_at must be >= 1, got {self.max_at}"
            )

    def resolved_at(self, seed: int) -> int:
        """The arrival count this policy fires on (seed-drawn when
        ``at`` is None)."""
        if self.at is not None:
            return self.at
        return 1 + int(_unit(seed, "crash-at", self.point, 0) * self.max_at)


def crash_point(injector, point: str) -> None:
    """The write path's kill switch: raise
    :class:`~repro.errors.SimulatedCrashError` if ``injector`` has an
    armed :class:`CrashPolicy` due at this arrival.

    ``injector`` may be ``None`` (a perfect disk) or any object without
    crash support — both are free no-ops, so read paths and crash-free
    write runs are untouched by the existence of this hook.
    """
    if injector is None:
        return
    take = getattr(injector, "take_crash", None)
    if take is not None and take(point):
        raise SimulatedCrashError(point)


class FaultInjector:
    """A seeded, policy-driven fault schedule over one simulated disk.

    Install with :meth:`install`; uninstall by setting the disk's
    ``fault_injector`` back to ``None``.  Thread-safe: one injector may
    serve several disks (an engine's data and journal disks, the shadow
    stack a move builds, or disks of several engines it was installed
    on), and a :class:`~repro.serve.QueryService` runs different
    engines' work on concurrent client threads, so every fault check
    updates the shared per-page budgets under the lock.
    """

    def __init__(self, seed: int = 0,
                 policies: Sequence[FaultPolicy] = (),
                 crashes: Sequence[CrashPolicy] = ()) -> None:
        self.seed = seed
        self.policies: Tuple[FaultPolicy, ...] = tuple(policies)
        self.crashes: Tuple[CrashPolicy, ...] = tuple(crashes)
        self.corrupted: CorruptionLog = []
        self._lock = threading.Lock()
        self._transient_taken: Dict[Tuple[str, int], int] = {}
        self._write_taken: Dict[Tuple[str, int], int] = {}
        #: arrivals seen per crash point / points already fired
        self._crash_hits: Dict[str, int] = {}
        self._crash_fired: set = set()

    # ------------------------------------------------------------------ #
    # transient errors (consumed by the read path)
    # ------------------------------------------------------------------ #
    def transient_budget(self, name: str, page_no: int) -> int:
        """How many reads of this page fail before one succeeds."""
        budget = 0
        for policy in self.policies:
            if not policy.transient_rate or not policy.applies_to(name,
                                                                  page_no):
                continue
            draw = _unit(self.seed, f"transient/{policy.file_glob}",
                         name, page_no)
            if draw >= policy.transient_rate:
                continue
            count = 1 + int(
                _unit(self.seed, "transient-count", name, page_no)
                * policy.max_transient_failures
            )
            budget = max(budget, min(count, policy.max_transient_failures))
        return budget

    def take_transient(self, name: str, page_no: int) -> bool:
        """Consume one transient failure for this page if any remain."""
        budget = self.transient_budget(name, page_no)
        if budget == 0:
            return False
        key = (name, page_no)
        with self._lock:
            used = self._transient_taken.get(key, 0)
            if used >= budget:
                return False
            self._transient_taken[key] = used + 1
            return True

    def reset_transients(self) -> None:
        """Re-arm every transient failure (e.g. between experiments)."""
        with self._lock:
            self._transient_taken.clear()
            self._write_taken.clear()

    # ------------------------------------------------------------------ #
    # crash points (consumed by the write path via :func:`crash_point`)
    # ------------------------------------------------------------------ #
    def take_crash(self, point: str) -> bool:
        """Count one arrival at ``point``; True exactly when an armed
        policy's resolved arrival is reached (each policy fires once)."""
        if not self.crashes:
            return False
        with self._lock:
            hits = self._crash_hits.get(point, 0) + 1
            self._crash_hits[point] = hits
            for policy in self.crashes:
                if policy.point != point or policy in self._crash_fired:
                    continue
                if hits == policy.resolved_at(self.seed):
                    self._crash_fired.add(policy)
                    return True
        return False

    def crash_pending(self) -> bool:
        """Any armed crash policy that has not fired yet?"""
        with self._lock:
            return any(p not in self._crash_fired for p in self.crashes)

    # ------------------------------------------------------------------ #
    # write faults (consumed by the append path: journal, tuple mover)
    # ------------------------------------------------------------------ #
    def write_budget(self, name: str, page_no: int) -> int:
        """How many appends of this page fail before one succeeds."""
        budget = 0
        for policy in self.policies:
            if not policy.write_fail_rate or not policy.applies_to(name,
                                                                   page_no):
                continue
            draw = _unit(self.seed, f"write/{policy.file_glob}",
                         name, page_no)
            if draw >= policy.write_fail_rate:
                continue
            count = 1 + int(
                _unit(self.seed, "write-count", name, page_no)
                * policy.max_write_failures
            )
            budget = max(budget, min(count, policy.max_write_failures))
        return budget

    def take_write_fault(self, name: str, page_no: int) -> bool:
        """Consume one write failure for this page if any remain."""
        budget = self.write_budget(name, page_no)
        if budget == 0:
            return False
        key = (name, page_no)
        with self._lock:
            used = self._write_taken.get(key, 0)
            if used >= budget:
                return False
            self._write_taken[key] = used + 1
            return True

    # ------------------------------------------------------------------ #
    # persistent corruption (applied once to the stored images)
    # ------------------------------------------------------------------ #
    def _persistent_kind(self, name: str, page_no: int) -> Optional[str]:
        for policy in self.policies:
            if not policy.applies_to(name, page_no):
                continue
            if policy.bitflip_rate and _unit(
                    self.seed, f"bitflip/{policy.file_glob}", name,
                    page_no) < policy.bitflip_rate:
                return "bitflip"
            if policy.torn_rate and _unit(
                    self.seed, f"torn/{policy.file_glob}", name,
                    page_no) < policy.torn_rate:
                return "torn"
        return None

    def _mutate(self, payload: bytes, kind: str, name: str,
                page_no: int) -> bytes:
        if kind == "bitflip":
            bit = int(_unit(self.seed, "bit-position", name, page_no)
                      * len(payload) * 8)
            mutated = bytearray(payload)
            mutated[bit // 8] ^= 1 << (bit % 8)
            return bytes(mutated)
        half = len(payload) // 2
        return payload[:half] + b"\x00" * (len(payload) - half)

    def corrupt_disk(self, disk) -> CorruptionLog:
        """Apply the persistent-corruption schedule to ``disk``'s stored
        page images (checksum map untouched) and return what was hit."""
        log: CorruptionLog = []
        for name in disk.files():
            f = disk.file(name)
            for page_no, payload in enumerate(f.pages):
                if not payload:
                    continue
                kind = self._persistent_kind(name, page_no)
                if kind is None:
                    continue
                f.pages[page_no] = self._mutate(payload, kind, name, page_no)
                log.append((name, page_no, kind))
        self.corrupted.extend(log)
        return log

    def install(self, disk) -> CorruptionLog:
        """Corrupt ``disk`` per the schedule and hook transient faults
        into its read path.  Returns the corruption log."""
        log = self.corrupt_disk(disk)
        disk.fault_injector = self
        return log


#: Named fault schedules for the bench/scrub ``--fault-profile`` flag.
PROFILES: Dict[str, Tuple[FaultPolicy, ...]] = {
    "transient": (FaultPolicy(transient_rate=0.10,
                              max_transient_failures=2),),
    "bitflip": (FaultPolicy(bitflip_rate=0.02),),
    "torn": (FaultPolicy(torn_rate=0.02),),
    "mixed": (FaultPolicy(transient_rate=0.05, bitflip_rate=0.01,
                          torn_rate=0.01),),
    # a localized dead region that never heals: every page but the first
    # of each discount column is corrupt — the sustained-fault scenario
    # the service's circuit breakers are built for
    "persistent": (FaultPolicy(file_glob="*.discount", page_lo=1,
                               bitflip_rate=1.0),),
}

#: One-line description per profile (``--fault-profile list``).
PROFILE_NOTES: Dict[str, str] = {
    "transient": "10% of pages fail 1-2 reads, then heal (retry path)",
    "bitflip": "2% of pages get one flipped bit (CRC catches, quarantine)",
    "torn": "2% of pages lose their tail half (torn-write model)",
    "mixed": "5% transient + 1% bitflip + 1% torn, all at once",
    "persistent": "every *.discount page past the first is corrupt, "
                  "forever (breaker/degraded-serving scenario)",
}


def injector_from_profile(profile: str, seed: int = 0) -> FaultInjector:
    """Build an injector from a named profile (see :data:`PROFILES`)."""
    try:
        policies = PROFILES[profile]
    except KeyError:
        raise StorageError(
            f"unknown fault profile {profile!r}; choices are "
            f"{sorted(PROFILES)}"
        ) from None
    return FaultInjector(seed=seed, policies=policies)


#: Named crash schedules for the ``--crash-profile`` flag (verifier and
#: recovery bench).  Each maps to the kill points it arms; the arrival is
#: seed-drawn (``at=None``) so different seeds kill different batches.
CRASH_PROFILES: Dict[str, Tuple[str, ...]] = {
    "journal": (CRASH_BEFORE_JOURNAL_APPEND, CRASH_AFTER_JOURNAL_APPEND),
    "move": (CRASH_MID_MOVE_SHADOW, CRASH_BEFORE_MOVE_SWAP,
             CRASH_AFTER_MOVE_SWAP, CRASH_BEFORE_JOURNAL_TRUNCATE),
    "all": CRASH_POINTS,
}

#: One-line description per crash profile (``--crash-profile list``).
CRASH_PROFILE_NOTES: Dict[str, str] = {
    "journal": "kill on either side of a journal append (torn-tail model)",
    "move": "kill mid-shadow-build, around the move-commit record, or "
            "between the checkpoint and the journal-prefix drop",
    "all": "every kill point the write path exposes, one run each",
}


def crash_policies_from_profile(profile: str, seed: int = 0,
                                max_at: int = 3) -> Tuple[CrashPolicy, ...]:
    """The seed-drawn :class:`CrashPolicy` set for a named crash profile
    (see :data:`CRASH_PROFILES`)."""
    try:
        points = CRASH_PROFILES[profile]
    except KeyError:
        raise StorageError(
            f"unknown crash profile {profile!r}; choices are "
            f"{sorted(CRASH_PROFILES)}"
        ) from None
    del seed  # the draw happens at resolve time, from the injector's seed
    return tuple(CrashPolicy(point, at=None, max_at=max_at)
                 for point in points)


__all__ = ["FaultPolicy", "FaultInjector", "PROFILES", "PROFILE_NOTES",
           "injector_from_profile",
           "CrashPolicy", "crash_point", "crash_policies_from_profile",
           "CRASH_POINTS", "CRASH_PROFILES", "CRASH_PROFILE_NOTES",
           "CRASH_BEFORE_JOURNAL_APPEND", "CRASH_AFTER_JOURNAL_APPEND",
           "CRASH_MID_MOVE_SHADOW", "CRASH_BEFORE_MOVE_SWAP",
           "CRASH_AFTER_MOVE_SWAP", "CRASH_BEFORE_JOURNAL_TRUNCATE"]
