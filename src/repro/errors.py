"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch one type at an API boundary.  Subclasses are grouped by
subsystem; they carry enough context in their message to be actionable
without a debugger.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class SchemaError(ReproError):
    """A schema is malformed or a referenced column/table does not exist."""


class TypeMismatchError(SchemaError):
    """A value or array does not match the declared column type."""


class StorageError(ReproError):
    """Low-level storage failure (page format, heap file, column file)."""


class PageFormatError(StorageError):
    """A slotted page is corrupt or an offset is out of bounds."""


class ChecksumError(StorageError):
    """A page image failed CRC verification on its way out of the disk.

    Carries the file, page number, and stripe disk so callers can decide
    whether a redundant copy exists (``file``/``page_no``/``disk_no``).
    """

    def __init__(self, file: str, page_no: int, disk_no: int,
                 detail: str = "") -> None:
        message = (f"checksum mismatch on {file!r} page {page_no} "
                   f"(stripe disk {disk_no})")
        if detail:
            message += f": {detail}"
        super().__init__(message)
        self.file = file
        self.page_no = page_no
        self.disk_no = disk_no


class TransientIOError(StorageError):
    """A page read failed transiently; retrying may succeed."""

    def __init__(self, file: str, page_no: int) -> None:
        super().__init__(f"transient read error on {file!r} page {page_no}")
        self.file = file
        self.page_no = page_no


class CorruptPageError(StorageError):
    """A page is persistently corrupt and no redundant copy could serve it.

    This is the structured, *final* verdict the engines raise instead of
    ever returning a silently wrong answer: it names the file, the page,
    and the stripe disk the page lives on.
    """

    def __init__(self, file: str, page_no: int, disk_no: int,
                 detail: str = "") -> None:
        message = (f"corrupt page {page_no} of {file!r} "
                   f"(stripe disk {disk_no})")
        if detail:
            message += f": {detail}"
        super().__init__(message)
        self.file = file
        self.page_no = page_no
        self.disk_no = disk_no


class ScrubError(StorageError):
    """The scrubber was misconfigured or could not complete an audit."""


class EncodingError(StorageError):
    """A compression codec cannot encode/decode the given data."""


class PlanError(ReproError):
    """A logical query cannot be lowered to a physical plan."""


class UnsupportedQueryError(PlanError):
    """The query uses a feature the engine (or SQL subset) does not support."""


class ExecutionError(ReproError):
    """A physical operator failed at run time."""


class SqlError(ReproError):
    """Base class for SQL frontend errors."""


class SqlLexError(SqlError):
    """The SQL text contains a character sequence that cannot be tokenized."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class SqlParseError(SqlError):
    """The SQL token stream does not match the supported grammar."""


class SqlBindError(SqlError):
    """A SQL identifier does not resolve against the catalog."""


class BenchmarkError(ReproError):
    """The benchmark harness was misconfigured or a run failed."""


class ServeError(ReproError):
    """Base class for errors raised by the :mod:`repro.serve` layer."""


#: Backwards-compatible alias — the serve layer's base error was named
#: ``ServiceError`` before the resilience work regrouped the family.
ServiceError = ServeError


class AdmissionError(ServeError):
    """A query was refused admission: the queue is full, the queue wait
    timed out, or the service is draining/closed.  The query never ran."""


class DeadlineError(ServeError):
    """A query's deadline expired before the service could start it."""


class ShedError(ServeError):
    """A query was shed by the brownout policy: the service is over its
    latency threshold and the query's priority was low enough to drop.
    The query never ran; retrying later (or at a higher priority) is
    legitimate."""


class QueryCancelledError(ServeError):
    """A query was cooperatively cancelled mid-execution.

    Raised at a page access by the cancellation token the
    service propagates into engine execution — when the query's wall
    deadline passed, its simulated-seconds budget ran out, or the token
    was cancelled explicitly.  The partial ledger up to the cancellation
    point is preserved and still verifies."""

    def __init__(self, reason: str) -> None:
        super().__init__(f"query cancelled: {reason}")
        self.reason = reason


class BreakerOpenError(ServeError):
    """The circuit breaker for this query's (engine, table) scope is
    open after repeated storage failures, and the query could not be
    served degraded from the cache.  Carries the scope so clients can
    route around it."""

    def __init__(self, scope, detail: str = "") -> None:
        message = f"circuit breaker open for scope {scope!r}"
        if detail:
            message += f": {detail}"
        super().__init__(message)
        self.scope = scope


class WriteError(ReproError):
    """Base class for errors raised by the :mod:`repro.write` layer."""


class IntegrityError(WriteError):
    """A write violates schema or foreign-key integrity.

    Raised before anything is journaled or buffered: a rejected write
    leaves the write store exactly as it was.
    """


class SnapshotTooOldError(WriteError):
    """A pinned read epoch predates the tuple mover's merge horizon.

    Once the mover drains the WOS into new base pages, epochs older than
    the merge horizon can no longer be reconstructed; readers must pin a
    fresh epoch and retry.
    """


class WriteFaultError(StorageError):
    """A journal or base-page write failed after exhausting its retries.

    The write path is all-or-nothing: on this error the read store (and
    for a failed tuple move, the old epoch) is untouched and still
    serves correct rows.
    """


class WriteContentionError(WriteError):
    """A second writer raced into the write store mid-batch.

    Batch application is not re-entrant: the journal append and the
    buffer mutation of one batch must complete before the next begins,
    or the journal order would no longer describe the buffer state.
    Callers (the query service serializes DML explicitly) should retry
    after the in-flight batch finishes; nothing was journaled or
    buffered for the refused batch.
    """


class SimulatedCrashError(ReproError):
    """A seeded crash point fired: the simulated process dies here.

    Raised by :func:`repro.simio.faults.crash_point` when an armed
    :class:`~repro.simio.faults.CrashPolicy` matches.  The crash/restart
    harness (:mod:`repro.write.recovery`) catches it, discards every
    in-memory structure, and re-opens the database from simulated disk
    alone — anything not yet durable in the redo journal is gone, which
    is exactly the contract recovery is tested against.  Carries the
    crash point name in ``point``.
    """

    def __init__(self, point: str) -> None:
        super().__init__(f"simulated crash at {point!r}")
        self.point = point


class JournalTornError(WriteError):
    """Cold-start replay found a *committed* journal record missing.

    A torn tail of unacknowledged records is normal after a crash and is
    silently truncated (the writes were never acknowledged).  This error
    means the journal holds fewer valid records than the caller's
    committed LSN — an acknowledged write would be lost — so recovery
    refuses to produce a state that silently drops it.
    """


class TraceInvariantError(ReproError):
    """A query's span tree does not sum to its flat ledger.

    Raised by :meth:`repro.obs.Trace.verify` when per-span attribution
    loses or double-counts work — always a bug in span placement, never
    a data problem, which is why it is enforced on every execution.
    """
