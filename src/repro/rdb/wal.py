"""Write-ahead logging and archive-style recovery.

The paper reuses the relational logging/backup/recovery machinery unchanged
(§2): packed XML records are logged exactly like rows.  This module provides
a logical write-ahead log — each record names a table-space-level operation
with its full payload — plus archive recovery: replaying the log against a
fresh database deterministically reproduces record placement (the engine's
insert path is deterministic), which is how the recovery tests restore XML
columns and rebuild their indexes.

Persistence uses per-record ``length || crc32 || body`` framing.  A torn
*tail* (a record cut short by a crash mid-hardening) is dropped silently on
:meth:`LogManager.load` — exactly the committed-prefix semantics a real log
gives — while corruption in the *middle* of the log raises
:class:`~repro.errors.RecoveryError`, because records after the damage can
no longer be trusted.

The log distinguishes the *appended* tail from the *durable* prefix.  With
``auto_flush`` (the default) every append hardens immediately.  With
``auto_flush`` off, appends land in the volatile tail and only
:meth:`LogManager.flush` advances the durable boundary; :meth:`save`
persists the durable prefix only, exactly what stable storage would hold
after a crash.

``CHECKPOINT`` records carry the set of loser transactions (in-flight or
aborted) at checkpoint time, so :func:`replay`'s analysis pass can start at
the last checkpoint instead of scanning the whole log for COMMITs.

The log doubles as the experiments' measure of *log volume* (E3): counters
``wal.records`` and ``wal.bytes`` report exactly what a real engine would
have to harden.
"""

from __future__ import annotations

import enum
import zlib
from dataclasses import dataclass
from typing import Callable, Iterator

from repro.analyze import sanitize as _sanitize
from repro.core.stats import StatsRegistry, default_stats
from repro.errors import LogError, RecoveryError
from repro.rdb import codec

#: bytes of ``length || crc32`` framing preceding each persisted record.
_FRAME_HEADER = 8


class LogOp(enum.IntEnum):
    """Logical log record kinds."""

    BEGIN = 0
    COMMIT = 1
    ABORT = 2
    INSERT = 3
    UPDATE = 4
    DELETE = 5
    DDL = 6
    CHECKPOINT = 7


@dataclass(frozen=True)
class LogRecord:
    """One log entry.

    ``target`` names the object operated on (a table or table space);
    ``payload`` carries the operation argument (record image, DDL statement,
    serialized row) and ``extra`` an optional secondary image (e.g. the key
    identifying the record for UPDATE/DELETE).
    """

    lsn: int
    txn_id: int
    op: LogOp
    target: str = ""
    payload: bytes = b""
    extra: bytes = b""

    def encode(self) -> bytes:
        out = bytearray()
        codec.write_uvarint(out, self.lsn)
        codec.write_svarint(out, self.txn_id)
        out.append(int(self.op))
        codec.write_str(out, self.target)
        codec.write_bytes(out, self.payload)
        codec.write_bytes(out, self.extra)
        return bytes(out)

    @classmethod
    def decode(cls, data: bytes | memoryview, pos: int = 0) -> tuple["LogRecord", int]:
        lsn, pos = codec.read_uvarint(data, pos)
        txn_id, pos = codec.read_svarint(data, pos)
        op = LogOp(data[pos])
        pos += 1
        target, pos = codec.read_str(data, pos)
        payload, pos = codec.read_bytes(data, pos)
        extra, pos = codec.read_bytes(data, pos)
        return cls(lsn, txn_id, op, target, payload, extra), pos


def encode_checkpoint(losers: set[int] | list[int]) -> bytes:
    """Payload of a CHECKPOINT record: the sorted loser-transaction set."""
    out = bytearray()
    ids = sorted(losers)
    codec.write_uvarint(out, len(ids))
    for txn_id in ids:
        codec.write_svarint(out, txn_id)
    return bytes(out)


def decode_checkpoint(payload: bytes) -> set[int]:
    """Loser-transaction set carried by a CHECKPOINT payload."""
    count, pos = codec.read_uvarint(payload, 0)
    losers: set[int] = set()
    for _ in range(count):
        txn_id, pos = codec.read_svarint(payload, pos)
        losers.add(txn_id)
    return losers


class LogManager:
    """Append-only log with LSNs, iteration and byte accounting.

    When a :class:`~repro.fault.injector.FaultInjector` is attached, append
    fires the crash points ``wal.append.pre`` / ``wal.append.post`` (and
    op-specific ``wal.commit.pre`` / ``wal.commit.post`` /
    ``wal.checkpoint.post``) so crash tests can cut the log at precisely
    defined instants.  A crash at any of them halts the log (:meth:`halt`).
    """

    def __init__(self, stats: StatsRegistry | None = None,
                 injector: "object | None" = None,
                 auto_flush: bool = True) -> None:
        self.stats = default_stats(stats)
        self.injector = injector
        #: With ``auto_flush`` every append is immediately durable (the
        #: classic one-force-per-record discipline); off, appends wait in
        #: the volatile tail for :meth:`flush`.
        self.auto_flush = auto_flush
        self._records: list[LogRecord] = []
        self._bytes = 0
        self._bytes_at_checkpoint = 0
        self._aborted: set[int] = set()
        self._last_lsn = -1  # sanitizer: newest hardened LSN
        self._durable_count = 0  # records at or below the flush boundary
        #: Set when a simulated crash killed the logging path: the process
        #: is dead, so every later append/flush re-raises instead of
        #: hardening state a real crash would have lost.
        self._halted: BaseException | None = None

    @property
    def next_lsn(self) -> int:
        return len(self._records)

    @property
    def bytes_written(self) -> int:
        """Total encoded log volume."""
        return self._bytes

    @property
    def bytes_since_checkpoint(self) -> int:
        """Log volume hardened since the newest CHECKPOINT record."""
        return self._bytes - self._bytes_at_checkpoint

    @property
    def aborted_txns(self) -> frozenset[int]:
        """Transactions whose ABORT records this log has seen."""
        return frozenset(self._aborted)

    @property
    def durable_count(self) -> int:
        """Records at or below the flush boundary (what :meth:`save` keeps)."""
        return self._durable_count

    @property
    def unflushed_count(self) -> int:
        """Appended records still in the volatile tail."""
        return len(self._records) - self._durable_count

    def _hit(self, point: str) -> None:
        if self.injector is None:
            return
        try:
            self.injector.hit(point)
        except Exception:
            raise  # a non-fatal injected failure: the log lives on
        except BaseException as crash:
            # A simulated crash: the log dies before the exception leaves
            # the caller's latched region, so no surviving worker can
            # harden a record after it.
            self.halt(crash)
            raise

    def _check_halted(self) -> None:
        if self._halted is not None:
            raise self._halted

    def halt(self, error: BaseException) -> None:
        """Mark the logging path dead (a simulated crash hit a log point).

        Surviving worker threads that try to append or flush afterwards
        re-raise ``error`` — a crashed process cannot keep hardening log
        records, and letting it would corrupt the crash matrix's notion of
        what stable storage held at the instant of death.
        """
        self._halted = error

    def append(self, txn_id: int, op: LogOp, target: str = "",
               payload: bytes = b"", extra: bytes = b"") -> LogRecord:
        """Append one log record; returns it with its LSN assigned.

        Under ``auto_flush`` the record is durable on return; otherwise it
        sits in the volatile tail until :meth:`flush`.
        """
        self._check_halted()
        if op is LogOp.COMMIT:
            self._hit("wal.commit.pre")
        self._hit("wal.append.pre")
        record = LogRecord(self.next_lsn, txn_id, op, target, payload, extra)
        if _sanitize.enabled():
            _sanitize.check_lsn_monotonic(self.stats, self._last_lsn,
                                          record.lsn)
        self._last_lsn = record.lsn
        encoded_len = len(record.encode())
        self._records.append(record)
        self._bytes += encoded_len
        if op is LogOp.ABORT:
            self._aborted.add(txn_id)
        self.stats.add("wal.records")
        self.stats.add("wal.bytes", encoded_len)
        self.stats.observe("wal.record_bytes", encoded_len)
        if self.auto_flush:
            self._durable_count = len(self._records)
        self._hit("wal.append.post")
        if op is LogOp.COMMIT:
            self._hit("wal.commit.post")
        elif op is LogOp.CHECKPOINT:
            self._hit("wal.checkpoint.post")
        return record

    def flush(self) -> int:
        """Advance the durable boundary over the volatile tail (log force).

        Returns the number of records hardened.  A no-op (and no counter
        traffic) when nothing is outstanding — under ``auto_flush`` every
        append already forced itself.
        """
        self._check_halted()
        hardened = len(self._records) - self._durable_count
        if hardened <= 0:
            return 0
        # The force is the commit path's log-write suspension (DB2's "log
        # write I/O" class-3 bucket).  On the simulated device it is near
        # instant, so the charge usually rounds to zero — the class exists
        # so the profile stays honest if the device ever gets real latency.
        with self.stats.wait_timer("wal.force"):
            self._durable_count = len(self._records)
        self.stats.add("wal.flushes")
        return hardened

    def checkpoint(self, active_txns: set[int] | list[int] = ()) -> LogRecord:
        """Write a CHECKPOINT record.

        ``active_txns`` are the transactions in flight at checkpoint time;
        together with the aborted set they form the *losers* — transactions
        whose pre-checkpoint records must not replay unless a later COMMIT
        proves otherwise.  Recovery's analysis pass starts at the newest
        checkpoint (see :func:`replay`).
        """
        with self.stats.trace("wal.checkpoint") as span:
            losers = set(active_txns) | self._aborted
            record = self.append(-1, LogOp.CHECKPOINT, "checkpoint",
                                 encode_checkpoint(losers))
            # A checkpoint must reach stable storage: recovery's analysis
            # pass starts here, so the record (and everything before it)
            # is forced even with auto_flush off.
            self.flush()
            self._bytes_at_checkpoint = self._bytes
            self.stats.add("wal.checkpoints")
            if span is not None:
                span.set("losers", len(losers))
                span.set("lsn", record.lsn)
            return record

    def last_checkpoint_lsn(self) -> int | None:
        """LSN of the newest CHECKPOINT record, if any."""
        for record in reversed(self._records):
            if record.op is LogOp.CHECKPOINT:
                return record.lsn
        return None

    def records(self) -> Iterator[LogRecord]:
        """All records in LSN order."""
        return iter(list(self._records))

    def truncate(self) -> None:
        """Discard the log (after a checkpoint/backup)."""
        self._records.clear()
        self._aborted.clear()
        # bytes_written stays cumulative, but nothing is outstanding after
        # the checkpoint/backup that justified the truncation.
        self._bytes_at_checkpoint = self._bytes
        self._last_lsn = -1  # LSNs legitimately restart after truncation
        self._durable_count = 0

    def save(self, path: str) -> None:
        """Persist the durable prefix for crash/restart tests.

        Each record is framed as ``length(4) || crc32(4) || body`` so that
        :meth:`load` can tell a torn tail from mid-log corruption.  Only
        records at or below the flush boundary are written: a volatile tail
        (appends never forced before the crash) is exactly what a real
        crash loses.  Under ``auto_flush`` the boundary tracks
        every append, so the whole log persists as before.
        """
        with open(path, "wb") as fh:
            for record in self._records[:self._durable_count]:
                encoded = record.encode()
                fh.write(len(encoded).to_bytes(4, "big"))
                fh.write(zlib.crc32(encoded).to_bytes(4, "big"))
                fh.write(encoded)

    @classmethod
    def load(cls, path: str, stats: StatsRegistry | None = None) -> "LogManager":
        """Reload a persisted log, tolerating a torn tail.

        A final record cut short by a crash (incomplete frame, short body,
        or checksum mismatch at end-of-file) is dropped — it was never fully
        hardened, so the transaction it belonged to simply loses its tail.
        Damage anywhere *before* the end of the log raises
        :class:`~repro.errors.RecoveryError`.
        """
        log = cls(stats=stats)
        with open(path, "rb") as fh:
            data = fh.read()
        pos = 0
        while pos < len(data):
            if pos + _FRAME_HEADER > len(data):
                log.stats.add("recovery.torn_tail_dropped")
                break
            length = int.from_bytes(data[pos:pos + 4], "big")
            checksum = int.from_bytes(data[pos + 4:pos + 8], "big")
            body = data[pos + _FRAME_HEADER:pos + _FRAME_HEADER + length]
            end = pos + _FRAME_HEADER + length
            if len(body) < length:
                log.stats.add("recovery.torn_tail_dropped")
                break
            if zlib.crc32(body) != checksum:
                if end >= len(data):
                    log.stats.add("recovery.torn_tail_dropped")
                    break
                raise RecoveryError(
                    f"corrupt log record at byte {pos} of {path!r} "
                    f"(mid-log checksum mismatch)")
            try:
                record, _ = LogRecord.decode(body)
            except (LogError, ValueError, IndexError) as exc:
                raise RecoveryError(
                    f"undecodable log record at byte {pos} of {path!r}: "
                    f"{exc}") from exc
            log._records.append(record)
            log._bytes += length
            # Restart state: the newest hardened LSN feeds the monotonicity
            # sanitizer, and the checkpoint byte mark keeps
            # ``bytes_since_checkpoint`` (the checkpoint lag) correct
            # across a restart instead of counting the whole
            # pre-checkpoint volume as outstanding.
            log._last_lsn = record.lsn
            if record.op is LogOp.ABORT:
                log._aborted.add(record.txn_id)
            elif record.op is LogOp.CHECKPOINT:
                log._bytes_at_checkpoint = log._bytes
            log.stats.add("wal.records")
            log.stats.add("wal.bytes", length)
            pos = end
        # Everything that survived on stable storage is, by definition,
        # durable.
        log._durable_count = len(log._records)
        return log


def replay(log: LogManager,
           apply: Callable[[LogRecord], None],
           committed_only: bool = True,
           from_checkpoint: bool = True) -> int:
    """Redo pass: feed records of committed transactions to ``apply``.

    With ``committed_only`` (the default), records of transactions that never
    logged ``COMMIT`` are suppressed — the archive-recovery equivalent of
    undoing losers.  With ``from_checkpoint`` the analysis pass scans for
    COMMIT records only from the newest CHECKPOINT onward: a pre-checkpoint
    record replays unless its transaction is in the checkpoint's loser set
    (in flight or aborted at checkpoint time) and never commits afterwards.
    Returns the number of records applied.
    """
    records = list(log.records())
    start = 0
    losers: set[int] = set()
    if committed_only and from_checkpoint:
        for index in range(len(records) - 1, -1, -1):
            if records[index].op is LogOp.CHECKPOINT:
                losers = decode_checkpoint(records[index].payload)
                start = index
                log.stats.add("recovery.from_checkpoint")
                break
    committed: set[int] = set()
    if committed_only:
        for record in records[start:]:
            if record.op is LogOp.COMMIT:
                committed.add(record.txn_id)
    applied = 0
    for index, record in enumerate(records):
        if record.op in (LogOp.BEGIN, LogOp.COMMIT, LogOp.ABORT,
                         LogOp.CHECKPOINT):
            continue
        if committed_only and record.txn_id >= 0:
            if record.txn_id not in committed and \
                    (index >= start or record.txn_id in losers):
                continue
        apply(record)
        applied += 1
    log.stats.add("recovery.replayed", applied)
    return applied
