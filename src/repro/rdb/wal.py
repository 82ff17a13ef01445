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

Every append is durable on return (one force per record), so
:meth:`LogManager.save` persists the whole log: exactly what stable storage
holds after a crash.  Recovery is one redo pass over the whole log
(:func:`replay`): a transaction's records apply iff its COMMIT is anywhere
in the log.  A ``CHECKPOINT`` record is an empty marker written after the
buffer pool flush; recovery reads no page back, so the marker is not a
starting point for it.

The log doubles as the experiments' measure of *log volume* (E3): counters
``wal.records`` and ``wal.bytes`` report exactly what a real engine would
have to harden.
"""

from __future__ import annotations

import enum
import zlib
from dataclasses import dataclass
from typing import Callable, Iterator

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


class LogManager:
    """Append-only log with LSNs, iteration and byte accounting.

    When a :class:`~repro.fault.injector.FaultInjector` is attached, append
    fires the crash points ``wal.append.pre`` / ``wal.append.post`` (and
    op-specific ``wal.commit.pre`` / ``wal.commit.post`` /
    ``wal.checkpoint.post``) so crash tests can cut the log at precisely
    defined instants.  A crash at any of them halts the log (:meth:`halt`).
    """

    def __init__(self, stats: StatsRegistry | None = None,
                 injector: "object | None" = None) -> None:
        self.stats = default_stats(stats)
        self.injector = injector
        self._records: list[LogRecord] = []
        self._bytes = 0
        #: Set when a simulated crash killed the logging path: the process
        #: is dead, so every later append re-raises instead of
        #: hardening state a real crash would have lost.
        self._halted: BaseException | None = None

    @property
    def next_lsn(self) -> int:
        return len(self._records)

    @property
    def bytes_written(self) -> int:
        """Total encoded log volume."""
        return self._bytes

    def _hit(self, point: str) -> None:
        if self.injector is None:
            return
        try:
            self.injector.hit(point)
        except Exception:
            raise  # a non-fatal injected failure: the log lives on
        except BaseException as crash:
            # A simulated crash: the log dies before the exception leaves
            # the caller's latched region, so no surviving thread can
            # harden a record after it.
            self.halt(crash)
            raise

    def _check_halted(self) -> None:
        if self._halted is not None:
            raise self._halted

    def halt(self, error: BaseException) -> None:
        """Mark the logging path dead (a simulated crash hit a log point).

        Surviving client threads that try to append afterwards re-raise
        ``error`` — a crashed process cannot keep hardening log records,
        and letting it would corrupt the crash matrix's notion of what
        stable storage held at the instant of death.
        """
        self._halted = error

    def append(self, txn_id: int, op: LogOp, target: str = "",
               payload: bytes = b"", extra: bytes = b"") -> LogRecord:
        """Append one log record; returns it, durable, with its LSN
        assigned."""
        self._check_halted()
        if op is LogOp.COMMIT:
            self._hit("wal.commit.pre")
        self._hit("wal.append.pre")
        record = LogRecord(self.next_lsn, txn_id, op, target, payload, extra)
        encoded_len = len(record.encode())
        self._records.append(record)
        self._bytes += encoded_len
        self.stats.add("wal.records")
        self.stats.add("wal.bytes", encoded_len)
        self.stats.observe("wal.record_bytes", encoded_len)
        self._hit("wal.append.post")
        if op is LogOp.COMMIT:
            self._hit("wal.commit.post")
        elif op is LogOp.CHECKPOINT:
            self._hit("wal.checkpoint.post")
        return record

    def flush(self) -> int:
        """Force the log: hardens nothing, as every append is durable
        (``bench/trace.py`` still times this entry point)."""
        return 0

    def checkpoint(self) -> LogRecord:
        """Write a CHECKPOINT marker (its payload is empty)."""
        with self.stats.trace("wal.checkpoint") as span:
            record = self.append(-1, LogOp.CHECKPOINT, "checkpoint")
            self.stats.add("wal.checkpoints")
            if span is not None:
                span.set("lsn", record.lsn)
            return record

    def records(self) -> Iterator[LogRecord]:
        """All records in LSN order."""
        return iter(list(self._records))

    def save(self, path: str) -> None:
        """Persist the log for crash/restart tests.

        Each record is framed as ``length(4) || crc32(4) || body`` so that
        :meth:`load` can tell a torn tail from mid-log corruption.
        """
        with open(path, "wb") as fh:
            for record in self._records:
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
            log.stats.add("wal.records")
            log.stats.add("wal.bytes", length)
            pos = end
        return log


def replay(log: LogManager, apply: Callable[[LogRecord], None]) -> int:
    """Redo pass: feed the records of committed transactions to ``apply``.

    A transaction's records apply iff its COMMIT is anywhere in the log —
    the archive-recovery equivalent of undoing losers, as an in-flight,
    aborted or crash-cut transaction never logged one.  Auto-commit
    records (``txn_id`` -1) always apply.  Returns the number applied.
    """
    records = list(log.records())
    committed = {record.txn_id for record in records
                 if record.op is LogOp.COMMIT}
    applied = 0
    for record in records:
        if record.op in (LogOp.BEGIN, LogOp.COMMIT, LogOp.ABORT,
                         LogOp.CHECKPOINT):
            continue
        if record.txn_id >= 0 and record.txn_id not in committed:
            continue
        apply(record)
        applied += 1
    log.stats.add("recovery.replayed", applied)
    return applied
