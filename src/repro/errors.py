"""Exception hierarchy for the System R/X reproduction.

Every error raised by the engine derives from :class:`ReproError` so that
applications can catch engine failures with a single ``except`` clause while
still being able to distinguish subsystem-specific conditions.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all engine errors."""


class StorageError(ReproError):
    """Raised for page/record/table-space level failures."""


class PageFullError(StorageError):
    """A record does not fit on the target page."""


class RecordNotFoundError(StorageError):
    """A RID does not designate a live record."""


class BufferPoolError(StorageError):
    """Buffer-pool misuse (e.g. no evictable frame because all are pinned)."""


class ChecksumError(StorageError):
    """Stored data failed checksum verification (torn write or bit rot)."""


class FaultInjectionError(StorageError):
    """An injected I/O failure from a fault plan (see :mod:`repro.fault`)."""


class IndexError_(ReproError):
    """B+tree / index manager failure.

    Named with a trailing underscore to avoid shadowing the builtin
    ``IndexError`` while keeping the natural name.
    """


class DuplicateKeyError(IndexError_):
    """Insert of a key that already exists in a unique index."""


class CatalogError(ReproError):
    """Catalog/directory inconsistency (unknown table, duplicate name, ...)."""


class LogError(ReproError):
    """Write-ahead-log failure."""


class RecoveryError(LogError):
    """Restart recovery could not bring the database to a consistent state."""


class TransactionError(ReproError):
    """Transaction misuse (operation on a finished transaction, ...)."""


class DeadlockError(TransactionError):
    """The lock manager chose this transaction as a deadlock victim."""


class LockTimeoutError(TransactionError):
    """A lock request could not be granted within the configured bound."""


class ServerError(ReproError):
    """Base class for serving-layer failures (see :mod:`repro.serve`).

    The serving layer's error taxonomy is typed so clients can tell
    "back off and retry later" (:class:`ServerOverloadedError`), "this
    request ran out of time" (:class:`DeadlineExceededError`) and "the
    server is going away" (:class:`ServerClosedError`) from a broken
    engine (any other :class:`ReproError`).
    """


class ServerOverloadedError(ServerError):
    """Admission control shed the request: queue full or engine overloaded.

    The work was *not* started; retrying after a backoff is safe.
    """


class DeadlineExceededError(ServerError):
    """The request's deadline expired (queued, waiting on a lock, or
    between victim retries) before the work could complete.

    Any transactional work performed on behalf of the request has been
    aborted; nothing was committed.
    """


class ServerClosedError(ServerError):
    """The server is shut down (or draining) and accepts no new work."""


class XmlError(ReproError):
    """Base class for XML data-model and parsing errors."""


class XmlParseError(XmlError):
    """Malformed XML input."""


class XmlValidationError(XmlError):
    """Input does not conform to the registered XML schema."""


class SchemaError(XmlError):
    """Invalid schema definition or unknown registered schema."""


class NodeIdError(XmlError):
    """Malformed Dewey node identifier."""


class PackingError(XmlError):
    """Packed-record format violation."""


class DocumentNotFoundError(XmlError):
    """A DocID does not designate a stored document."""


class QueryError(ReproError):
    """Base class for query compilation/execution errors."""


class XPathSyntaxError(QueryError):
    """XPath expression could not be parsed."""


class XPathUnsupportedError(QueryError):
    """Syntactically valid XPath outside the supported subset."""


class SqlSyntaxError(QueryError):
    """SQL/XML statement could not be parsed."""


class PlanningError(QueryError):
    """No valid access path could be produced."""


class ExecutionError(QueryError):
    """Runtime failure while executing a query plan."""


class TypeError_(QueryError):
    """XPath/SQL dynamic type error (named to avoid shadowing the builtin)."""
