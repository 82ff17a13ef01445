"""Document-level concurrency (§5.1).

"In lock-based document level concurrency, if we follow the access sequence
from a base table row to the XML column data, the lock on the base table can
cover the XML data.  However, if we allow direct access to the XML data from
value indexes or from an uncommitted reader that does not lock the base table
rows, a DocID locking scheme is required.  ...  Care must be taken also to
prevent reading a partially inserted document by using a lock."

This module provides the resource naming and the protocol helpers the
scheduler programs use: row locks cover documents on the base-row access
path; DocID locks protect direct (index-driven or deferred) access; node
locks (§5.2) cover one subtree of a document.
"""

from __future__ import annotations

from repro.rdb.locks import LockManager, LockMode
from repro.rdb.tablespace import Rid


def row_resource(table: str, rid: Rid) -> tuple:
    """Lock resource for a base-table row."""
    return ("row", table, rid)


def doc_resource(column: str, docid: int) -> tuple:
    """Lock resource for a document (DocID lock)."""
    return ("doc", column, docid)


def node_resource(column: str, docid: int, node_id: bytes) -> tuple:
    """Lock resource for the subtree rooted at ``node_id`` (node-ID lock,
    §5.2); it conflicts with the document's node locks by the prefix test,
    and ``b""`` covers the whole document."""
    return ("node", column, docid, node_id)


class DocumentLockProtocol:
    """Lock-based document-level concurrency over the shared lock manager."""

    def __init__(self, locks: LockManager, column: str = "doc") -> None:
        self.locks = locks
        self.column = column

    # Non-blocking primitives for scheduler programs ------------------------

    def try_read_via_row(self, txn_id: int, table: str, rid: Rid) -> bool:
        """Base-row access path: the row lock covers the XML data."""
        return self.locks.try_acquire(txn_id, row_resource(table, rid),
                                      LockMode.S)

    def try_read_direct(self, txn_id: int, docid: int) -> bool:
        """Direct access (from a value index / deferred fetch): DocID lock."""
        return self.locks.try_acquire(txn_id, doc_resource(self.column, docid),
                                      LockMode.S)

    def try_write(self, txn_id: int, table: str, rid: Rid,
                  docid: int) -> bool:
        """Writers take both the row lock and the DocID lock exclusively, so
        neither access path can observe a partially updated document."""
        if not self.locks.try_acquire(txn_id, row_resource(table, rid),
                                      LockMode.X):
            return False
        return self.locks.try_acquire(txn_id, doc_resource(self.column, docid),
                                      LockMode.X)

    def try_insert_guard(self, txn_id: int, docid: int) -> bool:
        """Held across a multi-record insert: prevents readers from seeing a
        partially inserted document (§5.1)."""
        return self.locks.try_acquire(txn_id, doc_resource(self.column, docid),
                                      LockMode.X)

    def release(self, txn_id: int) -> None:
        self.locks.release_all(txn_id)
