"""Spans around the engine's layer boundaries, recorded from outside.

Nothing under ``src/`` knows about this module.  :meth:`Tracer.install`
replaces the public entry points listed in :data:`ENTRY_POINTS` with
wrappers that record one span per call — span id, layer, entry point,
start, end, busy time, parent span, request id, items yielded — into
per-thread in-memory buffers.  :meth:`Tracer.uninstall` puts the originals
back; :meth:`Tracer.dump` writes the spans out after the run has ended.

A layer's *self time* is the busy time of its spans minus the busy time of
the spans they caused, so the self times of one request add up to the busy
time of its root span exactly.

Entry points that return generators (marked ``*``) are wrapped in an
iterator whose ``__next__`` charges the time spent producing each item to
the producer's layer, with the consumer that asked for the item as parent:
``QuickXScan.run`` pulling from ``StoredDocument.events`` splits into the
scan's own time and the traversal's.
"""

from __future__ import annotations

import itertools
import json
import sys
import threading
import time
from array import array
from collections import defaultdict
from importlib import import_module
from pathlib import Path

#: layer -> wrapped entry points, ``module:function`` or
#: ``module:Class.method``; a trailing ``*`` marks a generator.  This is the
#: only place that says what a layer's boundary is.  Modules that no layer
#: lists (``rdb.table``, ``rdb.storage``, ``rdb.codec``, ``xmlstore.format``,
#: ``xpath.qtree``, ``core.stats``, ...) are charged to whichever listed
#: entry point called them.
ENTRY_POINTS: dict[str, tuple[str, ...]] = {
    "serve": (
        "repro.serve.session:Session.query",
        "repro.serve.session:Session.insert",
        "repro.serve.session:Session.run",
    ),
    "core.engine": (
        "repro.core.engine:Database.run_in_txn",
        "repro.core.engine:Database.insert",
        "repro.core.engine:Database.delete_row",
        "repro.core.engine:Database.xpath",
        "repro.core.engine:Database.plan_xpath",
        "repro.core.engine:Database.execute_plan",
        "repro.core.engine:Database.get_document",
        "repro.core.engine:Database.checkpoint",
    ),
    "rdb.txn": (
        "repro.rdb.txn:TransactionManager.begin",
        "repro.rdb.txn:TransactionManager.commit_record",
        "repro.rdb.txn:TransactionManager.checkpoint",
        "repro.rdb.txn:Transaction.lock",
        "repro.rdb.txn:Transaction.commit",
        "repro.rdb.txn:Transaction.abort",
    ),
    "rdb.locks": (
        "repro.rdb.locks:LockManager.try_acquire",
        "repro.rdb.locks:LockManager.release_all",
        "repro.rdb.locks:LockManager.find_deadlock",
        "repro.rdb.locks:LockManager.clear_waits",
    ),
    "rdb.wal": (
        "repro.rdb.wal:LogManager.append",
        "repro.rdb.wal:LogManager.flush",
        "repro.rdb.wal:LogManager.checkpoint",
    ),
    "rdb.btree": (
        "repro.rdb.btree:BTree.insert",
        "repro.rdb.btree:BTree.delete",
        "repro.rdb.btree:BTree.search",
        "repro.rdb.btree:BTree.search_one",
        "repro.rdb.btree:BTree.seek_ge",
        "repro.rdb.btree:BTree.scan*",
        "repro.rdb.btree:BTree.scan_prefix*",
    ),
    "rdb.buffer": (
        "repro.rdb.buffer:BufferPool.new_page",
        "repro.rdb.buffer:BufferPool.fetch",
        "repro.rdb.buffer:BufferPool.unpin",
        "repro.rdb.buffer:BufferPool.flush_page",
        "repro.rdb.buffer:BufferPool.flush_all",
    ),
    "rdb.tablespace": (
        "repro.rdb.tablespace:TableSpace.insert",
        "repro.rdb.tablespace:TableSpace.read",
        "repro.rdb.tablespace:TableSpace.update",
        "repro.rdb.tablespace:TableSpace.delete",
        "repro.rdb.tablespace:TableSpace.scan*",
    ),
    "xdm.parser": (
        "repro.xdm.parser:XmlParser.parse",
        "repro.xdm.parser:XmlParser.parse_sax",
        "repro.xdm.tokens:TokenStream.events*",
        "repro.xdm.events:assign_node_ids*",
    ),
    "xmlstore.packing": (
        "repro.xmlstore.packing:TreePacker.feed",
        "repro.xmlstore.packing:TreePacker.finish",
    ),
    "xmlstore.store": (
        "repro.xmlstore.store:XmlStore.insert_document_text",
        "repro.xmlstore.store:XmlStore.insert_document_events",
        "repro.xmlstore.store:XmlStore.insert_packed",
        "repro.xmlstore.store:XmlStore.read_record",
        "repro.xmlstore.store:XmlStore.delete_document",
        "repro.xmlstore.node_index:NodeIdIndex.add_record",
        "repro.xmlstore.node_index:NodeIdIndex.remove_record",
        "repro.xmlstore.node_index:NodeIdIndex.probe",
        "repro.xmlstore.node_index:NodeIdIndex.record_rids",
    ),
    "xmlstore.traversal": (
        "repro.xmlstore.traversal:StoredDocument.events*",
        "repro.xmlstore.traversal:StoredDocument.node_events*",
        "repro.xmlstore.traversal:StoredDocument.find_node",
        "repro.xmlstore.traversal:StoredDocument.ancestry",
        "repro.xmlstore.traversal:StoredDocument.node_string_value",
    ),
    "indexes": (
        "repro.indexes.manager:XPathValueIndex.record_added",
        "repro.indexes.manager:XPathValueIndex.record_removed",
        "repro.indexes.manager:XPathValueIndex.lookup_eq*",
        "repro.indexes.manager:XPathValueIndex.lookup_range*",
        "repro.indexes.keygen:record_local_events*",
    ),
    "lang": (
        "repro.lang.parser:parse_xpath",
    ),
    "query.planner": (
        "repro.query.planner:Planner.plan",
    ),
    "query.executor": (
        "repro.query.executor:Executor.execute",
    ),
    "xpath.quickxscan": (
        "repro.xpath.quickxscan:QuickXScan.run",
    ),
}

LAYERS = tuple(ENTRY_POINTS)
COLUMNS = ("span", "layer", "entry", "start_ns", "end_ns", "busy_ns",
           "parent", "request", "items")

_now = time.perf_counter_ns


class _ThreadState:
    __slots__ = ("stack", "request", "rows")

    def __init__(self) -> None:
        self.stack: list[int] = []   # open span ids, innermost last
        self.request = 0
        self.rows = array("q")


class Tracer:
    """Records spans while installed; see the module docstring."""

    def __init__(self) -> None:
        self.entries: list[str] = []
        self._tls = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._undo: list[tuple[object, str, object]] = []

    # -- per-thread state ----------------------------------------------------

    def _state(self) -> _ThreadState:
        try:
            return self._tls.state
        except AttributeError:
            state = self._tls.state = _ThreadState()
            with self._lock:
                self._states.append(state)
            return state

    def set_request(self, request: int) -> None:
        """Stamp the calling client thread's following spans with ``request``."""
        self._state().request = request

    # -- wrappers ------------------------------------------------------------

    def _wrap_call(self, fn, layer: int, entry: int):
        state_of, next_id = self._state, self._ids.__next__

        def traced(*args, **kwargs):
            state = state_of()
            stack = state.stack
            span = next_id()
            parent = stack[-1] if stack else 0
            stack.append(span)
            start = _now()
            try:
                return fn(*args, **kwargs)
            finally:
                end = _now()
                stack.pop()
                state.rows.extend((span, layer, entry, start, end,
                                   end - start, parent, state.request, 0))

        traced.__wrapped__ = fn
        return traced

    def _wrap_generator(self, fn, layer: int, entry: int):
        tracer = self

        def traced(*args, **kwargs):
            return _SpanIterator(tracer, fn(*args, **kwargs), layer, entry)

        traced.__wrapped__ = fn
        return traced

    def _wrap_submit(self, submit):
        """Carry the client's open span and request id onto the worker."""
        state_of = self._state

        def traced(server, session, work, label, deadline):
            client = state_of()
            parent = client.stack[-1] if client.stack else 0
            request = client.request

            def carried(db):
                worker = state_of()
                saved = worker.stack, worker.request
                worker.stack, worker.request = [parent], request
                try:
                    return work(db)
                finally:
                    worker.stack, worker.request = saved

            return submit(server, session, carried, label, deadline)

        traced.__wrapped__ = submit
        return traced

    # -- install / uninstall -------------------------------------------------

    def install(self) -> None:
        for layer, specs in enumerate(ENTRY_POINTS.values()):
            for spec in specs:
                generator = spec.endswith("*")
                module_name, _, path = spec.rstrip("*").partition(":")
                owner = import_module(module_name)
                *classes, name = path.split(".")
                for cls in classes:
                    owner = getattr(owner, cls)
                original = vars(owner)[name]
                self.entries.append(path)
                wrap = self._wrap_generator if generator else self._wrap_call
                self._replace(owner, name, original,
                              wrap(original, layer, len(self.entries) - 1))
        from repro.serve.server import DatabaseServer
        submit = vars(DatabaseServer)["submit"]
        self._replace(DatabaseServer, "submit", submit,
                      self._wrap_submit(submit))

    def _replace(self, owner, name: str, original, replacement) -> None:
        setattr(owner, name, replacement)
        self._undo.append((owner, name, original))
        if isinstance(owner, type):
            return
        # A module-level function: modules that did ``from m import f`` hold
        # their own reference to it.
        for module in list(sys.modules.values()):
            if module is owner or module is None or \
                    not getattr(module, "__name__", "").startswith("repro."):
                continue
            for alias, value in list(vars(module).items()):
                if value is original:
                    setattr(module, alias, replacement)
                    self._undo.append((module, alias, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    # -- results -------------------------------------------------------------

    def rows(self) -> array:
        merged = array("q")
        with self._lock:
            for state in self._states:
                merged.extend(state.rows)
        return merged

    def summary(self, requests: set[int]) -> dict:
        """Self time per layer and busy time, calls and items per entry,
        over the spans of ``requests``."""
        rows = self.rows()
        width = len(COLUMNS)
        layer_of: dict[int, int] = {}
        for i in range(0, len(rows), width):
            layer_of[rows[i]] = rows[i + 1]
        self_ns = [0] * len(LAYERS)
        entry_busy: dict[str, int] = defaultdict(int)
        entry_calls: dict[str, int] = defaultdict(int)
        entry_items: dict[str, int] = defaultdict(int)
        root_ns = 0
        orphan_ns = 0
        for i in range(0, len(rows), width):
            _span, layer, entry, _start, _end, busy, parent, request, items \
                = rows[i:i + width]
            if request not in requests:
                continue
            self_ns[layer] += busy
            if parent == 0:
                root_ns += busy
            elif parent in layer_of:
                self_ns[layer_of[parent]] -= busy
            else:
                orphan_ns += busy
            name = self.entries[entry]
            entry_busy[name] += busy
            entry_calls[name] += 1
            entry_items[name] += items
        return {
            "spans": len(rows) // width,
            "root_ns": root_ns,
            "orphan_ns": orphan_ns,
            "self_ns": dict(zip(LAYERS, self_ns)),
            "entry_busy_ns": dict(entry_busy),
            "entry_calls": dict(entry_calls),
            "entry_items": dict(entry_items),
        }

    def dump(self, stem: Path, **meta: object) -> None:
        """Write ``<stem>.i64`` (the rows) and ``<stem>.json`` (how to read
        them); call only after the run has ended."""
        stem.parent.mkdir(parents=True, exist_ok=True)
        rows = self.rows()
        with open(f"{stem}.i64", "wb") as handle:
            rows.tofile(handle)
        header = {"columns": COLUMNS, "layers": LAYERS,
                  "entries": self.entries,
                  "spans": len(rows) // len(COLUMNS), **meta}
        Path(f"{stem}.json").write_text(json.dumps(header, indent=1) + "\n")


class _SpanIterator:
    """Iterator over a traced generator; time inside ``__next__`` is the
    producer's.  One row is written per consumer that pulled from it."""

    __slots__ = ("_tracer", "_inner", "_layer", "_entry", "_span", "_parent",
                 "_start", "_end", "_busy", "_items", "_request")

    def __init__(self, tracer: Tracer, inner, layer: int, entry: int) -> None:
        self._tracer = tracer
        self._inner = inner
        self._layer = layer
        self._entry = entry
        self._span = next(tracer._ids)
        self._parent = -1
        self._start = self._end = self._busy = self._items = 0
        self._request = 0

    def __iter__(self) -> "_SpanIterator":
        return self

    def __next__(self):
        state = self._tracer._state()
        stack = state.stack
        parent = stack[-1] if stack else 0
        if parent != self._parent:
            self._flush(state)
            self._parent = parent
            self._request = state.request
        stack.append(self._span)
        start = _now()
        if not self._start:
            self._start = start
        try:
            item = next(self._inner)
        except BaseException:  # StopIteration included; always re-raised
            self._end = _now()
            self._busy += self._end - start
            stack.pop()
            self._flush(state)
            raise
        self._end = _now()
        self._busy += self._end - start
        self._items += 1
        stack.pop()
        return item

    def _flush(self, state: _ThreadState) -> None:
        if self._start:
            state.rows.extend((self._span, self._layer, self._entry,
                               self._start, self._end, self._busy,
                               self._parent, self._request, self._items))
        self._start = self._busy = self._items = 0

    def close(self) -> None:
        self._inner.close()
        self._flush(self._tracer._state())

    def __del__(self) -> None:
        # A consumer that stops early (first match of a scan) never sees
        # StopIteration; the time it did use still has to be recorded.
        if self._start:
            self._flush(self._tracer._state())


def load_spans(stem: Path) -> tuple[dict, list[tuple[int, ...]]]:
    """Read back what :meth:`Tracer.dump` wrote: ``(header, rows)``."""
    header = json.loads(Path(f"{stem}.json").read_text())
    data = array("q")
    with open(f"{stem}.i64", "rb") as handle:
        data.fromfile(handle, header["spans"] * len(header["columns"]))
    width = len(header["columns"])
    return header, [tuple(data[i:i + width])
                    for i in range(0, len(data), width)]
