"""Hierarchical spans over the engine's counter registry.

A :class:`Tracer` installs itself on a :class:`~repro.core.stats.StatsRegistry`
(``stats.tracer``); every layer of the engine opens spans through
``stats.trace("btree.search")`` without knowing whether anything is listening.
Each open span is a charge sink (:meth:`StatsRegistry.charge`): every counter
the installing thread adds while the span is open is mirrored into it, so the
span tree is a hierarchical decomposition of the same numbers EXPERIMENTS.md
reports globally — page I/O, index traffic, lock waits — attributed to the
operator that caused them.

Span trees export as plain JSON (:meth:`Span.to_dict`, :func:`trace_to_json`)
with a deliberately flat schema (name/kind/attrs/counters/children), so
external tooling can consume them without knowing engine internals.
"""

from __future__ import annotations

import json
import threading
from collections import Counter
from contextlib import contextmanager
from typing import Iterator

from repro.core.events import jsonable
from repro.core.stats import StatsRegistry


class Span:
    """One node of a trace: a named operation with attributes, counter
    deltas (inclusive of children) and child spans."""

    __slots__ = ("name", "attrs", "children", "counters", "kind")

    def __init__(self, name: str, attrs: dict | None = None,
                 kind: str = "span") -> None:
        self.name = name
        self.attrs: dict[str, object] = dict(attrs) if attrs else {}
        self.children: list[Span] = []
        #: Counters charged between enter and exit (inclusive).
        self.counters: dict[str, int] = {}
        self.kind = kind

    def set(self, key: str, value: object) -> None:
        """Attach/overwrite one attribute."""
        self.attrs[key] = value

    def counter(self, name: str) -> int:
        """This span's (inclusive) delta for counter ``name``."""
        return self.counters.get(name, 0)

    def find(self, name: str) -> "Span | None":
        """First descendant span (depth-first, self included) named ``name``."""
        if self.name == name:
            return self
        for child in self.children:
            found = child.find(name)
            if found is not None:
                return found
        return None

    def find_all(self, name: str) -> list["Span"]:
        """Every descendant span (self included) named ``name``."""
        out = [self] if self.name == name else []
        for child in self.children:
            out.extend(child.find_all(name))
        return out

    def format(self, indent: int = 0) -> str:
        """Indented text rendering of the subtree (EXPLAIN output)."""
        pad = "  " * indent
        bits = [f"{pad}{self.name}"]
        if self.attrs:
            inner = " ".join(f"{k}={v!r}" for k, v in self.attrs.items())
            bits.append(f"({inner})")
        if self.counters:
            inner = " ".join(f"{k}={v}"
                             for k, v in sorted(self.counters.items()))
            bits.append(f"[{inner}]")
        lines = [" ".join(bits)]
        for child in self.children:
            lines.append(child.format(indent + 1))
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """Plain-dict rendering of the subtree (JSON-safe)."""
        out: dict[str, object] = {"name": self.name, "kind": self.kind}
        if self.attrs:
            out["attrs"] = jsonable(self.attrs)
        if self.counters:
            out["counters"] = dict(sorted(self.counters.items()))
        if self.children:
            out["children"] = [child.to_dict() for child in self.children]
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Span({self.name!r}, attrs={self.attrs}, "
                f"children={len(self.children)})")


class Tracer:
    """Builds a span tree while installed on a stats registry.

    Usage::

        tracer = Tracer(db.stats)
        with tracer.install():
            db.xpath("catalog", "doc", "/Catalog//Product")
        print(tracer.root.format())

    Spans nest by runtime call order: the innermost open span is the parent
    of any span opened inside it.  A tracer belongs to the thread that
    installed it: a span another thread opens is detached (not added to the
    tree), and that thread's counters are never charged to this tree.
    """

    def __init__(self, stats: StatsRegistry, name: str = "trace") -> None:
        self.stats = stats
        self.root = Span(name, kind="root")
        self._stack: list[Span] = [self.root]
        self._thread = threading.get_ident()

    @contextmanager
    def span(self, name: str, **attrs: object) -> Iterator[Span]:
        """Open a child span; yields it so callers can set attributes."""
        span = Span(name, attrs)
        if threading.get_ident() != self._thread:
            yield span
            return
        self._stack[-1].children.append(span)
        self._stack.append(span)
        try:
            with self._charged(span):
                yield span
        finally:
            self._stack.pop()

    @contextmanager
    def install(self) -> Iterator["Tracer"]:
        """Attach to the registry for the duration of the block.

        The root span is charged while installed, and any previously
        installed tracer is restored on exit (tracers may nest).
        """
        previous = self.stats.tracer
        self.stats.tracer = self
        self._thread = threading.get_ident()
        try:
            with self._charged(self.root):
                yield self
        finally:
            self.stats.tracer = previous

    @contextmanager
    def _charged(self, span: Span) -> Iterator[None]:
        """Charge ``span`` while the block runs; keep its non-zero counts."""
        sink: Counter[str] = Counter()
        try:
            with self.stats.charge(sink):
                yield
        finally:
            span.counters = {name: value for name, value in sink.items()
                             if value}


def trace_to_json(trace: Span | Tracer, indent: int | None = 2) -> str:
    """JSON text for a span tree (or a tracer's root)."""
    span = trace.root if isinstance(trace, Tracer) else trace
    return json.dumps(span.to_dict(), indent=indent)
