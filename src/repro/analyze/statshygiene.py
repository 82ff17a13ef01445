"""Stats-hygiene checker: metric names are conventional and registered once.

Every layer reports into the shared :class:`~repro.core.stats.StatsRegistry`
and counters are created on first use — so a typo'd name silently splits a
metric in two, and experiments comparing ``buffer.hits`` across runs read
garbage.  Three invariants keep the namespace sound:

* **STAT001** — the ``component.metric`` convention: lowercase dotted names,
  at least two segments (``buffer.hits``, ``txn.retry_backoff_us``).
  Applies to counters, gauges, histograms, spans and trace events alike.
* **STAT002** — single registration point: every counter/gauge name used by
  engine code must appear in ``METRICS`` in ``repro/core/stats.py``.  The
  registry is extracted from the analyzed tree's own ``core/stats.py`` (no
  import of the code under analysis), so the check stays honest on any
  tree.  A name in code but not in the registry is a typo or an
  undocumented metric; either way the registry is the fix.
* **STAT003** — the same single-registration rule for histograms: every
  literal ``observe()`` name must appear in ``HISTOGRAMS`` beside
  ``METRICS``, so distribution metrics get the same typo protection.
* **STAT004** — wait-state discipline, two halves.  (a) Every literal
  wait class passed to ``wait_timer()``/``charge_wait()`` must appear in
  the ``WAITS`` registry — a typo'd class would silently charge a
  counter the profilers never fold in.  (b) Every blocking sleep
  (``time.sleep(...)`` or the engine's bare ``sleep(...)`` alias) must be
  lexically inside a ``with`` whose items include a ``wait_timer(...)``
  call, so no suspension site can dodge the wait clock.  The one
  allowlisted scope is ``DatabaseServer._latch_sleep`` — the
  release-sleep-reacquire yield primitive whose callers (lock-wait
  backoff, retry backoff) each charge their own
  class; timing it again here would double-count every yielded wait.
  ``Event.wait``/``queue.get`` coordination waits are out of scope by
  documented choice: they park threads, not units of work.
* **STAT005** — registry drift, the converse of STAT002/003/004: an entry
  in ``METRICS``/``HISTOGRAMS``/``WAITS`` that *no* source site ever
  charges or observes is a dead metric — a renamed counter whose registry
  entry was left behind, or a planned metric that never landed.  Either
  way dashboards comparing it read zeros forever.  Aliveness is counted
  over literal charge sites on *any* receiver (``self.observe`` inside
  the registry class counts), plus one documented derivation: every used
  wait class keeps its ``wait_counter()``-derived ``waits.<class>_us``
  counter alive.  Reads (``get``/``gauge``/``histogram``) deliberately do
  not count — observing a dead metric is how it stays unnoticed.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from repro.analyze.findings import Finding
from repro.analyze.framework import Checker, SourceModule, call_name

_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z0-9_]+)+$")

#: StatsRegistry entry points taking a counter/gauge name as first argument.
_REGISTERED_METHODS = {"add", "set_high_water"}
#: Entry points taking a histogram name (checked against HISTOGRAMS).
_HISTOGRAM_METHODS = {"observe"}
#: Entry points taking a wait-class name (checked against WAITS).
_WAIT_METHODS = {"wait_timer", "charge_wait"}
_CONVENTION_ONLY_METHODS = {"trace", "get", "gauge", "histogram"}

#: Scopes whose bare sleeps are the engine's latch-yield primitive: the
#: *callers* charge the wait (lock.wait, txn.retry_backoff), so a timer
#: here would nest and double-count.
#: Qualnames, same shape the race checkers use for entry roots.
_SLEEP_ALLOWLIST = {"DatabaseServer._latch_sleep"}

_STATSISH = re.compile(r"(^|\.|_)stats$", re.IGNORECASE)


def _is_stats_receiver(call: ast.Call) -> bool:
    func = call.func
    if not isinstance(func, ast.Attribute):
        return False
    value = func.value
    if isinstance(value, ast.Name):
        return bool(_STATSISH.search(value.id))
    if isinstance(value, ast.Attribute):
        return bool(_STATSISH.search(value.attr))
    return False


def _is_sleep_call(call: ast.Call) -> bool:
    """``time.sleep(...)`` or the engine's bare ``sleep(...)`` alias.

    Method sleeps on other receivers (``deadline.sleep(...)``) are *not*
    sleep sites: :meth:`Deadline.sleep` charges its own wait class
    internally, which is exactly why callers go through it.
    """
    func = call.func
    if isinstance(func, ast.Attribute):
        return func.attr == "sleep" and \
            isinstance(func.value, ast.Name) and func.value.id == "time"
    return isinstance(func, ast.Name) and func.id == "sleep"


def _is_wait_timer_item(expr: ast.expr) -> bool:
    return isinstance(expr, ast.Call) and \
        isinstance(expr.func, ast.Attribute) and \
        expr.func.attr == "wait_timer"


class StatsHygieneChecker(Checker):
    """STAT001-004: metric naming, registration, and wait discipline."""

    name = "stats-hygiene"
    codes = ("STAT001", "STAT002", "STAT003", "STAT004", "STAT005")
    description = ("counter/gauge/histogram names follow component.metric "
                   "and are registered in repro.core.stats METRICS / "
                   "HISTOGRAMS; wait classes are registered in WAITS, "
                   "every blocking sleep is charged to one, and no "
                   "registry entry is dead")
    code_descriptions = {
        "STAT001": "metric name violates the component.metric convention",
        "STAT002": "counter/gauge name not registered in METRICS",
        "STAT003": "histogram name not registered in HISTOGRAMS",
        "STAT004": "wait class not registered in WAITS, or a blocking "
                   "sleep outside any wait_timer",
        "STAT005": "registry entry (METRICS/HISTOGRAMS/WAITS) that no "
                   "source site ever charges or observes (dead metric)",
    }

    def __init__(self) -> None:
        self.registry: dict[str, int] | None = None
        self.histogram_registry: dict[str, int] | None = None
        self.wait_registry: dict[str, int] | None = None
        self._registry_path: str | None = None
        #: (module, call node info) of registered-method uses, checked in
        #: finish() once the registry module has been seen.
        self._uses: list[tuple[str, int, int, str, str]] = []
        self._observe_uses: list[tuple[str, int, int, str, str]] = []
        self._wait_uses: list[tuple[str, int, int, str, str]] = []
        #: literal names charged anywhere (any receiver): STAT005 aliveness
        self._alive_metrics: set[str] = set()
        self._alive_histograms: set[str] = set()
        self._alive_waits: set[str] = set()

    def check_module(self, module: SourceModule) -> Iterator[Finding]:
        if module.relpath.endswith("core/stats.py"):
            self.registry = _extract_registry(module.tree, "METRICS")
            self.histogram_registry = _extract_registry(module.tree,
                                                        "HISTOGRAMS")
            self.wait_registry = _extract_registry(module.tree, "WAITS")
            self._registry_path = module.relpath
        self._collect_aliveness(module)
        for call in module.calls():
            method = call_name(call)
            if method not in _REGISTERED_METHODS and \
                    method not in _HISTOGRAM_METHODS and \
                    method not in _WAIT_METHODS and \
                    method not in _CONVENTION_ONLY_METHODS:
                continue
            if not _is_stats_receiver(call):
                continue
            if not call.args:
                continue
            arg = call.args[0]
            if not (isinstance(arg, ast.Constant) and
                    isinstance(arg.value, str)):
                continue  # dynamic names are the registry's blind spot
            metric = arg.value
            if method in _WAIT_METHODS:
                # Wait classes are dotted but checked against WAITS, not
                # METRICS (their counters are derived via wait_counter).
                self._wait_uses.append(
                    (module.relpath, call.lineno, call.col_offset,
                     module.scope_of(call), metric))
                continue
            if not _NAME_RE.match(metric):
                yield module.finding(
                    "STAT001", self.name, call,
                    f"metric name {metric!r} violates the component.metric "
                    f"convention (lowercase dotted, >= 2 segments)",
                    detail=metric)
            elif method in _REGISTERED_METHODS:
                self._uses.append((module.relpath, call.lineno,
                                   call.col_offset, module.scope_of(call),
                                   metric))
            elif method in _HISTOGRAM_METHODS:
                self._observe_uses.append(
                    (module.relpath, call.lineno, call.col_offset,
                     module.scope_of(call), metric))
        yield from self._check_sleep_discipline(module)

    def _collect_aliveness(self, module: SourceModule) -> None:
        """STAT005 evidence: literal names charged through any receiver.

        Deliberately looser than the registration checks (no stats-receiver
        test): over-approximating aliveness can only silence a dead-metric
        report, never invent one.
        """
        for call in module.calls():
            method = call_name(call)
            if not call.args:
                continue
            arg = call.args[0]
            if not (isinstance(arg, ast.Constant)
                    and isinstance(arg.value, str)):
                continue
            if method in _REGISTERED_METHODS:
                self._alive_metrics.add(arg.value)
            elif method in _HISTOGRAM_METHODS:
                self._alive_histograms.add(arg.value)
            elif method in _WAIT_METHODS:
                self._alive_waits.add(arg.value)

    def _check_sleep_discipline(self, module: SourceModule
                                ) -> Iterator[Finding]:
        """STAT004(b): every blocking sleep runs under a wait timer."""
        covered: set[int] = set()
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.With, ast.AsyncWith)):
                continue
            if not any(_is_wait_timer_item(item.context_expr)
                       for item in node.items):
                continue
            for inner in ast.walk(node):
                if isinstance(inner, ast.Call) and _is_sleep_call(inner):
                    covered.add(id(inner))
        for call in module.calls():
            if not _is_sleep_call(call) or id(call) in covered:
                continue
            scope = module.scope_of(call)
            if scope in _SLEEP_ALLOWLIST:
                continue
            yield module.finding(
                "STAT004", self.name, call,
                f"blocking sleep in {scope or 'module scope'} is not "
                f"charged to any wait class — wrap it in "
                f"stats.wait_timer(<class>) (or add the scope to the "
                f"documented latch-yield allowlist)",
                detail=scope)

    def finish(self) -> Iterator[Finding]:
        if self.wait_registry is not None:
            for path, line, column, scope, wait_class in self._wait_uses:
                if wait_class in self.wait_registry:
                    continue
                yield Finding(
                    code="STAT004", checker=self.name, path=path, line=line,
                    column=column, scope=scope, detail=wait_class,
                    message=(f"wait class {wait_class!r} is not registered "
                             f"in repro.core.stats.WAITS — register it "
                             f"once there (or fix the typo)"))
        if self.registry is not None:
            for path, line, column, scope, metric in self._uses:
                if metric in self.registry:
                    continue
                yield Finding(
                    code="STAT002", checker=self.name, path=path, line=line,
                    column=column, scope=scope, detail=metric,
                    message=(f"metric {metric!r} is not registered in "
                             f"repro.core.stats.METRICS — register it once "
                             f"there (or fix the typo)"))
        if self.histogram_registry is not None:
            for path, line, column, scope, metric in self._observe_uses:
                if metric in self.histogram_registry:
                    continue
                yield Finding(
                    code="STAT003", checker=self.name, path=path, line=line,
                    column=column, scope=scope, detail=metric,
                    message=(f"histogram {metric!r} is not registered in "
                             f"repro.core.stats.HISTOGRAMS — register it "
                             f"once there (or fix the typo)"))
        yield from self._check_registry_drift()

    def _check_registry_drift(self) -> Iterator[Finding]:
        """STAT005: registry entries no source site ever charges."""
        if self._registry_path is None:
            return
        # Every used wait class keeps its derived microsecond counter
        # alive (wait_counter(): "waits." + class.replace(".", "_") + "_us").
        derived = {"waits." + cls.replace(".", "_") + "_us"
                   for cls in self._alive_waits}
        drift: list[tuple[str, str, int]] = []
        for metric, line in (self.registry or {}).items():
            if metric not in self._alive_metrics and metric not in derived:
                drift.append(("METRICS", metric, line))
        for metric, line in (self.histogram_registry or {}).items():
            if metric not in self._alive_histograms:
                drift.append(("HISTOGRAMS", metric, line))
        for wait_class, line in (self.wait_registry or {}).items():
            if wait_class not in self._alive_waits:
                drift.append(("WAITS", wait_class, line))
        for binding, metric, line in sorted(drift):
            yield Finding(
                code="STAT005", checker=self.name,
                path=self._registry_path, line=line, column=0,
                scope=binding, detail=metric,
                message=(f"{binding} entry {metric!r} is never charged or "
                         f"observed by any analyzed source site — a dead "
                         f"metric reads zero forever; delete the entry or "
                         f"wire up the charge site"))


def _extract_registry(tree: ast.Module, binding: str) -> dict[str, int]:
    """Literal string members of a ``<binding> = frozenset({...})``
    binding, mapped to their source line (for STAT005 reports)."""
    names: dict[str, int] = {}
    for node in ast.walk(tree):
        target_names = []
        if isinstance(node, ast.Assign):
            target_names = [t.id for t in node.targets
                            if isinstance(t, ast.Name)]
            value = node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            if isinstance(node.target, ast.Name):
                target_names = [node.target.id]
            value = node.value
        else:
            continue
        if binding not in target_names:
            continue
        for constant in ast.walk(value):
            if isinstance(constant, ast.Constant) and \
                    isinstance(constant.value, str):
                names.setdefault(constant.value, constant.lineno)
    return names
