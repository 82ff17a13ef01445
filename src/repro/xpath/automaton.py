"""Naive streaming automaton baseline: active-state explosion (Fig. 7c).

The paper contrasts QuickXScan's stacks with "other streaming algorithms"
[17][26] whose active-state count "is potentially exponential (when a path
expression like //a//a//a matches with a document with recursively nested a
elements)".  This evaluator reproduces that behaviour faithfully: every
partial match is tracked as its own runtime instance and instances are never
merged, so recursive data multiplies them — experiment E5a plots the peak
instance count against QuickXScan's O(|Q|·r).

Only predicate-free linear paths are supported (the comparison workloads
need no more).
"""

from __future__ import annotations

from typing import Iterable

from repro.core.stats import StatsRegistry, default_stats
from repro.errors import ExecutionError, XPathUnsupportedError
from repro.lang import ast
from repro.lang.parser import parse_xpath
from repro.xdm.events import EventKind, SaxEvent
from repro.xpath.values import Item


class _Instance:
    """One partial match: the next step to satisfy and where."""

    __slots__ = ("next_step", "min_depth", "exact")

    def __init__(self, next_step: int, min_depth: int, exact: bool) -> None:
        self.next_step = next_step
        self.min_depth = min_depth
        self.exact = exact


class NaiveStreamEvaluator:
    """Per-instance NFA evaluation without state merging."""

    def __init__(self, path: ast.LocationPath | str,
                 stats: StatsRegistry | None = None) -> None:
        self.stats = default_stats(stats)
        if isinstance(path, str):
            parsed = parse_xpath(path)
            if not isinstance(parsed, ast.LocationPath):
                raise ExecutionError(f"{path!r} is not a location path")
            path = parsed
        self.steps = self._compile(path)
        self.peak_instances = 0

    @staticmethod
    def _compile(path: ast.LocationPath) -> list[tuple[str, ast.NameTest]]:
        steps = []
        for step in path.steps:
            if step.predicates:
                raise XPathUnsupportedError(
                    "the naive automaton baseline supports predicate-free "
                    "paths only")
            if not isinstance(step.test, ast.NameTest):
                raise XPathUnsupportedError(
                    "the naive automaton baseline supports name tests only")
            if step.axis is ast.Axis.CHILD:
                steps.append(("child", step.test))
            elif step.axis is ast.Axis.DESCENDANT:
                steps.append(("descendant", step.test))
            elif step.axis is ast.Axis.ATTRIBUTE:
                steps.append(("attribute", step.test))
            else:
                raise XPathUnsupportedError(
                    f"axis {step.axis.value!r} in the automaton baseline")
        if not steps:
            raise XPathUnsupportedError("empty path")
        return steps

    def run(self, events: Iterable[SaxEvent]) -> list[Item]:
        steps = self.steps
        instances: list[_Instance] = [
            _Instance(0, 0, steps[0][0] == "child")]
        spawned_at_depth: list[list[_Instance]] = []
        matches: dict[object, Item] = {}
        depth = -1
        order = 0
        peak = 1

        def try_advance(instance: _Instance, node_depth: int, kind: str,
                        local: str, uri: str, node_id, value: str | None,
                        new_instances: list[_Instance]) -> None:
            nonlocal order
            axis, test = steps[instance.next_step]
            if axis == "attribute":
                if kind != "attribute":
                    return
            elif kind != "element":
                return
            if instance.exact and node_depth != instance.min_depth:
                return
            if not instance.exact and node_depth < instance.min_depth:
                return
            if not test.matches(local, uri):
                return
            following = instance.next_step + 1
            if following == len(steps):
                key = node_id if node_id is not None else order
                matches.setdefault(key, Item(order, node_id, kind, local,
                                             value))
                return
            next_axis = steps[following][0]
            new_instances.append(_Instance(
                following, node_depth + 1, next_axis == "child"))

        for event in events:
            order += 1
            if event.kind is EventKind.ELEM_START:
                depth += 1
                new_instances: list[_Instance] = []
                for instance in instances:
                    try_advance(instance, depth, "element", event.local,
                                event.uri, event.node_id, None, new_instances)
                instances.extend(new_instances)
                spawned_at_depth.append(new_instances)
                peak = max(peak, len(instances))
            elif event.kind is EventKind.ATTR:
                sink: list[_Instance] = []
                for instance in instances:
                    try_advance(instance, depth + 1, "attribute", event.local,
                                event.uri, event.node_id, event.value, sink)
                # Attribute steps are terminal in the supported subset;
                # anything spawned here could never match and is dropped.
            elif event.kind is EventKind.ELEM_END:
                dead = spawned_at_depth.pop()
                if dead:
                    dead_set = set(map(id, dead))
                    instances = [i for i in instances
                                 if id(i) not in dead_set]
                depth -= 1
        self.peak_instances = peak
        self.stats.set_high_water("automaton.peak_instances", peak)
        return sorted(matches.values(), key=lambda item: item.order)


def evaluate_naive(path: ast.LocationPath | str,
                   events: Iterable[SaxEvent],
                   stats: StatsRegistry | None = None) -> list[Item]:
    """One-shot naive-automaton evaluation."""
    return NaiveStreamEvaluator(path, stats=stats).run(events)
