"""Access plans (§4.3, Table 2).

The planner produces one of three plan shapes:

* **full scan** — QuickXScan over every stored document (the relational-scan
  analogue, §4.2);
* **DocID list** — "a list of unique DocIDs is returned from an XPath value
  index, and documents are then fetched by using the DocIDs" (good for small
  documents);
* **NodeID list** — index hits identify the matching *nodes*; the anchor node
  ID is derived from the value node ID and only the containing records are
  fetched (good for large documents).

Each index source is marked ``EXACT`` or ``CONTAINS`` (filtering); multiple
sources combine by DocID/NodeID ANDing or ORing.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.indexes.containment import PathRelation
from repro.indexes.manager import XPathValueIndex
from repro.lang import ast
from repro.xpath.qtree import QueryTree
from repro.xpath.quickxscan import QuickXScan


class AccessMethod(enum.Enum):
    FULL_SCAN = "scan"
    DOCID_LIST = "docid-list"
    NODEID_LIST = "nodeid-list"


@dataclass
class IndexSource:
    """One index probe: ``index.path op literal``."""

    index: XPathValueIndex
    op: str
    literal: object
    relation: PathRelation
    #: Levels between the anchor node and the value node (child-only suffix),
    #: None when not derivable — then NodeID-level access is unavailable.
    suffix_depth: int | None
    #: The literal's slot in its statement (``ast.Literal.slot``), if any.
    slot: int | None = None

    @property
    def exact(self) -> bool:
        return self.relation is PathRelation.EXACT

    def bind(self, binds: tuple) -> "IndexSource":
        """This probe with its slot's value from ``binds``."""
        if self.slot is None:
            return self
        return IndexSource(self.index, self.op, binds[self.slot],
                           self.relation, self.suffix_depth, self.slot)

    def describe(self) -> str:
        kind = "exact" if self.exact else "filtering"
        return (f"{self.index.definition.path_text} {self.op} "
                f"{self.literal!r} [{kind}]")


@dataclass
class AccessPlan:
    """The chosen access path for one XPath query."""

    method: AccessMethod
    path: ast.LocationPath
    #: ``path`` compiled for QuickXScan (the executor compiles nothing).
    query: QueryTree
    #: Conjunctive groups: candidates = AND over groups of (OR over sources).
    source_groups: list[list[IndexSource]] = field(default_factory=list)
    #: Whether index results are guaranteed-precise candidates (every source
    #: exact and the whole predicate covered); re-evaluation still extracts
    #: the result nodes but can skip no-match documents early.
    exact: bool = False
    #: The statement shape's scanner over ``query``'s nodes, which each
    #: run binds to ``query.binds``: set by ``Database.plan_xpath`` from
    #: its query cache entry, so an execution builds none.
    scan: QuickXScan | None = None

    def explain(self) -> str:
        """Human-readable plan, printed by benchmarks and examples."""
        lines = [f"access method: {self.method.value}"]
        for group in self.source_groups:
            if len(group) == 1:
                lines.append(f"  probe {group[0].describe()}")
            else:
                ors = " OR ".join(source.describe() for source in group)
                lines.append(f"  probe ({ors})")
        if len(self.source_groups) > 1:
            lines.append("  combine: ANDing")
        if self.source_groups:
            lines.append(f"  list is {'exact' if self.exact else 'filtering'}")
        return "\n".join(lines)
