"""Golden rendered output: report text and EXPLAIN ANALYZE.

One fixed single-threaded workload (transactional inserts, an aborted
transaction, slow queries, an index-driven EXPLAIN ANALYZE) is rendered
two ways and compared byte for byte with the files under ``golden/``.
The instrumentation can be restructured freely underneath; what operators
read must not move.

Wall-clock ``waits.*`` charges are not deterministic (buffer I/O timers
measure real microseconds) and are normalized away before the comparison.

Regenerate the files after a deliberate output change with::

    PYTHONPATH=src python tests/obs/test_golden_outputs.py
"""

from __future__ import annotations

import re
from pathlib import Path

from repro.core.config import EngineConfig
from repro.core.engine import Database
from repro.obs.report import metrics_to_dict, render_artifact
from repro.query.plan import AccessMethod

GOLDEN = Path(__file__).resolve().parent / "golden"

_VOLATILE = ("waits.",)


def _document(i: int) -> str:
    items = "".join(f"<item n='{j}'><price>{(i * 7 + j) % 90 + 10}</price>"
                    f"</item>" for j in range(1 + i % 4))
    return f"<order id='{i}'><customer>c{i % 3}</customer>{items}</order>"


def golden_workload() -> tuple[Database, str]:
    """The fixed workload; returns the engine and its EXPLAIN text."""
    db = Database(EngineConfig(buffer_pool_pages=8, record_size_limit=256,
                               slow_query_events=40))
    db.create_table("orders", [("id", "bigint"), ("doc", "xml")])
    db.create_xpath_index("price_ix", "orders", "doc",
                          "/order/item/price", "double")
    for i in range(12):
        db.run_in_txn(lambda eng, txn, i=i: eng.insert(
            "orders", (i, _document(i)), txn_id=txn.txn_id))
    loser = db.txns.begin()
    db.insert("orders", (99, _document(99)), txn_id=loser.txn_id)
    loser.abort()
    db.xpath("orders", "doc", "/order/customer")
    db.xpath("orders", "doc", "/order/item[price > 50]",
             method=AccessMethod.DOCID_LIST)
    explain = db.explain_analyze("orders", "doc", "/order/item[price > 50]",
                                 method=AccessMethod.NODEID_LIST)
    return db, _strip_span_waits(explain.format())


def _strip_span_waits(text: str) -> str:
    def keep(match: re.Match[str]) -> str:
        tokens = [token for token in match.group(1).split()
                  if not token.startswith(_VOLATILE)]
        return f" [{' '.join(tokens)}]" if tokens else ""
    return re.sub(r" \[([^\]]*)\]", keep, text)


def render_all() -> dict[str, str]:
    """The two renderings, normalized, keyed by golden file name."""
    db, explain = golden_workload()
    artifact = metrics_to_dict(db.stats)
    artifact["counters"] = {
        name: value for name, value in artifact["counters"].items()
        if not name.startswith(_VOLATILE)}
    artifact["histograms"] = {
        name: value for name, value in artifact["histograms"].items()
        if not name.startswith(_VOLATILE)}
    return {
        "report.txt": render_artifact(artifact, title="golden") + "\n",
        "explain.txt": explain + "\n",
    }


def test_rendered_outputs_match_golden_files():
    rendered = render_all()
    for name, text in rendered.items():
        assert text == (GOLDEN / name).read_text(encoding="utf-8"), name


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, text in render_all().items():
        (GOLDEN / name).write_text(text, encoding="utf-8")
        print(f"wrote {GOLDEN / name}")
