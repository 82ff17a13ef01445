"""The four served workloads: set-up, op streams, oracle checks, end checks.

A workload preloads its corpus into a fresh engine, then hands each closed-
loop client an endless, seeded stream of :class:`Op`.  The harness times
``op.call(session)`` and nothing else; ``op.settle(result)`` compares the
answer with the oracle (and lets the client note what was acknowledged)
outside the timed call.  ``finish`` makes the end-of-run checks on the
engine itself.

Sizes are the issue's halved, pool included, so that the driver's 92 runs
fit its time cap even when the sandbox runs at a third of its speed: a
256 KiB buffer pool, a point-query and mixed corpus of 300 documents
(~0.45 MB of text, ~0.6 MB stored, 2.3x the pool) and a scan corpus of
16 catalog + 4 recursive documents (fits the pool).
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

from repro.core.config import EngineConfig
from repro.core.engine import Database
from repro.query.plan import AccessMethod
from repro.rdb.locks import LockMode
from repro.rdb.wal import LogManager
from repro.workload import generator

from bench import oracle

TABLE = "catalog"
COLUMN = "doc"
PRODUCTS = 8
PRODUCT = "/Catalog/Categories/Product"
INDEXES = (("ix_price", f"{PRODUCT}/RegPrice", "double"),
           ("ix_id", f"{PRODUCT}/@id", "varchar"))
#: Description lengths a document cycles through when it is replaced.
VERSIONS = 3

OUT_DIR = Path(__file__).resolve().parent / "out"


def engine_config(nproc: int) -> EngineConfig:
    """The fixed engine settings of every workload (see bench/README.md)."""
    return EngineConfig(buffer_pool_pages=64, checkpoint_interval=256,
                        txn_group_commit=False, ckpt_background=False,
                        serve_workers=min(2, nproc))


def create_schema(db: Database) -> None:
    db.create_table(TABLE, [("id", "BIGINT"), (COLUMN, "XML")])
    for name, path, key_type in INDEXES:
        db.create_xpath_index(name, TABLE, COLUMN, path, key_type)


@dataclass
class Op:
    kind: str                                   # query | insert | replace
    call: Callable[[object], object]            # session -> engine result
    settle: Callable[[object], bool]            # result -> matches oracle
    user_bytes: int = 0                         # XML text submitted
    user_nodes: int = 0


def _answers(results) -> list[tuple[int, str]]:
    """``(document key, string value)`` of each query result, in order."""
    return [(r.row[0], r.match.item.value) for r in results]


class Workload:
    name = ""
    #: Ops after which the counters that must repeat exactly are read; the
    #: timed loop never stops before them, so every run has >= 400 samples.
    fixed_ops = 400

    def __init__(self, seed: int, scale: int) -> None:
        self.seed = seed
        self.scale = scale          # 1, or 50 under --quick
        self.fixed_ops = max(8, self.fixed_ops // scale)
        self.setup_bytes = 0

    def clients(self, nproc: int) -> int:
        return 1

    def text(self, key: int, version: int = 0) -> str:
        return generator.catalog_document(
            PRODUCTS, seed=self.seed * 1_000_000 + key,
            description_words=6 + version % VERSIONS)

    def load(self, db: Database, key: int, text: str) -> oracle.DocFacts:
        db.insert(TABLE, (key, text))
        self.setup_bytes += len(text)
        return oracle.facts(text)

    def preload(self, db: Database) -> None:
        """Insert the corpus and build the oracle (part of ``setup_s``)."""

    def client(self, index: int, clients: int) -> Iterator[Op]:
        raise NotImplementedError

    def finish(self, db: Database, server) -> tuple[int, int, dict]:
        """End-of-run checks: ``(checked, failed, extra numbers)``."""
        return 0, 0, {}


def _stored_rows(db: Database) -> dict[int, list[int]]:
    """Document key -> DocIDs of its rows in the base table."""
    rows: dict[int, list[int]] = {}
    for row in db.tables[TABLE].scan():
        rows.setdefault(row[0], []).append(row[1])
    return rows


class Ingest(Workload):
    name = "ingest"
    why = ("1 client, auto-commit inserts of 8-product documents into an "
           "empty table: parser, packer, index keys, B-tree inserts and a "
           "forced WAL do the work; the query layers do none")
    fixed_ops = 400

    def __init__(self, seed: int, scale: int) -> None:
        super().__init__(seed, scale)
        self.acked: list[int] = []

    def client(self, index: int, clients: int) -> Iterator[Op]:
        key = 0
        while True:
            text = self.text(key)
            yield Op("insert",
                     lambda s, row=(key, text): s.insert(TABLE, row),
                     lambda rid, key=key: self._acknowledge(key),
                     len(text), oracle.facts(text).nodes)
            key += 1

    def _acknowledge(self, key: int) -> bool:
        self.acked.append(key)
        return True

    def finish(self, db, server):
        """Crash check: save the durable WAL prefix with one insert in
        flight, replay it into a fresh engine, compare with what was acked."""
        in_flight = len(self.acked) + 1_000_000
        session = server.session()
        session.begin()
        session.execute(lambda db_, txn: db_.insert(
            TABLE, (in_flight, self.text(in_flight)), txn_id=txn.txn_id))
        OUT_DIR.mkdir(exist_ok=True)
        wal_path = OUT_DIR / f"ingest-{self.seed}.wal"
        with db.latch:
            db.log.save(str(wal_path))
        session.rollback()
        session.close()
        started = time.perf_counter()
        try:
            recovered = Database.replay(LogManager.load(str(wal_path)),
                                        db.config)
        finally:
            wal_path.unlink()
        replay_s = time.perf_counter() - started
        rows = _stored_rows(recovered)
        failed = int(in_flight in rows)
        for key in self.acked:
            docids = rows.get(key, [])
            if len(docids) != 1 or recovered.get_document(
                    TABLE, COLUMN, docids[0]) != self.text(key):
                failed += 1
        return len(self.acked) + 1, failed, {
            "replay_docs_per_s": len(rows) / replay_s}


class PointQuery(Workload):
    name = "point_query"
    why = ("1 client, indexed lookups by @id (every 4th by RegPrice), keys "
           "uniform over a corpus 2.3x the buffer pool, every text distinct: "
           "XPath parse, planner, B-tree probe, buffer misses, node fetch")
    fixed_ops = 1000
    docs = 300

    def preload(self, db: Database) -> None:
        self.docs = max(12, self.docs // min(self.scale, 10))
        self.facts = [self.load(db, key, self.text(key))
                      for key in range(self.docs)]
        self.by_price: dict[float, list[tuple[int, str]]] = {}
        for key, doc in enumerate(self.facts):
            for product in doc.products:
                self.by_price.setdefault(product.price, []).append(
                    (key, product.text))

    def client(self, index: int, clients: int) -> Iterator[Op]:
        rng = random.Random(f"{self.name}-{self.seed}-{index}")
        for i in itertools.count():
            key = rng.randrange(self.docs)
            product = self.facts[key].products[rng.randrange(PRODUCTS)]
            if i % 4 == 3:
                path = f"{PRODUCT}[RegPrice = {product.price_text}]"
                expected = self.by_price[product.price]
            else:
                path = f'{PRODUCT}[@id = "{product.id}"]'
                expected = [(key, product.text)]
            yield Op("query",
                     lambda s, path=path: s.query(TABLE, COLUMN, path),
                     lambda results, expected=expected:
                         _answers(results) == expected)


class ScanQuery(Workload):
    name = "scan_query"
    why = ("1 client, eight unindexable XPath texts rotated (plans and query "
           "trees cached) plus every 4th op an ad-hoc literal, over a corpus "
           "that fits the pool: stored-record traversal feeding QuickXScan")
    fixed_ops = 400
    catalogs = 16
    recursive = 4

    def preload(self, db: Database) -> None:
        shrink = min(self.scale, 4)
        self.corpus: list[tuple[int, oracle.DocFacts]] = []
        for key in range(self.catalogs // shrink):
            self.corpus.append((key, self.load(db, key, self.text(key))))
        for i in range(self.recursive // shrink):
            key = 1000 + i
            text = generator.recursive_document(24 + 2 * i)
            self.corpus.append((key, self.load(db, key, text)))
        self.fixed = []
        for path, answer in oracle.SCAN_QUERIES:
            method = db.plan_xpath(TABLE, COLUMN, path).method
            if method is not AccessMethod.FULL_SCAN:
                raise RuntimeError(f"{path!r} plans as {method}, not a scan")
            self.fixed.append(
                (path, oracle.scan_expected(answer, self.corpus)))

    def client(self, index: int, clients: int) -> Iterator[Op]:
        turn = 0
        for i in itertools.count():
            if i % 4 == 3:
                literal = f"{0.4 + i * 1e-6:.6f}"
                path = oracle.ADHOC_QUERY.format(literal=literal)
                expected = oracle.scan_expected(
                    oracle.adhoc_answer, self.corpus, float(literal))
            else:
                path, expected = self.fixed[turn % len(self.fixed)]
                turn += 1
            yield Op("query",
                     lambda s, path=path: s.query(TABLE, COLUMN, path),
                     lambda results, expected=expected:
                         _answers(results) == expected)


class Mixed(PointQuery):
    name = "mixed_2c"
    why = ("min(2, nproc) clients over the point-query corpus: 70% indexed "
           "reads (80% of them to a hot 20% of documents), 15% inserts, 15% "
           "document replaces in one transaction: the layers used together")
    fixed_ops = 200
    hot_share = 0.2

    def clients(self, nproc: int) -> int:
        return min(2, nproc)

    def preload(self, db: Database) -> None:
        super().preload(db)
        #: key -> version acknowledged last (a client writes only keys it owns)
        self.version = {key: 0 for key in range(self.docs)}
        self.inserted: list[int] = []
        self._products: dict[tuple[int, int], tuple] = {
            (key, 0): doc.products for key, doc in enumerate(self.facts)}

    def _product_text(self, key: int, version: int, j: int) -> str:
        slot = (key, version % VERSIONS)
        if slot not in self._products:
            self._products[slot] = oracle.facts(
                self.text(key, version)).products
        return self._products[slot][j].text

    def client(self, index: int, clients: int) -> Iterator[Op]:
        rng = random.Random(f"{self.name}-{self.seed}-{index}")
        hot = max(1, int(self.docs * self.hot_share))
        owned = range(index, self.docs, clients)
        next_key = self.docs + index
        while True:
            # Every block of 20 ops holds the mix exactly, in seeded order, so
            # short runs of different seeds do the same amount of each kind.
            block = ["query"] * 14 + ["insert"] * 3 + ["replace"] * 3
            rng.shuffle(block)
            for kind in block:
                if kind == "query":
                    key = rng.randrange(hot) if rng.random() < 0.8 \
                        else rng.randrange(self.docs)
                    yield self._read(key, rng.randrange(PRODUCTS),
                                     key % clients == index)
                elif kind == "insert":
                    yield self._insert(next_key)
                    next_key += clients
                else:
                    yield self._replace(owned[rng.randrange(len(owned))])

    def _read(self, key: int, j: int, owned: bool) -> Op:
        product_id = self.facts[key].products[j].id
        path = f'{PRODUCT}[@id = "{product_id}"]'

        def settle(results) -> bool:
            # Another client may be replacing a document this one does not
            # own, so any of its versions is a right answer.
            versions = [self.version[key]] if owned else range(VERSIONS)
            return len(results) == 1 and results[0].row[0] == key and \
                results[0].match.item.value in {
                    self._product_text(key, v, j) for v in versions}

        return Op("query", lambda s: s.query(TABLE, COLUMN, path), settle)

    def _insert(self, key: int) -> Op:
        text = self.text(key)
        def settle(rid) -> bool:
            self.inserted.append(key)
            return True

        return Op("insert", lambda s: s.insert(TABLE, (key, text)), settle,
                  len(text), oracle.facts(text).nodes)

    def _replace(self, key: int) -> Op:
        version = self.version[key] + 1
        text = self.text(key, version)
        path = f'{PRODUCT}[@id = "{self.facts[key].products[0].id}"]'

        def body(db: Database, txn):
            txn.lock(("table", TABLE), LockMode.IX)
            txn.lock(("doc", key), LockMode.X)
            (old,) = db.xpath(TABLE, COLUMN, path)
            db.delete_row(TABLE, old.base_rid, txn_id=txn.txn_id)
            return db.insert(TABLE, (key, text), txn_id=txn.txn_id)

        def settle(rid) -> bool:
            self.version[key] = version
            return True

        return Op("replace", lambda s: s.run(body, label="replace"), settle,
                  len(text), oracle.facts(text).nodes)

    def finish(self, db, server):
        """Every acknowledged document is stored exactly once, in the last
        version acknowledged, and nothing of a replaced version is left."""
        live = dict(self.version)
        live.update((key, 0) for key in self.inserted)
        with db.latch:
            rows = _stored_rows(db)
            failed = len(set(rows) ^ set(live))
            for key, version in live.items():
                docids = rows.get(key, [])
                if len(docids) != 1 or db.get_document(
                        TABLE, COLUMN, docids[0]) != self.text(key, version):
                    failed += 1
            store = db.xml_stores[(TABLE, COLUMN)]
            failed += store.document_count != len(live)
            for name, _path, _type in INDEXES:
                entries = db.value_indexes[name].entry_count
                failed += entries != PRODUCTS * len(live)
        return len(live) + 3, failed, {}


WORKLOADS = {cls.name: cls for cls in (Ingest, PointQuery, ScanQuery, Mixed)}
