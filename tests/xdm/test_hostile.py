"""Hostile XML input: every rejection is a typed error, the store survives.

Each malformed input must raise an error from :mod:`repro.errors` — never a
bare ``OverflowError``, ``UnicodeEncodeError``, ``IndexError`` or
``RecursionError`` — both from :func:`repro.xdm.parser.parse` and through a
:class:`~repro.serve.DatabaseServer` insert.  After every rejected insert the
value indexes still match the stored records and the next insert and query
succeed.  Oversized but well-formed documents (10⁵-wide fan-out, 3 MB text
and attribute values) are accepted; one whose value outgrows the longest
storable record is refused whole.
"""

from dataclasses import replace

import pytest

from repro.core.config import DEFAULT_CONFIG
from repro.core.engine import Database
from repro.errors import ReproError, XmlError, XmlParseError
from repro.fault.harness import verify_value_indexes
from repro.rdb.locks import LockMode
from repro.serve import DatabaseServer
from repro.xdm.events import EventKind, build_tree
from repro.xdm.parser import MAX_DEPTH, parse
from repro.xdm.serializer import serialize

SMALL = ('<?xml version="1.0"?><!--c--><p:a xmlns:p="urn:p" i="&amp;">'
         '<?t d?><p:b>x&lt;y</p:b><![CDATA[<&]]></p:a>')

ENTITY_BOMB = ('<!DOCTYPE bomb [<!ENTITY a "aaaaaaaaaa">'
               + "".join(f'<!ENTITY {chr(98 + i)} "{("&" + chr(97 + i) + ";") * 10}">'
                         for i in range(8))
               + ']><bomb>&i;</bomb>')

BAD_CHARACTERS = {
    "reference beyond unicode": "<a>&#xFFFFFFFF;</a>",
    "reference to a surrogate": "<a><b>x</b>&#xD800;</a>",
    "reference to NUL": "<a>&#0;</a>",
    "reference to a C0 control": '<a b="&#1;"/>',
    "reference to U+FFFE": "<a>&#xFFFE;</a>",
    "malformed reference": "<a>&#+65;</a>",
    "raw surrogate": "<a>\ud800</a>",
    "raw NUL": "<a>\x00</a>",
}

REJECTED = {
    **{f"truncated at {cut}": SMALL[:cut] for cut in range(len(SMALL))},
    "entity bomb": ENTITY_BOMB,
    **BAD_CHARACTERS,
}

ACCEPTED = {
    "10^5-wide fan-out": "<Product>" + "<c/>" * 100_000
                         + "<Price>3</Price></Product>",
    "3 MB text": "<Product><Name>" + "t" * 3_000_000
                 + "</Name><Price>4</Price></Product>",
    "3 MB attribute": '<Product id="' + "v" * 3_000_000
                      + '"><Price>5</Price></Product>',
}


def make_db():
    db = Database(replace(DEFAULT_CONFIG, checkpoint_interval=0))
    db.create_table("docs", [("key", "varchar"), ("doc", "xml")])
    db.create_xpath_index("by_price", "docs", "doc", "/Product/Price",
                          "double")
    return db


def insert_query_delete(session, key):
    """The next insert and query succeed; the probe row is then deleted so
    every ``verify_value_indexes`` call checks a store of the same size."""
    session.insert("docs", (key, f"<Product><Price>{key}</Price></Product>"))
    (hit,) = session.query("docs", "doc", f"/Product[Price = {key}]")

    def delete(db, txn):
        txn.lock(("table", "docs"), LockMode.IX)
        db.delete_row("docs", hit.base_rid, txn_id=txn.txn_id)

    session.run(delete)


#: Well-formed, but one value is longer than a record can be (about 4 MB on
#: 4 KiB pages): the store must refuse it whole, not keep the records and
#: index keys written before the long one.
UNSTORABLE = ("<Product><Price>9</Price><Name>" + "t" * 6_000_000
              + "</Name></Product>")


class TestParse:
    @pytest.mark.parametrize("text", list(REJECTED.values()),
                             ids=list(REJECTED))
    def test_rejected_with_a_typed_error(self, text):
        with pytest.raises(ReproError):
            parse(text)

    def test_the_untruncated_document_parses(self):
        parse(SMALL)

    @pytest.mark.parametrize("name", ["reference beyond unicode",
                                      "reference to a surrogate", "raw NUL"])
    def test_character_errors_carry_line_and_column(self, name):
        with pytest.raises(ReproError, match=r"at line 1, column \d+"):
            parse(BAD_CHARACTERS[name])


class TestServer:
    def test_every_rejection_leaves_a_working_store(self):
        db = make_db()
        with DatabaseServer(db) as server, server.session() as session:
            for key, (name, text) in enumerate(REJECTED.items()):
                with pytest.raises(ReproError):
                    session.insert("docs", (name, text))
                verify_value_indexes(db)
                insert_query_delete(session, key)
        assert db.tables["docs"].row_count == 0

    def test_unstorable_value_is_refused_whole(self):
        db = make_db()
        with DatabaseServer(db) as server, server.session() as session:
            with pytest.raises(ReproError, match="can be stored"):
                session.insert("docs", ("long", UNSTORABLE))
            verify_value_indexes(db)
            insert_query_delete(session, 1)
        assert db.value_indexes["by_price"].entry_count == 0

    def test_raw_surrogate_is_refused_before_logging(self):
        db = make_db()
        appended = len(list(db.log.records()))
        with pytest.raises(ReproError, match="UTF-8"):
            db.insert("docs", ("\ud800", SMALL))
        assert len(list(db.log.records())) == appended

    def test_oversized_well_formed_documents_are_accepted(self):
        db = make_db()
        with DatabaseServer(db) as server, server.session() as session:
            for price, (name, text) in enumerate(ACCEPTED.items(), start=3):
                session.insert("docs", (name, text))
                (hit,) = session.query("docs", "doc",
                                       f"/Product/Price[. = {price}]")
                assert hit.row[0] == name
            insert_query_delete(session, 1)
        assert db.tables["docs"].row_count == len(ACCEPTED)


class TestDepthBoundary:
    """The parser, packer and stored-record readers keep their own stacks,
    but in-memory XDM trees are still walked by recursion once per level:
    a document exactly ``MAX_DEPTH`` deep must pass every layer, subdocument
    updates included, and one level more is a positioned parse error."""

    @staticmethod
    def nested(depth, leaf="leaf"):
        return "<a>" * depth + leaf + "</a>" * depth

    def stored(self, depth, record_limit):
        """A database holding ``nested(depth)``, its updater and the
        document's element IDs, outermost first."""
        db = Database(replace(DEFAULT_CONFIG, checkpoint_interval=0,
                              record_size_limit=record_limit))
        db.create_table("docs", [("key", "varchar"), ("doc", "xml")])
        db.insert("docs", ("deep", self.nested(depth)))
        updater = db.updater("docs", "doc")
        elements = [e.node_id for e in updater.store.document(1).events()
                    if e.kind is EventKind.ELEM_START]
        return db, updater, elements

    @staticmethod
    def fragment(text):
        return [e for e in parse(text).events()
                if e.kind not in (EventKind.DOC_START, EventKind.DOC_END)]

    @pytest.mark.parametrize("record_limit", [64, 4000])
    def test_deepest_document_round_trips(self, record_limit):
        db = Database(replace(DEFAULT_CONFIG, checkpoint_interval=0,
                              record_size_limit=record_limit))
        db.create_table("docs", [("key", "varchar"), ("doc", "xml")])
        deepest = self.nested(MAX_DEPTH)
        rid = db.insert("docs", ("deep", deepest))
        db.insert("docs", ("flat", "<a>flat</a>"))
        assert len(db.xpath("docs", "doc", "//*")) == MAX_DEPTH + 1
        assert db.get_document("docs", "doc", 1) == deepest
        replayed = Database.replay(db.log, db.config)
        assert replayed.get_document("docs", "doc", 1) == deepest
        db.delete_row("docs", rid)
        assert len(db.xpath("docs", "doc", "//*")) == 1
        replayed = Database.replay(db.log, db.config)
        assert len(replayed.xpath("docs", "doc", "//*")) == 1

    @pytest.mark.parametrize("record_limit", [64, 4000])
    def test_updates_at_the_deepest_level(self, record_limit):
        db = Database(replace(DEFAULT_CONFIG, checkpoint_interval=0,
                              record_size_limit=record_limit))
        db.create_table("docs", [("key", "varchar"), ("doc", "xml")])
        db.insert("docs", ("deep", self.nested(MAX_DEPTH)))
        updater = db.updater("docs", "doc")
        events = list(updater.store.document(1).events())
        elements = [e.node_id for e in events if e.kind is EventKind.ELEM_START]
        leaf = next(e.node_id for e in events if e.kind is EventKind.TEXT)

        updater.replace_text(1, leaf, "new leaf")
        assert db.get_document("docs", "doc", 1) == \
            self.nested(MAX_DEPTH, "new leaf")
        # <b> lands at exactly MAX_DEPTH: beside the deepest <a>.
        updater.insert_subtree(1, elements[-2], self.fragment("<b>under</b>"))
        deepest = "<a>" * (MAX_DEPTH - 1) + "<a>new leaf</a><b>under</b>" \
            + "</a>" * (MAX_DEPTH - 1)
        assert db.get_document("docs", "doc", 1) == deepest
        half = MAX_DEPTH // 2
        updater.delete_node(1, elements[half])
        assert db.get_document("docs", "doc", 1) == \
            "<a>" * (half - 1) + "<a/>" + "</a>" * (half - 1)
        assert len(db.xpath("docs", "doc", "//a")) == half

    @pytest.mark.parametrize("record_limit", [64, 4000])
    def test_insert_at_the_limit_round_trips(self, record_limit):
        db, updater, elements = self.stored(MAX_DEPTH - 2, record_limit)
        # <c> lands at exactly MAX_DEPTH, two levels into the fragment.
        updater.insert_subtree(1, elements[-1],
                               self.fragment('<b x="1"><c>t</c></b>'))
        text = db.get_document("docs", "doc", 1)
        assert text == "<a>" * (MAX_DEPTH - 2) + 'leaf<b x="1"><c>t</c></b>' \
            + "</a>" * (MAX_DEPTH - 2)
        assert serialize(build_tree(parse(text))) == text

    @pytest.mark.parametrize("record_limit", [64, 4000])
    @pytest.mark.parametrize("fragment,level", [
        ("<b>under</b>", 1),           # under the deepest element
        ("<b><c/></b>", 2),            # the fragment's own child is too deep
    ])
    def test_insert_one_level_deeper_is_refused(self, record_limit,
                                                fragment, level):
        db, updater, elements = self.stored(MAX_DEPTH, record_limit)
        before = db.get_document("docs", "doc", 1)
        entries = updater.store.node_index.entry_count
        with pytest.raises(XmlError, match=f"deeper than {MAX_DEPTH}"):
            updater.insert_subtree(1, elements[-level], self.fragment(fragment))
        assert db.get_document("docs", "doc", 1) == before
        assert updater.store.node_index.entry_count == entries
        updater.store.node_index.tree.verify()

    def test_one_level_deeper_is_refused_at_the_pinned_column(self):
        db = make_db()
        with pytest.raises(XmlParseError) as err:
            db.insert("docs", ("deep", self.nested(MAX_DEPTH + 1)))
        column = 3 * MAX_DEPTH + 1  # the first start tag past the limit
        assert str(err.value).endswith(f"at line 1, column {column}")
        assert db.tables["docs"].row_count == 0
