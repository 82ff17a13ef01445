"""Tests for schema parsing, compilation (DFAs), and the validation VM."""

import pytest

from repro.errors import SchemaError, XmlValidationError
from repro.xschema.compiler import (compile_parsed, compile_schema,
                                    deserialize_compiled,
                                    serialize_compiled)
from repro.xschema.model import parse_schema
from repro.xschema.validator import ValidationVM, check_lexical, validate_text

ORDER_XSD = """
<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="order" type="OrderType"/>
  <xs:complexType name="OrderType">
    <xs:sequence>
      <xs:element name="customer" type="xs:string"/>
      <xs:element name="item" type="ItemType" minOccurs="1"
                  maxOccurs="unbounded"/>
      <xs:element name="note" type="xs:string" minOccurs="0"/>
    </xs:sequence>
    <xs:attribute name="id" type="xs:integer" use="required"/>
    <xs:attribute name="date" type="xs:date"/>
  </xs:complexType>
  <xs:complexType name="ItemType">
    <xs:sequence>
      <xs:element name="sku" type="xs:string"/>
      <xs:element name="qty" type="xs:integer"/>
      <xs:element name="price" type="xs:double"/>
    </xs:sequence>
  </xs:complexType>
  <xs:element name="customer" type="xs:string"/>
  <xs:element name="item" type="ItemType"/>
  <xs:element name="note" type="xs:string"/>
  <xs:element name="sku" type="xs:string"/>
  <xs:element name="qty" type="xs:integer"/>
  <xs:element name="price" type="xs:double"/>
</xs:schema>
"""

VALID_ORDER = """
<order id="42" date="2005-06-16">
  <customer>ACME</customer>
  <item><sku>A-1</sku><qty>2</qty><price>9.99</price></item>
  <item><sku>B-2</sku><qty>1</qty><price>100</price></item>
  <note>rush</note>
</order>
"""


class TestSchemaModel:
    def test_parses(self):
        schema = parse_schema(ORDER_XSD)
        assert "order" in schema.elements
        assert "OrderType" in schema.types
        order_type = schema.types["OrderType"]
        assert len(order_type.attributes) == 2
        assert order_type.attributes[0].required

    def test_unknown_type_rejected(self):
        bad = """<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
                 <xs:element name="a" type="Missing"/></xs:schema>"""
        with pytest.raises(SchemaError):
            parse_schema(bad)

    def test_bad_root(self):
        with pytest.raises(SchemaError):
            parse_schema("<notschema/>")

    def test_occurs_validation(self):
        bad = """<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
                 <xs:complexType name="T"><xs:sequence>
                 <xs:element name="a" minOccurs="3" maxOccurs="2"/>
                 </xs:sequence></xs:complexType></xs:schema>"""
        with pytest.raises(SchemaError):
            parse_schema(bad)

    def test_inline_complex_type(self):
        text = """<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
          <xs:element name="root"><xs:complexType><xs:sequence>
            <xs:element name="leaf" type="xs:string"/>
          </xs:sequence></xs:complexType></xs:element>
        </xs:schema>"""
        schema = parse_schema(text)
        assert schema.elements["root"].type_name.startswith("#anon")
        assert "leaf" in schema.elements


class TestCompiler:
    def test_binary_roundtrip(self):
        compiled = compile_parsed(parse_schema(ORDER_XSD))
        blob = serialize_compiled(compiled)
        reloaded = deserialize_compiled(blob)
        assert reloaded.elements == compiled.elements
        order = reloaded.types["OrderType"]
        assert order.dfa is not None
        assert [a[0] for a in order.attributes] == ["id", "date"]

    def test_blob_magic_checked(self):
        with pytest.raises(SchemaError):
            deserialize_compiled(b"garbage")

    def test_dfa_semantics(self):
        compiled = compile_parsed(parse_schema(ORDER_XSD))
        dfa = compiled.types["OrderType"].dfa
        state = dfa.start
        assert not dfa.accepts_empty_tail(state)
        state = dfa.step(state, "customer")
        state = dfa.step(state, "item")
        assert dfa.accepts_empty_tail(state)      # one item suffices
        state = dfa.step(state, "item")
        assert dfa.accepts_empty_tail(state)      # unbounded
        state = dfa.step(state, "note")
        assert dfa.accepts_empty_tail(state)
        assert dfa.step(state, "note") is None    # note only once

    def test_choice_dfa(self):
        text = """<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
          <xs:element name="pay" type="PayType"/>
          <xs:complexType name="PayType"><xs:choice>
            <xs:element name="cash" type="xs:string"/>
            <xs:element name="card" type="xs:string"/>
          </xs:choice></xs:complexType>
          <xs:element name="cash" type="xs:string"/>
          <xs:element name="card" type="xs:string"/>
        </xs:schema>"""
        compiled = compile_parsed(parse_schema(text))
        dfa = compiled.types["PayType"].dfa
        for symbol in ("cash", "card"):
            state = dfa.step(dfa.start, symbol)
            assert state is not None and dfa.accepts_empty_tail(state)


class TestValidator:
    @pytest.fixture
    def blob(self):
        return compile_schema(ORDER_XSD)

    def test_valid_document(self, blob):
        stream = validate_text(blob, VALID_ORDER)
        annotated = dict()
        for event, annotation in stream.annotated_events():
            if annotation and event.local:
                annotated.setdefault(event.local, annotation)
        assert annotated["order"] == "OrderType"
        assert annotated["item"] == "ItemType"
        assert annotated["qty"] == "integer"
        assert annotated["id"] == "integer"

    @pytest.mark.parametrize("mutate,message", [
        (lambda t: t.replace('id="42" ', ""), "required attribute"),
        (lambda t: t.replace('id="42"', 'id="abc"'), "not a valid integer"),
        (lambda t: t.replace('date="2005-06-16"', 'date="June"'),
         "not a valid date"),
        (lambda t: t.replace("<customer>ACME</customer>", ""),
         "unexpected <item>"),
        (lambda t: t.replace("<note>rush</note>",
                             "<note>a</note><note>b</note>"),
         "unexpected <note>"),
        (lambda t: t.replace("<qty>2</qty>", "<qty>two</qty>"),
         "not a valid integer"),
        (lambda t: t.replace("<sku>A-1</sku>", "<mystery/>"),
         "unexpected <mystery>"),
        (lambda t: t.replace("<order", "<bogus").replace("</order>",
                                                         "</bogus>"),
         "not declared"),
    ])
    def test_rejections(self, blob, mutate, message):
        with pytest.raises(XmlValidationError) as err:
            validate_text(blob, mutate(VALID_ORDER))
        assert message in str(err.value)

    def test_incomplete_content(self, blob):
        truncated = ('<order id="1"><customer>X</customer></order>')
        with pytest.raises(XmlValidationError) as err:
            validate_text(blob, truncated)
        assert "before its content model" in str(err.value)

    def test_text_in_element_only_content(self, blob):
        bad = VALID_ORDER.replace(
            "<customer>ACME</customer>",
            "loose text<customer>ACME</customer>")
        with pytest.raises(XmlValidationError):
            validate_text(blob, bad)

    def test_vm_accepts_blob_or_object(self, blob):
        compiled = deserialize_compiled(blob)
        for vm in (ValidationVM(blob), ValidationVM(compiled)):
            vm.validate_events(
                __import__("repro.xdm.parser", fromlist=["parse"])
                .parse(VALID_ORDER, strip_whitespace=True).events())

    def test_check_lexical(self):
        assert check_lexical("integer", " 42 ")
        assert not check_lexical("integer", "4.2")
        assert check_lexical("double", "1e3")
        assert check_lexical("decimal", "1.50")
        assert not check_lexical("decimal", "x")
        assert check_lexical("date", "2005-06-16")
        assert check_lexical("boolean", "true")
        assert not check_lexical("boolean", "yes")
        assert check_lexical("string", "anything")


class TestEngineIntegration:
    def test_validated_insert(self):
        from repro.core.engine import Database
        db = Database()
        db.create_table("orders", [("doc", "xml")])
        db.register_schema("order.xsd", ORDER_XSD)
        db.insert("orders", (VALID_ORDER,), validate_against="order.xsd")
        assert db.get_document("orders", "doc", 1).count("<item>") == 2

    def test_invalid_insert_rejected(self):
        from repro.core.engine import Database
        db = Database()
        db.create_table("orders", [("doc", "xml")])
        db.register_schema("order.xsd", ORDER_XSD)
        with pytest.raises(XmlValidationError):
            db.insert("orders", ("<order id='1'/>",),
                      validate_against="order.xsd")

    def test_invalid_document_is_refused_before_the_log(self):
        from repro.core.engine import Database
        db = Database()
        db.create_table("orders", [("doc", "xml")])
        db.register_schema("order.xsd", ORDER_XSD)
        wal_records = db.stats.get("wal.records")
        with pytest.raises(XmlValidationError):
            db.insert("orders", ("<order id='1'/>",),
                      validate_against="order.xsd")
        assert db.stats.get("wal.records") == wal_records
        db.insert("orders", (VALID_ORDER,), validate_against="order.xsd")
        replayed = Database.replay(db.log)
        assert replayed.get_document("orders", "doc", 1) == \
            db.get_document("orders", "doc", 1)

    def test_schema_survives_recovery(self):
        from repro.core.engine import Database
        db = Database()
        db.create_table("orders", [("doc", "xml")])
        db.register_schema("order.xsd", ORDER_XSD)
        db.insert("orders", (VALID_ORDER,), validate_against="order.xsd")
        replayed = Database.replay(db.log)
        assert replayed.catalog.schema("order.xsd") == \
            db.catalog.schema("order.xsd")
        assert replayed.get_document("orders", "doc", 1) == \
            db.get_document("orders", "doc", 1)
