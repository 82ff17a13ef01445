"""Expected answers, worked out from the generated XML with ElementTree.

Nothing here imports the engine: the oracle reads the same document text
the engine is given and answers each query text in plain Python, so a wrong
answer from any engine layer shows as a mismatch.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from dataclasses import dataclass


@dataclass(frozen=True)
class Product:
    id: str
    name: str
    price_text: str
    price: float
    discount: float
    description: str
    #: XPath string value of the ``Product`` element.
    text: str


@dataclass(frozen=True)
class DocFacts:
    """What the oracle knows about one document."""

    products: tuple[Product, ...]
    #: Nesting depth of a recursive ``<a>`` document, else 0.
    depth: int
    #: Elements + attributes + text nodes.
    nodes: int


def facts(xml_text: str) -> DocFacts:
    root = ET.fromstring(xml_text)
    nodes = 0
    for element in root.iter():
        nodes += 1 + len(element.attrib) + bool(element.text) \
            + bool(element.tail)
    products = tuple(
        Product(id=p.get("id"), name=p.findtext("ProductName"),
                price_text=p.findtext("RegPrice"),
                price=float(p.findtext("RegPrice")),
                discount=float(p.findtext("Discount")),
                description=p.findtext("Description"),
                text="".join(p.itertext()))
        for p in root.iter("Product"))
    depth = sum(1 for _ in root.iter("a"))
    return DocFacts(products, depth, nodes)


def _products(select, project):
    def answer(doc: DocFacts, _literal) -> list[str]:
        return [project(p) for p in doc.products if select(p)]
    return answer


def _nested_a(doc: DocFacts, _literal) -> list[str]:
    # <a> elements with at least two <a> ancestors (``//a//a//a``), which in
    # a single chain are also those with an <a> parent and an <a> child
    # (``//a/a[a]``); each has the leaf text as its string value.
    return ["x"] * max(doc.depth - 2, 0)


#: Fixed scan texts (the paper's Table 2 / Fig. 6 shapes the engine
#: supports and cannot answer from a value index) and how to answer them.
SCAN_QUERIES = (
    ("//Product[Discount > 0.4]/ProductName",
     _products(lambda p: p.discount > 0.4, lambda p: p.name)),
    ("/Catalog/Categories/Product[RegPrice > 450]/Description",
     _products(lambda p: p.price > 450, lambda p: p.description)),
    ("//a//a//a", _nested_a),
    ("/Catalog/Categories/Product[Discount < 0.1 and RegPrice > 100]"
     "/ProductName",
     _products(lambda p: p.discount < 0.1 and p.price > 100,
               lambda p: p.name)),
    ('//Product[contains(Description, "zulu")]/@id',
     _products(lambda p: "zulu" in p.description, lambda p: p.id)),
    ("/Catalog/Categories/Product[RegPrice > 450 or Discount > 0.45]"
     "/Description",
     _products(lambda p: p.price > 450 or p.discount > 0.45,
               lambda p: p.description)),
    ("//a/a[a]", _nested_a),
    ("//Categories/Product[Discount > 0.3][RegPrice < 200]/ProductName",
     _products(lambda p: p.discount > 0.3 and p.price < 200,
               lambda p: p.name)),
)

#: The ad-hoc scan: a fresh literal per op, so no cache holds its text.
ADHOC_QUERY = "//Product[Discount > {literal}]/ProductName"


def adhoc_answer(doc: DocFacts, literal: float) -> list[str]:
    return [p.name for p in doc.products if p.discount > literal]


def scan_expected(answer, corpus: list[tuple[int, DocFacts]],
                  literal=None) -> list[tuple[int, str]]:
    """``(document key, string value)`` per result, in document order."""
    return [(key, value) for key, doc in corpus
            for value in answer(doc, literal)]
