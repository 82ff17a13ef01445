"""Shared fixtures for xmlstore tests."""

import pytest

from repro.core.stats import StatsRegistry
from repro.rdb.buffer import BufferPool
from repro.rdb.storage import Disk
from repro.xdm.names import NameTable
from repro.xmlstore.store import XmlStore


@pytest.fixture
def stats():
    return StatsRegistry()


@pytest.fixture
def pool(stats):
    pool = BufferPool(Disk(page_size=4096, stats=stats), capacity=128)
    yield pool
    # Every xmlstore test must drain its pins; a leak fails the leaking
    # test directly.
    pool.assert_unpinned()


@pytest.fixture
def names():
    return NameTable()


@pytest.fixture
def store(pool, names):
    """A store with a small record limit so packing actually happens."""
    return XmlStore(pool, names, record_limit=48)


@pytest.fixture
def big_store(pool, names):
    """A store whose record limit keeps small documents in one record."""
    return XmlStore(pool, names, record_limit=4000, name="big")


CATALOG_XML = (
    '<Catalog>'
    '<Categories>'
    '<Product id="p1"><ProductName>Widget</ProductName>'
    '<RegPrice>120.5</RegPrice><Discount>0.15</Discount></Product>'
    '<Product id="p2"><ProductName>Gadget</ProductName>'
    '<RegPrice>80</RegPrice><Discount>0.05</Discount></Product>'
    '</Categories>'
    '</Catalog>'
)


@pytest.fixture
def catalog_xml():
    return CATALOG_XML
