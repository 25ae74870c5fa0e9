"""Generated write/snapshot/GC interleavings on every indexed store.

A hypothesis state machine drives one store — ``Table`` (row and column
storage), ``GraphStore``, ``TinkerGraphProvider`` or ``titan_berkeley()``
— and a plain-dict model of the same records side by side.  Steps insert
records with and without the indexed value and under another label,
update the indexed value (to and from NULL) or another property, delete,
open and release one held snapshot, and run the version collector.
After every step each index probe the store has (``lookup``,
``lookup_batch``, ``range_lookup``) must agree with the model, both for
the current state and for the state the held snapshot began with.  The
model knows nothing of versions or index entries: it keeps the records
and copies them when a snapshot begins.
"""

from __future__ import annotations

from typing import Any

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.graphdb.store import GraphStore
from repro.relational.table import Table
from repro.storage.buffer import BufferPool, DiskManager
from repro.storage.codec import ColumnType
from repro.tinkerpop.inmemory import TinkerGraphProvider
from repro.titan.graph import titan_berkeley
from repro.txn import oracle

LABEL, OTHER = "Person", "Org"
CITIES = ["Berlin", "Leipzig", "Zagreb"]
#: (lo, hi, hi_inclusive) range probes over the indexed city
RANGES = [("A", "Z", True), ("L", "M", True), ("Berlin", "Leipzig", False)]

labels = st.sampled_from([LABEL, LABEL, OTHER])
cities = st.sampled_from([*CITIES, None])
names = st.sampled_from(["a", "b", "a-longer-name-that-grows-the-row"])


class TableAdapter:
    """A relation with a btree on ``city``; every row is in the index."""

    indexed_label = None  # no labels: the label becomes a plain column
    deletes = True

    def __init__(self, storage: str) -> None:
        pool = None
        if storage == "row":
            pool = BufferPool(DiskManager(), capacity=64)
        self.store = Table(
            "person",
            [
                ("id", ColumnType.INT),
                ("kind", ColumnType.TEXT),
                ("city", ColumnType.TEXT),
                ("name", ColumnType.TEXT),
            ],
            primary_key="id",
            storage=storage,
            pool=pool,
        )
        self.store.create_index("city", method="btree")
        self.handles: dict[int, Any] = {}

    def insert(self, rid: int, label: str, city: Any, name: str) -> None:
        self.handles[rid] = self.store.insert((rid, label, city, name))

    def update(self, rid: int, prop: str, value: Any) -> None:
        self.handles[rid] = self.store.update(self.handles[rid], {prop: value})

    def delete(self, rid: int) -> None:
        self.store.delete(self.handles.pop(rid))

    def _ids(self, handles: Any) -> list[int]:
        # the id column never changes, so it names a row in any view
        return sorted(self.store.fetch(h)[0] for h in handles)

    def lookup(self, city: str) -> list[int]:
        return self._ids(self.store.lookup("city", city))

    def lookup_batch(self, probe: list[str]) -> dict[str, list[int]]:
        return {
            city: self._ids(handles)
            for city, handles in self.store.lookup_batch("city", probe).items()
        }

    def range_lookup(self, lo: str, hi: str, inclusive: bool) -> list[int]:
        return self._ids(
            self.store.range_lookup("city", lo, hi, hi_inclusive=inclusive)
        )


class GraphStoreAdapter:
    indexed_label = LABEL
    deletes = True

    def __init__(self) -> None:
        self.store = GraphStore()
        self.store.create_index(LABEL, "city")
        self.nodes: dict[int, int] = {}
        self.ids: dict[int, int] = {}

    def insert(self, rid: int, label: str, city: Any, name: str) -> None:
        props = {"id": rid, "name": name}
        if city is not None:
            props["city"] = city
        node = self.store.create_node((label,), props)
        self.nodes[rid] = node
        self.ids[node] = rid

    def update(self, rid: int, prop: str, value: Any) -> None:
        self.store.set_node_prop(self.nodes[rid], prop, value)

    def delete(self, rid: int) -> None:
        self.store.delete_node(self.nodes.pop(rid))

    def lookup(self, city: str) -> list[int]:
        nodes = self.store.lookup(LABEL, "city", city)
        return sorted(self.ids[n] for n in nodes)

    lookup_batch = range_lookup = None


class ProviderAdapter:
    """A TinkerPop provider (TinkerGraph or Titan) with a label index."""

    indexed_label = LABEL
    deletes = False  # the provider SPI has no deletes

    def __init__(self, provider: Any) -> None:
        self.store = provider
        self.store.create_index(LABEL, "city")
        self.vids: dict[int, Any] = {}
        self.ids: dict[Any, int] = {}

    def insert(self, rid: int, label: str, city: Any, name: str) -> None:
        props = {"id": rid, "name": name}
        if city is not None:
            props["city"] = city
        vid = self.store.create_vertex(label, props)
        self.vids[rid] = vid
        self.ids[vid] = rid

    def update(self, rid: int, prop: str, value: Any) -> None:
        self.store.set_vertex_prop(self.vids[rid], prop, value)

    def lookup(self, city: str) -> list[int]:
        vids = self.store.lookup(LABEL, "city", city)
        return sorted(self.ids[v] for v in vids)

    lookup_batch = range_lookup = None


def _expected(
    records: dict[int, dict], label: str | None, keep: Any
) -> list[int]:
    return sorted(
        rid
        for rid, record in records.items()
        if (label is None or record["label"] == label)
        and record["city"] is not None
        and keep(record["city"])
    )


class IndexInterleavings(RuleBasedStateMachine):
    """Rules and model shared by every store; subclasses pick the store."""

    def make_adapter(self) -> Any:
        raise NotImplementedError

    def __init__(self) -> None:
        super().__init__()
        self.adapter = self.make_adapter()
        self.records: dict[int, dict] = {}
        self.next_id = 1
        self.snapshot: oracle.Snapshot | None = None
        self.frozen: dict[int, dict] = {}

    # -- writes (run as a writer: no snapshot installed) ----------------------

    @initialize(rows=st.lists(st.tuples(labels, cities, names), max_size=4))
    def load(self, rows):
        # start most runs with records, so short runs reach the updates
        for row in rows:
            self.insert(*row)

    @rule(label=labels, city=cities, name=names)
    def insert(self, label, city, name):
        rid = self.next_id
        self.next_id += 1
        self.adapter.insert(rid, label, city, name)
        self.records[rid] = {"label": label, "city": city}

    @precondition(lambda self: self.records)
    @rule(pick=st.integers(0, 10**6), city=cities)
    def set_city(self, pick, city):
        rid = sorted(self.records)[pick % len(self.records)]
        self.adapter.update(rid, "city", city)
        self.records[rid]["city"] = city

    @precondition(lambda self: self.records)
    @rule(pick=st.integers(0, 10**6), name=names)
    def set_other_prop(self, pick, name):
        rid = sorted(self.records)[pick % len(self.records)]
        self.adapter.update(rid, "name", name)

    @precondition(lambda self: self.records and self.adapter.deletes)
    @rule(pick=st.integers(0, 10**6))
    def delete(self, pick):
        rid = sorted(self.records)[pick % len(self.records)]
        self.adapter.delete(rid)
        del self.records[rid]

    # -- snapshots and collection ---------------------------------------------

    @precondition(lambda self: self.snapshot is None)
    @rule()
    def begin_snapshot(self):
        self.snapshot = oracle.ORACLE.begin()
        self.frozen = {rid: dict(r) for rid, r in self.records.items()}

    @precondition(lambda self: self.snapshot is not None)
    @rule()
    def release_snapshot(self):
        oracle.ORACLE.release(self.snapshot)
        self.snapshot = None

    @rule()
    def collect(self):
        self.adapter.store.mvcc.gc()

    def teardown(self):
        if self.snapshot is not None:
            oracle.ORACLE.release(self.snapshot)
            self.snapshot = None

    # -- every probe against the model ----------------------------------------

    def _check(self, records: dict[int, dict]) -> None:
        adapter, label = self.adapter, self.adapter.indexed_label
        for city in CITIES:
            assert adapter.lookup(city) == _expected(
                records, label, lambda v, c=city: v == c
            ), city
        if adapter.lookup_batch is not None:
            batch = adapter.lookup_batch([*CITIES, CITIES[0]])
            assert batch == {
                c: _expected(records, label, lambda v, c=c: v == c)
                for c in CITIES
            }
        if adapter.range_lookup is not None:
            for lo, hi, inclusive in RANGES:
                assert adapter.range_lookup(lo, hi, inclusive) == _expected(
                    records,
                    label,
                    lambda v: lo <= v <= hi if inclusive else lo <= v < hi,
                ), (lo, hi, inclusive)

    @invariant()
    def current_view_matches(self):
        assert oracle.CURRENT is None
        self._check(self.records)

    @invariant()
    def snapshot_view_matches(self):
        if self.snapshot is None:
            return
        with oracle.reading(self.snapshot):
            self._check(self.frozen)


class RowTableInterleavings(IndexInterleavings):
    def make_adapter(self):
        return TableAdapter("row")


class ColumnTableInterleavings(IndexInterleavings):
    def make_adapter(self):
        return TableAdapter("column")


class GraphStoreInterleavings(IndexInterleavings):
    def make_adapter(self):
        return GraphStoreAdapter()


class TinkerGraphInterleavings(IndexInterleavings):
    def make_adapter(self):
        return ProviderAdapter(TinkerGraphProvider())


class TitanInterleavings(IndexInterleavings):
    def make_adapter(self):
        return ProviderAdapter(titan_berkeley())


TestRowTable = RowTableInterleavings.TestCase
TestColumnTable = ColumnTableInterleavings.TestCase
TestGraphStore = GraphStoreInterleavings.TestCase
TestTinkerGraph = TinkerGraphInterleavings.TestCase
TestTitan = TitanInterleavings.TestCase
TestRowTable.settings = TestColumnTable.settings = TestGraphStore.settings = (
    TestTinkerGraph.settings
) = TestTitan.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None
)
