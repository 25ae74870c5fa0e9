"""Tests for the graph record store."""

from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphdb import Direction, GraphStore
from repro.simclock import meter
from repro.simclock.ledger import charge
from repro.txn import oracle


@pytest.fixture()
def store():
    s = GraphStore()
    s.create_index("Person", "id")
    return s


class TestNodes:
    def test_create_and_read(self, store):
        nid = store.create_node(["Person"], {"id": 1, "name": "alice"})
        assert store.node_labels(nid) == ("Person",)
        assert store.node_props(nid) == {"id": 1, "name": "alice"}
        assert store.node_prop(nid, "name") == "alice"
        assert store.node_prop(nid, "missing") is None

    def test_index_lookup(self, store):
        nid = store.create_node(["Person"], {"id": 42})
        assert store.lookup("Person", "id", 42) == [nid]
        assert store.lookup("Person", "id", 99) == []

    def test_lookup_requires_index(self, store):
        with pytest.raises(KeyError):
            store.lookup("Forum", "id", 1)

    def test_index_built_retroactively(self):
        store = GraphStore()
        nid = store.create_node(["Forum"], {"id": 7})
        store.create_index("Forum", "id")
        assert store.lookup("Forum", "id", 7) == [nid]

    def test_index_ignores_other_labels(self, store):
        store.create_node(["Forum"], {"id": 1})
        assert store.lookup("Person", "id", 1) == []

    def test_set_prop_maintains_index(self, store):
        nid = store.create_node(["Person"], {"id": 1})
        store.set_node_prop(nid, "id", 2)
        assert store.lookup("Person", "id", 1) == []
        assert store.lookup("Person", "id", 2) == [nid]

    def test_delete_node(self, store):
        nid = store.create_node(["Person"], {"id": 1})
        store.delete_node(nid)
        assert store.lookup("Person", "id", 1) == []
        with pytest.raises(KeyError):
            store.node_props(nid)

    def test_delete_with_rels_rejected(self, store):
        a = store.create_node(["Person"], {"id": 1})
        b = store.create_node(["Person"], {"id": 2})
        store.create_rel("KNOWS", a, b)
        with pytest.raises(ValueError):
            store.delete_node(a)

    def test_label_scan(self, store):
        ids = {store.create_node(["Person"], {"id": i}) for i in range(5)}
        store.create_node(["Forum"], {"id": 100})
        assert set(store.nodes_with_label("Person")) == ids


class TestRelationships:
    def test_chain_traversal(self, store):
        a = store.create_node(["Person"], {"id": 1})
        friends = []
        for i in range(2, 7):
            b = store.create_node(["Person"], {"id": i})
            store.create_rel("KNOWS", a, b, {"since": 2000 + i})
            friends.append(b)
        others = {o for _, o in store.relationships(a, "KNOWS")}
        assert others == set(friends)

    def test_direction_filtering(self, store):
        a = store.create_node(["Person"], {"id": 1})
        b = store.create_node(["Person"], {"id": 2})
        c = store.create_node(["Person"], {"id": 3})
        store.create_rel("KNOWS", a, b)  # a -> b
        store.create_rel("KNOWS", c, a)  # c -> a
        assert {o for _, o in store.relationships(a, "KNOWS", Direction.OUT)} == {b}
        assert {o for _, o in store.relationships(a, "KNOWS", Direction.IN)} == {c}
        assert {
            o for _, o in store.relationships(a, "KNOWS", Direction.BOTH)
        } == {b, c}

    def test_type_filtering(self, store):
        a = store.create_node(["Person"], {"id": 1})
        b = store.create_node(["Post"], {"id": 2})
        c = store.create_node(["Person"], {"id": 3})
        store.create_rel("LIKES", a, b)
        store.create_rel("KNOWS", a, c)
        assert {o for _, o in store.relationships(a, "LIKES")} == {b}
        assert store.degree(a) == 2
        assert store.degree(a, "KNOWS") == 1

    def test_rel_props_and_endpoints(self, store):
        a = store.create_node(["Person"], {"id": 1})
        b = store.create_node(["Person"], {"id": 2})
        rid = store.create_rel("KNOWS", a, b, {"since": 2010})
        assert store.rel_props(rid) == {"since": 2010}
        assert store.rel_endpoints(rid) == ("KNOWS", a, b)

    def test_self_loop(self, store):
        a = store.create_node(["Person"], {"id": 1})
        store.create_rel("KNOWS", a, a)
        neighbours = [o for _, o in store.relationships(a, "KNOWS")]
        assert a in neighbours

    def test_traversal_cost_independent_of_graph_size(self, store):
        """Index-free adjacency: per-neighbour cost is flat."""
        hub = store.create_node(["Person"], {"id": 0})
        for i in range(1, 11):
            n = store.create_node(["Person"], {"id": i})
            store.create_rel("KNOWS", hub, n)
        with meter() as small:
            list(store.relationships(hub, "KNOWS"))
        # add 5000 unrelated nodes/edges
        prev = None
        for i in range(1000, 3500):
            n = store.create_node(["Person"], {"id": i})
            if prev is not None:
                store.create_rel("KNOWS", prev, n)
            prev = n
        with meter() as big:
            list(store.relationships(hub, "KNOWS"))
        assert big.counters["record_read"] == small.counters["record_read"]


class TestStats:
    def test_counts(self, store):
        a = store.create_node(["Person"], {"id": 1})
        b = store.create_node(["Person"], {"id": 2})
        store.create_rel("KNOWS", a, b)
        assert store.node_count == 2
        assert store.rel_count == 1

    def test_size_bytes_grows(self, store):
        before = store.size_bytes()
        store.create_node(["Person"], {"id": 1, "name": "x" * 100})
        assert store.size_bytes() > before


@settings(max_examples=25, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 14), st.integers(0, 14)),
        min_size=1,
        max_size=60,
    )
)
def test_adjacency_matches_model(edges):
    """The packed adjacency equals a plain adjacency-set model."""
    store = GraphStore()
    nodes = [store.create_node(["V"], {"id": i}) for i in range(15)]
    model_out: dict[int, list[int]] = {n: [] for n in nodes}
    model_in: dict[int, list[int]] = {n: [] for n in nodes}
    for a, b in edges:
        store.create_rel("E", nodes[a], nodes[b])
        model_out[nodes[a]].append(nodes[b])
        model_in[nodes[b]].append(nodes[a])
    for n in nodes:
        out = sorted(o for _, o in store.relationships(n, "E", Direction.OUT))
        into = sorted(o for _, o in store.relationships(n, "E", Direction.IN))
        assert out == sorted(model_out[n])
        assert into == sorted(model_in[n])


# -- packed adjacency vs. a reference record-chain walker --------------------

TYPES = ("KNOWS", "LIKES", "HAS_TAG")
NODES = 6


class _RecordChains:
    """Neo4j's linked relationship records, kept beside a store.

    Every ``create_rel`` goes through :meth:`create_rel`, which threads the
    new record onto the head of both endpoints' chains (once for a
    self-loop).  :meth:`walk` follows a chain one hop at a time and is the
    reference for what the store yields and charges.
    """

    def __init__(self, store: GraphStore) -> None:
        self.store = store
        self.first: dict[int, int] = {}
        #: rel id -> (type, start, end, start_next, end_next)
        self.records: dict[int, tuple[str, int, int, int, int]] = {}

    def create_rel(self, rel_type: str, start: int, end: int) -> int:
        rel_id = self.store.create_rel(rel_type, start, end)
        self.records[rel_id] = (
            rel_type,
            start,
            end,
            self.first.get(start, -1),
            self.first.get(end, -1),
        )
        self.first[start] = rel_id
        self.first[end] = rel_id
        return rel_id

    def walk(self, node_id, rel_type=None, direction=Direction.BOTH):
        mvcc = self.store.mvcc
        if not mvcc.visible(node_id):
            raise KeyError(node_id)
        rel_id = self.first.get(node_id, -1)
        while rel_id != -1:
            type_, start, end, start_next, end_next = self.records[rel_id]
            charge("record_read")
            is_out = start == node_id
            next_id, other = (
                (start_next, end) if is_out else (end_next, start)
            )
            if (
                not self.store._rels[rel_id].deleted
                and (rel_type is None or type_ == rel_type)
                and mvcc.visible(("rel", rel_id))
                and (
                    start == end
                    or direction is Direction.BOTH
                    or (direction is Direction.OUT) == is_out
                )
            ):
                yield rel_id, other
            rel_id = next_id


def _metered(fn, *args):
    with meter() as ledger:
        result = fn(*args)
    return result, dict(ledger.counters)


def _listed(walker, *args):
    return _metered(lambda: list(walker(*args)))


def _prefix(walker, k, *args):
    """A walk abandoned after ``k`` yields: what it gave and charged."""

    def take():
        walk = walker(*args)
        taken = list(islice(walk, k))
        walk.close()
        return taken

    return _metered(take)


def _reference_batch(chains, nodes, *args):
    return {node: tuple(chains.walk(node, *args)) for node in nodes}


def _assert_agrees(store: GraphStore, chains: _RecordChains) -> None:
    nodes = list(range(NODES))
    for rel_type in (None, *TYPES, "MISSING"):
        for direction in Direction:
            args = (rel_type, direction)
            for node in nodes:
                expected = _listed(chains.walk, node, *args)
                assert _listed(store.relationships, node, *args) == expected
                assert _listed(store.neighbors, node, *args) == expected
                assert _metered(store.degree, node, *args) == (
                    len(expected[0]),
                    expected[1],
                )
                for k in range(1, len(expected[0]) + 1):
                    assert _prefix(
                        store.relationships, k, node, *args
                    ) == _prefix(chains.walk, k, node, *args)

                store.enable_neighborhood_cache()
                try:
                    assert _listed(store.neighbors, node, *args) == expected
                    hit = _listed(store.neighbors, node, *args)
                    if oracle.stale_reads():  # the cache is bypassed
                        assert hit == expected
                    else:
                        assert hit == (expected[0], {"cache_hit": 1.0})
                finally:
                    store.disable_neighborhood_cache()

            frontier = [*nodes, *reversed(nodes)]  # duplicates fetched once
            assert _metered(
                store.neighbors_batch, frontier, *args
            ) == _metered(_reference_batch, chains, nodes, *args)


_EDGES = st.lists(
    st.tuples(
        st.integers(0, NODES - 1),
        st.integers(0, NODES - 1),
        st.sampled_from(TYPES),
    ),
    max_size=25,
)


@settings(max_examples=30, deadline=None)
@given(
    before=_EDGES,
    during=_EDGES,
    deleted=st.lists(st.integers(0, 40), max_size=4),
)
def test_packed_adjacency_matches_record_chains(before, during, deleted):
    """Order, answers and ledgers equal the record-chain walk's, for every
    direction and type filter, with the store's visibility shortcut both
    taken (no stamps or tombstones) and not (stamped inserts and a
    tombstone under a held snapshot)."""
    store = GraphStore()
    for i in range(NODES + 1):
        store.create_node(["V"], {"id": i})
    chains = _RecordChains(store)
    # fixed self-loops of two types, so every example walks one
    for start, end, rel_type in [(0, 0, "KNOWS"), (1, 1, "LIKES"), *before]:
        chains.create_rel(rel_type, start, end)
    for index in deleted:
        store._rels[index % len(chains.records)].deleted = True
    _assert_agrees(store, chains)
    with oracle.held_snapshot():
        _assert_agrees(store, chains)  # nothing stamped yet
    with oracle.held_snapshot():
        for start, end, rel_type in [(2, 2, "HAS_TAG"), *during]:
            chains.create_rel(rel_type, start, end)
        store.delete_node(NODES)  # an isolated node: tombstoned
        _assert_agrees(store, chains)
    # released: current reads, with the tombstone not yet collected
    _assert_agrees(store, chains)


def test_walk_rechecks_visibility_after_a_write_between_yields():
    """A write while a walk is suspended can make visibility cost
    ``version_check`` from the next hop on, as it did hop by hop."""

    def interleaved(walker):
        store = GraphStore()
        chains = _RecordChains(store)
        a, b, c = (store.create_node(["V"], {}) for _ in range(3))
        for other in (b, c, b):
            chains.create_rel("KNOWS", a, other)
        with oracle.held_snapshot():
            with meter() as ledger:
                walk = walker(store, chains)(a)
                taken = [next(walk)]
                chains.create_rel("KNOWS", b, c)  # the store's first stamp
                taken += walk
        return taken, dict(ledger.counters)

    packed = interleaved(lambda store, _: store.relationships)
    assert packed == interleaved(lambda _, chains: chains.walk)
    assert packed[1]["version_check"] == 2
