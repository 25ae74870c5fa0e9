"""The three SNB workloads: deterministic rounds of operations.

A *round* is a short list of steps.  Every step runs once on each of the
four systems, in the same order, against the same logical state, so the
answers can be compared across systems.  Rounds are a pure function of
the seed and the round index: replaying a workload on a freshly loaded
set of systems reproduces the same operations, answers and cost ledgers.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from collections import Counter
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from typing import Any

from repro.core.benchmark import WorkloadParams
from repro.core.connectors import Connector
from repro.driver.scheduler import DependencyScheduler
from repro.driver.workload import FULL_MIX, REDUCED_MIX
from repro.kafka import Broker, Consumer, Producer
from repro.snb.datagen import SnbDataset
from repro.storage.mvcc import VersionStore
from repro.txn import oracle

#: one system per query language and executor pair
SYSTEMS = ("neo4j-cypher", "neo4j-gremlin", "postgres-sql", "virtuoso-sparql")

#: LDBC IS1-IS7 with their REDUCED_MIX weights
SHORT_MIX = [
    (name, weight)
    for name, weight in REDUCED_MIX
    if name not in ("complex_two_hop", "friends_recent_posts")
]

#: adjacency-heavy reads, in a block of 996: the two-hop and IC2 graph
#: queries of FULL_MIX in its 25:5 ratio (x4), next to the Section 4.2
#: one- and two-hop micro-queries, whose 6:1 share is chosen so that the
#: 1,000 rounds a run needs fit in about 6 s; shortest_path (15 in
#: FULL_MIX) is cut to 1, because one postgres-sql recursive CTE costs as
#: much wall time as ~35 other rounds and varies widely between pairs
GRAPH_MIX = [
    ("one_hop", 750),
    ("two_hop", 125),
    *[
        (name, 4 * weight)
        for name, weight in FULL_MIX
        if name in ("complex_two_hop", "friends_recent_posts")
    ],
    ("shortest_path", 1),
]

#: messages and shortest-path pairs curated per run
CURATED_PARAMS = 100

UPDATES_TOPIC = "snb-updates"
#: events between re-opening the long-running reader's snapshot; each
#: re-open is followed by one watermark GC pass per system, so a run of
#: 1,000 rounds completes three GC cycles
SNAPSHOT_INTERVAL = 250
#: every HELD_EVERY-th realtime read runs under the long-running snapshot
HELD_EVERY = 4


@dataclass(frozen=True)
class Step:
    """One operation, run on every system in turn."""

    label: str
    run: Callable[[Connector], Any]
    #: the held snapshot the read runs under, or None for a fresh view
    snapshot: oracle.Snapshot | None = None


def digest(answer: Any) -> str:
    """A short, order-sensitive fingerprint of a normalized answer."""
    if isinstance(answer, list):
        # connectors return rows as lists or tuples; compare the values
        answer = [tuple(v) if isinstance(v, (list, tuple)) else v for v in answer]
    return hashlib.blake2b(repr(answer).encode(), digest_size=8).hexdigest()


def _read(name: str, args: tuple) -> Callable[[Connector], Any]:
    return lambda connector: getattr(connector, name)(*args)


def _draws(
    mix: list[tuple[str, int]], pools: dict[str, list], rng: random.Random
) -> Iterator[tuple[str, tuple]]:
    """Endless reads at the mix's exact frequencies.

    Like the LDBC driver's fixed operation frequencies (and unlike
    independent weighted draws), every block of ``sum(weights)`` reads
    holds each operation exactly ``weight`` times, in a seeded shuffle.
    Each operation walks its parameter pool in the pool's stratified order
    (see :func:`_stratified`), so neither the mix nor the cost profile of
    the parameters a run sees depends on its length.
    """
    block = [name for name, weight in mix for _ in range(weight)]
    cursors = {}
    for name, _ in mix:
        pool = pools[_POOL.get(name, "persons")]
        cursors[name] = _cycle(pool, rng.randrange(len(pool)))
    while True:
        rng.shuffle(block)
        for name in block:
            value = next(cursors[name])
            if name == "shortest_path":
                yield name, value
            elif name in ("person_recent_posts", "friends_recent_posts"):
                yield name, (value, 10)
            elif name == "complex_two_hop":
                yield name, (value, 20)
            else:
                yield name, (value,)


#: which parameter pool each read draws from
_POOL = {
    "shortest_path": "pairs",
    "message_content": "messages",
    "message_creator": "messages",
    "message_forum": "messages",
    "message_replies": "messages",
}


def _cycle(order: list, start: int) -> Iterator[Any]:
    yield from order[start:]
    while True:
        yield from order


#: golden-ratio step of the low-discrepancy parameter order
_GOLDEN = (5**0.5 - 1) / 2


def _stratified(pool: list, weight: Callable[[Any], int], rng: random.Random) -> list:
    """A seeded cyclic order of ``pool`` in which every run of consecutive
    items samples the whole range of ``weight`` evenly.

    ``weight`` is a cost proxy (a person's degree, a post's reply count).
    Item ``k`` of the order takes the weight quantile ``frac(k * 0.618)``,
    so the few heavy parameters are spread over a run instead of landing
    in it by chance; this is what LDBC parameter curation aims at (bindings
    of one query with similar cost).  The seed breaks ties within a weight;
    each operation starts the cycle at its own seeded point.
    """
    ranked = sorted(pool, key=lambda item: (weight(item), rng.random()))
    n = len(ranked)
    by_quantile = sorted(range(n), key=lambda k: (k * _GOLDEN) % 1.0)
    order: list = [None] * n
    for j, k in enumerate(by_quantile):
        order[k] = ranked[j]
    return order


def version_stores(connector: Connector) -> list[VersionStore]:
    """Every MVCC version store reachable from a connector's engine.

    Walks instance attributes of repro objects and small containers
    (record arrays and indexes are large and hold no version stores).
    """
    found: list[VersionStore] = []
    seen: set[int] = set()
    todo: list[Any] = [connector]
    while todo:
        obj = todo.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, VersionStore):
            found.append(obj)
        elif isinstance(obj, (list, tuple, set, frozenset)):
            if len(obj) <= 256:
                todo.extend(obj)
        elif isinstance(obj, dict):
            if len(obj) <= 256:
                todo.extend(obj.values())
        elif type(obj).__module__.startswith("repro."):
            todo.extend(getattr(obj, "__dict__", {}).values())
            for slot in getattr(type(obj), "__slots__", ()):
                todo.append(getattr(obj, slot, None))
    return found


class Workload:
    """Base: a named, seeded stream of rounds."""

    name = "?"
    mix: list[tuple[str, int]] = []
    #: rounds every run completes, however long they take: 1,000 ops per
    #: system, so p99 keeps at least ten samples beyond it
    min_rounds = 1000
    #: untraced passes over the same rounds, each on its own loaded set;
    #: an op's time is its fastest pass (at most ``run.SETUPS``).  A pass
    #: bound by ``min_rounds`` (~8 s for graph_reads, ~13 s for
    #: realtime_writes) leaves no time for a third.
    passes = 2

    def __init__(self, dataset: SnbDataset, seed: int) -> None:
        self.seed = seed
        params = WorkloadParams.curate(dataset, count=CURATED_PARAMS, seed=seed)
        degree: Counter[int] = Counter()
        for knows in dataset.knows:
            degree[knows.person1] += 1
            degree[knows.person2] += 1
        replies = Counter(comment.reply_of for comment in dataset.comments)
        rng = random.Random(seed)
        self.pools = {
            # every person with a friend: the population curate samples
            "persons": _stratified(sorted(degree), degree.__getitem__, rng),
            "messages": _stratified(
                params.message_ids, replies.__getitem__, rng
            ),
            "pairs": _stratified(
                params.path_pairs, lambda pair: degree[pair[0]] + degree[pair[1]], rng
            ),
        }

    def warm_up_steps(self) -> list[Step]:
        """One read of each operation (fills statement, plan and closure
        caches), with the parameters the schedule uses first."""
        first: dict[str, Step] = {}
        draws = _draws(self.mix, self.pools, random.Random(self.seed))
        for name, args in itertools.islice(
            draws, sum(weight for _, weight in self.mix)
        ):
            first.setdefault(name, Step(name, _read(name, args)))
        return list(first.values())

    def rounds(self, systems: dict[str, Connector]) -> Iterator[list[Step]]:
        """Endless rounds; each call starts the stream from round 0."""
        for name, args in _draws(self.mix, self.pools, random.Random(self.seed)):
            yield [Step(name, _read(name, args))]

    def close(self) -> None:
        """Release anything a stream holds open."""


class ShortReads(Workload):
    name = "short_reads"
    mix = SHORT_MIX
    # a pass lasts ``--seconds``, so a third pass fits
    passes = 3


class GraphReads(Workload):
    name = "graph_reads"
    mix = GRAPH_MIX


class RealtimeWrites(Workload):
    name = "realtime_writes"
    mix = REDUCED_MIX

    def __init__(self, dataset: SnbDataset, seed: int) -> None:
        super().__init__(dataset, seed)
        self.events = [
            scheduled.event
            for scheduled in DependencyScheduler(dataset.updates).schedule()
        ]
        self._held: oracle.Snapshot | None = None

    def rounds(self, systems: dict[str, Connector]) -> Iterator[list[Step]]:
        # found before the first round, so no round's time includes the walk
        stores = {key: version_stores(c) for key, c in systems.items()}
        return self._rounds(stores)

    def _rounds(self, stores: dict[str, list[VersionStore]]) -> Iterator[list[Step]]:
        broker = Broker()
        broker.create_topic(UPDATES_TOPIC, partitions=1)
        producer = Producer(broker)
        consumer = Consumer(broker, "sut-writer", UPDATES_TOPIC)
        draws = _draws(self.mix, self.pools, random.Random(self.seed))
        for index, event in enumerate(self.events):
            steps = []
            if index % SNAPSHOT_INTERVAL == 0:
                self.close()
                self._held = oracle.ORACLE.begin()
                if index:
                    steps.append(
                        Step("vacuum", lambda c: _vacuum(stores[c.key]))
                    )
            producer.send(UPDATES_TOPIC, None, event, event.creation_ms)
            producer.flush()
            (record,) = consumer.poll(max_records=1)
            polled = record.value
            steps.append(
                Step(polled.kind.name, lambda c, e=polled: c.apply_update(e))
            )
            name, args = next(draws)
            held = self._held if index % HELD_EVERY == 0 else None
            steps.append(Step(name, _read(name, args), held))
            yield steps
        raise RuntimeError("update stream exhausted; shorten the run")

    def close(self) -> None:
        if self._held is not None:
            oracle.ORACLE.release(self._held)
            self._held = None


def _vacuum(stores: list[VersionStore]) -> None:
    """One watermark GC pass over a system's version stores.

    Returns nothing: reclaimed counts depend on each system's physical
    layout, so only the answers of later reads are comparable.
    """
    for store in stores:
        store.gc()


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (ShortReads, GraphReads, RealtimeWrites)
}
