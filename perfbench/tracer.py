"""In-memory span tracer wrapped around the public entry points of each layer.

The engines are not edited: :meth:`Tracer.install` replaces the listed
functions and methods with wrappers for the duration of a traced run and
:meth:`Tracer.uninstall` puts the originals back.  Two wrapper kinds:

* **span** wrappers record ``(layer, start, end, busy, parent, op)``.
  Generator functions (``GraphStore.relationships``,
  ``TripleStore.match_ids``) get a resumable span whose busy time is the
  sum of its resumptions, so a lazily consumed walk is charged to the
  layer that did the walking, not to its consumer.
* **count** wrappers only bump a per-system counter; they are used for
  hot leaves such as ``VersionStore.visible`` whose own time is a few
  hundred nanoseconds and would otherwise drown in span bookkeeping.

A span's *self* time is its busy time minus the busy time of its direct
children.  The benchmark opens one root ``connectors`` span per operation,
so the self times of an operation's span tree add up exactly to the
operation's traced wall time.

Compiled query closures are created before tracing starts and live in the
engines' closure caches; they are traced by wrapping what the cache hands
out (``EpochKeyedCache.lookup`` on ``*-closures`` caches) and what the
per-request Gremlin compiler returns, never by replacing cached objects.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import sys
import time
from array import array
from collections.abc import Callable, Iterator
from pathlib import Path
from typing import Any

_now = time.perf_counter_ns

#: layers that record spans: (module, attribute path) per layer
SPAN_TARGETS: dict[str, tuple[tuple[str, str], ...]] = {
    "tinkerpop.server": (("repro.tinkerpop.server", "GremlinServer.submit"),),
    "engine": (
        ("repro.relational.engine", "Database.execute"),
        ("repro.graphdb.engine", "GraphDatabase.execute"),
        ("repro.rdf.engine", "RdfDatabase.execute"),
    ),
    "frontend": (
        ("repro.relational.sql.parser", "parse"),
        ("repro.graphdb.cypher.parser", "parse"),
        ("repro.rdf.sparql.parser", "parse"),
        ("repro.relational.sql.planner", "Planner.plan"),
        ("repro.exec.sqlc", "compile_plan"),
        ("repro.exec.cypherc", "compile_query"),
        ("repro.exec.sparqlc", "compile_query"),
        ("repro.exec.gremlinc", "compile_traversal"),
    ),
    "exec.interp": (
        ("repro.graphdb.cypher.executor", "CypherExecutor.run"),
        ("repro.rdf.sparql.executor", "SparqlExecutor.run"),
        ("repro.tinkerpop.traversal", "Traversal.toList"),
        ("repro.tinkerpop.traversal", "Traversal.next"),
        ("repro.tinkerpop.traversal", "Traversal.iterate"),
    ),
    "exec.kernel": (
        ("repro.exec.kernels", "expand_frontier"),
        ("repro.exec.kernels", "gather_props"),
    ),
    "storage.adjacency": (
        ("repro.graphdb.store", "GraphStore.relationships"),
        ("repro.graphdb.store", "GraphStore.neighbors"),
        ("repro.graphdb.store", "GraphStore.neighbors_batch"),
    ),
    "storage.probe": (
        ("repro.graphdb.store", "GraphStore.lookup"),
        ("repro.relational.table", "Table.lookup"),
        ("repro.relational.table", "Table.lookup_batch"),
        ("repro.relational.table", "Table.fetch_batch"),
        ("repro.rdf.triples", "TripleStore.match_ids"),
    ),
    "mvcc.stale_keys": (("repro.storage.mvcc", "VersionStore.stale_keys"),),
    "mvcc.gc": (("repro.storage.mvcc", "VersionStore.gc"),),
    "txn": (
        ("repro.txn.manager", "TransactionManager.begin"),
        ("repro.txn.manager", "TransactionManager.commit"),
    ),
    "kafka": (
        ("repro.kafka.producer", "Producer.send"),
        ("repro.kafka.consumer", "Consumer.poll"),
    ),
}

#: hot leaves that are counted, not timed
COUNT_TARGETS: dict[str, tuple[tuple[str, str], ...]] = {
    "mvcc.visible": (("repro.storage.mvcc", "VersionStore.visible"),),
    "txn.lock_acquires": (("repro.txn.locks", "LockManager.acquire"),),
    "wal.appends": (("repro.storage.wal", "WriteAheadLog.append"),),
    "wal.commits": (("repro.storage.wal", "WriteAheadLog.commit"),),
}

#: span layer of the benchmark's own per-operation root span
ROOT = "connectors"
#: span layer of compiled query closures handed out by the engines
COMPILED = "exec.compiled"

LAYERS = (ROOT, COMPILED, *SPAN_TARGETS)


class Tracer:
    """Keeps spans in parallel arrays and per-system leaf counters."""

    def __init__(self, systems: int) -> None:
        self.layer_ids = {name: i for i, name in enumerate(LAYERS)}
        self.layer = array("b")
        self.start = array("q")
        self.end = array("q")
        self.busy = array("q")
        self.parent = array("l")
        self.op = array("l")
        #: index of the span currently open, -1 outside any span
        self.stack = [-1]
        #: the operation spans are attributed to; -1 between operations
        self.op_id = -1
        #: system index count wrappers attribute to; ``systems`` = none
        self.system = systems
        self.counts = {key: [0] * (systems + 1) for key in COUNT_TARGETS}
        self._patches: list[tuple[Any, str, Any]] = []

    # -- recording ------------------------------------------------------------

    def open(self, layer: int) -> int:
        index = len(self.start)
        now = _now()
        self.layer.append(layer)
        self.start.append(now)
        self.end.append(now)
        self.busy.append(0)
        self.parent.append(self.stack[-1])
        self.op.append(self.op_id)
        self.stack.append(index)
        return index

    def close(self, index: int) -> None:
        now = _now()
        self.stack.pop()
        self.end[index] = now
        self.busy[index] += now - self.start[index]

    def self_ns(self) -> array:
        """Per-span busy time minus the busy time of direct children."""
        own = array("q", self.busy)
        parent = self.parent
        busy = self.busy
        for i in range(len(busy)):
            p = parent[i]
            if p >= 0:
                own[p] -= busy[i]
        return own

    def write(self, path: Path) -> None:
        """Write every span as one CSV line, gzip-compressed."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("span,layer,start_ns,end_ns,busy_ns,parent,op\n")
            for i in range(len(self.start)):
                out.write(
                    f"{i},{LAYERS[self.layer[i]]},{self.start[i]},"
                    f"{self.end[i]},{self.busy[i]},{self.parent[i]},"
                    f"{self.op[i]}\n"
                )

    # -- wrappers ---------------------------------------------------------------

    def _span_wrapper(self, layer: str, fn: Callable) -> Callable:
        code = self.layer_ids[layer]
        tracer = self
        if inspect.isgeneratorfunction(fn):

            def gen_wrapper(*args: Any, **kwargs: Any) -> Iterator:
                return _TimedIter(tracer, code, fn(*args, **kwargs))

            return gen_wrapper

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            index = tracer.open(code)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(index)

        return wrapper

    def _count_wrapper(self, key: str, fn: Callable) -> Callable:
        counts = self.counts[key]
        tracer = self

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            counts[tracer.system] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation -------------------------------------------------------------

    def install(self) -> None:
        for layer, targets in SPAN_TARGETS.items():
            for module, path in targets:
                self._patch(module, path, lambda f, l=layer: self._span_wrapper(l, f))
        for key, targets in COUNT_TARGETS.items():
            for module, path in targets:
                self._patch(module, path, lambda f, k=key: self._count_wrapper(k, f))
        self._patch_closure_sources()

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def _patch(self, module: str, path: str, make: Callable) -> None:
        owner: Any = importlib.import_module(module)
        *outer, name = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        original = owner.__dict__[name]
        wrapper = make(original)
        self._set(owner, name, original, wrapper)
        if not outer:
            # ``from module import fn`` copies: patch every alias in repro
            for other in list(sys.modules.values()):
                namespace = getattr(other, "__dict__", None)
                if other is owner or namespace is None:
                    continue
                if not getattr(other, "__name__", "").startswith("repro."):
                    continue
                for alias, value in list(namespace.items()):
                    if value is original:
                        self._set(other, alias, original, wrapper)

    def _set(self, owner: Any, name: str, original: Any, wrapper: Any) -> None:
        self._patches.append((owner, name, original))
        setattr(owner, name, wrapper)

    def _patch_closure_sources(self) -> None:
        from repro.cache.lru import EpochKeyedCache
        from repro.exec import gremlinc

        tracer = self
        lookup = EpochKeyedCache.__dict__["lookup"]

        def traced_lookup(cache: Any, key: Any) -> Any:
            value = lookup(cache, key)
            if callable(value) and cache.stats().name.endswith("-closures"):
                return tracer._span_wrapper(COMPILED, value)
            return value

        self._set(EpochKeyedCache, "lookup", lookup, traced_lookup)
        # Gremlin compiles per request; the fresh closure is never cached
        compile_traversal = gremlinc.compile_traversal  # the frontend span

        def traced_compile(traversal: Any) -> Any:
            return tracer._span_wrapper(COMPILED, compile_traversal(traversal))

        self._set(gremlinc, "compile_traversal", compile_traversal, traced_compile)


class _TimedIter:
    """Iterator proxy recording one resumable span for a generator."""

    __slots__ = ("_tracer", "_code", "_it", "_index")

    def __init__(self, tracer: Tracer, code: int, it: Iterator) -> None:
        self._tracer = tracer
        self._code = code
        self._it = it
        self._index = -1

    def __iter__(self) -> "_TimedIter":
        return self

    def __next__(self) -> Any:
        tracer = self._tracer
        index = self._index
        if index < 0:
            index = self._index = tracer.open(self._code)
            began = tracer.start[index]
        else:
            began = _now()
            tracer.stack.append(index)
        try:
            return next(self._it)
        finally:
            now = _now()
            tracer.stack.pop()
            tracer.end[index] = now
            tracer.busy[index] += now - began
