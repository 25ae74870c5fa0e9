"""Gremlin step chains compiled to vectorized batch closures.

The Gremlin Server's interpreted path charges ``step_eval`` per
traverser per step — the TinkerPop iterator overhead the paper measures.
:func:`compile_traversal` walks a built step chain once and emits one
closure per step, chained as batch generators: a batch of traversers
flows through each closure with one ``vector_setup`` plus ``tuple_vec``
per emitted traverser, while data access still goes through the same
provider calls (and therefore the same storage charges) as the
interpreter.

Semantics are bit-identical to :mod:`repro.tinkerpop.traversal`: each
compiled step reproduces its interpreted step's traverser order, path
bookkeeping and error behavior.  Step budgets and evaluation-timeout
guards observe the same traverser counts via
:func:`repro.tinkerpop.traversal.tick_batch`.

Steps that cannot be compiled raise :class:`CompileError` and the
server falls back to the interpreter for that script:

* ``repeat()`` — data-dependent iteration (the shortest-path DNF shape;
  keeping it interpreted preserves the paper's timeout behavior),
* ``addV()`` / ``addE()`` / ``property()`` — writes.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from typing import Any

from repro.exec.errors import CompileError
from repro.simclock.ledger import charge
from repro.tinkerpop.structure import Edge, GraphProvider, Vertex
from repro.tinkerpop.traversal import (
    AddEStep,
    AddVStep,
    AdjacentStep,
    CountStep,
    DedupStep,
    EdgeVertexStep,
    FilterStep,
    HasLabelStep,
    HasStep,
    IdStep,
    LimitStep,
    OrderStep,
    PathStep,
    PropertyStep,
    RepeatStep,
    SimplePathStep,
    Step,
    Traversal,
    TraversalError,
    Traverser,
    ValueMapStep,
    ValuesStep,
    VStep,
    _element_props,
    tick_batch,
)

#: a compiled traversal: call it to get the result objects
CompiledTraversal = Callable[[], list[Any]]

#: a step kernel: batches of traversers in, batches out
_StepKernel = Callable[
    [Iterator[list[Traverser]]], Iterator[list[Traverser]]
]


def compile_traversal(traversal: Traversal) -> CompiledTraversal:
    """Compile a built step chain into one vectorized closure.

    Raises :class:`CompileError` when any step has no batch kernel
    (writes, ``repeat()``); the caller falls back to the interpreter.
    """
    provider = traversal.provider
    if provider is None:
        raise CompileError("anonymous traversals cannot be compiled")
    # operator fusion: per-element predicate/transform steps run inside
    # the loop of the kernel feeding them, so only pipeline sources,
    # expansions, and materializing breakers pay a batch dispatch
    kernels = [
        _compile_step(step, provider, fused=index > 0)
        for index, step in enumerate(traversal.steps)
    ]

    def run() -> list[Any]:
        batches: Iterator[list[Traverser]] = iter([[Traverser(obj=None)]])
        for kernel in kernels:
            batches = kernel(batches)
        return [t.obj for batch in batches for t in batch]

    return run


def _compile_step(
    step: Step, provider: GraphProvider, fused: bool = False
) -> _StepKernel:
    # sources, expansions, and order() always charge their own dispatch
    if isinstance(step, VStep):
        return _compile_v(step, provider)
    if isinstance(step, AdjacentStep):
        return _compile_adjacent(step, provider)
    if isinstance(step, EdgeVertexStep):
        return _compile_edge_vertex(step, provider)
    if isinstance(step, OrderStep):
        return _compile_order(step, provider)
    # per-element steps fuse into the feeding kernel's loop
    if isinstance(step, HasStep):
        return _compile_has(step, provider, fused)
    if isinstance(step, HasLabelStep):
        return _compile_has_label(step, provider, fused)
    if isinstance(step, ValuesStep):
        return _compile_values(step, provider, fused)
    if isinstance(step, ValueMapStep):
        return _compile_value_map(provider, fused)
    if isinstance(step, IdStep):
        return _compile_id(fused)
    if isinstance(step, DedupStep):
        return _compile_dedup(fused)
    if isinstance(step, SimplePathStep):
        return _compile_simple_path(fused)
    if isinstance(step, PathStep):
        return _compile_path(fused)
    if isinstance(step, LimitStep):
        return _compile_limit(step, fused)
    if isinstance(step, CountStep):
        return _compile_count(fused)
    if isinstance(step, FilterStep):
        return _compile_filter(step, fused)
    if isinstance(step, RepeatStep):
        raise CompileError("repeat() is data-dependent iteration")
    if isinstance(step, (AddVStep, AddEStep, PropertyStep)):
        raise CompileError("write steps run interpreted")
    raise CompileError(f"no batch kernel for {type(step).__name__}")


# -- element steps -----------------------------------------------------------------


def _compile_v(step: VStep, provider: GraphProvider) -> _StepKernel:
    def kernel(
        batches: Iterator[list[Traverser]],
    ) -> Iterator[list[Traverser]]:
        for batch in batches:
            tick_batch(len(batch))
            charge("vector_setup")
            out: list[Traverser] = []
            for t in batch:
                if step.vid is not None:
                    vids: Any = (step.vid,)
                elif step.index_key is not None:
                    vids = provider.lookup(
                        step.label, step.index_key, step.index_value
                    )
                else:
                    vids = provider.vertices(step.label)
                for vid in vids:
                    vertex = Vertex(vid)
                    out.append(
                        Traverser(vertex, t.path + (vertex,), t.loops)
                    )
            if out:
                charge("tuple_vec", len(out))
            yield out

    return kernel


def _compile_has(
    step: HasStep, provider: GraphProvider, fused: bool = False
) -> _StepKernel:
    def kernel(
        batches: Iterator[list[Traverser]],
    ) -> Iterator[list[Traverser]]:
        for batch in batches:
            tick_batch(len(batch))
            if not fused:
                charge("vector_setup")
            # one property gather per unique vertex in the batch — the
            # interpreter re-reads per traverser occurrence (label'd
            # has() keeps per-traverser reads: the label gate must see
            # exactly the vertices the interpreter reads)
            vertex_props: dict[int, dict[str, Any]] = (
                {
                    vid: provider.vertex_props(vid)
                    for vid in dict.fromkeys(
                        t.obj.id
                        for t in batch
                        if isinstance(t.obj, Vertex)
                    )
                }
                if step.label is None
                else {}
            )
            out: list[Traverser] = []
            for t in batch:
                obj = t.obj
                if isinstance(obj, Vertex):
                    if step.label is not None and (
                        provider.vertex_label(obj.id) != step.label
                    ):
                        continue
                    props = (
                        vertex_props[obj.id]
                        if step.label is None
                        else provider.vertex_props(obj.id)
                    )
                    value = props.get(step.key)
                elif isinstance(obj, Edge):
                    value = provider.edge_props(obj.id).get(step.key)
                else:
                    raise TraversalError("has() needs an element")
                if step.predicate.test(value):
                    out.append(t)
            if out:
                charge("tuple_vec", len(out))
            yield out

    return kernel


def _compile_has_label(
    step: HasLabelStep, provider: GraphProvider, fused: bool = False
) -> _StepKernel:
    def kernel(
        batches: Iterator[list[Traverser]],
    ) -> Iterator[list[Traverser]]:
        for batch in batches:
            tick_batch(len(batch))
            if not fused:
                charge("vector_setup")
            out: list[Traverser] = []
            for t in batch:
                obj = t.obj
                if isinstance(obj, Vertex):
                    if provider.vertex_label(obj.id) == step.label:
                        out.append(t)
                elif isinstance(obj, Edge):
                    if provider.edge_label(obj.id) == step.label:
                        out.append(t)
            if out:
                charge("tuple_vec", len(out))
            yield out

    return kernel


def _compile_adjacent(
    step: AdjacentStep, provider: GraphProvider
) -> _StepKernel:
    def kernel(
        batches: Iterator[list[Traverser]],
    ) -> Iterator[list[Traverser]]:
        for batch in batches:
            tick_batch(len(batch))
            charge("vector_setup")
            out: list[Traverser] = []
            for t in batch:
                obj = t.obj
                if not isinstance(obj, Vertex):
                    raise TraversalError(
                        f"{step.direction}() needs a vertex, got {obj!r}"
                    )
                for eid, other in provider.adjacent(
                    obj.id, step.direction, step.label
                ):
                    element: Any = (
                        Edge(eid) if step.to_edge else Vertex(other)
                    )
                    out.append(
                        Traverser(element, t.path + (element,), t.loops)
                    )
            if out:
                charge("tuple_vec", len(out))
            yield out

    return kernel


def _compile_edge_vertex(
    step: EdgeVertexStep, provider: GraphProvider
) -> _StepKernel:
    def kernel(
        batches: Iterator[list[Traverser]],
    ) -> Iterator[list[Traverser]]:
        for batch in batches:
            tick_batch(len(batch))
            charge("vector_setup")
            out: list[Traverser] = []
            for t in batch:
                edge = t.obj
                if not isinstance(edge, Edge):
                    raise TraversalError(f"{step.which}() needs an edge")
                out_vid, in_vid = provider.edge_endpoints(edge.id)
                if step.which == "inV":
                    targets = [in_vid]
                elif step.which == "outV":
                    targets = [out_vid]
                else:  # otherV: the endpoint we did not come from
                    prev = None
                    for element in reversed(t.path[:-1]):
                        if isinstance(element, Vertex):
                            prev = element.id
                            break
                    targets = [in_vid if prev == out_vid else out_vid]
                for vid in targets:
                    vertex = Vertex(vid)
                    out.append(
                        Traverser(vertex, t.path + (vertex,), t.loops)
                    )
            if out:
                charge("tuple_vec", len(out))
            yield out

    return kernel


# -- value steps -------------------------------------------------------------------


def _compile_values(
    step: ValuesStep, provider: GraphProvider, fused: bool = False
) -> _StepKernel:
    def kernel(
        batches: Iterator[list[Traverser]],
    ) -> Iterator[list[Traverser]]:
        for batch in batches:
            tick_batch(len(batch))
            if not fused:
                charge("vector_setup")
            out: list[Traverser] = []
            for t in batch:
                props = _element_props(t.obj, provider)
                for key in step.keys:
                    value = props.get(key)
                    if value is not None:
                        out.append(Traverser(value, t.path, t.loops))
            if out:
                charge("tuple_vec", len(out))
            yield out

    return kernel


def _compile_value_map(
    provider: GraphProvider, fused: bool = False
) -> _StepKernel:
    def kernel(
        batches: Iterator[list[Traverser]],
    ) -> Iterator[list[Traverser]]:
        for batch in batches:
            tick_batch(len(batch))
            if not fused:
                charge("vector_setup")
            out = [
                Traverser(
                    dict(_element_props(t.obj, provider)), t.path, t.loops
                )
                for t in batch
            ]
            if out:
                charge("tuple_vec", len(out))
            yield out

    return kernel


def _compile_id(fused: bool = False) -> _StepKernel:
    def kernel(
        batches: Iterator[list[Traverser]],
    ) -> Iterator[list[Traverser]]:
        for batch in batches:
            tick_batch(len(batch))
            if not fused:
                charge("vector_setup")
            out = [Traverser(t.obj.id, t.path, t.loops) for t in batch]
            if out:
                charge("tuple_vec", len(out))
            yield out

    return kernel


# -- stream steps ------------------------------------------------------------------


def _compile_dedup(fused: bool = False) -> _StepKernel:
    def kernel(
        batches: Iterator[list[Traverser]],
    ) -> Iterator[list[Traverser]]:
        seen: set = set()
        for batch in batches:
            tick_batch(len(batch))
            if not fused:
                charge("vector_setup")
            out: list[Traverser] = []
            for t in batch:
                key = t.obj
                if isinstance(key, dict):
                    key = tuple(sorted(key.items()))
                if key not in seen:
                    seen.add(key)
                    out.append(t)
            # membership tests ride the per-item batch charge, exactly
            # as the interpreter folds them into its per-traverser tick
            if out:
                charge("tuple_vec", len(out))
            yield out

    return kernel


def _compile_simple_path(fused: bool = False) -> _StepKernel:
    def kernel(
        batches: Iterator[list[Traverser]],
    ) -> Iterator[list[Traverser]]:
        for batch in batches:
            tick_batch(len(batch))
            if not fused:
                charge("vector_setup")
            out: list[Traverser] = []
            for t in batch:
                elements = [
                    e for e in t.path if isinstance(e, (Vertex, Edge))
                ]
                if len(elements) == len(set(elements)):
                    out.append(t)
            if out:
                charge("tuple_vec", len(out))
            yield out

    return kernel


def _compile_path(fused: bool = False) -> _StepKernel:
    def kernel(
        batches: Iterator[list[Traverser]],
    ) -> Iterator[list[Traverser]]:
        for batch in batches:
            tick_batch(len(batch))
            if not fused:
                charge("vector_setup")
            out = [Traverser(tuple(t.path), t.path, t.loops) for t in batch]
            if out:
                charge("tuple_vec", len(out))
            yield out

    return kernel


def _compile_limit(
    step: LimitStep, fused: bool = False
) -> _StepKernel:
    def kernel(
        batches: Iterator[list[Traverser]],
    ) -> Iterator[list[Traverser]]:
        emitted = 0
        for batch in batches:
            if emitted >= step.limit:
                return
            take = batch[: step.limit - emitted]
            emitted += len(take)
            tick_batch(len(take))
            if not fused:
                charge("vector_setup")
            if take:
                charge("tuple_vec", len(take))
            yield take

    return kernel


def _compile_count(fused: bool = False) -> _StepKernel:
    def kernel(
        batches: Iterator[list[Traverser]],
    ) -> Iterator[list[Traverser]]:
        total = 0
        for batch in batches:
            tick_batch(len(batch))
            if not fused:
                charge("vector_setup")
            total += len(batch)
        charge("tuple_vec")
        yield [Traverser(obj=total)]

    return kernel


def _compile_order(step: OrderStep, provider: GraphProvider) -> _StepKernel:
    def kernel(
        batches: Iterator[list[Traverser]],
    ) -> Iterator[list[Traverser]]:
        materialized: list[Traverser] = []
        for batch in batches:
            charge("vector_setup")
            materialized.extend(batch)
        tick_batch(1)

        def sort_key(t: Traverser) -> tuple[bool, Any]:
            obj = t.obj
            if step.key is None:
                value = obj
            else:
                value = _element_props(obj, provider).get(step.key)
            return (value is not None, value)

        materialized.sort(key=sort_key, reverse=step.descending)
        if materialized:
            charge("tuple_vec", len(materialized))
        yield materialized

    return kernel


def _compile_filter(
    step: FilterStep, fused: bool = False
) -> _StepKernel:
    def kernel(
        batches: Iterator[list[Traverser]],
    ) -> Iterator[list[Traverser]]:
        for batch in batches:
            tick_batch(len(batch))
            if not fused:
                charge("vector_setup")
            out = [t for t in batch if step.fn(t.obj)]
            if out:
                charge("tuple_vec", len(out))
            yield out

    return kernel
