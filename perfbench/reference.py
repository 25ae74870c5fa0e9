"""A fixed reference kernel that measures how fast the machine is right now.

The shared virtual machines the benchmark runs on change speed by up to
2x, in phases from milliseconds to minutes, for reasons the guest cannot
see (no steal time is reported): the host's other tenants share its cores
and caches.  Wall times taken in different phases are not comparable.

The benchmark therefore times the kernel once before every round
(:func:`measure`) and rescales each operation's wall time to *reference
speed*, the speed at which one kernel call takes :data:`REFERENCE_NS`::

    reference_ms = wall_ms * REFERENCE_NS / local_kernel_ns

where ``local_kernel_ns`` is the median kernel time over the rounds around
the operation (:func:`speeds`).  The kernel is pure Python and uses no code
of the repository, so a change to the engines changes the operations' wall
times but not the kernel's: a regression shows at full size, and only the
machine's own speed is divided out.

The kernel does what the engines do most: a two-hop walk over an object
graph of the benchmark's size (5,641 vertices, 36,944 edges) with a
property read per vertex, a de-duplication and a sort.  A kernel of the
same kind slows down like the operations do; a plain arithmetic loop or a
random walk over one large dict under- or over-states the slowdown.  The
timed walk runs right after an untimed walk of the same vertices, so its
data is in cache: how much of the cache the engines' last round evicted
(which a change to the engines can alter) does not reach the kernel time.
"""

from __future__ import annotations

import random
import statistics
import time

#: one timed walk at full speed on the machine the bounds were set on (a
#: shared 2-vCPU Xeon VM at 2.1 GHz with CPython 3.11); only a scale
REFERENCE_NS = 70_000
#: rounds on each side of a round whose kernel times give its speed: the
#: machine's speed changes within tens of milliseconds, so the window is
#: short (3 fitted the operations' own pass-to-pass changes as well as 1,
#: and better than 0, 10, 30 or one median per pass)
WINDOW = 3

VERTICES = 5641
EDGES = 36944


class _Vertex:
    __slots__ = ("id", "props", "out")

    def __init__(self, vid: int) -> None:
        self.id = vid
        self.props = {"name": f"v{vid}", "age": vid % 90}
        self.out: list[_Vertex] = []


def _graph(seed: int = 0) -> tuple[list[_Vertex], list[int]]:
    rng = random.Random(seed)
    vertices = [_Vertex(i) for i in range(VERTICES)]
    for _ in range(EDGES):
        a = vertices[rng.randrange(VERTICES)]
        b = vertices[rng.randrange(VERTICES)]
        a.out.append(b)
        b.out.append(a)
    # start only from vertices whose walk visits the median number of
    # edges (within 5%), so every call does the same work on other memory
    visits = {v.id: sum(len(f.out) for f in v.out) for v in vertices}
    median = statistics.median(visits.values())
    starts = [i for i, n in visits.items() if abs(n - median) <= 0.05 * median]
    rng.shuffle(starts)
    return vertices, starts


_VERTICES, _STARTS = _graph()
_next = 0


def kernel(start: int) -> int:
    """Two-hop neighbourhood of ``start``, the 20 youngest first."""
    seen: dict[int, int] = {}
    for friend in _VERTICES[start].out:
        for fof in friend.out:
            if fof.id not in seen:
                seen[fof.id] = fof.props["age"]
    return len(sorted(seen.items(), key=lambda kv: (kv[1], kv[0]))[:20])


def measure() -> int:
    """Nanoseconds of one warm kernel call on the next start vertex."""
    global _next
    _next = (_next + 1) % len(_STARTS)
    start = _STARTS[_next]
    kernel(start)
    t0 = time.perf_counter_ns()
    kernel(start)
    return time.perf_counter_ns() - t0


def speeds(kernel_ns: list[int]) -> list[float]:
    """Per round: how many times slower than reference speed it ran.

    The median of the kernel times of the ``2 * WINDOW + 1`` rounds around
    it, over :data:`REFERENCE_NS`.  The median keeps one kernel call that a
    timer tick or a garbage collection hit from moving a round.
    """
    n = len(kernel_ns)
    return [
        statistics.median(kernel_ns[max(0, r - WINDOW) : r + WINDOW + 1])
        / REFERENCE_NS
        for r in range(n)
    ]
