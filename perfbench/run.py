"""Two-clock SNB benchmark over the four dialect systems.

Usage::

    python3 perfbench/run.py --workload short_reads --seed 42 \\
        --seconds 4 --trace 0

One process, one thread, one closed-loop client: every step of a round
runs on neo4j-cypher, neo4j-gremlin, postgres-sql and virtuoso-sparql in
turn, each answer is digested and compared across the four systems, and
each operation is timed on the wall clock and priced on the simulated
(cost-model) clock.

A run sets the four systems up ``SETUPS`` times and keeps the first
loaded sets.  The first set runs rounds for ``--seconds`` (and at least
the workload's ``min_rounds``); each other kept set then replays exactly
those rounds.  A replay must reproduce every answer and every cost
ledger: the simulated clock is a pure function of the seed.

Wall times are rescaled to *reference speed* (see ``reference.py``): a
fixed kernel timed before every round measures how fast the shared
machine runs at that moment, and an operation's time is divided by it.

* ``--trace 0``: the replays (``passes - 1`` of them, one per kept set)
  are untraced too, and each operation's (and each round's) time is the
  minimum of its passes, so a burst of machine noise during one pass does
  not move the result.  Prints the end-to-end metrics.
* ``--trace 1``: one replay runs with the layer wrappers of ``tracer.py``
  installed and a counting ledger per operation.  Prints the per-layer
  metrics and writes every span to ``.perfbench/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import inspect
import itertools
import json
import math
import os
import re
import statistics
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: the generated graph: SF3 at divisor 1000, one fixed dataset (as LDBC
#: fixes the dataset per scale factor); ``--seed`` drives parameter
#: curation, the operation schedule and the parameter order
SCALE_FACTOR = 3.0
SCALE_DIVISOR = 1000.0
DATA_SEED = 42
#: the interpreter's string-hash seed, pinned for every run
HASH_SEED = "0"
#: complete set-ups per run; ``setup_s`` is their median
SETUPS = 3
#: most rounds replayed under the tracer (bounds span memory and time)
TRACE_ROUNDS = {"short_reads": 3000, "graph_reads": 400, "realtime_writes": 1000}
#: cost-model weight-group headers -> simulated-clock layer
SIM_GROUPS = {
    "storage": "storage",
    "query": "query",
    "client": "wire",
    "cluster": "wire",
    "durability": "txn",
    "mvcc": "mvcc",
}


class CountingCounters(dict):
    """A ledger counter mapping that also counts ``charge()`` calls.

    ``charge()`` does ``counters[name] += units``: one ``__setitem__`` per
    call.  A missing counter reads as 0.0 without being stored (unlike a
    ``defaultdict``, whose implicit store would count a first charge twice).
    """

    def __init__(self) -> None:
        super().__init__()
        self.calls = 0

    def __missing__(self, key: str) -> float:
        return 0.0

    def __setitem__(self, key: str, value: float) -> None:
        self.calls += 1
        super().__setitem__(key, value)


def cost_groups() -> dict[str, str]:
    """Counter name -> layer, from the weight-group comments of the model."""
    from repro.simclock import costmodel

    groups: dict[str, str] = {}
    group = None
    for line in inspect.getsource(costmodel).splitlines():
        header = re.match(r"\s*# --- (.+?) -+$", line)
        if header:
            first = header.group(1).split()[0].lower()
            if first not in SIM_GROUPS:
                raise ValueError(f"unmapped cost-model group {header.group(1)!r}")
            group = SIM_GROUPS[first]
            continue
        weight = re.match(r'\s*"(\w+)":', line)
        if weight and group is not None:
            groups[weight.group(1)] = group
    missing = set(costmodel.DEFAULT_WEIGHTS) - set(groups)
    if missing:
        raise ValueError(f"cost weights outside any group: {sorted(missing)}")
    return groups


class Phase:
    """What one pass of rounds over one set of systems recorded, per op."""

    def __init__(self) -> None:
        self.rounds = 0
        self.system: list[int] = []
        self.round: list[int] = []
        self.label: list[str] = []
        self.wall_ns: list[int] = []
        #: per round: making the round plus its ops' wall times
        self.round_ns: list[int] = []
        #: per round: one reference kernel time, measured before it
        self.kernel_ns: list[int] = []
        self.sim_us: list[float] = []
        self.digest: list[str] = []
        self.failed: list[bool] = []
        #: fingerprint of each op's cost ledger (compared across runs)
        self.ledger_key: list[int] = []
        #: full counters and charge() calls, traced runs only
        self.ledgers: list[dict[str, float]] = []
        self.charge_calls: list[int] = []

    def speeds(self) -> list[float]:
        """Per round: how many times slower than reference speed it ran."""
        from reference import speeds

        return speeds(self.kernel_ns)

    def reference_ns(self) -> list[float]:
        """Each op's wall time rescaled to reference speed."""
        speed = self.speeds()
        return [w / speed[r] for w, r in zip(self.wall_ns, self.round)]


def run_phase(
    workload: Any,
    systems: dict[str, Any],
    model: Any,
    *,
    seconds: float,
    min_rounds: int,
    max_rounds: int | None = None,
    tracer: Any = None,
    per_round: Any = None,
) -> Phase:
    """Run rounds until ``seconds`` have passed and ``min_rounds`` are done."""
    from reference import measure
    from repro.simclock.ledger import Ledger, metered
    from repro.txn import oracle
    from workloads import digest

    root = tracer.layer_ids["connectors"] if tracer is not None else 0
    names = list(systems)
    connectors = list(systems.values())
    phase = Phase()
    now = time.perf_counter_ns
    end_ns = now() + int(seconds * 1e9)
    stream = workload.rounds(systems)
    try:
        for index in itertools.count():
            if max_rounds is not None and index >= max_rounds:
                break
            phase.kernel_ns.append(measure())
            # a round's time includes making it: for realtime_writes that
            # is the Kafka produce and poll of its update event
            t0 = now()
            steps = next(stream)
            round_ns = now() - t0
            for step in steps:
                digests = []
                for s, connector in enumerate(connectors):
                    ledger = Ledger()
                    if tracer is not None:
                        ledger.counters = CountingCounters()
                        tracer.system = s
                        tracer.op_id = len(phase.wall_ns)
                    with metered(ledger):
                        if tracer is not None:
                            span = tracer.open(root)
                        t0 = now()
                        try:
                            if step.snapshot is None:
                                answer = step.run(connector)
                            else:
                                with oracle.reading(step.snapshot):
                                    answer = step.run(connector)
                        except Exception as exc:  # noqa: BLE001 - a failed op is counted, the run goes on
                            answer = exc
                        wall = now() - t0
                        if tracer is not None:
                            # traced ops are timed by their root span, so
                            # the span tree's self times add up to ``wall``
                            tracer.close(span)
                            wall = tracer.busy[span]
                            tracer.op_id = -1
                            tracer.system = len(connectors)
                    if isinstance(answer, Exception):
                        d = f"error:{type(answer).__name__}:{answer}"
                    else:
                        d = digest(answer)
                    digests.append(d)
                    counters = ledger.counters
                    phase.system.append(s)
                    phase.round.append(index)
                    phase.label.append(step.label)
                    phase.wall_ns.append(wall)
                    round_ns += wall
                    phase.sim_us.append(model.cost_us(counters))
                    phase.ledger_key.append(hash(tuple(sorted(counters.items()))))
                    if tracer is not None:
                        phase.ledgers.append(dict(counters))
                        phase.charge_calls.append(counters.calls)
                majority, _ = Counter(digests).most_common(1)[0]
                for s, d in enumerate(digests):
                    bad = d != majority or d.startswith("error:")
                    phase.failed.append(bad)
                    phase.digest.append(d)
                    if bad:
                        print(
                            f"FAILED round {index} {step.label} on {names[s]}: {d}",
                            file=sys.stderr,
                        )
            phase.rounds = index + 1
            phase.round_ns.append(round_ns)
            if per_round is not None:
                per_round()
            if phase.rounds >= min_rounds and now() >= end_ns:
                break
    finally:
        stream.close()
        workload.close()
    return phase


def set_up(
    workload_cls: Any, seed: int, data_seed: int
) -> tuple[Any, dict, dict, float, float]:
    """Generate, load the four systems and run one warm-up pass."""
    from repro.core.connectors import make_connector
    from repro.snb.datagen import GeneratorConfig, generate
    from workloads import SYSTEMS

    t0 = time.perf_counter()
    dataset = generate(
        GeneratorConfig(
            scale_factor=SCALE_FACTOR,
            scale_divisor=SCALE_DIVISOR,
            seed=data_seed,
        )
    )
    datagen_s = time.perf_counter() - t0
    systems = {}
    load_s = {}
    for key in SYSTEMS:
        t = time.perf_counter()
        connector = make_connector(key)
        connector.load(dataset)
        load_s[key] = time.perf_counter() - t
        systems[key] = connector
    workload = workload_cls(dataset, seed)
    for step in workload.warm_up_steps():
        for connector in systems.values():
            step.run(connector)
    return workload, systems, load_s, datagen_s, time.perf_counter() - t0


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def compare_replay(first: Phase, replay: Phase) -> list[str]:
    """Differences between two runs of the same rounds (must be none)."""
    problems = []
    for i in range(len(replay.wall_ns)):
        if first.digest[i] != replay.digest[i]:
            problems.append(f"op {i}: answer differs between runs")
        if first.ledger_key[i] != replay.ledger_key[i]:
            problems.append(f"op {i}: cost ledger differs between runs")
    return problems


def end_to_end(
    runs: list[Phase], names: list[str], setup_s: list[float], sim_rounds: int
) -> dict:
    """End-to-end metrics at reference speed; an op's (and a round's) time
    is its fastest of ``runs``."""
    base = runs[0]
    wall_ms = [
        min(walls) / 1e6 for walls in zip(*(r.reference_ns() for r in runs))
    ]
    round_s = sum(
        min(walls)
        for walls in zip(
            *([ns / v for ns, v in zip(r.round_ns, r.speeds())] for r in runs)
        )
    ) / 1e9
    ops = len(wall_ms)
    metrics: dict[str, tuple[float, str, int]] = {
        "setup_s": (statistics.median(setup_s), "s", len(setup_s)),
        "ops_per_s": (ops / round_s, "1/s", ops),
        "ok_share": (1.0 - sum(base.failed) / ops, "ratio", ops),
    }
    for s, key in enumerate(names):
        walls = sorted(w for w, sys_ in zip(wall_ms, base.system) if sys_ == s)
        sims = [
            us / 1e3
            for us, sys_, r in zip(base.sim_us, base.system, base.round)
            if sys_ == s and r < sim_rounds
        ]
        metrics[f"{key}.p50_ms"] = (percentile(walls, 0.50), "ms", len(walls))
        metrics[f"{key}.p99_ms"] = (percentile(walls, 0.99), "ms", len(walls))
        metrics[f"{key}.sim_ms_per_op"] = (statistics.fmean(sims), "ms", len(sims))
    return metrics


def per_layer(
    tracer: Any,
    traced: Phase,
    base: Phase,
    names: list[str],
    model: Any,
    extra: dict[str, Any],
) -> tuple[dict, float]:
    """Per-op, per-system layer metrics of the traced replay; times are
    rescaled to reference speed, like the end-to-end ones.

    Also returns the share of traced op wall time that the span trees'
    self times fail to account for (zero unless a span escaped its op).
    """
    from tracer import LAYERS

    groups = cost_groups()
    own = tracer.self_ns()
    n_ops = len(traced.wall_ns)
    ops_per_system = Counter(traced.system)
    self_ms: dict[tuple[int, str], float] = defaultdict(float)
    calls: dict[tuple[int, str], int] = defaultdict(int)
    top_exec: dict[tuple[int, str], int] = defaultdict(int)
    op_self_ns = [0] * n_ops
    kafka_ms = 0.0
    layer_of = tracer.layer
    parent_of = tracer.parent
    round_speed = traced.speeds()
    op_speed = [round_speed[r] for r in traced.round]
    # Kafka spans belong to no op; they take the run's median speed
    median_speed = statistics.median(round_speed)
    for i in range(len(own)):
        layer = LAYERS[layer_of[i]]
        op = tracer.op[i]
        if op < 0:
            if layer == "kafka":
                kafka_ms += own[i] / 1e6 / median_speed
            continue
        s = traced.system[op]
        op_self_ns[op] += own[i]
        self_ms[s, layer] += own[i] / 1e6 / op_speed[op]
        calls[s, layer] += 1
        if layer in ("exec.compiled", "exec.interp"):
            p = parent_of[i]
            if p < 0 or not LAYERS[layer_of[p]].startswith("exec."):
                top_exec[s, layer] += 1
    unaccounted = sum(
        abs(op_self_ns[i] - traced.wall_ns[i]) for i in range(n_ops)
    ) / max(1, sum(traced.wall_ns))

    metrics: dict[str, tuple[float, str, int]] = {}
    for s, key in enumerate(names):
        n = ops_per_system[s]

        def ms(layer: str) -> float:
            return self_ms[s, layer] / n

        def count(layer: str) -> float:
            return calls[s, layer] / n

        def leaf(key_: str) -> float:
            return tracer.counts[key_][s] / n

        interp = top_exec[s, "exec.interp"]
        compiled = top_exec[s, "exec.compiled"]
        sims: dict[str, float] = defaultdict(float)
        charge_calls = 0
        for op in range(n_ops):
            if traced.system[op] == s:
                charge_calls += traced.charge_calls[op]
                for counter, units in traced.ledgers[op].items():
                    sims[groups[counter]] += model.weight(counter) * units
        values = {
            "connectors.self_ms": (ms("connectors"), "ms"),
            "engine.statements": (
                count("engine") + count("tinkerpop.server"), "count"
            ),
            "engine.self_ms": (ms("engine"), "ms"),
            "frontend.calls": (count("frontend"), "count"),
            "frontend.ms": (ms("frontend"), "ms"),
            "cache.hit_rate": (extra["hit_rate"][key], "ratio"),
            "exec.interpreted_share": (
                interp / (interp + compiled) if interp + compiled else 0.0,
                "ratio",
            ),
            "exec.self_ms": (
                ms("exec.compiled") + ms("exec.interp") + ms("exec.kernel"), "ms"
            ),
            "storage.adjacency_calls": (count("storage.adjacency"), "count"),
            "storage.adjacency_ms": (ms("storage.adjacency"), "ms"),
            "storage.probe_calls": (count("storage.probe"), "count"),
            "storage.probe_ms": (ms("storage.probe"), "ms"),
            "mvcc.visible_calls": (leaf("mvcc.visible"), "count"),
            "mvcc.stale_keys_ms": (ms("mvcc.stale_keys"), "ms"),
            "mvcc.gc_runs": (count("mvcc.gc"), "count"),
            "mvcc.gc_ms": (ms("mvcc.gc"), "ms"),
            "mvcc.stamps_live": (extra["stamps_live"][key], "count"),
            "txn.self_ms": (ms("txn"), "ms"),
            "txn.lock_acquires": (leaf("txn.lock_acquires"), "count"),
            "wal.appends": (leaf("wal.appends"), "count"),
            "wal.commits": (leaf("wal.commits"), "count"),
            "ledger.charge_calls": (charge_calls / n, "count"),
        }
        for group in ("storage", "query", "wire", "txn", "mvcc"):
            values[f"sim.{group}_us"] = (sims[group] / n, "us")
        if key == "neo4j-gremlin":
            values["tinkerpop.server.self_ms"] = (ms("tinkerpop.server"), "ms")
        for name, (value, unit) in values.items():
            metrics[f"{key}.{name}"] = (value, unit, n)

    untraced = sum(base.reference_ns()[:n_ops])
    metrics["kafka.ms"] = (kafka_ms / n_ops, "ms", n_ops)
    metrics["setup.datagen_s"] = (extra["datagen_s"], "s", SETUPS)
    for key in names:
        metrics[f"{key}.setup.load_s"] = (extra["load_s"][key], "s", SETUPS)
    metrics["trace.overhead_share"] = (
        sum(traced.reference_ns()) / untraced - 1.0, "ratio", n_ops
    )
    return metrics, unaccounted


def traced_replay(
    workload: Any,
    systems: dict[str, Any],
    model: Any,
    rounds: int,
    spans_path: Path,
) -> tuple[Phase, Any, dict[str, Any]]:
    """Replay ``rounds`` rounds with every layer wrapper installed."""
    from tracer import Tracer
    from workloads import version_stores

    stores = {key: version_stores(c) for key, c in systems.items()}
    stamps: dict[str, list[int]] = defaultdict(list)

    def sample_stamps() -> None:
        for key, found in stores.items():
            stamps[key].append(sum(v.metadata_counts()["stamps"] for v in found))

    def cache_counts() -> dict[str, tuple[int, int]]:
        out = {}
        for key, connector in systems.items():
            rows = connector.cache_stats()
            out[key] = (sum(r.hits for r in rows), sum(r.misses for r in rows))
        return out

    before = cache_counts()
    tracer = Tracer(len(systems))
    tracer.install()
    try:
        phase = run_phase(
            workload, systems, model,
            seconds=0.0, min_rounds=rounds, max_rounds=rounds,
            tracer=tracer, per_round=sample_stamps,
        )
    finally:
        tracer.uninstall()
    after = cache_counts()
    hit_rate = {}
    for key in systems:
        hits = after[key][0] - before[key][0]
        misses = after[key][1] - before[key][1]
        hit_rate[key] = hits / (hits + misses) if hits + misses else 0.0
    tracer.write(spans_path)
    extra = {
        "hit_rate": hit_rate,
        "stamps_live": {k: statistics.fmean(v) for k, v in stamps.items()},
    }
    return phase, tracer, extra


def print_by_operation(phase: Phase, names: list[str]) -> None:
    """Wall p50 (at reference speed) next to mean simulated cost, per
    operation and system."""
    walls: dict[tuple[str, int], list[float]] = defaultdict(list)
    sims: dict[tuple[str, int], list[float]] = defaultdict(list)
    for label, s, wall, sim in zip(
        phase.label, phase.system, phase.reference_ns(), phase.sim_us
    ):
        walls[label, s].append(wall / 1e6)
        sims[label, s].append(sim / 1e3)
    print("  by operation: wall p50 ms at reference speed / simulated mean ms")
    for label in sorted({label for label, _ in walls}):
        cells = " ".join(
            f"{key}={percentile(sorted(walls[label, s]), 0.5):.3g}/"
            f"{statistics.fmean(sims[label, s]):.3g}"
            for s, key in enumerate(names)
        )
        print(f"    {label:22s} n={len(walls[label, 0]):<6d} {cells}")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=4.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--data-seed", type=int, default=DATA_SEED,
        help="datagen seed: another dataset, for a run off the fixed one",
    )
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"no repro sources under {SRC}", file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # one string-hash layout for every run: set iteration orders (and
        # with them any order-dependent cost) cannot differ between runs
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, [sys.executable, __file__, *sys.argv[1:]])
    sys.path.insert(0, str(SRC))
    from repro.simclock import CostModel
    from workloads import SYSTEMS, WORKLOADS

    if args.workload not in WORKLOADS:
        print(
            f"unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    workload_cls = WORKLOADS[args.workload]
    model = CostModel()
    names = list(SYSTEMS)

    setup_s, datagen_s, load_s = [], [], defaultdict(list)
    # the traced run needs a timed set and one to replay under the tracer
    keep = 2 if args.trace else workload_cls.passes
    loaded: list[tuple[Any, dict]] = []
    for _ in range(SETUPS):
        workload, systems, loads, gen_s, total_s = set_up(
            workload_cls, args.seed, args.data_seed
        )
        setup_s.append(total_s)
        datagen_s.append(gen_s)
        for key, value in loads.items():
            load_s[key].append(value)
        if len(loaded) < keep:
            loaded.append((workload, systems))
        del workload, systems
        # the loaded graphs live for the whole run: keep the cyclic
        # collector from re-scanning them during later set-ups and rounds
        gc.collect()
        gc.freeze()

    (first_workload, first_systems), *others = loaded
    base = run_phase(
        first_workload, first_systems, model,
        seconds=args.seconds, min_rounds=first_workload.min_rounds,
    )
    if args.trace:
        rounds = min(base.rounds, TRACE_ROUNDS[args.workload])
        spans = ROOT / ".perfbench" / f"spans-{args.workload}-seed{args.seed}.csv.gz"
        replay, tracer, extra = traced_replay(*others[0], model, rounds, spans)
        replays = [replay]
        extra["datagen_s"] = statistics.median(datagen_s)
        extra["load_s"] = {k: statistics.median(v) for k, v in load_s.items()}
        metrics, unaccounted = per_layer(tracer, replay, base, names, model, extra)
    else:
        replays = [
            run_phase(
                workload, systems, model,
                seconds=0.0, min_rounds=base.rounds, max_rounds=base.rounds,
            )
            for workload, systems in others
        ]
        metrics = end_to_end(
            [base, *replays], names, setup_s, first_workload.min_rounds
        )
        unaccounted = 0.0
    problems = [p for replay in replays for p in compare_replay(base, replay)]
    if unaccounted > 1e-9:
        problems.append(f"span self times miss {unaccounted:.2%} of op wall time")

    attempted = len(base.wall_ns)
    failed = sum(base.failed)
    for problem in problems[:20]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(
        f"{args.workload} seed={args.seed} data_seed={args.data_seed}: "
        f"{base.rounds} rounds, {attempted} ops, {failed} failed; "
        f"{sum(len(r.wall_ns) for r in replays)} ops replayed, "
        f"{len(problems)} replay differences"
    )
    print(
        "  machine speed (median kernel time over reference, per pass): "
        + " ".join(f"{statistics.median(r.speeds()):.3f}" for r in [base, *replays])
    )
    for name, (value, unit, samples) in metrics.items():
        print(f"  {name:44s} {value:14.6g} {unit:6s} n={samples}")
    print_by_operation(base, names)
    print(
        json.dumps(
            {
                "correct": failed == 0 and not problems,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit, _n) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
