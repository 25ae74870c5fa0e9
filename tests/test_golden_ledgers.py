"""Golden ledgers: the simulated clock of every catalog read is pinned.

Every read operation of the connector catalog runs on all eight systems
at a small scale factor, in three passes over one freshly loaded
instance each:

* ``interpreted`` — the tuple-at-a-time executors (the paper harnesses'
  mode);
* ``compiled`` — the compiled/vectorized closures (the engine default);
* ``snapshot`` — compiled, under a snapshot held across an update batch,
  so the reads walk stamped records the snapshot must not see.

The cost-ledger counters of each operation, summed over its curated
parameters, must equal ``golden_ledgers.json`` exactly.  A change that
is meant to leave the simulated clock alone (a faster data structure,
metering, a refactor) must leave this file unchanged; a change that
re-prices work regenerates it and says why.

Regenerate with::

    PYTHONPATH=src python tests/test_golden_ledgers.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from repro.core import SUT_KEYS, make_connector
from repro.core.benchmark import WorkloadParams
from repro.simclock.ledger import Ledger, metered
from repro.snb import GeneratorConfig, generate
from repro.txn import oracle

CONFIG = GeneratorConfig(scale_factor=3, scale_divisor=8000, seed=13)
GOLDEN = Path(__file__).with_name("golden_ledgers.json")
PASSES = ("interpreted", "compiled", "snapshot")
#: update events applied while the ``snapshot`` pass holds its snapshot
UPDATES = 40


def _catalog(params):
    """Every read operation in the catalog with curated arguments."""
    ops = []
    for pid in params.person_ids:
        ops.append(("point_lookup", (pid,)))
        ops.append(("one_hop", (pid,)))
        ops.append(("two_hop", (pid,)))
        ops.append(("person_profile", (pid,)))
        ops.append(("person_recent_posts", (pid, 10)))
        ops.append(("person_friends", (pid,)))
        ops.append(("complex_two_hop", (pid, 20)))
        ops.append(("friends_recent_posts", (pid, 10)))
    for pair in params.path_pairs:
        ops.append(("shortest_path", pair))
    for mid in params.message_ids:
        ops.append(("message_content", (mid,)))
        ops.append(("message_creator", (mid,)))
        ops.append(("message_forum", (mid,)))
        ops.append(("message_replies", (mid,)))
    return ops


def _run(connector, ops) -> dict[str, dict[str, float]]:
    """Per operation name: its counters summed over ``ops``."""
    totals: dict[str, dict[str, float]] = {}
    for op, args in ops:
        ledger = Ledger()
        with metered(ledger):
            getattr(connector, op)(*args)
        into = totals.setdefault(op, {})
        for name, units in ledger.counters.items():
            into[name] = into.get(name, 0.0) + units
    return {
        op: dict(sorted(counters.items()))
        for op, counters in totals.items()
    }


def _system_ledgers(key, dataset, ops) -> dict[str, dict]:
    connector = make_connector(key)
    connector.load(dataset)
    connector.set_execution_mode("interpreted")
    out = {"interpreted": _run(connector, ops)}
    connector.set_execution_mode("compiled")
    out["compiled"] = _run(connector, ops)
    snapshot = oracle.ORACLE.begin()
    try:
        for event in dataset.updates[:UPDATES]:
            connector.apply_update(event)
        with oracle.reading(snapshot):
            out["snapshot"] = _run(connector, ops)
    finally:
        oracle.ORACLE.release(snapshot)
    return out


def _params(dataset):
    return WorkloadParams.curate(dataset, count=4, seed=3)


@pytest.fixture(scope="module")
def dataset():
    return generate(CONFIG)


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_file_covers_every_system(golden):
    assert sorted(golden) == sorted(SUT_KEYS)
    for key, passes in golden.items():
        assert sorted(passes) == sorted(PASSES), key


@pytest.mark.parametrize("key", SUT_KEYS)
def test_ledgers_match_golden(key, dataset, golden):
    actual = _system_ledgers(key, dataset, _catalog(_params(dataset)))
    for name in PASSES:
        for op, counters in golden[key][name].items():
            assert actual[name][op] == counters, (
                f"{key} {name} {op}: ledger differs from golden"
            )
        assert sorted(actual[name]) == sorted(golden[key][name])


def main() -> int:
    dataset = generate(CONFIG)
    ops = _catalog(_params(dataset))
    golden = {key: _system_ledgers(key, dataset, ops) for key in SUT_KEYS}
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
