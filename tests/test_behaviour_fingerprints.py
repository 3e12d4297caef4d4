"""Committed behaviour fingerprints of the in-process benchmark workloads.

Each workload of ``benchmarks/e2e/workloads.py`` (imported read-only,
by file path) is built on a default ``Database()`` and driven for a
fixed number of ops at seeds 1 and 9.  Its fingerprint hashes three
things observed afterwards:

* every relation's contents (sorted row reprs, per relation);
* the full ``rule_fired`` sequence (sequence number, rule, matches);
* every engine counter (``db.stats.counters``).

``behaviour_fingerprints.json`` holds the hashes.  A change that only
makes the engine faster must leave all of them equal; a change that
means to move a counter regenerates the file and says which moved::

    PYTHONPATH=src python tests/test_behaviour_fingerprints.py --write

Run without ``--write`` the script prints which parts of which
fingerprints differ from the file.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import pathlib
import sys
from itertools import islice

import pytest

from repro import Database
from repro.core.validate import check_network
from repro.errors import ArielError

ROOT = pathlib.Path(__file__).resolve().parents[1]
FILE = pathlib.Path(__file__).with_name("behaviour_fingerprints.json")
#: ops driven after the build, per workload (a few seconds in all)
OPS = {"oltp_prepared": 400, "delta_joins": 120, "adhoc_lifecycle": 500}
SEEDS = (1, 9)


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "e2e_workloads", ROOT / "benchmarks" / "e2e" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS


def _hash(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def fingerprint(name: str, seed: int) -> dict:
    """The three hashes of one workload at one seed, after its ops."""
    workload = _workloads()[name](seed)
    db = Database()
    fired = []
    db.on_event(lambda _event, p: fired.append(
        (p["sequence"], p["rule"], p["matches"])), "rule_fired")
    workload.build(db)
    prepared = {key: db.prepare(text)
                for key, text in workload.statements.items()}
    failed = 0
    for verb, a, b, _expect in islice(workload.stream(0), OPS[name]):
        try:
            if verb == "exec":
                prepared[a].execute_with(b)
            elif verb == "text":
                db.execute(a)
            else:
                db.bulk_append(a, b)
        except ArielError:
            failed += 1
    assert check_network(db) == []
    relations = {relation.name: _hash(sorted(
        repr(s.values) for s in relation.scan()))
        for relation in db.catalog.relations()}
    counters = sorted(db.stats.counters.items())
    db.close()
    return {"relations": _hash(sorted(relations.items())),
            "rule_fired": _hash(fired),
            "counters": _hash(counters),
            "failed": failed}


CASES = [(name, seed) for name in OPS for seed in SEEDS]


@pytest.mark.parametrize("name,seed", CASES,
                         ids=[f"{n}-{s}" for n, s in CASES])
def test_behaviour_matches_the_committed_fingerprint(name, seed):
    expected = json.loads(FILE.read_text())[f"{name}/{seed}"]
    assert fingerprint(name, seed) == expected


def main(argv: list[str]) -> int:
    found = {f"{name}/{seed}": fingerprint(name, seed)
             for name, seed in CASES}
    if "--write" in argv:
        FILE.write_text(json.dumps(found, indent=2, sort_keys=True)
                        + "\n")
        return 0
    expected = json.loads(FILE.read_text())
    differ = 0
    for key, value in found.items():
        for part, digest in value.items():
            if expected.get(key, {}).get(part) != digest:
                differ += 1
                print(f"{key}: {part} differs")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
