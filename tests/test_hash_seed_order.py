"""Probe and firing order must not depend on Python's string-hash seed.

``str`` hashes are salted per process (``PYTHONHASHSEED``), and a
:class:`~repro.storage.tuples.TupleId` hashes its relation name.  Any
container that iterates tuple ids in hash order — a hash-index bucket
kept as a ``set`` — therefore hands rows to a query, and mutations to
the rule network, in an order that changes from one process to the
next.  The network's P-node stamps and the agenda's recency tie-break
then turn that into a different firing order.

The test runs one fixed script in fresh interpreters under different
seeds and requires identical retrieve row order and firing log.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

import repro

#: a hash index on emp.dno with an 8-row bucket; ``raise`` joins its
#: dept match to emp through that index, replacing the bucket's rows in
#: index order, and each replaced row completes one ``watch`` rule —
#: equal priorities, so recency (hence the replace order) decides which
#: fires first
_SCRIPT = r'''
import json
from repro import Database

db = Database()
db.execute("create emp (name = text, dno = int4, sal = int4)")
db.execute("create dept (dno = int4, budget = int4)")
db.execute("create seen (name = text)")
db.execute("define index emp_dno on emp (dno) using hash")
for i in range(16):
    db.execute(f'append emp(name = "e{i}", dno = {i % 2}, sal = 0)')
for i in range(16):
    db.execute(f'define rule watch{i} if emp.sal > 0 and emp.name = "e{i}" '
               f'then append to seen(name = emp.name)')
db.execute("define rule raise on append dept if dept.budget > 0 "
           "then replace emp (sal = emp.sal + 1) "
           "where emp.dno = dept.dno")
db.execute("append dept(dno = 1, budget = 5)")
rows = db.query("retrieve (emp.name) where emp.dno = 1").rows
print(json.dumps({"rows": [list(r) for r in rows],
                  "firings": [f.rule_name for f in db.firing_log]}))
'''


def _run(seed: str) -> dict:
    src = pathlib.Path(repro.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-c", _SCRIPT], env=env,
                          capture_output=True, text=True, timeout=120,
                          check=True)
    return json.loads(done.stdout)


def test_probe_and_firing_order_independent_of_hash_seed():
    first = _run("0")
    # the script really exercises a multi-row bucket and the cascade
    assert len(first["rows"]) == 8
    assert first["firings"][0] == "raise"
    assert len(first["firings"]) == 9
    for seed in ("1", "2"):
        assert _run(seed) == first, f"PYTHONHASHSEED={seed}"
