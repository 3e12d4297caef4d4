"""Database persistence: dump to (and load from) an ARL script.

A dump is an ordinary command script — ``create`` statements, ``define
index``, one ``append`` per tuple, then the rule definitions — so a
dumped database can be restored by any Ariel instance (or edited by
hand).  Data precedes rules in the script, so loading does not fire
event/transition rules on historical data; pattern rules re-prime their
α-memories and P-nodes from the loaded tuples during activation, exactly
as at original definition time.

This plays the role of EXODUS persistence in the original system (see
DESIGN.md, "Substitutions"): the rule-system state that matters —
definitions, data, schema — round-trips; transient per-transition state
(Δ-sets, dynamic memories) intentionally does not.
"""

from __future__ import annotations

import io
import pathlib

from repro.db import Database
from repro.lang.ast_nodes import deparse
from repro.lang.literals import encode_literal


def dumps(db: Database) -> str:
    """The database as an ARL script string."""
    out = io.StringIO()
    out.write("-- Ariel database dump\n")

    relations = sorted(db.catalog.relations(), key=lambda r: r.name)
    for relation in relations:
        columns = ", ".join(f"{a.name} = {a.type.value}"
                            for a in relation.schema)
        out.write(f"create {relation.name} ({columns})\n")

    for info in sorted(db.catalog.indexes(), key=lambda i: i.name):
        out.write(f"define index {info.name} on {info.relation} "
                  f"({info.attribute}) using {info.kind}\n")

    for relation in relations:
        for stored in relation.scan():
            out.write(_append_command(relation.name, relation.schema,
                                      stored.values) + "\n")

    inactive: list[str] = []
    for record in sorted(db.manager.installed_rules(),
                         key=lambda r: r.name):
        out.write(deparse(record.definition) + "\n")
        if not record.active:
            inactive.append(record.name)
    for name in inactive:
        out.write(f"deactivate rule {name}\n")
    return out.getvalue()


def dump(db: Database, path) -> None:
    """Write :func:`dumps` output to ``path``."""
    pathlib.Path(path).write_text(dumps(db))


def loads(script: str, **database_kwargs) -> Database:
    """A new database restored from a dump script.

    Rule firing is suspended while the script loads and the P-nodes
    primed by rule activation are cleared afterwards: restored data is
    *already processed* data — the original database's rules had their
    chance to react to it before the dump.  (Matches that were pending
    but unfired at dump time are consequently not preserved.)
    """
    db = Database(**database_kwargs)
    db._load_settled(script, [])
    return db


def load(path, **database_kwargs) -> Database:
    """A new database restored from a dump file."""
    return loads(pathlib.Path(path).read_text(), **database_kwargs)


def _append_command(relation: str, schema, values: tuple) -> str:
    parts = []
    for attr, value in zip(schema, values):
        parts.append(f"{attr.name} = {_literal(value)}")
    return f"append {relation}({', '.join(parts)})"


#: total value → literal-text encoding, shared with the WAL and the AST
#: deparser (see :mod:`repro.lang.literals`)
_literal = encode_literal
