"""A seek leaves no reference cycle behind.

The join step runs per token, so a reference cycle it creates per call
(a recursive nested closure, say) is garbage only the cyclic collector
frees — work on every collection, and a collection every few hundred
tokens.  With the collector off, route tokens through the compiled
seeks of a cyclic rule (the triangle) and of a two-variable rule;
whatever ``gc.collect()`` then finds must not come from engine code.
"""

import gc

from repro import Database


def _engine_objects(garbage: list) -> list:
    """The collected objects the engine made: its functions and the
    instances of its classes."""
    found = []
    for obj in garbage:
        module = getattr(obj, "__module__", None) if callable(obj) \
            and hasattr(obj, "__code__") else type(obj).__module__
        if module and module.startswith("repro"):
            found.append(obj)
    return found


def _db() -> Database:
    db = Database()
    db.execute_script("""
        create r (a = int4, b = int4)
        create s (b = int4, c = int4)
        create t (c = int4, a = int4)
        create u (a = int4, d = int4)
        create log (a = int4)
    """)
    db.execute("define rule tri if e1.b = e2.b and e2.c = e3.c "
               "and e3.a = e1.a from e1 in r, e2 in s, e3 in t "
               "then append to log(a = e1.a)")
    db.execute("define rule pair if r.a = u.a and r.b >= 0 "
               "then append to log(a = u.d)")
    for k in range(4):
        db.execute(f"append s(b = {k}, c = {k})")
        db.execute(f"append t(c = {k}, a = {k})")
        db.execute(f"append u(a = {k}, d = {k})")
    return db


def test_seeks_leave_no_reference_cycles():
    db = _db()
    db.execute("append r(a = 9, b = 9)")       # plan both seeks once
    seeks = db.stats.get("joins.seeks")
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for k in range(4):
            db.execute(f"append r(a = {k}, b = {k})")
        gc.collect()
        found = _engine_objects(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    # both rules sought from r each time
    assert db.stats.get("joins.seeks") - seeks == 8
    assert db.relation_rows("log")
    assert found == []
