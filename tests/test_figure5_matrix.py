"""End-to-end Figure 5: every token kind against every α-memory kind.

The unit tests in test_alpha.py cover the dispatch function; these tests
drive each combination through the *whole* stack — real commands
generating real tokens against rules whose variables have each gating —
and assert the resulting memory and P-node state.  Scenarios marked
"don't care" in the paper's table assert that nothing happens.
"""

import pytest

from repro import Database
from repro.core.alpha import MemoryEntry, MemoryOp, dispatch, verdict
from repro.core.tokens import EventSpecifier, Token, TokenKind
from repro.lang.ast_nodes import EventKind
from repro.storage.tuples import TupleId


def db_with_rule(condition_clause, multi_var=False):
    """A database with one rule whose t-variable has the given gating.

    With ``multi_var`` the rule joins a second relation so the t memory
    is a real (non-simple) α-memory; the u relation holds one matching
    row so joins succeed.
    """
    db = Database()
    db.execute("create t (a = int4, k = int4)")
    db.execute("create u (k = int4)")
    db.execute("create log (a = int4)")
    db.execute("append u(k = 1)")
    join = " and t.k = u.k" if multi_var else ""
    db.execute(f"define rule r {condition_clause}{join} "
               f"then append to log(a = t.a)")
    db._rules_suspended = True
    return db


def memory_len(db):
    return len(db.network.memory("r", "t"))


def pnode_len(db):
    return len(db.network.pnode("r"))


# token generators: each returns the db after one physical operation of
# the right shape (all in one transition where it matters)

def send_plus(db):                  # + (append)
    db.execute("append t(a = 10, k = 1)")


def send_minus_plain_and_delta_plus(db):
    """modify of a pre-existing tuple: −(no event) then Δ+(replace)."""
    db._rules_suspended = False
    db.execute("deactivate rule r")
    db.execute("append t(a = 10, k = 1)")
    db.execute("activate rule r")
    db._rules_suspended = True
    db.execute("replace t (a = 20)")


def send_delta_minus(db):
    """two modifies in ONE transition: −, Δ+, then Δ−, Δ+."""
    db._rules_suspended = False
    db.execute("deactivate rule r")
    db.execute("append t(a = 10, k = 1)")
    db.execute("activate rule r")
    db._rules_suspended = True
    db.execute("do replace t (a = 20) replace t (a = 30) end")


def send_minus_delete(db):          # − (delete)
    db._rules_suspended = False
    db.execute("deactivate rule r")
    db.execute("append t(a = 10, k = 1)")
    db.execute("activate rule r")
    db._rules_suspended = True
    db.execute("delete t")


class TestPatternMemory:
    """stored-α row: + insert, − delete, Δ+ insert newt, Δ− delete."""

    COND = "if t.a > 5"

    def test_plus_inserts(self):
        db = db_with_rule(self.COND, multi_var=True)
        send_plus(db)
        assert memory_len(db) == 1
        assert pnode_len(db) == 1

    def test_delta_plus_inserts_new_value(self):
        db = db_with_rule(self.COND, multi_var=True)
        send_minus_plain_and_delta_plus(db)
        memory = db.network.memory("r", "t")
        [entry] = list(memory.entries())
        assert entry.values[0] == 20
        assert entry.old_values is None        # pattern stores no pair

    def test_delta_minus_then_plus_swaps(self):
        db = db_with_rule(self.COND, multi_var=True)
        send_delta_minus(db)
        [entry] = list(db.network.memory("r", "t").entries())
        assert entry.values[0] == 30
        assert pnode_len(db) == 1

    def test_minus_delete_removes(self):
        db = db_with_rule(self.COND, multi_var=True)
        send_minus_delete(db)
        assert memory_len(db) == 0
        assert pnode_len(db) == 0


class TestTransitionMemory:
    """dynamic-trans-α row: only Δ tokens matter."""

    COND = "if t.a > previous t.a"

    def test_plus_is_dont_care(self):
        db = db_with_rule(self.COND, multi_var=True)
        send_plus(db)
        assert memory_len(db) == 0
        assert pnode_len(db) == 0

    def test_delta_plus_inserts_pair(self):
        db = db_with_rule(self.COND, multi_var=True)
        send_minus_plain_and_delta_plus(db)
        [entry] = list(db.network.memory("r", "t").entries())
        assert entry.values[0] == 20
        assert entry.old_values[0] == 10
        assert pnode_len(db) == 1

    def test_delta_minus_retracts_then_delta_plus_rebinds(self):
        db = db_with_rule(self.COND, multi_var=True)
        send_delta_minus(db)
        [entry] = list(db.network.memory("r", "t").entries())
        assert entry.values[0] == 30
        assert entry.old_values[0] == 10      # old half = transition start

    def test_case4_modify_then_delete_retracts(self):
        """modify + delete in one transition: Δ+ binds, then the case-4
        Δ− retracts — no flush involved."""
        db = db_with_rule(self.COND, multi_var=True)
        db._rules_suspended = False
        db.execute("deactivate rule r")
        db.execute("append t(a = 10, k = 1)")
        db.execute("activate rule r")
        db._rules_suspended = True
        db.execute("do replace t (a = 20) delete t end")
        assert memory_len(db) == 0
        assert pnode_len(db) == 0

    def test_binding_broken_by_end_of_transition_flush(self):
        """Across transitions the binding is broken by the dynamic
        flush ('they only retain their contents during the current
        transition', paper §4.3.2)."""
        db = db_with_rule(self.COND, multi_var=True)
        send_minus_plain_and_delta_plus(db)
        assert pnode_len(db) == 1
        # firing is suspended in this fixture, so emulate the end of
        # rule processing the cycle would have performed
        db.manager.end_of_rule_processing()
        assert memory_len(db) == 0
        assert pnode_len(db) == 0


class TestOnAppendMemory:
    COND = "on append t if t.a > 5"

    def test_plus_append_inserts(self):
        db = db_with_rule(self.COND, multi_var=True)
        send_plus(db)
        assert memory_len(db) == 1
        assert pnode_len(db) == 1

    def test_delta_tokens_ignored(self):
        db = db_with_rule(self.COND, multi_var=True)
        send_minus_plain_and_delta_plus(db)
        assert memory_len(db) == 0
        assert pnode_len(db) == 0

    def test_case2_retraction(self):
        """append then delete in one block: the insert − retracts."""
        db = db_with_rule(self.COND, multi_var=True)
        db.execute("do append t(a = 10, k = 1) "
                   "delete t where t.a = 10 end")
        assert memory_len(db) == 0
        assert pnode_len(db) == 0


class TestOnDeleteMemory:
    COND = "on delete t if t.a > 5"

    def test_minus_delete_asserts(self):
        db = db_with_rule(self.COND, multi_var=True)
        send_minus_delete(db)
        assert memory_len(db) == 1
        assert pnode_len(db) == 1

    def test_plus_ignored(self):
        db = db_with_rule(self.COND, multi_var=True)
        send_plus(db)
        assert memory_len(db) == 0

    def test_case2_insert_minus_does_not_assert(self):
        db = db_with_rule(self.COND, multi_var=True)
        db.execute("do append t(a = 10, k = 1) "
                   "delete t where t.a = 10 end")
        assert memory_len(db) == 0
        assert pnode_len(db) == 0


class TestOnReplaceMemory:
    COND = "on replace t(a) if t.a > 5"

    def test_delta_plus_matching_attr_inserts(self):
        db = db_with_rule(self.COND, multi_var=True)
        send_minus_plain_and_delta_plus(db)
        [entry] = list(db.network.memory("r", "t").entries())
        assert entry.values[0] == 20
        assert entry.old_values[0] == 10       # pair kept for previous
        assert pnode_len(db) == 1

    def test_delta_plus_other_attr_ignored(self):
        db = db_with_rule("on replace t(k) if t.a > 5", multi_var=True)
        send_minus_plain_and_delta_plus(db)    # modifies attribute a
        assert memory_len(db) == 0

    def test_plus_ignored(self):
        db = db_with_rule(self.COND, multi_var=True)
        send_plus(db)
        assert memory_len(db) == 0

    def test_case4_retracts(self):
        db = db_with_rule(self.COND, multi_var=True)
        send_minus_plain_and_delta_plus(db)
        assert pnode_len(db) == 1
        db.execute("delete t")
        assert memory_len(db) == 0
        assert pnode_len(db) == 0


class TestSimpleMemories:
    """simple / simple-on / simple-trans rows: memory stays empty and
    matches pass straight to the P-node."""

    @pytest.mark.parametrize("condition,trigger,expect", [
        ("if t.a > 5", send_plus, 1),
        ("on append t if t.a > 5", send_plus, 1),
        ("if t.a > previous t.a", send_minus_plain_and_delta_plus, 1),
        ("on delete t if t.a > 5", send_minus_delete, 1),
    ])
    def test_simple_memory_stays_empty(self, condition, trigger, expect):
        db = db_with_rule(condition, multi_var=False)
        trigger(db)
        assert memory_len(db) == 0       # simple-α stores nothing
        assert pnode_len(db) == expect

    def test_simple_retraction_clears_pnode(self):
        db = db_with_rule("if t.a > 5", multi_var=False)
        send_plus(db)
        assert pnode_len(db) == 1
        db.execute("delete t")
        assert pnode_len(db) == 0


# ----------------------------------------------------------------------
# the verdicts fixed at registration agree with the dispatch table
# ----------------------------------------------------------------------

GATINGS = {
    "pattern": "if t.a > 5",
    "on append": "on append t if t.a > 5",
    "on delete": "on delete t if t.a > 5",
    "on replace": "on replace t if t.a > 5",
    "on replace(attr)": "on replace t(a) if t.a > 5",
    "transition": "if t.a > previous t.a",
}

EVENTS = {
    "none": None,
    "append": EventSpecifier(EventKind.APPEND),
    "delete": EventSpecifier(EventKind.DELETE),
    "replace": EventSpecifier(EventKind.REPLACE),
    "replace(a)": EventSpecifier(EventKind.REPLACE, ("a",)),
    "replace(k)": EventSpecifier(EventKind.REPLACE, ("k",)),
}

#: one tuple of t, as tokens carry it: (a, k) now and at transition start
NEW, OLD = (20, 1), (10, 1)

#: per gating, a token the table asserts (so the memory holds the tuple)
ASSERTING = {
    "pattern": (TokenKind.PLUS, "append"),
    "on append": (TokenKind.PLUS, "append"),
    "on delete": (TokenKind.MINUS, "delete"),
    "on replace": (TokenKind.DELTA_PLUS, "replace(a)"),
    "on replace(attr)": (TokenKind.DELTA_PLUS, "replace(a)"),
    "transition": (TokenKind.DELTA_PLUS, "replace(a)"),
}


def make_token(kind, event):
    tid = TupleId("t", 0)
    old = OLD if kind.is_delta else None
    return Token(kind, "t", tid, NEW, old, EVENTS[event])


def observed(db):
    """(the t memory's entries by tid, the tids in the rule's P-node)."""
    memory = db.network.memory("r", "t")
    entries = {} if memory.is_virtual else {
        entry.tid: entry for entry in memory.entries()}
    tids = {entry.tid for match in db.network.pnode("r").matches()
            for _var, entry in match.bindings}
    return entries, tids - {TupleId("u", 0)}


@pytest.mark.parametrize("multi_var", [False, True],
                         ids=["simple", "stored"])
@pytest.mark.parametrize("gating", sorted(GATINGS))
def test_fixed_verdicts_do_what_dispatch_says(gating, multi_var):
    """Every memory gating × token kind × event specifier, from an empty
    memory and from one holding the tuple: the handler compiled from
    the memory's verdict leaves the α-memory and the P-node exactly as
    :func:`dispatch` says it must."""
    for kind in TokenKind:
        for event in EVENTS:
            for asserted in (False, True):
                db = db_with_rule(GATINGS[gating], multi_var=multi_var)
                memory = db.network.memory("r", "t")
                if asserted:
                    db.network.process_token(
                        make_token(*ASSERTING[gating]))
                token = make_token(kind, event)
                op = dispatch(memory.spec, token)
                # the compiled handlers cover exactly the kinds the
                # table acts on
                assert set(memory.handlers) == {
                    k for k in TokenKind
                    if verdict(memory.spec, k) is not None}
                if op is not None:
                    assert kind in memory.handlers
                entries, tids = observed(db)
                assert tids == set(entries) or not multi_var
                if op is not None and op.op == "insert":
                    tids.add(token.tid)
                    if multi_var:
                        entries[token.tid] = op.entry
                elif op is not None:
                    tids.discard(op.tid)
                    entries.pop(op.tid, None)
                db.network.process_token(token)
                assert observed(db) == (entries, tids), (
                    gating, kind, event, asserted)


def test_a_minus_token_that_reaches_nothing_changes_nothing():
    """A − token for a tuple no memory holds — an ``on append`` memory
    emptied by the last transition's flush, a stored memory whose
    residual kept the tuple out, a virtual memory of a rule with an
    empty P-node — moves no α-memory, P-node, ``alpha.deletes`` or
    ``pnode.deletes``, while it is still probed and counted."""
    from repro.core.memory_optimizer import optimize_memories

    db = Database()
    db.execute_script("""
        create t (a = int4, k = int4)
        create u (k = int4)
        create log (a = int4)
        append u(k = 1)
        define rule onapp on append t if t.a > 5 and t.k = u.k
            then append to log(a = t.a)
        define rule resid if t.a > 5 and t.a != 20 and t.k = u.k
            then append to log(a = t.a)
        define rule virt if t.a > 5 and t.k = u.k and u.k > 50
            then append to log(a = t.a)
    """)
    optimize_memories(db, 1)
    assert db.network.memory("virt", "t").is_virtual
    db.execute("append t(a = 20, k = 1)")
    network = db.network

    def state():
        memories = {(rule, var): sorted(
            (e.tid, e.values) for e in
            network.memory(rule, var).entries())
            for rule in network.rules for var in network.rules[rule].variables
            if not network.memory(rule, var).is_virtual}
        pnodes = {rule: network.pnode(rule).matches()
                  for rule in network.rules}
        return memories, pnodes

    before = state()
    held = [tid for entries in before[0].values() for tid, _ in entries
            if tid.relation == "t"]
    assert held == []
    assert all(not pnode for pnode in before[1].values())
    counters = {name: db.stats.get(name) for name in (
        "alpha.deletes", "pnode.deletes", "selection.probes",
        "tokens.generated")}
    db.execute("delete t where t.a = 20")
    assert state() == before
    assert db.stats.get("alpha.deletes") == counters["alpha.deletes"]
    assert db.stats.get("pnode.deletes") == counters["pnode.deletes"]
    assert db.stats.get("selection.probes") == \
        counters["selection.probes"] + 1
    assert db.stats.get("tokens.generated") == \
        counters["tokens.generated"] + 1
