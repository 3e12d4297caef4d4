"""The serving layer, in process: sessions, the one engine lock that
serializes every call on its caller's thread, per-session transaction
gating — plus the regressions this layer found (StatementCache under
threads, Database close idempotence, the wal_info pending accessor).
"""

import sys
import threading
import time

import pytest

from repro import (
    Database, DatabaseClosedError, ExecutionError, ServiceError,
    SessionError, TransactionError)
from repro.prepared import Prepared, StatementCache
from repro.serve import RuleService
from repro.serve.service import replay_serial


def _service():
    svc = RuleService()
    svc.db.execute("create emp (id = int4, name = text, sal = float8)")
    svc.db.execute("create audit (tag = text, who = text)")
    svc.db.execute(
        'define rule watch on replace emp if emp.sal > 100.0 '
        'then append to audit(tag = "high", who = emp.name)')
    svc.db.execute('append emp(id = 1, name = "a", sal = 50.0)')
    svc.db.execute('append emp(id = 2, name = "b", sal = 60.0)')
    return svc


# ----------------------------------------------------------------------
# sessions
# ----------------------------------------------------------------------

def test_sessions_share_one_database():
    with _service() as svc:
        s1, s2 = svc.open_session(), svc.open_session()
        s1.execute('append emp(id = 3, name = "c", sal = 70.0)')
        rows = s2.query("retrieve (e.name) from e in emp").rows
        assert sorted(rows) == [("a",), ("b",), ("c",)]
        assert s1.id != s2.id
        assert svc.status()["sessions"] == 2


def test_calls_run_on_the_callers_thread_and_are_counted():
    with _service() as svc:
        threads_before = threading.active_count()
        session = svc.open_session()
        ran_on = []
        svc.db.on_event(
            lambda *_: ran_on.append(threading.get_ident()),
            "plan_executed")
        session.query("retrieve (e.name) from e in emp")
        session.execute('append emp(id = 3, name = "c", sal = 1.0)')
        assert set(ran_on) == {threading.get_ident()}
        assert threading.active_count() == threads_before
        assert (session.reads, session.writes) == (1, 1)
        assert svc.db.stats.get("serve.reads") == 1
        assert svc.db.stats.get("serve.writes") == 1


def test_mutation_via_execute_still_fires_rules():
    with _service() as svc:
        session = svc.open_session()
        session.execute(
            "replace e (sal = 200.0) from e in emp where e.id = 1")
        assert session.query(
            "retrieve (a.who) from a in audit").rows == [("a",)]


def test_prepared_statements_are_per_session():
    with _service() as svc:
        s1, s2 = svc.open_session(), svc.open_session()
        sig = s1.prepare("by_id",
                         "retrieve (e.name) from e in emp "
                         "where e.id = $id")
        assert sig == ("id",)
        assert s1.execute_prepared(
            "by_id", {"id": 2}).rows == [("b",)]
        with pytest.raises(SessionError, match="by_id"):
            s2.execute_prepared("by_id", {"id": 2})


def test_closed_session_rejects_work():
    with _service() as svc:
        session = svc.open_session()
        svc.close_session(session)
        assert session.closed
        with pytest.raises(SessionError):
            session.query("retrieve (e.name) from e in emp")
        # closing again is a no-op
        svc.close_session(session)
        assert svc.status()["sessions"] == 0


# ----------------------------------------------------------------------
# transaction gating
# ----------------------------------------------------------------------

def test_second_begin_is_denied_cleanly():
    with _service() as svc:
        s1, s2 = svc.open_session(), svc.open_session()
        s1.begin()
        with pytest.raises(TransactionError,
                           match=r"already open by session \d+"):
            s2.begin()
        # the denial corrupted nothing: s1's txn proceeds normally
        s1.execute('append emp(id = 3, name = "c", sal = 1.0)')
        s1.commit()
        assert svc.db.stats.get("serve.txn_denied") == 1
        assert len(s2.query(
            "retrieve (e.name) from e in emp").rows) == 3


def test_own_begin_twice_is_denied_too():
    with _service() as svc:
        session = svc.open_session()
        session.begin()
        with pytest.raises(TransactionError,
                           match="already open by this session"):
            session.begin()
        session.abort()
        assert not session.in_transaction


def test_other_sessions_writes_defer_until_commit():
    with _service() as svc:
        s1, s2 = svc.open_session(), svc.open_session()
        s1.begin()
        s1.execute('append emp(id = 3, name = "c", sal = 1.0)')

        done = threading.Event()

        def deferred_write():
            s2.execute('append emp(id = 4, name = "d", sal = 2.0)')
            done.set()

        thread = threading.Thread(target=deferred_write, daemon=True)
        thread.start()
        # s2's write waits while the transaction is open
        assert not done.wait(0.3)
        s1.commit()
        assert done.wait(5.0)
        thread.join(timeout=5.0)
        assert len(s1.query(
            "retrieve (e.name) from e in emp").rows) == 4
        # the deferral was observed by the service
        assert svc.db.stats.get("serve.deferred_ops") >= 1


def test_abort_rolls_back_and_releases_the_gate():
    with _service() as svc:
        s1, s2 = svc.open_session(), svc.open_session()
        s1.begin()
        s1.execute('append emp(id = 3, name = "c", sal = 1.0)')
        s1.abort()
        assert len(s2.query(
            "retrieve (e.name) from e in emp").rows) == 2
        # gate is free again: another session can begin now
        s2.begin()
        s2.abort()


def test_closing_a_session_aborts_its_open_transaction():
    with _service() as svc:
        s1, s2 = svc.open_session(), svc.open_session()
        s1.begin()
        s1.execute('append emp(id = 3, name = "c", sal = 1.0)')
        svc.close_session(s1)
        assert len(s2.query(
            "retrieve (e.name) from e in emp").rows) == 2
        s2.begin()          # the gate was released
        s2.abort()


def test_owner_reads_its_own_uncommitted_state():
    with _service() as svc:
        session = svc.open_session()
        session.begin()
        session.execute('append emp(id = 3, name = "c", sal = 1.0)')
        # same engine, same thread: sees the open transaction
        assert len(session.query(
            "retrieve (e.name) from e in emp").rows) == 3
        session.commit()


def test_serial_history_records_committed_order():
    with _service() as svc:
        session = svc.open_session()
        session.execute('append emp(id = 3, name = "c", sal = 1.0)')
        session.begin()
        session.execute("delete e from e in emp where e.id = 3")
        session.commit()
        history = svc.serial_history()
        assert [entry[0] for entry in history] == \
            ["execute", "begin", "execute", "commit"]


def test_shutdown_fails_pending_work_and_is_idempotent():
    with _service() as svc:
        session = svc.open_session()
        svc.shutdown()
        svc.shutdown()      # idempotent
        with pytest.raises(ServiceError):
            svc.execute(session, 'append emp(id = 9, name = "z", '
                                 'sal = 1.0)')
        assert svc.status()["stopped"]


def _in_thread(call):
    """Run ``call`` on a thread; returns (done event, outcome list)."""
    done, outcome = threading.Event(), []

    def run():
        try:
            outcome.append(call())
        except Exception as exc:
            outcome.append(exc)
        done.set()

    threading.Thread(target=run, daemon=True).start()
    return done, outcome


def test_other_sessions_reads_wait_for_the_commit_too():
    with _service() as svc:
        s1, s2 = svc.open_session(), svc.open_session()
        s1.begin()
        s1.execute('append emp(id = 3, name = "c", sal = 1.0)')
        done, outcome = _in_thread(lambda: len(s2.query(
            "retrieve (e.name) from e in emp").rows))
        assert not done.wait(0.3)       # uncommitted state stays private
        assert svc.status()["parked"] == 1
        s1.commit()
        assert done.wait(5.0)
        assert outcome == [3]
        assert svc.status()["parked"] == 0
        assert svc.db.stats.get("serve.deferred_ops") == 1


def test_waiting_longer_than_the_timeout_is_a_service_error():
    svc = RuleService(timeout=0.2)
    with svc:
        svc.db.execute("create t (a = int4)")
        s1, s2 = svc.open_session(), svc.open_session()
        s1.begin()
        started = time.monotonic()
        with pytest.raises(ServiceError, match="did not end within"):
            s2.execute("append t(a = 1)")
        assert 0.15 < time.monotonic() - started < 5.0
        s1.commit()
        s2.execute("append t(a = 2)")   # nothing is wedged
        assert svc.db.relation_rows("t") == [(2,)]


def test_shutdown_fails_the_waiters():
    svc = _service()
    s1, s2 = svc.open_session(), svc.open_session()
    s1.begin()
    done, outcome = _in_thread(
        lambda: s2.execute('append emp(id = 4, name = "d", sal = 2.0)'))
    assert not done.wait(0.2)
    svc.shutdown()
    assert done.wait(5.0)
    assert isinstance(outcome[0], ServiceError)


def test_status_reports_parked_not_a_queue_or_a_gate():
    with _service() as svc:
        status = svc.status()
        assert status["parked"] == 0
        assert "queue_depth" not in status and "gate" not in status


def test_serial_log_is_compact_and_replayable():
    with _service() as svc:
        session = svc.open_session()
        session.prepare("bump", "replace e (sal = $sal) from e in emp "
                                "where e.id = $id")
        session.execute_prepared("bump", {"id": 1, "sal": 200.0})
        session.execute_prepared("bump", {"sal": 300.0, "id": 2})
        # rejected before the engine is touched: nothing to replay
        with pytest.raises(ExecutionError, match="missing"):
            session.execute_prepared("bump", {"id": 1})
        with pytest.raises(ExecutionError, match="unknown"):
            session.execute_prepared(
                "bump", {"id": 1, "sal": 1.0, "pay": 1.0})
        history = svc.serial_history()
        text = session.prepared["bump"].text
        # values as one tuple in signature order, the text by reference
        assert history == [("exec", text, (200.0, 1)),
                           ("exec", text, (300.0, 2))]
        assert history[0][1] is history[1][1] is text
        fresh = _service()
        replay_serial(fresh.db, history)
        for rel in ("emp", "audit"):
            assert sorted(fresh.db.relation_rows(rel)) == \
                sorted(svc.db.relation_rows(rel))
        fresh.shutdown()


# ----------------------------------------------------------------------
# regression: StatementCache under concurrent lookup/store
# ----------------------------------------------------------------------

def test_statement_cache_survives_concurrent_hammering():
    """Threads hammering lookup() while others store() — the shell
    beside ``\\serve`` does, next to the serving loop — must not corrupt
    the OrderedDict recency list (pre-fix: KeyError out of move_to_end,
    or RuntimeError from mutation during eviction)."""
    db = Database()
    db.execute("create t (a = int4)")
    cache = StatementCache(capacity=8)
    texts = [f"retrieve (x.a) from x in t where x.a > {i}"
             for i in range(32)]
    prepared = {text: Prepared(db, text) for text in texts}
    stop = time.monotonic() + 1.0
    failures = []

    def worker(seed):
        i = seed
        try:
            while time.monotonic() < stop:
                i += 1
                text = texts[(i * 7 + seed) % len(texts)]
                if (i + seed) % 3 == 0:
                    cache.store(text, prepared[text])
                else:
                    entry = cache.lookup(text)
                    assert entry is None or entry.text == text
        except Exception as exc:   # pragma: no cover - the regression
            failures.append(f"{type(exc).__name__}: {exc}")

    threads = [threading.Thread(target=worker, args=(n,), daemon=True)
               for n in range(6)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30.0)
    assert not failures
    assert len(cache) <= 8
    db.close()


def test_statement_cache_counts_every_concurrent_lookup():
    """``hits + misses`` equals the lookups made, however the threads
    interleave (pre-fix: ``misses`` was counted outside the lock, and a
    racing increment could be lost)."""
    db = Database()
    db.execute("create t (a = int4)")
    cache = StatementCache(capacity=4)
    texts = [f"retrieve (t.a) where t.a > {i}" for i in range(8)]
    for text in texts[:4]:
        cache.store(text, Prepared(db, text))
    threads, lookups = 4, 20_000

    def worker(seed):
        for i in range(lookups):
            cache.lookup(texts[(i + seed) % len(texts)])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        pool = [threading.Thread(target=worker, args=(n,))
                for n in range(threads)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
    finally:
        sys.setswitchinterval(interval)
    assert cache.hits + cache.misses == threads * lookups
    assert cache.hits == cache.misses == threads * lookups // 2
    db.close()


# ----------------------------------------------------------------------
# regression: Database.close() idempotence
# ----------------------------------------------------------------------

def test_double_close_raises_database_closed_error(tmp_path):
    db = Database(durable_path=tmp_path / "d", fsync="never")
    db.execute("create t (a = int4)")
    db.close()
    assert db.closed
    with pytest.raises(DatabaseClosedError):
        db.close()


def test_execute_after_close_raises_clearly():
    db = Database()
    db.execute("create t (a = int4)")
    db.close()
    for call in (
            lambda: db.execute("append t(a = 1)"),
            lambda: db.query("retrieve (x.a) from x in t"),
            lambda: db.execute_readonly("retrieve (x.a) from x in t"),
            lambda: db.prepare("retrieve (x.a) from x in t"),
            lambda: db.begin(),
            lambda: db.checkpoint()):
        with pytest.raises(DatabaseClosedError, match="closed"):
            call()


def test_introspection_still_works_after_close():
    # the equivalence suites snapshot P-nodes after close(); keep that
    db = Database()
    db.execute("create t (a = int4)")
    db.execute("append t(a = 1)")
    db.close()
    assert db.relation_rows("t") == [(1,)]


# ----------------------------------------------------------------------
# regression: wal_info uses the public pending_records property
# ----------------------------------------------------------------------

def test_wal_info_pending_matches_public_property(tmp_path):
    db = Database(durable_path=tmp_path / "d", fsync="never")
    db.execute("create t (a = int4)")
    durability = db._durability
    assert db.wal_info()["pending"] == 0
    assert durability.pending_records == 0
    # mid-transition the journal buffer is non-empty; the accessor
    # reports it without wal_info() reaching into _buffer
    durability.journal_insert("t", (1,))
    assert durability.pending_records == 1
    assert db.wal_info()["pending"] == 1
    durability.flush_boundary(sync=False)
    assert durability.pending_records == 0
    assert db.wal_info()["pending"] == 0
    db.execute("append t(a = 1)")   # matches the journaled record
    db.close()
