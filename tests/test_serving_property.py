"""Concurrent-vs-serial equivalence: the serving layer's core claim.

N concurrent sessions driving one service must leave the engine in a
state *identical* to replaying the service's committed write order
(:attr:`RuleService.serial_log`) serially on a fresh database — same
P-node contents, same α-memories, same firing order, same relation
contents, and byte-identical WAL.  The write queue makes this hold by
construction; these tests are what catches any mutation that sneaks
around the queue (or a reader that observes — and then acts on — a
half-applied transition).
"""

import pathlib
import tempfile
import threading

from hypothesis import given, settings, strategies as st

from repro import Database
from repro.serve import RuleService, ServiceClient, RuleServer
from repro.serve.service import replay_serial

from tests.test_network_equivalence import RULES, pnode_snapshot

#: a representative rule subset: selection, join, event, transition
RULE_SET = [RULES[0], RULES[1], RULES[4], RULES[5]]

CLIENT_COUNTS = (1, 2, 4)


def _build_db(durable_path) -> Database:
    db = Database(durable_path=durable_path, fsync="never")
    db.execute("create t (a = int4, k = int4)")
    db.execute("create u (b = int4, k = int4)")
    db.execute("create log (tag = text)")
    for rule in RULE_SET:
        db.execute(rule)
    return db


def _commands(client: int, ops) -> list[str]:
    """Translate abstract ops into command texts whose keys are scoped
    to one client (the *interleaving* across clients is the variable
    under test, not the commands themselves)."""
    base = (client + 1) * 1000
    texts = []
    for j, op in enumerate(ops):
        key = base + j
        if op[0] == "append":
            _, rel, value = op
            col = {"t": "a", "u": "b"}[rel]
            texts.append(f"append {rel}({col} = {value}, k = {key})")
        elif op[0] == "modify":
            _, rel, back, value = op
            col = {"t": "a", "u": "b"}[rel]
            texts.append(f"replace {rel} ({col} = {value}) "
                         f"where {rel}.k = {base + (j - back % 8)}")
        else:
            _, rel, back = op
            texts.append(f"delete {rel} "
                         f"where {rel}.k = {base + (j - back % 8)}")
    return texts


def _snapshot(db: Database) -> dict:
    return {
        "pnodes": pnode_snapshot(db),
        "firings": [(record.rule_name, record.match_count)
                    for record in db.firing_log],
        "relations": {rel: sorted(db.relation_rows(rel))
                      for rel in ("t", "u", "log")},
    }


def _run_concurrently(service: RuleService,
                      per_client: list[list[str]],
                      txn_client: int | None = None) -> list[str]:
    """Each client list on its own thread; returns worker errors."""
    errors: list[str] = []

    def worker(client: int, texts: list[str]) -> None:
        session = service.open_session()
        try:
            for i, text in enumerate(texts):
                if client == txn_client and i == 0 and len(texts) > 1:
                    session.begin()
                session.execute(text)
                if client == txn_client and i == 1:
                    session.commit()
                if i % 3 == 0:
                    session.query(
                        "retrieve (x.a) from x in t where x.a > 5")
        except Exception as exc:   # pragma: no cover - the regression
            errors.append(f"client {client}: "
                          f"{type(exc).__name__}: {exc}")
        finally:
            service.close_session(session)

    threads = [threading.Thread(target=worker, args=(i, texts),
                                daemon=True)
               for i, texts in enumerate(per_client)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60.0)
    return errors


def _assert_equivalent(root: pathlib.Path, label: str,
                       per_client: list[list[str]],
                       txn_client: int | None = None,
                       service_factory=None) -> None:
    live_dir = root / f"live-{label}"
    service = RuleService(db=_build_db(live_dir))
    try:
        if service_factory is None:
            errors = _run_concurrently(service, per_client,
                                       txn_client=txn_client)
        else:
            errors = service_factory(service, per_client)
        assert errors == [], label
        history = service.serial_history()
    finally:
        service.shutdown(close_db=True)
    live = _snapshot(service.db)
    live_wal = (live_dir / "wal.log").read_bytes()

    replay_dir = root / f"replay-{label}"
    replayed = _build_db(replay_dir)
    replay_serial(replayed, history)
    replayed.close()
    assert _snapshot(replayed) == live, label
    assert (replay_dir / "wal.log").read_bytes() == live_wal, label


# ----------------------------------------------------------------------
# deterministic stress: 1, 2 and 4 concurrent clients
# ----------------------------------------------------------------------

def test_concurrent_sessions_equivalent_to_serial_replay():
    workload = [
        ("append", "t", 7), ("append", "u", 7), ("append", "t", 3),
        ("modify", "t", 2, 9), ("append", "u", 9), ("delete", "u", 3),
        ("append", "t", 6), ("modify", "t", 1, 2), ("append", "u", 6),
        ("delete", "t", 5), ("append", "t", 8), ("modify", "u", 4, 7),
    ]
    with tempfile.TemporaryDirectory() as root:
        root = pathlib.Path(root)
        for clients in CLIENT_COUNTS:
            per_client = [_commands(i, workload)
                          for i in range(clients)]
            _assert_equivalent(root, f"c{clients}", per_client,
                               txn_client=0 if clients > 1 else None)


def test_socket_clients_equivalent_to_serial_replay():
    """The same property through the full TCP stack."""
    workload = [
        ("append", "t", 7), ("append", "u", 7), ("modify", "t", 1, 9),
        ("append", "t", 4), ("delete", "u", 2), ("append", "u", 8),
    ]

    def over_sockets(service, per_client):
        server = RuleServer(service)
        host, port = server.start()
        errors: list[str] = []

        def worker(client: int, texts: list[str]) -> None:
            try:
                with ServiceClient(host, port) as remote:
                    for i, text in enumerate(texts):
                        remote.execute(text)
                        if i % 2 == 0:
                            remote.rows("retrieve (x.a) from x in t "
                                        "where x.a > 5")
            except Exception as exc:
                errors.append(f"client {client}: "
                              f"{type(exc).__name__}: {exc}")

        threads = [threading.Thread(target=worker, args=(i, texts),
                                    daemon=True)
                   for i, texts in enumerate(per_client)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        server.stop(shutdown_service=False)
        return errors

    with tempfile.TemporaryDirectory() as root:
        root = pathlib.Path(root)
        per_client = [_commands(i, workload) for i in range(3)]
        _assert_equivalent(root, "sock", per_client,
                           service_factory=over_sockets)


# ----------------------------------------------------------------------
# hypothesis: random per-client workloads
# ----------------------------------------------------------------------

_op = st.one_of(
    st.tuples(st.just("append"), st.sampled_from("tu"),
              st.integers(0, 10)),
    st.tuples(st.just("modify"), st.sampled_from("tu"),
              st.integers(0, 8), st.integers(0, 10)),
    st.tuples(st.just("delete"), st.sampled_from("tu"),
              st.integers(0, 8)),
)


@settings(max_examples=8, deadline=None)
@given(st.lists(st.lists(_op, min_size=1, max_size=6),
                min_size=2, max_size=3))
def test_random_concurrent_workloads_equivalent(per_client_ops):
    with tempfile.TemporaryDirectory() as root:
        root = pathlib.Path(root)
        per_client = [_commands(i, ops)
                      for i, ops in enumerate(per_client_ops)]
        _assert_equivalent(root, "hyp", per_client,
                           txn_client=0 if len(per_client) > 1
                           else None)
