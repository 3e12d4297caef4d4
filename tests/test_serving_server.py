"""The socket front end: protocol framing, the one-thread event-loop
server (who owns the engine, parked requests, hostile clients), the
blocking client, the load generator, and the shell's ``\\serve``
meta-command."""

import io
import json
import select
import socket
import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.cli import Shell
from repro.serve import (
    RemoteError, RuleServer, RuleService, ServiceClient)
from repro.serve import loadgen, protocol
from repro.serve import server as server_module


@pytest.fixture()
def server():
    rule_server = RuleServer(db=loadgen.demo_database(rows=20))
    rule_server.start()
    yield rule_server
    rule_server.stop(close_db=True)


def _client(server):
    host, port = server.address
    return ServiceClient(host, port, timeout=30.0)


class _Raw:
    """A bare socket speaking the wire format by hand: sends bytes
    without waiting for replies, reads reply lines when asked."""

    def __init__(self, server):
        self.sock = socket.create_connection(server.address,
                                             timeout=10.0)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._file = self.sock.makefile("rb")

    def send(self, payload) -> None:
        if isinstance(payload, dict):
            payload = protocol.encode_message(payload)
        self.sock.sendall(payload)

    def reply(self):
        """The next reply, or None once the server has hung up."""
        line = self._file.readline()
        return json.loads(line) if line else None

    def quiet(self, seconds: float = 0.2) -> bool:
        """Nothing arrives (no reply, no hang-up) for ``seconds``."""
        return not select.select([self.sock], [], [], seconds)[0]

    def close(self) -> None:
        self._file.close()
        self.sock.close()


def _eventually(predicate, timeout: float = 5.0) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.005)
    return predicate()


def _append(who: int) -> dict:
    return {"id": who, "op": "execute",
            "text": f'append emp(id = {who}, name = "n{who}", '
                    f'sal = 1.0)'}


# ----------------------------------------------------------------------
# protocol framing
# ----------------------------------------------------------------------

def test_protocol_round_trip():
    message = {"id": 1, "op": "execute", "text": "retrieve …"}
    encoded = protocol.encode_message(message)
    assert encoded.endswith(b"\n")
    assert protocol.read_message(io.BytesIO(encoded)) == message


def test_protocol_eof_blank_and_oversize():
    assert protocol.read_message(io.BytesIO(b"")) is None
    assert protocol.read_message(io.BytesIO(b"\n")) == {}
    with pytest.raises(ValueError):
        protocol.read_message(io.BytesIO(b"{nope\n"))
    with pytest.raises(ValueError, match="JSON objects"):
        protocol.read_message(io.BytesIO(b"[1, 2]\n"))
    with pytest.raises(ValueError, match="nested too deeply"):
        protocol.read_message(io.BytesIO(b"[" * 200_000 + b"\n"))
    with pytest.raises(ValueError, match="exceeds"):
        long_line = b"x" * (protocol.MAX_LINE + 1) + b"\n"
        protocol.read_message(io.BytesIO(long_line))


def test_encode_result_shapes():
    from repro.executor.executor import DmlResult
    assert protocol.encode_result(None) == {"type": "ok"}
    assert protocol.encode_result("plan text") == \
        {"type": "text", "text": "plan text"}
    dml = protocol.encode_result(DmlResult(3))
    assert dml["type"] == "dml" and dml["count"] == 3


# ----------------------------------------------------------------------
# server + client
# ----------------------------------------------------------------------

def test_client_round_trip(server):
    with _client(server) as client:
        assert client.ping()
        assert client.session_id() >= 1
        rows = client.rows("retrieve (e.name) from e in emp "
                           "where e.id = 1")
        assert rows == [["emp0001"]]
        result = client.execute(
            "replace e (sal = 260.0) from e in emp where e.id = 1")
        assert result == {"type": "dml", "count": 1}
        assert client.rows("retrieve (a.tag) from a in audit "
                           "where a.who = \"emp0001\"") == [["band0"]]


def test_client_prepared_statements(server):
    with _client(server) as client:
        signature = client.prepare("probe", loadgen.READ_STATEMENT)
        assert signature == ["id"]
        out = client.exec_prepared("probe", {"id": 2})
        assert out["type"] == "rows"
        assert out["rows"] == [["emp0002", 2250.0]]
        with pytest.raises(RemoteError) as excinfo:
            client.exec_prepared("nope")
        assert excinfo.value.kind == "SessionError"


def test_remote_errors_carry_the_engine_class(server):
    with _client(server) as client:
        with pytest.raises(RemoteError) as excinfo:
            client.execute("retrieve (x.a) from x in missing")
        assert excinfo.value.kind == "CatalogError"
        # the connection survives an engine error
        assert client.ping()


def test_transaction_denial_over_the_wire(server):
    with _client(server) as one, _client(server) as two:
        one.begin()
        with pytest.raises(RemoteError) as excinfo:
            two.begin()
        assert excinfo.value.kind == "TransactionError"
        one.execute('append emp(id = 100, name = "x", sal = 1.0)')
        one.commit()
        assert len(two.rows("retrieve (e.name) from e in emp "
                            "where e.id = 100")) == 1


def test_dropped_connection_aborts_its_transaction(server):
    client = _client(server)
    client.begin()
    client.execute('append emp(id = 200, name = "y", sal = 1.0)')
    client.close()          # server aborts the session's transaction
    with _client(server) as other:
        # the gate is free and the append rolled back
        other.begin()
        other.abort()
        assert other.rows("retrieve (e.name) from e in emp "
                          "where e.id = 200") == []


def test_unknown_op_and_missing_field(server):
    with _client(server) as client:
        with pytest.raises(RemoteError, match="unknown op"):
            client._call("bogus")
        with pytest.raises(RemoteError, match="missing"):
            client._call("execute")


def test_status_endpoint(server):
    with _client(server) as client:
        status = client.status()
        assert status["sessions"] == 1
        assert status["transaction_owner"] is None
        assert status["parked"] == 0
        assert "queue_depth" not in status and "gate" not in status
        assert not status["stopped"]


def test_sessions_close_with_connections(server):
    with _client(server) as client:
        client.ping()
    assert _eventually(lambda: server.service.session_count() == 0)


# ----------------------------------------------------------------------
# one thread owns the engine
# ----------------------------------------------------------------------

@pytest.mark.parametrize("connections", [0, 2, 8])
def test_start_adds_exactly_one_thread(connections):
    before = threading.active_count()
    rule_server = RuleServer(db=loadgen.demo_database(rows=5))
    rule_server.start()
    try:
        clients = [_client(rule_server) for _ in range(connections)]
        for client in clients:
            assert client.ping()
        assert threading.active_count() == before + 1
        for client in clients:
            client.close()
    finally:
        rule_server.stop(close_db=True)
    assert threading.active_count() == before


def test_interleaved_requests_are_logged_in_dispatch_order(server):
    with _client(server) as one, _client(server) as two:
        for i in range(4):
            (one if i % 2 == 0 else two).execute(_append(100 + i)["text"])
    assert server.service.serial_history() == [
        ("execute", _append(100 + i)["text"]) for i in range(4)]


def test_engine_runs_on_the_loop_thread_only(server):
    ran_on = set()
    server.service.db.on_event(
        lambda *_: ran_on.add(threading.current_thread().name),
        "plan_executed")
    with _client(server) as one, _client(server) as two:
        one.execute(_append(100)["text"])
        two.rows("retrieve (e.name) from e in emp where e.id = 100")
    assert ran_on == {"repro-serve-loop"}


def test_an_engine_bug_is_answered_and_the_loop_survives(
        server, monkeypatch, caplog):
    def broken(text):
        raise RuntimeError("engine bug")
    monkeypatch.setattr(server.service.db, "execute", broken)
    with _client(server) as client:
        with pytest.raises(RemoteError, match="engine bug") as excinfo:
            client.execute(_append(100)["text"])
        assert excinfo.value.kind == "RuntimeError"
        assert client.ping()                # same connection, same loop
    assert "request 'execute' failed" in caplog.text


@pytest.mark.parametrize("op", [[], {"a": 1}, 5, None, True])
def test_an_op_that_is_not_a_string_is_an_unknown_op(server, op):
    raw = _Raw(server)
    try:
        with _client(server) as other:
            raw.send({"id": 1, "op": op})
            reply = raw.reply()
            assert not reply["ok"] and reply["id"] == 1
            assert "unknown op" in reply["error"]["message"]
            raw.send({"id": 2, "op": "ping"})   # still connected
            assert raw.reply()["ok"]
            assert other.ping()                 # and so is everyone
    finally:
        raw.close()


def test_a_failure_outside_dispatch_ends_that_connection_only(
        server, monkeypatch, caplog):
    feed = protocol.LineBuffer.feed

    def broken(self, chunk):
        if b"boom" in chunk:
            raise RuntimeError("framing bug")
        return feed(self, chunk)
    monkeypatch.setattr(protocol.LineBuffer, "feed", broken)
    owner, raw = _client(server), _Raw(server)
    try:
        with _client(server) as other:
            owner.begin()
            raw.send(b"boom\n")
            assert raw.reply() is None          # hung up on
            assert other.ping()
            assert other.status()["sessions"] == 2
            # the loop still serves, parks and releases
            raw2 = _Raw(server)
            raw2.send(_append(301))
            assert _eventually(lambda: server.status()["parked"] == 1)
            owner.commit()
            assert raw2.reply()["ok"]
            raw2.close()
    finally:
        raw.close()
        owner.close()
    assert "framing bug" in caplog.text


# ----------------------------------------------------------------------
# requests parked behind another session's transaction
# ----------------------------------------------------------------------

def test_non_owners_are_answered_after_the_commit_in_arrival_order(
        server):
    stats = server.service.db.stats
    owner = _client(server)
    first, second, third = _Raw(server), _Raw(server), _Raw(server)
    try:
        owner.begin()
        owner.execute(_append(300)["text"])
        first.send(_append(301))                        # a write
        assert _eventually(lambda: server.status()["parked"] == 1)
        second.send({"id": 2, "op": "query",            # a read
                     "text": "retrieve (e.id) from e in emp "
                             "where e.id >= 300"})
        assert _eventually(lambda: server.status()["parked"] == 2)
        third.send(_append(303))
        assert _eventually(lambda: server.status()["parked"] == 3)
        # a status request is not an engine request: never parked
        assert owner.status()["parked"] == 3
        assert first.quiet() and second.quiet() and third.quiet()
        assert stats.get("serve.deferred_ops") == 3
        owner.commit()
        assert first.reply()["ok"] and third.reply()["ok"]
        # the read ran after 301's append and before 303's
        assert sorted(second.reply()["result"]["rows"]) == \
            [[300], [301]]
        assert [entry[0] for entry in server.service.serial_history()] \
            == ["begin", "execute", "commit", "execute", "execute"]
        assert server.service.serial_history()[-2:] == [
            ("execute", _append(301)["text"]),
            ("execute", _append(303)["text"])]
        assert server.status()["parked"] == 0
        assert stats.get("serve.deferred_ops") == 3
    finally:
        for raw in (first, second, third):
            raw.close()
        owner.close()


def test_requests_behind_a_parked_one_keep_their_order(server):
    owner, raw = _client(server), _Raw(server)
    try:
        owner.begin()
        # three requests in one segment; the first has to wait, so the
        # two behind it wait too — replies must come back 1, 2, 3
        raw.send(protocol.encode_message(_append(301))
                 + protocol.encode_message({"id": 2, "op": "ping"})
                 + protocol.encode_message(_append(303)))
        assert _eventually(lambda: server.status()["parked"] == 1)
        assert raw.quiet()
        owner.commit()
        assert [raw.reply()["id"] for _ in range(3)] == [301, 2, 303]
    finally:
        raw.close()
        owner.close()


def test_parked_request_times_out_with_service_error():
    service = RuleService(db=loadgen.demo_database(rows=5), timeout=0.3)
    with RuleServer(service) as rule_server:
        owner, other = _client(rule_server), _client(rule_server)
        try:
            owner.begin()
            started = time.monotonic()
            with pytest.raises(RemoteError,
                               match="did not end within") as excinfo:
                other.execute(_append(301)["text"])
            assert excinfo.value.kind == "ServiceError"
            assert 0.25 < time.monotonic() - started < 5.0
            # neither connection is wedged
            assert other.ping()
            owner.commit()
            other.execute(_append(302)["text"])
        finally:
            owner.close()
            other.close()
    service.shutdown(close_db=True)


def test_a_reparked_request_keeps_its_deadline_and_counts_once(server):
    """The first parked connection's backlog goes on to begin a
    transaction of its own, so the second has to wait again: same
    deadline as before, still one deferral."""
    stats = server.service.db.stats
    owner = _client(server)
    first, second = _Raw(server), _Raw(server)
    try:
        owner.begin()
        first.send(protocol.encode_message(_append(301))
                   + protocol.encode_message({"id": 2, "op": "begin"}))
        assert _eventually(lambda: server.status()["parked"] == 1)
        second.send(_append(303))
        assert _eventually(lambda: server.status()["parked"] == 2)
        deadline = server._parked[-1].deadline
        owner.commit()
        assert [first.reply()["id"], first.reply()["id"]] == [301, 2]
        assert second.quiet()
        assert server.status()["parked"] == 1
        assert server._parked[0].deadline == deadline
        assert stats.get("serve.deferred_ops") == 2
        first.send({"id": 3, "op": "commit"})
        assert first.reply()["ok"]
        assert second.reply()["ok"]
        assert stats.get("serve.deferred_ops") == 2
        # what the connection sends next has not waited yet
        assert all(conn.deadline is None
                   for conn in server._connections)
    finally:
        first.close()
        second.close()
        owner.close()


def test_a_transaction_ended_on_another_thread_wakes_the_loop(server):
    session = server.service.open_session()     # in process, our thread
    raw = _Raw(server)
    try:
        session.begin()
        raw.send(_append(301))
        assert _eventually(lambda: server.status()["parked"] == 1)
        assert raw.quiet()
        session.commit()
        assert raw.reply()["ok"]
    finally:
        raw.close()
        session.close()


def test_owner_disconnect_releases_the_parked_requests(server):
    owner, raw = _client(server), _Raw(server)
    try:
        owner.begin()
        owner.execute(_append(300)["text"])
        raw.send(_append(301))
        assert _eventually(lambda: server.status()["parked"] == 1)
        owner.close()
        assert raw.reply()["ok"]
        # the owner's append rolled back, the parked one went in
        with _client(server) as check:
            assert check.rows("retrieve (e.id) from e in emp "
                              "where e.id >= 300") == [[301]]
            assert check.status()["transaction_owner"] is None
    finally:
        raw.close()


def test_parked_requests_are_bounded(server, monkeypatch):
    monkeypatch.setattr(server_module, "MAX_PARKED", 1)
    owner = _client(server)
    held, refused = _Raw(server), _client(server)
    try:
        owner.begin()
        held.send(_append(301))
        assert _eventually(lambda: server.status()["parked"] == 1)
        with pytest.raises(RemoteError) as excinfo:
            refused.execute(_append(302)["text"])
        assert excinfo.value.kind == "ServiceOverloaded"
        assert refused.ping()               # refused, not disconnected
        owner.commit()
        assert held.reply()["ok"]
    finally:
        held.close()
        refused.close()
        owner.close()


def test_stop_answers_the_parked_with_service_error():
    rule_server = RuleServer(db=loadgen.demo_database(rows=5))
    rule_server.start()
    owner, raw = _client(rule_server), _Raw(rule_server)
    try:
        owner.begin()
        raw.send(_append(301))
        assert _eventually(lambda: rule_server.status()["parked"] == 1)
        rule_server.stop(shutdown_service=False)
        reply = raw.reply()
        assert not reply["ok"] and reply["id"] == 301
        assert reply["error"]["kind"] == "ServiceError"
        assert raw.reply() is None          # then the server hangs up
        service = rule_server.service
        assert service.session_count() == 0
        assert service.status()["transaction_owner"] is None
    finally:
        raw.close()
        owner.close()
        rule_server.stop(close_db=True)


# ----------------------------------------------------------------------
# framing under non-blocking reads
# ----------------------------------------------------------------------

#: a request stream with everything framing has to cope with: blank
#: lines, engine errors, an unknown op, a missing field
_STREAM = b"".join([
    protocol.encode_message({"id": 1, "op": "ping"}),
    b"\n",
    protocol.encode_message({"id": 2, "op": "prepare", "name": "probe",
                             "text": loadgen.READ_STATEMENT}),
    protocol.encode_message({"id": 3, "op": "exec", "name": "probe",
                             "params": {"id": 3}}),
    b"   \n",
    protocol.encode_message({"id": 4, "op": "query",
                             "text": "retrieve (x.a) from x in nope"}),
    protocol.encode_message({"id": 5, "op": "bogus"}),
    protocol.encode_message({"id": 6, "op": "execute"}),
    protocol.encode_message({"id": 7, "op": "exec", "name": "probe",
                             "params": {"id": 4}}),
])


def _replies_to(chunks) -> list:
    with RuleServer(db=loadgen.demo_database(rows=5)) as rule_server:
        raw = _Raw(rule_server)
        try:
            for chunk in chunks:
                raw.send(chunk)
            return [raw.reply() for _ in range(7)]
        finally:
            raw.close()
            rule_server.service.db.close()


def test_pipelined_requests_are_answered_in_order():
    replies = _replies_to([_STREAM])
    assert [reply["id"] for reply in replies] == [1, 2, 3, 4, 5, 6, 7]
    assert [reply["ok"] for reply in replies] == \
        [True, True, True, False, False, False, True]
    assert replies[2]["result"]["rows"] == [["emp0003", 3250.0]]
    assert replies[3]["error"]["kind"] == "CatalogError"


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(1, len(_STREAM) - 1), max_size=12,
                unique=True))
def test_any_chunking_yields_the_same_reply_stream(cuts):
    bounds = [0, *sorted(cuts), len(_STREAM)]
    chunks = [_STREAM[a:b] for a, b in zip(bounds, bounds[1:])]
    assert _replies_to(chunks) == _replies_to([_STREAM])


@settings(max_examples=100, deadline=None)
@given(st.binary(max_size=200), st.lists(st.integers(0, 200),
                                         max_size=10))
def test_line_buffer_reassembles_any_chunking(stream, cuts):
    bounds = [0, *sorted(min(cut, len(stream)) for cut in cuts),
              len(stream)]
    buffer, lines = protocol.LineBuffer(), []
    for a, b in zip(bounds, bounds[1:]):
        lines += buffer.feed(stream[a:b])
    assert lines == stream.split(b"\n")[:-1]


def test_oversized_line_is_refused_and_the_connection_closed(
        server, monkeypatch):
    monkeypatch.setattr(protocol, "MAX_LINE", 1024)
    for payload in (b"x" * 2048,                    # never finished
                    b'{"op": "ping", "pad": "' + b"x" * 1024
                    + b'"}\n'):                     # finished, too long
        raw = _Raw(server)
        try:
            raw.send(payload)
            reply = raw.reply()
            assert not reply["ok"]
            assert "exceeds protocol maximum" in \
                reply["error"]["message"]
            assert raw.reply() is None
        finally:
            raw.close()
    assert _eventually(lambda: server.service.session_count() == 0)


@pytest.mark.parametrize(
    "line", [b"{nope\n", b"[1, 2]\n", b"\xff\xfe\n",
             b"[" * 200_000 + b"\n"],       # a RecursionError in json
    ids=["not-json", "not-an-object", "not-utf8", "nested-too-deeply"])
def test_malformed_line_is_refused_and_the_connection_closed(
        server, line):
    raw = _Raw(server)
    try:
        with _client(server) as other:
            raw.send(protocol.encode_message({"id": 1, "op": "ping"})
                     + line
                     + protocol.encode_message({"id": 2, "op": "ping"}))
            assert raw.reply()["id"] == 1
            assert raw.reply()["error"]["kind"] in (
                "ValueError", "JSONDecodeError", "UnicodeDecodeError")
            assert raw.reply() is None      # what followed is dropped
            assert other.ping()             # nobody else is
    finally:
        raw.close()
    assert _eventually(lambda: server.service.session_count() == 0)


def test_a_stalled_half_line_delays_nobody(server):
    stalled = _Raw(server)
    try:
        stalled.send(b'{"id": 1, "op": "pi')
        with _client(server) as client:     # served meanwhile
            assert client.ping()
            client.execute(_append(400)["text"])
        assert stalled.quiet(0.05)
        stalled.send(b'ng"}\n')             # ...and still completes
        assert stalled.reply() == {"ok": True, "id": 1,
                                   "result": {"type": "pong"}}
    finally:
        stalled.close()


def test_disconnects_mid_line_and_mid_transaction_leak_nothing(server):
    threads = threading.active_count()
    mid_line, mid_txn = _Raw(server), _Raw(server)
    mid_line.send(b'{"id": 1, "op": "exe')
    mid_txn.send({"id": 1, "op": "begin"})
    assert mid_txn.reply()["ok"]
    mid_txn.send(_append(500))
    assert mid_txn.reply()["ok"]
    mid_txn.send(b'{"id": 3, "op": "comm')   # both at once
    mid_line.close()
    mid_txn.close()
    service = server.service
    assert _eventually(lambda: service.session_count() == 0)
    assert service.status()["transaction_owner"] is None
    assert not service.db._in_transaction
    assert threading.active_count() == threads
    with _client(server) as check:
        assert check.rows("retrieve (e.id) from e in emp "
                          "where e.id = 500") == []


def test_a_client_that_does_not_read_its_replies_delays_nobody(server):
    greedy = _Raw(server)
    try:
        # ~8 MB of replies to 400 pipelined requests it never reads
        big = protocol.encode_message({
            "op": "query", "text": "retrieve (a.name, b.name) "
                                   "from a in emp, b in emp"})
        greedy.sock.settimeout(0.05)
        try:
            for _ in range(4000):
                greedy.sock.sendall(big)
        except OSError:                     # its own send buffer is full
            pass
        with _client(server) as client:
            started = time.monotonic()
            assert client.ping()
            assert time.monotonic() - started < 2.0
    finally:
        greedy.close()
    assert _eventually(lambda: server.service.session_count() == 0)


# ----------------------------------------------------------------------
# load generator
# ----------------------------------------------------------------------

def test_run_load_mixed_workload(server):
    host, port = server.address
    summary = loadgen.run_load(host, port, clients=2, duration=0.4,
                               rows=20, write_ratio=0.25)
    assert summary["errors"] == []
    assert summary["ops"] > 0
    assert summary["reads"] > 0 and summary["writes"] > 0
    assert summary["ops"] == summary["reads"] + summary["writes"]
    assert len(summary["per_client"]) == 2


def test_loadgen_main_standalone(tmp_path, capsys):
    out_path = tmp_path / "summary.json"
    code = loadgen.main([
        "--standalone", "--clients", "2", "--duration", "0.4",
        "--rows", "20", "--write-ratio", "0.1",
        "--json", str(out_path)])
    assert code == 0
    summary = json.loads(out_path.read_text())
    assert summary["ops"] > 0 and summary["errors"] == []
    assert "evaluations/sec" in capsys.readouterr().out


def test_loadgen_main_requires_a_target():
    with pytest.raises(SystemExit):
        loadgen.main(["--clients", "1"])


# ----------------------------------------------------------------------
# the shell's \serve meta-command
# ----------------------------------------------------------------------

def _shell():
    out = io.StringIO()
    shell = Shell(out=out)
    shell.feed("create emp (id = int4, name = text, sal = float8);")
    shell.feed('append emp(id = 1, name = "a", sal = 10.0);')
    return shell, out


def _served_port(out):
    line = [l for l in out.getvalue().splitlines()
            if l.startswith("serving the session database")][0]
    return int(line.split(":")[-1].split()[0])


def test_cli_serve_round_trip():
    shell, out = _shell()
    shell.feed("\\serve")
    try:
        port = _served_port(out)
        with ServiceClient("127.0.0.1", port) as client:
            assert client.rows("retrieve (e.name) from e in emp") \
                == [["a"]]
            client.execute('append emp(id = 2, name = "b", '
                           'sal = 20.0)')
        # the server mutated the shell's own database
        assert len(shell.db.relation_rows("emp")) == 2
    finally:
        shell.feed("\\serve stop")
    text = out.getvalue()
    assert "rule server stopped" in text
    # the shell still owns an open database after stopping
    shell.feed('append emp(id = 3, name = "c", sal = 30.0);')
    assert len(shell.db.relation_rows("emp")) == 3


def test_cli_serve_status_and_double_start():
    shell, out = _shell()
    shell.feed("\\serve")
    try:
        shell.feed("\\serve status")
        shell.feed("\\serve")
    finally:
        shell.feed("\\serve stop")
    text = out.getvalue()
    assert "sessions" in text
    assert "already serving" in text


def test_cli_serve_errors():
    shell, out = _shell()
    shell.feed("\\serve stop")
    shell.feed("\\serve status")
    shell.feed("\\serve host:notaport")
    text = out.getvalue()
    assert text.count("no rule server is running") == 2
    assert "usage: \\serve" in text
