"""Tests for asynchronous trigger delivery (paper §8 future work)."""

import pytest

from repro import Database
from repro.errors import ExecutionError, RuleLoopError


@pytest.fixture
def db():
    database = Database()
    database.execute_script("""
        create stock (symbol = text, price = float8)
        create alerts (symbol = text)
    """)
    database.execute("define rule spike "
                     "if stock.price > 1.2 * previous stock.price "
                     "then append to alerts(stock.symbol)")
    database.execute('append stock(symbol="ACME", price=100)')
    return database


class TestSubscribe:
    def test_notification_delivered(self, db):
        received = []
        db.subscribe(received.append, "spike")
        db.execute('replace stock (price = 150) '
                   'where stock.symbol = "ACME"')
        assert len(received) == 1
        notification = received[0]
        assert notification.rule_name == "spike"
        assert len(notification) == 1
        snapshot = notification.matches[0]
        assert snapshot["stock"] == ("ACME", 150.0)
        assert snapshot.previous["stock"] == ("ACME", 100.0)

    def test_no_notification_without_firing(self, db):
        received = []
        db.subscribe(received.append, "spike")
        db.execute('replace stock (price = 105) '
                   'where stock.symbol = "ACME"')
        assert received == []

    def test_wildcard_subscription(self, db):
        received = []
        db.subscribe(received.append)          # every rule
        db.execute("define rule any on append alerts "
                   "then append to alerts(symbol = \"echo\") "
                   "where alerts.symbol != \"echo\"")
        db.execute('replace stock (price = 200) '
                   'where stock.symbol = "ACME"')
        names = [n.rule_name for n in received]
        assert "spike" in names and "any" in names

    def test_rule_filter(self, db):
        spike_seen = []
        other_seen = []
        db.subscribe(spike_seen.append, "spike")
        db.subscribe(other_seen.append, "other")
        db.execute('replace stock (price = 200) '
                   'where stock.symbol = "ACME"')
        assert len(spike_seen) == 1
        assert other_seen == []

    def test_delivery_after_cascade_settles(self, db):
        """The subscriber must observe the final post-cascade state."""
        db.execute("define rule dampen on append alerts "
                   "then replace stock (price = 100) "
                   'where stock.symbol = alerts.symbol')
        states = []

        def observe(notification):
            states.append(db.relation_rows("stock"))

        db.subscribe(observe, "spike")
        db.execute('replace stock (price = 200) '
                   'where stock.symbol = "ACME"')
        # by delivery time the dampen rule has already reset the price
        assert states == [[("ACME", 100.0)]]

    def test_unsubscribe(self, db):
        received = []
        token = db.subscribe(received.append, "spike")
        assert db.unsubscribe(token)
        assert not db.unsubscribe(token)
        db.execute('replace stock (price = 200) '
                   'where stock.symbol = "ACME"')
        assert received == []

    def test_subscriber_exception_isolated(self, db):
        def boom(notification):
            raise ValueError("subscriber bug")

        received = []
        db.subscribe(boom, "spike")
        db.subscribe(received.append, "spike")
        db.execute('replace stock (price = 200) '
                   'where stock.symbol = "ACME"')
        # the healthy subscriber was still served, the error captured
        assert len(received) == 1
        assert len(db.subscriptions.errors) == 1
        assert isinstance(db.subscriptions.errors[0][1], ValueError)
        # data is consistent
        assert db.relation_rows("alerts") == [("ACME",)]

    def test_set_oriented_snapshot(self, db):
        db.execute('append stock(symbol="BETA", price=10)')
        received = []
        db.subscribe(received.append, "spike")
        db.execute("do "
                   'replace stock (price = 500) '
                   'where stock.symbol = "ACME" '
                   'replace stock (price = 50) '
                   'where stock.symbol = "BETA" '
                   "end")
        assert len(received) == 1
        assert len(received[0]) == 2
        symbols = sorted(m["stock"][0] for m in received[0].matches)
        assert symbols == ["ACME", "BETA"]

    def test_sequence_numbers_match_firing_log(self, db):
        received = []
        db.subscribe(received.append, "spike")
        db.execute('replace stock (price = 200) '
                   'where stock.symbol = "ACME"')
        assert received[0].sequence == db.firing_log[-1].sequence

    def test_subscribing_mid_session(self, db):
        db.execute('replace stock (price = 200) '
                   'where stock.symbol = "ACME"')     # unobserved
        received = []
        db.subscribe(received.append, "spike")
        db.execute('replace stock (price = 300) '
                   'where stock.symbol = "ACME"')
        assert len(received) == 1


class TestRaisingCycle:
    """A cycle that raises never finished its cascade: its queued
    notifications are dropped, never delivered at a later statement."""

    @pytest.mark.parametrize("explicit", [False, True])
    def test_failed_action_leaves_no_notification(self, explicit):
        db = Database()
        db.execute_script("""
            create t (a = int4)
            create u (a = int4)
        """)
        db.execute("define rule bad on append t if t.a > 0 "
                   "then append to u(a = t.a / (t.a - t.a))")
        db.execute("define rule ok on append t if t.a < 0 "
                   "then append to u(a = t.a)")
        received = []
        db.subscribe(received.append)
        if explicit:
            db.begin()
        with pytest.raises(ExecutionError):
            db.execute("append t(a = 1)")
        assert db.relation_rows("u") == []
        assert not db.subscriptions.pending
        db.execute("append u(a = 3)")           # fires no rule
        assert received == []
        db.execute("append t(a = -1)")
        assert [n.rule_name for n in received] == ["ok"]
        assert received[0].sequence == db.firing_log[-1].sequence
        if explicit:
            db.commit()

    def test_rule_loop_leaves_no_notification(self):
        db = Database(max_firings=5)
        db.execute_script("""
            create t (a = int4)
            create u (a = int4)
        """)
        db.execute("define rule loop on append t if t.a < 100 "
                   "then append to t(a = t.a + 1)")
        received = []
        db.subscribe(received.append, "loop")
        with pytest.raises(RuleLoopError):
            db.execute("append t(a = 1)")
        assert not db.subscriptions.pending
        db.execute("append u(a = 3)")           # fires no rule
        assert received == []
        db.execute("append t(a = 99)")          # fires once: 100 stops it
        assert len(received) == 1
        assert received[0].sequence == db.firing_log[-1].sequence
