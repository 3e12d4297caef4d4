"""repro.serve — the rule-evaluation service.

Serves one single-threaded :class:`~repro.db.Database` to many clients
(the ezrules evaluator-service shape) without adding a thread around
the engine:

* :class:`~repro.serve.service.RuleService` — a serializer: one engine
  lock, every call runs on its caller's thread through the ordinary
  recognize-act cycle and WAL, so journal bytes and firing order are
  those of the calls executed serially in lock order
  (:attr:`~repro.serve.service.RuleService.serial_log`), with
  per-session transaction gating.
* :class:`~repro.serve.service.Session` — one client's handle: its
  prepared statements and its transaction state.
* :class:`~repro.serve.server.RuleServer` /
  :class:`~repro.serve.client.ServiceClient` — a JSON-lines TCP front
  end: one event-loop thread reads, dispatches and answers every
  connection.
* :mod:`~repro.serve.loadgen` — the load generator behind the
  sustained evaluations/sec benchmark (``BENCH_serving.json``).
"""

from repro.serve.client import RemoteError, ServiceClient
from repro.serve.server import RuleServer
from repro.serve.service import RuleService, Session

__all__ = [
    "RemoteError", "RuleServer", "RuleService", "ServiceClient",
    "Session",
]
