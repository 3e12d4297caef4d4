"""The JSON-lines wire protocol of the rule-evaluation front end.

One request per line, one response per line, UTF-8 JSON.  Requests
carry an ``op`` and its fields plus an optional client-chosen ``id``
echoed back in the response, so a client can pipeline:

.. code-block:: text

    -> {"id": 1, "op": "execute", "text": "append emp(name = \\"a\\")"}
    <- {"id": 1, "ok": true, "result": {"type": "dml", "count": 1}}
    -> {"id": 2, "op": "exec", "name": "by_id", "params": {"id": 7}}
    <- {"id": 2, "ok": true, "result": {"type": "rows", ...}}

Errors come back as ``{"ok": false, "error": {"kind": <exception
class>, "message": <str>}}`` — the kind is the ``repro.errors`` class
name, so clients can re-raise a faithful
:class:`~repro.serve.client.RemoteError`.

Floats round-trip through Python's JSON dialect (``NaN`` /
``Infinity`` literals included), matching the engine's exact-float
persistence.
"""

from __future__ import annotations

import json

from repro.executor.executor import DmlResult, ResultSet

#: protocol operations the server understands
OPS = ("ping", "session", "execute", "query", "prepare", "exec",
       "begin", "commit", "abort", "status", "close")

#: maximum request-line length (a framing-error guard, not a quota)
MAX_LINE = 4 * 1024 * 1024


def encode_message(payload: dict) -> bytes:
    """One wire line for ``payload`` (compact JSON + newline); an
    engine value JSON has no form for is stringified rather than
    killing the connection."""
    return json.dumps(payload, separators=(",", ":"),
                      default=str).encode("utf-8") + b"\n"


def decode_message(line: bytes) -> dict:
    """Parse one wire line; ``{}`` for a blank (keep-alive) line.
    Raises ``ValueError`` on an oversized or malformed line."""
    if len(line) > MAX_LINE:
        raise ValueError("request line exceeds protocol maximum")
    if not line.strip():
        return {}
    try:
        payload = json.loads(line.decode("utf-8"))
    except RecursionError:          # e.g. 100,000 opening brackets
        raise ValueError("request line is nested too deeply") from None
    if not isinstance(payload, dict):
        raise ValueError("protocol messages must be JSON objects")
    return payload


def read_message(reader) -> dict | None:
    """Read one message from a binary file-like ``reader``; None at
    EOF.  Raises ``ValueError`` on oversized or malformed lines."""
    line = reader.readline(MAX_LINE + 1)
    if not line:
        return None
    return decode_message(line)


class LineBuffer:
    """Reassembles request lines from bytes as they arrive (framing
    for a non-blocking reader): a ``recv`` may carry several requests,
    or part of one."""

    def __init__(self):
        self._tail = bytearray()

    def feed(self, chunk: bytes) -> list[bytes]:
        """The lines ``chunk`` completes, newline stripped, in order.
        Raises ``ValueError`` once the unfinished line exceeds
        ``MAX_LINE`` — it could never be accepted (and, chunks being
        far shorter than that, this chunk completed none)."""
        tail = self._tail
        if b"\n" in chunk:
            *lines, chunk = chunk.split(b"\n")
            if tail:
                lines[0] = bytes(tail) + lines[0]
                tail.clear()
        else:
            lines = []
        tail += chunk
        if len(tail) > MAX_LINE:
            raise ValueError("request line exceeds protocol maximum")
        return lines


def encode_result(result) -> dict:
    """A JSON-safe rendering of an engine result value."""
    if isinstance(result, ResultSet):
        return {"type": "rows",
                "columns": list(result.columns),
                "rows": [list(row) for row in result.rows]}
    if isinstance(result, DmlResult):
        return {"type": "dml", "count": result.count}
    if isinstance(result, str):
        return {"type": "text", "text": result}
    if result is None:
        return {"type": "ok"}
    return {"type": "text", "text": str(result)}


def error_payload(exc: BaseException) -> dict:
    """The wire form of an exception (class name + message)."""
    return {"kind": type(exc).__name__, "message": str(exc)}
