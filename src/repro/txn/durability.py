"""Durability coordination: journaling, checkpoints, degraded mode.

:class:`DurabilityManager` sits between the :class:`~repro.db.Database`
and its :class:`~repro.txn.wal.WriteAheadLog`.  It buffers the logical
mutations of the transition in flight (the transition hooks report every
heap change here via their ``journal`` attribute — including undo-replay
compensations, so the log is an exact redo history of the heap) and
writes them as one WAL record when the database signals a durable
boundary: implicit-transition completion, explicit ``commit``, or the
settling after a failed transition.  DDL and rule-lifecycle statements
are journaled as deparsed command text in their own records, flushed
*ahead* of any later mutations so replay order matches execution order.

Checkpointing bounds the log.  The protocol survives a crash at any
step because generation numbers pair each checkpoint with its log:

1. write ``wal.log.new`` holding only a generation ``g+1`` header;
2. write ``checkpoint.arl.tmp`` — a ``-- wal-generation: g+1`` line and
   the :func:`repro.persist.dumps` script — then atomically rename it
   over ``checkpoint.arl``;
3. atomically rename ``wal.log.new`` over ``wal.log``.

A crash before step 2's rename leaves the old pair intact (orphan
``.tmp``/``.new`` files are deleted at recovery); a crash between the
renames leaves a new checkpoint with a stale (generation ``g``) log,
which recovery detects by the generation mismatch and discards.

When the WAL exhausts its write retries the manager flips to *degraded*
mode: reads keep working, every subsequent write attempt raises
:class:`~repro.errors.DegradedError`, and the WAL is left exactly at the
last durable boundary, so the recovery guarantee (the durably-committed
prefix) still holds.
"""

from __future__ import annotations

import os
import pathlib
import time

from repro.errors import (
    DegradedError, DurabilityError, WalCorruptError)
from repro.txn.wal import WriteAheadLog, encode_values

CHECKPOINT_NAME = "checkpoint.arl"
WAL_NAME = "wal.log"
_GENERATION_PREFIX = "-- wal-generation: "


class DurabilityManager:
    """Durable-state coordinator for one database.

    ``mode="fresh"`` starts a new durable directory (and refuses one
    that already holds state — that is :meth:`repro.db.Database.recover`
    territory); ``mode="recover"`` analyzes the directory and leaves
    the checkpoint script and the WAL's surviving records in
    :attr:`pending_script` / :attr:`pending_replay` for the database
    to replay before it attaches the manager.
    """

    def __init__(self, db, path, *, fsync: str = "commit",
                 checkpoint_every: int = 1000, retry_limit: int = 5,
                 retry_backoff: float = 0.01, sleep=time.sleep,
                 mode: str = "fresh"):
        self.db = db
        self.dir = pathlib.Path(path)
        self.dir.mkdir(parents=True, exist_ok=True)
        self.fsync = fsync
        self.checkpoint_every = checkpoint_every
        self.checkpoint_path = self.dir / CHECKPOINT_NAME
        self.wal_path = self.dir / WAL_NAME
        #: reason the database degraded to read-only, or None
        self.degraded: str | None = None
        #: a simulated crash ended this instance; journaling stopped
        self.crashed = False
        self._buffer: list = []
        self._wal_kwargs = dict(fsync=fsync, stats=db.stats,
                                faults=db.faults, retry_limit=retry_limit,
                                retry_backoff=retry_backoff, sleep=sleep)
        self.wal = WriteAheadLog(self.wal_path, **self._wal_kwargs)
        self.pending_script: str | None = None
        self.pending_replay: list = []
        if mode == "fresh":
            self._start_fresh()
        else:
            self.pending_script, self.pending_replay = self._analyze()

    @property
    def pending_records(self) -> int:
        """Journal entries buffered ahead of the next durable boundary.

        The supported status surface for callers (``Database.wal_info``,
        the serving status endpoint) — the buffer itself is private.
        """
        return len(self._buffer)

    # ------------------------------------------------------------------
    # startup

    def _start_fresh(self) -> None:
        if self.checkpoint_path.exists():
            raise DurabilityError(
                "durable state already present; use Database.recover",
                path=self.checkpoint_path)
        if self.wal_path.exists():
            if self.wal.open():
                raise DurabilityError(
                    "write-ahead log already holds records; "
                    "use Database.recover", path=self.wal_path)
        else:
            self.wal.create(1)

    def _analyze(self):
        """Crash analysis: returns ``(checkpoint_script, wal_records)``
        and leaves the WAL open for appending at the right generation."""
        for orphan in (pathlib.Path(str(self.checkpoint_path) + ".tmp"),
                       pathlib.Path(str(self.wal_path) + ".new")):
            try:
                orphan.unlink()
            except FileNotFoundError:
                pass
        script = ""
        checkpoint_generation = 1
        if self.checkpoint_path.exists():
            text = self.checkpoint_path.read_text()
            header, _, script = text.partition("\n")
            if not header.startswith(_GENERATION_PREFIX):
                raise WalCorruptError("checkpoint missing generation "
                                      "header", path=self.checkpoint_path,
                                      offset=0)
            try:
                checkpoint_generation = int(
                    header[len(_GENERATION_PREFIX):])
            except ValueError:
                raise WalCorruptError(
                    "unreadable checkpoint generation",
                    path=self.checkpoint_path, offset=0) from None
        if not self.wal_path.exists():
            # the log was lost but the checkpoint survives; start a
            # fresh log paired with it
            self.wal.create(checkpoint_generation)
            return script, []
        records = self.wal.open()
        if self.wal.generation == checkpoint_generation:
            return script, records
        if self.wal.generation < checkpoint_generation:
            # crash between the checkpoint rename and the log rename:
            # the checkpoint already covers everything the stale log
            # holds
            self.wal.close()
            self.wal = WriteAheadLog(self.wal_path, **self._wal_kwargs)
            self.wal.create(checkpoint_generation)
            return script, []
        raise WalCorruptError(
            f"write-ahead log generation {self.wal.generation} is ahead "
            f"of checkpoint generation {checkpoint_generation}",
            path=self.wal_path)

    # ------------------------------------------------------------------
    # journaling (called by the transition hooks and the database)

    def journal_insert(self, relation: str, values: tuple) -> None:
        self._buffer.append(["i", relation, encode_values(values)])

    def journal_delete(self, relation: str, values: tuple) -> None:
        self._buffer.append(["d", relation, encode_values(values)])

    def journal_replace(self, relation: str, before: tuple,
                        after: tuple) -> None:
        self._buffer.append(["r", relation, encode_values(before),
                             encode_values(after)])

    def journal_relation_created(self, relation: str, schema) -> None:
        """A relation appeared outside DDL dispatch (``retrieve into``)."""
        columns = ", ".join(f"{a.name} = {a.type.value}" for a in schema)
        self.journal_statement(f"create {relation} ({columns})",
                               sync=False)

    def journal_statement(self, text: str, *, sync: bool = True) -> None:
        """Log a DDL / rule-lifecycle command as its own record, after
        flushing any mutations buffered ahead of it."""
        if self.crashed:
            return
        self._flush_buffer(sync=False)
        self._append([["stmt", text]], sync=sync)

    def flush_boundary(self, *, sync: bool = True) -> None:
        """Write the buffered transition (if any) as one WAL record."""
        if self.crashed:
            return
        self._flush_buffer(sync=sync)

    def _flush_buffer(self, *, sync: bool) -> None:
        if not self._buffer:
            return
        entries, self._buffer = self._buffer, []
        self._append(entries, sync=sync)

    def _append(self, entries: list, *, sync: bool) -> None:
        if self.degraded is not None:
            raise DegradedError(
                f"database is read-only: {self.degraded}",
                path=self.wal_path)
        try:
            self.wal.append(entries, sync=sync)
        except DegradedError:
            raise
        except DurabilityError as exc:
            self.degraded = str(exc)
            raise DegradedError(
                f"write-ahead logging failed; database is now "
                f"read-only ({exc})", path=self.wal_path) from exc

    def mark_crashed(self) -> None:
        """A simulated crash "killed the process": stop journaling and
        drop whatever was buffered (it was never durable)."""
        self.crashed = True
        self._buffer.clear()
        try:
            self.wal.close()
        except OSError:
            pass

    # ------------------------------------------------------------------
    # checkpointing

    def maybe_checkpoint(self) -> None:
        """Checkpoint if the record-count threshold has been crossed
        (called at durable boundaries outside transactions)."""
        if (self.checkpoint_every
                and self.wal.data_records >= self.checkpoint_every
                and self.degraded is None and not self.crashed):
            self.checkpoint()

    def checkpoint(self) -> None:
        """Dump the database, atomically install the new checkpoint,
        and truncate the WAL to an empty next-generation log."""
        from repro import persist

        generation = self.wal.generation + 1
        new_wal_path = str(self.wal_path) + ".new"
        new_wal = WriteAheadLog(new_wal_path, **self._wal_kwargs)
        new_wal.create(generation)
        tmp_path = str(self.checkpoint_path) + ".tmp"
        with open(tmp_path, "w") as f:
            f.write(f"{_GENERATION_PREFIX}{generation}\n")
            f.write(persist.dumps(self.db))
            f.flush()
            if self.fsync != "never":
                os.fsync(f.fileno())
        faults = self.db.faults
        if faults is not None:
            try:
                faults.hit("checkpoint.rename")
            except BaseException:
                new_wal.close()
                raise
        os.replace(tmp_path, self.checkpoint_path)
        # the handle keeps following the inode across the rename
        os.replace(new_wal_path, self.wal_path)
        self.wal.close()
        new_wal.path = os.fspath(self.wal_path)
        self.wal = new_wal
        self.db.stats.bump("wal.checkpoints")

    # ------------------------------------------------------------------

    def close(self) -> None:
        self.wal.close()
