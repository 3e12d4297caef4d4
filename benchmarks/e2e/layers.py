"""Per-layer metrics: one number per layer boundary, from outside.

``*.self_us_per_op``, ``*.calls_per_op`` and ``*_per_call`` come from
the tracer's span totals over the traced window; everything else is a
delta of ``db.stats.counters`` over the same window (counts, which for
a seed and an op count repeat exactly on the in-process workloads).
Layers a workload never enters report 0.
"""

from __future__ import annotations

_NONE = (0, 0, 0, 0)


def _per(amount: float, base: float) -> float:
    return amount / base if base else 0.0


def layer_metrics(*, ops: int, wall_ns: int, connections: int,
                  served: bool, totals: dict, lifetime: dict,
                  counters: dict, final_counters: dict,
                  plans_built: int, wal_samples: tuple,
                  client_mean_ns: float, untraced_ops_per_s: float,
                  traced_ops_per_s: float) -> dict[str, tuple]:
    """``name -> (value, unit)`` for every declared per-layer metric.

    ``totals`` / ``counters`` / ``plans_built`` are deltas over the
    traced window of ``ops`` ops; ``lifetime`` are the span totals
    since the traced system started (set-up included — that is where
    rules are defined and primed on three of the four workloads).
    """
    def self_us(name: str) -> float:
        return totals.get(name, _NONE)[1] / 1e3 / ops

    def calls(name: str) -> float:
        return totals.get(name, _NONE)[0] / ops

    def per_call_us(name: str) -> float:
        count, self_ns, _, _ = lifetime.get(name, _NONE)
        return _per(self_ns / 1e3, count)

    def count(key: str) -> int:
        return counters.get(key, 0)

    tokens = count("tokens.routed")
    fired = count("rules.fired")
    writes = count("serve.writes")
    reads = count("serve.reads")
    network_self_ns = totals.get("core.network.process_tokens", _NONE)[1]
    probes = count("selection.probes")
    memo = count("selection.probe_memo_hits")
    orders = count("joins.orders_planned") + count("joins.order_cache_hits")
    lookups = count("stmt_cache.hits") + count("stmt_cache.misses")
    dispatch = totals.get("serve.server.dispatch", _NONE)
    service_write = totals.get("serve.service.write", _NONE)
    # a write's engine span runs on the writer thread, so what is left
    # of the handler's service span is queueing plus the snapshot gate
    engine_write_ns = totals.get("prepared.execute", _NONE)[2]
    checkpoint = totals.get("txn.durability.checkpoint", _NONE)
    # WAL record size, sampled from the log file as it stands: what the
    # window added to it, or (a checkpoint having truncated it inside
    # the window) everything it holds
    record_bytes = 0.0
    wal_before, wal_after = wal_samples
    if wal_after:
        if not count("wal.checkpoints"):
            wal_after = {key: wal_after[key] - wal_before[key]
                         for key in wal_after}
        record_bytes = _per(wal_after["bytes"], wal_after["records"])
    records_per_write = _per(count("wal.records"), writes)
    if served:
        # share of each connection's time spent inside the server's
        # request dispatch; the rest is the wire and the client
        coverage = _per(dispatch[2], wall_ns * connections)
    else:
        coverage = _per(sum(t[1] for t in totals.values()), wall_ns)
    facade = sum(totals.get(name, _NONE)[1] for name in
                 ("db.execute", "db.bulk_append", "db.prepare"))

    us, n, ratio = "us", "count", "ratio"
    return {
        "lang.parse.self_us_per_op": (self_us("lang.parse"), us),
        "lang.analyze.self_us_per_op": (self_us("lang.analyze"), us),
        "planner.plan_command.self_us_per_op":
            (self_us("planner.plan_command"), us),
        "planner.plan_command.calls_per_op":
            (calls("planner.plan_command"), n),
        "prepared.stmt_cache_hit_ratio":
            (_per(count("stmt_cache.hits"), lookups), ratio),
        "prepared.replans_per_op":
            (count("plan_cache.replans") / ops, n),
        "prepared.execute.self_us_per_op":
            (self_us("prepared.execute")
             + self_us("prepared.execute_readonly"), us),
        "db.facade.self_us_per_op": (facade / 1e3 / ops, us),
        "executor.run.self_us_per_op": (self_us("executor.run"), us),
        "executor.run.calls_per_op": (calls("executor.run"), n),
        "txn.transitions.mutate.self_us_per_op":
            (self_us("txn.transitions.mutate"), us),
        "txn.transitions.flush_tokens.self_us_per_op":
            (self_us("txn.transitions.flush_tokens"), us),
        "txn.transitions.tokens_per_op":
            (count("tokens.generated") / ops, n),
        "core.network.process_tokens.self_us_per_op":
            (network_self_ns / 1e3 / ops, us),
        "core.network.us_per_token":
            (_per(network_self_ns / 1e3, tokens), us),
        "core.network.tokens_routed_per_op": (tokens / ops, n),
        "core.network.batches_per_op":
            (count("tokens.batches") / ops, n),
        "core.selection_index.probe.self_us_per_op":
            (self_us("core.selection_index.probe"), us),
        "core.selection_index.probes_per_token":
            (_per(probes, tokens), n),
        "core.selection_index.memo_hit_ratio":
            (_per(memo + count("selection.stab_memo_hits"),
                  probes + memo), ratio),
        "core.alpha.join_probes_per_token":
            (_per(count("alpha.join_probes"), tokens), n),
        "core.alpha.inserts_per_op": (count("alpha.inserts") / ops, n),
        "core.alpha.virtual_scans_per_op":
            (count("virtual.scans") / ops, n),
        "core.alpha.join_indexes_promoted":
            (final_counters.get("alpha.join_indexes_promoted", 0), n),
        "core.join_planner.seeks_per_token":
            (_per(count("joins.seeks"), tokens), n),
        "core.join_planner.order_cache_hit_ratio":
            (_per(count("joins.order_cache_hits"), orders), ratio),
        "core.join_planner.unindexed_probes_per_op":
            (count("joins.unindexed_probes") / ops, n),
        "core.leapfrog.multiway_seeks_per_op":
            (count("joins.multiway_seeks") / ops, n),
        "core.leapfrog.iterator_seeks_per_op":
            (count("joins.leapfrog_seeks") / ops, n),
        "core.pnode.inserts_per_op": (count("pnode.inserts") / ops, n),
        "core.agenda.select_rule.self_us_per_op":
            (self_us("core.agenda.select_rule"), us),
        "core.agenda.selections_per_op":
            (count("agenda.selections") / ops, n),
        "core.manager.firings_per_op": (fired / ops, n),
        "core.manager.max_cascade_depth":
            (final_counters.get("rules.max_cascade_depth", 0), n),
        "core.manager.end_of_rule_processing.self_us_per_op":
            (self_us("core.manager.end_of_rule_processing"), us),
        "core.manager.define.self_us_per_call":
            (per_call_us("core.manager.define"), us),
        "core.manager.activate.self_us_per_call":
            (per_call_us("core.manager.activate"), us),
        "core.manager.deactivate.self_us_per_call":
            (per_call_us("core.manager.deactivate"), us),
        "core.action_planner.plan_firing.self_us_per_op":
            (self_us("core.action_planner.plan_firing"), us),
        "core.action_planner.plans_built_per_firing":
            (_per(plans_built, fired), n),
        "txn.durability.flush_boundary.self_us_per_op":
            (self_us("txn.durability.flush_boundary"), us),
        "txn.wal.bytes_per_write_op":
            (record_bytes * records_per_write, "bytes"),
        "txn.wal.records_per_write_op": (records_per_write, n),
        "txn.wal.fsyncs_per_write_op":
            (_per(count("wal.fsyncs"), writes), n),
        "txn.durability.checkpoints": (count("wal.checkpoints"), n),
        "txn.durability.checkpoint.total_s": (checkpoint[2] / 1e9, "s"),
        "txn.durability.checkpoint_stall_max_ms":
            (checkpoint[3] / 1e6 if checkpoint[0] else 0.0, "ms"),
        "serve.server.dispatch.self_us_per_op":
            (self_us("serve.server.dispatch"), us),
        "serve.service.read.self_us_per_op":
            (self_us("serve.service.read"), us),
        "serve.service.write_wait_us_per_write":
            (_per((service_write[2] - engine_write_ns) / 1e3,
                  service_write[0]), us),
        "serve.protocol.wire_us_per_op":
            ((client_mean_ns - _per(dispatch[2], dispatch[0])) / 1e3
             if served else 0.0, us),
        "serve.reads_share": (_per(reads, reads + writes), ratio),
        "serve.deferred_ops": (count("serve.deferred_ops"), n),
        "trace.coverage_ratio": (coverage, ratio),
        "trace.overhead_ratio":
            (_per(traced_ops_per_s, untraced_ops_per_s), ratio),
    }
