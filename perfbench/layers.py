"""Per-layer metrics of a traced run, derived from span totals.

``self_s`` is a layer's span time minus the time of the spans it
called, summed over threads; ``calls`` counts its spans.  Counters the
engine keeps in ``Database.stats`` (reset before the loop) supply the
work counts the spans cannot see.  The per-operation medians and the
recovery and disk figures are end-to-end numbers that only some
workloads have; they ride here, from the untraced loop, because every
end-to-end metric must exist on every workload.  So does the p99
latency: it sits where the slowest operation kinds and collector pauses
meet, and jumps too far between runs to carry a bound.  Every workload
reports every metric; a layer or operation the workload does not reach
reports 0.
"""

from __future__ import annotations

from spans import OP, RECOVERY, REQUEST
from workloads import percentile

#: (name, unit) of every per-layer metric, in report order.
PER_LAYER = [
    ("xmlkit.parse.calls", "count"),
    ("xmlkit.parse.self_s", "s"),
    ("dtd.validate.self_s", "s"),
    ("core.loader.self_s", "s"),
    ("core.loader.statements_per_doc", "count"),
    ("core.metadata.self_s", "s"),
    ("ordb.sql.parse.calls", "count"),
    ("ordb.sql.parse.self_s", "s"),
    ("ordb.stmt_cache.hit_ratio", "ratio"),
    ("ordb.engine.execute.calls", "count"),
    ("ordb.engine.execute.self_s", "s"),
    ("ordb.engine.rows_scanned_per_row_returned", "ratio"),
    ("ordb.engine.full_scans", "count"),
    ("ordb.engine.index_lookups", "count"),
    ("ordb.planner.calls", "count"),
    ("ordb.planner.self_s", "s"),
    ("core.queries.self_s", "s"),
    ("core.retriever.self_s", "s"),
    ("ordb.locks.acquire_wait_s", "s"),
    ("ordb.locks.lock_waits", "count"),
    ("ordb.wal.encode_s", "s"),
    ("ordb.wal.append_s", "s"),
    ("ordb.wal.fsync_count", "count"),
    ("ordb.wal.fsync_s", "s"),
    ("ordb.wal.records_per_fsync", "ratio"),
    ("ordb.wal.bytes_per_record", "bytes"),
    ("ordb.recovery.decode_s", "s"),
    ("ordb.recovery.sql_parse_s", "s"),
    ("ordb.recovery.execute_s", "s"),
    ("server.wire.encode_s", "s"),
    ("server.wire.decode_s", "s"),
    ("server.wire.bytes_per_request", "bytes"),
    ("server.admission.wait_s", "s"),
    ("server.admission.shed", "count"),
    ("server.handler.self_s", "s"),
    ("python.gc.pause_s", "s"),
    ("python.gc.gen2_collections", "count"),
    ("python.gc.max_pause_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("store_p50_ms", "ms"),
    ("query_p50_ms", "ms"),
    ("fetch_p50_ms", "ms"),
    ("update_p50_ms", "ms"),
    ("recovery_s", "s"),
    ("disk_bytes_per_input_byte", "ratio"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_ratio", "ratio"),
]

#: Spans that root a unit of work rather than a layer of the program.
ROOTS = (OP, REQUEST, RECOVERY)


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def per_layer(workload: str, counts, recovery, pauses, baseline,
              loop) -> dict:
    """Every per-layer metric as name -> (value, unit).

    *loop* is the traced loop and *baseline* the untraced one before
    it; the per-operation medians, recovery time and disk ratio come
    from the untraced run.
    """
    self_s, calls = counts.self_s, counts.calls
    extra, stats = counts.extra, loop.stats
    values = {
        "xmlkit.parse.calls": calls["xmlkit.parse"],
        "xmlkit.parse.self_s": self_s["xmlkit.parse"],
        "dtd.validate.self_s": self_s["dtd.validate"],
        "core.loader.self_s": self_s["core.loader"],
        "core.loader.statements_per_doc": _ratio(
            extra["core.loader.statements"], calls["core.loader"]),
        "core.metadata.self_s": self_s["core.metadata"],
        "ordb.sql.parse.calls": calls["ordb.sql.parse"],
        "ordb.sql.parse.self_s": self_s["ordb.sql.parse"],
        "ordb.stmt_cache.hit_ratio": _ratio(
            stats["stmt_cache_hits"],
            stats["stmt_cache_hits"] + stats["stmt_cache_misses"]),
        "ordb.engine.execute.calls": calls["ordb.engine.execute"],
        "ordb.engine.execute.self_s": self_s["ordb.engine.execute"],
        "ordb.engine.rows_scanned_per_row_returned": _ratio(
            stats["rows_scanned"], extra["ordb.engine.rows_returned"]),
        "ordb.engine.full_scans": stats["full_scans"],
        "ordb.engine.index_lookups": stats["index_lookups"],
        "ordb.planner.calls": calls["ordb.planner"],
        "ordb.planner.self_s": self_s["ordb.planner"],
        "core.queries.self_s": self_s["core.queries"],
        "core.retriever.self_s": self_s["core.retriever"],
        "ordb.locks.acquire_wait_s": counts.total_s["ordb.locks"],
        "ordb.locks.lock_waits": stats["lock_waits"],
        "ordb.wal.encode_s": self_s["ordb.wal.encode"],
        "ordb.wal.append_s": self_s["ordb.wal.append"],
        "ordb.wal.fsync_count": calls["ordb.wal.fsync"],
        "ordb.wal.fsync_s": self_s["ordb.wal.fsync"],
        "ordb.wal.records_per_fsync": _ratio(stats["wal_appends"],
                                             calls["ordb.wal.fsync"]),
        "ordb.wal.bytes_per_record": _ratio(stats["wal_bytes"],
                                            stats["wal_appends"]),
        "ordb.recovery.decode_s": recovery.self_s["ordb.recovery.decode"],
        "ordb.recovery.sql_parse_s": recovery.self_s["ordb.sql.parse"],
        # the rest of the durable open: statement replay, plus loading
        # the checkpoint and reading the log
        "ordb.recovery.execute_s": recovery.self_s[RECOVERY],
        "server.wire.encode_s": self_s["server.wire.encode"],
        "server.wire.decode_s": self_s["server.wire.decode"],
        "server.wire.bytes_per_request": _ratio(
            extra["server.wire.request_bytes"], calls[REQUEST]),
        "server.admission.wait_s": self_s["server.admission"],
        "server.admission.shed": stats["admission_shed"],
        "server.handler.self_s": self_s[REQUEST],
        "python.gc.pause_s": pauses.pause_s,
        "python.gc.gen2_collections": pauses.gen2,
        "python.gc.max_pause_ms": pauses.max_pause_s * 1000.0,
    }
    values["latency_p99_ms"] = percentile(baseline.latencies(),
                                          0.99) * 1000.0
    for kind in ("store", "query", "fetch", "update"):
        samples = baseline.latencies(kind)
        values[f"{kind}_p50_ms"] = (
            percentile(samples, 0.50) * 1000.0 if samples else 0.0)
    for name in ("recovery_s", "disk_bytes_per_input_byte"):
        values[name] = baseline.metrics.get(name, (0.0, ""))[0]
    # coverage: how much of the root time (program calls for the
    # embedded workloads, server requests for server_durable) the
    # named layers' self times account for
    root = REQUEST if workload == "server_durable" else OP
    layered = sum(value for layer, value in self_s.items()
                  if layer not in ROOTS)
    values["trace.coverage"] = _ratio(layered, counts.total_s[root])
    traced_rate = _ratio(loop.attempted, loop.seconds)
    values["trace.overhead_ratio"] = _ratio(
        _ratio(baseline.attempted, baseline.seconds), traced_rate)
    return {name: (values[name], unit) for name, unit in PER_LAYER}
