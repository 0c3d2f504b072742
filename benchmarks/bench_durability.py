"""DUR — the price of durability and the cost of coming back.

Two questions the WAL design answers quantitatively:

* what does each fsync policy cost at commit time?  ``always`` pays
  a disk flush per transaction, ``commit`` only a library flush,
  ``off`` nothing — the commit-throughput sweep measures the spread;
* how long does recovery take?  Replay re-executes every logged
  statement, so recovery time must grow roughly linearly with the
  length of the log — the sweep ingests growing corpora, kills the
  engine, and times the reopen;
* what does group commit buy back?  At ``fsync=always`` the fsync
  per commit is the throughput ceiling; the group-commit sweep has
  concurrent committers append the same records one-by-one and then
  through a :class:`~repro.ordb.wal.GroupCommitter` (one fsync per
  batch) — CI's bench smoke gates ≥3x on that WAL-level ratio.  The
  durable engine's own commits/s (disjoint-table transactions; every
  durable engine commits through its group committer) rides along as
  context; it is far lower because statement execution is GIL-bound
  Python.

Exports ``BENCH_durability.json`` with all sweeps plus the
checkpoint effect (recovery from snapshot vs from a full log).
"""

from __future__ import annotations

import shutil
import tempfile
import threading
import time
from pathlib import Path

from conftest import write_bench_json
from repro.core import XML2Oracle
from repro.ordb import FSYNC_POLICIES, Database, verify_integrity
from repro.ordb.wal import GroupCommitter, WriteAheadLog
from repro.workloads import make_university, university_dtd

COMMIT_DOCUMENTS = 12
RECOVERY_SIZES = (8, 16, 32)
STUDENTS = 3
GC_THREADS = 32
GC_RECORDS = 60
GC_PAYLOAD = b"y" * 256


def build_tool(path, fsync: str) -> XML2Oracle:
    tool = XML2Oracle(db=Database(path=path, fsync=fsync),
                      metadata=False, validate_documents=False)
    tool.register_schema(university_dtd())
    return tool


def commit_throughput(fsync: str) -> dict:
    """Docs/s for per-document transactions under one fsync policy."""
    documents = [make_university(students=STUDENTS)
                 for _ in range(COMMIT_DOCUMENTS)]
    with tempfile.TemporaryDirectory() as where:
        tool = build_tool(Path(where) / "db", fsync)
        start = time.perf_counter()
        for document in documents:
            tool.store(document)
        elapsed = time.perf_counter() - start
        stats = tool.db.stats
        appends, wal_bytes = stats["wal_appends"], stats["wal_bytes"]
        tool.db.close()
    return {
        "fsync": fsync,
        "documents": COMMIT_DOCUMENTS,
        "seconds": round(elapsed, 4),
        "docs_per_second": round(COMMIT_DOCUMENTS / elapsed, 2),
        "wal_appends": appends,
        "wal_bytes": wal_bytes,
    }


def ingest_corpus(where, count: int) -> None:
    tool = build_tool(where, "off")
    for _ in range(count):
        tool.store(make_university(students=STUDENTS))
    tool.db.close()  # close syncs: the log is complete on disk


def recovery_time(where) -> tuple[float, dict]:
    start = time.perf_counter()
    db = Database(path=where)
    elapsed = time.perf_counter() - start
    info = dict(db.recovery_info)
    assert verify_integrity(db) == []
    db.close()
    return elapsed, info


def recovery_sweep() -> list[dict]:
    """Reopen time against WAL length; bench corpus must recover."""
    points = []
    with tempfile.TemporaryDirectory() as scratch:
        for count in RECOVERY_SIZES:
            where = Path(scratch) / f"db-{count}"
            ingest_corpus(where, count)
            elapsed, info = recovery_time(where)
            assert info["transactions_replayed"] >= count
            points.append({
                "documents": count,
                "transactions_replayed":
                    info["transactions_replayed"],
                "statements_replayed": info["statements_replayed"],
                "recovery_seconds": round(elapsed, 4),
                "seconds_per_transaction": round(
                    elapsed / info["transactions_replayed"], 6),
            })
    return points


def checkpoint_effect() -> dict:
    """Recovery from a snapshot vs replaying the whole log."""
    count = RECOVERY_SIZES[-1]
    with tempfile.TemporaryDirectory() as scratch:
        full = Path(scratch) / "full"
        ingest_corpus(full, count)
        snapshotted = Path(scratch) / "snapshotted"
        shutil.copytree(full, snapshotted)
        db = Database(path=snapshotted)
        db.checkpoint()
        db.close()
        from_log, log_info = recovery_time(full)
        from_snapshot, snap_info = recovery_time(snapshotted)
    return {
        "documents": count,
        "from_log_seconds": round(from_log, 4),
        "from_log_replayed": log_info["transactions_replayed"],
        "from_checkpoint_seconds": round(from_snapshot, 4),
        "from_checkpoint_replayed":
            snap_info["transactions_replayed"],
    }


def _durable_append_run(grouped: bool) -> dict:
    """Records/s for GC_THREADS concurrent committers at
    ``fsync=always`` — per-record append+fsync vs one batched
    append+fsync through the :class:`GroupCommitter`."""
    with tempfile.TemporaryDirectory() as scratch:
        wal = WriteAheadLog(Path(scratch) / "wal.log",
                            policy="always")
        wal.open()
        # batches form purely from committers piling up while the
        # leader is inside the fsync, so the measured gain is
        # amortization, not added latency
        committer = GroupCommitter(wal) if grouped else None
        errors: list[BaseException] = []

        def worker(seq: int) -> None:
            try:
                for index in range(GC_RECORDS):
                    payload = (b"%d:%d:" % (seq, index)) + GC_PAYLOAD
                    if committer is not None:
                        committer.commit(lambda p=payload: p)
                    else:
                        wal.append(payload)
            except BaseException as exc:  # pragma: no cover - report
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(seq,))
                   for seq in range(GC_THREADS)]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - start
        wal.close()
        assert not errors, errors
    total = GC_THREADS * GC_RECORDS
    point = {
        "mode": "group_commit" if grouped else "append_per_record",
        "threads": GC_THREADS,
        "records": total,
        "fsync": "always",
        "records_per_second": round(total / elapsed, 1),
    }
    if committer is not None:
        point["batches"] = committer.batches
        point["mean_batch_size"] = round(
            committer.records / max(committer.batches, 1), 1)
    return point


def group_commit_engine_context() -> dict:
    """End-to-end context: durable-engine commits/s at
    ``fsync=always`` on disjoint tables (every durable engine commits
    through its group committer)."""
    with tempfile.TemporaryDirectory() as scratch:
        db = Database(path=Path(scratch) / "db", fsync="always")
        for seq in range(GC_THREADS):
            db.execute(f"CREATE TABLE gcb{seq}(k NUMBER)")

        def worker(seq: int) -> None:
            with db.session() as session:
                for index in range(GC_RECORDS // 4):
                    with session.transaction():
                        session.execute(
                            f"INSERT INTO gcb{seq}"
                            f" VALUES({index})")

        threads = [threading.Thread(target=worker, args=(seq,))
                   for seq in range(GC_THREADS)]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - start
        db.close()
    commits = GC_THREADS * (GC_RECORDS // 4)
    return {"commits_per_second": round(commits / elapsed, 1)}


def test_commit_throughput_by_fsync_policy(benchmark):
    """All three policies measured; ``off`` must not lose to
    ``always`` — the gate is direction, not absolute numbers."""
    results = {policy: commit_throughput(policy)
               for policy in FSYNC_POLICIES}
    benchmark(lambda: commit_throughput("commit"))
    for policy in FSYNC_POLICIES:
        benchmark.extra_info[f"docs_per_second_{policy}"] = \
            results[policy]["docs_per_second"]

    recovery = recovery_sweep()
    checkpoint = checkpoint_effect()
    single = _durable_append_run(grouped=False)
    grouped = _durable_append_run(grouped=True)
    gc_ratio = round(grouped["records_per_second"]
                     / single["records_per_second"], 2)
    benchmark.extra_info["group_commit_speedup"] = gc_ratio
    write_bench_json("durability", {
        "commit_throughput": [results[p] for p in FSYNC_POLICIES],
        "recovery": recovery,
        "checkpoint_effect": checkpoint,
        "group_commit": {
            "wal_level": [single, grouped],
            "speedup": gc_ratio,
            "engine_context": group_commit_engine_context(),
        },
    })
    # local direction gate (CI's bench smoke enforces ≥3x from the
    # JSON): batching fsyncs must beat fsync-per-record
    assert gc_ratio > 1.0, (
        f"group commit slower than per-record appends:"
        f" {single} vs {grouped}")
    assert (results["off"]["docs_per_second"]
            >= results["always"]["docs_per_second"] * 0.5), (
        "buffered commits should not trail fsync-per-commit badly:"
        f" {results}")
    # recovery scales roughly linearly: per-transaction replay cost
    # must not blow up as the log grows
    per_txn = [point["seconds_per_transaction"]
               for point in recovery]
    assert max(per_txn) <= min(per_txn) * 5 + 1e-3, (
        f"recovery cost per transaction not roughly flat: {recovery}")
    assert (checkpoint["from_checkpoint_replayed"]
            < checkpoint["from_log_replayed"])
