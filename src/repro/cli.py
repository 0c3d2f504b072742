"""Command-line interface: the XML2Oracle utility as a console tool.

The original XML2Oracle was an interactive GUI program (Section 3);
this CLI exposes the same pipeline as one-shot commands:

.. code-block:: console

   python -m repro schema  doc.xml            # emit the DDL script
   python -m repro load    doc.xml            # emit DDL + INSERTs
   python -m repro query   doc.xml /Uni/Name  # run a path query
   python -m repro roundtrip doc.xml          # fidelity report
   python -m repro ingest  a.xml b.xml c.xml  # transactional bulk load
   python -m repro stats   a.xml b.xml        # ingest + metrics JSON
   python -m repro trace   doc.xml            # ingest + span tree
   python -m repro demo                       # Appendix A walkthrough
   python -m repro db checkpoint --db-path D  # snapshot + truncate WAL
   python -m repro db recover --db-path D     # replay, report, verify
   python -m repro serve --port 1521          # network front end

``serve`` runs the engine as a fault-tolerant TCP server (see
``docs/robustness.md``); ``ingest`` and ``query`` accept
``--url ordb://host:port`` to run against it.  Exit codes follow the
error taxonomy: 75 (EX_TEMPFAIL) for transient failures a shell-level
retry may clear, 1 for permanent ones.

The ingest family accepts ``--db-path DIR`` to load into a durable
database (write-ahead logged; ``--fsync`` picks the policy); the
``db`` group manages such a directory afterwards.  Adding
``--shards N`` hash-partitions documents across N embedded engines,
each with its own WAL and checkpoint (``docs/architecture.md``); an
existing sharded directory reopens with its manifest's shard count,
``db rebalance --shards M`` changes it, and ``db recover --verify``
checks integrity on every shard.  See ``docs/robustness.md`` for the
durability guarantees.

Every pipeline command accepts ``--trace`` (print the span tree to
stderr) and ``--slow-ms N`` (log statements slower than N ms);
``query`` additionally takes ``--explain`` to print the evaluation
plan instead of running the query.  See ``docs/observability.md``.

Documents must carry their DTD in the internal subset (as the
Appendix A sample does) or supply one with ``--dtd file.dtd``.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import threading
from pathlib import Path

from repro.core import RetryPolicy, XML2Oracle, compare
from repro.core.ingest import classify
from repro.core.plan import MappingConfig
from repro.dtd import parse_dtd
from repro.obs import Observability
from repro.ordb import (
    CompatibilityMode,
    Database,
    FSYNC_POLICIES,
    ShardedDatabase,
    verify_integrity,
)
from repro.ordb.errors import OrdbError, is_transient
from repro.xmlkit import parse as parse_xml

#: Exit code for failures a shell-level retry may clear (EX_TEMPFAIL,
#: the sysexits.h convention); permanent failures exit 1.  Lets
#: wrapper scripts drive retries off the engine's error taxonomy:
#: ``repro ingest ... || [ $? -eq 75 ] && retry_later``.
EXIT_TRANSIENT = 75


def _mode(name: str) -> CompatibilityMode:
    return (CompatibilityMode.ORACLE8 if name == "oracle8"
            else CompatibilityMode.ORACLE9)


def _slow_threshold(args) -> float | None:
    slow_ms = getattr(args, "slow_ms", None)
    return None if slow_ms is None else slow_ms / 1000.0


def _observability(args, force: bool = False) -> Observability | None:
    """An enabled Observability when any flag asks for one."""
    if not (force or getattr(args, "trace", False)
            or getattr(args, "slow_ms", None) is not None):
        return None
    return Observability(enabled=True,
                         slow_query_threshold=_slow_threshold(args))


def _report_observability(tool: XML2Oracle, args) -> None:
    """Print the span tree / slow-query log to stderr when asked."""
    obs = tool.obs
    if not obs.enabled:
        return
    if getattr(args, "trace", False):
        print("-- trace " + "-" * 51, file=sys.stderr)
        print(obs.tracer.render(), file=sys.stderr)
    if obs.slow_log.enabled:
        print(obs.slow_log.render_text(), file=sys.stderr)


def _load_inputs(args) -> tuple:
    """Read the document and its DTD per the CLI conventions."""
    document = parse_xml(Path(args.document).read_text())
    if args.dtd:
        dtd = parse_dtd(Path(args.dtd).read_text())
    elif document.doctype is not None and document.doctype.dtd:
        dtd = document.doctype.dtd
    else:
        raise SystemExit(
            "error: the document has no internal DTD subset;"
            " pass --dtd FILE")
    return document, dtd


def _make_tool(args, obs: Observability | None = None) -> XML2Oracle:
    config = MappingConfig()
    if getattr(args, "clob", False):
        config.use_clob_for_text = True
    for hint in getattr(args, "hint", None) or []:
        if "=" not in hint:
            raise SystemExit(
                f"error: --hint must be NAME=SQLTYPE, got {hint!r}")
        name, sql_type = hint.split("=", 1)
        config.type_hints[name] = sql_type
    if obs is None:
        obs = _observability(args)
    db = _make_db(args)
    tool = XML2Oracle(db=db, mode=_mode(args.mode), config=config,
                      obs=obs)
    return tool


def _make_db(args) -> Database | ShardedDatabase | None:
    """The embedded engine for ``--db-path``: a hash-sharded router
    when ``--shards`` asks for one or the directory already carries a
    shard manifest (the manifest's own count then wins), a single
    engine otherwise, None for in-memory runs without a path."""
    path = getattr(args, "db_path", None)
    shards = getattr(args, "shards", None)
    if not path:
        if shards:
            return ShardedDatabase(n_shards=shards,
                                   mode=_mode(args.mode))
        return None
    fsync = getattr(args, "fsync", None) or "commit"
    if shards is None and (Path(path)
                           / ShardedDatabase.MANIFEST).exists():
        shards = 1  # placeholder: the manifest dictates the count
    if shards:
        return ShardedDatabase(n_shards=shards, mode=_mode(args.mode),
                               path=path, fsync=fsync)
    return Database(_mode(args.mode), path=path, fsync=fsync)


def cmd_schema(args) -> int:
    document, dtd = _load_inputs(args)
    tool = _make_tool(args)
    schema = tool.register_schema(dtd, root=args.root,
                                  sample_document=document)
    print(schema.script.text)
    for warning in schema.plan.warnings:
        print(f"-- warning: {warning}", file=sys.stderr)
    _report_observability(tool, args)
    return 0


def cmd_load(args) -> int:
    document, dtd = _load_inputs(args)
    tool = _make_tool(args)
    tool.register_schema(dtd, root=args.root, sample_document=document)
    stored = tool.store(document, doc_name=Path(args.document).name)
    print(f"-- document stored as DocID {stored.doc_id} with"
          f" {stored.load_result.insert_count} INSERT and"
          f" {stored.load_result.update_count} UPDATE statement(s)")
    for statement in stored.load_result.sql:
        print(statement + ";")
    _report_observability(tool, args)
    return 0


def _parse_predicate(args) -> tuple | None:
    if not args.predicate:
        return None
    if "=" not in args.predicate:
        raise SystemExit("error: --predicate must be path=value")
    path, value = args.predicate.split("=", 1)
    return (path, "=", value)


def _query_remote(args) -> int:
    """``repro query --url``: store and query on a remote server."""
    from repro.client import connect

    text = Path(args.document).read_text()
    dtd_text = Path(args.dtd).read_text() if args.dtd else None
    with connect(args.url) as conn:
        conn.register_schema(dtd=dtd_text, document=text,
                             root=args.root)
        stored = conn.store(text, root=args.root,
                            doc_name=Path(args.document).name)
        result = conn.query(args.path,
                            predicate=_parse_predicate(args),
                            select=args.select)
    print(f"-- queried {args.url} (DocID {stored['doc_id']})")
    print(result.format_table())
    print(f"-- {len(result.rows)} row(s)")
    return 0


def cmd_query(args) -> int:
    if getattr(args, "url", None):
        return _query_remote(args)
    document, dtd = _load_inputs(args)
    tool = _make_tool(args)
    tool.register_schema(dtd, root=args.root, sample_document=document)
    tool.store(document)
    predicate = _parse_predicate(args)
    rendered = tool.path_query(args.path, predicate=predicate,
                               select=args.select)
    print(f"-- SQL: {rendered.sql}")
    if args.explain:
        plan = tool.db.explain(rendered.sql)
        print(plan.render())
        _report_observability(tool, args)
        return 0
    result = tool.db.execute(rendered.sql)
    print(result.format_table())
    print(f"-- {len(result.rows)} row(s)")
    _report_observability(tool, args)
    return 0


def cmd_roundtrip(args) -> int:
    document, dtd = _load_inputs(args)
    tool = _make_tool(args)
    tool.register_schema(dtd, root=args.root, sample_document=document)
    stored = tool.store(document, doc_name=Path(args.document).name)
    rebuilt = tool.fetch(stored.doc_id)
    report = compare(document, rebuilt)
    print(report.describe())
    if args.emit:
        print("-" * 60)
        print(tool.fetch_text(stored.doc_id, indent="  "))
    _report_observability(tool, args)
    return 0 if report.score == 1.0 else 1


def _ingest_into(tool: XML2Oracle, args):
    """Register a schema and bulk-load ``args.documents`` into
    *tool*; returns the IngestReport, or None after printing the
    error (shared by ``ingest``, ``stats`` and ``trace``)."""
    paths = [Path(name) for name in args.documents]
    # the sample document feeds IDREF-target inference (Section 4.4);
    # without one, IDREF attributes stay plain VARCHAR columns
    sample = None
    internal = None
    for path in paths:
        try:
            probe = parse_xml(path.read_text())
        except Exception:
            continue  # bad file: quarantined by store_many below
        if sample is None:
            sample = probe
        if probe.doctype is not None and probe.doctype.dtd:
            internal = probe
            break
    if args.dtd:
        dtd = parse_dtd(Path(args.dtd).read_text())
    elif internal is not None:
        dtd, sample = internal.doctype.dtd, internal
    else:
        raise SystemExit(
            "error: no readable document carries an internal DTD"
            " subset; pass --dtd FILE")
    try:
        tool.register_schema(dtd, root=args.root,
                             sample_document=sample)
    except OrdbError as error:
        print(f"error: cannot register schema: {error}",
              file=sys.stderr)
        if tool.db.wal is not None:
            print("hint: the durable database already holds this"
                  " schema; inspect it with 'repro db recover' or"
                  " ingest into a fresh --db-path", file=sys.stderr)
        return None
    if args.fault:
        site, _, position = args.fault.partition(":")
        if not position.isdigit():
            raise SystemExit(
                "error: --fault must be SITE:INDEX, e.g. storage:3")
        try:
            tool.db.faults.arm(site=site or None, at=int(position))
        except ValueError as error:
            raise SystemExit(f"error: {error}") from None
    try:
        texts = [path.read_text() for path in paths]
    except OSError as error:
        print(f"error: {error}", file=sys.stderr)
        return None
    policy = RetryPolicy(max_attempts=max(1, args.retries + 1))
    try:
        report = tool.store_many(
            texts,
            continue_on_error=args.continue_on_error,
            retry=policy,
            doc_names=[path.name for path in paths],
            workers=args.workers)
    except Exception as error:
        print(f"error: batch aborted, all documents rolled back:"
              f" {error}", file=sys.stderr)
        print("hint: --continue-on-error quarantines bad documents"
              " instead", file=sys.stderr)
        return None
    return report


def _ingest_remote(args) -> int:
    """``repro ingest --url``: ship documents to a running server.

    Every document commits in its own server-side transaction (as
    ``--workers`` does locally); transient failures — shed requests,
    lost connections, lock timeouts — retry with jittered backoff
    through the connection pool before counting as failed.
    """
    from repro.client import ConnectionPool

    paths = [Path(name) for name in args.documents]
    policy = RetryPolicy(max_attempts=max(1, args.retries + 1))
    dtd_text = Path(args.dtd).read_text() if args.dtd else None
    sample_text = None
    for path in paths:
        try:
            text = path.read_text()
        except OSError:
            continue
        if sample_text is None or "<!DOCTYPE" in text:
            sample_text = text
        if "<!DOCTYPE" in text:
            break
    if dtd_text is None and sample_text is None:
        raise SystemExit("error: no readable document to infer a"
                         " schema from; pass --dtd FILE")
    with ConnectionPool(args.url) as pool:
        pool.run(lambda conn: conn.register_schema(
            dtd=dtd_text, document=sample_text, root=args.root),
            retry=policy)
        stored = 0
        classifications: list[str] = []
        for index, path in enumerate(paths):
            try:
                text = path.read_text()
            except OSError as error:
                print(f"[{index}] {path.name}: FAILED ({error})")
                classifications.append("permanent")
                continue
            try:
                info = pool.run(
                    lambda conn: conn.store(text, root=args.root,
                                            doc_name=path.name),
                    retry=policy)
            except Exception as error:
                kind = classify(error)
                classifications.append(kind)
                print(f"[{index}] {path.name}: FAILED"
                      f" ({kind}) — {error}")
                if not args.continue_on_error:
                    break
                continue
            stored += 1
            print(f"[{index}] {path.name}: stored as"
                  f" DocID {info['doc_id']} on {args.url}")
        print(f"-- {stored}/{len(paths)} document(s) stored remotely")
    if not classifications:
        return 0
    return (EXIT_TRANSIENT
            if all(kind == "transient" for kind in classifications)
            else 1)


def cmd_ingest(args) -> int:
    if getattr(args, "url", None):
        return _ingest_remote(args)
    tool = _make_tool(args)
    report = _ingest_into(tool, args)
    _report_observability(tool, args)
    tool.db.close()  # durable mode: sync the WAL before exiting
    if report is None:
        return 1
    print(report.describe())
    if tool.db.wal is not None:
        print(f"-- durable: {tool.db.stats['wal_appends']} WAL"
              f" record(s) at {args.db_path}")
    if report.ok:
        return 0
    # distinct exit codes let shell wrappers retry what retrying can
    # fix: 75 (EX_TEMPFAIL) when every failure was transient
    quarantined = report.quarantined
    if quarantined and all(outcome.classification == "transient"
                           for outcome in quarantined):
        return EXIT_TRANSIENT
    return 1


def cmd_stats(args) -> int:
    """Ingest the documents with observability on, export metrics."""
    obs = Observability(enabled=True,
                        slow_query_threshold=_slow_threshold(args))
    tool = _make_tool(args, obs=obs)
    report = _ingest_into(tool, args)
    if report is None:
        return 1
    print(report.describe(), file=sys.stderr)
    if args.text:
        print(obs.render_text())
    else:
        payload = obs.export()
        payload["ingest"] = report.as_dict()
        payload["engine_stats"] = dict(tool.db.stats)
        text = json.dumps(payload, indent=2, default=str)
        if args.output and args.output != "-":
            Path(args.output).write_text(text + "\n")
            print(f"-- metrics written to {args.output}",
                  file=sys.stderr)
        else:
            print(text)
    _report_observability(tool, args)
    tool.db.close()
    return 0


def cmd_trace(args) -> int:
    """Ingest the documents with tracing on, print the span tree."""
    obs = Observability(enabled=True,
                        slow_query_threshold=_slow_threshold(args))
    tool = _make_tool(args, obs=obs)
    report = _ingest_into(tool, args)
    if report is None:
        return 1
    print(report.describe(), file=sys.stderr)
    print(obs.tracer.render())
    if obs.slow_log.enabled:
        print(obs.slow_log.render_text(), file=sys.stderr)
    tool.db.close()
    return 0 if report.ok else 1


def _open_durable(args) -> Database | ShardedDatabase | None:
    """Open ``args.db_path`` durably; prints the error on failure.
    A directory carrying a shard manifest reopens as the full
    sharded cluster (the manifest dictates the shard count)."""
    where = Path(args.db_path)
    sharded = (where / ShardedDatabase.MANIFEST).exists()
    if not (sharded or (where / "wal.log").exists()
            or (where / "checkpoint.bin").exists()):
        print(f"error: {args.db_path} holds no durable database"
              " (no wal.log, checkpoint.bin or shards.json)",
              file=sys.stderr)
        return None
    try:
        if sharded:
            return ShardedDatabase(mode=_mode(args.mode),
                                   path=args.db_path)
        return Database(_mode(args.mode), path=args.db_path)
    except OrdbError as error:
        print(f"error: cannot open {args.db_path}: {error}",
              file=sys.stderr)
        return None


def _describe_recovery(db: Database | ShardedDatabase) -> None:
    info = db.recovery_info
    source = ("checkpoint + log" if info["checkpoint_loaded"]
              else "log only")
    print(f"-- recovered from {source}:"
          f" {info['transactions_replayed']} transaction(s),"
          f" {info['statements_replayed']} statement(s) replayed,"
          f" {info['records_skipped']} stale record(s) skipped,"
          f" {info['torn_bytes_discarded']} torn byte(s) discarded"
          f" in {info['seconds'] * 1000.0:.1f} ms")
    for index, shard in enumerate(info.get("shards") or []):
        if shard is None:
            continue
        print(f"--   shard {index}:"
              f" {shard['transactions_replayed']} transaction(s),"
              f" {shard['statements_replayed']} statement(s),"
              f" {shard['torn_bytes_discarded']} torn byte(s)")


def cmd_db_checkpoint(args) -> int:
    db = _open_durable(args)
    if db is None:
        return 1
    _describe_recovery(db)
    info = db.checkpoint()
    if "shards" in info:
        for index, shard in enumerate(info["shards"]):
            print(f"-- shard {index}: checkpoint written to"
                  f" {shard['path']}: {shard['bytes']} byte(s),"
                  f" {shard['tables']} table(s), commit sequence"
                  f" {shard['commit_seq']}")
        print(f"-- {len(info['shards'])} shard(s) checkpointed,"
              f" {info['bytes']} byte(s) total; WALs truncated")
    else:
        print(f"-- checkpoint written to {info['path']}:"
              f" {info['bytes']} byte(s), {info['tables']} table(s),"
              f" commit sequence {info['commit_seq']}; WAL truncated")
    db.close()
    return 0


def cmd_db_recover(args) -> int:
    db = _open_durable(args)
    if db is None:
        return 1
    _describe_recovery(db)
    print(f"-- {len(db.catalog.tables)} table(s),"
          f" {len(db.catalog.types)} type(s),"
          f" {len(db.catalog.views)} view(s)")
    status = 0
    if args.verify:
        problems = (db.verify() if isinstance(db, ShardedDatabase)
                    else verify_integrity(db))
        if problems:
            for problem in problems:
                print(f"integrity: {problem}", file=sys.stderr)
            status = 1
        else:
            scope = (f"all {db.n_shards} shard(s)"
                     if isinstance(db, ShardedDatabase)
                     else "the database")
            print(f"-- integrity verified across {scope}: indexes"
                  " consistent, all REFs resolve")
    db.close()
    return status


def cmd_db_rebalance(args) -> int:
    db = _open_durable(args)
    if db is None:
        return 1
    if not isinstance(db, ShardedDatabase):
        print(f"error: {args.db_path} is a single-engine store;"
              " rebalance needs a sharded one (ingest with"
              " --shards N first)", file=sys.stderr)
        db.close()
        return 1
    before = db.n_shards
    info = db.rebalance(args.shards)
    print(f"-- rebalanced {before} -> {info['n_shards']} shard(s)"
          f" (generation {info['generation']}):"
          f" {info['entries_replayed']} journal record(s) replayed")
    problems = db.verify()
    for problem in problems:
        print(f"integrity: {problem}", file=sys.stderr)
    db.close()
    return 1 if problems else 0


def cmd_serve(args) -> int:
    """Run the fault-tolerant network front end until SIGTERM."""
    from repro.server import DatabaseServer, ServerConfig

    db = _make_db(args)
    tool = XML2Oracle(db=db, mode=_mode(args.mode),
                      obs=_observability(args))
    config = ServerConfig(
        host=args.host, port=args.port,
        max_connections=args.max_connections,
        max_active=args.max_active, max_queue=args.max_queue,
        queue_timeout=args.queue_timeout,
        statement_timeout=args.statement_timeout,
        idle_timeout=args.idle_timeout,
        read_timeout=args.read_timeout,
        drain_timeout=args.drain_timeout,
        allow_remote_shutdown=args.allow_remote_shutdown)
    server = DatabaseServer(tool, config=config)
    server.start()
    host, port = server.address
    where = (f"durable at {args.db_path}" if args.db_path
             else "in-memory")
    if isinstance(db, ShardedDatabase):
        where += f", {db.n_shards} shard(s)"
    print(f"-- serving ordb://{host}:{port} ({where});"
          f" SIGTERM drains gracefully", file=sys.stderr)

    def drain(signum, frame):
        # off-thread: shutdown joins worker threads and must not run
        # inside the signal frame of the blocked main thread
        threading.Thread(target=server.shutdown, daemon=True).start()

    signal.signal(signal.SIGTERM, drain)
    signal.signal(signal.SIGINT, drain)
    server.serve_forever()
    tool.db.close()
    snapshot = server.snapshot()
    print(f"-- drained: {snapshot['server']['requests']} request(s)"
          f" served, {snapshot['shed']} shed,"
          f" {snapshot['server']['statement_timeouts']} statement"
          f" timeout(s)", file=sys.stderr)
    return 0


def cmd_demo(args) -> int:
    from repro.workloads import SAMPLE_DOCUMENT

    document = parse_xml(SAMPLE_DOCUMENT)
    tool = XML2Oracle(mode=_mode(args.mode))
    schema = tool.register_schema(document.doctype.dtd)
    print("-- generated schema " + "-" * 40)
    print(schema.script.text)
    stored = tool.store(document, doc_name="appendix_a.xml")
    print(f"-- stored with {stored.load_result.insert_count}"
          f" INSERT statement(s)")
    result = tool.query(
        "/University/Student",
        predicate=("Course/Professor/PName", "=", "Jaeger"),
        select="LName")
    print("-- students of Professor Jaeger:",
          [row[0] for row in result.rows])
    print("-- reconstructed " + "-" * 43)
    print(tool.fetch_text(stored.doc_id, indent="  "))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="XML2Oracle reproduction: map XML documents to an"
                    " embedded object-relational database.")
    subparsers = parser.add_subparsers(dest="command", required=True)

    def common(subparser, with_document: bool = True) -> None:
        subparser.add_argument(
            "--mode", choices=["oracle9", "oracle8"],
            default="oracle9",
            help="engine compatibility mode (Section 2.2)")
        subparser.add_argument(
            "--trace", action="store_true",
            help="print the span tree of the run to stderr")
        subparser.add_argument(
            "--slow-ms", type=float, metavar="MS",
            help="log statements slower than MS milliseconds")
        if with_document:
            subparser.add_argument("document",
                                   help="XML document file")
            subparser.add_argument(
                "--dtd", help="external DTD file (defaults to the"
                              " document's internal subset)")
            subparser.add_argument(
                "--root", help="root element (defaults to inference)")
            subparser.add_argument(
                "--clob", action="store_true",
                help="use CLOB for text leaves (Section 7)")
            subparser.add_argument(
                "--hint", action="append", metavar="NAME=SQLTYPE",
                help="type a leaf element/attribute, e.g."
                     " CreditPts=NUMBER (Section 7 extension;"
                     " repeatable)")

    schema_parser = subparsers.add_parser(
        "schema", help="generate the DDL script for a document's DTD")
    common(schema_parser)
    schema_parser.set_defaults(handler=cmd_schema)

    load_parser = subparsers.add_parser(
        "load", help="generate DDL + the INSERT script for a document")
    common(load_parser)
    load_parser.set_defaults(handler=cmd_load)

    query_parser = subparsers.add_parser(
        "query", help="store a document and run a path query")
    common(query_parser)
    query_parser.add_argument("path",
                              help="element path, e.g. /Uni/Student")
    query_parser.add_argument(
        "--predicate", help="relative filter, e.g."
                            " Course/Professor/PName=Jaeger")
    query_parser.add_argument(
        "--select", help="relative projection path, e.g. LName")
    query_parser.add_argument(
        "--explain", action="store_true",
        help="print the evaluation plan instead of running the query")
    query_parser.add_argument(
        "--url", metavar="ordb://HOST:PORT",
        help="store and query on a running 'repro serve' server"
             " instead of an embedded engine")
    query_parser.set_defaults(handler=cmd_query)

    roundtrip_parser = subparsers.add_parser(
        "roundtrip", help="store, fetch and report fidelity")
    common(roundtrip_parser)
    roundtrip_parser.add_argument(
        "--emit", action="store_true",
        help="also print the reconstructed document")
    roundtrip_parser.set_defaults(handler=cmd_roundtrip)

    def ingest_common(subparser) -> None:
        common(subparser, with_document=False)
        subparser.add_argument("documents", nargs="+",
                               help="XML document files")
        subparser.add_argument(
            "--dtd", help="external DTD file (defaults to the first"
                          " document's internal subset)")
        subparser.add_argument(
            "--root", help="root element (defaults to inference)")
        subparser.add_argument(
            "--continue-on-error", action="store_true",
            help="quarantine failing documents and keep going instead"
                 " of rolling back the whole batch")
        subparser.add_argument(
            "--retries", type=int, default=2, metavar="N",
            help="extra attempts for transient faults (default 2)")
        subparser.add_argument(
            "--workers", type=int, default=None, metavar="N",
            help="load with N parallel sessions (per-document"
                 " transactions; lock conflicts retry like any"
                 " transient fault; default: serial, one transaction)")
        subparser.add_argument(
            "--fault", metavar="SITE:INDEX",
            help="inject a fault at the INDEX-th boundary of SITE"
                 " (parse, statement, lock, storage, commit or wal;"
                 " testing aid)")
        subparser.add_argument(
            "--db-path", metavar="DIR",
            help="load into a durable database at DIR (write-ahead"
                 " logged; recovers any existing state first)")
        subparser.add_argument(
            "--fsync", choices=list(FSYNC_POLICIES),
            default="commit",
            help="WAL fsync policy for --db-path (default: commit)")
        subparser.add_argument(
            "--shards", type=int, metavar="N",
            help="hash-partition documents across N embedded engines"
                 " (each with its own WAL); an existing sharded"
                 " --db-path reopens with its manifest's count")
        subparser.add_argument(
            "--url", metavar="ordb://HOST:PORT",
            help="ingest into a running 'repro serve' server instead"
                 " of an embedded engine (per-document transactions;"
                 " transient failures retry with jittered backoff)")

    ingest_parser = subparsers.add_parser(
        "ingest",
        help="bulk-load documents in one transaction with"
             " per-document savepoints, retries and quarantine")
    ingest_common(ingest_parser)
    ingest_parser.set_defaults(handler=cmd_ingest)

    stats_parser = subparsers.add_parser(
        "stats",
        help="ingest documents with observability on and export the"
             " collected metrics (JSON by default)")
    ingest_common(stats_parser)
    stats_parser.add_argument(
        "--text", action="store_true",
        help="plain-text metrics instead of JSON")
    stats_parser.add_argument(
        "--output", "-o", metavar="FILE",
        help="write the JSON to FILE instead of stdout ('-' ="
             " stdout)")
    stats_parser.set_defaults(handler=cmd_stats)

    trace_parser = subparsers.add_parser(
        "trace",
        help="ingest documents with tracing on and print the span"
             " tree with per-phase latencies")
    ingest_common(trace_parser)
    trace_parser.set_defaults(handler=cmd_trace)

    db_parser = subparsers.add_parser(
        "db", help="manage a durable database directory")
    db_subparsers = db_parser.add_subparsers(dest="db_command",
                                             required=True)

    def db_common(subparser) -> None:
        subparser.add_argument(
            "--db-path", metavar="DIR", required=True,
            help="durable database directory (wal.log +"
                 " checkpoint.bin)")
        subparser.add_argument(
            "--mode", choices=["oracle9", "oracle8"],
            default="oracle9",
            help="engine compatibility mode (Section 2.2)")

    checkpoint_parser = db_subparsers.add_parser(
        "checkpoint",
        help="recover the database, snapshot it durably and truncate"
             " the write-ahead log")
    db_common(checkpoint_parser)
    checkpoint_parser.set_defaults(handler=cmd_db_checkpoint)

    recover_parser = db_subparsers.add_parser(
        "recover",
        help="recover the database from checkpoint + WAL and report"
             " what was replayed")
    db_common(recover_parser)
    recover_parser.add_argument(
        "--verify", action="store_true",
        help="also check index consistency and REF integrity; exit 1"
             " on any problem")
    recover_parser.set_defaults(handler=cmd_db_recover)

    rebalance_parser = db_subparsers.add_parser(
        "rebalance",
        help="change a sharded store's shard count by replaying the"
             " router journal onto a fresh generation of engines")
    db_common(rebalance_parser)
    rebalance_parser.add_argument(
        "--shards", type=int, required=True, metavar="N",
        help="new shard count")
    rebalance_parser.set_defaults(handler=cmd_db_rebalance)

    serve_parser = subparsers.add_parser(
        "serve",
        help="run the engine as a fault-tolerant TCP server"
             " (admission control, statement timeouts, graceful"
             " drain on SIGTERM)")
    common(serve_parser, with_document=False)
    serve_parser.add_argument("--host", default="127.0.0.1")
    serve_parser.add_argument(
        "--port", type=int, default=1521,
        help="TCP port (default 1521; 0 picks a free one)")
    serve_parser.add_argument(
        "--db-path", metavar="DIR",
        help="serve a durable database at DIR (write-ahead logged;"
             " recovers existing state first)")
    serve_parser.add_argument(
        "--fsync", choices=list(FSYNC_POLICIES), default="commit",
        help="WAL fsync policy for --db-path (default: commit)")
    serve_parser.add_argument(
        "--shards", type=int, metavar="N",
        help="serve a hash-sharded database of N embedded engines"
             " (see the ingest --shards option)")
    serve_parser.add_argument(
        "--max-connections", type=int, default=64, metavar="N",
        help="concurrent client connections (default 64)")
    serve_parser.add_argument(
        "--max-active", type=int, default=8, metavar="N",
        help="executor slots: statements running at once (default 8)")
    serve_parser.add_argument(
        "--max-queue", type=int, default=16, metavar="N",
        help="bounded admission queue; overflow is shed with"
             " transient ORA-00020 (default 16)")
    serve_parser.add_argument(
        "--queue-timeout", type=float, default=1.0, metavar="SECS",
        help="longest a request waits for a slot before being shed"
             " (default 1.0)")
    serve_parser.add_argument(
        "--statement-timeout", type=float, default=5.0,
        metavar="SECS",
        help="server-side budget per statement; overruns abort with"
             " ORA-01013 and roll the session back (default 5.0)")
    serve_parser.add_argument(
        "--idle-timeout", type=float, default=30.0, metavar="SECS",
        help="drop connections silent this long (default 30)")
    serve_parser.add_argument(
        "--read-timeout", type=float, default=5.0, metavar="SECS",
        help="drop connections stalling mid-frame this long"
             " (default 5)")
    serve_parser.add_argument(
        "--drain-timeout", type=float, default=5.0, metavar="SECS",
        help="grace period for in-flight statements on SIGTERM"
             " (default 5)")
    serve_parser.add_argument(
        "--allow-remote-shutdown", action="store_true",
        help="let clients drain the server with the 'shutdown'"
             " operation (tests and benchmarks)")
    serve_parser.set_defaults(handler=cmd_serve)

    demo_parser = subparsers.add_parser(
        "demo", help="run the Appendix A walkthrough")
    common(demo_parser, with_document=False)
    demo_parser.set_defaults(handler=cmd_demo)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except BrokenPipeError:  # e.g. `repro schema doc.xml | head`
        sys.stderr.close()
        return 0
    except OrdbError as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_TRANSIENT if is_transient(error) else 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
