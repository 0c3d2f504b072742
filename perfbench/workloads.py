"""The three closed-loop workloads, each with its correctness checks.

A workload object has three steps the runner calls in order:

* ``setup()`` builds the program state; only calls into the program
  are timed (input generation and oracle answers are not);
* ``loop(state, seconds, tracer)`` runs operations until *seconds* of
  measuring have passed and returns a :class:`Loop`;
* ``finish(state, loop, tracer)`` runs the checks that need a quiet
  program, adds workload-specific metrics, and releases the state.

Every operation is timed on its own and wrapped in a ``tracer`` span
(a :class:`~spans.NullTracer` when the run is not traced), so the
traced run can attribute its time to layers.
"""

from __future__ import annotations

import gc
import math
import random
import resource
import shutil
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from repro.client import connect
from repro.core import XML2Oracle
from repro.core.roundtrip import compare
from repro.ordb import Database, verify_integrity
from repro.server import DatabaseServer
from repro.workloads.university import UNIVERSITY_DTD
from repro.xmlkit import parse as parse_xml

from inputs import (
    PROFESSORS,
    ROOT_ID,
    ROOT_TABLE,
    SCAN_QUERIES,
    Deck,
    Documents,
    oracle_document,
    point_answer,
    point_query,
    scan_answer,
    scan_query,
)
from spans import CLIENT_THREAD_PREFIX, OP, RECOVERY

#: server_durable's flush policy: every commit is fsynced before it is
#: acknowledged
FSYNC_POLICY = "always"


@dataclass
class Loop:
    """What one measured loop did."""

    #: (finish time, operation kind, latency in seconds) per operation
    samples: list[tuple[float, str, float]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    seconds: float = 0.0
    problems: list[str] = field(default_factory=list)
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    #: engine counters (``Database.stats``) summed over the loop
    stats: Counter = field(default_factory=Counter)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 10:
            self.problems.append(message)

    def latencies(self, kind: str | None = None) -> list[float]:
        """Latencies of one operation kind (or all), in finish order."""
        return [seconds for _, name, seconds in sorted(self.samples)
                if kind is None or name == kind]

    def merge(self, other: "Loop") -> None:
        self.samples.extend(other.samples)
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems.extend(other.problems[:10 - len(self.problems)])


def _timed(loop: Loop, kind: str, tracer, call):
    """Run one operation; record its latency, or its failure."""
    loop.attempted += 1
    started = time.perf_counter()
    try:
        with tracer.span(OP):
            result = call()
    except Exception as error:  # noqa: BLE001 - counted as failed
        loop.fail(f"{kind}: {type(error).__name__}: {error}")
        return None
    finished = time.perf_counter()
    loop.samples.append((finished, kind, finished - started))
    return result


# -- ingest -----------------------------------------------------------------------------


class Ingest:
    """Store seeded documents (2-20 students) one at a time into an
    in-memory facade: XML parse, validation, shredding, SQL parse and
    the engine's insert path, with no WAL, wire or planner work.

    Documents go into batches of ``BATCH`` on a fresh facade each, so
    the heap (and with it the collector's pauses) stays the same size
    however many documents a run gets through.  Checks, clean-up and
    the next facade's set-up run between batches, outside the
    measured time.
    """

    #: a set-up takes milliseconds here, so take the median of many
    setups = 21
    #: ten blocks of the document stream's 24 shapes
    BATCH = 240
    #: every SAMPLE_EVERY-th stored document is fetched back and compared
    SAMPLE_EVERY = 40

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self):
        tool = XML2Oracle()
        tool.register_schema(UNIVERSITY_DTD)
        return tool

    def loop(self, tool: XML2Oracle, seconds: float, tracer) -> Loop:
        loop = Loop()
        documents = Documents(random.Random(self.seed), 2, 20)
        while True:
            samples: dict[int, str] = {}
            stored = 0
            tool.db.reset_stats()
            started = time.perf_counter()
            deadline = started + seconds - loop.seconds
            while stored < self.BATCH and time.perf_counter() < deadline:
                text = documents.next()
                handle = _timed(loop, "store", tracer,
                                lambda: tool.store(text))
                if handle is None:
                    continue
                stored += 1
                if stored % self.SAMPLE_EVERY == 1:
                    samples[handle.doc_id] = text
            loop.seconds += time.perf_counter() - started
            loop.stats.update(tool.db.stats)
            with tracer.paused():
                self._check(tool, loop, stored, samples)
                if loop.seconds >= seconds:
                    return loop
                tool = None
                gc.collect()
                tool = self.setup()

    @staticmethod
    def _check(tool: XML2Oracle, loop: Loop, stored: int,
               samples: dict[int, str]) -> None:
        count = tool.sql(f"SELECT COUNT(*) FROM {ROOT_TABLE}").scalar()
        if count != stored:
            loop.fail(f"ingest: {count} rows stored for {stored}"
                      f" documents")
        for doc_id, text in samples.items():
            score = compare(parse_xml(text), tool.fetch(doc_id)).score
            if score != 1.0:
                loop.fail(f"ingest: document {doc_id} fetched back"
                          f" with score {score}")

    def finish(self, tool: XML2Oracle, loop: Loop, tracer) -> None:
        pass


# -- query ------------------------------------------------------------------------------


class Query:
    """Read-only mix over about 200 preloaded documents: 60% point
    path queries (PK lookup plus collection unnesting), 10%
    cross-document path queries (full scans) and 30% fetches.

    Operation kinds, documents, professors and scans are dealt from
    seeded decks, so every run carries the same mix."""

    setups = 3
    DOCUMENTS = 200
    #: one pass of the operation deck
    MIX = ("query",) * 6 + ("scan",) + ("fetch",) * 3

    def __init__(self, seed: int):
        self.seed = seed
        documents = Documents(random.Random(seed), 2, 20)
        self.texts = [documents.next() for _ in range(self.DOCUMENTS)]

    def setup(self):
        tool = XML2Oracle()
        tool.register_schema(UNIVERSITY_DTD)
        self.ids = [tool.store(text).doc_id for text in self.texts]
        return tool

    def loop(self, tool: XML2Oracle, seconds: float, tracer) -> Loop:
        ids = self.ids
        oracle = {doc_id: oracle_document(text)
                  for doc_id, text in zip(ids, self.texts)}
        documents = list(oracle.values())
        scans = {query: scan_answer(documents, *query)
                 for query in SCAN_QUERIES}
        points = {(doc_id, professor): point_answer(students, professor)
                  for doc_id, students in oracle.items()
                  for professor in PROFESSORS}
        loop = Loop()
        rng = random.Random(self.seed + 1)
        kinds, docs = Deck(rng, self.MIX), Deck(rng, ids)
        professors = Deck(rng, PROFESSORS)
        scan_deck = Deck(rng, SCAN_QUERIES)
        tool.db.reset_stats()
        deadline = time.perf_counter() + seconds
        started = time.perf_counter()
        while time.perf_counter() < deadline:
            kind = kinds.next()
            doc_id = docs.next()
            if kind == "query":
                professor = professors.next()
                arguments = point_query(doc_id, professor)
                expected = points[doc_id, professor]
            elif kind == "scan":
                scan = scan_deck.next()
                arguments = scan_query(*scan)
                expected = scans[scan]
            else:
                document = _timed(loop, "fetch", tracer,
                                  lambda: tool.fetch(doc_id))
                if document is not None:
                    students = document.root_element.find_all("Student")
                    if len(students) != len(oracle[doc_id]):
                        loop.fail(f"fetch: document {doc_id} came back"
                                  f" with {len(students)} students")
                continue
            result = _timed(loop, kind, tracer,
                            lambda: tool.query(**arguments))
            if result is not None and Counter(result.rows) != expected:
                loop.fail(f"{kind}: {arguments} returned"
                          f" {len(result.rows)} rows, oracle"
                          f" {sum(expected.values())}")
        loop.seconds = time.perf_counter() - started
        loop.stats.update(tool.db.stats)
        return loop

    def finish(self, tool: XML2Oracle, loop: Loop, tracer) -> None:
        pass


# -- server_durable ------------------------------------------------------------------


class _Server:
    """One durable engine behind a started server, plus its clients."""

    def __init__(self, directory: Path):
        self.directory = directory
        self.db = Database(path=directory, fsync=FSYNC_POLICY)
        self.server = DatabaseServer(db=self.db)
        self.server.start()
        self.clients = []

    def close(self) -> None:
        for client in self.clients:
            client.close()
        self.server.shutdown()
        self.db.close()
        shutil.rmtree(self.directory, ignore_errors=True)


class ServerDurable:
    """Two client connections against an in-process server over a
    durable engine (``fsync="always"``): 50% small-document stores,
    40% point path queries and 10% autocommit UPDATEs.  After
    ``CRASH_AFTER_WRITES`` acknowledged writes the clients pause and
    the database directory is copied; reopening that copy measures
    crash recovery and checks durability.  Each client deals its
    operation kinds, documents and professors from seeded decks."""

    setups = 5
    CLIENTS = 2
    DOCUMENTS = 100
    #: preloaded documents the point queries and updates address
    HOT_DOCUMENTS = 20
    UPDATE_VALUES = 5
    CRASH_AFTER_WRITES = 500
    #: one pass of a client's operation deck
    MIX = ("store",) * 5 + ("query",) * 4 + ("update",)

    def __init__(self, seed: int, scratch: Path):
        self.seed = seed
        self.scratch = scratch
        documents = Documents(random.Random(seed), 2, 10)
        self.texts = [documents.next() for _ in range(self.DOCUMENTS)]
        self._dirs = 0

    def _directory(self, kind: str) -> Path:
        self._dirs += 1
        return self.scratch / f"{kind}-{self._dirs}"

    def setup(self):
        state = _Server(self._directory("db"))
        tool = state.server.tool
        tool.register_schema(UNIVERSITY_DTD)
        state.ids = [tool.store(text).doc_id for text in self.texts]
        state.db.checkpoint()
        state.clients = [connect(state.server.url)
                         for _ in range(self.CLIENTS)]
        return state

    def loop(self, state: _Server, seconds: float, tracer) -> Loop:
        hot = state.ids[:self.HOT_DOCUMENTS]
        oracle = {doc_id: oracle_document(self.texts[index])
                  for index, doc_id in enumerate(hot)}
        self.courses = {doc_id: "Computer Science" for doc_id in state.ids}
        self.stored: dict[int, str] = {}
        self.writes = 0
        lock = threading.Lock()
        rngs = [random.Random(self.seed * 1000 + k)
                for k in range(self.CLIENTS)]

        def client(k: int, loop: Loop, stop) -> None:
            try:
                operate(k, loop, stop)
            except Exception as error:  # noqa: BLE001 - reported
                loop.fail(f"client {k}: {type(error).__name__}: {error}")

        def operate(k: int, loop: Loop, stop) -> None:
            conn, rng = state.clients[k], rngs[k]
            documents = Documents(rng, 1, 3)
            kinds, docs = Deck(rng, self.MIX), Deck(rng, hot)
            mine = Deck(rng, hot[k::self.CLIENTS])
            professors = Deck(rng, PROFESSORS)
            while not stop():
                kind = kinds.next()
                if kind == "store":
                    text = documents.next()
                    reply = _timed(loop, "store", tracer,
                                   lambda: conn.store(text))
                    if reply is None:
                        continue
                    with lock:
                        self.stored[reply["doc_id"]] = text
                        self.writes += 1
                elif kind == "query":
                    doc_id = docs.next()
                    professor = professors.next()
                    arguments = point_query(doc_id, professor)
                    result = _timed(loop, "query", tracer,
                                    lambda: conn.query(**arguments))
                    if result is not None and Counter(result.rows) \
                            != point_answer(oracle[doc_id], professor):
                        loop.fail(f"query: {arguments} returned"
                                  f" {len(result.rows)} rows")
                else:
                    doc_id = mine.next()
                    value = f"Course {rng.randrange(self.UPDATE_VALUES)}"
                    sql = (f"UPDATE {ROOT_TABLE} u"
                           f" SET u.attrStudyCourse = '{value}'"
                           f" WHERE u.{ROOT_ID} = 'D{doc_id}'")
                    result = _timed(loop, "update", tracer,
                                    lambda: conn.execute(sql))
                    if result is None:
                        continue
                    if result.rowcount != 1:
                        loop.fail(f"update: {result.rowcount} rows")
                    with lock:
                        # each client updates its own documents, so
                        # its acknowledgement order is the final order
                        self.courses[doc_id] = value
                        self.writes += 1

        def phase(stop) -> Loop:
            loops = [Loop() for _ in range(self.CLIENTS)]
            threads = [threading.Thread(target=client,
                                        name=f"{CLIENT_THREAD_PREFIX}{k}",
                                        args=(k, loops[k], stop),
                                        daemon=True)
                       for k in range(self.CLIENTS)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            merged = Loop()
            for part in loops:
                merged.merge(part)
            return merged

        state.db.reset_stats()
        started = time.perf_counter()
        deadline = started + seconds
        loop = phase(lambda: time.perf_counter() >= deadline
                     or self.writes >= self.CRASH_AFTER_WRITES)
        first = time.perf_counter() - started
        # the clients are quiet: every write is acknowledged and none
        # is in flight, so the copy must recover exactly these writes
        self.crash_copy = self._directory("crash")
        shutil.copytree(state.directory, self.crash_copy)
        self.crash_expected = self._expected(state.ids)
        # memory at a fixed amount of work, not at the end of a run
        # whose length in documents depends on throughput
        loop.metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
        resumed = time.perf_counter()
        deadline = resumed + max(0.0, seconds - first)
        loop.merge(phase(lambda: time.perf_counter() >= deadline))
        loop.seconds = first + time.perf_counter() - resumed
        loop.stats.update(state.db.stats)
        loop.stats["admission_shed"] = state.server.admission.shed
        return loop

    def _expected(self, preloaded: list[int]) -> dict:
        """Document key -> (StudyCourse, XML text) of every
        acknowledged document, with its last acknowledged update."""
        expected = {}
        for index, doc_id in enumerate(preloaded):
            expected[f"D{doc_id}"] = (self.courses[doc_id],
                                      self.texts[index])
        for doc_id, text in self.stored.items():
            expected[f"D{doc_id}"] = ("Computer Science", text)
        return expected

    def _recover(self, loop: Loop, tracer) -> None:
        """Reopen the crash copy: time recovery, check durability."""
        expected = self.crash_expected
        courses = {key: course for key, (course, _) in expected.items()}
        students = Counter(
            (key, student.number) for key, (_, text) in expected.items()
            for student in oracle_document(text))
        # a fresh copy: opening may repair the log in place
        directory = self._directory("recover")
        shutil.copytree(self.crash_copy, directory)
        started = time.perf_counter()
        with tracer.recording(), tracer.span(RECOVERY):
            db = Database(path=directory, fsync=FSYNC_POLICY)
        seconds = time.perf_counter() - started
        try:
            self._check_recovered(db, loop, courses, students)
        finally:
            db.close()
            shutil.rmtree(directory, ignore_errors=True)
        size = sum(p.stat().st_size for p in self.crash_copy.rglob("*")
                   if p.is_file())
        xml = sum(len(text.encode()) for _, text in expected.values())
        loop.metrics["recovery_s"] = (seconds, "s")
        loop.metrics["disk_bytes_per_input_byte"] = (size / xml, "ratio")

    @staticmethod
    def _check_recovered(db: Database, loop: Loop, courses: dict,
                         students: Counter) -> None:
        problems = verify_integrity(db)
        if problems:
            loop.fail(f"recovery: verify_integrity: {problems[:3]}")
        got = dict(db.execute(
            f"SELECT t.{ROOT_ID}, t.attrStudyCourse"
            f" FROM {ROOT_TABLE} t").rows)
        if got != courses:
            missing = len(courses.keys() - got.keys())
            extra = len(got.keys() - courses.keys())
            changed = sum(1 for key in courses.keys() & got.keys()
                          if courses[key] != got[key])
            loop.fail(f"recovery: {missing} documents lost, {extra}"
                      f" unacknowledged, {changed} updates wrong")
        rows = Counter(db.execute(
            f"SELECT t1.{ROOT_ID}, t2.attrStudNr FROM {ROOT_TABLE} t1,"
            f" TABLE(t1.attrStudent) t2").rows)
        if rows != students:
            loop.fail("recovery: recovered students differ from the"
                      " acknowledged documents")
        meta = db.execute("SELECT COUNT(*) FROM TabMetadata").scalar()
        if meta != len(courses):
            loop.fail(f"recovery: {meta} meta-data rows for"
                      f" {len(courses)} documents")

    def finish(self, state: _Server, loop: Loop, tracer) -> None:
        shed = state.server.admission.shed
        if shed:
            loop.fail(f"server: {shed} requests shed")
        state.close()
        try:
            self._recover(loop, tracer)
        finally:
            shutil.rmtree(self.crash_copy, ignore_errors=True)


def release(state) -> None:
    """Drop a discarded set-up before the next one is built."""
    if isinstance(state, _Server):
        state.close()
    del state
    gc.collect()


def percentile(values: list[float], share: float) -> float:
    """Nearest-rank percentile of *values*."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(share * len(ordered))) - 1]


def tail_mean(values: list[float], share: float) -> float:
    """Mean of the slowest *share* of *values*: the expected latency
    beyond the (1 - share) percentile.  Unlike that percentile, it does
    not jump when the tail's mix of slow operation kinds shifts a
    little, which makes it the steadier tail figure."""
    count = max(1, math.ceil(share * len(values)))
    return sum(sorted(values)[-count:]) / count


def median(values: list[float]) -> float:
    ordered = sorted(values)
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2


def peak_rss_mb() -> float:
    """The process's resident-set high-water mark so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
