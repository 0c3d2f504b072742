"""Write-ahead logging: the durability half of ``Database(path=...)``.

The engine journals *undo* closures for rollback; those cannot be
serialized, so durability is achieved with **statement-level redo
logging** instead: one WAL record per committed transaction, holding
the ordered list of state-changing statements the transaction ran
(the SQL text, or the frozen AST when it was executed pre-parsed).
Replaying the records in commit order against an empty engine — or
against the latest checkpoint (see :mod:`repro.ordb.checkpoint`) —
rebuilds exactly the committed state.  The generated loader SQL keys
REFs on synthetic document-scoped id columns, never on raw OIDs, so
re-execution rebinds references correctly.

On-disk format — an 8-byte file magic, then length-prefixed,
CRC-checksummed frames::

    RWAL0001 | len u32 | crc32(len || payload) u32 | payload | ...

Recovery reads the longest valid prefix and truncates the rest: a
torn final record (partial frame) or a checksum mismatch ends the
prefix, which is what makes a crash during an append atomic — the
half-written transaction simply never happened.

Three fsync policies trade durability against commit throughput:

* ``always`` — flush + ``os.fsync`` after every append (survives OS
  crash and power loss up to the last commit);
* ``commit`` — flush to the OS after every append, fsync only at
  checkpoint/close (survives process crash; an OS crash may lose the
  unsynced tail, but never tears a record boundary on replay);
* ``off``   — library-buffered only (fastest; a crash may lose every
  record since the last flush).

The ``wal`` fault site models media failures: an armed fault whose
error carries :attr:`~repro.ordb.errors.WalFault.wal_effect` damages
the log the corresponding way (``torn`` writes half the frame,
``corrupt`` flips a payload byte, ``fsync`` fails after the frame is
fully written) before the error surfaces.  A failed append marks the
tail for repair: the next append (or a clean ``sync``/``close``)
first truncates the file back to the last good frame, so an engine
that *survives* the fault — a batch running its compensation
deletes, say — keeps writing a log that recovery will replay in
full.  Only a crash right after the fault leaves the damage on disk
for :meth:`WriteAheadLog.open` to cut away.

>>> import tempfile
>>> with tempfile.TemporaryDirectory() as where:
...     log = WriteAheadLog(where + "/wal.log")
...     _ = log.open()
...     _ = log.append(b"INSERT ...")
...     log.close()
...     reopened = WriteAheadLog(where + "/wal.log")
...     reopened.open()
[b'INSERT ...']
"""

from __future__ import annotations

import io
import os
import pickle
import struct
import threading
import zlib
from pathlib import Path
from typing import Callable

from .faults import FaultInjector

#: File magic; the trailing digits version the frame format.
MAGIC = b"RWAL0001"

#: Per-record frame header: payload length, crc32(length || payload).
_LENGTH = struct.Struct("<I")
FRAME_OVERHEAD = 8

#: The supported fsync policies, strongest first.
FSYNC_POLICIES = ("always", "commit", "off")


def _frame_crc(length_bytes: bytes, payload: bytes) -> int:
    # the checksum covers the length prefix too, so a damaged frame
    # header cannot silently re-frame the payload
    return zlib.crc32(payload, zlib.crc32(length_bytes))


def encode_record(payload: bytes) -> bytes:
    """One framed record: ``len | crc | payload``."""
    length_bytes = _LENGTH.pack(len(payload))
    crc = _frame_crc(length_bytes, payload)
    return length_bytes + _LENGTH.pack(crc) + payload


def decode_records(data: bytes) -> tuple[list[bytes], int]:
    """Every intact payload of *data*, plus where the valid prefix ends.

    Stops at the first partial or checksum-failing frame; the returned
    offset is the byte position a recovery rewrite truncates to.  A
    missing or damaged file magic yields ``([], 0)`` — the whole file
    is discarded and rewritten fresh.
    """
    if len(data) < len(MAGIC) or data[:len(MAGIC)] != MAGIC:
        return [], 0
    records: list[bytes] = []
    offset = len(MAGIC)
    while offset + FRAME_OVERHEAD <= len(data):
        length_bytes = data[offset:offset + 4]
        (length,) = _LENGTH.unpack(length_bytes)
        (crc,) = _LENGTH.unpack(data[offset + 4:offset + 8])
        end = offset + FRAME_OVERHEAD + length
        if end > len(data):
            break  # torn tail: the final frame never finished
        payload = data[offset + FRAME_OVERHEAD:end]
        if _frame_crc(length_bytes, payload) != crc:
            break  # corruption: nothing past this point is trusted
        records.append(payload)
        offset = end
    return records, offset


# -- transaction payloads -----------------------------------------------------------


def encode_transaction(seq: int, statements: list) -> bytes:
    """Serialize one committed transaction (sequence + statements).

    Statements are SQL text or frozen AST nodes; both pickle, and
    both re-execute through :meth:`Database.execute` on replay.  The
    sequence number makes replay idempotent across a crash between
    checkpoint and log truncation.
    """
    return pickle.dumps((seq, list(statements)),
                        protocol=pickle.HIGHEST_PROTOCOL)


def decode_transaction(payload: bytes) -> tuple[int, list]:
    seq, statements = pickle.loads(payload)
    return seq, statements


# -- the log ------------------------------------------------------------------------


class WriteAheadLog:
    """One append-only redo log file with crash-atomic recovery.

    Appends serialize on :attr:`lock` (sessions commit concurrently);
    the engine also takes it around checkpointing so a commit can
    never slip between the snapshot and the truncation that would
    drop its record.
    """

    def __init__(self, path: str | os.PathLike, *,
                 policy: str = "commit",
                 faults: FaultInjector | None = None):
        if policy not in FSYNC_POLICIES:
            raise ValueError(f"unknown fsync policy {policy!r};"
                             f" expected one of {FSYNC_POLICIES}")
        self.path = Path(path)
        self.policy = policy
        self.faults = faults
        #: serializes appends and orders them against checkpoints
        self.lock = threading.RLock()
        self.appended = 0
        self.bytes_written = 0
        #: bytes of torn/corrupt tail discarded by the last :meth:`open`
        self.truncated_bytes = 0
        self._file: io.BufferedWriter | None = None
        # offset of the last good frame after a failed append; the
        # damaged tail beyond it is cut before the next write
        self._repair_to: int | None = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "open" if self._file is not None else "closed"
        return (f"<WriteAheadLog {self.path.name} ({state},"
                f" policy={self.policy})>")

    # -- lifecycle ----------------------------------------------------------------

    def open(self) -> list[bytes]:
        """Open for appending, recovering first: validate the file,
        drop any torn/corrupt tail, and return the payload of every
        intact record in append order."""
        with self.lock:
            data = (self.path.read_bytes() if self.path.exists()
                    else b"")
            records, valid_end = decode_records(data)
            keep = data[:valid_end] if valid_end >= len(MAGIC) else MAGIC
            self.truncated_bytes = max(0, len(data) - valid_end)
            if keep != data:
                # rewrite the valid prefix durably before appending
                with open(self.path, "wb") as handle:
                    handle.write(keep)
                    handle.flush()
                    os.fsync(handle.fileno())
            self._file = open(self.path, "ab")
            return records

    def close(self) -> None:
        """Flush, fsync and close (safe to call twice)."""
        with self.lock:
            if self._file is None:
                return
            if self._repair_to is not None:
                self._repair()
            self._file.flush()
            os.fsync(self._file.fileno())
            self._file.close()
            self._file = None

    # -- appending ----------------------------------------------------------------

    def append(self, payload: bytes) -> int:
        """Append one record, honouring the fsync policy; returns the
        frame size in bytes (a batch of one, see :meth:`append_batch`)."""
        return self.append_batch([payload])[0]

    def append_batch(self, payloads: list[bytes]) -> list[int]:
        """Append several records with a *single* flush + fsync.

        The frames go to the file back to back, then one flush (and,
        under policy ``always``, one ``os.fsync``) makes the whole
        batch durable together.  The batch is all-or-nothing — a fault
        while writing any frame or during the final fsync marks the
        tail for repair back to the *batch* start, so recovery either
        replays every record of the batch or none of them; no
        half-batch is ever acknowledged.

        The ``wal`` fault site fires once per frame (``op="append"``,
        before the write) and once before the batch fsync
        (``op="fsync"``), so kill-at-every-boundary torture sweeps
        cover each frame of a batch individually.  A fired fault with
        a ``wal_effect`` damages the file the way its effect names
        before propagating.
        """
        with self.lock:
            if self._file is None:
                raise ValueError("write-ahead log is not open")
            if self._repair_to is not None:
                self._repair()
            start = self._file.tell()
            sizes: list[int] = []
            try:
                for payload in payloads:
                    record = encode_record(payload)
                    if self.faults is not None:
                        try:
                            self.faults.hit("wal", op="append",
                                            bytes=len(record))
                        except BaseException as error:
                            self._apply_media_fault(error, record)
                            raise
                    self._file.write(record)
                    sizes.append(len(record))
                if self.policy == "always":
                    self._file.flush()
                    if self.faults is not None:
                        # the frames are fully written and flushed: an
                        # fsync failure models the acknowledged-lost /
                        # unacknowledged-durable commit ambiguity
                        self.faults.hit("wal", op="fsync")
                    os.fsync(self._file.fileno())
                elif self.policy == "commit":
                    self._file.flush()
            except BaseException:
                self._repair_to = start
                raise
            self.appended += len(payloads)
            self.bytes_written += sum(sizes)
            return sizes

    def _apply_media_fault(self, error: BaseException,
                           record: bytes) -> None:
        """Damage the log the way the fired fault prescribes."""
        effect = getattr(error, "wal_effect", None)
        if effect == "torn":
            # the frame stops mid-payload, as a crash mid-write would
            self._file.write(record[:max(1, len(record) // 2)])
        elif effect == "corrupt":
            # the frame completes but a payload byte flipped on disk
            damaged = bytearray(record)
            damaged[-1] ^= 0xFF
            self._file.write(bytes(damaged))
        else:
            return
        self._file.flush()

    def _repair(self) -> None:
        """Cut the damaged tail a failed append left behind.

        A surviving engine must not append after torn or corrupt
        bytes (recovery would discard everything past them), nor
        keep an fsync-failed frame whose transaction was rolled back
        in memory — truncating to the pre-append offset removes all
        three durably before the log is written again.
        """
        target = self._repair_to
        self._repair_to = None
        self._file.close()
        with open(self.path, "r+b") as handle:
            handle.truncate(target)
            handle.flush()
            os.fsync(handle.fileno())
        self._file = open(self.path, "ab")

    def sync(self) -> None:
        """Force everything appended so far to disk."""
        with self.lock:
            if self._file is not None:
                if self._repair_to is not None:
                    self._repair()
                self._file.flush()
                os.fsync(self._file.fileno())

    def truncate(self) -> None:
        """Reset to an empty log (a checkpoint made it redundant)."""
        with self.lock:
            self._repair_to = None
            if self._file is not None:
                self._file.close()
            with open(self.path, "wb") as handle:
                handle.write(MAGIC)
                handle.flush()
                os.fsync(handle.fileno())
            self._file = open(self.path, "ab")


# -- group commit -------------------------------------------------------------------


class _GroupEntry:
    """One session's pending commit inside a batch."""

    __slots__ = ("encode", "event", "error")

    def __init__(self, encode: Callable[[], bytes]):
        self.encode = encode
        self.event = threading.Event()
        self.error: BaseException | None = None


class GroupCommitter:
    """Commit coalescer: concurrent committers share one append+fsync.

    At ``fsync=always`` every commit pays a full flush + ``os.fsync``
    — the durable-throughput ceiling the durability benchmark
    measures.  Group commit amortizes it: committing sessions enqueue
    their redo payload; the first session to find no leader *becomes*
    the leader and drains the queue, writing the whole batch through
    :meth:`WriteAheadLog.append_batch` — one fsync for every member.
    There is no collection window: a lone committer's batch of one is
    the plain append.  Followers just block on an event until the
    leader reports their fate.  Sessions that arrive while the leader
    is inside the fsync form the next batch (natural piggybacking), so
    under load the log syncs continuously while the engine latch
    stays free for the next statements to execute.

    Failure is all-or-nothing per batch: a fault anywhere in the
    batch marks the log for repair back to the batch start, and every
    member — leader and followers alike — sees the error and rolls
    back.  Nothing was acknowledged before the fsync, so no
    acknowledged commit can be lost and no unacknowledged commit
    survives into the replayable log.

    ``encode`` callables run under the WAL lock in strict queue
    order, which is how the engine assigns monotonically increasing
    commit sequence numbers to batch members.
    """

    def __init__(self, wal: WriteAheadLog, *,
                 on_batch: Callable[[list[int]], None] | None = None):
        self.wal = wal
        #: observer called, under the WAL lock, with the frame sizes
        #: of each durable batch (stats/histograms)
        self.on_batch = on_batch
        self._mutex = threading.Lock()
        self._queue: list[_GroupEntry] = []
        self._leader_active = False
        self.batches = 0
        self.records = 0

    def commit(self, encode: Callable[[], bytes]) -> None:
        """Durably commit one payload as part of a batch.

        *encode* produces the record payload; it is called by the
        batch leader under the WAL lock, in queue order.  Returns once
        the record is durable; raises the batch's error if the shared
        append/fsync failed.
        """
        entry = _GroupEntry(encode)
        with self._mutex:
            self._queue.append(entry)
            lead = not self._leader_active
            if lead:
                self._leader_active = True
        if lead:
            self._lead()
        else:
            entry.event.wait()
        if entry.error is not None:
            raise entry.error

    def _lead(self) -> None:
        """Drain and write batches until the queue stays empty."""
        try:
            while True:
                with self.wal.lock:
                    with self._mutex:
                        batch = self._queue
                        self._queue = []
                    if batch:
                        self._write_batch(batch)
                with self._mutex:
                    if not self._queue:
                        self._leader_active = False
                        return
        except BaseException:  # pragma: no cover - defensive
            with self._mutex:
                self._leader_active = False
                stranded = self._queue
                self._queue = []
            for entry in stranded:
                entry.error = RuntimeError("group commit leader died")
                entry.event.set()
            raise

    def _write_batch(self, batch: list[_GroupEntry]) -> None:
        """Write one drained batch (caller holds the WAL lock)."""
        error: BaseException | None = None
        try:
            payloads = [entry.encode() for entry in batch]
            sizes = self.wal.append_batch(payloads)
        except BaseException as failure:
            error = failure
        if error is None:
            self.batches += 1
            self.records += len(batch)
            if self.on_batch is not None:
                self.on_batch(sizes)
        for entry in batch:
            entry.error = error
            entry.event.set()
