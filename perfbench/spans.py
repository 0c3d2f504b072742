"""Layer spans recorded from outside the program.

:func:`instrumented` wraps public entry points of each layer for the
duration of a ``with`` block and restores the originals afterwards;
nothing under ``src/`` changes.  Every wrapped call is a span on a
thread-local stack, so a layer's *self* time is its span time minus
the time of the spans it called on the same thread.

The server's request span is opened when a connection thread decodes
a request and closed when it has sent the response, so its self time
is the request handler's own work.  Client threads of the same
process call the same wire functions; their spans are not recorded.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import os
import threading
import time
from collections import defaultdict

from repro.core.loader import DocumentLoader
from repro.core.metadata import MetadataRegistry
from repro.core.queries import PathQueryBuilder
from repro.core.retriever import Retriever
from repro.dtd.validator import Validator
from repro.ordb import engine
from repro.ordb.locks import LockManager
from repro.ordb.wal import WriteAheadLog
from repro.server import wire
from repro.server.admission import AdmissionController
import repro.core.xml2oracle as facade

#: Root span of one program call made by the benchmark.
OP = "bench.op"
#: Root span of one server request (decode .. send).
REQUEST = "server.handler"
#: Root span of one durable open.
RECOVERY = "ordb.recovery"
SERVER_THREAD_PREFIX = "ordb-conn-"
#: The benchmark's own client threads; their spans are not recorded.
CLIENT_THREAD_PREFIX = "bench-client-"


class _Counts:
    """One thread's totals; merged when the run is reported."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.extra = defaultdict(float)


class Tracer:
    """Thread-local span stacks feeding per-layer totals."""

    def __init__(self):
        self.active = False
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[_Counts] = []

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            name = threading.current_thread().name
            local.recorded = not name.startswith(CLIENT_THREAD_PREFIX)
            local.stack = []
            local.counts = _Counts()
            with self._lock:
                self._threads.append(local.counts)
        return local

    def enter(self, layer: str):
        local = self._state()
        if not (self.active and local.recorded):
            return None
        frame = [layer, time.perf_counter(), 0.0]
        local.stack.append(frame)
        return frame

    def exit(self, frame) -> None:
        if frame is None:
            return
        end = time.perf_counter()
        local = self._local
        stack = local.stack
        while stack and stack[-1] is not frame:
            stack.pop()  # a span left open by an exception
        if not stack:
            return
        stack.pop()
        layer, start, child = frame
        duration = end - start
        counts = local.counts
        counts.self_s[layer] += duration - child
        counts.total_s[layer] += duration
        counts.calls[layer] += 1
        if stack:
            stack[-1][2] += duration

    def note(self, key: str, amount: float) -> None:
        """Add *amount* to a named tally of the current thread."""
        local = self._state()
        if self.active and local.recorded:
            local.counts.extra[key] += amount

    def open_request(self) -> None:
        """Start a server request span on this connection thread."""
        local = self._state()
        self.close_request()
        local.request = self.enter(REQUEST)

    def close_request(self) -> None:
        local = self._state()
        frame = getattr(local, "request", None)
        local.request = None
        self.exit(frame)

    @contextlib.contextmanager
    def span(self, layer: str):
        frame = self.enter(layer)
        try:
            yield
        finally:
            self.exit(frame)

    @contextlib.contextmanager
    def recording(self, on: bool = True):
        """Record spans (or, with ``on=False``, none) inside the block."""
        previous, self.active = self.active, on
        try:
            yield
        finally:
            self.active = previous

    def paused(self):
        return self.recording(False)

    def take(self) -> _Counts:
        """Merge and clear every thread's totals."""
        merged = _Counts()
        with self._lock:
            for counts in self._threads:
                for name in ("self_s", "total_s", "calls", "extra"):
                    target = getattr(merged, name)
                    source = getattr(counts, name)
                    for key, value in source.items():
                        target[key] += value
                    source.clear()
        return merged


class NullTracer:
    """Stands in for :class:`Tracer` in untraced runs."""

    def span(self, layer: str):
        return contextlib.nullcontext()

    def recording(self, on: bool = True):
        return contextlib.nullcontext()

    def paused(self):
        return contextlib.nullcontext()


class GcPauses:
    """Collector pauses, timed through ``gc.callbacks``."""

    def __init__(self):
        self.pause_s = 0.0
        self.max_pause_s = 0.0
        self.gen2 = 0
        self._started = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._started = time.perf_counter()
            return
        pause = time.perf_counter() - self._started
        self.pause_s += pause
        self.max_pause_s = max(self.max_pause_s, pause)
        if info.get("generation") == 2:
            self.gen2 += 1

    @contextlib.contextmanager
    def watching(self):
        gc.callbacks.append(self)
        try:
            yield self
        finally:
            gc.callbacks.remove(self)


def _wrapped(tracer: Tracer, function, layer: str, after=None):
    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        frame = tracer.enter(layer)
        try:
            result = function(*args, **kwargs)
        finally:
            tracer.exit(frame)
        if after is not None and frame is not None:
            after(tracer, args, result)
        return result
    return wrapper


def _count_statements(tracer, args, result) -> None:
    tracer.note("core.loader.statements", len(result.statements))


def _count_rows(tracer, args, result) -> None:
    if result.columns:
        tracer.note("ordb.engine.rows_returned", len(result.rows))


def _decode_request(tracer: Tracer, function):
    @functools.wraps(function)
    def wrapper(payload, *args, **kwargs):
        if threading.current_thread().name.startswith(
                SERVER_THREAD_PREFIX):
            tracer.open_request()
            tracer.note("server.wire.request_bytes", len(payload))
        with tracer.span("server.wire.decode"):
            return function(payload, *args, **kwargs)
    return wrapper


def _send_response(tracer: Tracer, function):
    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        try:
            with tracer.span("server.wire.encode"):
                return function(*args, **kwargs)
        finally:
            if threading.current_thread().name.startswith(
                    SERVER_THREAD_PREFIX):
                tracer.close_request()
    return wrapper


def _targets():
    """(owner, attribute, layer, after) for every wrapped entry point."""
    return [
        (facade, "parse_xml", "xmlkit.parse", None),
        (Validator, "validate", "dtd.validate", None),
        (DocumentLoader, "load", "core.loader", _count_statements),
        (MetadataRegistry, "register_document", "core.metadata", None),
        (MetadataRegistry, "register_misc_nodes", "core.metadata", None),
        (MetadataRegistry, "register_entities", "core.metadata", None),
        (PathQueryBuilder, "build", "core.queries", None),
        (Retriever, "fetch", "core.retriever", None),
        (engine, "parse_statement", "ordb.sql.parse", None),
        (engine.Database, "execute", "ordb.engine.execute", _count_rows),
        (engine, "plan_access", "ordb.planner", None),
        (LockManager, "acquire", "ordb.locks", None),
        (engine, "encode_transaction", "ordb.wal.encode", None),
        (engine, "decode_transaction", "ordb.recovery.decode", None),
        (WriteAheadLog, "append", "ordb.wal.append", None),
        (WriteAheadLog, "append_batch", "ordb.wal.append", None),
        (os, "fsync", "ordb.wal.fsync", None),
        (wire, "encode_result", "server.wire.encode", None),
        (AdmissionController, "acquire", "server.admission", None),
    ]


@contextlib.contextmanager
def instrumented(tracer: Tracer):
    """Install the layer wrappers; restore the originals on exit."""
    saved = []
    try:
        for owner, name, layer, after in _targets():
            original = getattr(owner, name)
            saved.append((owner, name, original))
            setattr(owner, name, _wrapped(tracer, original, layer, after))
        saved.append((wire, "decode_message", wire.decode_message))
        wire.decode_message = _decode_request(tracer, wire.decode_message)
        saved.append((wire, "send_message", wire.send_message))
        wire.send_message = _send_response(tracer, wire.send_message)
        yield tracer
    finally:
        for owner, name, original in reversed(saved):
            setattr(owner, name, original)
