"""One benchmark command for XML2Oracle.

Run from the root of a checkout:

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 28 --trace 0

``--trace 0`` measures the end-to-end metrics: the set-up is built
several times and timed (``setup_s`` is the median), then one loop runs
for ``--seconds``.  ``--trace 1`` runs the same loop twice, untraced and
then with layer spans installed (see ``spans.py``), and reports the
per-layer metrics plus the tracing overhead.  Either way every output
is checked; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``, and the exit
code is 1 when a check failed.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import shutil
import signal
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"

WORKLOADS = ("ingest", "query", "server_durable")


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SOURCE.rglob("*.py")):
        digest.update(str(path.relative_to(SOURCE)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
    except OSError:
        return "unknown"
    if ref.startswith("ref: "):
        try:
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        except OSError:
            return "unknown"
    return ref


def _make(name: str, seed: int, scratch: Path):
    """The workload object for *name*."""
    from workloads import Ingest, Query, ServerDurable

    if name == "ingest":
        return Ingest(seed)
    if name == "query":
        return Query(seed)
    return ServerDurable(seed, scratch)


def _end_to_end(loop, setup_times: list[float]) -> dict:
    from workloads import median, peak_rss_mb, percentile, tail_mean

    every = loop.latencies()
    return {
        "ops_per_s": (len(every) / loop.seconds, "1/s"),
        "latency_p50_ms": (percentile(every, 0.50) * 1000.0, "ms"),
        "latency_top1pct_mean_ms": (tail_mean(every, 0.01) * 1000.0,
                                    "ms"),
        "setup_s": (median(setup_times), "s"),
        "peak_rss_mb": loop.metrics.get("peak_rss_mb",
                                        (peak_rss_mb(), "MB")),
        "success_rate": (1.0 - loop.failed / max(1, loop.attempted),
                         "ratio"),
    }


def run(name: str, seed: int, seconds: float, traced: bool,
        scratch: Path) -> tuple[object, dict]:
    from layers import per_layer
    from spans import GcPauses, NullTracer, Tracer, instrumented
    from workloads import release

    workload = _make(name, seed, scratch)
    untraced = NullTracer()
    setup_times = []
    state = None
    for _ in range(workload.setups if not traced else 1):
        if state is not None:
            release(state)
        gc.collect()
        started = time.perf_counter()
        state = workload.setup()
        setup_times.append(time.perf_counter() - started)
    loop = workload.loop(state, seconds, untraced)
    workload.finish(state, loop, untraced)
    if not traced:
        return loop, _end_to_end(loop, setup_times)

    # the untraced loop above is the overhead reference; this one runs
    # the same inputs with every layer wrapped
    release(state)
    gc.collect()
    tracer = Tracer()
    pauses = GcPauses()
    with instrumented(tracer):
        state = workload.setup()
        with tracer.recording(), pauses.watching():
            traced_loop = workload.loop(state, seconds, tracer)
        counts = tracer.take()
        workload.finish(state, traced_loop, tracer)
        recovery = tracer.take()
    metrics = per_layer(name, counts, recovery, pauses, loop, traced_loop)
    loop.merge(traced_loop)
    return loop, metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {SOURCE}; run from"
              " the root of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SOURCE))
    sys.path.insert(0, str(HERE))
    # a terminated run still removes its scratch directory
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    work = ROOT / ".perfbench_tmp"
    work.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work))
    try:
        loop, metrics = run(args.workload, args.seed, args.seconds,
                            bool(args.trace), scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            work.rmdir()
        except OSError:
            pass  # another run still uses it
    from workloads import FSYNC_POLICY

    info = {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)), "fsync": FSYNC_POLICY,
            "commit": _commit(), "source_sha256": _source_digest(),
            "samples": dict(Counter(kind for _, kind, _ in loop.samples))}
    print("run: " + json.dumps(info, sort_keys=True))
    for problem in loop.problems:
        print(f"check failed: {problem}")
    correct = loop.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
