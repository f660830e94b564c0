"""One benchmark operation in a fresh interpreter.

Run as ``python -m perfbench.worker <workload> <seed> <trace> <smoke>
<spawned> [spans.npz]`` from the repository root, with ``src`` on
``PYTHONPATH``. ``trace`` and ``smoke`` are ``0``/``1``; ``smoke`` picks
the workload's reduced test size. ``spawned`` is
the parent's ``CLOCK_MONOTONIC`` reading just before it started this
process, so ``wall_s`` spans interpreter start-up too. Prints one JSON
line: timings, peak RSS, output checks, fingerprint, simulated counters
and (when traced) per-layer span statistics.
"""

import time

STARTED = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def main(argv) -> int:
    workload, seed, trace, smoke, spawned = (
        argv[0], int(argv[1]), argv[2] == "1", argv[3] == "1", float(argv[4])
    )
    spans_path = Path(argv[5]) if len(argv) > 5 else None

    from perfbench import tracing, workloads

    tracer = None
    if trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    result = workloads.run_workload(
        workload, seed, smoke=smoke, started=STARTED
    )
    checked = time.clock_gettime(time.CLOCK_MONOTONIC)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    record = {
        "wall_s": checked - spawned,
        "setup_s": result.setup_s,
        "build_s": result.build_s,
        "sim_s": result.sim_s,
        "served": result.served,
        "peak_rss_mb": peak_rss_mb,
        "attempted": result.attempted,
        "failed": result.failed,
        "failures": result.failures[:20],
        "fingerprint": result.fingerprint,
        "counters": result.counters,
    }
    if tracer is not None:
        record["layers"] = tracing.summarize(tracer)
        record["spans"] = len(tracer)
        if spans_path is not None:
            tracing.write_spans(tracer, spans_path)
    sys.stdout.write(json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
