"""The repository benchmark: one workload, one seed, a fixed run length.

    python3 perfbench/run.py --workload fleet-slo --seed 17 --seconds 30 --trace 0

Each operation runs in a fresh single-threaded interpreter
(:mod:`perfbench.worker`), one at a time, until the run length is used
(at least :data:`MIN_OPERATIONS` of them). With ``--trace 0`` the last
stdout line reports the end-to-end metrics, medians over the
operations; with ``--trace 1`` operations alternate untraced and traced,
and it reports the per-layer metrics of the traced ones. Every
operation's outputs are checked (see :mod:`perfbench.workloads`); the
operations of one run must agree bit-for-bit (traced or not), and at a
workload's default seed they must match the pinned fingerprint in
``perfbench/fingerprints.json``. The full record, with a machine
fingerprint, is written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
PINNED = HERE / "fingerprints.json"

if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import report  # noqa: E402
from perfbench.workloads import WORKLOADS, digest  # noqa: E402

#: Operations per run however long each takes, so set-up and wall time
#: are medians of at least three.
MIN_OPERATIONS = 3
#: A single operation that runs longer than this has hung.
OPERATION_TIMEOUT_S = 150.0

#: One interpreter, one thread: no BLAS / OpenMP pools.
SINGLE_THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}


class BenchmarkError(RuntimeError):
    """The benchmark could not produce a result."""


def _worker_env() -> dict:
    env = dict(os.environ)
    env.update(SINGLE_THREAD_ENV)
    paths = [str(ROOT / "src"), str(ROOT)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def run_operation(workload: str, seed: int, traced: bool,
                  spans_path: Path = None, smoke: bool = False) -> dict:
    """Run one operation in a fresh interpreter; returns its record.

    ``smoke`` runs the workload at its reduced test size.
    """
    command = [
        sys.executable, "-m", "perfbench.worker", workload, str(seed),
        "1" if traced else "0", "1" if smoke else "0",
    ]
    spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
    command.append(repr(spawned))
    if spans_path is not None:
        command.append(str(spans_path))
    process = subprocess.Popen(
        command, cwd=ROOT, env=_worker_env(),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        stdout, stderr = process.communicate(timeout=OPERATION_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        process.kill()
        process.communicate()
        raise BenchmarkError(
            f"{workload} operation exceeded {OPERATION_TIMEOUT_S:.0f}s"
        )
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
    if process.returncode != 0:
        raise BenchmarkError(
            f"{workload} worker exited {process.returncode}:\n{stderr}"
        )
    record = json.loads(stdout.strip().splitlines()[-1])
    record["traced"] = traced
    return record


def _pinned(workload: str):
    if not PINNED.is_file():
        return None
    return json.loads(PINNED.read_text()).get(workload)


def consistency_failures(workload: str, seed: int, records) -> list:
    """Operations whose outputs differ from the run's first operation, or
    (at the default seed) from the pinned fingerprint."""
    failures = []
    reference = records[0]["fingerprint"]
    for index, record in enumerate(records[1:], start=1):
        if record["fingerprint"] != reference:
            kind = "traced" if record["traced"] else "untraced"
            failures.append(
                f"operation {index} ({kind}) outputs differ from operation 0"
            )
    pinned = _pinned(workload)
    if pinned is not None and seed == pinned["seed"]:
        expected = pinned["fingerprint"]
        for index, record in enumerate(records):
            if record["fingerprint"] != expected:
                keys = sorted(
                    k for k in set(expected) | set(record["fingerprint"])
                    if expected.get(k) != record["fingerprint"].get(k)
                )
                failures.append(
                    f"operation {index} differs from the pinned fingerprint "
                    f"at seed {seed}: {', '.join(keys[:8])}"
                )
    return failures


def run(workload: str, seed: int, seconds: float, trace: bool,
        smoke: bool = False, out_dir: Path = OUT) -> dict:
    """Run operations for ``seconds``; returns the full run record.

    ``smoke`` runs every operation at the workload's reduced test size;
    the last traced operation's spans are written under ``out_dir``.
    """
    compileall.compile_dir(str(ROOT / "src"), quiet=1)
    compileall.compile_dir(str(HERE), quiet=1)
    started = time.perf_counter()
    records = []
    longest = {False: 0.0, True: 0.0}
    minimum = 2 if trace else MIN_OPERATIONS
    while True:
        traced = trace and len(records) % 2 == 1
        spans_path = (
            out_dir / f"{workload}-seed{seed}.spans.npz" if traced else None
        )
        t0 = time.perf_counter()
        records.append(
            run_operation(workload, seed, traced, spans_path, smoke)
        )
        longest[traced] = max(longest[traced], time.perf_counter() - t0)
        elapsed = time.perf_counter() - started
        upcoming = trace and len(records) % 2 == 1
        if (len(records) >= minimum
                and elapsed + longest[upcoming] > seconds):
            break

    untraced = [r for r in records if not r["traced"]]
    traced_records = [r for r in records if r["traced"]]
    mismatches = consistency_failures(workload, seed, records)
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records) + len(mismatches)
    if trace:
        metrics = report.per_layer_metrics(traced_records, untraced)
    else:
        metrics = report.end_to_end_metrics(untraced)
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "machine": report.machine_fingerprint(),
        "operations": [
            {key: r[key] for key in (
                "traced", "wall_s", "setup_s", "build_s", "sim_s", "served",
                "peak_rss_mb", "attempted", "failed", "failures",
            )} | {"outputs_digest": digest(r["fingerprint"])}
            for r in records
        ],
        "consistency_failures": mismatches,
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        },
    }


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no simulator sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, _terminate)
    try:
        record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchmarkError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=2) + "\n")
    for message in record["consistency_failures"] + [
        m for op in record["operations"] for m in op["failures"]
    ]:
        print(f"perfbench: check failed: {message}", file=sys.stderr)
    print(json.dumps({k: record[k] for k in (
        "workload", "seed", "machine", "operations",
    )}))
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
