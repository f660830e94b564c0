"""Record the pinned output fingerprints at each workload's default seed.

    python3 perfbench/pin.py [workload ...]

Runs one operation per workload at its default seed and writes the
full-precision ``repr`` of every simulated output into
``perfbench/fingerprints.json``. The benchmark fails any operation at a
default seed whose outputs differ from the pinned ones, so re-pin only
for a change that is meant to alter simulated outputs, and say so.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.run import PINNED, run_operation  # noqa: E402
from perfbench.workloads import DEFAULT_SEEDS, WORKLOADS  # noqa: E402


def main(argv) -> int:
    chosen = argv or list(WORKLOADS)
    pinned = json.loads(PINNED.read_text()) if PINNED.is_file() else {}
    for workload in chosen:
        seed = DEFAULT_SEEDS[workload]
        record = run_operation(workload, seed, traced=False)
        if record["failed"]:
            print(f"{workload}: output checks failed: {record['failures']}",
                  file=sys.stderr)
            return 1
        pinned[workload] = {"seed": seed, "fingerprint": record["fingerprint"]}
        print(f"{workload}: pinned {len(record['fingerprint'])} outputs "
              f"at seed {seed}")
    PINNED.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
