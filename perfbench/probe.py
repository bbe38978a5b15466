"""Set-up probe: a fresh interpreter readies one workload, then reports.

    python3 perfbench/probe.py <workload> <first op input as JSON>

It imports quatcube and quatcube.cli from the checkout's ``src``, runs
the workload's untimed warm-up op on the given input, and prints one
JSON line: the import time and the warm-up check's verdict.  ``run.py``
times the span from spawning this process to that line as set-up.
"""

import json
import sys
import time
from pathlib import Path


def main() -> int:
    t0 = time.perf_counter()
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import quatcube.cli  # noqa: F401

    import_ms = (time.perf_counter() - t0) * 1e3
    import workloads

    problem = workloads.warmup(sys.argv[1], json.loads(sys.argv[2]))
    print(json.dumps({"import_ms": import_ms, "problem": problem}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
