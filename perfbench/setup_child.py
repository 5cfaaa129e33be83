"""One set-up in a fresh interpreter, for the setup_s metric, and one reading
of the interpreter-start reference.

Run from the root of a checkout as `python3 perfbench/setup_child.py WORKLOAD SEED`.
It imports cubecolor from src/, builds the workload's inputs and fills the
package's per-graph cache, then prints "ready": the moment the first timed
operation could start.  After that it prints the time.perf_counter() reading
taken by its first statement; the parent takes interpreter start as that
minus its own reading at the spawn (on Linux both read the same system-wide
monotonic clock).
"""

import time

STARTED = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402

if __name__ == "__main__":
    name, seed = sys.argv[1], int(sys.argv[2])
    root = Path.cwd()
    cc = workloads.load_package(root)
    workloads.prepare(name, seed, cc, root, root / ".perfbench_out" / "setup" / name, workloads.Sizes())
    print("ready", flush=True)
    print(STARTED, flush=True)
