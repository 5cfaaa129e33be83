"""Regenerate pins.json: the trajectories and output hashes of the default seed.

Run from the root of a checkout as `python3 perfbench/record_pins.py`.  Pins
are a contract: re-record them only in a change that means to alter which
colouring a seeded search finds or what a command writes, and say so.
"""

import json
import sys
from pathlib import Path

import probes
import workloads
from spans import NullTracer

if __name__ == "__main__":
    root = Path.cwd()
    cc = workloads.load_package(root)
    sizes = workloads.Sizes()
    out = root / ".perfbench_out" / "pins"
    todo = []
    for name in workloads.WORKLOADS:
        wl = workloads.prepare(name, 0, cc, root, out / name, sizes)
        todo += [(op, wl) for op in wl.ops]
    todo += [(op, None) for op in probes.probe_search_ops(cc, sizes)]
    pins = {}
    for op, wl in todo:
        if op.id in pins:
            continue
        result = workloads.run_op(op, wl, cc, NullTracer(), {})
        if result.errors:
            sys.exit(f"{op.id} fails its checks, not pinning: {result.errors}")
        pins[op.id] = result.record
        print(op.id, result.record, flush=True)
    (Path(__file__).parent / "pins.json").write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
