#!/usr/bin/env python3
"""cubecolor benchmark: end-to-end metrics per workload, per-module metrics when traced.

Run from the root of a checkout:

    python3 perfbench/run.py --workload q8_cold --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all          # every workload, passes interleaved

The benchmark imports cubecolor from the checkout's src/ and runs the CLI as
`python -m cubecolor.cli` with PYTHONPATH=src, so it measures the checkout,
never an installed copy.  Each workload is a fixed list of operations built
from the seed (workloads.py).  The list runs in passes, one operation at a
time, until --seconds have passed (at least three passes).  Every operation's
output is checked; one that fails its checks counts as failed, not as fast.

Untraced (--trace 0), the last line holds the end-to-end metrics:
  setup_s       median of the fresh-process set-ups timed before every pass:
                interpreter start, import, input generation and one
                conflict_count per graph the operations use
  wall_s        time of the whole operation list, each operation taken at the
                median of its passes
  op_p50_s      median over operations of their median time: time to a
                zero-conflict colouring over the solving operations (q8_cold,
                frontier; printed as tts_p50_s), or time per CLI command
                (toolchain; printed as cli_p50_s)
  peak_rss_mib  peak RSS of the benchmark process, and of the CLI children for
                toolchain

The three times are given at a fixed machine speed.  A shared host runs the
same code up to twice as slowly in spells of a second to several minutes,
longer than a run, so no choice among the passes of one run removes them.
So the run also reads two references that never touch cubecolor, interleaved
with the work: how long a fresh interpreter takes to start (in every set-up
child, setup_child.py) and a fixed pure-Python loop (before every operation).
The first follows what slows process start and imports, the second what
slows interpreter-bound loops; the workloads mix both.  Each time is
multiplied by the geometric mean of REFERENCE_START_S and REFERENCE_LOOP_S
over the medians of their readings in the run: it is given in seconds on a
machine where the references read those constants.  The references and
constants are the same for every commit, so a faster program still reads
faster.  The lines before the last give the raw seconds and the scale,
medians and quartiles over all samples, fail_frac and tabu_it_per_s.
Traced (--trace 1), the last line holds the
per-module metrics of probes.py; passes alternate traced and untraced so the
tracing overhead is reported, and spans go to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import probes
import workloads
from spans import NullTracer, Tracer
from workloads import WORKLOADS, Sizes

HERE = Path(__file__).resolve().parent
MIN_PASSES = 3
#: Fresh-process set-ups timed before every pass; spreading them over the run
#: keeps one slow spell of a shared machine from setting their median.
SETUP_REPS = 3
#: Medians of the two references on a 2-vCPU Xeon VM under CPython 3.11.
#: They only fix the unit of the scaled times.
REFERENCE_START_S = 0.060
REFERENCE_LOOP_S = 0.004
#: Reference loops timed before each operation.
LOOPS_PER_OP = 2
END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("op_p50_s", "s"), ("peak_rss_mib", "MiB")]


@dataclass
class State:
    """One workload's operations and everything measured on them in this run."""

    wl: workloads.Workload
    setup: list[float] = field(default_factory=list)
    start: list[float] = field(default_factory=list)  # interpreter start, per set-up child
    loop: list[float] = field(default_factory=list)  # reference loop, before each operation
    passes: list[dict] = field(default_factory=list)  # {"traced", "wall", "clock", "results"}

    def samples(self, traced: bool) -> list[tuple]:
        return [(op, r) for p in self.passes if p["traced"] == traced
                for op, r in zip(self.wl.ops, p["results"])]

    def walls(self, traced: bool) -> list[float]:
        return [p["wall"] for p in self.passes if p["traced"] == traced]

    def op_times(self, traced: bool) -> list[float]:
        """Each operation's median time over the passes.

        The references are read across the same passes and reduced the same
        way, so slow spells weigh alike on both.
        """
        passes = [p["results"] for p in self.passes if p["traced"] == traced]
        return [statistics.median(results[i].elapsed for results in passes)
                for i in range(len(self.wl.ops))]

    def scale(self) -> float:
        """Factor that turns this run's seconds into seconds at the reference speed."""
        return math.sqrt(REFERENCE_START_S / statistics.median(self.start)
                         * REFERENCE_LOOP_S / statistics.median(self.loop))


def reference_loop() -> float:
    """Seconds for a fixed pure-Python loop of list reads and integer arithmetic:
    interpreter-bound work like the tabu kernel's, which never touches cubecolor."""
    table = list(range(256))
    total = 0
    t0 = time.perf_counter()
    for i in range(40_000):
        total += table[i & 255] - i % 7
    return time.perf_counter() - t0


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def measure_setup(root: Path, name: str, seed: int, reps: int) -> tuple[list[float], list[float]]:
    """Seconds from spawning a fresh interpreter until it is ready to time, and
    until it ran its first statement (interpreter start, the reference)."""
    times, start = [], []
    for _ in range(reps):
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(HERE / "setup_child.py"), name, str(seed)],
                                cwd=root, stdout=subprocess.PIPE, text=True)
        line = proc.stdout.readline()
        times.append(time.perf_counter() - t0)
        rest = proc.stdout.read().split()
        proc.stdout.close()
        if proc.wait(timeout=60) != 0 or line.strip() != "ready" or len(rest) != 1:
            raise RuntimeError(f"set-up of {name} failed (exit {proc.returncode})")
        start.append(float(rest[0]) - t0)
    return times, start


def run_pass(state: State, cc, root: Path, tracer, pins: dict, setup_reps: int) -> None:
    t0 = time.perf_counter()
    setup, start = measure_setup(root, state.wl.name, state.wl.seed, setup_reps)
    state.setup += setup
    state.start += start
    results = []
    for op in state.wl.ops:
        state.loop += [reference_loop() for _ in range(LOOPS_PER_OP)]
        results.append(workloads.run_op(op, state.wl, cc, tracer, pins))
    state.passes.append({
        "traced": tracer.enabled,
        "wall": sum(r.elapsed for r in results),
        "clock": time.perf_counter() - t0,
        "results": results,
    })


def run_passes(states: list[State], cc, root: Path, seconds: float, tracer, pins: dict,
               setup_reps: int) -> None:
    """Round-robin passes over the workloads until the deadline.

    A workload starts another pass only while its median pass would still end
    before the deadline, and always runs at least MIN_PASSES.  Traced runs
    alternate untraced and traced passes and stop after a traced one, so both
    kinds get the same number of passes and see the same drift.
    """
    deadline = time.perf_counter() + seconds
    null = NullTracer()
    least = MIN_PASSES + (MIN_PASSES % 2 if tracer is not None else 0)
    while True:
        ran = False
        for st in states:
            if len(st.passes) >= least and (tracer is None or len(st.passes) % 2 == 0):
                expected = statistics.median(p["clock"] for p in st.passes)
                if time.perf_counter() + expected > deadline:
                    continue
            traced = tracer is not None and len(st.passes) % 2 == 1
            run_pass(st, cc, root, tracer if traced else null, pins, setup_reps)
            ran = True
        if not ran:
            return


def peak_rss_mib(with_children: bool) -> float:
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:
        kib = max(kib, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024


def spread(values: list[float]) -> str:
    q1, q2, q3 = quartiles(values)
    return f"median {fmt(q2)} [q1 {fmt(q1)}, q3 {fmt(q3)}] of {len(values)}"


def end_to_end(st: State, traced: bool) -> dict:
    """Metric name -> (value, unit, detail) for one workload.

    The three times are at the reference speed (see the module docstring); the
    details give them raw.
    """
    samples = st.samples(traced)
    cli = st.wl.name == "toolchain"
    times = st.op_times(traced)
    timed = [t for op, t in zip(st.wl.ops, times) if cli or op.solving]
    every = [r.elapsed for op, r in samples if cli or op.solving]
    passes = sum(1 for p in st.passes if p["traced"] == traced)
    scale = st.scale()
    setup, wall, p50 = statistics.median(st.setup), sum(times), statistics.median(timed)
    out = {
        "setup_s": (setup * scale, "s", f"raw {fmt(setup)} s; set-ups: " + spread(st.setup)),
        "wall_s": (wall * scale, "s", f"raw {fmt(wall)} s, ops at their median of {passes} "
                   "passes; whole passes: " + spread(st.walls(traced))),
        "op_p50_s": (p50 * scale, "s", f"raw {fmt(p50)} s over {len(timed)} ops at their "
                     "median; every sample: " + spread(every)),
        "peak_rss_mib": (peak_rss_mib(cli), "MiB", "with CLI children" if cli else "this process"),
    }
    if not cli:
        iters = sum(r.iterations for _, r in samples)
        out["tabu_it_per_s"] = (iters / sum(r.elapsed for _, r in samples), "it/s",
                                f"{iters} iterations over {len(samples)} calls")
    return out


def provenance(root: Path, seed: int, seconds: float, trace: int, states: list[State]) -> dict:
    commit = "unknown (not a git checkout)"
    if (root / ".git").exists():
        got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
        if got.returncode == 0:
            commit = got.stdout.strip()
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "ops_per_pass": {st.wl.name: len(st.wl.ops) for st in states},
        "passes": {st.wl.name: len(st.passes) for st in states},
    }


def fmt(value: float) -> str:
    return f"{value:.6g}"


def report_workload(st: State, traced: bool) -> list[str]:
    name = st.wl.name
    metrics = end_to_end(st, traced)
    samples = st.samples(traced)
    failed = sum(1 for p in st.passes for r in p["results"] if r.errors)
    attempted = sum(len(p["results"]) for p in st.passes)
    alias = "cli_p50_s" if name == "toolchain" else "tts_p50_s"
    lines = []
    for key, (value, unit, detail) in metrics.items():
        shown = f"{key} ({alias})" if key == "op_p50_s" else key
        lines.append(f"{name:10s} {shown:24s} {fmt(value):>12s} {unit:5s} {detail}")
    lines.append(f"{name:10s} {'fail_frac':24s} {fmt(failed / attempted):>12s} ratio "
                 f"{failed} failed / {attempted} attempted")
    lines.append(f"{name:10s} {'time_scale':24s} {fmt(st.scale()):>12s} ratio "
                 f"seconds of interpreter start: {spread(st.start)}; "
                 f"of reference loop: {spread(st.loop)}")
    if name == "q8_cold":
        restarts = sum(r.restarts for _, r in samples)
        solved = sum(1 for _, r in samples if r.record[0] == 0)
        lines.append(f"{name:10s} {'solve_ratio':24s} {fmt(solved / restarts):>12s} ratio "
                     f"{solved} solves / {restarts} restarts")
    for op in st.wl.ops:
        times = [r.elapsed for o, r in samples if o is op]
        lines.append(f"{name:10s} op {op.id:38s} fastest {fmt(min(times)):>9s} s, {spread(times)}")
    for op, r in samples[:len(st.wl.ops)]:
        if "colors_used" in r.notes:
            used, target = r.notes["colors_used"], r.notes["colors_target"]
            flag = f" ABOVE TARGET, exit {r.notes['rc']}" if used > target else ""
            lines.append(f"{name:10s} colors_used {op.id}: {used} for --colors {target}{flag}")
    return lines


def bench(cc, root: Path, names: list[str], seed: int, seconds: float, trace: bool,
          sizes: Sizes, pins: dict, setup_reps: int = SETUP_REPS) -> tuple[list[str], dict]:
    """Run the benchmark; returns the report lines and the result object."""
    out_dir = root / ".perfbench_out"
    states = [State(workloads.prepare(name, seed, cc, root, out_dir / name, sizes)) for name in names]
    probe_tracer = Tracer() if trace else None
    probe = probes.run_probes(cc, root, out_dir / "probe", sizes, probe_tracer, pins) if trace else None
    pass_tracer = Tracer() if trace else None
    run_passes(states, cc, root, seconds, pass_tracer, pins, setup_reps)

    failures = [f"{op.id}: {e}" for st in states for p in st.passes
                for op, r in zip(st.wl.ops, p["results"]) for e in r.errors]
    attempted = sum(len(p["results"]) for st in states for p in st.passes)
    failed = sum(1 for st in states for p in st.passes for r in p["results"] if r.errors)
    if probe is not None:
        failures += probe.errors
        attempted += probe.attempted
        failed += probe.failed

    lines = ["provenance: " + json.dumps(provenance(root, seed, seconds, int(trace), states))]
    for st in states:
        lines += report_workload(st, traced=False)
    metrics: dict[str, dict] = {}
    prefix = len(names) > 1
    if not trace:
        for st in states:
            e2e = end_to_end(st, traced=False)
            for key, unit in END_TO_END:
                metrics[f"{st.wl.name}.{key}" if prefix else key] = {"value": e2e[key][0], "unit": unit}
    else:
        untraced = [end_to_end(st, False) for st in states]
        traced = [end_to_end(st, True) for st in states]
        probe.metrics["trace.wall_ratio"] = (sum(e["wall_s"][0] for e in traced)
                                             / sum(e["wall_s"][0] for e in untraced))
        for st, off, on in zip(states, untraced, traced):
            for key in ("wall_s", "op_p50_s", "tabu_it_per_s"):
                if key in off:
                    diff = on[key][0] - off[key][0]
                    lines.append(f"{st.wl.name:10s} trace overhead {key}: traced {fmt(on[key][0])}"
                                 f" - untraced {fmt(off[key][0])} = {diff:+.6g} {off[key][1]}"
                                 f" ({100 * diff / off[key][0]:+.2f}%)")
        for label, tracer in (("passes", pass_tracer), ("probes", probe_tracer)):
            for module, secs in sorted(tracer.self_time_by_module().items()):
                lines.append(f"self time ({label}) {module:10s} {fmt(secs):>12s} s")
            tracer.write(out_dir / f"spans-{'-'.join(names)}-s{seed}-{label}.jsonl")
        units = {name: unit for name, unit, _ in probes.PER_LAYER}
        for name, _, _ in probes.PER_LAYER:
            value = probe.metrics[name]
            lines.append(f"{'layer':10s} {name:34s} {fmt(value):>14s} {units[name]}")
            metrics[name] = {"value": value, "unit": units[name]}
    lines += [f"FAILED {f}" for f in failures[:20]]
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return lines, result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    try:
        cc = workloads.load_package(root)
    except (FileNotFoundError, ImportError) as exc:
        print(f"error: {exc}; run from the root of a cubecolor checkout", file=sys.stderr)
        return 2
    pins = json.loads((HERE / "pins.json").read_text())
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    lines, result = bench(cc, root, names, args.seed, args.seconds, bool(args.trace), Sizes(), pins)
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
