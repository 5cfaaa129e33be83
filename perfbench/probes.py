"""Per-module measurements for the traced run.

Each probe times public calls into one cubecolor module on a fixed instance,
so every traced run reports the same metric names whichever workload it
belongs to.  Counts (iterations, restarts, clauses, pairs) repeat exactly
between runs; they guard against a change that does different work.

Which end-to-end metric each probe should move:
  hamming.*, search.first_call/neighbor_build  -> setup_s, toolchain (encode)
  search.tabu_*                                -> q8_cold and frontier
  search greedy/dsatur/extend_double, coloring.*, files.*, bounds.*, sat.*,
  cli.*                                        -> toolchain
"""

from __future__ import annotations

import os
import random
import statistics
import subprocess
import sys
import time
from math import comb
from pathlib import Path

import checks
import workloads
from workloads import SearchOp, Sizes

TABU_KINDS = ("q8k14", "q9f13", "q9f16", "q10k40")
CLI_COMMANDS = ("fixture", "verify", "stats", "bound", "extend", "search", "encode", "decode-model")

#: (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = [
    ("hamming.neighbors_within_s.n12", "s", "lower"),
    ("search.first_call_s.q12", "s", "lower"),
    ("search.conflict_count_s.q12", "s", "lower"),
    ("search.neighbor_build_s.q12", "s", "lower"),
    ("search.greedy_s.q12", "s", "lower"),
    ("search.dsatur_s.q8", "s", "lower"),
    ("search.dsatur_s.q10", "s", "lower"),
    ("search.extend_double_s.q9", "s", "lower"),
    *[(f"search.tabu_it_per_s.{kind}", "it/s", "higher") for kind in TABU_KINDS],
    *[(f"search.tabu_iters.{kind}", "count", "lower") for kind in TABU_KINDS],
    ("search.restarts.q8k14", "count", "lower"),
    ("search.solve_ratio.q8k14", "ratio", "higher"),
    ("coloring.verify_s.q8", "s", "lower"),
    ("coloring.verify_s.q12", "s", "lower"),
    ("coloring.verify_pairs.q12", "count", "lower"),
    ("coloring.fingerprint_s.q12", "s", "lower"),
    ("coloring.class_stats_s.q12", "s", "lower"),
    ("files.load_s.q12", "s", "lower"),
    ("files.save_s.q12", "s", "lower"),
    ("bounds.adjacency_s.n10", "s", "lower"),
    ("bounds.bnb_nodes_per_s.n10", "nodes/s", "higher"),
    ("bounds.exact_s.a10_6", "s", "lower"),
    ("sat.encode_s.q8k13", "s", "lower"),
    ("sat.clauses.q8k13", "count", "lower"),
    ("sat.clauses_per_s.q8k13", "clauses/s", "higher"),
    ("sat.write_dimacs_s.q8k13", "s", "lower"),
    ("sat.parse_solver_model_s.q8k13", "s", "lower"),
    ("sat.decode_model_s.q8k13", "s", "lower"),
    ("cli.import_s", "s", "lower"),
    *[(f"cli.{c}_s", "s", "lower") for c in CLI_COMMANDS],
    ("trace.wall_ratio", "ratio", "lower"),
]

#: Node budget of the branch-and-bound timeout probe: about 0.3 s at 1M nodes/s.
BNB_BUDGET = 300_000


def probe_search_ops(cc, sizes: Sizes) -> list[SearchOp]:
    """One tabu run per instance the ROADMAP tracks, on fixed seeds.

    q8k14 uses a pool seed that needs one restart, so solve_ratio is not
    trivially 1.
    """
    fixture = workloads.fixture_classes(cc)
    ops = [
        SearchOp(f"q8k14:s{sizes.probe_q8_seed}:B{sizes.q8_budget}:R{sizes.q8_restarts}", "q8k14",
                 8, 2, 14, sizes.probe_q8_seed, sizes.q8_budget, sizes.q8_restarts),
        SearchOp(f"q9f13:fixture:s0:B{sizes.f13_budget}", "q9f13", 9, 2, 13, 0, sizes.f13_budget,
                 base_classes=fixture, must_solve=False),
        SearchOp(f"q9f16:s{sizes.f16_pool[0]}:B{sizes.f16_budget}", "q9f16", 9, 2, 16,
                 sizes.f16_pool[0], sizes.f16_budget, base_classes=fixture),
        SearchOp(f"q10k40:s0:B{sizes.q10_budget}", "q10k40", 10, 2, 40, 0, sizes.q10_budget),
    ]
    for op in ops:
        op.prepare(cc)
    return ops


class Probe:
    """Collects metrics and failed checks while timing calls under spans."""

    def __init__(self, tracer) -> None:
        self.tracer = tracer
        self.metrics: dict[str, float] = {}
        self.errors: list[str] = []
        self.attempted = 0
        self.failed = 0

    def time(self, span: str, fn, reps: int = 1):
        """Median seconds over reps calls of fn, and its last result."""
        times = []
        for _ in range(reps):
            with self.tracer.span(span):
                t0 = time.perf_counter()
                result = fn()
                times.append(time.perf_counter() - t0)
        return statistics.median(times), result

    def check(self, name: str, errors: list[str]) -> None:
        self.attempted += 1
        self.failed += bool(errors)
        self.errors += [f"probe {name}: {e}" for e in errors]


def run_probes(cc, root: Path, workdir: Path, sizes: Sizes, tracer, pins: dict) -> Probe:
    p = Probe(tracer)
    m = p.metrics
    with tracer.span("op.probe.graph", "probe.graph"):
        # Must be the process's first use of (12, 2): it includes the cold build.
        a12 = cc.Assignment(cc.Params(12, 2), [1 + v % 16 for v in range(1 << 12)])
        first, got = p.time("search.conflict_count", lambda: cc.conflict_count(a12))
        warm, _ = p.time("search.conflict_count", lambda: cc.conflict_count(a12), 3)
        m["search.first_call_s.q12"] = first
        m["search.conflict_count_s.q12"] = warm
        m["search.neighbor_build_s.q12"] = first - warm
        recount = checks.naive_conflicts(a12.color_of, 12, 2)
        p.check("conflict_count", [] if got == recount else [f"{got} conflicts, recount {recount}"])
        p12 = cc.Params(12, 2)
        m["hamming.neighbors_within_s.n12"], nb = p.time(
            "hamming.neighbors_within",
            lambda: [cc.neighbors_within(v, p12) for v in range(1 << 12)], 3)
        masks = checks.ball_masks(12, 2)
        same = all(sorted(v ^ x for x in masks) == nb[v] for v in (0, 1234, 4095))
        p.check("neighbors_within", [] if same else ["neighbors_within disagrees with the ball"])

    with tracer.span("op.probe.constructive", "probe.constructive"):
        fixture = cc.q8_square_13_coloring()
        m["search.greedy_s.q12"], col12 = p.time("search.greedy_color", lambda: cc.greedy_color(p12))
        m["search.dsatur_s.q8"], d8 = p.time(
            "search.dsatur_color", lambda: cc.dsatur_color(cc.Params(8, 2)), 3)
        m["search.dsatur_s.q10"], d10 = p.time(
            "search.dsatur_color", lambda: cc.dsatur_color(cc.Params(10, 2)))
        m["search.extend_double_s.q9"], dbl = p.time(
            "search.extend_to_higher_dim", lambda: cc.extend_to_higher_dim(fixture, "double"), 3)
        for name, col, n in (("greedy q12", col12, 12), ("dsatur q8", d8, 8),
                             ("dsatur q10", d10, 10), ("double q9", dbl.best.to_coloring(), 9)):
            p.check(name, checks.partition_errors(n, 2, words_of(col)))

    with tracer.span("op.probe.tabu", "probe.tabu"):
        for op in probe_search_ops(cc, sizes):
            elapsed, out = op.run(cc, tracer)
            result = op.check(cc, out, pins)
            p.check(op.id, result.errors)
            m[f"search.tabu_it_per_s.{op.kind}"] = out.iterations_used / elapsed
            m[f"search.tabu_iters.{op.kind}"] = out.iterations_used
            if op.kind == "q8k14":
                m["search.restarts.q8k14"] = result.restarts
                m["search.solve_ratio.q8k14"] = (out.conflicts == 0) / result.restarts

    with tracer.span("op.probe.coloring", "probe.coloring"):
        classes12 = words_of(col12)
        m["coloring.verify_s.q8"], rep8 = p.time(
            "coloring.verify_coloring", lambda: cc.verify_coloring(fixture), 3)
        m["coloring.verify_s.q12"], rep12 = p.time(
            "coloring.verify_coloring", lambda: cc.verify_coloring(col12))
        m["coloring.verify_pairs.q12"] = sum(comb(len(c), 2) for c in classes12)
        m["coloring.fingerprint_s.q12"], fp = p.time(
            "coloring.fingerprint", lambda: cc.fingerprint(col12))
        m["coloring.class_stats_s.q12"], stats = p.time(
            "coloring.class_stats", lambda: [cc.class_stats(c) for c in col12.classes])
        p.check("verify", [] if rep8.valid and rep12.valid else ["a valid coloring fails verify"])
        sizes_ok = sorted(s.size for s in stats) == sorted(map(len, classes12))
        p.check("class_stats", [] if sizes_ok and fp.startswith(b"n=12;k=2;")
                else ["class_stats or fingerprint disagree with the class sizes"])

    with tracer.span("op.probe.files", "probe.files"):
        m["files.save_s.q12"], text = p.time("files.save_coloring", lambda: cc.save_coloring(col12), 3)
        m["files.load_s.q12"], loaded = p.time("files.load_coloring", lambda: cc.load_coloring(text), 3)
        p.check("files", [] if checks.same_partition(words_of(loaded), classes12)
                else ["load(save(c)) is not c"])

    with tracer.span("op.probe.bounds", "probe.bounds"):
        adjacency, _ = p.time(
            "bounds.exact_max_code_size", lambda: cc.exact_max_code_size(10, 3, budget=1))
        t_bnb, timeout = p.time(
            "bounds.exact_max_code_size", lambda: cc.exact_max_code_size(10, 3, budget=BNB_BUDGET))
        m["bounds.adjacency_s.n10"] = adjacency
        m["bounds.bnb_nodes_per_s.n10"] = BNB_BUDGET / max(t_bnb - adjacency, 1e-9)
        m["bounds.exact_s.a10_6"], a10_6 = p.time(
            "bounds.exact_max_code_size", lambda: cc.exact_max_code_size(10, 6))
        p.check("bounds", [] if tuple(a10_6) == (6, "exact") and timeout[1] == "timeout-lower-bound"
                else [f"A(10,6) gave {tuple(a10_6)}, timeout run gave {tuple(timeout)}"])

    with tracer.span("op.probe.sat", "probe.sat"):
        p13 = cc.Params(8, 2, 13)
        m["sat.encode_s.q8k13"], formula = p.time(
            "sat.encode_coloring_cnf", lambda: cc.encode_coloring_cnf(p13))
        m["sat.clauses.q8k13"] = len(formula.clauses)
        m["sat.clauses_per_s.q8k13"] = len(formula.clauses) / m["sat.encode_s.q8k13"]
        m["sat.write_dimacs_s.q8k13"], _ = p.time("sat.write_dimacs", lambda: cc.write_dimacs(formula), 3)
        model = workloads.solver_model_text(words_of(fixture), 13, random.Random(0))
        m["sat.parse_solver_model_s.q8k13"], true_vars = p.time(
            "sat.parse_solver_model", lambda: cc.parse_solver_model(model), 5)
        m["sat.decode_model_s.q8k13"], decoded = p.time(
            "sat.decode_model", lambda: cc.decode_model(true_vars, p13), 5)
        expected = 256 + 13 * 256 * len(checks.ball_masks(8, 2)) // 2
        errors = [] if len(formula.clauses) == expected else [
            f"{len(formula.clauses)} clauses, expected {expected}"]
        if not checks.same_partition(words_of(decoded), words_of(fixture)):
            errors.append("decoded model is not the encoded coloring")
        p.check("sat", errors)

    with tracer.span("op.probe.cli", "probe.cli"):
        m["cli.import_s"] = import_cost(root)
        wl = workloads.prepare("toolchain", 0, cc, root, workdir, sizes)
        per_command: dict[str, list[float]] = {}
        for op in wl.ops:
            result = workloads.run_op(op, wl, cc, tracer, pins)
            p.check(op.id, result.errors)
            per_command.setdefault(op.command, []).append(result.elapsed)
        for command in CLI_COMMANDS:
            m[f"cli.{command}_s"] = statistics.median(per_command[command])
    return p


def words_of(col) -> list[list[int]]:
    return [c.sorted_words() for c in col.classes]


def import_cost(root: Path, reps: int = 5) -> float:
    """Median `import cubecolor` in a fresh interpreter minus an empty one."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    bare, full = [], []
    for _ in range(reps):
        for code, into in (("pass", bare), ("import cubecolor", full)):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)
            into.append(time.perf_counter() - t0)
    return statistics.median(full) - statistics.median(bare)
