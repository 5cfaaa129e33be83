"""The benchmark's three workloads, as lists of operations with their checks.

Every operation is timed from outside: a call into a public cubecolor
function, or one `python -m cubecolor.cli` child process.  Its output is then
checked by the benchmark's own naive code (checks.py) and, where the operation
is in pins.json, against the trajectory or output hash pinned there.  An
operation whose checks fail counts as failed, whatever its time.

Workloads (all closed loop: one operation at a time, no threads):

q8_cold    Cold tabu_search(Params(8, 2, 14)) with restarts and a per-restart
           budget near the median time to solution.  Time to solution is
           heavy tailed (3.6k to 350k iterations over 30 seeds), so a pool
           drawn afresh from each benchmark seed would spread by a quarter or
           more between seeds even at 24 solves per run.  The pool of search
           seeds is therefore fixed and pinned; the benchmark seed sets the
           order in which its operations run.  Its four seeds need 3.4k to
           33k iterations, one of them a restart: short enough that a run
           repeats every operation about ten times, so that each one's median
           is a steady reading on a shared machine.
frontier   freeze-subcube lifts of the Q_8^2 13-coloring to Q_9^2 (K=13 at a
           fixed budget, on automorphic images of the fixture drawn from the
           seed; their cost varies by a fifth between images, so there are
           several short ones rather than one long one; K=16 to solution,
           from a fixed pinned seed pool because its time to solution is
           heavy tailed; seeds 3 and 4, at 20k and 11k iterations, are left
           out to keep a pass short) and cold tabu_search at (10, 2, 40) from seed-drawn
           search seeds.  Graphs of 512-1024 vertices where most vertices
           stay conflicted.
toolchain  The README's CLI flow, one child process at a time.  The seed picks
           the automorphic image of the fixture that verify, stats, extend and
           decode-model read.  `bound --n 10 --k 2` is left out on purpose: it
           runs about 100 s silently before exiting 2 (A(10,3) is not in the
           table and the exact search exhausts its node budget).
"""

from __future__ import annotations

import gc
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass, field
from itertools import zip_longest
from pathlib import Path

import checks

WORKLOADS = ("q8_cold", "frontier", "toolchain")

#: A CLI command that takes longer than this is killed and counted failed.
CLI_TIMEOUT_S = 60


@dataclass(frozen=True)
class Sizes:
    """How much work each workload does; the smoke test shrinks these."""

    q8_pool: tuple[int, ...] = (0, 5, 3000, 4000)
    q8_budget: int = 30_000
    q8_restarts: int = 29
    f13_ops: int = 3
    f13_budget: int = 750
    f16_pool: tuple[int, ...] = (0, 1, 2, 5)
    f16_budget: int = 100_000
    q10_ops: int = 2
    q10_budget: int = 5_000
    probe_q8_seed: int = 4000


@dataclass
class OpResult:
    elapsed: float
    errors: list[str]
    record: object = None
    iterations: int = 0
    restarts: int = 0
    notes: dict = field(default_factory=dict)


def load_package(root: Path):
    """Import cubecolor from the checkout's src/, never from an installed copy."""
    src = root / "src"
    if not (src / "cubecolor" / "__init__.py").is_file():
        raise FileNotFoundError(f"no cubecolor package under {src}")
    sys.path.insert(0, str(src))
    import cubecolor

    if Path(cubecolor.__file__).resolve().parent != (src / "cubecolor").resolve():
        raise ImportError(f"imported cubecolor from {cubecolor.__file__}, not {src}")
    return cubecolor


def fixture_classes(cc) -> list[list[int]]:
    return [c.sorted_words() for c in cc.q8_square_13_coloring().classes]


def automorphic_image(classes: list[list[int]], n: int, rng: random.Random) -> list[list[int]]:
    """Permute coordinates, translate, and shuffle class order: same code sizes
    and distances, different words."""
    perm = list(range(n))
    rng.shuffle(perm)
    shift = rng.randrange(1 << n)

    def image(w: int) -> int:
        out = 0
        for i, p in enumerate(perm):
            if w >> i & 1:
                out |= 1 << p
        return out ^ shift

    out = [sorted(image(w) for w in c) for c in classes]
    rng.shuffle(out)
    return out


def coloring_text(n: int, k: int, classes: list[list[int]]) -> str:
    lines = [f"n {n}", f"k {k}", f"classes {len(classes)}"]
    lines += [" ".join(["class", *map(str, c)]) for c in classes]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------- search ops


@dataclass
class SearchOp:
    """One tabu_search or freeze-subcube extend_to_higher_dim call."""

    id: str
    kind: str  # q8k14, q9f13, q9f16, q10k40
    n: int
    k: int
    colors: int
    rng_seed: int
    max_iterations: int
    restarts: int = 0
    base_classes: list[list[int]] | None = None
    must_solve: bool = True
    base: object = None  # the Coloring handed to extend_to_higher_dim

    @property
    def solving(self) -> bool:
        return self.must_solve

    def prepare(self, cc) -> None:
        if self.base_classes is not None:
            self.base = cc.coloring_from_classes(
                cc.Params(self.n - 1, self.k, len(self.base_classes)), self.base_classes
            )

    def run(self, cc, tracer) -> tuple[float, object]:
        config = cc.SearchConfig(
            rng_seed=self.rng_seed, max_iterations=self.max_iterations, restarts=self.restarts
        )
        with tracer.span(f"op.{self.kind}", self.id):
            t0 = time.perf_counter()
            if self.base is None:
                with tracer.span("search.tabu_search"):
                    out = cc.tabu_search(cc.Params(self.n, self.k, self.colors), config)
            else:
                with tracer.span("search.extend_to_higher_dim"):
                    out = cc.extend_to_higher_dim(self.base, "freeze-subcube", self.colors, config)
            elapsed = time.perf_counter() - t0
        return elapsed, out

    def check(self, cc, out, pins: dict) -> OpResult:
        errors: list[str] = []
        color_of = list(out.best.color_of)
        if len(color_of) != 1 << self.n or not all(1 <= c <= self.colors for c in color_of):
            errors.append("result is not a complete assignment with colours 1..K")
        else:
            recount = checks.naive_conflicts(color_of, self.n, self.k)
            if recount != out.conflicts:
                errors.append(f"reported {out.conflicts} conflicts, recount {recount}")
            if self.base_classes is not None:
                for c, words in enumerate(self.base_classes, start=1):
                    if any(color_of[w] != c for w in words):
                        errors.append("frozen half does not keep the base colours")
                        break
        if self.must_solve and out.conflicts != 0:
            errors.append(f"did not solve: {out.conflicts} conflicts left")
        text = cc.save_coloring(out.best.to_coloring())
        if out.conflicts == 0:
            errors += checks.coloring_file_errors(text, self.n, self.k, self.colors)
        record = [out.conflicts, out.iterations_used, out.restarts_used, out.seed_used,
                  checks.sha256_text(text)]
        pin = pins.get(self.id)
        if pin is not None and pin != record:
            errors.append(f"trajectory {record[:4]} differs from pinned {pin[:4]}")
        return OpResult(0.0, errors, record, out.iterations_used, out.restarts_used + 1)


# ------------------------------------------------------------------- CLI ops


@dataclass
class CliOp:
    """One `python -m cubecolor.cli` invocation and what its output must satisfy.

    pin_prefixes and out_pinned name the outputs that are the same for every
    benchmark seed, and so are compared against pins.json.  Exit codes and
    wording that a robustness fix may change are checked, not pinned.
    """

    id: str
    argv: list[str]
    expect_rc: tuple[int, ...] = (0,)
    expect_lines: tuple[str, ...] = ()
    out_file: str | None = None  # "-" for stdout
    out_shape: tuple[int, int, int | None] | None = None  # n, k, class count
    out_pinned: bool = False
    pin_prefixes: tuple[str, ...] = ()
    extra_check: object = None  # callable(stdout, out_text) -> (errors, notes)
    solving = False

    @property
    def command(self) -> str:
        return self.argv[0]

    def run(self, workdir: Path, env: dict, tracer) -> tuple[float, object]:
        if self.out_file not in (None, "-"):
            # A file left by the previous pass must not pass for this one's output.
            (workdir / self.out_file).unlink(missing_ok=True)
        with tracer.span(f"op.{self.id}", self.id):
            t0 = time.perf_counter()
            with tracer.span(f"cli.{self.command}"):
                try:
                    proc = subprocess.run(
                        [sys.executable, "-m", "cubecolor.cli", *self.argv],
                        cwd=workdir, env=env, capture_output=True, text=True,
                        timeout=CLI_TIMEOUT_S,
                    )
                except subprocess.TimeoutExpired:
                    proc = None
            elapsed = time.perf_counter() - t0
        return elapsed, proc

    def check(self, workdir: Path, proc, pins: dict) -> OpResult:
        if proc is None:
            return OpResult(0.0, [f"timed out after {CLI_TIMEOUT_S} s"])
        errors: list[str] = []
        if proc.returncode not in self.expect_rc:
            errors.append(f"exit {proc.returncode}: {proc.stderr.strip()[-200:]}")
        lines = proc.stdout.splitlines()
        for want in self.expect_lines:
            if want not in lines:
                errors.append(f"missing output line {want!r}")
        out_text = None
        if self.out_file is not None:
            path = workdir / self.out_file
            out_text = proc.stdout if self.out_file == "-" else (
                path.read_text() if path.is_file() else None)
            if out_text is None:
                errors.append(f"{self.out_file} not written")
            elif self.out_shape is not None:
                errors += checks.coloring_file_errors(out_text, *self.out_shape)
        notes: dict = {"rc": proc.returncode}
        if self.extra_check is not None and out_text is not None:
            more, extra = self.extra_check(proc.stdout, out_text)
            errors += more
            notes.update(extra)
        record = {}
        if self.pin_prefixes:
            record["lines"] = [ln for ln in lines if ln.startswith(self.pin_prefixes)]
        if self.out_pinned and out_text is not None:
            record["out"] = checks.sha256_text(out_text)
        pin = pins.get(self.id)
        if pin is not None:
            for key, value in pin.items():
                if record.get(key) != value:
                    errors.append(f"{key} {record.get(key)!r} differs from pinned {value!r}")
        return OpResult(0.0, errors, record, notes=notes)


def colors_used_check(target: int):
    """Record DSATUR/greedy's colour count against --colors.

    Above the target the CLI currently still exits 0 (a known defect); the
    count is recorded so a fix shows, and exit 1 is accepted for that case.
    """

    def check(stdout: str, out_text: str):
        _, _, classes = checks.parse_coloring(out_text)
        used = sum(1 for c in classes if c)
        return [], {"colors_used": used, "colors_target": target}

    return check


def clause_count_check(n: int, k: int, colors: int, clique_units: int):
    """encode's clause count must equal 2^n + K * 2^n * (V - 1) / 2 + clique units."""
    degree = len(checks.ball_masks(n, k))
    expected = (1 << n) + colors * (1 << n) * degree // 2 + clique_units

    def check(stdout: str, dimacs: str):
        errors = []
        if f"clauses: {expected}" not in stdout.splitlines():
            errors.append(f"encode did not report {expected} clauses")
        body = [ln for ln in dimacs.splitlines() if ln and ln[0] not in "cp"]
        header = [ln for ln in dimacs.splitlines() if ln.startswith("p ")]
        if header != [f"p cnf {(1 << n) * colors} {expected}"] or len(body) != expected:
            errors.append(f"DIMACS holds {len(body)} clauses, header {header}, expected {expected}")
        return errors, {"clauses": expected}

    return check


def same_partition_check(classes: list[list[int]]):
    def check(stdout: str, out_text: str):
        _, _, got = checks.parse_coloring(out_text)
        ok = checks.same_partition(got, classes)
        return ([] if ok else ["decoded coloring differs from the encoded one"]), {}

    return check


def solver_model_text(classes: list[list[int]], colors: int, rng: random.Random) -> str:
    """A model in the usual solver output convention, literals in random order."""
    lits = []
    for c, words in enumerate(classes, start=1):
        other = c % colors + 1
        for w in words:
            lits += [w * colors + c, -(w * colors + other)]
    rng.shuffle(lits)
    rows = [" ".join(map(str, lits[i:i + 12])) for i in range(0, len(lits), 12)]
    return "c written by the benchmark\ns SATISFIABLE\n" + "".join(f"v {r}\n" for r in rows) + "v 0\n"


# --------------------------------------------------------------- workloads


@dataclass
class Workload:
    name: str
    seed: int
    ops: list
    workdir: Path
    env: dict


def prepare(name: str, seed: int, cc, root: Path, workdir: Path, sizes: Sizes) -> Workload:
    """Build one workload's inputs from the seed, then fill the package's
    per-graph cache with one conflict_count per (n, k) the operations use."""
    rng = random.Random(f"{name}:{seed}")
    workdir.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    graphs: tuple[tuple[int, int], ...] = ()
    if name == "q8_cold":
        pool = list(sizes.q8_pool)
        rng.shuffle(pool)
        ops = [
            SearchOp(f"q8k14:s{p}:B{sizes.q8_budget}:R{sizes.q8_restarts}", "q8k14", 8, 2, 14,
                     p, sizes.q8_budget, sizes.q8_restarts)
            for p in pool
        ]
        graphs = ((8, 2),)
    elif name == "frontier":
        fixture = fixture_classes(cc)
        f13 = [
            SearchOp(f"q9f13:w{seed}.{i}:B{sizes.f13_budget}", "q9f13", 9, 2, 13,
                     rng.randrange(10**6), sizes.f13_budget,
                     base_classes=automorphic_image(fixture, 8, rng), must_solve=False)
            for i in range(sizes.f13_ops)
        ]
        f16 = [
            SearchOp(f"q9f16:s{p}:B{sizes.f16_budget}", "q9f16", 9, 2, 16, p, sizes.f16_budget,
                     base_classes=fixture)
            for p in sizes.f16_pool
        ]
        q10 = [
            SearchOp(f"q10k40:s{s}:B{sizes.q10_budget}", "q10k40", 10, 2, 40, s, sizes.q10_budget)
            for s in (rng.randrange(10**6) for _ in range(sizes.q10_ops))
        ]
        # Interleave the three kinds so drift within a pass hits all of them.
        ops = [op for group in zip_longest(f13, f16, q10) for op in group if op is not None]
        graphs = ((9, 2), (10, 2))
    elif name == "toolchain":
        ops = toolchain_ops(cc, rng, workdir)
    else:
        raise ValueError(f"unknown workload {name!r}")
    for op in ops:
        if isinstance(op, SearchOp):
            op.prepare(cc)
    for n, k in graphs:
        cc.conflict_count(cc.Assignment(cc.Params(n, k), [1] * (1 << n)))
    return Workload(name, seed, ops, workdir, env)


def toolchain_ops(cc, rng: random.Random, workdir: Path) -> list[CliOp]:
    image = automorphic_image(fixture_classes(cc), 8, rng)
    (workdir / "q8_in.txt").write_text(coloring_text(8, 2, image))
    (workdir / "model.txt").write_text(solver_model_text(image, 13, rng))
    valid = ("status: valid",)
    return [
        CliOp("fixture", ["fixture"], out_file="-", out_shape=(8, 2, 13), out_pinned=True),
        CliOp("verify.q8", ["verify", "q8_in.txt"], expect_lines=valid,
              pin_prefixes=("coloring:", "status:")),
        CliOp("stats.q8", ["stats", "q8_in.txt"], pin_prefixes=("coloring:", "fingerprint:")),
        CliOp("bound.n8k2", ["bound", "--n", "8", "--k", "2"], expect_lines=("13",)),
        CliOp("bound.n10k5", ["bound", "--n", "10", "--k", "5"], expect_lines=("171",)),
        # Not `bound --n 10 --k 2`: A(10,3) is not in the table, so it runs the exact
        # search for about 100 s without output and then exits 2.  See ROADMAP item 4.
        CliOp("extend.double.q9", ["extend", "--in", "q8_in.txt", "--strategy", "double",
                                   "--out", "q9_26.txt"],
              expect_lines=("colors: 26", "conflicts: 0"), out_file="q9_26.txt",
              out_shape=(9, 2, 26)),
        CliOp("verify.q9", ["verify", "q9_26.txt"], expect_lines=valid,
              pin_prefixes=("coloring:", "status:")),
        CliOp("search.dsatur.q8", ["search", "--n", "8", "--k", "2", "--colors", "16",
                                   "--algo", "dsatur", "--out", "q8_dsatur.txt"],
              expect_rc=(0, 1), out_file="q8_dsatur.txt", out_shape=(8, 2, None),
              out_pinned=True, extra_check=colors_used_check(16)),
        CliOp("search.dsatur.q10", ["search", "--n", "10", "--k", "2", "--colors", "23",
                                    "--algo", "dsatur", "--out", "q10_dsatur.txt"],
              out_file="q10_dsatur.txt", out_shape=(10, 2, None), out_pinned=True,
              extra_check=colors_used_check(23)),
        CliOp("search.greedy.q12", ["search", "--n", "12", "--k", "2", "--colors", "16",
                                    "--algo", "greedy", "--out", "q12_greedy.txt"],
              out_file="q12_greedy.txt", out_shape=(12, 2, None), out_pinned=True,
              extra_check=colors_used_check(16)),
        CliOp("verify.q12", ["verify", "q12_greedy.txt"], expect_lines=valid,
              pin_prefixes=("coloring:", "status:")),
        CliOp("stats.q12", ["stats", "q12_greedy.txt"], pin_prefixes=("coloring:", "fingerprint:")),
        CliOp("encode.q8k13", ["encode", "--n", "8", "--k", "2", "--colors", "13",
                               "--symmetry", "fix-clique", "--out", "q8k13.cnf"],
              out_file="q8k13.cnf", out_pinned=True, pin_prefixes=("variables:", "clauses:"),
              extra_check=clause_count_check(8, 2, 13, clique_units=1 + len(checks.ball_masks(8, 1)))),
        CliOp("decode-model.q8", ["decode-model", "--n", "8", "--k", "2", "--colors", "13",
                                  "--model", "model.txt", "--out", "q8_decoded.txt"],
              expect_lines=("decoded 13 classes",), out_file="q8_decoded.txt",
              out_shape=(8, 2, 13), extra_check=same_partition_check(image)),
        CliOp("verify.decoded", ["verify", "q8_decoded.txt"], expect_lines=valid,
              pin_prefixes=("coloring:", "status:")),
    ]


def run_op(op, wl: Workload, cc, tracer, pins: dict) -> OpResult:
    """Time one operation, then check it outside the timed region.

    A full collection first, untimed, so that the garbage of the operations
    before (whose order the seed sets) does not land in this one's time.
    """
    gc.collect()
    if isinstance(op, SearchOp):
        elapsed, out = op.run(cc, tracer)
        result = op.check(cc, out, pins)
    else:
        elapsed, proc = op.run(wl.workdir, wl.env, tracer)
        result = op.check(wl.workdir, proc, pins)
    result.elapsed = elapsed
    return result
