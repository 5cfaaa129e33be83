"""Smoke test of the benchmark at tiny sizes (under a minute).

Run from the root of a checkout: python3 -m pytest perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import probes
import run
import workloads
from spans import NullTracer, Tracer
from workloads import CliOp, SearchOp, Sizes

ROOT = Path(__file__).resolve().parent.parent
PINS = json.loads((Path(__file__).parent / "pins.json").read_text())

# Seed 1006 solves (8, 2, 14) in 3306 iterations and seed 1 solves the K=16
# lift in 2944; (10, 2, 40) needs under 400.
TINY = Sizes(q8_pool=(1006,), q8_budget=4000, q8_restarts=0, f13_ops=1, f13_budget=200,
             f16_pool=(1,), f16_budget=5000, q10_ops=1, q10_budget=500, probe_q8_seed=1006)


@pytest.fixture(scope="module")
def cc():
    return workloads.load_package(ROOT)


def test_traced_run_reports_every_per_layer_metric(cc):
    # Runs first: the q12 first-call probe needs a process that has not built (12, 2).
    lines, result = run.bench(cc, ROOT, ["frontier"], 0, 0, True, TINY, PINS, setup_reps=1)
    assert result["correct"], lines
    metrics = result["metrics"]
    assert list(metrics) == [name for name, _, _ in probes.PER_LAYER]
    assert metrics["sat.clauses.q8k13"]["value"] == 60160
    assert metrics["coloring.verify_pairs.q12"]["value"] == 522240
    assert metrics["search.tabu_iters.q8k14"]["value"] == 3306
    assert metrics["search.tabu_iters.q9f13"]["value"] == 200
    assert metrics["search.tabu_iters.q10k40"]["value"] == 372
    assert any(line.startswith("frontier   trace overhead wall_s") for line in lines)
    assert any(line.startswith("self time (passes) search") for line in lines)
    assert (ROOT / ".perfbench_out" / "spans-frontier-s0-passes.jsonl").is_file()


def test_untraced_run_of_every_workload(cc):
    lines, result = run.bench(cc, ROOT, list(workloads.WORKLOADS), 0, 0, False, TINY, PINS,
                              setup_reps=1)
    assert result["correct"], lines
    assert result["failed"] == 0
    assert result["attempted"] == run.MIN_PASSES * (1 + 3 + 15)
    names = {f"{w}.{m}" for w in workloads.WORKLOADS for m, _ in run.END_TO_END}
    assert set(result["metrics"]) == names
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert sum(" time_scale " in line for line in lines) == len(workloads.WORKLOADS)
    assert any("ABOVE TARGET" in line for line in lines)
    json.dumps(result)


def test_benchmark_json_lists_the_metrics_the_run_prints():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == probes.PER_LAYER
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)


def test_inputs_follow_the_seed(cc, tmp_path):
    def ids(seed):
        return [op.id for op in workloads.prepare("frontier", seed, cc, ROOT, tmp_path, TINY).ops]

    assert ids(3) == ids(3)
    assert ids(3) != ids(4)
    model = (tmp_path / "model.txt")
    workloads.prepare("toolchain", 3, cc, ROOT, tmp_path, TINY)
    first = model.read_text()
    workloads.prepare("toolchain", 3, cc, ROOT, tmp_path, TINY)
    assert model.read_text() == first


def test_partition_check_catches_broken_colorings(cc):
    fixture = workloads.fixture_classes(cc)
    assert checks.partition_errors(8, 2, fixture) == []
    moved = [list(c) for c in fixture]
    moved[1].append(moved[0].pop())
    assert checks.partition_errors(8, 2, moved)
    missing = [list(c) for c in fixture]
    missing[0].pop()
    assert checks.partition_errors(8, 2, missing)
    doubled = [list(c) for c in fixture]
    doubled[1].append(doubled[0][0])
    assert checks.partition_errors(8, 2, doubled)


def test_search_check_fails_unsolved_moved_and_unpinned_results(cc):
    op = SearchOp("tiny", "q8k14", 8, 2, 14, 1006, 300)
    _, out = op.run(cc, NullTracer())
    assert any("did not solve" in e for e in op.check(cc, out, {}).errors)

    op = SearchOp("tiny", "q8k14", 8, 2, 14, 1006, 4000)
    _, out = op.run(cc, Tracer())
    good = op.check(cc, out, {})
    assert good.errors == []
    assert op.check(cc, out, {"tiny": good.record}).errors == []
    wrong = [good.record[0], good.record[1] + 1, *good.record[2:]]
    assert any("pinned" in e for e in op.check(cc, out, {"tiny": wrong}).errors)

    lift = SearchOp("lift", "q9f13", 9, 2, 13, 0, 100, base_classes=workloads.fixture_classes(cc),
                    must_solve=False)
    lift.prepare(cc)
    _, out = lift.run(cc, NullTracer())
    assert lift.check(cc, out, {}).errors == []
    out.best.color_of[0] = out.best.color_of[0] % 13 + 1
    errors = lift.check(cc, out, {}).errors
    assert any("frozen half" in e for e in errors)
    assert any("recount" in e for e in errors)


def test_cli_check_fails_wrong_exit_and_output(tmp_path):
    op = CliOp("verify.x", ["verify", "x.txt"], expect_lines=("status: valid",),
               pin_prefixes=("status:",))
    bad = subprocess.CompletedProcess([], 1, stdout="status: invalid (3 violations)\n", stderr="")
    errors = op.check(tmp_path, bad, {"verify.x": {"lines": ["status: valid"]}}).errors
    assert any(e.startswith("exit 1") for e in errors)
    assert any("missing output line" in e for e in errors)
    assert any("pinned" in e for e in errors)
    assert op.check(tmp_path, None, {}).errors


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "toolchain",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
