"""Coloring file format and the command-line surface."""

import argparse
import contextlib
import io
import json
import os
import random
import shlex
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cubecolor
import oracles
from cubecolor import bounds, cli, coloring, sat, search
from cubecolor.cli import main
from cubecolor.coloring import coloring_from_classes, fingerprint, verify_coloring
from cubecolor.files import ColoringParseError, load_coloring, save_coloring
from cubecolor.fixture import q8_square_13_coloring
from cubecolor.hamming import Params
from cubecolor.sat import SYMMETRIES, EncodeOptions, encode_coloring_cnf, write_dimacs
from cubecolor.search import SearchConfig

Q3_TEXT = "n 3\nk 2\nclasses 4\nclass 0 7\nclass 1 6\nclass 2 5\nclass 3 4\n"


def test_save_load_round_trip_fixture():
    col = q8_square_13_coloring()
    back = load_coloring(save_coloring(col))
    assert back.params == col.params
    assert back.classes == col.classes


def test_save_writes_sorted_words_and_headers():
    col = coloring_from_classes(Params(3, 2, 4), [[7, 0], [6, 1], [5, 2], [4, 3]])
    assert save_coloring(col) == Q3_TEXT


def test_load_accepts_comments_blanks_and_empty_classes():
    text = "# comment\n\nn 2\nk 1\nclasses 3\nclass 0 3\n\nclass 1 2\nclass\n"
    col = load_coloring(text)
    assert [c.sorted_words() for c in col.classes] == [[0, 3], [1, 2], []]
    assert col.params == Params(2, 1, 3)


@given(st.integers(0, 10**9))
def test_save_load_round_trip_random(seed):
    rng = random.Random(seed)
    n = rng.randrange(1, 6)
    k = rng.randrange(1, n + 1)
    order = list(range(1 << n))
    rng.shuffle(order)
    col = oracles.first_fit(Params(n, k), order)
    back = load_coloring(save_coloring(col))
    assert back.params == col.params
    assert back.classes == col.classes


# Each malformed file and the start of its error; every message about one
# line names it, and the header range messages are pinned byte for byte.
MALFORMED = {
    "k 2\nn 3\nclasses 1\nclass 0\n": "line 1: expected 'n <int>', got 'k 2'",  # headers out of order
    "n 3\nk 2\n": "unexpected end of file: missing 'classes' header line",
    "n 0\nk 0\nclasses 1\nclass\n": "line 1: n must be in 1..24, got 0",
    "n 3\nk 4\nclasses 1\nclass\n": "line 2: k must be in 0..3, got 4",
    "n 3\nk 2\nclasses 0\n": "line 3: classes must be in 1..8, got 0",
    "n 3\nk 2\nclasses 9\n": "line 3: classes must be in 1..8, got 9",
    "n 3\nk 2\nclasses 2\nclass 0\n": "unexpected end of file: expected 2 class lines, found 1",
    "n 3\nk 2\nclasses 1\nclass 0\nclass 1\n": "line 5: expected 1 class lines, found 2",
    "n 3\nk 2\nclasses 1\nclass 8\n": "line 4: word 8 out of range for n=3",
    "n 3\nk 2\nclasses 1\nclass x\n": "line 4: invalid literal for int() with base 10: 'x'",
    "n 3\nk 2\nclasses 1\nclass 1 1\n": "line 4: word 1 listed twice in one class",
    "n 3\nk 2\nclasses 1\nwords 0 1\n": "line 4: expected 'class ...', got 'words 0 1'",
    "n three\nk 2\nclasses 1\nclass\n": "line 1: invalid literal for int() with base 10: 'three'",
}


@pytest.mark.parametrize("text", list(MALFORMED))
def test_load_rejects_malformed(text):
    with pytest.raises(ColoringParseError) as exc:
        load_coloring(text)
    assert str(exc.value) == MALFORMED[text]


def test_cross_class_duplicate_is_a_verifier_matter_not_a_parse_error():
    text = "n 1\nk 1\nclasses 2\nclass 0 1\nclass 0\n"
    col = load_coloring(text)
    report = verify_coloring(col)
    assert not report.valid
    assert any(v.kind == "duplicate-word" for v in report.violations)


# --- CLI ---


@pytest.fixture
def q3_file(tmp_path):
    path = tmp_path / "q3.txt"
    path.write_text(Q3_TEXT)
    return str(path)


def test_cli_verify_valid(q3_file, capsys):
    assert main(["verify", q3_file]) == 0
    out = capsys.readouterr().out
    assert "status: valid" in out
    assert "class 1: size=2 min_distance=3" in out


def test_cli_verify_invalid(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("n 3\nk 2\nclasses 4\nclass 0 1\nclass 2 5\nclass 3 4\nclass 6 7\n")
    assert main(["verify", str(path)]) == 1
    out = capsys.readouterr().out
    assert "violation: distance-violation words=0,1 classes=1" in out
    assert "status: invalid" in out


def test_cli_verify_tiny_file_with_large_n_prints_twenty_witnesses(tmp_path, capsys):
    path = tmp_path / "empty20.txt"
    path.write_text("n 20\nk 1\nclasses 1\nclass\n")
    assert main(["verify", str(path)]) == 1
    lines = capsys.readouterr().out.splitlines()
    witnesses = [line for line in lines if line.startswith("violation: ")]
    assert witnesses == [f"violation: missing-word words={w}" for w in range(20)]
    assert lines[-2:] == [f"... and {2**20 - 20} more violations",
                          f"status: invalid ({2**20} violations)"]


def test_cli_verify_parse_error(tmp_path, capsys):
    path = tmp_path / "garbage.txt"
    path.write_text("not a coloring\n")
    assert main(["verify", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_class_count_above_word_count_names_its_line(tmp_path, capsys):
    path = tmp_path / "five.txt"
    path.write_text("# four words, five classes\nn 2\nk 1\nclasses 5\nclass 0\nclass 1\n"
                    "class 2\nclass 3\nclass\n")
    assert main(["verify", str(path)]) == 2
    assert capsys.readouterr().err == "error: line 4: classes must be in 1..4, got 5\n"


def test_cli_verify_missing_file(capsys):
    assert main(["verify", "/no/such/file"]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_bound(capsys):
    assert main(["bound", "--n", "8", "--k", "2"]) == 0
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert lines[0] == "13"
    assert "known-table" in lines[1] and "20" in lines[1]
    assert captured.err == ""  # the table answers: no search, no budget line


def test_cli_bound_n10_answers_from_the_table(capsys):
    # A(10,3) = 72 is cited, so no exact search runs (it would exhaust its
    # 3 * 10**6-node budget after about 22 s on a 2-vCPU VM).
    assert main(["bound", "--n", "10", "--k", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "15"  # ceil(1024/72)
    assert lines[1].startswith("source: known-table, A(10,3) = 72 [Östergård, Baicheva, Kolev")


def test_cli_bound_answers_even_distances_from_the_odd_entry(capsys):
    # A(10,4) = A(9,3) = 40; without the identity this ran the exact search
    # for about 25 s and exited 2.
    start = time.perf_counter()
    assert main(["bound", "--n", "10", "--k", "3"]) == 0
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().out.splitlines() == [
        "26",  # ceil(1024/40)
        "source: known-table, A(10,4) = 40 [A(10,4) = A(9,3), even-weight"
        " extension/shortening; Best (1980); upper bound in Best et al. (1978)]",
    ]


def test_cli_bound_runs_the_exact_search_when_the_table_has_no_entry(capsys):
    # Neither A(10,6) nor A(9,5) is cited; the clique-cover search settles
    # A(9,5) in 926 nodes, where it meets the Plotkin bound.  Before it
    # starts, stderr names what it searches and its node budget; when it
    # ends, the nodes it spent.
    assert main(["bound", "--n", "10", "--k", "5"]) == 0
    captured = capsys.readouterr()
    assert captured.out.splitlines() == [
        "171", "source: exact-computation, A(10,6) = 6"  # ceil(1024/6)
    ]
    budget = bounds.DEFAULT_NODE_BUDGET
    assert captured.err.splitlines() == [
        f"exact search for A(10,6) = A(9,5), node budget {budget}",
        "A(9,5): exact after 926 nodes",
    ]


def test_cli_bound_answers_plotkin_2_cells_beyond_the_search_range(capsys):
    # {0, 1^24} is a code and Plotkin's bound rules out a third word; this
    # exited 2, out of exact-search range, before the closed form.
    assert main(["bound", "--n", "24", "--k", "23"]) == 0
    captured = capsys.readouterr()
    assert captured.out.splitlines() == ["8388608", "source: exact-computation, A(24,24) = 2"]
    assert captured.err == ""


def test_cli_bound_unknown_is_operational_error(capsys):
    assert main(["bound", "--n", "13", "--k", "2"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "n,k,message",
    [
        ("5", "-3", "power k must be in 0..n=5, got -3"),
        ("5", "9", "power k must be in 0..n=5, got 9"),
        ("0", "0", "dimension n must be in 1..24, got 0"),
        ("-1", "1", "dimension n must be in 1..24, got -1"),
        ("25", "1", "dimension n must be in 1..24, got 25"),
    ],
)
def test_cli_bound_rejects_out_of_range_params(capsys, n, k, message):
    assert main(["bound", "--n", n, "--k", k]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


def test_cli_search_tabu_success(tmp_path, capsys):
    out_path = tmp_path / "out.txt"
    rc = main(
        ["search", "--n", "3", "--k", "2", "--colors", "4", "--seed", "1", "--out", str(out_path)]
    )
    assert rc == 0
    assert "conflicts: 0" in capsys.readouterr().out
    assert verify_coloring(load_coloring(out_path.read_text())).valid


def test_cli_search_reports_failure_but_writes_best(tmp_path, capsys):
    out_path = tmp_path / "out.txt"
    rc = main(
        ["search", "--n", "3", "--k", "2", "--colors", "3", "--max-iters", "50",
         "--out", str(out_path)]
    )
    assert rc == 1
    assert "conflicts:" in capsys.readouterr().out
    assert out_path.exists()
    assert len(load_coloring(out_path.read_text()).classes) == 3


def test_cli_search_greedy_and_dsatur(tmp_path, capsys):
    for algo in ("greedy", "dsatur"):
        out_path = tmp_path / f"{algo}.txt"
        rc = main(
            ["search", "--n", "4", "--k", "2", "--colors", "8", "--algo", algo,
             "--out", str(out_path)]
        )
        assert rc == 0
        assert "colors used:" in capsys.readouterr().out
        assert verify_coloring(load_coloring(out_path.read_text())).valid


def test_cli_search_dsatur_above_target_exits_1_but_writes(tmp_path, capsys):
    # DSATUR needs 17 colors on Q_8^2; the file is still written, since it is
    # a valid coloring, but a count above --colors is reported as a miss.
    out_path = tmp_path / "q8_dsatur.txt"
    rc = main(
        ["search", "--n", "8", "--k", "2", "--colors", "16", "--algo", "dsatur",
         "--out", str(out_path)]
    )
    assert rc == 1
    assert "colors used: 17 (above target)" in capsys.readouterr().out
    col = load_coloring(out_path.read_text())
    assert len(col.classes) == 17
    assert verify_coloring(col).valid


def test_cli_search_with_init(q3_file, tmp_path, capsys):
    out_path = tmp_path / "out.txt"
    rc = main(
        ["search", "--n", "3", "--k", "2", "--colors", "4", "--init", q3_file,
         "--out", str(out_path)]
    )
    assert rc == 0
    assert "iterations: 0" in capsys.readouterr().out  # init already has no conflicts


@pytest.mark.parametrize("algo", ["greedy", "dsatur"])
def test_cli_search_rejects_init_without_tabu(q3_file, tmp_path, capsys, algo):
    # Only tabu starts from a coloring; greedy and DSATUR ignored --init.
    out_path = tmp_path / "out.txt"
    rc = main(
        ["search", "--n", "3", "--k", "2", "--colors", "4", "--algo", algo, "--init", q3_file,
         "--out", str(out_path)]
    )
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--init" in captured.err
    assert not out_path.exists()


def test_cli_search_init_params_mismatch(q3_file, tmp_path, capsys):
    rc = main(
        ["search", "--n", "4", "--k", "2", "--colors", "8", "--init", q3_file,
         "--out", str(tmp_path / "x.txt")]
    )
    assert rc == 2
    assert "different n or k" in capsys.readouterr().err


def test_cli_search_init_rejects_a_word_in_two_classes(tmp_path, capsys):
    path = tmp_path / "dup.txt"
    path.write_text("n 3\nk 2\nclasses 4\nclass 0 7\nclass 1 6\nclass 2 5\nclass 0 3 4\n")
    rc = main(
        ["search", "--n", "3", "--k", "2", "--colors", "4", "--init", str(path),
         "--out", str(tmp_path / "x.txt")]
    )
    assert rc == 2
    assert capsys.readouterr().err == "error: word 0 is in classes 1 and 4\n"
    assert not (tmp_path / "x.txt").exists()


def test_cli_search_init_rejects_a_word_in_no_class(tmp_path, capsys):
    path = tmp_path / "gap.txt"
    path.write_text("n 3\nk 2\nclasses 4\nclass 0 7\nclass 1 6\nclass 2 5\nclass 3\n")
    rc = main(
        ["search", "--n", "3", "--k", "2", "--colors", "4", "--init", str(path),
         "--out", str(tmp_path / "x.txt")]
    )
    assert rc == 2
    assert capsys.readouterr().err == "error: word 4 is in no class\n"
    assert not (tmp_path / "x.txt").exists()


def test_cli_extend_double(q3_file, tmp_path, capsys):
    out_path = tmp_path / "q4.txt"
    rc = main(["extend", "--in", q3_file, "--strategy", "double", "--out", str(out_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "colors: 8" in out and "conflicts: 0" in out
    col = load_coloring(out_path.read_text())
    assert col.params == Params(4, 2, 8)
    assert verify_coloring(col).valid


def test_cli_extend_freeze_subcube(q3_file, tmp_path, capsys):
    out_path = tmp_path / "q4.txt"
    rc = main(
        ["extend", "--in", q3_file, "--strategy", "freeze-subcube", "--colors", "8",
         "--seed", "0", "--out", str(out_path)]
    )
    assert rc == 0
    assert "conflicts: 0" in capsys.readouterr().out
    assert verify_coloring(load_coloring(out_path.read_text())).valid


def test_cli_encode_decode_round_trip(tmp_path, capsys):
    cnf_path = tmp_path / "q3.cnf"
    rc = main(["encode", "--n", "3", "--k", "2", "--colors", "4", "--out", str(cnf_path)])
    assert rc == 0
    header = [line for line in cnf_path.read_text().splitlines() if line.startswith("p ")]
    assert header == ["p cnf 32 104"]

    model_path = tmp_path / "model.txt"
    col = coloring_from_classes(Params(3, 2, 4), [[0, 7], [1, 6], [2, 5], [3, 4]])
    lits = sorted(oracles.coloring_to_model(col))
    model_path.write_text("v " + " ".join(map(str, lits)) + " 0\n")
    out_path = tmp_path / "decoded.txt"
    rc = main(
        ["decode-model", "--n", "3", "--k", "2", "--colors", "4",
         "--model", str(model_path), "--out", str(out_path)]
    )
    assert rc == 0
    assert capsys.readouterr().out.splitlines()[-2:] == ["decoded 4 classes", "status: valid"]
    back = load_coloring(out_path.read_text())
    assert back.classes == col.classes


def test_cli_decode_model_of_an_invalid_coloring_exits_1(tmp_path, capsys):
    # The even/odd 2-coloring of Q_8 is proper for k = 1 but puts 3584 pairs
    # at distance 2 in one class, so decoding it for k = 2 must not pass.
    col = coloring_from_classes(
        Params(8, 1, 2), [[w for w in range(256) if w.bit_count() % 2 == p] for p in (0, 1)]
    )
    model_path = tmp_path / "model.txt"
    model_path.write_text("v " + " ".join(map(str, sorted(oracles.coloring_to_model(col)))) + " 0\n")
    out_path = tmp_path / "decoded.txt"
    rc = main(
        ["decode-model", "--n", "8", "--k", "2", "--colors", "2",
         "--model", str(model_path), "--out", str(out_path)]
    )
    assert rc == 1
    out = capsys.readouterr().out
    assert out.splitlines() == ["decoded 2 classes", "status: invalid (3584 violations)"]
    assert load_coloring(out_path.read_text()).classes == col.classes


@pytest.mark.parametrize("amo", [False, True])
@pytest.mark.parametrize("symmetry", SYMMETRIES)
def test_cli_encode_writes_the_library_dimacs(tmp_path, capsys, symmetry, amo):
    cnf_path = tmp_path / "q3.cnf"
    argv = ["encode", "--n", "3", "--k", "2", "--colors", "4", "--symmetry", symmetry]
    assert main(argv + ["--amo"] * amo + ["--out", str(cnf_path)]) == 0
    options = EncodeOptions(at_most_one=amo, symmetry=symmetry)
    expected = write_dimacs(encode_coloring_cnf(Params(3, 2, 4), options))
    assert cnf_path.read_bytes() == expected.encode()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--n", "3", "--k", "2", "--colors", "3", "--symmetry", "fix-clique"],
         "fix-clique needs at least 4 colors, got 3"),
        (["--n", "17", "--k", "2", "--colors", "4"],
         "encoding would build 40239104 clauses, above the limit of 6000000"),
    ],
)
def test_cli_encode_checks_its_input_before_writing(tmp_path, capsys, argv, message):
    # encode writes clauses as it generates them, so a check that ran late
    # would leave a partial file behind.
    cnf_path = tmp_path / "bad.cnf"
    assert main(["encode", *argv, "--out", str(cnf_path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not cnf_path.exists()


def test_cli_encode_streams_the_clauses(tmp_path, capsys):
    # Held as tuples, the 18,048 clauses of (7,2,10) peak at 2.8 MiB; written
    # as they are generated, one block at a time from two strings per
    # variable, encode peaks at 0.6 MiB.
    cnf_path = tmp_path / "q7.cnf"
    argv = ["encode", "--n", "7", "--k", "2", "--colors", "10", "--out", str(cnf_path)]
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert capsys.readouterr().out == "variables: 1280\nclauses: 18048\n"
    expected = write_dimacs(encode_coloring_cnf(Params(7, 2, 10)))
    assert cnf_path.read_bytes() == expected.encode()


@pytest.mark.parametrize("k,clauses", [(0, 1024), (1, 328704)])
def test_cli_encode_memory_does_not_grow_with_the_variable_count(tmp_path, capsys, k, clauses):
    # The writer holds strings for one vertex at a time, so the 65,536
    # variables of (10,k,64) fit in 1 MiB; a string per variable, as a cache
    # of literal strings would hold, takes about 9 MiB.
    cnf_path = tmp_path / "q10.cnf"
    argv = ["encode", "--n", "10", "--k", str(k), "--colors", "64", "--out", str(cnf_path)]
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert capsys.readouterr().out == f"variables: 65536\nclauses: {clauses}\n"
    assert cnf_path.read_bytes() == write_dimacs(encode_coloring_cnf(Params(10, k, 64))).encode()


@settings(deadline=None)
@given(st.integers(0, 10**9))
def test_cli_encode_writes_the_library_formula_byte_for_byte(tmp_path_factory, seed):
    # The CLI writes its text from clause blocks and per-vertex templates,
    # the library holds tuples; both expand the one block generator, so every
    # option gives the same bytes as write_dimacs.
    rng = random.Random(seed)
    n = rng.randrange(1, 7)
    k = rng.randrange(0, n + 1)
    colors = rng.randrange(1, min(1 << n, 20) + 1)
    amo = rng.random() < 0.5
    symmetry = rng.choice(SYMMETRIES)
    params, options = Params(n, k, colors), EncodeOptions(at_most_one=amo, symmetry=symmetry)
    cnf_path = tmp_path_factory.mktemp("encode") / "out.cnf"
    argv = ["encode", "--n", str(n), "--k", str(k), "--colors", str(colors),
            "--symmetry", symmetry, *(["--amo"] if amo else []), "--out", str(cnf_path)]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    try:
        expected = write_dimacs(encode_coloring_cnf(params, options))
    except ValueError:  # fix-clique with fewer colors than the clique
        assert code == 2 and not cnf_path.exists()
        return
    assert code == 0
    assert cnf_path.read_bytes() == expected.encode()


def test_cli_decode_model_incomplete_is_error(tmp_path, capsys):
    model_path = tmp_path / "model.txt"
    model_path.write_text("v 1 0\n")
    rc = main(
        ["decode-model", "--n", "3", "--k", "2", "--colors", "4",
         "--model", str(model_path), "--out", str(tmp_path / "x.txt")]
    )
    assert rc == 2
    assert "no true color" in capsys.readouterr().err


def test_cli_decode_model_bad_token_names_the_line(tmp_path, capsys):
    model_path = tmp_path / "model.txt"
    model_path.write_text("s SATISFIABLE\nv 1 -2 x 0\n")
    rc = main(
        ["decode-model", "--n", "3", "--k", "2", "--colors", "4",
         "--model", str(model_path), "--out", str(tmp_path / "x.txt")]
    )
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: line 2: invalid literal for int()")


def test_cli_stats(q3_file, capsys):
    assert main(["stats", q3_file]) == 0
    out = capsys.readouterr().out
    assert "fingerprint: n=3;k=2;" in out
    assert "class 1: size=2 min_distance=3" in out


@pytest.mark.parametrize(
    "text,walks",
    [
        (Q3_TEXT, 1),
        ("n 3\nk 2\nclasses 4\nclass 0 1\nclass 2 5\nclass 3 4\nclass 6 7\n", 2),  # distance
        ("n 2\nk 1\nclasses 3\nclass 0 3\nclass 0\nclass\n", 3),  # duplicate, missing, empty
    ],
    ids=["valid", "distance-violation", "duplicate-word"],
)
def test_cli_stats_fingerprint_matches_library_and_walks_each_class_once(
    text, walks, tmp_path, capsys, monkeypatch
):
    path = tmp_path / "col.txt"
    path.write_text(text)
    # Classes that are translates of each other by the difference of their
    # least words share one pair walk: Q3_TEXT's four complement pairs are
    # all {0, 7} translated, and the distance case has two keys, {0, 1} and
    # {0, 7}.  Every class still gets its own line, equal to class_stats.
    walked = []
    real_walk = coloring._distance_histogram

    def counting(words, n):
        walked.append(frozenset(words))
        return real_walk(words, n)

    monkeypatch.setattr(coloring, "_distance_histogram", counting)
    assert main(["stats", str(path)]) == 0
    monkeypatch.undo()
    col = load_coloring(text)
    keys = {frozenset(w ^ min(c.words, default=0) for w in c.words) for c in col.classes}
    assert len(walked) == len(keys) == walks
    assert set(walked) == keys
    lines = capsys.readouterr().out.splitlines()
    for i, c in enumerate(col.classes, start=1):
        s = coloring.class_stats(c)
        assert lines[i].endswith(
            f" weights={','.join(map(str, s.weight_distribution))}"
            f" distances={','.join(map(str, s.distance_distribution[1:]))}"
        )
    assert lines[-1] == f"fingerprint: {fingerprint(col).decode()}"


def test_cli_fixture_pipes_into_verify(capsys, tmp_path):
    assert main(["fixture"]) == 0
    text = capsys.readouterr().out
    col = load_coloring(text)
    assert verify_coloring(col).valid
    path = tmp_path / "fixture.txt"
    path.write_text(text)
    assert main(["verify", str(path)]) == 0


@pytest.mark.parametrize("unbuffered", ["", "1"])
def test_cli_closed_stdout_exits_141_quietly(tmp_path, unbuffered):
    path = tmp_path / "q8.txt"
    path.write_text(save_coloring(q8_square_13_coloring()))
    src = str(Path(cubecolor.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src, "PYTHONUNBUFFERED": unbuffered}
    proc = subprocess.Popen(
        [sys.executable, "-m", "cubecolor.cli", "stats", str(path)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    proc.stdout.close()  # long before the child has imported enough to write
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 141
    assert err == b""


def test_cli_stdin_dash(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(Q3_TEXT))
    assert main(["verify", "-"]) == 0
    assert "status: valid" in capsys.readouterr().out


def test_cli_unknown_arguments_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--frobnicate", "x"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        main(["no-such-command"])


# The --help text of the top level and of each command, and stderr and exit
# code for malformed lines, byte for byte.  Recorded at 100 columns, a width at
# which argparse wraps alike on Python 3.10 to 3.13 (3.13 wraps usage lines
# differently at 80).
FRONT_END = json.loads(Path(__file__).with_name("cli_front_end.json").read_text())


@pytest.mark.parametrize("case", FRONT_END, ids=lambda case: " ".join(case["argv"]) or "no-args")
def test_cli_help_and_usage_errors_are_pinned(case, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "100")
    with pytest.raises(SystemExit) as exc:
        main(case["argv"])
    assert exc.value.code == case["code"]
    assert capsys.readouterr() == (case["stdout"], case["stderr"])


# --- What each entry point loads ---

SUBMODULES = {"bounds", "cli", "coloring", "files", "fixture", "hamming", "sat", "search", "tabu"}

# Standard modules that cost start-up time and that no entry point needs
# (pathlib alone pulls in urllib.parse and ipaddress; argparse brings gettext
# and, to build a parser, locale and shutil).  A well-formed command line never
# reaches argparse.
SLOW_IMPORTS = {
    "argparse", "dataclasses", "gettext", "importlib.resources", "inspect", "locale", "pathlib",
    "typing",
}

# (argv, or the name of a module to import bare; the submodules it must not
# load).  Each runs in a fresh `python -S`, so no site hook preloads a module
# and hides an import of it.
ENTRY_POINTS = [
    pytest.param("cubecolor", SUBMODULES, id="import"),
    # The kernel names search.SearchConfig only in annotations.
    pytest.param("cubecolor.tabu", SUBMODULES - {"tabu"}, id="import-tabu"),
    pytest.param(["fixture"], {"search", "sat", "bounds"}, id="fixture"),
    pytest.param(["verify", "{q3}"], {"search", "sat", "bounds", "fixture"}, id="verify"),
    pytest.param(["stats", "{q3}"], {"search", "sat", "bounds", "fixture"}, id="stats"),
    pytest.param(["bound", "--n", "8", "--k", "2"], {"search", "sat"}, id="bound"),
    pytest.param(
        ["encode", "--n", "3", "--k", "2", "--colors", "4", "--out", "{out}"],
        {"search", "bounds"}, id="encode",
    ),
    pytest.param(
        ["decode-model", "--n", "3", "--k", "2", "--colors", "4", "--model", "{model}",
         "--out", "{out}"],
        {"search", "bounds"}, id="decode-model",
    ),
    pytest.param(
        ["search", "--n", "3", "--k", "2", "--colors", "4", "--algo", "greedy", "--out", "{out}"],
        {"sat", "bounds", "tabu"}, id="search",
    ),
    pytest.param(
        ["search", "--n", "3", "--k", "2", "--colors", "4", "--algo", "dsatur", "--out", "{out}"],
        {"sat", "bounds", "tabu"}, id="search-dsatur",
    ),
    pytest.param(
        ["extend", "--in", "{q3}", "--strategy", "double", "--out", "{out}"],
        {"sat", "bounds", "tabu"}, id="extend",
    ),
]


@pytest.mark.parametrize("argv, unloaded", ENTRY_POINTS)
def test_each_entry_point_loads_only_what_it_runs(argv, unloaded, q3_file, tmp_path):
    model = tmp_path / "model.txt"
    col = coloring_from_classes(Params(3, 2, 4), [[0, 7], [1, 6], [2, 5], [3, 4]])
    model.write_text("v " + " ".join(map(str, sorted(oracles.coloring_to_model(col)))) + " 0\n")
    report = f"print(*(m for m in sys.modules if m in {SLOW_IMPORTS!r} or m[:10] == 'cubecolor.'))"
    if isinstance(argv, str):
        code = f"import {argv}, sys; {report}"
    else:
        files = {"q3": q3_file, "model": str(model), "out": str(tmp_path / "out")}
        argv = [a.format(**files) for a in argv]
        code = f"import sys; from cubecolor import cli; assert cli.main({argv!r}) == 0; {report}"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env={**os.environ, "PYTHONPATH": str(Path(cubecolor.__file__).parents[1])},
        capture_output=True,
        text=True,
        check=True,
    )
    loaded = set(proc.stdout.splitlines()[-1].split())
    assert not loaded & SLOW_IMPORTS
    loaded = {m.removeprefix("cubecolor.") for m in loaded - SLOW_IMPORTS}
    assert loaded <= SUBMODULES
    assert not loaded & unloaded


def test_package_exports_resolve_to_their_home_objects():
    assert len(cubecolor.__all__) == 44
    listed = dir(cubecolor)
    for name in cubecolor.__all__:
        value = getattr(cubecolor, name)
        assert getattr(sys.modules[value.__module__], name) is value, name
        assert name in listed
    namespace = {}
    exec("from cubecolor import *", namespace)
    assert namespace.keys() - {"__builtins__"} == set(cubecolor.__all__)
    with pytest.raises(AttributeError, match=r"^module 'cubecolor' has no attribute 'nope'$"):
        cubecolor.nope


def _option(command, flag):
    parser = cli.build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return next(a for a in commands.choices[command]._actions if flag in a.option_strings)


def test_cli_parser_choices_and_defaults_are_the_librarys():
    assert _option("extend", "--strategy").choices == search.STRATEGIES
    assert _option("encode", "--symmetry").choices == sat.SYMMETRIES
    assert _option("encode", "--symmetry").default == sat.SYMMETRY_NONE
    for argv in (
        ["search", "--n", "3", "--k", "2", "--colors", "4", "--out", "x"],
        ["extend", "--in", "x", "--strategy", "double", "--out", "y"],
    ):
        parse = cli.build_parser().parse_args
        assert cli._search_config(parse(argv)) == SearchConfig()
        given = parse([*argv, "--seed", "5", "--max-iters", "7", "--restarts", "2"])
        assert cli._search_config(given) == SearchConfig(rng_seed=5, max_iterations=7, restarts=2)


# --- The fast parser against argparse ---

ROOT = Path(__file__).resolve().parents[1]
PARSER = cli.build_parser()


def _argparse_vars(argv):
    """vars() of argparse's namespace; fails the test where argparse rejects the line."""
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return vars(PARSER.parse_args(argv))
    except SystemExit:
        pytest.fail(f"the fast parser accepted {argv!r}; argparse exits: {sink.getvalue()}")


def _readme_lines():
    for line in (ROOT / "README.md").read_text().splitlines():
        if line.startswith("cubecolor "):
            argv = shlex.split(line, comments=True)[1:]
            yield argv[: argv.index(">")] if ">" in argv else argv


def _toolchain_lines(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import workloads

    return [op.argv for op in workloads.toolchain_ops(cubecolor, random.Random(0), tmp_path)]


def test_readme_and_benchmark_command_lines_take_the_fast_path(monkeypatch, tmp_path):
    lines = [*_readme_lines(), *_toolchain_lines(monkeypatch, tmp_path)]
    assert len(lines) == 14 + 15
    for argv in lines:
        fast = cli._parse_fast(argv)
        assert fast is not None, argv
        assert vars(fast) == _argparse_vars(argv)


_FLAGS = sorted({flag.option for *_, flags in cli.COMMANDS.values() for flag in flags})
_VALUES = [
    "8", "2", "14", "0", "-8", "+8", " 8", "8 ", "1_0", "٨", "8.0", "0x10", "eight", "", "-",
    "--", "-h", "--help", "q8.txt", "a b", "greedy", "dsatur", "tabu", "Tabu", "double",
    "freeze-subcube", "freeze", "none", "fix-vertex-0", "fix-clique", "fix", "verify",
]
# Abbreviations, --flag=value forms and flags no command has.
_NEAR_FLAGS = ["--col", "--co", "--s", "--st", "--max", "--in", "--mod", "--am", "--x", "-n"] + [
    f"{flag}={value}" for flag in _FLAGS for value in ("8", "tabu", "")
]
_TOKEN = st.sampled_from(_FLAGS + _VALUES + _NEAR_FLAGS)


@st.composite
def _well_formed(draw):
    """A complete line from the table, in shuffled order."""
    command = draw(st.sampled_from(sorted(cli.COMMANDS)))
    _, _, positionals, flags = cli.COMMANDS[command]
    groups = [[draw(st.sampled_from(["q8.txt", "-", "a b", ""]))] for _ in positionals]
    for flag in flags:
        if not flag.required and draw(st.booleans()):
            continue
        if flag.type is bool:
            groups.append([flag.option])
        elif flag.choices is not None:
            groups.append([flag.option, draw(st.sampled_from(flag.choices))])
        elif flag.type is int:
            groups.append([flag.option, str(draw(st.integers(0, 20)))])
        else:
            groups.append([flag.option, draw(st.sampled_from(["out.txt", "a b", ""]))])
    groups = draw(st.permutations(groups))
    return [command, *(token for group in groups for token in group)]


@st.composite
def _mutated(draw):
    """A well-formed line with a few tokens inserted, deleted or replaced."""
    argv = draw(_well_formed())
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(argv)))
        kind = draw(st.sampled_from(["insert", "delete", "replace"]))
        if kind == "insert":
            argv.insert(i, draw(_TOKEN))
        elif i < len(argv):
            if kind == "delete":
                del argv[i]
            else:
                argv[i] = draw(_TOKEN)
    return argv


_ANY_LINE = st.one_of(
    _well_formed(),
    _mutated(),
    st.lists(_TOKEN, max_size=6).flatmap(
        lambda tail: st.sampled_from([*cli.COMMANDS, "frobnicate", "-h"]).map(lambda c: [c, *tail])
    ),
)


@settings(max_examples=600, deadline=None)
@given(_ANY_LINE)
@example(["search", "--n", "3", "--k", "2", "--colors", "4", "--out", "--init"])
@example(["decode-model", "--n", "3", "--k", "2", "--colors", "4", "--out", "o", "--model"])
def test_fast_parser_agrees_with_argparse(argv):
    fast = cli._parse_fast(argv)
    if fast is not None:
        assert vars(fast) == _argparse_vars(argv)


@settings(max_examples=200, deadline=None)
@given(_well_formed())
def test_fast_parser_takes_every_well_formed_line(argv):
    fast = cli._parse_fast(argv)
    assert fast is not None and fast.func is cli.COMMANDS[argv[0]][1]
    assert vars(fast) == _argparse_vars(argv)
