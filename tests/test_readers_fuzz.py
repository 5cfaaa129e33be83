"""Fuzzing every text reader: malformed input may only raise ValueError.

The CLI turns ValueError into exit 2 with an "error: " message, so a reader
that lets any other exception escape would surface as a traceback.
"""

import contextlib
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubecolor.cli import main
from cubecolor.files import load_coloring
from cubecolor.sat import parse_solver_model

# Tokens that reach the readers' branches: keywords, comment and status
# markers, integers in and out of every range, and things int() rejects.
TOKENS = st.one_of(
    st.sampled_from(["n", "k", "classes", "class", "#", "c", "s", "v", "0", "-0"]),
    st.integers(-(2**25), 2**25).map(str),
    st.text(min_size=1, max_size=4),
)
LINE = st.lists(TOKENS, max_size=6).map(" ".join)
BODY = st.one_of(st.text(), st.lists(LINE, max_size=12).map("\n".join))


def _rows(lo: int, hi: int, count: int) -> st.SearchStrategy[list[list[str]]]:
    """About `count` rows of tokens, mostly integers in lo..hi."""
    row = st.lists(st.one_of(st.integers(lo, hi).map(str), TOKENS), max_size=6)
    return st.lists(row, min_size=max(count - 1, 0), max_size=count + 1)


@st.composite
def coloring_texts(draw, n=st.integers(1, 24)):
    """A valid header, then about `classes` class lines of words near 0..2^n."""
    n = draw(n)
    k = draw(st.integers(0, n))
    classes = draw(st.integers(1, min(8, 1 << n)))
    rows = draw(_rows(-1, 1 << n, classes))
    body = "".join(" ".join(["class", *row]) + "\n" for row in rows)
    return f"n {n}\nk {k}\nclasses {classes}\n{body}"


@st.composite
def solver_model_texts(draw):
    rows = draw(_rows(-50, 50, draw(st.integers(0, 4))))
    return "s SATISFIABLE\n" + "".join(" ".join(["v", *row]) + "\n" for row in rows)


def _rejects_only_with_value_error(reader, text: str) -> None:
    try:
        reader(text)
    except ValueError:
        pass


READERS = {
    "load_coloring": load_coloring,
    "parse_solver_model": parse_solver_model,
}

# Text that opens validly for each reader, so the fuzz reaches past its header.
WELL_FORMED_START = {
    "load_coloring": coloring_texts(),
    "parse_solver_model": solver_model_texts(),
}


@pytest.mark.parametrize("name", list(READERS))
@given(text=BODY)
def test_reader_raises_only_value_error_on_arbitrary_text(name, text):
    _rejects_only_with_value_error(READERS[name], text)


@pytest.mark.parametrize("name", list(READERS))
@given(data=st.data())
def test_reader_raises_only_value_error_after_a_valid_header(name, data):
    text = data.draw(WELL_FORMED_START[name]) + data.draw(st.one_of(st.just(""), BODY))
    _rejects_only_with_value_error(READERS[name], text)


def _run_cli(argv: list[str]) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, err.getvalue()


@settings(deadline=None)
@given(text=st.one_of(BODY, coloring_texts(n=st.just(3)), solver_model_texts()))
def test_cli_verify_and_decode_model_exit_cleanly_on_fuzzed_files(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "fuzzed.txt"
    path.write_text(text, encoding="utf-8")
    out = str(tmp_path_factory.getbasetemp() / "decoded.txt")
    for argv in (
        ["verify", str(path)],
        ["decode-model", "--n", "3", "--k", "2", "--colors", "4", "--model", str(path), "--out", out],
    ):
        rc, err = _run_cli(argv)
        assert rc in (0, 1, 2), argv
        if rc == 2:
            assert err.startswith("error: "), (argv, err)
