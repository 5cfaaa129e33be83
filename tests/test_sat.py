"""CNF encoding, DIMACS round trip, model decoding."""

import hashlib
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from cubecolor.coloring import coloring_from_classes, verify_coloring
from cubecolor.hamming import Params
from cubecolor.sat import (
    MAX_CLAUSES,
    CnfFormula,
    EncodeOptions,
    ModelDecodeError,
    decode_model,
    encode_coloring_cnf,
    expected_clause_count,
    parse_solver_model,
    var_index,
    write_dimacs,
)

Q3_PARAMS = Params(3, 2, 4)
Q3_COLORING = coloring_from_classes(Q3_PARAMS, [[0, 7], [1, 6], [2, 5], [3, 4]])


def test_var_index_is_a_bijection():
    seen = set()
    for v in range(8):
        for c in range(1, 5):
            seen.add(var_index(v, c, 4))
    assert seen == set(range(1, 33))


@pytest.mark.parametrize(
    "clause, fault",
    [
        ((1, -2), None),
        ((), "empty clause"),
        ((5, 0, -6), "literal 0 out of range for 9 variables"),
        ((-10,), "literal -10 out of range for 9 variables"),
        ((1, 2, 3, -2), "clause (1, 2, 3, -2) contains both 2 and -2"),
    ],
)
def test_clause_fault_oracle(clause, fault):
    assert oracles.clause_fault(clause, 9) == fault


def test_encode_options_validation():
    with pytest.raises(ValueError):
        EncodeOptions(symmetry="mirror")


def test_encode_requires_color_count_and_small_n():
    with pytest.raises(ValueError):
        encode_coloring_cnf(Params(3, 2))
    with pytest.raises(ValueError, match="40239104 clauses"):
        encode_coloring_cnf(Params(17, 2, 4))


def test_expected_clause_count_needs_a_color_count():
    with pytest.raises(ValueError, match="needs params.num_colors"):
        expected_clause_count(Params(3, 1))


def test_encode_bounds_variables_as_well_as_clauses():
    # One variable per (vertex, color), each held once by an at-least-one
    # clause; n > 16 is fine while both counts stay under the limit.
    f = encode_coloring_cnf(Params(17, 0, 1))
    assert len(f.clauses) == f.num_vars == 131072
    # Checked on the closed form, so these raise before building anything.
    # The smaller case runs first: were the check lost, it would fail at
    # about 350 MiB instead of the second reaching for about 10 GiB.
    for n, colors, num_vars in ((13, 1024, 8_388_608), (14, 16384, 268_435_456)):
        with pytest.raises(ValueError, match=f"{num_vars} variables"):
            encode_coloring_cnf(Params(n, 0, colors))


def test_encode_rejects_oversized_formula_before_building_it():
    # (16,2,20) is 89,194,496 clauses; the check runs on the closed form, so
    # this returns at once instead of allocating gigabytes of tuples.
    params = Params(16, 2, 20)
    assert expected_clause_count(params) == 89_194_496 > MAX_CLAUSES
    with pytest.raises(ValueError, match="89194496 clauses"):
        encode_coloring_cnf(params)


def test_encode_tiny_instance_exact_clauses():
    # Q_1^1 with 2 colors: two vertices, one edge.
    f = encode_coloring_cnf(Params(1, 1, 2))
    assert f.num_vars == 4
    assert f.clauses == ((1, 2), (3, 4), (-1, -3), (-2, -4))


@pytest.mark.parametrize("n,k,colors", [(1, 1, 2), (2, 1, 2), (2, 2, 4), (3, 2, 4), (4, 2, 8)])
@pytest.mark.parametrize("amo", [False, True])
@pytest.mark.parametrize("symmetry", ["none", "fix-vertex-0", "fix-clique"])
def test_clause_count_matches_closed_form(n, k, colors, amo, symmetry):
    params = Params(n, k, colors)
    options = EncodeOptions(at_most_one=amo, symmetry=symmetry)
    f = encode_coloring_cnf(params, options)
    assert len(f.clauses) == expected_clause_count(params, options)
    assert f.num_vars == (1 << n) * colors
    assert [cl for cl in f.clauses if oracles.clause_fault(cl, f.num_vars)] == []


def test_fix_clique_rejects_too_few_colors():
    # radius-1 ball around 0 in Q_3^2 has 4 words, so 3 colors cannot pin it
    with pytest.raises(ValueError):
        encode_coloring_cnf(Params(3, 2, 3), EncodeOptions(symmetry="fix-clique"))


def test_fix_clique_pins_the_ball_around_zero():
    f = encode_coloring_cnf(Q3_PARAMS, EncodeOptions(symmetry="fix-clique"))
    units = [cl for cl in f.clauses if len(cl) == 1]
    assert units == [
        (var_index(0, 1, 4),),
        (var_index(1, 2, 4),),
        (var_index(2, 3, 4),),
        (var_index(4, 4, 4),),
    ]


def test_dimacs_round_trip():
    f = encode_coloring_cnf(Q3_PARAMS, EncodeOptions(at_most_one=True, symmetry="fix-vertex-0"))
    text = write_dimacs(f)
    comments, num_vars, num_clauses, clauses = oracles.read_dimacs(text)
    assert (comments, num_vars, num_clauses) == (list(f.comments), f.num_vars, len(f.clauses))
    assert tuple(clauses) == f.clauses


def test_dimacs_format_shape():
    text = write_dimacs(encode_coloring_cnf(Params(1, 1, 2)))
    lines = text.splitlines()
    assert lines[3] == "p cnf 4 4"
    assert lines[4] == "1 2 0"
    assert text.endswith("0\n")


def test_dimacs_writes_any_hand_built_formula_literal_for_literal():
    # CnfFormula checks nothing, so the writer must not assume the encoder's
    # clauses: the empty clause keeps its leading space and each literal is
    # written as str() writes it.
    f = CnfFormula(3, [[], [1], [-2, 3], [], [1, -2, 3], (4, 5)], comments=["hand"])
    assert write_dimacs(f) == "c hand\np cnf 3 6\n 0\n1 0\n-2 3 0\n 0\n1 -2 3 0\n4 5 0\n"


@pytest.mark.parametrize(
    "n,k,colors,amo,symmetry,digest",
    [
        (4, 2, 5, False, "none", "b73e966a84004e5a07c95ba97a8bf8fad71ebc65648ceddbef9ddf58e46fc7c4"),
        (4, 2, 5, False, "fix-clique", "576815501a2823140017d663c54b23f3397a059ae751caa81b4302d99b7b3eeb"),
        (5, 3, 9, True, "fix-clique", "afe755471eea723a7969bad1cabcce63d43b9ed7672675bed156869adab49bad"),
        (6, 2, 8, True, "fix-vertex-0", "d3786a83c4e1b23078bc5d3571336409a15c14e5f64c3f281cd3462a8b63c35d"),
        (5, 0, 2, False, "none", "15754a993317682a46a9db19f9123231b9972acff5ab6d7ec34b2cd21a19bead"),
    ],
)
def test_dimacs_bytes_are_pinned(n, k, colors, amo, symmetry, digest):
    # Clause order is part of the encoder's contract: any change to how the
    # conflict pairs, at-most-one pairs or symmetry units are enumerated
    # changes these hashes.
    options = EncodeOptions(at_most_one=amo, symmetry=symmetry)
    text = write_dimacs(encode_coloring_cnf(Params(n, k, colors), options))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_valid_coloring_satisfies_plain_formula():
    f = encode_coloring_cnf(Q3_PARAMS)
    assert oracles.evaluate(f, oracles.coloring_to_model(Q3_COLORING))


def test_conflicting_assignment_falsifies_formula():
    f = encode_coloring_cnf(Q3_PARAMS)
    # all vertices color 1: every conflict clause on color 1 breaks
    model = {var_index(v, 1, 4) for v in range(8)}
    assert not oracles.evaluate(f, model)


def test_amo_clauses_forbid_double_colors():
    # Even/odd 2-coloring of Q_3^1 encoded with a spare third color: setting
    # vertex 0 true in the unused color breaks no conflict clause, so only
    # the at-most-one clauses reject the doubled assignment.
    params = Params(3, 1, 3)
    col = coloring_from_classes(params, [[0, 3, 5, 6], [1, 2, 4, 7], []])
    plain = encode_coloring_cnf(params)
    strict = encode_coloring_cnf(params, EncodeOptions(at_most_one=True))
    doubled = oracles.coloring_to_model(col) | {var_index(0, 3, 3)}
    assert oracles.evaluate(plain, doubled)
    assert not oracles.evaluate(strict, doubled)


def test_model_round_trip():
    model = oracles.coloring_to_model(Q3_COLORING)
    back = decode_model(model, Q3_PARAMS)
    assert back.classes == Q3_COLORING.classes


def test_decode_picks_smallest_color_and_flags_gaps():
    model = oracles.coloring_to_model(Q3_COLORING) | {var_index(0, 3, 4)}
    col = decode_model(model, Q3_PARAMS)
    assert 0 in col.classes[0].words  # color 1 beats color 3
    with pytest.raises(ModelDecodeError):
        decode_model(set(), Q3_PARAMS)
    with pytest.raises(ValueError):
        decode_model(model, Params(3, 2))


def test_parse_solver_model_conventions():
    text = "c a comment\ns SATISFIABLE\nv 1 5 -3\nv 9 0\n"
    assert parse_solver_model(text) == {1, 5, 9}
    assert parse_solver_model("1 -2 3 0\n") == {1, 3}
    assert parse_solver_model("") == set()


def test_parse_solver_model_names_the_line_of_a_bad_token():
    with pytest.raises(ValueError, match="^line 3: invalid literal for int.*'x'"):
        parse_solver_model("s SATISFIABLE\nv 1 2\nv 3 x 0\n")
    with pytest.raises(ValueError, match="^line 1: "):
        parse_solver_model("1 -2 3.5 0\n")


@given(st.integers(0, 10**6))
def test_decoded_coloring_matches_solver_model_semantics(seed):
    # any total model built from a valid coloring survives a text round trip
    rng = random.Random(seed)
    perm = list(range(8))
    rng.shuffle(perm)
    col = oracles.first_fit(Params(3, 2), perm)
    params = Params(3, 2, len(col.classes))
    model = oracles.coloring_to_model(col)
    text = "v " + " ".join(str(x) for x in sorted(model)) + " 0\n"
    back = decode_model(parse_solver_model(text), params)
    assert back.classes == col.classes
    assert verify_coloring(back).valid
