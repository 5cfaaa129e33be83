"""Code-size bounds: the cited table, exact search vs naive oracle, chromatic bound."""

import pytest

import oracles
from cubecolor import bounds
from cubecolor.bounds import (
    DEFAULT_NODE_BUDGET,
    KNOWN_CODE_SIZES,
    SOURCE_EXACT,
    SOURCE_TABLE,
    STATUS_EXACT,
    STATUS_TIMEOUT,
    CodeSizeResult,
    UnknownCodeSizeError,
    _branch_and_bound,
    _conflict_adjacency,
    _plotkin_bound,
    chromatic_lower_bound,
    exact_max_code_size,
    packing_lower_bound,
)
from cubecolor.hamming import ball_masks


def test_default_table_contents():
    assert KNOWN_CODE_SIZES[8, 3][0] == 20
    assert KNOWN_CODE_SIZES[7, 3][0] == 16
    assert KNOWN_CODE_SIZES[9, 3][0] == 40
    assert KNOWN_CODE_SIZES[10, 3][0] == 72
    assert all(citation for _, citation in KNOWN_CODE_SIZES.values())


def test_default_table_agrees_with_exact_search_where_cheap():
    # Guards the shipped numbers on every n where the exact search is fast,
    # also through the even-distance identity.
    for (n, d), (value, _) in KNOWN_CODE_SIZES.items():
        if n <= 7:
            assert exact_max_code_size(n, d).value == value, (n, d)
            assert exact_max_code_size(n + 1, d + 1).value == value, (n + 1, d + 1)


def test_default_table_lists_odd_distances_only():
    # A(n, 2t) = A(n-1, 2t-1) answers every even distance from an odd entry.
    assert all(d % 2 for n, d in KNOWN_CODE_SIZES)


@pytest.mark.parametrize(
    "n,k,bound,value,odd",
    [(8, 3, 16, 16, (7, 3)), (9, 3, 26, 20, (8, 3)), (10, 3, 26, 40, (9, 3)),
     (11, 3, 29, 72, (10, 3))],
)
def test_chromatic_lower_bound_reduces_even_distances_to_the_table(n, k, bound, value, odd):
    # Without the identity A(10,4) and A(11,4) each ran the exact search for
    # about 25 s and then raised UnknownCodeSizeError.
    got = chromatic_lower_bound(n, k)
    assert got[:3] == (bound, SOURCE_TABLE, value)
    assert got.citation == (
        f"A({n},{k + 1}) = A({odd[0]},{odd[1]}), even-weight extension/shortening;"
        f" {KNOWN_CODE_SIZES[odd][1]}"
    )


def test_exact_search_reduces_even_distances(monkeypatch):
    # An even d searches A(n-1, d-1) over half the words; the range check
    # still applies to n.
    searched = []
    real_search = bounds._branch_and_bound
    monkeypatch.setattr(
        bounds, "_branch_and_bound", lambda n, d, budget: searched.append((n, d))
        or real_search(n, d, budget)
    )
    assert exact_max_code_size(7, 4) == (8, STATUS_EXACT)
    assert exact_max_code_size(10, 6) == (6, STATUS_EXACT)
    assert searched == [(6, 3), (9, 5)]
    assert chromatic_lower_bound(7, 3) == (16, SOURCE_EXACT, 8, None)
    with pytest.raises(ValueError, match="n=13 is out of exact-search range"):
        exact_max_code_size(13, 4)


@pytest.mark.parametrize("n", range(1, 5))
def test_exact_matches_naive_enumeration(n):
    for d in range(1, n + 2):
        naive = oracles.naive_max_code_size(n, d)
        result = exact_max_code_size(n, d)
        assert result == (naive, STATUS_EXACT), (n, d)


@pytest.mark.parametrize("n", range(1, 5))
def test_closed_forms_match_raw_branch_and_bound(n):
    # exact_max_code_size answers d = 1, d = 2, d > n in closed form; the raw
    # search must agree.
    for d in list(range(1, n + 2)):
        raw = _branch_and_bound(n, d, 10**8)
        assert raw.status == STATUS_EXACT
        assert raw.value == exact_max_code_size(n, d).value, (n, d)


PLOTKIN_2_CELLS = [
    (n, d) for n in range(1, 13) for d in range(3, n + 1) if _plotkin_bound(n, d) == 2
]


@pytest.mark.parametrize("n,d", PLOTKIN_2_CELLS)
def test_plotkin_2_cells_answer_in_closed_form(n, d, capsys):
    # {0, 1^n} is a code and Plotkin's bound rules out a third word, so these
    # answer with no search and, as the other closed forms, nothing on stderr.
    assert exact_max_code_size(n, d) == (2, STATUS_EXACT)
    assert capsys.readouterr().err == ""
    assert _branch_and_bound(n, d, DEFAULT_NODE_BUDGET) == (2, STATUS_EXACT)
    if n <= 6:
        assert oracles.naive_max_code_size(n, d) == 2


# The reference settles each of these within the 10**8 nodes it was written
# for.  It does not settle A(7,2): the popcount bound runs out of nodes
# there, so that pair is left to test_raw_search_settles_even_weight_codes.
REFERENCE_CASES = [
    (n, d) for n in range(1, 8) for d in range(1, n + 2) if (n, d) != (7, 2)
] + [(8, 4), (9, 5), (10, 6)]


@pytest.mark.parametrize("n,d", REFERENCE_CASES)
def test_search_matches_reference_branch_and_bound(n, d):
    expected = oracles.reference_branch_and_bound(n, d, 10**8)
    assert expected.status == STATUS_EXACT
    assert _branch_and_bound(n, d, DEFAULT_NODE_BUDGET) == expected


@pytest.mark.parametrize(
    "n,d,value,nodes",
    [(9, 5, 6, 926), (10, 6, 6, 926), (7, 3, 16, 6003), (8, 4, 16, 6051)],
    ids=["9-5", "10-6", "7-3", "8-4"],  # not the counts, which a re-pin changes
)
def test_search_node_counts_are_pinned(n, d, value, nodes):
    # The search starts from word 0 alone and stops where it meets the
    # Plotkin bound: 6 for the first two, 16 (the Hamming code and its
    # extension) for the last two.  The clique-cover bound settles these in
    # the pinned number of nodes (the popcount bound needed 286,487 for
    # (10,6)); without the stop (10,6) went on to 13,908 nodes to prove
    # nothing larger exists.  A weaker prune, another branching order, a
    # later stop or another starting code changes the count.
    assert _branch_and_bound(n, d, nodes) == (value, STATUS_EXACT)
    assert _branch_and_bound(n, d, nodes - 1).status == STATUS_TIMEOUT


def test_search_stops_at_the_plotkin_bound():
    # A(12,7) = 4 = 2 * floor(8 / 3), Plotkin's bound at (13, 8): the search
    # ends exact as soon as it has a 4-word code, after 3 nodes.  Without the
    # stop it had to refute every 5-word code, 2.8 s through
    # `bound --n 12 --k 6`.
    assert exact_max_code_size(12, 7, budget=10) == (4, STATUS_EXACT)


def test_raw_search_settles_even_weight_codes():
    # A(n,2) = 2^(n-1) is answered in closed form; the raw search must reach
    # it too.  The clique cover pairs words across the edges of Q_n, so even
    # A(8,2) = 128 takes a few hundred nodes.
    for n in range(1, 9):
        assert _branch_and_bound(n, 2, 10**4) == (1 << (n - 1), STATUS_EXACT), n


@pytest.mark.parametrize("n", range(1, 11))
def test_conflict_adjacency_matches_ball_translates(n):
    for d in range(1, n + 2):
        masks = ball_masks(n, d - 1)
        naive = [sum(1 << (v ^ m) for m in masks) for v in range(1 << n)]
        assert _conflict_adjacency(n, d) == naive, d


def test_known_hard_values():
    assert exact_max_code_size(5, 3).value == 4
    assert exact_max_code_size(6, 3).value == 8
    assert exact_max_code_size(7, 3).value == 16
    assert exact_max_code_size(6, 4).value == 4
    assert exact_max_code_size(7, 4).value == 8


def test_exact_argument_validation():
    with pytest.raises(ValueError):
        exact_max_code_size(13, 3)
    with pytest.raises(ValueError):
        exact_max_code_size(0, 3)
    with pytest.raises(ValueError):
        exact_max_code_size(5, 0)
    with pytest.raises(ValueError):
        exact_max_code_size(5, 3, budget=0)


def test_exact_closed_forms_hold_beyond_the_search_range():
    assert exact_max_code_size(20, 1) == (2**20, STATUS_EXACT)
    assert exact_max_code_size(20, 2) == (2**19, "exact")
    assert exact_max_code_size(20, 21) == (1, STATUS_EXACT)
    assert exact_max_code_size(24, 24) == (2, STATUS_EXACT)
    assert exact_max_code_size(13, 10) == (2, STATUS_EXACT)
    with pytest.raises(ValueError, match="out of exact-search range"):
        exact_max_code_size(13, 3)


def test_budget_exhaustion_reports_timeout(capsys):
    result = exact_max_code_size(9, 5, budget=50)
    assert result.status == STATUS_TIMEOUT
    assert 4 <= result.value <= 6  # a code found, still a genuine lower bound
    assert capsys.readouterr().err.splitlines() == [
        "exact search for A(9,5), node budget 50",
        "A(9,5): node budget ran out after 50 nodes",
    ]


def test_packing_lower_bound_rounds_up():
    assert packing_lower_bound(8, 20) == 13  # ceil(256/20)
    assert packing_lower_bound(8, 16) == 16  # exact division
    assert packing_lower_bound(3, 2) == 4
    with pytest.raises(ValueError):
        packing_lower_bound(3, 0)


def test_chromatic_lower_bound_uses_table_first():
    got = chromatic_lower_bound(8, 2)
    assert got.bound == 13
    assert got.source == SOURCE_TABLE
    assert got.max_code_size == 20


def test_chromatic_lower_bound_computes_small_cases():
    got = chromatic_lower_bound(3, 2)
    assert got == (4, SOURCE_EXACT, 2, None)
    assert chromatic_lower_bound(4, 2) == (8, SOURCE_EXACT, 2, None)


def test_chromatic_lower_bound_closed_forms_beyond_exact_range():
    # d = k+1 <= 2, d > n and a Plotkin bound of 2 work at any dimension without a table entry.
    assert chromatic_lower_bound(20, 0).bound == 1
    assert chromatic_lower_bound(20, 1).bound == 2
    assert chromatic_lower_bound(5, 5) == (32, SOURCE_EXACT, 1, None)
    assert chromatic_lower_bound(13, 9) == (4096, SOURCE_EXACT, 2, None)


@pytest.mark.parametrize("n,k", [(5, -3), (5, 9), (0, 0), (-1, 1), (25, 1)])
def test_chromatic_lower_bound_rejects_out_of_range_params(n, k):
    # The same ranges as Params, checked before any table lookup or shift.
    with pytest.raises(ValueError, match="must be in"):
        chromatic_lower_bound(n, k)


def test_chromatic_lower_bound_prefers_custom_table(monkeypatch):
    monkeypatch.setitem(bounds.KNOWN_CODE_SIZES, (3, 3), (2, "made up"))
    got = chromatic_lower_bound(3, 2)
    assert got == (4, SOURCE_TABLE, 2, "made up")


def test_chromatic_lower_bound_unknown_raises():
    with pytest.raises(UnknownCodeSizeError):
        chromatic_lower_bound(13, 2)


def test_chromatic_lower_bound_names_the_search_range():
    with pytest.raises(UnknownCodeSizeError, match=r"A\(13,3\) is unknown: not in the table and"
                       r" n=13 is out of exact-search range 1\.\.12"):
        chromatic_lower_bound(13, 2)


def test_chromatic_lower_bound_names_the_exhausted_budget(monkeypatch):
    # n = 10 is inside the exact-search range; running out of nodes there is
    # a budget matter, not a range matter.  The real search of A(10,3)
    # exhausts its 3 * 10**6 nodes after about 22 s on a 2-vCPU VM.
    monkeypatch.delitem(bounds.KNOWN_CODE_SIZES, (10, 3))
    monkeypatch.setattr(
        bounds, "exact_max_code_size", lambda n, d: CodeSizeResult(60, STATUS_TIMEOUT)
    )
    with pytest.raises(UnknownCodeSizeError) as exc:
        chromatic_lower_bound(10, 2)
    message = str(exc.value)
    assert f"exhausted its {DEFAULT_NODE_BUDGET}-node budget" in message
    assert "best code found: 60 words" in message
    assert "out of exact-search range" not in message
