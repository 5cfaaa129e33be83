"""Coloring model, verifier, statistics, fingerprint, and symmetry action."""

import math
import pickle
import random
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from cubecolor.coloring import (
    INFINITE_DISTANCE,
    MAX_WITNESSES,
    CodeClass,
    Coloring,
    class_stats,
    classes_stats,
    coloring_from_classes,
    fingerprint,
    transform_coloring,
    verify_coloring,
)
from cubecolor import coloring
from cubecolor.fixture import q8_square_13_coloring
from cubecolor.hamming import Automorphism, Params, random_automorphism
from cubecolor.search import greedy_color

# {x, complement(x)} pairs have distance 3 in Q_3: a valid 4-coloring of Q_3^2.
Q3_PAIRS = [[0, 7], [1, 6], [2, 5], [3, 4]]


def q3_coloring() -> Coloring:
    return coloring_from_classes(Params(3, 2, 4), Q3_PAIRS)


def test_code_class_basics():
    c = CodeClass(frozenset([5, 1, 3]), 3)
    assert len(c) == 3
    assert c.sorted_words() == [1, 3, 5]
    assert CodeClass([1, 1, 2], 2).sorted_words() == [1, 2]  # coerces and dedups
    with pytest.raises(ValueError):
        CodeClass(frozenset([8]), 3)


def test_code_class_membership_tests_its_words():
    # As a namedtuple of (words, n), `in` would test the fields: 8, the
    # fixture's n, would be in every class and a word of the class in none.
    first = q8_square_13_coloring().classes[0]
    assert 8 not in first.words and 18 in first.words
    assert 8 not in first and 18 in first
    assert [w for w in range(256) if w in first] == first.sorted_words()
    assert pickle.loads(pickle.dumps(first)) == first  # pickling iterates the fields


def test_min_distance_sentinel_and_values():
    assert class_stats(CodeClass(frozenset(), 3)).min_distance == INFINITE_DISTANCE
    assert class_stats(CodeClass(frozenset([5]), 3)).min_distance == INFINITE_DISTANCE
    assert class_stats(CodeClass(frozenset([0, 7]), 3)).min_distance == 3
    assert class_stats(CodeClass(frozenset([0, 3, 7]), 3)).min_distance == 1
    assert INFINITE_DISTANCE == math.inf


def test_class_stats_histograms():
    s = class_stats(CodeClass(frozenset([0, 7]), 3))
    assert s.size == 2
    assert s.min_distance == 3
    assert s.weight_distribution == (1, 0, 0, 1)
    assert s.distance_distribution == (0, 0, 0, 1)
    assert sum(s.weight_distribution) == s.size
    assert sum(s.distance_distribution) == comb(s.size, 2)


def test_structural_errors_raise_not_report():
    with pytest.raises(ValueError, match="class 1 has n=4, coloring has n=3"):
        Coloring(Params(3, 2), (CodeClass(frozenset([0]), 4),))
    with pytest.raises(ValueError, match="coloring declares 5 colors but has 4 classes"):
        coloring_from_classes(Params(3, 2, 5), Q3_PAIRS)


def test_missing_color_count_is_the_class_count():
    assert coloring_from_classes(Params(3, 2), Q3_PAIRS).params.num_colors == 4


def test_verify_valid_coloring():
    report = verify_coloring(q3_coloring())
    assert report.valid
    assert report.violations == ()
    assert len(report.per_class) == 4
    assert all(s.size == 2 and s.min_distance == 3 for s in report.per_class)


def test_verify_missing_word():
    col = coloring_from_classes(Params(3, 2, 4), [[0, 7], [1, 6], [2, 5], [3]])
    report = verify_coloring(col)
    assert not report.valid
    assert [(v.kind, v.words) for v in report.violations] == [("missing-word", (4,))]


def test_verify_duplicate_word_names_both_classes():
    col = coloring_from_classes(Params(3, 2, 4), [[0, 7], [1, 6], [2, 5], [3, 4, 0]])
    report = verify_coloring(col)
    dups = [v for v in report.violations if v.kind == "duplicate-word"]
    assert len(dups) == 1
    assert dups[0].words == (0,)
    assert dups[0].classes == (1, 4)


def test_verify_distance_violation_carries_witness():
    col = coloring_from_classes(Params(3, 2, 4), [[0, 3], [7, 4], [1, 6], [2, 5]])
    report = verify_coloring(col)
    assert not report.valid
    kinds = {v.kind for v in report.violations}
    assert kinds == {"distance-violation"}
    assert (0, 3) in [v.words for v in report.violations]
    assert all(len(v.classes) == 1 for v in report.violations)
    assert len(report.per_class) == 4  # stats filled even when invalid


@given(st.integers(0, 10**9))
def test_shared_stats_equal_per_class_stats(seed):
    # Cosets of a random linear code, translates of one random set (whose
    # least words need not correspond), unrelated random sets, and empty and
    # singleton classes, in a random order: sharing a histogram between
    # classes must never change any class's stats.
    rng = random.Random(seed)
    n = rng.randrange(1, 7)
    words = range(1 << n)
    span = {0}
    for _ in range(rng.randrange(0, n + 1)):
        g = rng.randrange(1 << n)
        span |= {w ^ g for w in span}
    base = rng.sample(words, rng.randrange(0, min(6, 1 << n) + 1))
    classes = []
    for _ in range(rng.randrange(0, 9)):
        t = rng.randrange(1 << n)
        kind = rng.randrange(5)
        if kind == 0:
            c = {w ^ t for w in span}
        elif kind == 1:
            c = {w ^ t for w in base}
        elif kind == 2:
            c = rng.sample(words, rng.randrange(0, (1 << n) + 1))
        else:
            c = [t][: kind - 3]  # empty or a singleton
        classes.append(CodeClass(frozenset(c), n))
    assert classes_stats(classes) == tuple(class_stats(c) for c in classes)


def test_greedy_cosets_share_one_walk(monkeypatch):
    # Greedy's 16 classes of Q_8^2 are cosets of its first, a linear code, so
    # one pair walk serves them all; the fixture's 13 classes need 13.
    walks = []
    real_walk = coloring._distance_histogram
    monkeypatch.setattr(
        coloring, "_distance_histogram", lambda words, n: walks.append(n) or real_walk(words, n)
    )
    for col, expected in ((greedy_color(Params(8, 2)), 1), (q8_square_13_coloring(), 13)):
        walks.clear()
        assert verify_coloring(col).valid
        assert len(walks) == expected


@given(st.integers(0, 10**9))
def test_verify_agrees_with_naive_oracle(seed):
    rng = random.Random(seed)
    n = rng.randrange(1, 5)
    k = rng.randrange(0, n + 1)
    num = rng.randrange(1, (1 << n) + 1)
    # Random class map; occasionally drop or duplicate a word.
    classes = [[] for _ in range(num)]
    for w in range(1 << n):
        r = rng.random()
        if r < 0.05:
            continue
        classes[rng.randrange(num)].append(w)
        if r > 0.95:
            classes[rng.randrange(num)].append(w)
    if any(len(set(c)) != len(c) for c in classes):
        return  # same word twice in one class collapses in a set; skip
    col = coloring_from_classes(Params(n, k, num), classes)
    assert verify_coloring(col).valid == oracles.naive_is_valid(n, k, classes)


@given(st.integers(0, 10**9))
def test_verify_counts_every_violation_but_keeps_few_witnesses(seed):
    rng = random.Random(seed)
    n = rng.randrange(1, 7)
    k = rng.randrange(0, n + 1)
    num = rng.randrange(1, min(4, 1 << n) + 1)
    drop, dup = rng.random() * 0.5, rng.random() * 0.3
    classes = [set() for _ in range(num)]
    for w in range(1 << n):
        if rng.random() < drop:
            continue
        classes[rng.randrange(num)].add(w)
        if rng.random() < dup:
            classes[rng.randrange(num)].add(w)
    report = verify_coloring(coloring_from_classes(Params(n, k, num), classes))
    assert report.num_violations == oracles.naive_violation_count(n, k, classes)
    assert report.valid == (report.num_violations == 0)
    assert len(report.violations) == min(report.num_violations, MAX_WITNESSES)
    owner = {w: i for i, cls in enumerate(classes, start=1) for w in cls}
    for v in report.violations:
        if v.kind == "missing-word":
            assert v.words[0] not in owner
        elif v.kind == "duplicate-word":
            assert all(v.words[0] in classes[i - 1] for i in v.classes)
        else:
            u, w = v.words
            assert 1 <= (u ^ w).bit_count() <= k and {u, w} <= classes[v.classes[0] - 1]


def test_fixture_is_valid_with_expected_profile():
    col = q8_square_13_coloring()
    report = verify_coloring(col)
    assert report.valid
    sizes = sorted(s.size for s in report.per_class)
    assert sizes == [16] + [20] * 12
    assert sorted((s.size, s.min_distance) for s in report.per_class) == [(16, 4)] + [
        (20, 3)
    ] * 12


def test_fingerprint_ignores_class_order():
    col = q3_coloring()
    shuffled = coloring_from_classes(Params(3, 2, 4), list(reversed(Q3_PAIRS)))
    assert fingerprint(col) == fingerprint(shuffled)


def test_fingerprint_separates_different_profiles():
    a = coloring_from_classes(Params(2, 1, 2), [[0, 3], [1, 2]])
    b = coloring_from_classes(Params(2, 1, 3), [[0, 3], [1], [2]])
    assert fingerprint(a) != fingerprint(b)


@given(st.integers(0, 10**9))
def test_fingerprint_and_validity_invariant_under_automorphism(seed):
    rng = random.Random(seed)
    col = q3_coloring()
    a = random_automorphism(3, rng)
    image = transform_coloring(col, a)
    assert verify_coloring(image).valid
    assert fingerprint(image) == fingerprint(col)


def test_transform_requires_matching_dimension():
    with pytest.raises(ValueError):
        transform_coloring(q3_coloring(), Automorphism.identity(4))
