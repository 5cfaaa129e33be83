"""Hamming-space primitives against brute force and metric axioms."""

import random
from itertools import combinations
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cubecolor.hamming import (
    MAX_DIMENSION,
    Automorphism,
    Params,
    apply_automorphism,
    ball_masks,
    ball_size,
    check_word,
    hamming_distance,
    neighbors_within,
    random_automorphism,
)

words_with_n = st.integers(1, 10).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(0, (1 << n) - 1), st.integers(0, (1 << n) - 1))
)
triples_with_n = st.integers(1, 10).flatmap(
    lambda n: st.tuples(st.just(n), *(st.integers(0, (1 << n) - 1) for _ in range(3)))
)


def test_distance_small_cases():
    assert hamming_distance(0, 0) == 0
    assert hamming_distance(0b1010, 0b0110) == 2
    assert hamming_distance(0, 0b11111111) == 8
    assert hamming_distance(0b1011, 0) == 3


@given(words_with_n)
def test_distance_is_symmetric_and_separates(case):
    _, u, v = case
    assert hamming_distance(u, v) == hamming_distance(v, u)
    assert (hamming_distance(u, v) == 0) == (u == v)


@given(triples_with_n)
def test_distance_triangle_and_translation(case):
    _, u, v, w = case
    assert hamming_distance(u, w) <= hamming_distance(u, v) + hamming_distance(v, w)
    assert hamming_distance(u ^ w, v ^ w) == hamming_distance(u, v)


@given(st.integers(0, 1023))
def test_weight_is_distance_to_zero(v):
    assert hamming_distance(v, 0) == bin(v).count("1")


def test_ball_size_values():
    assert ball_size(8, 0) == 1
    assert ball_size(8, 1) == 9
    assert ball_size(8, 2) == 1 + 8 + comb(8, 2)
    assert ball_size(8, 8) == 256
    with pytest.raises(ValueError):
        ball_size(8, 9)
    with pytest.raises(ValueError):
        ball_size(8, -1)


def test_params_validation():
    p = Params(8, 2, 13)
    assert p.num_words == 256
    Params(1, 0)
    Params(MAX_DIMENSION, MAX_DIMENSION)
    with pytest.raises(ValueError):
        Params(0, 0)
    with pytest.raises(ValueError):
        Params(MAX_DIMENSION + 1, 1)
    with pytest.raises(ValueError):
        Params(4, 5)
    with pytest.raises(ValueError):
        Params(4, -1)
    with pytest.raises(ValueError):
        Params(4, 2, 0)
    with pytest.raises(ValueError):
        Params(4, 2, 17)


def test_check_word():
    check_word(0, 3)
    check_word(7, 3)
    with pytest.raises(ValueError):
        check_word(8, 3)
    with pytest.raises(ValueError):
        check_word(-1, 3)


@pytest.mark.parametrize("n", range(1, 11))
def test_ball_masks_match_brute_force(n):
    for r in range(n + 1):
        got = ball_masks(n, r)
        assert got == [m for m in range(1, 1 << n) if bin(m).count("1") <= r]  # both ascending
        assert len(got) == ball_size(n, r) - 1


def test_ball_masks_rejects_bad_radius():
    with pytest.raises(ValueError):
        ball_masks(4, 5)
    with pytest.raises(ValueError):
        ball_masks(4, -1)


@pytest.mark.parametrize("n", range(1, 6))
def test_neighbors_within_matches_brute_force(n):
    for k in range(1, n + 1):
        params = Params(n, k)
        for v in range(1 << n):
            got = neighbors_within(v, params)
            want = [u for u in range(1 << n) if u != v and hamming_distance(u, v) <= k]
            assert got == want  # both ascending
            assert len(got) == ball_size(n, k) - 1


def test_neighbors_within_rejects_k_zero_and_bad_word():
    with pytest.raises(ValueError):
        neighbors_within(0, Params(3, 0))
    with pytest.raises(ValueError):
        neighbors_within(8, Params(3, 2))


def test_automorphism_validation():
    a = Automorphism((1, 0, 2), 0b101)
    assert a.n == 3
    assert Automorphism.identity(4).perm == (0, 1, 2, 3)
    with pytest.raises(ValueError):
        Automorphism((0, 0, 1))
    with pytest.raises(ValueError):
        Automorphism((0, 1, 3))
    with pytest.raises(ValueError):
        Automorphism((0, 1, 2), 8)
    with pytest.raises(ValueError):
        Automorphism((0, 1, 2), -1)


def test_identity_automorphism_fixes_everything():
    a = Automorphism.identity(5)
    for v in range(32):
        assert apply_automorphism(v, a) == v


def test_apply_automorphism_moves_bits():
    # bit 0 -> bit 2, bit 1 -> bit 0, bit 2 -> bit 1, then XOR 0b100
    a = Automorphism((2, 0, 1), 0b100)
    assert apply_automorphism(0b001, a) == 0b100 ^ 0b100
    assert apply_automorphism(0b010, a) == 0b001 ^ 0b100
    assert apply_automorphism(0b100, a) == 0b010 ^ 0b100


@given(st.integers(0, 10**9))
def test_random_automorphism_preserves_distance_and_bijects(seed):
    rng = random.Random(seed)
    n = rng.randrange(1, 9)
    a = random_automorphism(n, rng)
    size = 1 << n
    images = [apply_automorphism(v, a) for v in range(size)]
    assert sorted(images) == list(range(size))
    for u, v in combinations(range(min(size, 8)), 2):
        assert hamming_distance(images[u], images[v]) == hamming_distance(u, v)


def test_random_automorphism_is_seed_deterministic():
    a1 = random_automorphism(6, random.Random(42))
    a2 = random_automorphism(6, random.Random(42))
    assert a1 == a2
