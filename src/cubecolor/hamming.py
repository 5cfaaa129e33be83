"""Binary Hamming space: words as integers, distances, balls, cube automorphisms.

A word of {0,1}^n is a plain int in [0, 2^n); bit i (value 2^i) is coordinate i.
Distances reduce to popcount of XOR, so nothing downstream depends on the
bit-order convention.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import combinations
from math import comb

# A word must fit comfortably in one machine word and full-space arrays
# (2^n entries) must stay desk-scale.
MAX_DIMENSION = 24


class Params(namedtuple("Params", "n k num_colors")):
    """Instance parameters: cube dimension n, power k, optional color count.

    (n, k) fixes the graph Q_n^k: vertices {0,1}^n, edges between words at
    Hamming distance 1..k.  num_colors is the K of a K-coloring when one is
    being verified or searched for.
    """

    __slots__ = ()

    def __new__(cls, n: int, k: int, num_colors: int | None = None) -> Params:
        if not 1 <= n <= MAX_DIMENSION:
            raise ValueError(f"dimension n must be in 1..{MAX_DIMENSION}, got {n}")
        if not 0 <= k <= n:
            raise ValueError(f"power k must be in 0..n={n}, got {k}")
        if num_colors is not None and not 1 <= num_colors <= 1 << n:
            raise ValueError(f"num_colors must be in 1..2^n, got {num_colors}")
        return super().__new__(cls, n, k, num_colors)

    @property
    def num_words(self) -> int:
        return 1 << self.n


def check_word(v: int, n: int) -> None:
    """Raise ValueError unless v encodes a word of {0,1}^n."""
    if not 0 <= v < 1 << n:
        raise ValueError(f"word {v} out of range for n={n}")


def hamming_distance(u: int, v: int) -> int:
    """Number of coordinates in which u and v differ."""
    return (u ^ v).bit_count()


def ball_size(n: int, r: int) -> int:
    """Number of words within distance r of any fixed center: sum of C(n, i)."""
    if not 0 <= r <= n:
        raise ValueError(f"radius must be in 0..{n}, got {r}")
    return sum(comb(n, i) for i in range(r + 1))


def ball_masks(n: int, r: int) -> list[int]:
    """The words of weight 1..r, in ascending order; empty for r = 0.

    Q_n^k is the Cayley graph of Z_2^n generated by ball_masks(n, k): the
    neighbors of v are exactly v ^ m for these m.  Its length is
    ball_size(n, r) - 1.
    """
    if not 0 <= r <= n:
        raise ValueError(f"radius must be in 0..{n}, got {r}")
    bits = [1 << i for i in range(n)]
    return sorted([sum(c) for w in range(1, r + 1) for c in combinations(bits, w)])


def neighbors_within(v: int, params: Params) -> list[int]:
    """All words u != v with d(u, v) <= k, in ascending order.

    This is the neighborhood of v in Q_n^k; its length is ball_size(n, k) - 1.
    """
    n, k = params.n, params.k
    if not 1 <= k <= n:
        raise ValueError(f"power k must be in 1..n={n}, got {k}")
    check_word(v, n)
    return sorted([v ^ m for m in ball_masks(n, k)])


class Automorphism(namedtuple("Automorphism", "perm translation")):
    """Distance-preserving map of {0,1}^n: permute coordinates, then XOR a word.

    Bit i of the input lands on bit perm[i] of the output, after which the
    translation is XORed in.  These maps generate the full symmetry group of
    the Hamming space (hyperoctahedral group).
    """

    __slots__ = ()

    def __new__(cls, perm: tuple[int, ...], translation: int = 0) -> Automorphism:
        perm = tuple(perm)
        n = len(perm)
        if not 1 <= n <= MAX_DIMENSION:
            raise ValueError(f"permutation length must be in 1..{MAX_DIMENSION}")
        if sorted(perm) != list(range(n)):
            raise ValueError(f"perm {perm} is not a permutation of 0..{n - 1}")
        if not 0 <= translation < 1 << n:
            raise ValueError(f"translation {translation} out of range for n={n}")
        return super().__new__(cls, perm, translation)

    @property
    def n(self) -> int:
        return len(self.perm)

    @classmethod
    def identity(cls, n: int) -> Automorphism:
        return cls(tuple(range(n)), 0)


def apply_automorphism(v: int, a: Automorphism) -> int:
    """Image of word v under a; satisfies d(f(u), f(v)) = d(u, v)."""
    check_word(v, a.n)
    out = 0
    for i, p in enumerate(a.perm):
        if v >> i & 1:
            out |= 1 << p
    return out ^ a.translation


def random_automorphism(n: int, rng) -> Automorphism:
    """Uniform random coordinate permutation combined with a uniform translation.

    rng is a random.Random; this module does not import random, which only
    the searches need.
    """
    perm = list(range(n))
    rng.shuffle(perm)
    return Automorphism(tuple(perm), rng.randrange(1 << n))
