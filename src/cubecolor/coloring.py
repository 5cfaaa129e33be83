"""Color classes, colorings of cube powers, and the partition checker.

A proper K-coloring of Q_n^k is exactly a partition of {0,1}^n into K binary
codes of minimum distance at least k+1.  The checker tests the three defining
conditions (disjoint, covering, distance) and reports every failure with a
concrete witness; per-class statistics are computed either way.
"""

from __future__ import annotations

import math
from collections import namedtuple
from itertools import chain, combinations, islice

from .hamming import Automorphism, Params, apply_automorphism, check_word, hamming_distance

#: Sentinel minimum distance of a code with fewer than two words.  Never a
#: finite number, so singleton and empty classes, which occur mid-search,
#: stay unambiguous.
INFINITE_DISTANCE = math.inf

#: Violations a VerifyReport keeps as witnesses; num_violations counts them all.
MAX_WITNESSES = 20


class CodeClass(namedtuple("CodeClass", "words n")):
    """One color class: a set of words of {0,1}^n.

    len() counts the words and `in` tests them, not the fields (words, n);
    iteration still yields the fields, which pickling needs.  Because of
    len(), _make and _replace raise TypeError.
    """

    __slots__ = ()

    def __new__(cls, words: frozenset[int], n: int) -> CodeClass:
        words = frozenset(words)
        for w in words:
            check_word(w, n)
        return super().__new__(cls, words, n)

    def __len__(self) -> int:
        return len(self.words)

    def __contains__(self, word: object) -> bool:
        return word in self.words

    def sorted_words(self) -> list[int]:
        return sorted(self.words)


class Coloring(namedtuple("Coloring", "params classes")):
    """A full color assignment for Q_n^k, viewed as a list of code classes.

    classes[i] holds the words of color i+1.  Some classes may be empty while
    a search is in progress; validity requires them to partition {0,1}^n with
    per-class minimum distance >= k+1.

    Construction checks the structure: every class is on the coloring's n,
    and the class count equals params.num_colors (filled in when None).  A
    malformed object raises ValueError rather than reaching verify_coloring,
    because a verdict about a coloring only makes sense once the object
    itself is well-formed.
    """

    __slots__ = ()

    def __new__(cls, params: Params, classes: tuple[CodeClass, ...]) -> Coloring:
        classes = tuple(classes)
        for i, c in enumerate(classes, start=1):
            if c.n != params.n:
                raise ValueError(f"class {i} has n={c.n}, coloring has n={params.n}")
        if params.num_colors is None:
            params = Params(params.n, params.k, len(classes))
        elif len(classes) != params.num_colors:
            raise ValueError(
                f"coloring declares {params.num_colors} colors but has {len(classes)} classes"
            )
        return super().__new__(cls, params, classes)


def coloring_from_classes(params: Params, classes: list[list[int]] | list[frozenset[int]]) -> Coloring:
    """Convenience constructor from plain word collections."""
    return Coloring(params, tuple(CodeClass(frozenset(c), params.n) for c in classes))


class ClassStats(
    namedtuple("ClassStats", "size min_distance weight_distribution distance_distribution")
):
    """Size, minimum distance, and weight/distance histograms of one class.

    weight_distribution[w] counts words of weight w (length n+1);
    distance_distribution[d] counts unordered pairs at distance d (length n+1,
    index 0 unused).  min_distance is the first nonzero index of
    distance_distribution, INFINITE_DISTANCE when there is none.
    """

    __slots__ = ()


def class_stats(c: CodeClass) -> ClassStats:
    return classes_stats([c])[0]


def classes_stats(classes: tuple[CodeClass, ...] | list[CodeClass]) -> tuple[ClassStats, ...]:
    """class_stats of each class, walking the pairs once per translation class.

    d(u ^ t, v ^ t) = d(u, v), so classes with the same key, the class
    translated by its least word, share one distance histogram; equal keys
    always mean translates.  Greedy's classes are cosets of one linear code,
    so all of them share one key.  A key costs O(M) against the walk's
    O(M^2).  Weights are counted per class.
    """
    histograms: dict = {}
    stats = []
    for c in classes:
        t = min(c.words, default=0)
        key = (c.n, frozenset([w ^ t for w in c.words]))
        distances = histograms.get(key)
        if distances is None:
            distances = histograms[key] = _distance_histogram(key[1], c.n)
        weights = [0] * (c.n + 1)
        for w in c.words:
            weights[w.bit_count()] += 1
        stats.append(ClassStats(
            size=len(c),
            min_distance=next((d for d, count in enumerate(distances) if count), INFINITE_DISTANCE),
            weight_distribution=tuple(weights),
            distance_distribution=distances,
        ))
    return tuple(stats)


def _distance_histogram(words, n: int) -> tuple[int, ...]:
    """distances[d] counts the unordered pairs of words at distance d."""
    distances = [0] * (n + 1)
    words = list(words)
    for i, u in enumerate(words, start=1):
        for v in words[i:]:
            distances[(u ^ v).bit_count()] += 1
    return tuple(distances)


class Violation(namedtuple("Violation", "kind words classes", defaults=((),))):
    """One concrete failure: which condition broke, on which words, in which classes.

    kind is one of "missing-word", "duplicate-word", "distance-violation".
    classes holds 1-based color indices, () by default.
    """

    __slots__ = ()


class VerifyReport(
    namedtuple(
        "VerifyReport", "valid violations per_class num_violations", defaults=((), (), 0)
    )
):
    """violations holds the first MAX_WITNESSES of num_violations, in check order."""

    __slots__ = ()


def verify_coloring(col: Coloring) -> VerifyReport:
    """Check that col partitions {0,1}^n into codes of minimum distance >= k+1.

    Distances are checked from the per-class histograms of classes_stats,
    which walks all pairs once per translation class, O(M^2) for each
    distinct key, rather than probing each word's radius-k ball: the stats
    need those histograms anyway, so a ball probe would add a walk without
    removing one.  Only a class whose histogram shows a pair at distance <= k
    is walked again, to name its witness pairs.  Every violation carries its
    witness words; per-class stats are filled even for invalid colorings.

    Violations are counted from the word counts and the histograms.  The
    witnesses are generated lazily in check order (duplicates, missing words,
    close pairs) and only the first MAX_WITNESSES are built, so a near-empty
    file that declares a large n costs no memory per missing word.
    """
    n, k = col.params.n, col.params.k
    numbered = list(enumerate(col.classes, start=1))
    # Built last class first, so each word maps to the first class holding it.
    first_seen = {w: idx for idx, c in reversed(numbered) for w in c.words}
    stats = classes_stats(col.classes)
    close_pairs = [sum(s.distance_distribution[1 : k + 1]) for s in stats]
    num_violations = (
        sum(map(len, col.classes)) - len(first_seen)  # repeated words
        + (1 << n) - len(first_seen)  # missing words
        + sum(close_pairs)
    )

    duplicates = (
        Violation("duplicate-word", (w,), (first_seen[w], idx))
        for idx, c in numbered
        for w in c.sorted_words()
        if first_seen[w] != idx
    )
    missing = (Violation("missing-word", (w,)) for w in range(1 << n) if w not in first_seen)
    close = (
        Violation("distance-violation", (u, v), (idx,))
        for (idx, c), bad in zip(numbered, close_pairs)
        if bad
        for u, v in combinations(c.sorted_words(), 2)
        if hamming_distance(u, v) <= k
    )
    return VerifyReport(
        valid=num_violations == 0,
        violations=tuple(islice(chain(duplicates, missing, close), MAX_WITNESSES)),
        per_class=stats,
        num_violations=num_violations,
    )


def fingerprint(col: Coloring) -> bytes:
    """Canonical byte string invariant under automorphisms and color relabeling.

    Automorphisms preserve all pairwise distances, so each class's (size,
    distance distribution) pair is invariant; sorting the pairs removes the
    color labels.  Equal colorings-up-to-symmetry always get equal
    fingerprints; the converse is not claimed (this is an invariant, not a
    canonical form).
    """
    return fingerprint_from_stats(col.params, classes_stats(col.classes))


def fingerprint_from_stats(params: Params, stats: tuple[ClassStats, ...]) -> bytes:
    """fingerprint() of a coloring whose per-class stats are already computed."""
    entries = sorted((s.size, s.distance_distribution) for s in stats)
    body = ";".join(f"{size}:" + ",".join(map(str, dd[1:])) for size, dd in entries)
    return f"n={params.n};k={params.k};{body}".encode()


def transform_coloring(col: Coloring, a: Automorphism) -> Coloring:
    """Apply an automorphism to every word, keeping class order."""
    if a.n != col.params.n:
        raise ValueError(f"automorphism is on n={a.n}, coloring on n={col.params.n}")
    classes = tuple(
        CodeClass(frozenset(apply_automorphism(w, a) for w in c.words), col.params.n)
        for c in col.classes
    )
    return Coloring(col.params, classes)
