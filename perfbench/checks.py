"""Independent output checks for the benchmark.

Nothing here calls into cubecolor: the parser, the conflict recount and the
partition check are deliberately naive re-implementations, so a result that
passes them does not pass merely because the package agrees with itself.
"""

from __future__ import annotations

import hashlib
from functools import cache


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@cache
def ball_masks(n: int, k: int) -> tuple[int, ...]:
    """Every nonzero word of weight at most k: u and u ^ m are adjacent in Q_n^k."""
    return tuple(m for m in range(1, 1 << n) if bin(m).count("1") <= k)


def naive_conflicts(color_of: list[int], n: int, k: int) -> int:
    """Unordered same-colour pairs at distance 1..k, each counted once."""
    masks = ball_masks(n, k)
    total = 0
    for u in range(1 << n):
        cu = color_of[u]
        for m in masks:
            v = u ^ m
            if v > u and color_of[v] == cu:
                total += 1
    return total


def parse_coloring(text: str) -> tuple[int, int, list[list[int]]]:
    """Read the plain-text coloring format: n, k, classes headers, then class lines."""
    lines = [ln.split() for ln in text.splitlines() if ln.strip() and not ln.lstrip().startswith("#")]
    if len(lines) < 3 or [ln[0] for ln in lines[:3]] != ["n", "k", "classes"]:
        raise ValueError("missing n/k/classes header")
    n, k, count = (int(ln[1]) for ln in lines[:3])
    body = lines[3:]
    if len(body) != count or any(ln[0] != "class" for ln in body):
        raise ValueError(f"expected {count} class lines")
    return n, k, [[int(w) for w in ln[1:]] for ln in body]


def partition_errors(n: int, k: int, classes: list[list[int]]) -> list[str]:
    """Why classes is not a proper coloring of Q_n^k; empty when it is one."""
    size = 1 << n
    color_of = [0] * size
    for c, words in enumerate(classes, start=1):
        for w in words:
            if not 0 <= w < size:
                return [f"word {w} out of range for n={n}"]
            if color_of[w]:
                return [f"word {w} in classes {color_of[w]} and {c}"]
            color_of[w] = c
    if 0 in color_of:
        return [f"word {color_of.index(0)} is uncoloured"]
    bad = naive_conflicts(color_of, n, k)
    return [f"{bad} pairs at distance <= {k} share a class"] if bad else []


def coloring_file_errors(text: str, n: int, k: int, num_classes: int | None) -> list[str]:
    """Check a saved coloring: header, class count, partition and distances."""
    try:
        got_n, got_k, classes = parse_coloring(text)
    except ValueError as exc:
        return [f"unreadable coloring: {exc}"]
    if (got_n, got_k) != (n, k):
        return [f"coloring is for n={got_n} k={got_k}, expected n={n} k={k}"]
    if num_classes is not None and len(classes) != num_classes:
        return [f"{len(classes)} classes, expected {num_classes}"]
    return partition_errors(n, k, classes)


def same_partition(a: list[list[int]], b: list[list[int]]) -> bool:
    """Equal as partitions, ignoring empty classes, class order and word order."""
    return sorted(sorted(c) for c in a if c) == sorted(sorted(c) for c in b if c)
