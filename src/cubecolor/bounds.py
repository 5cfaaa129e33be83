"""Lower bounds on the chromatic number of Q_n^k via maximum code sizes.

Every color class of a proper coloring of Q_n^k is a binary code of minimum
distance >= k+1, so at least ceil(2^n / A(n, k+1)) colors are needed, where
A(n, d) is the maximum size of an (n, M, d) code.  Known A(n, d) values ship
as a small cited table; small instances are computed exactly by branch and
bound (maximum independent set of the distance-< d conflict graph, with word
0 fixed in the code by translation symmetry), which stops as soon as its best
code meets the Plotkin bound (Plotkin 1960, "Binary codes with specified
minimum distance").
"""

from __future__ import annotations

import sys
from collections import namedtuple

from .hamming import Params, ball_masks

# Exact search is desk-scale only; beyond this the conflict graph and the
# search tree stop being laptop material.
MAX_EXACT_DIMENSION = 12
DEFAULT_NODE_BUDGET = 3 * 10**6

STATUS_EXACT = "exact"
STATUS_TIMEOUT = "timeout-lower-bound"

SOURCE_TABLE = "known-table"
SOURCE_EXACT = "exact-computation"


class UnknownCodeSizeError(ValueError):
    """A(n, d) is neither in the table nor computable at desk scale."""


# Known maximum sizes A(n, d) of binary codes of length n and odd minimum
# distance d: (n, d) -> (value, citation).  Even d is looked up as
# A(n, d) = A(n - 1, d - 1).  Entries for n <= 6 are deliberately absent:
# the exact search recomputes those instantly, so lookups fall back to it
# and report their source as a computation rather than a citation.
KNOWN_CODE_SIZES = {
    (7, 3): (16, "Hamming (1950), perfect single-error-correcting code"),
    (8, 3): (20, "Best, Brouwer, MacWilliams, Odlyzko, Sloane (1978)"),
    (9, 3): (40, "Best (1980); upper bound in Best et al. (1978)"),
    (10, 3): (72, "Östergård, Baicheva, Kolev (1999), IEEE Trans. Inf. Theory 45,"
              ' "Optimal binary one-error-correcting codes of length 10 have 72 codewords"'),
}


class CodeSizeResult(namedtuple("CodeSizeResult", "value status")):
    """status is STATUS_EXACT or STATUS_TIMEOUT."""

    __slots__ = ()


def _conflict_adjacency(n: int, d: int) -> list[int]:
    """adj[v]: bit u set iff 0 < d(u, v) < d, for every word v of length n.

    adj[0] is the ball of radius d-1 without 0.  Translating by bit j swaps
    every block of 2^j index bits with its neighbour, so the rows with bit j
    set follow from the rows without it in four big-int operations each.
    """
    full = (1 << (1 << n)) - 1
    adj = [sum(1 << m for m in ball_masks(n, d - 1))]
    for j in range(n):
        s = 1 << j
        lo = ((1 << s) - 1) * (full // ((1 << 2 * s) - 1))  # index bit j clear
        hi = lo << s
        adj += [((a & lo) << s) | ((a & hi) >> s) for a in adj]
    return adj


def _plotkin_bound(n: int, d: int) -> int | None:
    """Plotkin's upper bound on A(n, d) for d <= n, or None where it says nothing.

    For even d, A(n, d) <= 2 * floor(d / (2d - n)) when 2d > n, and
    A(2d, d) <= 4d.  Odd d reduces to even: A(n, d) = A(n + 1, d + 1).
    """
    if d > n:
        return None  # A(n, d) = 1, and the formula would say 0
    if d % 2:
        n, d = n + 1, d + 1
    if 2 * d > n:
        return 2 * (d // (2 * d - n))
    if 2 * d == n:
        return 4 * d
    return None


def _branch_and_bound(n: int, d: int, budget: int) -> CodeSizeResult:
    """Maximum independent set search, no closed-form shortcuts.

    Word 0 is fixed in the code: translating any code by one of its own words
    preserves all distances, so some maximum code contains 0 and the
    remaining candidates are exactly the words of weight >= d.  Each node
    covers its candidate pool greedily with cliques of the conflict graph
    and labels every word with its clique's index (Tomita & Seki 2003).  A
    code holds at most one word of a clique, so the word labelled l and the
    words covered before it add at most l code words.  Candidates are
    branched in reverse cover order, and a node is pruned once
    chosen + label <= best, the size of the largest code found so far.  The
    search ends, exact, as soon as best meets the Plotkin bound.  A node is
    one include/exclude decision; exceeding the budget returns the best size
    found so far.  The pair searched and the nodes spent go to stderr.
    """
    adj = _conflict_adjacency(n, d)
    pool0 = ((1 << (1 << n)) - 2) & ~adj[0]  # every word but 0 and its ball
    plotkin = _plotkin_bound(n, d)

    best = nodes = 0
    stopped = False

    def grow(chosen: int, pool: int) -> None:
        nonlocal best, nodes, stopped
        if chosen > best:
            best = chosen
            if best == plotkin:
                stopped = True
                return
        labels: list[int] = []
        words: list[int] = []
        label = 0
        rem = pool
        while rem:
            label += 1
            clique = rem
            while clique:
                low = clique & -clique
                v = low.bit_length() - 1
                rem ^= low
                clique &= adj[v]
                labels.append(label)
                words.append(v)
        for i in range(len(words) - 1, -1, -1):
            nodes += 1
            if nodes > budget:
                stopped = True
                return
            if chosen + labels[i] <= best:
                return
            v = words[i]
            pool ^= 1 << v
            grow(chosen + 1, pool & ~adj[v])
            if stopped:
                return

    grow(1, pool0)
    exact = best == plotkin or not stopped
    spent = f"exact after {nodes}" if exact else f"node budget ran out after {budget}"
    print(f"A({n},{d}): {spent} nodes", file=sys.stderr, flush=True)
    return CodeSizeResult(best, STATUS_EXACT if exact else STATUS_TIMEOUT)


def exact_max_code_size(n: int, d: int, budget: int = DEFAULT_NODE_BUDGET) -> CodeSizeResult:
    """Largest M such that an (n, M, d) code exists.

    d = 1 admits the whole space and d = 2 the even-weight words, so those
    return in closed form for every n; d > n forces a single word, and where
    Plotkin's bound is 2, {0, 1^n} meets it.
    Everything else runs the branch-and-bound search under the given node
    budget, which is desk-scale only: n <= MAX_EXACT_DIMENSION.  An even d
    searches A(n - 1, d - 1), which is equal (adding a parity bit to a code
    of odd distance d - 1 makes its distance d; deleting a coordinate of a
    code of distance d leaves d - 1), over half the words.  The search may
    run for minutes, so it names itself and its budget on stderr first, and
    the nodes it spent when it ends.
    """
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    if d < 1:
        raise ValueError(f"minimum distance must be >= 1, got {d}")
    if budget < 1:
        raise ValueError("node budget must be positive")
    if d == 1:
        return CodeSizeResult(1 << n, STATUS_EXACT)
    if d == 2:
        return CodeSizeResult(1 << (n - 1), STATUS_EXACT)
    if d > n:
        return CodeSizeResult(1, STATUS_EXACT)
    if _plotkin_bound(n, d) == 2:
        return CodeSizeResult(2, STATUS_EXACT)
    if n > MAX_EXACT_DIMENSION:
        raise ValueError(f"n={n} is out of exact-search range 1..{MAX_EXACT_DIMENSION}")
    searched = f"A({n},{d})"
    if d % 2 == 0:
        n, d = n - 1, d - 1
        searched += f" = A({n},{d})"
    print(f"exact search for {searched}, node budget {budget}", file=sys.stderr, flush=True)
    return _branch_and_bound(n, d, budget)


def packing_lower_bound(n: int, max_code_size: int) -> int:
    """ceil(2^n / A) colors are needed when color classes have size <= A."""
    if max_code_size < 1:
        raise ValueError("max_code_size must be >= 1")
    return -((1 << n) // -max_code_size)


class ChromaticBound(namedtuple("ChromaticBound", "bound source max_code_size citation")):
    """source is SOURCE_TABLE or SOURCE_EXACT; citation is the table's, None
    when max_code_size was computed."""

    __slots__ = ()


def chromatic_lower_bound(n: int, k: int) -> ChromaticBound:
    """Packing lower bound on the chromatic number of Q_n^k.

    A(n, k+1) is resolved from KNOWN_CODE_SIZES first, an even k+1 through
    A(n, k+1) = A(n - 1, k), then by exact computation.  If neither applies,
    UnknownCodeSizeError is raised: a silently weaker bound would be worse
    than no answer.
    """
    Params(n, k)  # ValueError naming the range, as for every other command
    d = k + 1
    m, e = (n, d) if d % 2 else (n - 1, d - 1)
    entry = KNOWN_CODE_SIZES.get((m, e))
    if entry is not None:
        value, citation = entry
        if e != d:
            citation = f"A({n},{d}) = A({m},{e}), even-weight extension/shortening; {citation}"
        return ChromaticBound(packing_lower_bound(n, value), SOURCE_TABLE, value, citation)
    try:
        value, status = exact_max_code_size(n, d)
    except ValueError as exc:  # n and d are in range, so only n is too large to search
        raise UnknownCodeSizeError(f"A({n},{d}) is unknown: not in the table and {exc}") from None
    if status != STATUS_EXACT:
        raise UnknownCodeSizeError(
            f"A({n},{d}) is unknown: not in the table and the exact search exhausted its"
            f" {DEFAULT_NODE_BUDGET}-node budget (best code found: {value} words)"
        )
    return ChromaticBound(packing_lower_bound(n, value), SOURCE_EXACT, value, None)
