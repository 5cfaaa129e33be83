"""Independent reference implementations used to cross-check the package.

Everything here is deliberately naive: full enumeration and all-pairs scans
with no shared code paths, so agreement with the package is meaningful.
"""

from __future__ import annotations

import heapq
import itertools
import random

import cubecolor.tabu
from cubecolor.bounds import STATUS_EXACT, STATUS_TIMEOUT, CodeSizeResult
from cubecolor.coloring import Coloring
from cubecolor.hamming import Params, ball_masks
from cubecolor.search import UNASSIGNED, Assignment, SearchConfig


def naive_distance(u: int, v: int) -> int:
    return bin(u ^ v).count("1")


def naive_neighbors(n: int, k: int) -> tuple[tuple[int, ...], ...]:
    """Neighbors of every vertex of Q_n^k, ascending, by scanning all pairs."""
    size = 1 << n
    return tuple(
        tuple(u for u in range(size) if 1 <= naive_distance(u, v) <= k) for v in range(size)
    )


def naive_max_code_size(n: int, d: int) -> int:
    """Maximum code size by enumerating the subsets of {0,1}^n by size, up to
    the first size that holds no code (every subset of a code is a code).
    It checks up to C(2^n, A + 1) subsets: n <= 4, or n <= 6 where A is tiny."""
    if n > 6:
        raise ValueError("subset enumeration is C(2^n, A + 1); keep n <= 6")
    size = 1
    while any(
        all(naive_distance(u, v) >= d for u, v in itertools.combinations(sub, 2))
        for sub in itertools.combinations(range(1 << n), size + 1)
    ):
        size += 1
    return size


def naive_conflicts(n: int, k: int, color_of: list[int]) -> int:
    """Count monochromatic pairs at distance 1..k by scanning all pairs."""
    total = 0
    for u, v in itertools.combinations(range(1 << n), 2):
        if color_of[u] == color_of[v] and 1 <= naive_distance(u, v) <= k:
            total += 1
    return total


def naive_is_valid(n: int, k: int, classes) -> bool:
    """Partition check plus all-pairs distance check, independent of the verifier."""
    seen: list[int] = []
    for cls in classes:
        words = list(cls)
        seen.extend(words)
        for u, v in itertools.combinations(words, 2):
            if naive_distance(u, v) <= k:
                return False
    return sorted(seen) == list(range(1 << n))


def naive_violation_count(n: int, k: int, classes) -> int:
    """Repeated words, missing words and close same-class pairs, counted directly."""
    words = [w for cls in classes for w in cls]
    repeats = len(words) - len(set(words))
    missing = sum(1 for w in range(1 << n) if w not in set(words))
    close = sum(
        1
        for cls in classes
        for u, v in itertools.combinations(list(cls), 2)
        if naive_distance(u, v) <= k
    )
    return repeats + missing + close


def coloring_to_model(col: Coloring) -> set[int]:
    """Canonical model of a coloring: "word w has color c" is true, as
    variable w*K + c, for each word w of class c, and nothing else."""
    num_colors = col.params.num_colors
    return {w * num_colors + c for c, cls in enumerate(col.classes, start=1) for w in cls.words}


def evaluate(formula, true_vars: set[int]) -> bool:
    """True iff every clause has a satisfied literal (variables absent from
    true_vars are false)."""
    return all(
        any((lit > 0) == (abs(lit) in true_vars) for lit in clause) for clause in formula.clauses
    )


def clause_fault(clause, num_vars: int) -> str | None:
    """Why a clause is malformed (empty, a literal outside +-1..num_vars, or
    both x and -x), or None when it is well formed.  One literal at a time."""
    if not clause:
        return "empty clause"
    for lit in clause:
        if lit == 0 or abs(lit) > num_vars:
            return f"literal {lit} out of range for {num_vars} variables"
        if -lit in clause:
            return f"clause {clause} contains both {lit} and {-lit}"
    return None


def read_dimacs(text: str) -> tuple[list[str], int, int, list[tuple[int, ...]]]:
    """(comments, num_vars, num_clauses, clauses) of DIMACS text with one
    0-terminated clause per line.  No error handling: for the writer's output."""
    comments, clauses = [], []
    for line in text.splitlines():
        if line.startswith("c "):
            comments.append(line[2:])
        elif line.startswith("p cnf "):
            num_vars, num_clauses = map(int, line.split()[2:])
        else:
            *literals, end = map(int, line.split())
            assert end == 0, line
            clauses.append(tuple(literals))
    return comments, num_vars, num_clauses, clauses


def first_fit(params: Params, order: list[int]) -> Coloring:
    """First-fit coloring along order: each vertex takes the least color that
    no earlier vertex within distance 1..k has, found by scanning them all."""
    color_of: dict[int, int] = {}
    for v in order:
        used = {c for u, c in color_of.items() if 1 <= naive_distance(u, v) <= params.k}
        c = 1
        while c in used:
            c += 1
        color_of[v] = c
    colors = [color_of[v] for v in range(params.num_words)]
    return Assignment(Params(params.n, params.k), colors).to_coloring()


def reference_branch_and_bound(n: int, d: int, budget: int) -> CodeSizeResult:
    """The exact code-size search as first written: popcount pruning only.

    Kept verbatim as the reference for bounds._branch_and_bound; any value it
    returns with STATUS_EXACT is A(n, d).  Candidates are branched in ascending
    integer order.  Word 0 is fixed in the code: translating any code by one
    of its own words preserves all distances, so some maximum code contains 0
    and the remaining candidates are exactly the words of weight >= d.  A node
    is one include/exclude decision; exceeding the budget returns the best
    size found so far.
    """
    masks = ball_masks(n, d - 1)
    adj = [sum(1 << (v ^ m) for m in masks) for v in range(1 << n)]
    pool0 = ((1 << (1 << n)) - 2) & ~adj[0]  # every word but 0 and its ball

    best = 1
    nodes = 0
    aborted = False

    def grow(chosen: int, pool: int) -> None:
        nonlocal best, nodes, aborted
        if chosen > best:
            best = chosen
        while pool:
            nodes += 1
            if nodes > budget:
                aborted = True
                return
            if chosen + pool.bit_count() <= best:
                return
            lsb = pool & -pool
            v = lsb.bit_length() - 1
            grow(chosen + 1, pool & ~adj[v] & ~lsb)
            if aborted:
                return
            pool ^= lsb

    grow(1, pool0)
    return CodeSizeResult(best, STATUS_TIMEOUT if aborted else STATUS_EXACT)


def reference_dsatur(params: Params) -> Coloring:
    """DSATUR as first written: an O(N^2) scan of every vertex to choose each one.

    Kept verbatim as the reference for search.dsatur_color.  Repeatedly colors
    the vertex that sees the most distinct colors; ties break by the larger
    number of uncolored neighbors, then by the smaller vertex value.
    """
    size = params.num_words
    masks = ball_masks(params.n, params.k)
    color_of = [UNASSIGNED] * size
    saturation: list[set[int]] = [set() for _ in range(size)]
    uncolored_degree = [len(masks)] * size

    for _ in range(size):
        best_v = -1
        best_key = None
        for v in range(size):
            if color_of[v] != UNASSIGNED:
                continue
            key = (len(saturation[v]), uncolored_degree[v], -v)
            if best_key is None or key > best_key:
                best_key = key
                best_v = v
        used = saturation[best_v]
        c = 1
        while c in used:
            c += 1
        color_of[best_v] = c
        for m in masks:
            u = best_v ^ m
            if color_of[u] == UNASSIGNED:
                saturation[u].add(c)
                uncolored_degree[u] -= 1
    return Assignment(Params(params.n, params.k), color_of).to_coloring()


def heap_dsatur(params: Params) -> Coloring:
    """DSATUR on one heap keyed (-saturation, -uncolored_degree, v).

    Kept as the reference for search.dsatur_color's buckets; same rule and
    ties as reference_dsatur, fast enough to compare up to n = 9.  An entry
    is pushed only when a saturation rises, so the degree in an entry may be
    stale, but never below the true one: an entry of current saturation whose
    degree is stale goes back with its current key, and one of stale
    saturation is dropped.
    """
    size = params.num_words
    masks = ball_masks(params.n, params.k)
    color_of = [UNASSIGNED] * size
    saturation: list[set[int]] = [set() for _ in range(size)]
    uncolored_degree = [len(masks)] * size
    heap = [(0, -len(masks), v) for v in range(size)]  # already a heap: v ascends

    while heap:
        neg_sat, neg_degree, v = heapq.heappop(heap)
        used = saturation[v]
        if neg_sat != -len(used):
            continue  # v's saturation rose since; a colored v keeps only such entries
        if neg_degree != -uncolored_degree[v]:
            heapq.heappush(heap, (neg_sat, -uncolored_degree[v], v))
            continue
        c = 1
        while c in used:
            c += 1
        color_of[v] = c
        for m in masks:
            u = v ^ m
            if color_of[u] == UNASSIGNED:
                uncolored_degree[u] -= 1
                seen = saturation[u]
                if c not in seen:
                    seen.add(c)
                    heapq.heappush(heap, (-len(seen), -uncolored_degree[u], u))
    return Assignment(Params(params.n, params.k), color_of).to_coloring()


def reference_tabu_run(
    color_of: list[int],
    num_colors: int,
    neighbors: tuple[tuple[int, ...], ...],
    frozen: frozenset[int],
    rng: random.Random,
    config: SearchConfig,
    base: int,
    slope: float,
) -> tuple[list[int], int, int]:
    """The tabu kernel as first written: every (vertex, color) pair every iteration.

    Kept verbatim as the bit-exact reference for tabu._tabu_run; returns
    (best_colors, best_conflicts, iters) and draws from rng identically.
    A reverted (vertex, old-color) pair stays tabu for int(base + slope *
    conflicts) iterations: the tenure is passed in, not read from tabu.  The
    conflict tally is recounted every cubecolor.tabu.SELF_CHECK_PERIOD
    iterations, read at call time (0: never).

    Each iteration moves one conflicted, non-frozen vertex to the color that
    minimizes the resulting conflict count over non-tabu moves; a tabu move is
    admitted only if it would beat the best conflict count ever seen
    (aspiration).  Ties are broken uniformly at random from rng, which is the
    run's only source of randomness besides the initial assignment.  If every
    move is tabu and none aspirates, the best move ignoring tabu is taken so
    the search always progresses.
    """
    size = len(color_of)
    gamma = [[0] * (num_colors + 1) for _ in range(size)]
    for v in range(size):
        gv = gamma[v]
        for u in neighbors[v]:
            gv[color_of[u]] += 1
    conflicts = sum(gamma[v][color_of[v]] for v in range(size)) // 2

    best_conflicts = conflicts
    best_colors = list(color_of)
    tabu_until = [[0] * (num_colors + 1) for _ in range(size)]

    period = cubecolor.tabu.SELF_CHECK_PERIOD
    it = 0
    while it < config.max_iterations and conflicts > 0:
        it += 1
        best_delta: int | None = None
        ties: list[tuple[int, int]] = []
        fb_delta: int | None = None
        fb_ties: list[tuple[int, int]] = []
        for v in range(size):
            if v in frozen:
                continue
            gv = gamma[v]
            cv = color_of[v]
            own = gv[cv]
            if own == 0:
                continue
            tv = tabu_until[v]
            for c in range(1, num_colors + 1):
                if c == cv:
                    continue
                delta = gv[c] - own
                if fb_delta is None or delta < fb_delta:
                    fb_delta = delta
                    fb_ties = [(v, c)]
                elif delta == fb_delta:
                    fb_ties.append((v, c))
                if tv[c] >= it and conflicts + delta >= best_conflicts:
                    continue
                if best_delta is None or delta < best_delta:
                    best_delta = delta
                    ties = [(v, c)]
                elif delta == best_delta:
                    ties.append((v, c))
        if not ties:
            if not fb_ties:
                break  # no movable vertex at all (e.g. K = 1 or everything frozen)
            best_delta, ties = fb_delta, fb_ties
        v, c = ties[0] if len(ties) == 1 else rng.choice(ties)

        old = color_of[v]
        tabu_until[v][old] = it + int(base + slope * conflicts)
        color_of[v] = c
        for u in neighbors[v]:
            gu = gamma[u]
            gu[old] -= 1
            gu[c] += 1
        conflicts += best_delta

        if conflicts < best_conflicts:
            best_conflicts = conflicts
            best_colors = list(color_of)

        if period and it % period == 0:
            recount = sum(color_of[u] == color_of[v] for v in range(size) for u in neighbors[v])
            recount //= 2
            if recount != conflicts:
                raise AssertionError(
                    f"incremental conflict tally {conflicts} != recount {recount} at iteration {it}"
                )
    return best_colors, best_conflicts, it
