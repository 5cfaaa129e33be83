"""Heuristic construction of colorings: greedy, DSATUR, tabu search, lifting.

All heuristics walk Q_n^k as a Cayley graph: the neighbors of v are v ^ m
for the masks m of hamming.ball_masks(n, k); DSATUR XORs them afresh, and
greedy XORs whole cosets.  tabu_search and the freeze-subcube lift run the
kernel of cubecolor.tabu, imported on first use, which tabulates them once
per call: greedy, DSATUR and the double lift never load it.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import defaultdict, namedtuple

from .coloring import Coloring, coloring_from_classes, verify_coloring
from .hamming import Params, ball_masks, ball_size

#: color_of entry for a vertex not colored yet, while DSATUR or
#: assignment_from_coloring fills the list; an Assignment never holds it.
UNASSIGNED = 0

STRATEGY_DOUBLE = "double"
STRATEGY_FREEZE_SUBCUBE = "freeze-subcube"
STRATEGIES = (STRATEGY_DOUBLE, STRATEGY_FREEZE_SUBCUBE)

#: Largest working memory, in bytes, that greedy_color, dsatur_color and
#: tabu_search may estimate for a run before allocating it.  The estimates
#: round up tracemalloc peaks: tabu 16 K + 8 deg + 384 B per vertex (deg
#: neighbor row entries of 8 B) plus 256 B per neighbor, against 449-20585 B
#: per vertex at n = 8..14, k = 1..8, K = 2..40.  Greedy and DSATUR add 480 B
#: for each of at most ball_size(n, k) colours, and DSATUR 4 B per vertex per
#: 30 colours for its bitmasks, against peaks of 63-555 and 79-693 B per
#: vertex (n = 8..13, k = 0..n).
MAX_SEARCH_BYTES = 1 << 30


def _check_memory(what: str, estimate: int) -> None:
    if estimate > MAX_SEARCH_BYTES:
        raise ValueError(
            f"{what} would need about {estimate >> 20} MiB,"
            f" above the limit of {MAX_SEARCH_BYTES >> 20} MiB"
        )


def _check_tabu_memory(params: Params) -> None:
    deg = ball_size(params.n, params.k) - 1
    estimate = (16 * params.num_colors + 8 * deg + 384) * params.num_words + 256 * deg
    _check_memory("tabu search", estimate)


class Assignment:
    """Search-time color assignment: color_of[v] in 1..K for every vertex."""

    def __init__(self, params: Params, color_of: list[int]) -> None:
        if len(color_of) != params.num_words:
            raise ValueError(f"color_of has length {len(color_of)}, expected {params.num_words}")
        limit = params.num_colors
        for v, c in enumerate(color_of):
            if c < 1 or (limit is not None and c > limit):
                rule = "but colors start at 1" if limit is None else f"outside 1..{limit}"
                raise ValueError(f"vertex {v} has color {c} {rule}")
        self.params = params
        self.color_of = color_of

    def to_coloring(self) -> Coloring:
        """Convert to a Coloring with one class per color 1..K."""
        num = self.params.num_colors or max(self.color_of)
        classes: list[list[int]] = [[] for _ in range(num)]
        for v, c in enumerate(self.color_of):
            classes[c - 1].append(v)
        return coloring_from_classes(self.params, classes)


def assignment_from_coloring(col: Coloring) -> Assignment:
    """Inverse of Assignment.to_coloring; a word in two classes or in none is a ValueError."""
    color_of = [UNASSIGNED] * col.params.num_words
    for idx, c in enumerate(col.classes, start=1):
        for w in c.words:
            if color_of[w] != UNASSIGNED:
                raise ValueError(f"word {w} is in classes {color_of[w]} and {idx}")
            color_of[w] = idx
    if UNASSIGNED in color_of:
        raise ValueError(f"word {color_of.index(UNASSIGNED)} is in no class")
    return Assignment(col.params, color_of)


class SearchConfig(namedtuple("SearchConfig", "rng_seed max_iterations restarts")):
    """Tabu/restart knobs.

    Restart r uses seed rng_seed + r; the best outcome across restarts wins,
    ties going to the earliest restart, so a parallel fan-out would return
    the same answer as the sequential loop.
    """

    __slots__ = ()

    def __new__(cls, rng_seed: int = 0, max_iterations: int = 100_000, restarts: int = 0) -> SearchConfig:
        if max_iterations < 1:
            raise ValueError("max_iterations must be positive")
        if restarts < 0:
            raise ValueError("restarts must be nonnegative")
        return super().__new__(cls, rng_seed, max_iterations, restarts)


class SearchOutcome(
    namedtuple("SearchOutcome", "best conflicts iterations_used restarts_used seed_used")
):
    """Best assignment found plus the counters needed to reproduce it.

    conflicts is conflict_count(best).  seed_used is the seed of the restart
    that produced best, so rerunning with rng_seed=seed_used, restarts=0
    reproduces it bit-exactly (without init, if best came from a later
    restart).  restarts_used is the index of the last restart executed;
    iterations_used sums iterations over all executed restarts.
    """

    __slots__ = ()


def conflict_count(a: Assignment) -> int:
    """Number of unordered same-color pairs at distance 1..k."""
    color_of = a.color_of
    masks = ball_masks(a.params.n, a.params.k)
    total = 0
    for v, cv in enumerate(color_of):
        for m in masks:
            if color_of[v ^ m] == cv:
                total += 1
    return total // 2  # every conflicting pair is seen once from each end


def greedy_color(params: Params) -> Coloring:
    """First-fit coloring in ascending vertex order: the cosets of the lexicode.

    Color - 1 is linear over GF(2) in the word (Conway & Sloane 1986): word 2^i
    takes the least color unused below it at weight < k, and words
    2^i..2^(i+1) - 1 follow by XOR.  Always valid: at most ball_size(n, k) colors.
    """
    n, k = params.n, params.k
    _check_memory("greedy coloring", 160 * params.num_words + 480 * ball_size(n, k))
    low = [0]  # color - 1 of the words below 2^i
    for _ in range(n):
        used = {c for u, c in enumerate(low) if u.bit_count() < k}
        c = 0
        while c in used:
            c += 1
        low += [x ^ c for x in low]
    return Assignment(Params(n, k), [c + 1 for c in low]).to_coloring()


def dsatur_color(params: Params) -> Coloring:
    """DSATUR (Brelaz 1979): color next the vertex that sees the most distinct colors.

    Ties break by the larger number of uncolored neighbors, then by the
    smaller vertex value, making the run fully deterministic.  seen[u] is a
    bitmask of the colors u's neighbors have, and uncolored u has one key,
    s * span + d for saturation s and uncolored degree d < span, so key order
    is (s, d) order.  buckets files u under its key in an ascending list of
    -u, so a pick pops the least vertex of the highest key from the end; top
    rises when a key is filed above it and walks down past emptied buckets,
    which are deleted.  A bucket is a list, not a set: at k = 1 the highest
    holds about an eighth of the vertices, and a min over a set that large
    made the run quadratic.
    """
    size = params.num_words
    colors = ball_size(params.n, params.k)
    _check_memory("DSATUR", (320 + colors // 7) * size + 480 * colors)
    masks = ball_masks(params.n, params.k)
    span = len(masks) + 1
    color_of = [UNASSIGNED] * size
    seen = [1] * size  # bit c: a neighbor has color c; bit 0, UNASSIGNED, is always set
    key = [len(masks)] * size
    buckets = defaultdict(list, {len(masks): list(range(1 - size, 1))})
    top = len(masks)

    for _ in range(size):
        while top not in buckets:
            top -= 1
        winners = buckets[top]
        v = -winners.pop()
        if not winners:
            del buckets[top]
        s = seen[v]
        c = (~s & (s + 1)).bit_length() - 1  # the least color no neighbor has
        color_of[v] = c
        bit = 1 << c
        for m in masks:
            u = v ^ m
            if color_of[u] == UNASSIGNED:
                ku = key[u]
                bucket = buckets[ku]
                del bucket[bisect_left(bucket, -u)]
                if not bucket:
                    del buckets[ku]
                ku -= 1
                if not seen[u] & bit:
                    seen[u] |= bit
                    ku += span
                    top = max(top, ku)
                key[u] = ku
                insort(buckets[ku], -u)
    return Assignment(Params(params.n, params.k), color_of).to_coloring()


def tabu_search(
    params: Params, config: SearchConfig | None = None, init: Assignment | None = None
) -> SearchOutcome:
    """Fixed-K tabu search minimizing the number of conflicting pairs.

    Restart r starts from init (r = 0, when given) or from uniform random
    colors drawn from random.Random(rng_seed + r), which then makes its
    moves.  Stops early when a restart reaches zero conflicts.  Deterministic
    given (params, config, init).
    """
    if params.num_colors is None:
        raise ValueError("tabu_search needs params.num_colors")
    config = config or SearchConfig()
    num_colors = params.num_colors
    _check_tabu_memory(params)

    if init is not None:
        if init.params.n != params.n or init.params.k != params.k:
            raise ValueError("init assignment has different n or k")
        if any(c > num_colors for c in init.color_of):
            raise ValueError("init assignment uses colors above num_colors")

    from .tabu import _restarts

    unfixed = [[0] * (num_colors + 1)] * params.num_words  # one shared row, never written
    best, *counts = _restarts(
        num_colors, ball_masks(params.n, params.k), unfixed, config,
        lambda r: None if r or init is None else list(init.color_of),
    )
    return SearchOutcome(Assignment(params, best), *counts)


def extend_to_higher_dim(
    base: Coloring,
    strategy: str,
    num_colors: int | None = None,
    config: SearchConfig | None = None,
) -> SearchOutcome:
    """Lift a valid coloring of Q_n^k to Q_{n+1}^k.

    "double" colors (a, x) with base's color of x offset by a * K_base: both
    copies reuse the base classes and cross-copy pairs land in disjoint color
    blocks, so the result is always valid with 2 * K_base colors.

    "freeze-subcube" keeps the lower copy fixed at base's colors and runs the
    tabu search with num_colors colors on the upper copy, a Q_n^k whose word
    x sees the lower words x ^ m, |m| < k, as fixed neighbors.  Restart r
    draws that copy's colors from random.Random(rng_seed + r), then moves on
    a fresh generator of the same seed.  The returned conflict count may be
    positive, there is no success guarantee.
    """
    if not verify_coloring(base).valid:
        raise ValueError("base coloring is not valid")
    n, k = base.params.n, base.params.k
    base_colors = assignment_from_coloring(base).color_of
    k_base = len(base.classes)
    config = config or SearchConfig()

    if strategy == STRATEGY_DOUBLE:
        target = 2 * k_base
        if num_colors is not None and num_colors != target:
            raise ValueError(f"double strategy yields exactly {target} colors, got {num_colors}")
        assignment = Assignment(
            Params(n + 1, k, target), base_colors + [c + k_base for c in base_colors]
        )
        return SearchOutcome(
            best=assignment,
            conflicts=conflict_count(assignment),
            iterations_used=0,
            restarts_used=0,
            seed_used=config.rng_seed,
        )

    if strategy == STRATEGY_FREEZE_SUBCUBE:
        import random
        from .tabu import _restarts

        if num_colors is None:
            raise ValueError("freeze-subcube needs a target color count")
        used = max(base_colors)
        if num_colors < used:
            raise ValueError(f"base coloring uses {used} colors, target {num_colors} is smaller")
        params_out = Params(n + 1, k, num_colors)
        _check_tabu_memory(params_out)  # bounds the free half's rows and its fixed counts too
        fixed = [[0] * (num_colors + 1) for _ in base_colors]
        fixed_masks = [0, *ball_masks(n, k - 1)] if k else []
        for x, row in enumerate(fixed):
            for m in fixed_masks:
                row[base_colors[x ^ m]] += 1

        def draw(r: int) -> list[int]:  # from its own generator, which then makes the moves
            rng = random.Random(config.rng_seed + r)
            return [rng.randrange(1, num_colors + 1) for _ in base_colors]
        best, *counts = _restarts(num_colors, ball_masks(n, k), fixed, config, draw)
        return SearchOutcome(Assignment(params_out, base_colors + best), *counts)

    raise ValueError(f"unknown strategy {strategy!r}")
