"""Heuristic construction of colorings: greedy, DSATUR, tabu search, lifting.

All heuristics walk Q_n^k as a Cayley graph: the neighbors of v are v ^ m
for the masks m of hamming.ball_masks(n, k), so no per-vertex table is ever
built.  The tabu search is a fixed-K conflict-minimization scheme in the
TabuCol family; it is bit-exactly reproducible from (params, config, init)
because all randomness comes from per-restart seeded generators.
"""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right, insort
from collections import namedtuple
from itertools import accumulate, chain

from .coloring import Coloring, coloring_from_classes, verify_coloring
from .frozen import Frozen
from .hamming import Params, ball_masks, ball_size

#: color_of entry for a vertex not colored yet, while greedy, DSATUR or
#: assignment_from_coloring fills the list; an Assignment never holds it.
UNASSIGNED = 0

#: Iterations between recounts, in self-check mode, of the tabu kernel's
#: incremental state: the conflict tally, the key buckets and their cursor,
#: every vertex's own count and latest tabu expiry, and every conflicted
#: vertex's neighbor color counts, row minimum and its multiplicity.
SELF_CHECK_PERIOD = 10_000

STRATEGY_DOUBLE = "double"
STRATEGY_FREEZE_SUBCUBE = "freeze-subcube"
STRATEGIES = (STRATEGY_DOUBLE, STRATEGY_FREEZE_SUBCUBE)

#: Largest working memory, in bytes, that greedy_color, dsatur_color and
#: tabu_search may estimate for a run before allocating it.  The estimates
#: round up tracemalloc peaks per vertex: tabu 16 K + 256 B against 270, 558
#: and 876 B at K = 2, 20, 40 (n = 14); greedy 110 B; DSATUR 104 B per mask,
#: set when a heap kept an entry per colored neighbor (100 B at n = 13..16,
#: k = 2), against 6-37 B now that its buckets file each vertex once (n = 8..13,
#: k = 1..5).
MAX_SEARCH_BYTES = 1 << 30

#: Tabu tenure, the classic graph-coloring setting: a reverted (vertex,
#: old-color) pair stays tabu for int(TABU_TENURE_BASE + TABU_TENURE_SLOPE *
#: current_conflicts) iterations.
TABU_TENURE_BASE = 7
TABU_TENURE_SLOPE = 0.6


def _check_memory(what: str, estimate: int) -> None:
    if estimate > MAX_SEARCH_BYTES:
        raise ValueError(
            f"{what} would need about {estimate >> 20} MiB,"
            f" above the limit of {MAX_SEARCH_BYTES >> 20} MiB"
        )


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


class SearchConfig(Frozen):
    """Tabu/restart knobs.

    Restart r uses seed rng_seed + r; the best outcome across restarts wins,
    ties going to the earliest restart, so a parallel fan-out would return
    the same answer as the sequential loop.
    """

    __slots__ = ("rng_seed", "max_iterations", "restarts", "self_check")

    def __init__(
        self, rng_seed: int = 0, max_iterations: int = 100_000, restarts: int = 0,
        self_check: bool = False,
    ) -> None:
        if max_iterations < 1:
            raise ValueError("max_iterations must be positive")
        if restarts < 0:
            raise ValueError("restarts must be nonnegative")
        self._init(
            rng_seed=rng_seed, max_iterations=max_iterations, restarts=restarts,
            self_check=self_check,
        )


class SearchOutcome(
    namedtuple("SearchOutcome", "best conflicts iterations_used restarts_used seed_used")
):
    """Best assignment found plus the counters needed to reproduce it.

    conflicts is conflict_count(best).  seed_used is the seed of the restart
    that produced best, so rerunning with rng_seed=seed_used, restarts=0
    reproduces it bit-exactly.  restarts_used is the index of the last restart
    executed; iterations_used sums iterations over all executed restarts.
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


def greedy_color(params: Params, order: list[int] | None = None) -> Coloring:
    """First-fit coloring along the given vertex order (natural order if None).

    Always valid; uses at most 1 + (ball_size(n, k) - 1) colors since a vertex
    never needs more than its degree + 1.
    """
    size = params.num_words
    _check_memory("greedy coloring", 160 * size)
    if order is None:
        order = range(size)
    elif sorted(order) != list(range(size)):
        raise ValueError("order is not a permutation of the vertex set")
    masks = ball_masks(params.n, params.k)
    color_of = [UNASSIGNED] * size
    for v in order:
        used = {color_of[v ^ m] for m in masks}  # UNASSIGNED is never a color
        c = 1
        while c in used:
            c += 1
        color_of[v] = c
    return Assignment(Params(params.n, params.k), color_of).to_coloring()


def dsatur_color(params: Params) -> Coloring:
    """DSATUR (Brelaz 1979): color next the vertex that sees the most distinct colors.

    Ties break by the larger number of uncolored neighbors, then by the
    smaller vertex value, making the run fully deterministic.  Each uncolored
    vertex is filed in buckets[s][d], s being its saturation and d its
    uncolored degree, and the next vertex is the least of the highest bucket.
    top bounds every filed saturation and dtop[s] every degree filed at s:
    each rises when a vertex is filed above it, and a pick walks it down
    past empty buckets, which are deleted.  A bucket is an ascending list,
    not a set: at k = 1 the highest bucket holds about an eighth of the
    vertices, and a min over a set that large made the run quadratic.
    """
    size = params.num_words
    _check_memory("DSATUR", 104 * ball_size(params.n, params.k) * size)
    masks = ball_masks(params.n, params.k)
    color_of = [UNASSIGNED] * size
    saturation: list[set[int]] = [set() for _ in range(size)]
    uncolored_degree = [len(masks)] * size
    buckets = [{len(masks): list(range(size))}]
    dtop = [len(masks)]
    top = 0

    for _ in range(size):
        while not buckets[top]:
            top -= 1
        level = buckets[top]
        d = dtop[top]
        while d not in level:
            d -= 1
        dtop[top] = d
        winners = level[d]
        v = winners.pop(0)
        if not winners:
            del level[d]
        used = saturation[v]
        c = 1
        while c in used:
            c += 1
        color_of[v] = c
        for m in masks:
            u = v ^ m
            if color_of[u] == UNASSIGNED:
                seen = saturation[u]
                s = len(seen)
                d = uncolored_degree[u]
                level = buckets[s]
                bucket = level[d]
                del bucket[bisect_left(bucket, u)]
                if not bucket:
                    del level[d]
                d -= 1
                uncolored_degree[u] = d
                if c not in seen:
                    seen.add(c)
                    s += 1
                    if s == len(buckets):
                        buckets.append({})
                        dtop.append(d)
                    elif d > dtop[s]:
                        dtop[s] = d
                    top = max(top, s)
                    level = buckets[s]
                bucket = level.get(d)
                if bucket is None:
                    level[d] = [u]
                else:
                    insort(bucket, u)
    return Assignment(Params(params.n, params.k), color_of).to_coloring()


def _fresh_state(
    color_of: list[int], num_colors: int, masks: list[int], fixed: list[list[int]] | None
) -> tuple[list[list[int]], list[int], list[int], list[int], list[list[int]], int]:
    """_tabu_run's state counted from color_of: gamma, own, low, nlow, buckets, conflicts."""
    size = len(color_of)
    deg = len(masks) + (sum(fixed[0]) if fixed else 0)  # every vertex's full degree
    sentinel = 2 * deg  # a masked slot's delta, at least deg, stays above every real delta
    gamma = [list(row) for row in fixed] if fixed else [[0] * (num_colors + 1) for _ in color_of]
    own, low, nlow = [0] * size, [0] * size, [0] * size
    buckets: list[list[int]] = [[] for _ in range(2 * deg)]
    for v, cv in enumerate(color_of):
        gv = gamma[v]
        for m in masks:
            gv[color_of[v ^ m]] += 1
        own[v] = gv[cv]
        gv[0] = gv[cv] = sentinel
        lo = low[v] = min(gv)
        nlow[v] = gv.count(lo)
        if own[v] and num_colors > 1:
            buckets[lo - own[v] + deg].append(v)
    fixed_pairs = sum(row[cv] for row, cv in zip(fixed, color_of)) if fixed else 0
    return gamma, own, low, nlow, buckets, (sum(own) + fixed_pairs) // 2  # own counts those once


def _check_state(
    color_of: list[int], masks: list[int], fixed: list[list[int]] | None,
    gamma: list[list[int]], own: list[int], low: list[int], nlow: list[int],
    buckets: list[list[int]], first: int, tabu_until: list[list[int]], tmax: list[int],
    conflicts: int, it: int,
) -> None:
    """Recount _tabu_run's incremental state from color_of; AssertionError names it.

    Rows, row minima and their counts are compared only where own[v] > 0:
    the kernel lets the rest go stale.
    """
    want_gamma, want_own, want_low, want_nlow, want_buckets, recount = _fresh_state(
        color_of, len(gamma[0]) - 1, masks, fixed
    )
    for v in range(len(color_of)):
        if own[v] != want_own[v]:
            raise AssertionError(f"own count of vertex {v} out of date at iteration {it}")
        if own[v] and gamma[v] != want_gamma[v]:
            raise AssertionError(f"gamma row of vertex {v} out of date at iteration {it}")
        if own[v] and low[v] != want_low[v]:
            raise AssertionError(f"row minimum of vertex {v} out of date at iteration {it}")
        if own[v] and nlow[v] != want_nlow[v]:
            raise AssertionError(f"row minimum count of vertex {v} out of date at iteration {it}")
        if tmax[v] < max(tabu_until[v]):
            raise AssertionError(f"latest tabu expiry of vertex {v} out of date at iteration {it}")
    if recount != conflicts:
        raise AssertionError(
            f"incremental conflict tally {conflicts} != recount {recount} at iteration {it}"
        )
    deg = len(buckets) // 2
    for i, (bucket, want) in enumerate(zip(buckets, want_buckets)):
        if bucket != want:
            raise AssertionError(f"bucket of key {i - deg} out of date at iteration {it}")
        if bucket and i < first:
            raise AssertionError(
                f"bucket cursor at key {first - deg} above a filled key {i - deg} at iteration {it}"
            )


def _tabu_run(
    color_of: list[int],
    num_colors: int,
    masks: list[int],
    fixed: list[list[int]] | None,
    rng: random.Random,
    config: SearchConfig,
) -> tuple[list[int], int, int]:
    """One tabu descent from color_of; returns (best_colors, best_conflicts, iters).

    Each iteration moves one conflicted vertex to the color that minimizes
    the resulting conflict count over non-tabu moves; a tabu move is
    admitted only if it would beat the best conflict count ever seen
    (aspiration).  Ties are broken uniformly at random from rng, which is the
    run's only source of randomness besides the initial assignment.  If every
    move is tabu and none aspirates, the best move ignoring tabu is taken, so
    the search always progresses.

    The neighbors of v are v ^ m for m in masks (hamming.ball_masks), XORed
    afresh wherever they are needed; no per-vertex list is built.  fixed[v],
    when given, counts by color v's neighbors that never move (a lift's
    lower copy); deg, v's full degree, adds their number to len(masks).  A
    move changes only the rows of the moved vertex and its conflicted
    neighbors, so each neighbor u is dispatched on own[u] first: a conflicted
    u has its row, own count and key updated for its color being old, c or
    neither; an unconflicted u of color c has its row recounted; any other u
    costs one own read and one color read.  The state:

    - own[v] counts v's neighbors of its own color, for every v.
    - gamma[v][c] counts v's neighbors of color c, starting from fixed[v],
      except that slot 0 (no vertex has color 0) and the own slot
      color_of[v] always hold a sentinel above every count; gamma[v][c] -
      own[v] is the delta of moving v to c.  The row is exact only while
      own[v] > 0: a neighbor of an unconflicted vertex moves without
      touching its row, which is counted afresh when own[v] rises from 0.
      The own slot is rewritten only when v itself moves.
    - low[v] = min(gamma[v]) and nlow[v], the number of slots holding it, are
      valid while own[v] > 0.  A neighbor move shifts two slots by one, so
      when the last minimum slot rises the minimum is one more; both are set
      afresh when own[v] rises from 0.  When v moves from old to c, slot c
      (value o, the new own count) leaves the row and slot old (value p, the
      old own count) joins it; with kept = nlow[v] - (o == low[v]), p below
      the minimum gives (p, 1), p equal to it kept + 1, and p above it keeps
      the minimum unless kept is 0, the one case that scans the row.
    - buckets[key + deg] holds, ascending, exactly the v with own[v] > 0 and
      key = low[v] - own[v], which lies in -deg..deg - 2.  With K = 1 no
      vertex has a move, so none is filed.  No bucket below buckets[first]
      holds a vertex: first falls with every filing and rises to the first
      filled bucket when a move is picked.
    - tmax[v] is the latest expiry in tabu_until[v], so a v with
      tmax[v] < it has no tabu color.

    key is v's best delta, so the best move has the least key, top, and the
    first non-empty bucket holds its vertices.  If top aspirates, or every
    move is tabu, the candidates are all nlow[v] minimum colors of those
    vertices.  Otherwise they are the non-tabu colors of delta best: from
    best = top up, each vertex of key top..best, in ascending order, counts
    its non-tabu slots holding best + own[v], and best rises by one while
    none is found.  A vertex of key above best has no delta that low; best
    stops at deg - 1, above every real delta.

    Ties are counted, not listed: ends holds the running total of the
    candidate vertices' tie counts, appended as each vertex is counted, and
    total is its last entry.  The draw below total runs the getrandbits
    rejection loop of rng.choice(range(total)), so it takes the index
    rng.choice over a list of total ties would take and leaves rng in the
    same state.  The index is mapped back over the candidates in ascending
    (vertex, color) order, the order a scan of every pair would list them in,
    so the move drawn is the same; bisect_right on ends finds the vertex
    when there is more than one.
    """
    gamma, own, low, nlow, buckets, conflicts = _fresh_state(color_of, num_colors, masks, fixed)
    deg, sentinel = len(buckets) // 2, gamma[0][0]  # slot 0 always holds the sentinel
    nb, first = len(buckets), 0
    zero = [0] * (num_colors + 1)

    best_conflicts = conflicts
    best_colors = list(color_of)
    tabu_until = [[0] * (num_colors + 1) for _ in color_of]
    tmax = [0] * len(color_of)
    base, slope = TABU_TENURE_BASE, TABU_TENURE_SLOPE
    max_iterations, self_check = config.max_iterations, config.self_check
    getrandbits = rng.getrandbits

    it = 0
    while it < max_iterations and conflicts > 0:
        it += 1
        while first < nb and not buckets[first]:
            first += 1
        if first == nb:
            break  # no vertex has a move (K = 1)
        tops, top = buckets[first], first - deg
        best = top
        any_color = top < best_conflicts - conflicts  # aspiration
        if not any_color:
            vs, tie_vs, ends, total = tops, [], [], 0
            while True:
                for v in vs:
                    lo = best + own[v]
                    n = nlow[v] if lo == low[v] else gamma[v].count(lo)
                    if tmax[v] >= it:  # some color is tabu: count only the others
                        gv, tv = gamma[v], tabu_until[v]
                        rest, n, c = n, 0, -1
                        while rest:
                            c = gv.index(lo, c + 1)
                            n += tv[c] < it
                            rest -= 1
                    if n:
                        total += n
                        tie_vs.append(v)
                        ends.append(total)
                if total or best == deg - 1:  # deg - 1 is above every real delta
                    break
                best += 1
                vs = sorted(chain.from_iterable(buckets[first : best + deg + 1]))
            any_color = not total  # forced fallback
        if any_color:
            best = top
            tie_vs = tops
            ends = list(accumulate(map(nlow.__getitem__, tops)))
        total = ends[-1]
        r = 0
        if total > 1:  # rng.choice(range(total)), inlined
            bits = total.bit_length()
            r = getrandbits(bits)
            while r >= total:
                r = getrandbits(bits)
        i = bisect_right(ends, r) if len(ends) > 1 else 0
        v = tie_vs[i]
        if i:
            r -= ends[i - 1]
        gv, tv, p = gamma[v], tabu_until[v], own[v]
        target = best + p
        c = -1
        for _ in range(r + 1):
            c = gv.index(target, c + 1)
            while not (any_color or tv[c] < it):
                c = gv.index(target, c + 1)

        bucket = buckets[low[v] - p + deg]
        del bucket[bisect_left(bucket, v)]
        old = color_of[v]
        t = tv[old] = it + int(base + slope * conflicts)
        if t > tmax[v]:
            tmax[v] = t
        color_of[v] = c
        for m in masks:
            u = v ^ m
            o = own[u]
            if o:
                gu, cu = gamma[u], color_of[u]
                if cu == old:  # v was a neighbor of u's color
                    o = own[u] = o - 1
                    g = gu[c]
                    gu[c] = g + 1
                    lo = low[u]
                    bucket = buckets[lo - o - 1 + deg]
                    del bucket[bisect_left(bucket, u)]
                    if not o:
                        continue
                    if g == lo:
                        if nlow[u] > 1:
                            nlow[u] -= 1
                        else:
                            lo = low[u] = g + 1
                            nlow[u] = gu.count(lo)
                elif cu == c:
                    o = own[u] = o + 1
                    g = gu[old] = gu[old] - 1
                    lo = low[u]
                    bucket = buckets[lo - o + 1 + deg]
                    del bucket[bisect_left(bucket, u)]
                    if g <= lo:
                        nlow[u] = 1 if g < lo else nlow[u] + 1
                        lo = low[u] = g
                else:
                    g = gu[old] = gu[old] - 1
                    h = gu[c]
                    gu[c] = h + 1
                    lo = low[u]
                    if g == lo:
                        nlow[u] += h != lo  # slot old joins the minimum, unless slot c just left it
                        continue
                    if g < lo:
                        low[u], nlow[u] = g, 1
                    elif h != lo:
                        continue
                    elif nlow[u] > 1:
                        nlow[u] -= 1
                        continue
                    else:
                        low[u], nlow[u] = h + 1, gu.count(h + 1)
                    bucket = buckets[lo - o + deg]
                    del bucket[bisect_left(bucket, u)]
                    lo = low[u]
            elif color_of[u] == c:  # own[u] rises from 0: the row went stale meanwhile
                o = own[u] = 1
                gu = gamma[u]
                gu[:] = fixed[u] if fixed else zero
                for w in masks:
                    gu[color_of[u ^ w]] += 1
                gu[0] = gu[c] = sentinel
                lo = low[u] = min(gu)
                nlow[u] = gu.count(lo)
            else:
                continue  # u's row is not read until own[u] rises
            i = lo - o + deg  # every branch reaching here changed u's key
            insort(buckets[i], u)
            if i < first:
                first = i
        gv[old] = p
        own[v] = o = gv[c]
        gv[c] = sentinel
        if o:
            lo = low[v]  # slot c (value o) left the row, slot old (value p) joined it
            kept = nlow[v] - (o == lo)
            if p < lo:
                lo = low[v] = p
                nlow[v] = 1
            elif p == lo:
                nlow[v] = kept + 1
            elif kept:
                nlow[v] = kept
            else:
                lo = low[v] = min(gv)
                nlow[v] = gv.count(lo)
            i = lo - o + deg
            insort(buckets[i], v)
            if i < first:
                first = i
        conflicts += best

        if conflicts < best_conflicts:
            best_conflicts = conflicts
            best_colors = list(color_of)

        if self_check and it % SELF_CHECK_PERIOD == 0:
            _check_state(
                color_of, masks, fixed, gamma, own, low, nlow, buckets, first, tabu_until, tmax,
                conflicts, it,
            )
    return best_colors, best_conflicts, it


def _restarts(
    size: int, num_colors: int, masks: list[int], fixed: list[list[int]] | None,
    config: SearchConfig, first: list[int] | None,
) -> SearchOutcome:
    """The restart loop of tabu_search and of the lift, best being a color list.

    Restart r starts from first (r = 0, when given) or from uniform random
    colors drawn from random.Random(rng_seed + r), then runs _tabu_run on
    that generator.  Stops early when a restart reaches zero conflicts.
    """
    best_colors: list[int] = []
    best_conflicts = best_seed = -1
    total_iters = 0

    for r in range(config.restarts + 1):
        seed_r = config.rng_seed + r
        rng = random.Random(seed_r)
        if first is not None and r == 0:
            colors = list(first)
        else:
            colors = [rng.randrange(1, num_colors + 1) for _ in range(size)]
        run_best, run_conflicts, iters = _tabu_run(colors, num_colors, masks, fixed, rng, config)
        total_iters += iters
        if r == 0 or run_conflicts < best_conflicts:
            best_colors, best_conflicts, best_seed = run_best, run_conflicts, seed_r
        if best_conflicts == 0:
            break

    return SearchOutcome(best_colors, best_conflicts, total_iters, r, best_seed)


def tabu_search(
    params: Params, config: SearchConfig | None = None, init: Assignment | None = None
) -> SearchOutcome:
    """Fixed-K tabu search minimizing the number of conflicting pairs.

    Restart r starts from init (r = 0, when given) or from uniform random
    colors drawn from random.Random(rng_seed + r).  Stops early when a
    restart reaches zero conflicts.  Deterministic given (params, config,
    init).
    """
    if params.num_colors is None:
        raise ValueError("tabu_search needs params.num_colors")
    config = config or SearchConfig()
    num_colors = params.num_colors
    _check_memory("tabu search", (16 * num_colors + 256) * params.num_words)

    if init is not None:
        if init.params.n != params.n or init.params.k != params.k:
            raise ValueError("init assignment has different n or k")
        if any(c > num_colors for c in init.color_of):
            raise ValueError("init assignment uses colors above num_colors")

    out = _restarts(
        params.num_words, num_colors, ball_masks(params.n, params.k), None, config,
        None if init is None else init.color_of,
    )
    return out._replace(best=Assignment(params, out.best))


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
    x sees the lower words x ^ m, |m| < k, as fixed neighbors.  The returned
    conflict count may be positive, there is no success guarantee.
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
        if num_colors is None:
            raise ValueError("freeze-subcube needs a target color count")
        used = max(base_colors)
        if num_colors < used:
            raise ValueError(f"base coloring uses {used} colors, target {num_colors} is smaller")
        params_out = Params(n + 1, k, num_colors)
        _check_memory("tabu search", (16 * num_colors + 256) * params_out.num_words)
        fixed = [[0] * (num_colors + 1) for _ in base_colors]
        fixed_masks = [0, *ball_masks(n, k - 1)] if k else []
        for x, row in enumerate(fixed):
            for m in fixed_masks:
                row[base_colors[x ^ m]] += 1
        rng = random.Random(config.rng_seed)
        first = [rng.randrange(1, num_colors + 1) for _ in base_colors]
        out = _restarts(len(base_colors), num_colors, ball_masks(n, k), fixed, config, first)
        return out._replace(best=Assignment(params_out, base_colors + out.best))

    raise ValueError(f"unknown strategy {strategy!r}")
