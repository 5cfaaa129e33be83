"""The tabu kernel of search.tabu_search and the freeze-subcube lift: fixed-K
conflict minimization in the TabuCol family (Hertz & de Werra 1987),
bit-exactly reproducible from its per-restart seeded generators.
"""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right, insort
from itertools import accumulate, chain

# search.SearchConfig is named in annotations only: the kernel imports no cubecolor module.

#: Iterations between recounts of the tabu kernel's incremental state, 0 for
#: none: the conflict tally, the key buckets and their cursor, every vertex's
#: own count and latest tabu expiry, and every conflicted vertex's neighbor
#: color counts, row minimum and its multiplicity.
SELF_CHECK_PERIOD = 0

#: Tabu tenure, the classic graph-coloring setting: a reverted (vertex,
#: old-color) pair stays tabu for int(TABU_TENURE_BASE + TABU_TENURE_SLOPE *
#: current_conflicts) iterations.
TABU_TENURE_BASE = 7
TABU_TENURE_SLOPE = 0.6


def _neighbor_rows(masks: list[int], size: int) -> list[tuple[int, ...]]:
    """rows[v] = tuple(v ^ m for m in masks) for v < size, a power of two.

    Rows b..2b - 1 are rows 0..b - 1 mapped through one list of x ^ b per bit
    b in turn, so every row holds the ints of one list of words.
    """
    words, rows, b = list(range(size)), [tuple(masks)], 1
    while b < size:
        flip = [words[x ^ b] for x in words]
        rows += [tuple(map(flip.__getitem__, row)) for row in rows]
        b *= 2
    return rows


def _fresh_state(
    color_of: list[int], num_colors: int, rows: list[tuple[int, ...]], fixed: list[list[int]]
) -> tuple[list[list[int]], list[int], list[int], list[int], list[list[int]], int]:
    """_tabu_run's state counted from color_of: gamma, own, low, nlow, buckets, conflicts."""
    size = len(color_of)
    deg = len(rows[0]) + sum(fixed[0])  # every vertex's full degree
    sentinel = 2 * deg  # a masked slot's delta, at least deg, stays above every real delta
    gamma = [list(row) for row in fixed]
    own, low, nlow = [0] * size, [0] * size, [0] * size
    buckets: list[list[int]] = [[] for _ in range(2 * deg)]
    for v, cv in enumerate(color_of):
        gv = gamma[v]
        for u in rows[v]:
            gv[color_of[u]] += 1
        own[v] = gv[cv]
        gv[0] = gv[cv] = sentinel
        lo = low[v] = min(gv)
        nlow[v] = gv.count(lo)
        if own[v] and num_colors > 1:
            buckets[lo - own[v] + deg].append(v)
    fixed_pairs = sum(row[cv] for row, cv in zip(fixed, color_of))
    return gamma, own, low, nlow, buckets, (sum(own) + fixed_pairs) // 2  # own counts those once


def _check_state(
    color_of: list[int], rows: list[tuple[int, ...]], fixed: list[list[int]],
    gamma: list[list[int]], own: list[int], low: list[int], nlow: list[int],
    buckets: list[list[int]], first: int, tabu_until: list[list[int]], tmax: list[int],
    conflicts: int, it: int,
) -> None:
    """Recount _tabu_run's incremental state from color_of; AssertionError names it.

    Rows, row minima and their counts are compared only where own[v] > 0:
    the kernel lets the rest go stale.
    """
    want_gamma, want_own, want_low, want_nlow, want_buckets, recount = _fresh_state(
        color_of, len(gamma[0]) - 1, rows, fixed
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
    rows: list[tuple[int, ...]],
    fixed: list[list[int]],
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

    The neighbors of v that move are its neighbor row rows[v] (_neighbor_rows,
    built once per _restarts call), read by every walk.  fixed[v] counts by
    color v's neighbors that never move (a lift's lower copy, all zero
    otherwise); deg, v's full degree, adds their number to len(rows[v]).  A
    move changes only the gamma rows of the moved vertex and its conflicted
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
    stops at deg - 1, above every real delta.  The first round (best = top)
    has its own loop: there best + own[v] is low[v] for every v, so it
    starts from nlow[v] with no arithmetic, and a tabu v with one minimum
    slot reads that slot's expiry without a walk.

    The best state is copied only when the search leaves it: a new best
    conflict count marks color_of as the best colors, and it is copied
    before the first move of delta >= 0 from it (a move of delta < 0 makes a
    new best) or when the run ends.

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
    gamma, own, low, nlow, buckets, conflicts = _fresh_state(color_of, num_colors, rows, fixed)
    deg, sentinel = len(buckets) // 2, gamma[0][0]  # slot 0 always holds the sentinel
    nb, first = len(buckets), 0

    best_conflicts, best_colors, pending = conflicts, [], True  # pending: color_of is the best
    tabu_until = [[0] * (num_colors + 1) for _ in color_of]
    tmax = [0] * len(color_of)
    base, slope = TABU_TENURE_BASE, TABU_TENURE_SLOPE
    max_iterations, period = config.max_iterations, SELF_CHECK_PERIOD
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
            tie_vs, ends, total = [], [], 0
            for v in tops:  # first round: v's ties at delta top are its nlow[v] minimum slots
                n = nlow[v]
                if tmax[v] >= it:  # some color is tabu: count only the others
                    gv, tv, lo = gamma[v], tabu_until[v], low[v]
                    if n == 1:
                        n = tv[gv.index(lo)] < it
                    else:
                        rest, n, c = n, 0, -1
                        while rest:
                            c = gv.index(lo, c + 1)
                            n += tv[c] < it
                            rest -= 1
                if n:
                    total += n
                    tie_vs.append(v)
                    ends.append(total)
            while not total and best < deg - 1:  # deg - 1 is above every real delta
                best += 1
                for v in sorted(chain.from_iterable(buckets[first : best + deg + 1])):
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

        if pending and best >= 0:  # the move leaves the best state: save it first
            best_colors, pending = list(color_of), False
        bucket = buckets[low[v] - p + deg]
        del bucket[bisect_left(bucket, v)]
        old = color_of[v]
        t = tv[old] = it + int(base + slope * conflicts)
        if t > tmax[v]:
            tmax[v] = t
        color_of[v] = c
        for u in rows[v]:
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
                gu[:] = fixed[u]
                for w in rows[u]:
                    gu[color_of[w]] += 1
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
            best_conflicts, pending = conflicts, True

        if period and it % period == 0:
            _check_state(
                color_of, rows, fixed, gamma, own, low, nlow, buckets, first, tabu_until, tmax,
                conflicts, it,
            )
    return list(color_of) if pending else best_colors, best_conflicts, it


def _restarts(
    num_colors: int, masks: list[int], fixed: list[list[int]], config: SearchConfig,
    first: list[int] | None,
) -> tuple[list[int], int, int, int, int]:
    """The restart loop of tabu_search and of the lift, over one vertex per row of fixed.

    Returns the fields of a SearchOutcome, best being a color list.  Restart
    r starts from first (r = 0, when given) or from uniform random colors
    drawn from random.Random(rng_seed + r), then runs _tabu_run on that
    generator.  Stops early when a restart reaches zero conflicts.
    """
    rows = _neighbor_rows(masks, len(fixed))  # shared by every restart
    best_colors: list[int] = []
    best_conflicts = best_seed = -1
    total_iters = 0

    for r in range(config.restarts + 1):
        seed_r = config.rng_seed + r
        rng = random.Random(seed_r)
        if first is not None and r == 0:
            colors = list(first)
        else:
            colors = [rng.randrange(1, num_colors + 1) for _ in fixed]
        run_best, run_conflicts, iters = _tabu_run(colors, num_colors, rows, fixed, rng, config)
        total_iters += iters
        if r == 0 or run_conflicts < best_conflicts:
            best_colors, best_conflicts, best_seed = run_best, run_conflicts, seed_r
        if best_conflicts == 0:
            break

    return best_colors, best_conflicts, total_iters, r, best_seed
