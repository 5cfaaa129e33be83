"""Greedy, DSATUR, tabu search, and dimension lifting."""

import hashlib
import random
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from cubecolor import search, tabu
from cubecolor.cli import main
from cubecolor.coloring import coloring_from_classes, verify_coloring
from cubecolor.files import save_coloring
from cubecolor.fixture import q8_square_13_coloring
from cubecolor.hamming import Params, ball_masks, ball_size
from cubecolor.search import (
    Assignment,
    SearchConfig,
    assignment_from_coloring,
    conflict_count,
    dsatur_color,
    extend_to_higher_dim,
    greedy_color,
    tabu_search,
)
from cubecolor.tabu import _neighbor_rows, _tabu_run

Q3_PARAMS = Params(3, 2, 4)
Q3_COLORING = coloring_from_classes(Q3_PARAMS, [[0, 7], [1, 6], [2, 5], [3, 4]])


def test_assignment_validation():
    Assignment(Q3_PARAMS, [1, 2, 3, 4, 4, 3, 2, 1])
    with pytest.raises(ValueError):
        Assignment(Q3_PARAMS, [1] * 7)
    with pytest.raises(ValueError):
        Assignment(Q3_PARAMS, [5] + [1] * 7)
    with pytest.raises(ValueError):
        Assignment(Q3_PARAMS, [-1] + [1] * 7)
    with pytest.raises(ValueError, match="vertex 0 has color 0 outside 1..4"):
        Assignment(Q3_PARAMS, [0] * 8)
    with pytest.raises(ValueError, match="^vertex 0 has color 0 but colors start at 1$"):
        Assignment(Params(3, 2), [0] * 8)


def test_assignment_coloring_round_trip():
    a = assignment_from_coloring(Q3_COLORING)
    assert a.color_of == [1, 2, 3, 4, 4, 3, 2, 1]
    back = a.to_coloring()
    assert back.classes == Q3_COLORING.classes


def test_assignment_from_coloring_rejects_a_word_in_two_classes():
    dup = coloring_from_classes(Q3_PARAMS, [[0, 7], [1, 6], [2, 5, 7], [3, 4]])
    with pytest.raises(ValueError, match="word 7 is in classes 1 and 3"):
        assignment_from_coloring(dup)


def test_assignment_from_coloring_rejects_a_word_in_no_class():
    gap = coloring_from_classes(Q3_PARAMS, [[0, 7], [1, 6], [2, 5], [3]])
    with pytest.raises(ValueError, match="word 4 is in no class"):
        assignment_from_coloring(gap)


@given(st.integers(0, 10**9))
def test_conflict_count_matches_naive(seed):
    rng = random.Random(seed)
    n = rng.randrange(1, 5)
    k = rng.randrange(1, n + 1)
    num = rng.randrange(1, min(6, (1 << n) + 1))
    colors = [rng.randrange(1, num + 1) for _ in range(1 << n)]
    a = Assignment(Params(n, k, num), colors)
    assert conflict_count(a) == oracles.naive_conflicts(n, k, colors)


@pytest.mark.parametrize("n,k", [(1, 1), (3, 1), (3, 2), (4, 2), (5, 3), (6, 2)])
def test_greedy_is_always_valid(n, k):
    col = greedy_color(Params(n, k))
    assert verify_coloring(col).valid
    assert len(col.classes) <= ball_size(n, k)  # degree + 1 bound


@pytest.mark.parametrize("n,k", [(n, k) for n in range(1, 10) for k in range(n + 1)])
def test_greedy_cosets_are_first_fit_in_word_order(n, k):
    # greedy_color builds the lexicode's cosets by XOR; that must be what
    # first fit gives when it scans every earlier word in natural order.
    params = Params(n, k)
    natural = oracles.first_fit(params, list(range(params.num_words)))
    assert save_coloring(greedy_color(params)) == save_coloring(natural)


@pytest.mark.parametrize("n,k", [(1, 1), (3, 2), (4, 2), (5, 3), (6, 2)])
def test_dsatur_is_always_valid(n, k):
    col = dsatur_color(Params(n, k))
    assert verify_coloring(col).valid


@pytest.mark.parametrize(
    "n,k", [(n, k) for n in range(1, 10) for k in range(n + 1)] + [(10, 2)]
)
def test_dsatur_matches_reference(n, k):
    params = Params(n, k)
    assert save_coloring(dsatur_color(params)) == save_coloring(oracles.reference_dsatur(params))


@settings(deadline=None)
@given(st.integers(1, 9), st.integers(0, 4))
def test_dsatur_buckets_match_the_heap(n, k):
    params = Params(n, min(k, n))
    assert save_coloring(dsatur_color(params)) == save_coloring(oracles.heap_dsatur(params))


def test_dsatur_picks_in_constant_time_from_one_bucket():
    # At k = 0 every vertex sits in one bucket for the whole run; a pick that
    # shifts the bucket makes the run quadratic (about 2 s at n = 17).
    start = time.perf_counter()
    col = dsatur_color(Params(17, 0))
    assert time.perf_counter() - start < 1
    assert len(col.classes) == 1


def test_heuristic_color_counts_on_q8_square():
    # Frozen regression values for the deterministic heuristics on (n=8, k=2);
    # the chromatic number is 13, both heuristics overshoot.
    assert len(greedy_color(Params(8, 2)).classes) == 16
    assert len(dsatur_color(Params(8, 2)).classes) == 17


def test_tabu_requires_num_colors():
    with pytest.raises(ValueError):
        tabu_search(Params(3, 2))


def test_tabu_solves_q3_square_with_four_colors():
    out = tabu_search(Q3_PARAMS, SearchConfig(rng_seed=1, max_iterations=10_000))
    assert out.conflicts == 0
    assert verify_coloring(out.best.to_coloring()).valid
    assert out.restarts_used == 0
    assert out.seed_used == 1


def test_tabu_is_reproducible():
    config = SearchConfig(rng_seed=7, max_iterations=5_000, restarts=1)
    a = tabu_search(Q3_PARAMS, config)
    b = tabu_search(Q3_PARAMS, config)
    assert a.best.color_of == b.best.color_of
    assert (a.conflicts, a.iterations_used, a.restarts_used, a.seed_used) == (
        b.conflicts,
        b.iterations_used,
        b.restarts_used,
        b.seed_used,
    )


def test_tabu_seed_used_reproduces_best_without_restarts():
    config = SearchConfig(rng_seed=0, max_iterations=2_000, restarts=3)
    out = tabu_search(Q3_PARAMS, config)
    rerun = tabu_search(
        Q3_PARAMS, SearchConfig(rng_seed=out.seed_used, max_iterations=2_000)
    )
    assert rerun.conflicts == out.conflicts
    assert rerun.best.color_of == out.best.color_of


def test_tabu_restart_accounting_on_infeasible_instance():
    # K = 3 < 4 colors cannot work on Q_3^2, so every restart runs out.
    config = SearchConfig(rng_seed=0, max_iterations=50, restarts=2)
    out = tabu_search(Params(3, 2, 3), config)
    assert out.conflicts > 0
    assert out.restarts_used == 2
    assert out.iterations_used == 3 * 50
    assert out.seed_used in (0, 1, 2)


def test_tabu_stops_early_on_success():
    out = tabu_search(Q3_PARAMS, SearchConfig(rng_seed=1, max_iterations=10_000, restarts=9))
    assert out.conflicts == 0
    assert out.restarts_used == 0  # later restarts never ran


def test_tabu_with_one_color_terminates():
    out = tabu_search(Params(2, 1, 1), SearchConfig(max_iterations=100))
    assert out.conflicts == 4  # Q_2 has four edges, all monochromatic


@pytest.mark.parametrize("n", range(1, 9))
def test_neighbor_rows_match_the_oracle(n):
    # Row v lists v ^ m in ball_masks order; as a set it is v's neighborhood
    # found by the all-pairs distance scan.
    for k in range(n + 1):
        masks = ball_masks(n, k)
        rows = _neighbor_rows(masks, 1 << n)
        assert len(rows) == 1 << n
        for v, (row, naive) in enumerate(zip(rows, oracles.naive_neighbors(n, k))):
            assert row == tuple(v ^ m for m in masks)
            assert tuple(sorted(row)) == naive


def test_tabu_at_k0_has_empty_rows_and_no_conflicts():
    assert _neighbor_rows(ball_masks(4, 0), 16) == [()] * 16
    out = tabu_search(Params(4, 0, 2), SearchConfig(max_iterations=100))
    assert (out.conflicts, out.iterations_used) == (0, 0)


def test_tabu_init_validation():
    good = assignment_from_coloring(Q3_COLORING)
    with pytest.raises(ValueError):
        tabu_search(Params(3, 1, 4), None, good)  # different k
    with pytest.raises(ValueError):
        tabu_search(Params(3, 2, 3), None, Assignment(Params(3, 2, 3), [0] * 8))
    with pytest.raises(ValueError):
        tabu_search(Params(3, 2, 2), None, Assignment(Params(3, 2), [3] * 8))


def test_tabu_self_check_mode_runs_clean(monkeypatch):
    monkeypatch.setattr(tabu, "SELF_CHECK_PERIOD", 10_000)
    config = SearchConfig(rng_seed=0, max_iterations=25_000)
    out = tabu_search(Params(4, 2, 7), config)  # infeasible, so it runs full length
    assert out.iterations_used == 25_000


@pytest.mark.parametrize(
    "run",
    [
        lambda: tabu_search(Params(5, 2, 5), SearchConfig(rng_seed=3, max_iterations=400)),
        lambda: _with_tenure(1000, 0.6, lambda: tabu_search(
            Params(4, 2, 3), SearchConfig(rng_seed=1, max_iterations=400),
        )),
        lambda: extend_to_higher_dim(
            Q3_COLORING, "freeze-subcube", 5, SearchConfig(rng_seed=5, max_iterations=400),
        ),
    ],
    ids=["q5k5", "q4k3-fallback", "freeze-q4"],
)
def test_tabu_self_check_recounts_every_cached_count(monkeypatch, run):
    # Recounting after every move checks the conflict tally, the key buckets
    # and their cursor, each vertex's own count and latest tabu expiry, and
    # each conflicted vertex's gamma row, row minimum and its count; a stale
    # entry raises AssertionError naming the iteration.
    monkeypatch.setattr(tabu, "SELF_CHECK_PERIOD", 1)
    assert run().iterations_used > 0


@pytest.mark.parametrize(
    "what,run",
    [
        ("tabu search", lambda: tabu_search(Params(10, 2, 2), SearchConfig(max_iterations=1))),
        ("tabu search", lambda: tabu_search(Params(10, 2, 40), SearchConfig(max_iterations=1))),
        ("tabu search", lambda: tabu_search(Params(9, 4, 2), SearchConfig(max_iterations=1))),
        ("tabu search", lambda: extend_to_higher_dim(
            q8_square_13_coloring(), "freeze-subcube", 13, SearchConfig(max_iterations=1)
        )),
        ("greedy coloring", lambda: greedy_color(Params(10, 2))),
        ("greedy coloring", lambda: greedy_color(Params(10, 6))),
        ("greedy coloring", lambda: greedy_color(Params(10, 10))),
        ("DSATUR", lambda: dsatur_color(Params(10, 2))),
        ("DSATUR", lambda: dsatur_color(Params(13, 0))),
        ("DSATUR", lambda: dsatur_color(Params(9, 4))),
        ("DSATUR", lambda: dsatur_color(Params(9, 6))),
        ("DSATUR", lambda: dsatur_color(Params(9, 9))),
    ],
    ids=[
        "tabu-k2", "tabu-k40", "tabu-k4-deg255", "freeze-q9", "greedy", "greedy-k6",
        "greedy-k10", "dsatur", "dsatur-k0", "dsatur-k4", "dsatur-k6", "dsatur-k9",
    ],
)
def test_memory_estimate_bounds_the_measured_peak(monkeypatch, what, run):
    # Under a limit one byte below the peak tracemalloc measured, the size
    # check must refuse the run: its estimate covers all the state it builds.
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    monkeypatch.setattr(search, "MAX_SEARCH_BYTES", peak - 1)
    with pytest.raises(ValueError, match=f"^{what} would need"):
        run()


@pytest.mark.parametrize("seed", [0, 1, 7, 2024, 10**9 + 7])
def test_counted_tie_draw_is_the_list_draw(seed):
    # The tabu kernel counts its ties and draws from range(total); that must
    # pick the index rng.choice picks from a list of the ties, and leave rng
    # in the same state.
    for length in range(2, 65):
        ties = [(v, v % 7) for v in range(length)]
        counted, listed = random.Random(seed), random.Random(seed)
        assert ties[counted.choice(range(length))] == listed.choice(ties)
        assert counted.getstate() == listed.getstate()


@pytest.mark.parametrize("totals", [range(2, 40), [255, 256, 257, 1000, 4095, 4097, 2**20 + 1]])
def test_rejection_draw_is_choice_over_a_range(totals):
    # The tabu kernel draws its tie index below total with the getrandbits
    # rejection loop written out here, which is what rng.choice(range(total))
    # runs.  Should CPython ever change choice, this fails instead of the
    # kernel silently drawing other moves than the reference.
    for seed in range(200):
        drawn, chosen = random.Random(seed), random.Random(seed)
        for total in totals:
            bits = total.bit_length()
            r = drawn.getrandbits(bits)
            while r >= total:
                r = drawn.getrandbits(bits)
            assert r == chosen.choice(range(total))
            assert drawn.getstate() == chosen.getstate()


def test_search_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(max_iterations=0)
    with pytest.raises(ValueError):
        SearchConfig(restarts=-1)


def test_search_memory_is_checked_before_allocating(monkeypatch, tmp_path, capsys):
    # Under a 1 MiB limit first: were the checks gone, these small runs would
    # just finish, and the test would stop here before the large cases below.
    monkeypatch.setattr(search, "MAX_SEARCH_BYTES", 1 << 20)
    for run, message in (
        (lambda: tabu_search(Params(12, 2, 20), SearchConfig(max_iterations=1)),
         "tabu search would need about 5 MiB, above the limit of 1 MiB"),
        (lambda: greedy_color(Params(13, 2)), "greedy coloring would need about 1 MiB"),
        (lambda: dsatur_color(Params(12, 2)), "DSATUR would need about 1 MiB"),
    ):
        with pytest.raises(ValueError, match=message):
            run()
    greedy_color(Params(12, 2))  # 640 KiB: under the limit
    monkeypatch.undo()

    # At the real limit, oversized commands exit 2 at once, naming the estimate.
    out = str(tmp_path / "never-written.txt")
    for args, message in (
        (["--colors", "20"], "tabu search would need about 49664 MiB, above the limit of 1024 MiB"),
        (["--colors", "20", "--algo", "greedy"], "greedy coloring would need about 2560 MiB"),
    ):
        start = time.perf_counter()
        assert main(["search", "--n", "24", "--k", "2", *args, "--out", out]) == 2
        assert time.perf_counter() - start < 1
        assert message in capsys.readouterr().err
    with pytest.raises(ValueError, match="DSATUR would need about 1424 MiB"):
        dsatur_color(Params(22, 2))
    assert not (tmp_path / "never-written.txt").exists()


def test_extend_double_small():
    out = extend_to_higher_dim(Q3_COLORING, "double")
    assert out.conflicts == 0
    col = out.best.to_coloring()
    assert col.params == Params(4, 2, 8)
    assert verify_coloring(col).valid


def test_extend_double_rejects_other_color_counts():
    with pytest.raises(ValueError):
        extend_to_higher_dim(Q3_COLORING, "double", num_colors=9)


def test_extend_rejects_invalid_base():
    bad = coloring_from_classes(Params(3, 2, 4), [[0, 1], [2, 3], [4, 5], [6, 7]])
    with pytest.raises(ValueError):
        extend_to_higher_dim(bad, "double")


def test_extend_freeze_subcube_small():
    out = extend_to_higher_dim(
        Q3_COLORING,
        "freeze-subcube",
        num_colors=8,
        config=SearchConfig(rng_seed=0, max_iterations=20_000, restarts=2),
    )
    assert out.conflicts == 0
    col = out.best.to_coloring()
    assert verify_coloring(col).valid
    # the lower copy is frozen at the base coloring
    base_colors = assignment_from_coloring(Q3_COLORING).color_of
    assert out.best.color_of[:8] == base_colors


@pytest.mark.parametrize(
    "num_colors,seed,restarts,budget", [(15, 1, 4, 300), (14, 0, 5, 500), (16, 3, 3, 200)]
)
def test_lift_seed_used_reruns_its_best_restart(num_colors, seed, restarts, budget):
    # Each case's best comes from a later restart, which must draw its free
    # half and make its moves as restart 0 does, so that seed alone reruns it.
    base = q8_square_13_coloring()
    out = extend_to_higher_dim(
        base, "freeze-subcube", num_colors, SearchConfig(seed, budget, restarts)
    )
    assert out.seed_used > seed
    rerun = extend_to_higher_dim(
        base, "freeze-subcube", num_colors, SearchConfig(out.seed_used, budget, 0)
    )
    assert (rerun.best.color_of, rerun.conflicts) == (out.best.color_of, out.conflicts)


def test_extend_freeze_subcube_validation():
    with pytest.raises(ValueError):
        extend_to_higher_dim(Q3_COLORING, "freeze-subcube")
    with pytest.raises(ValueError):
        extend_to_higher_dim(Q3_COLORING, "freeze-subcube", num_colors=3)
    with pytest.raises(ValueError):
        extend_to_higher_dim(Q3_COLORING, "no-such-strategy")


@settings(deadline=None)
@given(st.integers(0, 10**9))
def test_extend_double_always_valid_on_random_bases(seed):
    rng = random.Random(seed)
    n = rng.randrange(1, 5)
    k = rng.randrange(1, n + 1)
    order = list(range(1 << n))
    rng.shuffle(order)
    base = oracles.first_fit(Params(n, k), order)  # valid by construction
    out = extend_to_higher_dim(base, "double")
    assert out.conflicts == 0
    assert verify_coloring(out.best.to_coloring()).valid


# Golden trajectories: (conflicts, iterations_used, restarts_used, seed_used,
# sha256 of the saved best coloring, sha256 of every restart's final colors
# and generator state).  A kernel change that alters which coloring a seed
# reaches, or how fast, fails here; the last hash also fails one that alters
# only moves after the best, such as a tenure the two fallback runs ignore.
# q8k14-s3000, q9-freeze16-s5, q9f13-fixture-s0 and q10k40-s0 match
# perfbench/pins.json in their first five values.
# The K = 13 lift never solves; in 23 of its 750 iterations every minimum
# color of the rows of least key is tabu and none aspirates, so the target
# delta rises above the least key and rows of higher key are counted too.
# The K = 14 lift runs all four restarts, so restarts 1..3 draw the free
# half's colors afresh; restart 1 (seed 8) ends best.  The K = 15 lift is
# the run README cites as the tool's best on Q_9^2.  The last two spend most
# iterations in the forced fallback move (every move tabu, none aspirating):
# 1968 and 815 of 2000.
GOLDEN_TRAJECTORIES = {
    "q8k14-s3000": (
        lambda: tabu_search(
            Params(8, 2, 14),
            SearchConfig(rng_seed=3000, max_iterations=30_000, restarts=29),
        ),
        [
            0, 3388, 0, 3000,
            "17c7ec110198ca4ffa844c47b46ee0450e3efb0493eb5e66e29a47d2a8fd0c61",
            "087d65462b5468f286df06494de6a3140ff56cfdc6eefffb082e3cb4c1dc9ad1",
        ],
    ),
    "q9-freeze16-s5": (
        lambda: extend_to_higher_dim(
            q8_square_13_coloring(),
            "freeze-subcube",
            num_colors=16,
            config=SearchConfig(rng_seed=5, max_iterations=100_000),
        ),
        [
            0, 3748, 0, 5,
            "86ddbdb20f022c7bef7ba025452a7c1afce6302cb2fc3884f03e7ef3892e5607",
            "c738f8afa8ea949a18bbf927759253237a9336f09da9fa0e972e495a958a444d",
        ],
    ),
    "q9f13-fixture-s0": (
        lambda: extend_to_higher_dim(
            q8_square_13_coloring(),
            "freeze-subcube",
            num_colors=13,
            config=SearchConfig(rng_seed=0, max_iterations=750),
        ),
        [
            83, 750, 0, 0,
            "91346af2321cc1dd10445a8fd7a9d777f53575aac54fb2fed44dca3c91c5290c",
            "beded15d2950bea4f27b2910c8172d95e974b3f673c4c043bed23140901f722f",
        ],
    ),
    "q9-freeze14-s7-r3": (
        lambda: extend_to_higher_dim(
            q8_square_13_coloring(),
            "freeze-subcube",
            num_colors=14,
            config=SearchConfig(rng_seed=7, max_iterations=2_000, restarts=3),
        ),
        [
            8, 8000, 3, 9,
            "3eef744bc4c4965e0e9f5d7a453f6b4b95d1bf3362e9265b79bb22779ad8b782",
            "150c22d297e5131e4bef3a621407eae1dfede5a10d7c48f989aca9544169ef66",
        ],
    ),
    "q9-freeze15-s0": (
        lambda: extend_to_higher_dim(
            q8_square_13_coloring(),
            "freeze-subcube",
            num_colors=15,
            config=SearchConfig(rng_seed=0, max_iterations=2_000),
        ),
        [
            0, 1574, 0, 0,
            "5c31b43bb84cf56a6f47aba20f585bd0a48bfec9dd8f7614ae3edee100d4c632",
            "b8c726bcaf6fd8e80b2153db49c61a497dd9a1c0c09a5f5cca8157e8deee3d1c",
        ],
    ),
    "q10k40-s0": (
        lambda: tabu_search(
            Params(10, 2, 40),
            SearchConfig(rng_seed=0, max_iterations=5_000),
        ),
        [
            0, 372, 0, 0,
            "60e36c71be71c9bca752dee10954f6152375265357874cb764f389d387da9df2",
            "c5dd65e5355e41380002c68dd0df645d721f174239fee0eeb3bfb17f7ea83fe7",
        ],
    ),
    "q4k3-fallback": (
        lambda: _with_tenure(1000, 0.6, lambda: tabu_search(
            Params(4, 2, 3),
            SearchConfig(rng_seed=1, max_iterations=2_000),
        )),
        [
            18, 2000, 0, 1,
            "fbc64db2e4d92d543fcbbc68791b60bb8a304ff380ffe7f3f5dae8eacfc6ba09",
            "07578a9cf179197fe7fa28640b3d358cb099cb8baecf3bb930d746075822830e",
        ],
    ),
    "q5k4-fallback": (
        lambda: _with_tenure(50, 2.0, lambda: tabu_search(
            Params(5, 2, 4),
            SearchConfig(rng_seed=3, max_iterations=2_000),
        )),
        [
            32, 2000, 0, 3,
            "442e21784b12614ffba75c7e945eb3bfb1bed787bf95bee6fb82c6634afed976",
            "6385be16e97def6c75b16675a260ee35d08d440beb6a636aeb3d9238652a8c02",
        ],
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_TRAJECTORIES))
def test_golden_trajectory(name):
    run, expected = GOLDEN_TRAJECTORIES[name]
    assert _record(run) == expected


def _record(run):
    """The golden record of run(): its outcome, then one sha256
    of every restart's final colors and generator state.  The last pins the
    whole walk, also where the best coloring came before the tenure mattered."""
    finals = []
    real_run = tabu._tabu_run

    def recording(color_of, num_colors, rows, fixed, rng, config):
        result = real_run(color_of, num_colors, rows, fixed, rng, config)
        finals.append((color_of, rng.getstate()))
        return result

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tabu, "_tabu_run", recording)
        out = run()
    digest = hashlib.sha256(save_coloring(out.best.to_coloring()).encode()).hexdigest()
    walk = hashlib.sha256(repr(finals).encode()).hexdigest()
    return [out.conflicts, out.iterations_used, out.restarts_used, out.seed_used, digest, walk]


@pytest.mark.parametrize(
    "name", ["q8k14-s3000", "q9-freeze15-s0", "q9f13-fixture-s0", "q10k40-s0"]
)
def test_golden_trajectory_under_self_check(monkeypatch, name):
    # At frontier scale many key buckets are filled at once, and the lift's
    # rows start from fixed counts; on the plateau of the q8k14 and K = 15
    # runs few vertices stay conflicted, so most moves reuse a row minimum
    # and draw among ties.  Recounting every 25 moves must find no stale
    # entry and leave the moves unchanged.
    monkeypatch.setattr(tabu, "SELF_CHECK_PERIOD", 25)
    run, expected = GOLDEN_TRAJECTORIES[name]
    assert _record(run) == expected


@settings(deadline=None)
@given(st.integers(0, 10**9))
def test_tabu_kernel_matches_reference(seed):
    # Same instance, same rng seed: the kernel must pick the same moves as the
    # naive full scan, so colors, counts and the rng state all agree.  A large
    # tenure base keeps most moves tabu, which exercises the forced fallback.
    # The reference walks neighbor tuples found by an all-pairs distance scan,
    # so it shares no graph code with the kernel's neighbor rows.
    rng = random.Random(seed)
    n = rng.randrange(3, 7)
    k = rng.randrange(1, 3)
    num = rng.randrange(1, 7)
    colors = [rng.randrange(1, num + 1) for _ in range(1 << n)]
    unfixed = [[0] * (num + 1)] * (1 << n)  # no fixed neighbors: tabu_search's one shared row
    with pytest.MonkeyPatch.context() as patch:
        knobs, tenure = _random_knobs(rng, patch)
        config = SearchConfig(**knobs)
        neighbors = oracles.naive_neighbors(n, k)
        run_seed = rng.randrange(10**9)
        fast_rng, ref_rng = random.Random(run_seed), random.Random(run_seed)
        rows = _neighbor_rows(ball_masks(n, k), 1 << n)
        fast = _tabu_run(list(colors), num, rows, unfixed, fast_rng, config)
        ref = oracles.reference_tabu_run(
            list(colors), num, neighbors, frozenset(), ref_rng, config, *tenure
        )
        assert fast == ref
        assert fast_rng.getstate() == ref_rng.getstate()
        # The same run recounting its whole state after every move: no entry
        # goes stale, and checking changes no move.
        checked_rng = random.Random(run_seed)
        patch.setattr(tabu, "SELF_CHECK_PERIOD", 1)
        checked = _tabu_run(list(colors), num, rows, unfixed, checked_rng, config)
        assert checked == fast
        assert checked_rng.getstate() == fast_rng.getstate()


def _q4_run(budget):
    """Q_4^1 at K = 3 from seed 17's colors: ((best, conflicts, iters), final colors).

    The kernel's result must equal the reference's; final is where it stopped.
    """
    start = [random.Random(17).randrange(1, 4) for _ in range(16)]
    final, config = list(start), SearchConfig(max_iterations=budget)
    rows = _neighbor_rows(ball_masks(4, 1), 16)
    fast = _tabu_run(final, 3, rows, [[0] * 4] * 16, random.Random(17), config)
    ref = oracles.reference_tabu_run(
        list(start), 3, oracles.naive_neighbors(4, 1), frozenset(), random.Random(17), config,
        tabu.TABU_TENURE_BASE, tabu.TABU_TENURE_SLOPE,
    )
    assert fast == ref
    return fast, final


def test_tabu_run_returns_a_best_its_budget_ends_on():
    # The 12th move reaches a new best and the budget ends there, so the best
    # colors are still the working ones, never copied; an earlier best (after
    # 8 moves) had been left.
    (best, conflicts, iters), final = _q4_run(12)
    assert (iters, conflicts) == (12, 3) and best == final
    assert oracles.naive_conflicts(4, 1, final) == 3
    (earlier, earlier_conflicts, _), _ = _q4_run(9)
    assert earlier_conflicts == 4 and earlier != best


def test_tabu_run_saves_a_best_left_by_a_delta_zero_move():
    # After 8 moves the working colors are the best; the 9th move has delta 0,
    # so the best must be copied before it, not after.
    (best_8, conflicts_8, _), final_8 = _q4_run(8)
    assert best_8 == final_8
    (best, conflicts, iters), final = _q4_run(9)
    assert (best, conflicts, iters) == (best_8, conflicts_8, 9)
    assert final != best and oracles.naive_conflicts(4, 1, final) == conflicts


def _random_knobs(rng, patch):
    """Iteration budget and tenure; a base of 100 or more forces the fallback move.

    The tenure (base, slope) is set on the kernel's constants through patch and
    returned for the reference.
    """
    knobs = dict(max_iterations=rng.randrange(1, 400))
    tenure = (
        rng.choice((0, rng.randrange(1, 12), rng.randrange(100, 2000))),
        rng.choice((0.0, 0.6, rng.uniform(0, 3))),
    )
    _set_tenure(patch, *tenure)
    return knobs, tenure


def _set_tenure(patch, base, slope):
    patch.setattr(tabu, "TABU_TENURE_BASE", base)
    patch.setattr(tabu, "TABU_TENURE_SLOPE", slope)


def _with_tenure(base, slope, run):
    """run() with the tabu tenure set to int(base + slope * conflicts)."""
    with pytest.MonkeyPatch.context() as patch:
        _set_tenure(patch, base, slope)
        return run()


@settings(deadline=None)
@given(st.integers(0, 10**9))
def test_freeze_subcube_lift_matches_reference_on_the_whole_cube(seed):
    # The lift runs the kernel on the upper copy alone, the lower copy entering
    # as fixed neighbor counts.  The reference runs on all of Q_{n+1}^k with the
    # lower copy frozen, from the same colors and generator: the moves must be
    # the same, with and without a recount after every move.  With n = k a
    # word's degree can exceed the copy's word count.
    rng = random.Random(seed)
    n = rng.randrange(1, 6)
    k = rng.randrange(0, n + 1)
    order = list(range(1 << n))
    rng.shuffle(order)
    base = oracles.first_fit(Params(n, k), order)
    num = rng.randrange(len(base.classes), len(base.classes) + 3)
    with pytest.MonkeyPatch.context() as patch:
        knobs, tenure = _random_knobs(rng, patch)
        knobs["rng_seed"] = rng.randrange(10**9)
        draw = random.Random(knobs["rng_seed"])  # the lift's draw for restart 0
        colors = assignment_from_coloring(base).color_of + [
            draw.randrange(1, num + 1) for _ in order
        ]
        ref = oracles.reference_tabu_run(
            colors, num, oracles.naive_neighbors(n + 1, k), frozenset(range(len(order))),
            random.Random(knobs["rng_seed"]), SearchConfig(**knobs), *tenure,
        )

        def lift():
            return extend_to_higher_dim(base, "freeze-subcube", num, SearchConfig(**knobs))

        out = lift()
        assert (out.best.color_of, out.conflicts, out.iterations_used) == ref
        assert (out.restarts_used, out.seed_used) == (0, knobs["rng_seed"])
        unchecked = _record(lift)
        patch.setattr(tabu, "SELF_CHECK_PERIOD", 1)
        assert _record(lift) == unchecked


def test_fixture_lift_leaves_each_free_word_four_colors(monkeypatch):
    # A word x of the upper copy of Q_9^2 has 9 lower neighbors: its twin and
    # the twin's 8 neighbors at distance 1.  They form a clique of Q_8^2, so
    # the fixture gives them 9 distinct colors and leaves 4 of 13 free.
    seen = []

    def spy(color_of, num_colors, rows, fixed, rng, config):
        seen.append(fixed)
        return real(color_of, num_colors, rows, fixed, rng, config)

    real = tabu._tabu_run
    monkeypatch.setattr(tabu, "_tabu_run", spy)
    base = q8_square_13_coloring()
    extend_to_higher_dim(base, "freeze-subcube", 13, SearchConfig(max_iterations=1))
    (fixed,) = seen
    base_colors = assignment_from_coloring(base).color_of
    for x, row in enumerate(fixed):
        lower = [base_colors[y] for y in range(256) if oracles.naive_distance(256 + x, y) <= 2]
        assert row == [lower.count(c) for c in range(14)]
        assert sorted(row) == [0] * 5 + [1] * 9  # slot 0 and 4 allowed colors hold 0


def _kernel_state(n, k, num, colors, fixed):
    """The tabu kernel's incremental state for colors, built from scratch."""
    neighbors = oracles.naive_neighbors(n, k)
    deg = len(neighbors[0]) + sum(fixed[0])
    sentinel = 2 * deg
    gamma, own, low, nlow = [], [], [], []
    buckets = [[] for _ in range(2 * deg)]
    for v, cv in enumerate(colors):
        row = list(fixed[v])
        for u in neighbors[v]:
            row[colors[u]] += 1
        own.append(row[cv])
        row[0] = row[cv] = sentinel
        gamma.append(row)
        low.append(min(row))
        nlow.append(row.count(min(row)))
        if own[v]:
            buckets[low[v] - own[v] + deg].append(v)
    fixed_pairs = sum(fixed[v][cv] for v, cv in enumerate(colors))
    return gamma, own, low, nlow, buckets, (sum(own) + fixed_pairs) // 2


def test_check_state_names_a_stale_minimum_count_and_a_misfiled_vertex():
    # A correct state passes; one minimum count off by one, one vertex filed
    # under the next key, one stale row of a conflicted vertex, a bucket
    # cursor above a filled bucket, or a latest tabu expiry below a live tabu
    # entry must raise naming it.  Rows of unconflicted vertices may go
    # stale.  The state is a lift's: the rows start from fixed counts of a
    # lower copy.
    n, k, num = 4, 2, 4
    rng = random.Random(4)  # leaves one vertex unconflicted
    colors = [rng.randrange(1, num + 1) for _ in range(16)]
    lower = [rng.randrange(1, num + 1) for _ in range(16)]
    fixed = [
        [sum(lower[y] == c for y in range(16) if oracles.naive_distance(16 + x, y) <= k)
         for c in range(num + 1)]
        for x in range(16)
    ]
    gamma, own, low, nlow, buckets, conflicts = _kernel_state(n, k, num, colors, fixed)
    deg = len(buckets) // 2
    first = next(i for i, bucket in enumerate(buckets) if bucket)
    tabu_until = [[0] * (num + 1) for _ in colors]
    tmax = [0] * 16

    rows = _neighbor_rows(ball_masks(n, k), 16)

    def check(cursor=first, tally=conflicts):
        tabu._check_state(
            colors, rows, fixed, gamma, own, low, nlow, buckets, cursor, tabu_until, tmax, tally, 7,
        )

    check()  # the state as built is correct
    v = next(v for v in range(16) if own[v])
    nlow[v] += 1
    with pytest.raises(
        AssertionError, match=f"^row minimum count of vertex {v} out of date at iteration 7$"
    ):
        check()
    nlow[v] -= 1
    key = low[v] - own[v]
    buckets[key + deg].remove(v)
    buckets[key + 1 + deg].append(v)
    buckets[key + 1 + deg].sort()
    with pytest.raises(AssertionError, match=f"^bucket of key {key} out of date at iteration 7$"):
        check()
    buckets[key + 1 + deg].remove(v)
    buckets[key + deg].append(v)
    buckets[key + deg].sort()
    check()

    c = next(c for c in range(1, num + 1) if c != colors[v])
    gamma[v][c] += 1
    with pytest.raises(
        AssertionError, match=f"^gamma row of vertex {v} out of date at iteration 7$"
    ):
        check()
    gamma[v][c] -= 1
    u = next(u for u in range(16) if not own[u])
    gamma[u][c] += 5
    check()  # an unconflicted vertex's row is never read

    check(cursor=0)  # a cursor below every filled bucket is walked up before use
    with pytest.raises(
        AssertionError,
        match=f"^bucket cursor at key {first + 1 - deg} above a filled key {first - deg}"
        " at iteration 7$",
    ):
        check(cursor=first + 1)

    tabu_until[v][c] = 9
    tmax[v] = 9
    check()
    tmax[v] = 8  # v would count c among its free minimum colors at iteration 8
    with pytest.raises(
        AssertionError, match=f"^latest tabu expiry of vertex {v} out of date at iteration 7$"
    ):
        check()
    tmax[v] = 9

    with pytest.raises(
        AssertionError, match=f"^incremental conflict tally {conflicts - 1} != recount {conflicts}"
    ):
        check(tally=conflicts - 1)
