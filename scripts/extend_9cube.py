#!/usr/bin/env python3
"""Try to lift the embedded 13-coloring of Q_8^2 to the 9-cube.

The doubling construction always succeeds with 26 colors; the freeze-subcube
strategy pins the 8-cube half at the embedded coloring and lets the tabu
search fight over the other 256 vertices with a smaller palette.  Residual
conflict counts are reported per palette size.  freeze-subcube reaches 15
(seed 0, 1,574 iterations); 14 and 13, the packing bound, are still open for
the tool.  At --colors 13 each new vertex sees 9 distinct colors in the
pinned half (a clique of Q_8^2), so only 4 are allowed.  An exact search
prototype over those lists, kept outside the repo, found no lift;
reproducing that in the repo is ROADMAP item 2.
"""

import argparse
import sys
import time

from cubecolor import (
    SearchConfig,
    extend_to_higher_dim,
    q8_square_13_coloring,
    save_coloring,
    verify_coloring,
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--colors", type=int, nargs="+", default=[13, 14, 15, 16])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--max-iters", type=int, default=200_000)
    parser.add_argument("--restarts", type=int, default=2)
    parser.add_argument(
        "--save-prefix", default=None, help="write q9_<K>.txt files when given"
    )
    args = parser.parse_args()

    base = q8_square_13_coloring()

    doubled = extend_to_higher_dim(base, "double")
    assert doubled.conflicts == 0
    assert verify_coloring(doubled.best.to_coloring()).valid
    print("double: valid 26-coloring of Q_9^2 (trivial upper bound)")

    config = SearchConfig(
        rng_seed=args.seed, max_iterations=args.max_iters, restarts=args.restarts
    )
    best_overall = None
    for colors in args.colors:
        t0 = time.perf_counter()
        out = extend_to_higher_dim(base, "freeze-subcube", num_colors=colors, config=config)
        elapsed = time.perf_counter() - t0
        print(
            f"freeze-subcube K={colors}: conflicts={out.conflicts}"
            f" iterations={out.iterations_used} time={elapsed:.3f}s"
            f" it/s={out.iterations_used / elapsed:.0f}"
        )
        if args.save_prefix is not None:
            path = f"{args.save_prefix}{colors}.txt"
            with open(path, "w") as handle:
                handle.write(save_coloring(out.best.to_coloring()))
            print(f"  wrote {path}")
        if out.conflicts == 0 and (best_overall is None or colors < best_overall):
            best_overall = colors

    if best_overall is not None:
        print(f"zero conflicts reached with {best_overall} colors")
    return 0


if __name__ == "__main__":
    sys.exit(main())
