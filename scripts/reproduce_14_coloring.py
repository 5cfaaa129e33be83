#!/usr/bin/env python3
"""Search for a 14-coloring of Q_8^2 from a cold start and verify it.

14 colors is one above the packing lower bound of 13; the tabu search finds
such colorings reliably within a few tens of thousands of iterations.  The run
is reproducible: rerun with the printed seed and no restarts to get the same
coloring bit for bit.
"""

import argparse
import sys
import time
from pathlib import Path

from cubecolor import (
    Params,
    SearchConfig,
    chromatic_lower_bound,
    save_coloring,
    tabu_search,
    verify_coloring,
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--colors", type=int, default=14)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--max-iters", type=int, default=1_000_000)
    parser.add_argument("--restarts", type=int, default=9)
    parser.add_argument("--out", default="q8_square_14.txt")
    args = parser.parse_args()

    params = Params(8, 2, args.colors)
    bound = chromatic_lower_bound(8, 2)
    print(f"target: {args.colors}-coloring of Q_8^2 (lower bound {bound.bound})")

    config = SearchConfig(
        rng_seed=args.seed, max_iterations=args.max_iters, restarts=args.restarts
    )
    t0 = time.perf_counter()
    out = tabu_search(params, config)
    elapsed = time.perf_counter() - t0
    print(
        f"conflicts={out.conflicts} iterations={out.iterations_used}"
        f" restarts={out.restarts_used} seed={out.seed_used} time={elapsed:.3f}s"
    )

    coloring = out.best.to_coloring()
    Path(args.out).write_text(save_coloring(coloring))
    print(f"wrote {args.out}")
    if out.conflicts > 0:
        print("no conflict-free coloring found at this budget")
        return 1

    report = verify_coloring(coloring)
    sizes = sorted(s.size for s in report.per_class)
    print(f"verifier: {'valid' if report.valid else 'INVALID'}, class sizes {sizes}")
    return 0 if report.valid else 1


if __name__ == "__main__":
    sys.exit(main())
