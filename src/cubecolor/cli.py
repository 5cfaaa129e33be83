"""Command-line surface tying the library together.

Exit codes: 0 success (for verify/decode-model/search: valid / zero
conflicts within --colors), 1 for "ran fine but the coloring is invalid /
conflicts remain / more colors than --colors were used", 2 for structural
problems (parse errors, unknown values, bad flags), 141 when the reader of
stdout closed it early (128 + SIGPIPE, as a shell reports a pipe-killed
command; nothing is printed).  The distinction lets scripts drive restart
sweeps without confusing "try again" with "broken".
"""

from __future__ import annotations

import argparse
import os
import sys

from .coloring import class_stats, fingerprint_from_stats, verify_coloring
from .files import load_coloring, save_coloring
from .hamming import Params

# Every command loads the modules above anyway (bound through bounds).  The
# search, SAT, bounds and fixture modules are imported only by the commands
# that run them, and the parser needs none of them: its --strategy and
# --symmetry choices spell out search.STRATEGIES and sat.SYMMETRIES, which a
# test holds them to.


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path) as fh:
        return fh.read()


def _write_text(path: str, text: str) -> None:
    with open(path, "w") as fh:
        fh.write(text)


def _load(path: str):
    return load_coloring(_read_text(path))


def _fmt_distance(d) -> str:
    return "inf" if d == float("inf") else str(d)


def _status(report) -> str:
    return f"status: {'valid' if report.valid else f'invalid ({report.num_violations} violations)'}"


def cmd_verify(args: argparse.Namespace) -> int:
    col = _load(args.file)
    report = verify_coloring(col)
    print(f"coloring: n={col.params.n} k={col.params.k} classes={len(col.classes)}")
    for i, s in enumerate(report.per_class, start=1):
        print(f"class {i}: size={s.size} min_distance={_fmt_distance(s.min_distance)}")
    for v in report.violations:
        words = ",".join(map(str, v.words))
        cls = ",".join(map(str, v.classes))
        print(f"violation: {v.kind} words={words}" + (f" classes={cls}" if cls else ""))
    hidden = report.num_violations - len(report.violations)
    if hidden > 0:
        print(f"... and {hidden} more violations")
    print(_status(report))
    return 0 if report.valid else 1


def cmd_bound(args: argparse.Namespace) -> int:
    from .bounds import chromatic_lower_bound

    result = chromatic_lower_bound(args.n, args.k)
    print(result.bound)
    detail = f"A({args.n},{args.k + 1}) = {result.max_code_size}"
    if result.citation is not None:
        detail += f" [{result.citation}]"
    print(f"source: {result.source}, {detail}")
    return 0


def _add_search_config_args(p: argparse.ArgumentParser) -> None:
    # No defaults here: an omitted flag takes SearchConfig's.
    p.add_argument("--seed", type=int)
    p.add_argument("--max-iters", type=int)
    p.add_argument("--restarts", type=int)


def _search_config(args: argparse.Namespace):
    from .search import SearchConfig

    given = {"rng_seed": args.seed, "max_iterations": args.max_iters, "restarts": args.restarts}
    return SearchConfig(**{key: value for key, value in given.items() if value is not None})


def cmd_search(args: argparse.Namespace) -> int:
    from .search import assignment_from_coloring, dsatur_color, greedy_color, tabu_search

    params = Params(args.n, args.k, args.colors)
    if args.algo in ("greedy", "dsatur"):
        col = (greedy_color if args.algo == "greedy" else dsatur_color)(Params(args.n, args.k))
        _write_text(args.out, save_coloring(col))
        used = len(col.classes)
        print(f"algorithm: {args.algo}")
        print(f"colors used: {used}" + (" (above target)" if used > args.colors else ""))
        print("conflicts: 0")
        return 0 if used <= args.colors else 1
    init = None if args.init is None else assignment_from_coloring(_load(args.init))
    outcome = tabu_search(params, _search_config(args), init)
    _write_text(args.out, save_coloring(outcome.best.to_coloring()))
    print("algorithm: tabu")
    print(f"conflicts: {outcome.conflicts}")
    print(
        f"iterations: {outcome.iterations_used} restarts: {outcome.restarts_used}"
        f" seed: {outcome.seed_used}"
    )
    return 0 if outcome.conflicts == 0 else 1


def cmd_extend(args: argparse.Namespace) -> int:
    from .search import extend_to_higher_dim

    base = _load(args.infile)
    outcome = extend_to_higher_dim(
        base, args.strategy, num_colors=args.colors, config=_search_config(args)
    )
    _write_text(args.out, save_coloring(outcome.best.to_coloring()))
    print(f"strategy: {args.strategy}")
    print(f"colors: {outcome.best.params.num_colors}")
    print(f"conflicts: {outcome.conflicts}")
    return 0 if outcome.conflicts == 0 else 1


def cmd_encode(args: argparse.Namespace) -> int:
    from .sat import EncodeOptions, coloring_cnf_stream, dimacs_lines

    params = Params(args.n, args.k, args.colors)
    options = EncodeOptions(at_most_one=args.amo, symmetry=args.symmetry)
    comments, num_vars, num_clauses, clauses = coloring_cnf_stream(params, options)
    with open(args.out, "w") as fh:
        fh.writelines(dimacs_lines(comments, num_vars, num_clauses, clauses))
    print(f"variables: {num_vars}")
    print(f"clauses: {num_clauses}")
    return 0


def cmd_decode_model(args: argparse.Namespace) -> int:
    from .sat import decode_model, parse_solver_model

    params = Params(args.n, args.k, args.colors)
    true_vars = parse_solver_model(_read_text(args.model))
    col = decode_model(true_vars, params)
    _write_text(args.out, save_coloring(col))
    print(f"decoded {len(col.classes)} classes")
    report = verify_coloring(col)
    print(_status(report))
    return 0 if report.valid else 1


def cmd_stats(args: argparse.Namespace) -> int:
    col = _load(args.file)
    print(f"coloring: n={col.params.n} k={col.params.k} classes={len(col.classes)}")
    stats = [class_stats(c) for c in col.classes]
    for i, s in enumerate(stats, start=1):
        weights = ",".join(map(str, s.weight_distribution))
        dists = ",".join(map(str, s.distance_distribution[1:]))
        print(
            f"class {i}: size={s.size} min_distance={_fmt_distance(s.min_distance)}"
            f" weights={weights} distances={dists}"
        )
    print(f"fingerprint: {fingerprint_from_stats(col.params, stats).decode()}")
    return 0


def cmd_fixture(args: argparse.Namespace) -> int:
    from .fixture import q8_square_13_coloring

    print(save_coloring(q8_square_13_coloring()), end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cubecolor",
        description="Verify, bound, and search for colorings of powers of the hypercube.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="check a coloring file; exit 0 valid, 1 invalid")
    p.add_argument("file", help="coloring file, or - for stdin")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bound", help="packing lower bound on the chromatic number of Q_n^k")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("search", help="heuristic coloring; exit 0 iff a proper K-coloring is found")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--colors", type=int, required=True)
    p.add_argument("--algo", choices=("greedy", "dsatur", "tabu"), default="tabu")
    _add_search_config_args(p)
    p.add_argument("--init", help="coloring file to start the tabu search from")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("extend", help="lift a coloring of Q_n^k to Q_{n+1}^k")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--strategy", choices=("double", "freeze-subcube"), required=True)
    p.add_argument("--colors", type=int)
    _add_search_config_args(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_extend)

    p = sub.add_parser("encode", help="write a DIMACS CNF for K-colorability of Q_n^k")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--colors", type=int, required=True)
    p.add_argument("--symmetry", choices=("none", "fix-vertex-0", "fix-clique"), default="none")
    p.add_argument("--amo", action="store_true", help="add pairwise at-most-one clauses")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("decode-model", help="turn a SAT model into a coloring file")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--colors", type=int, required=True)
    p.add_argument("--model", required=True, help="solver output file, or - for stdin")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_decode_model)

    p = sub.add_parser("stats", help="per-class statistics and fingerprint")
    p.add_argument("file", help="coloring file, or - for stdin")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("fixture", help="write the embedded 13-coloring of Q_8^2 to stdout")
    p.set_defaults(func=cmd_fixture)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout must fail here, not at interpreter exit
        return code
    except BrokenPipeError:
        # The reader stopped early (`| head`).  Silence the exit flush too and
        # report what a shell reports for a command killed by SIGPIPE.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ValueError, OSError) as exc:  # includes ColoringParseError, UnknownCodeSizeError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
