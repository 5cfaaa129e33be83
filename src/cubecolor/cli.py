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

import os
import sys
from collections import namedtuple

from .coloring import classes_stats, fingerprint_from_stats, verify_coloring
from .files import load_coloring, save_coloring
from .hamming import Params

# Every command but bound would load the modules above anyway (bounds imports
# hamming alone).  The search, SAT, bounds and fixture modules are imported
# only by the commands that run them, and neither parser needs them: the
# table's --strategy and --symmetry choices spell out search.STRATEGIES and
# sat.SYMMETRIES, which a test holds them to.  argparse itself is imported
# only for a command line the fast parser turns down.


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


def _status(report) -> str:
    return f"status: {'valid' if report.valid else f'invalid ({report.num_violations} violations)'}"


def cmd_verify(args) -> int:
    col = _load(args.file)
    report = verify_coloring(col)
    print(f"coloring: n={col.params.n} k={col.params.k} classes={len(col.classes)}")
    for i, s in enumerate(report.per_class, start=1):
        print(f"class {i}: size={s.size} min_distance={s.min_distance}")
    for v in report.violations:
        words = ",".join(map(str, v.words))
        cls = ",".join(map(str, v.classes))
        print(f"violation: {v.kind} words={words}" + (f" classes={cls}" if cls else ""))
    hidden = report.num_violations - len(report.violations)
    if hidden > 0:
        print(f"... and {hidden} more violations")
    print(_status(report))
    return 0 if report.valid else 1


def cmd_bound(args) -> int:
    from .bounds import chromatic_lower_bound

    result = chromatic_lower_bound(args.n, args.k)
    print(result.bound)
    detail = f"A({args.n},{args.k + 1}) = {result.max_code_size}"
    if result.citation is not None:
        detail += f" [{result.citation}]"
    print(f"source: {result.source}, {detail}")
    return 0


def _search_config(args):
    from .search import SearchConfig

    given = {"rng_seed": args.seed, "max_iterations": args.max_iters, "restarts": args.restarts}
    return SearchConfig(**{key: value for key, value in given.items() if value is not None})


def cmd_search(args) -> int:
    from .search import assignment_from_coloring, dsatur_color, greedy_color, tabu_search

    params = Params(args.n, args.k, args.colors)
    if args.algo in ("greedy", "dsatur"):
        if args.init is not None:
            raise ValueError(f"--init starts a tabu search; --algo {args.algo} takes none")
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


def cmd_extend(args) -> int:
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


def cmd_encode(args) -> int:
    from .sat import EncodeOptions, coloring_cnf_stream, dimacs_block_lines

    params = Params(args.n, args.k, args.colors)
    options = EncodeOptions(at_most_one=args.amo, symmetry=args.symmetry)
    comments, num_vars, num_clauses, blocks = coloring_cnf_stream(params, options)
    with open(args.out, "w") as fh:
        fh.writelines(dimacs_block_lines(comments, num_vars, num_clauses, blocks, args.colors))
    print(f"variables: {num_vars}")
    print(f"clauses: {num_clauses}")
    return 0


def cmd_decode_model(args) -> int:
    from .sat import decode_model, parse_solver_model

    params = Params(args.n, args.k, args.colors)
    true_vars = parse_solver_model(_read_text(args.model))
    col = decode_model(true_vars, params)
    _write_text(args.out, save_coloring(col))
    print(f"decoded {len(col.classes)} classes")
    report = verify_coloring(col)
    print(_status(report))
    return 0 if report.valid else 1


def cmd_stats(args) -> int:
    col = _load(args.file)
    print(f"coloring: n={col.params.n} k={col.params.k} classes={len(col.classes)}")
    stats = classes_stats(col.classes)
    for i, s in enumerate(stats, start=1):
        weights = ",".join(map(str, s.weight_distribution))
        dists = ",".join(map(str, s.distance_distribution[1:]))
        print(
            f"class {i}: size={s.size} min_distance={s.min_distance}"
            f" weights={weights} distances={dists}"
        )
    print(f"fingerprint: {fingerprint_from_stats(col.params, stats).decode()}")
    return 0


def cmd_fixture(args) -> int:
    from .fixture import q8_square_13_coloring

    print(save_coloring(q8_square_13_coloring()), end="")
    return 0


# The CLI's whole surface, from which both parsers are built.  Each command
# maps to (help, function, positionals, flags), a positional being (dest, help).
# A flag of type None keeps its string; type bool makes it a switch that takes
# no value (argparse's store_true).
Flag = namedtuple(
    "Flag", "option dest type choices default required help",
    defaults=(None, None, None, False, None),
)
_SEARCH_CONFIG = (  # no defaults: an omitted flag takes SearchConfig's
    Flag("--seed", "seed", int),
    Flag("--max-iters", "max_iters", int),
    Flag("--restarts", "restarts", int),
)
_N, _K, _COLORS = (Flag(f"--{d}", d, int, required=True) for d in ("n", "k", "colors"))
_OUT = Flag("--out", "out", required=True)
_FILE = (("file", "coloring file, or - for stdin"),)
COMMANDS = {
    "verify": ("check a coloring file; exit 0 valid, 1 invalid", cmd_verify, _FILE, ()),
    "bound": ("packing lower bound on the chromatic number of Q_n^k", cmd_bound, (), (_N, _K)),
    "search": (
        "heuristic coloring; exit 0 iff a proper K-coloring is found", cmd_search, (),
        (
            _N, _K, _COLORS,
            Flag("--algo", "algo", choices=("greedy", "dsatur", "tabu"), default="tabu"),
            *_SEARCH_CONFIG,
            Flag("--init", "init", help="coloring file to start the tabu search from"),
            _OUT,
        ),
    ),
    "extend": (
        "lift a coloring of Q_n^k to Q_{n+1}^k", cmd_extend, (),
        (
            Flag("--in", "infile", required=True),
            Flag("--strategy", "strategy", choices=("double", "freeze-subcube"), required=True),
            Flag("--colors", "colors", int),
            *_SEARCH_CONFIG,
            _OUT,
        ),
    ),
    "encode": (
        "write a DIMACS CNF for K-colorability of Q_n^k", cmd_encode, (),
        (
            _N, _K, _COLORS,
            Flag("--symmetry", "symmetry", choices=("none", "fix-vertex-0", "fix-clique"),
                 default="none"),
            Flag("--amo", "amo", bool, default=False, help="add pairwise at-most-one clauses"),
            _OUT,
        ),
    ),
    "decode-model": (
        "turn a SAT model into a coloring file", cmd_decode_model, (),
        (
            _N, _K, _COLORS,
            Flag("--model", "model", required=True, help="solver output file, or - for stdin"),
            _OUT,
        ),
    ),
    "stats": ("per-class statistics and fingerprint", cmd_stats, _FILE, ()),
    "fixture": ("write the embedded 13-coloring of Q_8^2 to stdout", cmd_fixture, (), ()),
}

_Namespace = type(sys.implementation)  # types.SimpleNamespace, without importing types


def build_parser():
    """The argparse parser for COMMANDS: help, error messages and every line
    the fast parser turns down."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="cubecolor",
        description="Verify, bound, and search for colorings of powers of the hypercube.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_, func, positionals, flags) in COMMANDS.items():
        p = sub.add_parser(name, help=help_)
        for dest, help_ in positionals:
            p.add_argument(dest, help=help_)
        for f in flags:
            if f.type is bool:
                p.add_argument(f.option, dest=f.dest, action="store_true", help=f.help)
            else:
                p.add_argument(
                    f.option, dest=f.dest, type=f.type, choices=f.choices, default=f.default,
                    required=f.required, help=f.help,
                )
        p.set_defaults(func=func)
    return parser


def _parse_fast(argv: list[str]):
    """argparse's namespace for an exact, complete command line, else None.

    The line must be a known command, then its declared positionals (``-``
    is one) and each of its flags at most once, spelled in full, a flag that
    takes a value followed by one that does not start with ``-``.  Values are
    converted and checked against choices as argparse does, and every
    required flag must be present.  Every other line, which includes help,
    abbreviations, ``--flag=value``, repeated flags, negative numbers, ``--``
    and every error, returns None and is left to argparse.
    """
    if not argv or argv[0] not in COMMANDS:
        return None
    _, func, positionals, flags = COMMANDS[argv[0]]
    by_option = {f.option: f for f in flags}
    values = {f.dest: f.default for f in flags}
    seen = set()
    given = []
    tokens = iter(argv[1:])
    for token in tokens:
        if token[:1] != "-" or token == "-":
            given.append(token)
            continue
        f = by_option.get(token)
        if f is None or token in seen:
            return None
        seen.add(token)
        if f.type is bool:
            values[f.dest] = True
            continue
        value = next(tokens, "-")  # a missing value is turned down as a dash is
        if value[:1] == "-":
            return None
        if f.type is not None:
            try:
                value = f.type(value)
            except ValueError:
                return None
        if f.choices is not None and value not in f.choices:
            return None
        values[f.dest] = value
    if len(given) != len(positionals) or any(f.required and f.option not in seen for f in flags):
        return None
    values.update(zip((dest for dest, _ in positionals), given))
    return _Namespace(command=argv[0], func=func, **values)


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _parse_fast(argv)
    if args is None:
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
