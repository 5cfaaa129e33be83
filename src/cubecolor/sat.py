"""CNF encoding of "Q_n^k is K-colorable" plus DIMACS and model plumbing.

Variable var(v, c) = v*K + c is "vertex v has color c" for v in [0, 2^n) and
c in 1..K.  One generator, _clauses, fixes the clause order (at-least-one by
vertex, conflict clauses by (pair, color), optional at-most-one by vertex,
symmetry units last), so generated files are byte-identical across runs.
encode_coloring_cnf collects its clauses into a CnfFormula; the CLI's encode
writes each clause as it is generated, so its memory stays flat.  The clauses
are valid by construction (non-empty, literals in +-1..num_vars, never x with
-x) for every input, so the encoder does not re-check them; the tests check
them against an oracle.
"""

from __future__ import annotations

import gc
from collections.abc import Iterable, Iterator
from itertools import combinations

from .coloring import Coloring, coloring_from_classes
from .files import content_lines, parse_ints
from .frozen import Frozen
from .hamming import Params, ball_masks, ball_size

SYMMETRY_NONE = "none"
SYMMETRY_FIX_VERTEX_0 = "fix-vertex-0"
SYMMETRY_FIX_CLIQUE = "fix-clique"
SYMMETRIES = (SYMMETRY_NONE, SYMMETRY_FIX_VERTEX_0, SYMMETRY_FIX_CLIQUE)

#: Largest formula encode_coloring_cnf builds and the CLI's encode writes, as a
#: bound on both its clause count and its variable count.  The library holds
#: the clauses as tuples, about 146 bytes per clause (2.0M clauses for
#: (11,2,30) took 297 MiB) and 40 bytes per variable (4.2M variables in 2048
#: clauses for (11,0,2048) took 175 MiB), so either bound keeps a formula under
#: 1 GiB.  The CLI streams the clauses in about 15 MiB whatever their number;
#: there the bound caps output size and run time (5.9M clauses for (12,2,37)
#: are 99 MB of DIMACS, written in 8 s under CPython 3.11).
MAX_CLAUSES = 6_000_000


class ModelDecodeError(ValueError):
    """A model leaves some vertex without a true color variable."""


class CnfFormula(Frozen):
    """A CNF formula, held as tuples; it checks nothing about its clauses."""

    __slots__ = ("num_vars", "clauses", "comments")

    def __init__(
        self, num_vars: int, clauses: Iterable[Iterable[int]], comments: Iterable[str] = ()
    ) -> None:
        self._init(
            num_vars=num_vars, clauses=tuple(map(tuple, clauses)), comments=tuple(comments)
        )


class EncodeOptions(Frozen):
    __slots__ = ("at_most_one", "symmetry")

    def __init__(self, at_most_one: bool = False, symmetry: str = SYMMETRY_NONE) -> None:
        if symmetry not in SYMMETRIES:
            raise ValueError(f"symmetry must be one of {SYMMETRIES}, got {symmetry!r}")
        self._init(at_most_one=at_most_one, symmetry=symmetry)


def var_index(v: int, c: int, num_colors: int) -> int:
    """1-based CNF variable for "vertex v has color c", c in 1..num_colors."""
    return v * num_colors + c


def encode_coloring_cnf(params: Params, options: EncodeOptions | None = None) -> CnfFormula:
    """CNF satisfiable iff Q_n^k admits a proper num_colors-coloring.

    At-least-one clauses make every vertex colored; conflict clauses forbid a
    shared color on every pair at distance 1..k.  At-most-one clauses are
    redundant for satisfiability (decoding just picks the smallest true
    color), so they default off; some solvers still like them.  fix-clique
    pins the radius-floor(k/2) ball around vertex 0, which is a clique of
    Q_n^k, to colors 1, 2, ...
    """
    comments, num_vars, _, clauses = coloring_cnf_stream(params, options)
    enabled = gc.isenabled()
    gc.disable()  # the clause tuples form no cycles, but their number keeps triggering collections
    try:
        return CnfFormula(num_vars, clauses, comments)
    finally:
        if enabled:
            gc.enable()


def coloring_cnf_stream(
    params: Params, options: EncodeOptions | None = None
) -> tuple[tuple[str, ...], int, int, Iterator[tuple[int, ...]]]:
    """(comments, num_vars, num_clauses, clauses) of encode_coloring_cnf's
    formula, with the clauses a generator that holds one clause at a time.

    Every check on params and options runs here, before the first clause is
    generated, so a writer of the stream never leaves a partial file behind.
    """
    options = options or EncodeOptions()
    n, k, num_colors = params.n, params.k, params.num_colors
    size = 1 << n
    count = expected_clause_count(params, options)  # raises when num_colors is None
    num_vars = size * num_colors
    for what, amount in (("clauses", count), ("variables", num_vars)):
        if amount > MAX_CLAUSES:
            raise ValueError(
                f"encoding would build {amount} {what}, above the limit of {MAX_CLAUSES}"
            )
    clique_size = ball_size(n, k // 2)
    if options.symmetry == SYMMETRY_FIX_CLIQUE and num_colors < clique_size:
        raise ValueError(f"fix-clique needs at least {clique_size} colors, got {num_colors}")

    comments = (
        f"power-{k} coloring of the {n}-cube with {num_colors} colors",
        f"n={n} k={k} colors={num_colors} at_most_one={options.at_most_one}"
        f" symmetry={options.symmetry}",
        f"var(v,c) = v*{num_colors} + c, v in 0..{size - 1}, c in 1..{num_colors}",
    )
    return comments, num_vars, count, _clauses(params, options)


def _clauses(params: Params, options: EncodeOptions) -> Iterator[tuple[int, ...]]:
    """The clauses of the coloring formula in their fixed order, one at a time.

    Literals are ranges from each vertex's base v*K, var(v, c) being base + c,
    so no literal costs a call.
    """
    n, k, num_colors = params.n, params.k, params.num_colors
    size = 1 << n

    def negated(v: int) -> range:  # -var(v, 1), ..., -var(v, num_colors)
        return range(-v * num_colors - 1, -(v + 1) * num_colors - 1, -1)

    for base in range(0, size * num_colors, num_colors):
        yield tuple(range(base + 1, base + num_colors + 1))

    masks = ball_masks(n, k)
    for u in range(size):
        lits = negated(u)
        for v in sorted(u ^ m for m in masks):
            if v > u:
                yield from zip(lits, negated(v))

    if options.at_most_one:
        for v in range(size):
            yield from combinations(negated(v), 2)

    if options.symmetry == SYMMETRY_FIX_VERTEX_0:
        yield (var_index(0, 1, num_colors),)
    elif options.symmetry == SYMMETRY_FIX_CLIQUE:
        clique = [0, *ball_masks(n, k // 2)]  # pairwise distances <= 2*(k//2) <= k
        for c, w in enumerate(clique, start=1):
            yield (var_index(w, c, num_colors),)


def expected_clause_count(params: Params, options: EncodeOptions | None = None) -> int:
    """Closed-form clause count: the streamed DIMACS header's count, checked
    against the clauses generated in the tests."""
    options = options or EncodeOptions()
    if params.num_colors is None:
        raise ValueError("encoding needs params.num_colors")
    n, k, num_colors = params.n, params.k, params.num_colors
    size = 1 << n
    pairs = size * (ball_size(n, k) - 1) // 2
    total = size + num_colors * pairs
    if options.at_most_one:
        total += size * num_colors * (num_colors - 1) // 2
    if options.symmetry == SYMMETRY_FIX_VERTEX_0:
        total += 1
    elif options.symmetry == SYMMETRY_FIX_CLIQUE:
        total += ball_size(n, k // 2)
    return total


def dimacs_lines(
    comments: Iterable[str], num_vars: int, num_clauses: int, clauses: Iterable[tuple[int, ...]]
) -> Iterator[str]:
    """The lines of a DIMACS file, each ending in a newline, one at a time,
    so a file can be written without holding the whole text or formula.
    Each clause is a tuple; its literals are written as str() writes them."""
    for c in comments:
        yield f"c {c}\n"
    yield f"p cnf {num_vars} {num_clauses}\n"
    formats: dict[int, str] = {}  # clause length -> "%s %s ... 0\n" (" 0\n" if empty)
    for cl in clauses:
        fmt = formats.get(len(cl))
        if fmt is None:
            fmt = formats[len(cl)] = " ".join(["%s"] * len(cl)) + " 0\n"
        yield fmt % cl


def write_dimacs(f: CnfFormula) -> str:
    """Standard DIMACS CNF text; byte-stable for a fixed formula."""
    return "".join(dimacs_lines(f.comments, f.num_vars, len(f.clauses), f.clauses))


def decode_model(true_vars: set[int], params: Params) -> Coloring:
    """Coloring whose color(v) is the smallest c with var(v, c) true.

    Raises ModelDecodeError when some vertex has no true color variable.
    """
    if params.num_colors is None:
        raise ValueError("decoding needs params.num_colors")
    num_colors = params.num_colors
    classes: list[list[int]] = [[] for _ in range(num_colors)]
    for v in range(params.num_words):
        for c in range(1, num_colors + 1):
            if var_index(v, c, num_colors) in true_vars:
                classes[c - 1].append(v)
                break
        else:
            raise ModelDecodeError(f"vertex {v} has no true color variable")
    return coloring_from_classes(params, classes)


def parse_solver_model(text: str) -> set[int]:
    """Read a model in the common solver output convention.

    Lines of signed integers terminated by 0; "v " prefixes are stripped;
    comment ("c") and status ("s") lines are ignored.  Positive literals
    become true variables, negatives are recorded as false by omission.
    """
    true_vars: set[int] = set()
    for lineno, line in content_lines(text, "cs"):
        if line.startswith("v"):
            line = line[1:]
        true_vars.update(lit for lit in parse_ints(line.split(), lineno) if lit > 0)
    return true_vars
