"""CNF encoding of "Q_n^k is K-colorable" plus DIMACS and model plumbing.

Variable var(v, c) = v*K + c is "vertex v has color c" for v in [0, 2^n) and
c in 1..K.  Clause emission order is fixed (at-least-one by vertex, conflict
clauses by (pair, color), optional at-most-one by vertex, symmetry units
last) so generated files are byte-identical across runs.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import chain, combinations, repeat
from operator import add, itemgetter, neg

from .coloring import Coloring, coloring_from_classes
from .files import content_lines, parse_ints
from .frozen import Frozen
from .hamming import Params, ball_masks, ball_size

SYMMETRY_NONE = "none"
SYMMETRY_FIX_VERTEX_0 = "fix-vertex-0"
SYMMETRY_FIX_CLIQUE = "fix-clique"
SYMMETRIES = (SYMMETRY_NONE, SYMMETRY_FIX_VERTEX_0, SYMMETRY_FIX_CLIQUE)

#: Largest formula encode_coloring_cnf builds, as a bound on both its clause
#: count and its variable count.  The clauses are held as tuples and the CLI
#: writes them out line by line, about 155 bytes per clause at peak (5.9M
#: clauses for (12,2,37) took 886 MiB, 2.0M for (11,2,30) took 314 MiB).  The
#: at-least-one clauses hold every variable once, about 42 bytes each (4.2M
#: variables in 2048 clauses for (11,0,2048) took 176 MiB).  Either bound
#: keeps an encode under 1 GiB.
MAX_CLAUSES = 6_000_000


class ModelDecodeError(ValueError):
    """A model leaves some vertex without a true color variable."""


class CnfFormula(Frozen):
    __slots__ = ("num_vars", "clauses", "comments")

    def __init__(
        self, num_vars: int, clauses: tuple[tuple[int, ...], ...], comments: tuple[str, ...] = ()
    ) -> None:
        clauses = tuple(map(tuple, clauses))
        comments = tuple(comments)
        if num_vars < 0:
            raise ValueError("num_vars must be nonnegative")
        if _has_faulty_clause(num_vars, clauses):
            for cl in clauses:  # name the first offender
                if not cl:
                    raise ValueError("empty clause")
                seen = set()
                for lit in cl:
                    if lit == 0 or abs(lit) > num_vars:
                        raise ValueError(f"literal {lit} out of range for {num_vars} variables")
                    if -lit in seen:
                        raise ValueError(f"clause {cl} contains both {lit} and {-lit}")
                    seen.add(lit)
        self._init(num_vars=num_vars, clauses=clauses, comments=comments)


def _has_faulty_clause(num_vars: int, clauses: tuple[tuple[int, ...], ...]) -> bool:
    """Whether a clause is empty, holds 0 or a literal beyond num_vars, or holds x and -x.

    Whole-formula passes, no per-literal Python loop.  With 0 ruled out, a
    clause of at most two literals holds a complementary pair exactly when
    its first and last literals sum to 0; longer clauses get a set test each.
    """
    if not all(clauses):
        return True
    literals = set(chain.from_iterable(clauses))
    if 0 in literals or min(literals, default=0) < -num_vars or max(literals, default=0) > num_vars:
        return True
    if 0 in map(add, map(itemgetter(0), clauses), map(itemgetter(-1), clauses)):
        return True
    longer = [cl for cl in clauses if len(cl) > 2]
    return not all(map(set.isdisjoint, map(set, longer), map(map, repeat(neg), longer)))


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

    clauses: list[tuple[int, ...]] = []
    for v in range(size):
        clauses.append(tuple(var_index(v, c, num_colors) for c in range(1, num_colors + 1)))

    masks = ball_masks(n, k)
    for u in range(size):
        for v in sorted(u ^ m for m in masks):
            if v < u:
                continue
            for c in range(1, num_colors + 1):
                clauses.append((-var_index(u, c, num_colors), -var_index(v, c, num_colors)))

    if options.at_most_one:
        for v in range(size):
            for c1, c2 in combinations(range(1, num_colors + 1), 2):
                clauses.append((-var_index(v, c1, num_colors), -var_index(v, c2, num_colors)))

    if options.symmetry == SYMMETRY_FIX_VERTEX_0:
        clauses.append((var_index(0, 1, num_colors),))
    elif options.symmetry == SYMMETRY_FIX_CLIQUE:
        clique = [0, *ball_masks(n, k // 2)]  # pairwise distances <= 2*(k//2) <= k
        if num_colors < len(clique):
            raise ValueError(
                f"fix-clique needs at least {len(clique)} colors, got {num_colors}"
            )
        for c, w in enumerate(clique, start=1):
            clauses.append((var_index(w, c, num_colors),))

    comments = (
        f"power-{k} coloring of the {n}-cube with {num_colors} colors",
        f"n={n} k={k} colors={num_colors} at_most_one={options.at_most_one}"
        f" symmetry={options.symmetry}",
        f"var(v,c) = v*{num_colors} + c, v in 0..{size - 1}, c in 1..{num_colors}",
    )
    return CnfFormula(num_vars=num_vars, clauses=tuple(clauses), comments=comments)


def expected_clause_count(params: Params, options: EncodeOptions | None = None) -> int:
    """Closed-form clause count, kept as an independent check on the encoder."""
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


def dimacs_lines(f: CnfFormula) -> Iterator[str]:
    """The lines of write_dimacs(f), each ending in a newline, one at a time,
    so a file can be written without holding the whole text."""
    for c in f.comments:
        yield f"c {c}\n"
    yield f"p cnf {f.num_vars} {len(f.clauses)}\n"
    for cl in f.clauses:
        yield " ".join(map(str, cl)) + " 0\n"


def write_dimacs(f: CnfFormula) -> str:
    """Standard DIMACS CNF text; byte-stable for a fixed formula."""
    return "".join(dimacs_lines(f))


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
