"""CNF encoding of "Q_n^k is K-colorable" plus DIMACS and model plumbing.

Variable var(v, c) = v*K + c is "vertex v has color c" for v in [0, 2^n) and
c in 1..K.  One generator, _blocks, fixes the clause order (at-least-one by
vertex, conflict clauses by (pair, color), symmetry units last), so generated
files are byte-identical across runs.  At-most-one clauses would never change
satisfiability, as decode_model takes each vertex's smallest true color.
The CLI's encode streams each block's text through dimacs_block_lines;
encode_coloring_cnf and write_dimacs, plain code over clause tuples, are the
reference the tests hold it to.  The clauses are valid by construction
(non-empty, literals in +-1..num_vars, never x with -x) for every input, so
the encoder does not re-check them; the tests check them against an oracle.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Iterator

from .coloring import Coloring, coloring_from_classes
from .files import ColoringParseError, content_lines, parse_ints
from .hamming import Params, ball_masks, ball_size

SYMMETRY_NONE = "none"
SYMMETRY_FIX_VERTEX_0 = "fix-vertex-0"
SYMMETRY_FIX_CLIQUE = "fix-clique"
SYMMETRIES = (SYMMETRY_NONE, SYMMETRY_FIX_VERTEX_0, SYMMETRY_FIX_CLIQUE)

#: Largest formula encode_coloring_cnf builds and the CLI's encode writes, as a
#: bound on both its clause count and its variable count.  The library holds
#: the clauses as tuples, about 140 bytes per clause (2.0M clauses for
#: (11,2,30) peaked at 281 MiB in 0.8-1.2 s under CPython 3.11) and 40 bytes per
#: variable (4.2M variables in 2048 clauses for (11,0,2048) peaked at 174 MiB),
#: so either bound keeps a formula under 1 GiB.  The CLI streams the clauses in
#: about 15 MiB; there the bound caps output size and run time (5.9M clauses
#: for (12,2,37) are 99 MB of DIMACS, written in 1.2 s under CPython 3.11).
MAX_CLAUSES = 6_000_000


#: A block of the coloring formula's clauses, (kind, a, b): see _blocks.
Block = tuple[str, int, int | list[int]]


class ModelDecodeError(ValueError):
    """A model leaves some vertex without a true color variable."""


class CnfFormula(namedtuple("CnfFormula", "num_vars clauses comments")):
    """A CNF formula, held as tuples; it checks nothing about its clauses."""

    __slots__ = ()

    def __new__(
        cls, num_vars: int, clauses: Iterable[Iterable[int]], comments: Iterable[str] = ()
    ) -> CnfFormula:
        return super().__new__(cls, num_vars, tuple(map(tuple, clauses)), tuple(comments))


def var_index(v: int, c: int, num_colors: int) -> int:
    """1-based CNF variable for "vertex v has color c", c in 1..num_colors."""
    return v * num_colors + c


def encode_coloring_cnf(params: Params, symmetry: str = SYMMETRY_NONE) -> CnfFormula:
    """CNF satisfiable iff Q_n^k admits a proper num_colors-coloring.

    At-least-one clauses make every vertex colored; conflict clauses forbid a
    shared color on every pair at distance 1..k.  fix-clique pins the
    radius-floor(k/2) ball around vertex 0, which is a clique of Q_n^k, to
    colors 1, 2, ...; fix-vertex-0 is the same rule at radius 0, pinning
    vertex 0 to color 1.
    """
    comments, num_vars, _, blocks = coloring_cnf_stream(params, symmetry)
    return CnfFormula(num_vars, _clauses(blocks, params.num_colors), comments)


def coloring_cnf_stream(
    params: Params, symmetry: str = SYMMETRY_NONE
) -> tuple[tuple[str, ...], int, int, Iterator[Block]]:
    """(comments, num_vars, num_clauses, blocks) of encode_coloring_cnf's
    formula, with blocks (see _blocks) a generator that holds one at a time.

    Every check on params and symmetry runs here, before the first block is
    generated, so a writer of the stream never leaves a partial file behind.
    """
    n, k, num_colors = params.n, params.k, params.num_colors
    size = 1 << n
    count = expected_clause_count(params, symmetry)  # raises on num_colors None, a bad symmetry
    num_vars = size * num_colors
    for what, amount in (("clauses", count), ("variables", num_vars)):
        if amount > MAX_CLAUSES:
            raise ValueError(
                f"encoding would build {amount} {what}, above the limit of {MAX_CLAUSES}"
            )
    radius = _pin_radius(k, symmetry)
    pins = 0 if radius is None else ball_size(n, radius)
    if num_colors < pins:
        raise ValueError(f"{symmetry} needs at least {pins} colors, got {num_colors}")

    comments = (
        f"power-{k} coloring of the {n}-cube with {num_colors} colors",
        f"n={n} k={k} colors={num_colors} at_most_one=False symmetry={symmetry}",
        f"var(v,c) = v*{num_colors} + c, v in 0..{size - 1}, c in 1..{num_colors}",
    )
    return comments, num_vars, count, _blocks(params, radius)


def _pin_radius(k: int, symmetry: str) -> int | None:
    """Radius of the ball around 0, a clique, that symmetry pins to colors 1, 2, ..., if any."""
    if symmetry not in SYMMETRIES:
        raise ValueError(f"symmetry must be one of {SYMMETRIES}, got {symmetry!r}")
    return {SYMMETRY_FIX_VERTEX_0: 0, SYMMETRY_FIX_CLIQUE: k // 2}.get(symmetry)


def _blocks(params: Params, radius: int | None) -> Iterator[Block]:
    """The clauses of the coloring formula in their fixed order, as blocks that
    _clauses expands into tuples and dimacs_block_lines into text: ("or", a, b)
    is the clause (a, ..., b - 1), and with base_v = v*K = var(v, c) - c,
    ("edges", base_u, [base_v, ...]) the K clauses (-var(u, c), -var(v, c)) of
    each pair u < v in turn.  The unit clauses of the symmetry pins, the ball
    of the given radius around vertex 0 (see _pin_radius), come last."""
    n, k, num_colors = params.n, params.k, params.num_colors
    size = 1 << n
    bases = range(0, size * num_colors, num_colors)
    for base in bases:
        yield "or", base + 1, base + num_colors + 1

    masks = ball_masks(n, k)
    for u in range(size):
        above = [bases[v] for v in sorted(u ^ m for m in masks) if v > u]
        if above:  # every block holds a clause, so k = 0 has no edges block
            yield "edges", bases[u], above

    if radius is not None:
        clique = [0, *ball_masks(n, radius)]  # pairwise distances <= 2*radius <= k
        for c, w in enumerate(clique, start=1):
            yield "or", bases[w] + c, bases[w] + c + 1


def _clauses(blocks: Iterable[Block], num_colors: int) -> Iterator[tuple[int, ...]]:
    """The clauses of the blocks as tuples, one at a time, with no call per literal."""
    for kind, a, b in blocks:
        if kind == "or":
            yield tuple(range(a, b))
        else:
            negated = range(-a - 1, -a - num_colors - 1, -1)  # -(a + 1), ..., -(a + num_colors)
            for v in b:
                yield from zip(negated, range(-v - 1, -v - num_colors - 1, -1))


def dimacs_block_lines(
    comments: Iterable[str], num_vars: int, num_clauses: int,
    blocks: Iterable[Block], num_colors: int,
) -> Iterator[str]:
    """A DIMACS file's lines: comments, header, then one string per block.  An
    edges block formats u's literals once into a template that each v fills,
    so the writer holds strings for one vertex at a time, whatever the variable count."""
    for c in comments:
        yield f"c {c}\n"
    yield f"p cnf {num_vars} {num_clauses}\n"
    span = num_colors + 1  # a vertex's literals are base + 1 .. base + num_colors
    for kind, a, b in blocks:
        if kind == "or":
            yield ("%s " * (b - a) + "0\n") % tuple(range(a, b))
        else:
            template = "".join([f"-{x} -%d 0\n" for x in range(a + 1, a + span)])
            for v in b:
                yield template % tuple(range(v + 1, v + span))


def expected_clause_count(params: Params, symmetry: str = SYMMETRY_NONE) -> int:
    """Closed-form clause count: the streamed DIMACS header's count, checked
    against the clauses generated in the tests."""
    radius = _pin_radius(params.k, symmetry)
    if params.num_colors is None:
        raise ValueError("encoding needs params.num_colors")
    n, k, num_colors = params.n, params.k, params.num_colors
    size = 1 << n
    pairs = size * (ball_size(n, k) - 1) // 2
    total = size + num_colors * pairs
    return total if radius is None else total + ball_size(n, radius)


def write_dimacs(f: CnfFormula) -> str:
    """Standard DIMACS CNF text; byte-stable for a fixed formula."""
    return "".join([
        *(f"c {c}\n" for c in f.comments),
        f"p cnf {f.num_vars} {len(f.clauses)}\n",
        *(" ".join(map(str, cl)) + " 0\n" for cl in f.clauses),
    ])


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
    """Read a model in the common solver output conventions.

    Lines of signed integers terminated by 0; "v " prefixes are stripped and
    comment ("c") lines are ignored.  Positive literals become true
    variables, negatives are recorded as false by omission.  The verdict
    "s SATISFIABLE", or MiniSat's and Glucose's "SAT", is skipped; any other
    ("UNSAT", "INDET", "s UNKNOWN", ...) is a ColoringParseError.
    """
    true_vars: set[int] = set()
    for lineno, line in content_lines(text, "c"):
        verdict = line.split()
        if verdict[0] in ("s", "SAT", "UNSAT", "INDET"):
            if verdict not in (["s", "SATISFIABLE"], ["SAT"]):
                raise ColoringParseError(f"line {lineno}: no model, the solver says {line!r}")
            continue
        if line.startswith("v"):
            line = line[1:]
        true_vars.update(lit for lit in parse_ints(line.split(), lineno) if lit > 0)
    return true_vars
