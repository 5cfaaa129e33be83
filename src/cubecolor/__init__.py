"""Colorings of hypercube powers as partitions into distance codes.

A proper coloring of Q_n^k (the n-cube with edges between words at Hamming
distance at most k) is exactly a partition of {0,1}^n into binary codes of
minimum distance k+1 or more.  The package verifies such partitions, computes
packing lower bounds on the number of classes, searches for colorings with
tabu search, encodes the problem as CNF, and ships the known partition of the
8-cube into 13 such codes for k = 2.
"""

from .bounds import (
    ChromaticBound,
    CodeSizeResult,
    KnownValueTable,
    UnknownCodeSizeError,
    chromatic_lower_bound,
    default_table,
    exact_max_code_size,
    packing_lower_bound,
)
from .coloring import (
    ClassStats,
    CodeClass,
    Coloring,
    VerifyReport,
    Violation,
    class_stats,
    coloring_from_classes,
    fingerprint,
    transform_coloring,
    verify_coloring,
)
from .files import ColoringParseError, load_coloring, save_coloring
from .fixture import q8_square_13_coloring
from .hamming import (
    Automorphism,
    Params,
    apply_automorphism,
    ball_size,
    hamming_distance,
    neighbors_within,
    random_automorphism,
)
from .sat import (
    CnfFormula,
    EncodeOptions,
    ModelDecodeError,
    decode_model,
    encode_coloring_cnf,
    expected_clause_count,
    parse_solver_model,
    var_index,
    write_dimacs,
)
from .search import (
    Assignment,
    SearchConfig,
    SearchOutcome,
    assignment_from_coloring,
    conflict_count,
    dsatur_color,
    extend_to_higher_dim,
    greedy_color,
    tabu_search,
)

__version__ = "0.1.0"

__all__ = [
    "Assignment",
    "Automorphism",
    "ChromaticBound",
    "ClassStats",
    "CnfFormula",
    "CodeClass",
    "CodeSizeResult",
    "Coloring",
    "ColoringParseError",
    "EncodeOptions",
    "KnownValueTable",
    "ModelDecodeError",
    "Params",
    "SearchConfig",
    "SearchOutcome",
    "UnknownCodeSizeError",
    "VerifyReport",
    "Violation",
    "apply_automorphism",
    "assignment_from_coloring",
    "ball_size",
    "chromatic_lower_bound",
    "class_stats",
    "coloring_from_classes",
    "conflict_count",
    "decode_model",
    "default_table",
    "dsatur_color",
    "encode_coloring_cnf",
    "exact_max_code_size",
    "extend_to_higher_dim",
    "fingerprint",
    "greedy_color",
    "hamming_distance",
    "load_coloring",
    "neighbors_within",
    "packing_lower_bound",
    "parse_solver_model",
    "q8_square_13_coloring",
    "random_automorphism",
    "save_coloring",
    "tabu_search",
    "transform_coloring",
    "var_index",
    "verify_coloring",
    "write_dimacs",
]
