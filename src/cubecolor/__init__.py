"""Colorings of hypercube powers as partitions into distance codes.

A proper coloring of Q_n^k (the n-cube with edges between words at Hamming
distance at most k) is exactly a partition of {0,1}^n into binary codes of
minimum distance k+1 or more.  The package verifies such partitions, computes
packing lower bounds on the number of classes, searches for colorings with
tabu search, encodes the problem as CNF, and ships the known partition of the
8-cube into 13 such codes for k = 2.
"""

__version__ = "0.1.0"

# The public names by home module.  Each is imported from there on first use
# (PEP 562), so `import cubecolor` runs no submodule and a CLI command loads
# only the modules it calls.
_EXPORTS = {
    "bounds": (
        "ChromaticBound", "CodeSizeResult", "UnknownCodeSizeError", "chromatic_lower_bound",
        "exact_max_code_size", "packing_lower_bound",
    ),
    "coloring": (
        "ClassStats", "CodeClass", "Coloring", "VerifyReport", "Violation", "class_stats",
        "coloring_from_classes", "fingerprint", "transform_coloring", "verify_coloring",
    ),
    "files": ("ColoringParseError", "load_coloring", "save_coloring"),
    "fixture": ("q8_square_13_coloring",),
    "hamming": (
        "Automorphism", "Params", "apply_automorphism", "ball_size", "hamming_distance",
        "neighbors_within", "random_automorphism",
    ),
    "sat": (
        "CnfFormula", "EncodeOptions", "ModelDecodeError", "decode_model",
        "encode_coloring_cnf", "parse_solver_model", "var_index", "write_dimacs",
    ),
    "search": (
        "Assignment", "SearchConfig", "SearchOutcome", "assignment_from_coloring",
        "conflict_count", "dsatur_color", "extend_to_higher_dim", "greedy_color",
        "tabu_search",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str) -> object:
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = globals()[name] = getattr(import_module(f"{__name__}.{module}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
