"""The value types' contract, and what importing the CLI loads."""

import copy
import os
import pickle
import re
import subprocess
import sys
from pathlib import Path

import pytest

from cubecolor.coloring import (
    ClassStats,
    CodeClass,
    Coloring,
    VerifyReport,
    Violation,
    coloring_from_classes,
)
from cubecolor.hamming import Automorphism, Params
from cubecolor.sat import CnfFormula, EncodeOptions
from cubecolor.search import SearchConfig

SRC = Path(__file__).resolve().parents[1] / "src"


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # Imports every module of the package, not only the CLI, which loads the
    # rest on demand: none may import these at its top.  -S: no site hook may
    # preload them and hide an import of them.  pathlib alone pulls in
    # urllib.parse and ipaddress; the CLI uses open().
    modules = sorted(f"cubecolor.{p.stem}" for p in (SRC / "cubecolor").glob("*.py"))
    code = (
        f"import sys, {', '.join(modules)};"
        " print(*(m for m in ('dataclasses', 'inspect', 'importlib.resources', 'pathlib')"
        " if m in sys.modules))"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert "cubecolor.search" in modules and "cubecolor.sat" in modules
    assert proc.stdout.split() == []


# Every type that is immutable: (build, by keyword where the type has its own
# constructor; build with other fields; a field; a bad construction, or None
# when the type checks nothing; its message).
FROZEN_TYPES = [
    pytest.param(
        lambda: Params(n=8, k=2, num_colors=13), lambda: Params(8, 2), "n",
        lambda: Params(0, 0), "dimension n must be in 1..24, got 0", id="Params",
    ),
    pytest.param(
        lambda: Automorphism(perm=[1, 0, 2], translation=5), lambda: Automorphism((1, 0, 2)),
        "perm", lambda: Automorphism((0, 0)), "perm (0, 0) is not a permutation of 0..1",
        id="Automorphism",
    ),
    pytest.param(
        lambda: CodeClass(words=[0, 7], n=3), lambda: CodeClass([0, 7], 4), "words",
        lambda: CodeClass([8], 3), "word 8 out of range for n=3", id="CodeClass",
    ),
    pytest.param(
        lambda: Coloring(params=Params(1, 1), classes=[CodeClass([0], 1), CodeClass([1], 1)]),
        lambda: coloring_from_classes(Params(1, 1), [[1], [0]]), "classes",
        lambda: Coloring(Params(2, 1, 3), ()), "coloring declares 3 colors but has 0 classes",
        id="Coloring",
    ),
    pytest.param(
        lambda: CnfFormula(num_vars=2, clauses=[[1, -2]], comments=["c"]),
        lambda: CnfFormula(2, [[1, -2]]), "clauses", None, None, id="CnfFormula",
    ),
    pytest.param(
        lambda: EncodeOptions(at_most_one=True, symmetry="fix-clique"), lambda: EncodeOptions(),
        "symmetry", lambda: EncodeOptions(symmetry="x"), "symmetry must be one of",
        id="EncodeOptions",
    ),
    pytest.param(
        lambda: SearchConfig(rng_seed=3, restarts=2), lambda: SearchConfig(),
        "rng_seed", lambda: SearchConfig(max_iterations=0), "max_iterations must be positive",
        id="SearchConfig",
    ),
    pytest.param(
        lambda: ClassStats(2, 3, (1, 0, 1), (0, 0, 1)), lambda: ClassStats(1, 3, (1,), (0,)),
        "size", None, None, id="ClassStats",
    ),
    pytest.param(
        lambda: Violation("missing-word", (3,)), lambda: Violation("missing-word", (4,)),
        "words", None, None, id="Violation",
    ),
    pytest.param(
        lambda: VerifyReport(False, num_violations=1), lambda: VerifyReport(True), "valid",
        None, None, id="VerifyReport",
    ),
]


@pytest.mark.parametrize("build, build_other, field, bad, message", FROZEN_TYPES)
def test_frozen_value_type_contract(build, build_other, field, bad, message):
    a, b = build(), build()
    before = getattr(a, field)
    with pytest.raises(AttributeError):
        setattr(a, field, getattr(build_other(), field))
    with pytest.raises(AttributeError):
        delattr(a, field)
    with pytest.raises(AttributeError):
        a.no_such_field = 1
    assert getattr(a, field) == before

    assert a is not b and a == b and not a != b
    assert a != build_other()
    assert hash(a) == hash(b)

    for c in (pickle.loads(pickle.dumps(a)), copy.deepcopy(a)):
        assert c == a and type(c) is type(a)

    if bad is not None:
        with pytest.raises(ValueError, match=re.escape(message)):
            bad()
        # Unpickling runs the constructor, so it checks the fields again.
        forged = pickle.dumps(tuple.__new__(type(a), [None] * len(type(a)._fields)))
        with pytest.raises((TypeError, ValueError)):
            pickle.loads(forged)

