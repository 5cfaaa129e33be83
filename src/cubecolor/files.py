"""Plain-text coloring files: human-diffable, one class per line.

Format (UTF-8, line oriented): optional "#" comment lines, a header of
"n <int>", "k <int>", "classes <int>" in that order, then exactly that many
"class <word> <word> ..." lines with words as integers in [0, 2^n).  Class
lines may be empty after the keyword.  save_coloring emits words ascending
and no comments, so save . load is the identity on its own output.
"""

from __future__ import annotations

from .coloring import Coloring, coloring_from_classes
from .hamming import MAX_DIMENSION, Params


class ColoringParseError(ValueError):
    """Malformed coloring file; the message names the offending line."""


def save_coloring(col: Coloring) -> str:
    lines = [f"n {col.params.n}", f"k {col.params.k}", f"classes {len(col.classes)}"]
    for c in col.classes:
        words = c.sorted_words()
        lines.append("class " + " ".join(map(str, words)) if words else "class")
    return "\n".join(lines) + "\n"


def _content_lines(text: str) -> list[tuple[int, str]]:
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        out.append((lineno, line))
    return out


def _header_int(lines: list[tuple[int, str]], pos: int, key: str) -> tuple[int, int]:
    if pos >= len(lines):
        raise ColoringParseError(f"unexpected end of file: missing '{key}' header line")
    lineno, line = lines[pos]
    parts = line.split()
    if len(parts) != 2 or parts[0] != key:
        raise ColoringParseError(f"line {lineno}: expected '{key} <int>', got {line!r}")
    try:
        value = int(parts[1])
    except ValueError:
        raise ColoringParseError(f"line {lineno}: {parts[1]!r} is not an integer") from None
    return lineno, value


def load_coloring(text: str) -> Coloring:
    lines = _content_lines(text)
    lineno_n, n = _header_int(lines, 0, "n")
    if not 1 <= n <= MAX_DIMENSION:
        raise ColoringParseError(f"line {lineno_n}: n must be in 1..{MAX_DIMENSION}, got {n}")
    lineno_k, k = _header_int(lines, 1, "k")
    if not 0 <= k <= n:
        raise ColoringParseError(f"line {lineno_k}: k must be in 0..{n}, got {k}")
    lineno_c, num_classes = _header_int(lines, 2, "classes")
    if not 1 <= num_classes <= 1 << n:
        raise ColoringParseError(
            f"line {lineno_c}: classes must be in 1..{1 << n}, got {num_classes}"
        )

    class_lines = lines[3:]
    if len(class_lines) != num_classes:
        raise ColoringParseError(
            f"expected {num_classes} class lines, found {len(class_lines)}"
        )
    classes: list[list[int]] = []
    for lineno, line in class_lines:
        parts = line.split()
        if parts[0] != "class":
            raise ColoringParseError(f"line {lineno}: expected 'class ...', got {line!r}")
        words: list[int] = []
        seen: set[int] = set()
        for tok in parts[1:]:
            try:
                w = int(tok)
            except ValueError:
                raise ColoringParseError(f"line {lineno}: {tok!r} is not an integer") from None
            if not 0 <= w < 1 << n:
                raise ColoringParseError(f"line {lineno}: word {w} out of range for n={n}")
            if w in seen:
                raise ColoringParseError(f"line {lineno}: word {w} listed twice in one class")
            seen.add(w)
            words.append(w)
        classes.append(words)
    return coloring_from_classes(Params(n, k, num_classes), classes)
