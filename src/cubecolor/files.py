"""Plain-text coloring files, and the line reader every text input uses.

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
    """Malformed text input (coloring file or solver model); the message
    names the offending line."""


def content_lines(text: str, comment: str = "") -> list[tuple[int, str]]:
    """(1-based line number, stripped line) for each non-blank line whose
    first character is not in `comment`."""
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and line[0] not in comment:
            out.append((lineno, line))
    return out


def parse_ints(tokens: list[str], lineno: int) -> list[int]:
    """The tokens as integers; a bad token's error names its line."""
    try:
        return [int(tok) for tok in tokens]
    except ValueError as exc:
        raise ColoringParseError(f"line {lineno}: {exc}") from None


def save_coloring(col: Coloring) -> str:
    lines = [f"n {col.params.n}", f"k {col.params.k}", f"classes {len(col.classes)}"]
    for c in col.classes:
        words = c.sorted_words()
        lines.append("class " + " ".join(map(str, words)) if words else "class")
    return "\n".join(lines) + "\n"


def _header_int(lines: list[tuple[int, str]], pos: int, key: str, lo: int, hi: int) -> int:
    if pos >= len(lines):
        raise ColoringParseError(f"unexpected end of file: missing '{key}' header line")
    lineno, line = lines[pos]
    parts = line.split()
    if len(parts) != 2 or parts[0] != key:
        raise ColoringParseError(f"line {lineno}: expected '{key} <int>', got {line!r}")
    (value,) = parse_ints(parts[1:], lineno)
    if not lo <= value <= hi:
        raise ColoringParseError(f"line {lineno}: {key} must be in {lo}..{hi}, got {value}")
    return value


def load_coloring(text: str) -> Coloring:
    lines = content_lines(text, "#")
    n = _header_int(lines, 0, "n", 1, MAX_DIMENSION)
    k = _header_int(lines, 1, "k", 0, n)
    num_classes = _header_int(lines, 2, "classes", 1, 1 << n)

    class_lines = lines[3:]
    found = len(class_lines)
    if found != num_classes:
        where = "unexpected end of file"
        if found > num_classes:  # name the first surplus line
            where = f"line {class_lines[num_classes][0]}"
        raise ColoringParseError(f"{where}: expected {num_classes} class lines, found {found}")
    classes: list[list[int]] = []
    for lineno, line in class_lines:
        keyword, *tokens = line.split()
        if keyword != "class":
            raise ColoringParseError(f"line {lineno}: expected 'class ...', got {line!r}")
        words = parse_ints(tokens, lineno)
        seen: set[int] = set()
        for w in words:
            if not 0 <= w < 1 << n:
                raise ColoringParseError(f"line {lineno}: word {w} out of range for n={n}")
            if w in seen:
                raise ColoringParseError(f"line {lineno}: word {w} listed twice in one class")
            seen.add(w)
        classes.append(words)
    return coloring_from_classes(Params(n, k, num_classes), classes)
