"""Small shared helpers for reading and writing TSV and key=value files.

All files are UTF-8 with LF line endings; a byte-order mark that opens a
file is ignored on input. Lines whose first character is ``#`` are
comments, and lines of whitespace are blank (in TSV, only those without
a tab); both are skipped on input. An integer field is an optional sign
and ASCII digits; a decimal field is what ``float`` reads from ASCII
text without ``_`` or surrounding whitespace.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Iterator


def skipped(line: str) -> bool:
    """Whether a line is a comment or blank (no tab, only whitespace)."""
    return line.startswith("#") or ("\t" not in line and not line.strip())


def integer(text: str) -> int:
    """``int(text)`` for an optional sign and ASCII digits, else int()'s
    ``ValueError``: no spaces, ``_`` separators or non-ASCII digits."""
    digits = text[1:] if text[:1] in ("+", "-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"invalid literal for int() with base 10: {text!r}")
    return int(text)


def number(text: str) -> float:
    """``float(text)`` for ASCII text without ``_`` or surrounding
    whitespace, else float()'s ``ValueError``; ``nan`` and ``inf`` pass."""
    if not text.isascii() or "_" in text or text != text.strip():
        raise ValueError(f"could not convert string to float: {text!r}")
    return float(text)


def iter_rows(path: str | Path) -> Iterator[tuple[str, list[str]]]:
    """Yield (``NAME:LINE``, fields) for every line not :func:`skipped`,
    NAME the file's name and LINE its 1-based line number."""
    name = Path(path).name
    with open(path, encoding="utf-8-sig") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n").rstrip("\r")
            if skipped(line):
                continue
            yield f"{name}:{lineno}", line.split("\t")


def iter_key_values(path: str | Path, error: type[Exception]
                    ) -> Iterator[tuple[str, str, str]]:
    """Yield (``NAME:LINE``, key, value) for every ``key=value`` line of a
    config file, both sides stripped; blank and comment lines are skipped.
    A missing file or a line without ``=`` raises ``error``."""
    path = Path(path)
    if not path.is_file():
        raise error(f"config file not found: {path}")
    with open(path, encoding="utf-8-sig") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise error(f"{path.name}:{lineno}: expected key=value")
            yield f"{path.name}:{lineno}", key.strip(), value.strip()


def write_rows(path: str | Path, header: list[str], rows: Iterable[Iterable[str]],
               preamble: list[str] | None = None) -> None:
    """Write a TSV with a mandatory header row. ``preamble`` lines are emitted
    as ``#`` comments above the header."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in preamble or []:
            fh.write(f"# {line}\n")
        fh.write("\t".join(header) + "\n")
        for row in rows:
            fh.write("\t".join(row) + "\n")

