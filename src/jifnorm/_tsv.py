"""Small shared helpers for TSV reading/writing.

All files are UTF-8 with LF line endings. Lines whose first character is
``#`` are comments and are skipped on input.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Iterator


def iter_rows(path: str | Path) -> Iterator[tuple[int, list[str]]]:
    """Yield (1-based line number, fields) for every non-comment, non-blank line."""
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n").rstrip("\r")
            if not line or line.startswith("#"):
                continue
            yield lineno, line.split("\t")


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

