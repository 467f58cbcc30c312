"""Reading and writing of every text file: TSV, JSONL and key=value.

Files are UTF-8. On input, ``\\n``, ``\\r\\n`` and a lone ``\\r`` end a
line, a byte-order mark that opens a file is dropped, and each reader
decodes its own lines, so a bad byte is an error of its line. An output
file is replaced whole, with LF line ends, or left as it was. Lines whose
first character is ``#`` are comments, and lines of whitespace are blank
(in TSV, only those without a tab); both are skipped on input. An integer
field is an optional sign and ASCII digits; a decimal field is what
``float`` reads from ASCII text without ``_`` or surrounding whitespace.
"""

from __future__ import annotations

import os
import shutil
from array import array
from itertools import accumulate, chain
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator

_BLOCK = 1 << 20  # bytes read at a time
_BOM = b"\xef\xbb\xbf"


def skipped(line: str) -> bool:
    """Whether a line is a comment or blank (no tab, only whitespace)."""
    return line.startswith("#") or ("\t" not in line and not line.strip())


def integer(text: str) -> int:
    """``int(text)`` for an optional sign and ASCII digits, else int()'s
    ``ValueError``: no spaces, ``_`` separators or non-ASCII digits."""
    if text.isascii() and text.isdigit():  # the common case, unsigned
        return int(text)
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


def _blocks(fh: BinaryIO, start: int, end: int | None) -> Iterator[bytes]:
    """The consecutive blocks of bytes ``[start, end)`` of a binary file
    (to its end if ``end`` is None), each ending at a line end or at
    ``end``; the file's position is just after each block as it is
    yielded. A UTF-8 byte-order mark at byte 0 is dropped. ``start`` and
    ``end`` lie just after a line end or at an end of the file."""
    if end is None:
        end = os.fstat(fh.fileno()).st_size
    fh.seek(start)
    if start == 0 and fh.read(len(_BOM)) != _BOM:
        fh.seek(0)
    offset = fh.tell()
    while offset < end:
        # a block ends at a line end, so no \r\n is split between two
        block = fh.read(min(_BLOCK, end - offset))
        if not block.endswith(b"\n"):
            block += read_line_end(fh, end - offset - len(block))
        if not block:
            break
        offset += len(block)
        yield block


def lines(path: str | Path, start: int = 0, end: int | None = None
          ) -> Iterator[bytes]:
    """The undecoded lines of bytes ``[start, end)`` of a file (to its end
    if ``end`` is None), without their ends: ``\\n``, ``\\r\\n`` or a lone
    ``\\r``. A UTF-8 byte-order mark at byte 0 is dropped. ``start`` and
    ``end`` lie just after a line end or at an end of the file."""
    with open(path, "rb") as fh:
        yield from chain.from_iterable(
            map(bytes.splitlines, _blocks(fh, start, end)))


def line_starts(fh: BinaryIO) -> array:
    """The byte offset in a binary file of each line :func:`lines` yields
    from it, in order, from one pass over the file."""
    starts = array("q")
    for block in _blocks(fh, 0, None):
        parts = block.splitlines(keepends=True)
        starts.extend(accumulate(map(len, parts[:-1]),
                                 initial=fh.tell() - len(block)))
    return starts


def read_line_end(fh: BinaryIO, limit: int) -> bytes:
    """Read a binary file on from its position through the first line end
    (a ``\\n``, or a ``\\r`` with the ``\\n`` that may follow it), or
    through ``limit`` bytes if that comes first; at most ``_BLOCK`` bytes
    are read at a time, and the position is left just after the bytes
    returned. A ``\\n`` read first ends the ``\\r\\n`` its byte before
    may open."""
    pieces = []
    while limit > 0:
        piece = fh.readline(min(_BLOCK, limit))
        cr = piece.find(b"\r")
        if cr >= 0:
            end = cr + 1
            if end == len(piece) < limit:
                piece += fh.read(1)
            if piece[end:end + 1] == b"\n":
                end += 1
            fh.seek(end - len(piece), os.SEEK_CUR)
            pieces.append(piece[:end])
            break
        pieces.append(piece)
        limit -= len(piece)
        if not piece or piece.endswith(b"\n"):
            break
    return b"".join(pieces)


def _numbered(path: str | Path) -> Iterator[tuple[str, str]]:
    """Yield (``NAME:LINE``, text) for every line of a file, NAME its name
    and LINE its 1-based number; a line that is not UTF-8 raises
    ``ValueError("NAME:LINE: <the codec's message>")``."""
    name = Path(path).name
    for lineno, raw in enumerate(lines(path), start=1):
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ValueError(f"{name}:{lineno}: {exc}") from None
        yield f"{name}:{lineno}", text


def iter_rows(path: str | Path) -> Iterator[tuple[str, list[str]]]:
    """Yield (``NAME:LINE``, fields) for every line not :func:`skipped`,
    NAME the file's name and LINE its 1-based line number."""
    for where, line in _numbered(path):
        if not skipped(line):
            yield where, line.split("\t")


def iter_key_values(path: str | Path, error: type[Exception]
                    ) -> Iterator[tuple[str, str, str]]:
    """Yield (``NAME:LINE``, key, value) for every ``key=value`` line of a
    config file, both sides stripped; blank and comment lines are skipped.
    A missing file or a line without ``=`` raises ``error``."""
    path = Path(path)
    if not path.is_file():
        raise error(f"config file not found: {path}")
    for where, line in _numbered(path):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise error(f"{where}: expected key=value")
        yield where, key.strip(), value.strip()


def write_lines(path: str | Path, lines: Iterable[str]) -> Path:
    """Write ``lines`` to ``path`` as UTF-8, each ended by LF, through a
    temporary file beside it that then replaces it; return ``path``. On any
    error, one that making ``lines`` raises included, the temporary file is
    removed and ``path`` keeps its old bytes. The file gets the permissions
    ``open(path, "w")`` would give: its own if it exists, else 0o666 less
    the umask."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.urandom(4).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "w", encoding="utf-8", newline="\n") as fh:
            for line in lines:
                fh.write(line + "\n")
        if path.exists():
            shutil.copymode(path, tmp)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path


def write_rows(path: str | Path, header: list[str], rows: Iterable[Iterable[str]],
               preamble: list[str] | None = None) -> Path:
    """Write a TSV with a mandatory header row, and return its path.
    ``preamble`` lines are emitted as ``#`` comments above the header."""
    return write_lines(path, chain([f"# {line}" for line in preamble or []],
                                   ["\t".join(header)], map("\t".join, rows)))
