"""Citation corpus loading, journal master records, merging, and validation.

A corpus is a census year's worth of citing documents, each carrying its
raw cited-reference strings. It is stored column by column: one entry per
document in each per-document column, and one int slot per reference into
a table of reference strings, each split once into venue and year tokens.
A file is read in byte ranges that start at line boundaries, each parsed
by its own process when more than one is asked for. Two on-disk formats
are supported:

* JSONL: one object per line with keys ``doc_id``, ``journal``, ``year``,
  ``type``, ``nref``, ``refs`` (array of strings).
* TSV: header row ``doc_id  journal  year  type  nref  refs`` with the
  references ``;``-joined in the last column.

The journal master is a headerless TSV with columns ``journal_id``,
``full_name``, ``abbrevs`` (``|``-joined), ``field``, ``merge_group``,
followed by any number of ``year=count`` pairs giving citable-item counts.
``#``-prefixed lines are comments and lines of whitespace are blank in all
formats (in TSV a line with a tab is a row), and a UTF-8 byte-order mark
that opens a corpus file is ignored. TSV integers are ASCII digits.
"""

from __future__ import annotations

import copy
import json
from array import array
from collections import defaultdict
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from functools import cached_property
from itertools import islice, repeat
from pathlib import Path
from typing import Optional

import numpy as np

from ._fork import run_forked
from ._tsv import integer, iter_rows, skipped
from .refmatch import (STATUS_FUTURE, STATUS_INVALID, STATUS_PRE1900,
                       _split_reference, match_corpus, normalize_venue)

DOC_TYPES = frozenset({"article", "review", "letter", "other"})

CORPUS_TSV_HEADER = ["doc_id", "journal", "year", "type", "nref", "refs"]

NREF_MAX = 2**63 - 1  # declared reference counts are stored as int64

_MIN_RANGE_BYTES = 4 << 20  # a corpus file is read in ranges of at least this


class CorpusFormatError(Exception):
    """Fatal input problem: missing file, bad header, unusable table."""


class JournalTableError(Exception):
    """Fatal journal-master problem, e.g. ambiguous abbreviations."""


@dataclass
class Document:
    """A citing document.

    ``ref_count`` is the declared total number of references. It may exceed
    ``len(refs)`` when the input carries a truncated reference list; the
    declared value is what the whole-list fractionation mode divides by.
    """

    doc_id: str
    journal_id: str
    pub_year: int
    doc_type: str
    refs: list[str]
    ref_count: int


def id_table() -> defaultdict[str, int]:
    """A dict that gives each new key the next id, 0, 1, 2, ..., on first
    lookup; ``list(table)`` lists the keys in id order."""
    table: defaultdict[str, int] = defaultdict()
    table.default_factory = table.__len__
    return table


def _string_columns(strings: list[str]) -> dict:
    """Slot columns for a list of reference strings: the strings joined and
    their lengths, and the codes of each one's venue token and year token,
    from one ``_split_reference`` per string."""
    venue_ids, year_ids = id_table(), id_table()
    slot_venue, slot_year = array("i"), array("i")
    for raw in strings:
        venue, year = _split_reference(raw)
        slot_venue.append(venue_ids[venue])
        slot_year.append(year_ids[year])
    return dict(slot_text="".join(strings),
                slot_lens=array("i", map(len, strings)),
                slot_venue=slot_venue, slot_year=slot_year,
                venue_tokens=list(venue_ids), year_tokens=list(year_ids))


@dataclass
class _Chunk:
    """The columns of one part of a corpus: one byte range of a file, the
    documents built in memory, or a whole corpus once the parts are joined.

    Per document: ``doc_ids``, ``doc_journals``, ``pub_years``,
    ``doc_types``, ``ref_counts`` and ``doc_lines`` (its line number, or
    its position in memory), plus ``ref_offsets``, one longer. Per
    reference: ``ref_slots``, an index into the part's string slots. Per
    slot: its text (``slot_text`` cut at ``slot_lens``) and its
    ``slot_venue`` and ``slot_year`` codes into ``venue_tokens`` and
    ``year_tokens``. Messages are ``(line, text)`` pairs in line order.
    """

    doc_ids: list[str]
    doc_journals: list[str]
    pub_years: Sequence[int]
    doc_types: list[str]
    ref_counts: Sequence[int]
    ref_offsets: Sequence[int]
    ref_slots: Sequence[int]
    slot_text: str
    slot_lens: Sequence[int]
    slot_venue: Sequence[int]
    slot_year: Sequence[int]
    venue_tokens: list[str]
    year_tokens: list[str]
    doc_lines: Sequence[int]
    errors: list[tuple[int, str]] = field(default_factory=list)
    warnings: list[tuple[int, str]] = field(default_factory=list)
    n_lines: int = 0


def _join(chunks: list[_Chunk]) -> _Chunk:
    """One part from parts in file order: line numbers shifted by the lines
    of the parts before, slots and references concatenated, and the venue
    and year token tables merged and the slot codes renumbered into them."""
    venue_ids, year_ids = id_table(), id_table()
    doc_ids, doc_journals, doc_types = [], [], []
    errors, warnings = [], []
    arrays: dict[str, list[np.ndarray]] = defaultdict(list)
    line_base = ref_base = slot_base = 0
    for c in chunks:
        doc_ids += c.doc_ids
        doc_journals += c.doc_journals
        doc_types += c.doc_types
        errors += [(line + line_base, text) for line, text in c.errors]
        warnings += [(line + line_base, text) for line, text in c.warnings]
        arrays["pub_years"].append(np.asarray(c.pub_years, dtype=np.int64))
        arrays["ref_counts"].append(np.asarray(c.ref_counts, dtype=np.int64))
        arrays["doc_lines"].append(
            np.asarray(c.doc_lines, dtype=np.int64) + line_base)
        arrays["ref_offsets"].append(
            np.asarray(c.ref_offsets, dtype=np.int64)[1:] + ref_base)
        arrays["ref_slots"].append(
            np.asarray(c.ref_slots, dtype=np.int32) + slot_base)
        arrays["slot_lens"].append(np.asarray(c.slot_lens, dtype=np.int32))
        for tokens, ids, codes, key in (
                (c.venue_tokens, venue_ids, c.slot_venue, "slot_venue"),
                (c.year_tokens, year_ids, c.slot_year, "slot_year")):
            renumber = np.fromiter(map(ids.__getitem__, tokens),
                                   dtype=np.int32, count=len(tokens))
            arrays[key].append(renumber[np.asarray(codes, dtype=np.intp)])
        line_base += c.n_lines
        ref_base += len(c.ref_slots)
        slot_base += len(c.slot_lens)
    arrays["ref_offsets"].insert(0, np.zeros(1, np.int64))
    joined = {key: np.concatenate(parts) for key, parts in arrays.items()}
    return _Chunk(doc_ids=doc_ids, doc_journals=doc_journals,
                  doc_types=doc_types,
                  slot_text="".join(c.slot_text for c in chunks),
                  venue_tokens=list(venue_ids), year_tokens=list(year_ids),
                  errors=errors, warnings=warnings, n_lines=line_base,
                  **joined)


class Corpus:
    """A census year's citing documents, stored column by column.

    Per document, in input order: ``doc_ids``, ``doc_journals`` (the citing
    journal), ``pub_years``, ``doc_types``, ``ref_counts`` (declared NRef)
    and ``ref_offsets``, one longer than the others: the references of
    document ``i`` are rows ``ref_offsets[i]:ref_offsets[i + 1]`` of the
    per-reference columns.

    Each reference is an index into string slots (``ref_slots``); every
    slot holds one reference string, split once into a venue token and a
    year token whose codes are ``slot_venue`` and ``slot_year``, indices into
    the distinct ``venue_tokens`` and ``year_tokens``. A string seen in
    several byte ranges of a corpus file has a slot per range, and a slot
    may be used by no reference.

    ``Corpus(census_year, documents)`` reads ``Document`` objects as
    :func:`load_corpus` reads a file's lines: a malformed document is
    skipped and reported in ``load_errors`` as ``documents:N: text``, N
    its 1-based position, a document type is lower-cased and an unknown
    one becomes ``other`` with a warning, and a repeated ``doc_id`` is
    rejected. ``documents`` is a read-only sequence that builds each
    ``Document`` on access. Two corpora are equal when their census years
    and their documents are, whatever slots their strings got.
    """

    def __init__(self, census_year: int, documents: Iterable[Document]):
        self._store(census_year, "documents",
                    [_records(documents, _document_fields, census_year, 1)])

    @classmethod
    def from_columns(cls, census_year: int, *, slot_strings: list[str],
                     **columns) -> "Corpus":
        """A corpus over given per-document columns and ``ref_slots``,
        named as the attributes are, whose slot ``i`` holds
        ``slot_strings[i]``. The columns are not checked record by record,
        but a declared NRef below its reference count is a ValueError."""
        if (np.asarray(columns["ref_counts"])
                < np.diff(columns["ref_offsets"])).any():
            raise ValueError("ref_counts below a document's reference count")
        n_docs = len(columns["doc_ids"])
        chunk = _Chunk(doc_lines=np.arange(1, n_docs + 1), **columns,
                       **_string_columns(slot_strings))
        corpus = cls.__new__(cls)
        corpus._store(census_year, "columns", [chunk])
        return corpus

    def _store(self, census_year: int, name: str, parts: list[_Chunk]
               ) -> None:
        """Keep the parts joined, with repeated ``doc_id``s rejected and
        each message written ``NAME:N: text``."""
        joined = _join(parts)
        _reject_duplicates(joined)
        self.census_year = census_year
        self.load_errors = [f"{name}:{n}: {text}" for n, text in joined.errors]
        self.load_warnings = [f"{name}:{n}: {text}"
                              for n, text in joined.warnings]
        self.doc_ids = joined.doc_ids
        self.doc_journals = joined.doc_journals
        self.pub_years = joined.pub_years
        self.doc_types = joined.doc_types
        self.ref_counts = joined.ref_counts
        self.ref_offsets = joined.ref_offsets
        self.ref_slots = joined.ref_slots
        self.slot_venue = joined.slot_venue
        self.slot_year = joined.slot_year
        self.venue_tokens = joined.venue_tokens
        self.year_tokens = joined.year_tokens
        self._slot_text = joined.slot_text
        self._slot_lens = joined.slot_lens

    @cached_property
    def _slot_strings(self) -> list[str]:
        ends = np.cumsum(self._slot_lens, dtype=np.int64).tolist()
        text = self._slot_text
        return [text[a:b] for a, b in zip([0] + ends, ends)]

    @property
    def documents(self) -> "_DocumentView":
        return _DocumentView(self)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Corpus):
            return NotImplemented
        return (self.census_year == other.census_year
                and self.documents == other.documents)


class _DocumentView(Sequence):
    """Read-only sequence of a corpus's documents, built on access."""

    def __init__(self, corpus: Corpus):
        self._corpus = corpus

    def __len__(self) -> int:
        return len(self._corpus.doc_ids)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(len(self))[index]]
        i = range(len(self))[index]
        c = self._corpus
        strings = c._slot_strings
        slots = c.ref_slots[c.ref_offsets[i]:c.ref_offsets[i + 1]].tolist()
        return Document(doc_id=c.doc_ids[i], journal_id=c.doc_journals[i],
                        pub_year=int(c.pub_years[i]), doc_type=c.doc_types[i],
                        refs=[strings[k] for k in slots],
                        ref_count=int(c.ref_counts[i]))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (_DocumentView, list)):
            return NotImplemented
        return list(self) == list(other)


@dataclass
class Journal:
    journal_id: str
    full_name: str
    abbreviations: list[str]
    field_code: str
    items_by_year: dict[int, int]
    merge_group: Optional[str] = None


class JournalTable:
    """Journal master records with a unique normalized-abbreviation index.

    Construction fails if two journals share a normalized abbreviation, so
    venue lookup never faces ambiguity.
    """

    def __init__(self, journals: list[Journal]):
        self.journals = sorted(journals, key=lambda j: j.journal_id)
        self.by_id: dict[str, Journal] = {}
        for j in self.journals:
            if j.journal_id in self.by_id:
                raise JournalTableError(f"duplicate journal_id {j.journal_id!r}")
            if any(n < 0 for n in j.items_by_year.values()):
                raise JournalTableError(f"negative item count for {j.journal_id!r}")
            self.by_id[j.journal_id] = j
        self.abbrev_index: dict[str, str] = {}
        for j in self.journals:
            for abbrev in j.abbreviations:
                key = normalize_venue(abbrev)
                if not key:
                    continue
                owner = self.abbrev_index.get(key)
                if owner is not None and owner != j.journal_id:
                    raise JournalTableError(
                        f"abbreviation {key!r} is ambiguous between "
                        f"{owner!r} and {j.journal_id!r}")
                self.abbrev_index[key] = j.journal_id

    @property
    def journal_ids(self) -> list[str]:
        return [j.journal_id for j in self.journals]

    def __len__(self) -> int:
        return len(self.journals)

    def __iter__(self):
        return iter(self.journals)


@dataclass
class ValidationReport:
    """Corpus-level reference accounting.

    References with an unparseable year make up ``invalid_year_refs``;
    the remaining (year-parseable) references are split by venue lookup
    into ``matched_refs`` and ``unmatched_venue_refs``, so those three
    counts partition ``total_refs``. Pre-1900 and post-census years are
    format-valid and reported separately; they never fall into a counting
    window.
    """

    total_docs: int
    total_refs: int
    matched_refs: int
    unmatched_venue_refs: int
    invalid_year_refs: int
    pre1900_refs: int
    future_year_refs: int
    unknown_journal_docs: int = 0

    def fraction(self, count: int) -> float:
        return count / self.total_refs if self.total_refs else 0.0

    def to_rows(self) -> list[list[str]]:
        rows = [["total_docs", str(self.total_docs), ""],
                ["total_refs", str(self.total_refs), ""]]
        for name in ("matched_refs", "unmatched_venue_refs", "invalid_year_refs",
                     "pre1900_refs", "future_year_refs"):
            count = getattr(self, name)
            rows.append([name, str(count), f"{self.fraction(count):.6f}"])
        rows.append(["unknown_journal_docs", str(self.unknown_journal_docs), ""])
        return rows


def _check_record(doc_id, journal, year, doc_type, nref, refs,
                  census_year: int) -> str:
    """Raise ValueError for a malformed record; return its document type,
    stripped and lower-cased but not yet checked against ``DOC_TYPES``."""
    if not isinstance(doc_id, str):
        raise ValueError(f"doc_id {doc_id!r} is not a string")
    if not isinstance(journal, str):
        raise ValueError(f"journal {journal!r} is not a string")
    # a bool or a float is not a count
    if type(year) is not int:
        raise ValueError(f"year {year!r} is not an integer")
    if type(nref) is not int:
        raise ValueError(f"nref {nref!r} is not an integer")
    if not isinstance(refs, list):
        raise ValueError(f"refs {refs!r} is not a list")
    if not doc_id:
        raise ValueError("empty doc_id")
    if not (1900 <= year <= census_year):
        raise ValueError(f"pub_year {year} outside [1900, {census_year}]")
    if nref < 0:
        raise ValueError(f"negative nref {nref}")
    if nref > NREF_MAX:
        raise ValueError(f"nref {nref} above {NREF_MAX}")
    if "" in refs or not all(map(isinstance, refs, repeat(str))):
        for r in refs:  # report the first bad reference
            if not isinstance(r, str):
                raise ValueError(f"reference {r!r} is not a string")
            if not r:
                raise ValueError("empty reference string")
    if nref < len(refs):
        raise ValueError(f"nref {nref} smaller than reference list ({len(refs)})")
    if not isinstance(doc_type, str):
        raise ValueError(f"type {doc_type!r} is not a string")
    return doc_type.strip().lower()


def _jsonl_fields(line: str) -> Optional[tuple]:
    """The six fields of the record on a JSONL line, unchecked; None for a
    blank or comment line."""
    line = line.strip()
    if not line or line.startswith("#"):
        return None
    obj = json.loads(line)
    return (obj["doc_id"], obj["journal"], obj["year"],
            obj.get("type", "other"), obj["nref"], obj.get("refs", []))


def _tsv_fields(line: str) -> Optional[tuple]:
    """The six fields of the record on a TSV line, unchecked but for its
    width and integers; None for a blank or comment line."""
    if skipped(line):
        return None
    fields = line.split("\t")
    if len(fields) != 6:
        raise ValueError(f"expected 6 columns, got {len(fields)}")
    doc_id, journal, year, doc_type, nref, refs_joined = fields
    refs = [r for r in refs_joined.split(";") if r] if refs_joined else []
    return doc_id, journal, integer(year), doc_type, integer(nref), refs


def _document_fields(d: Document) -> tuple:
    """The six fields of a ``Document``, unchecked."""
    return d.doc_id, d.journal_id, d.pub_year, d.doc_type, d.ref_count, d.refs


def _records(items: Iterable, fields: Callable[..., Optional[tuple]],
             census_year: int, first: int) -> _Chunk:
    """Read, check and column the records of ``items``, numbered from
    ``first``: ``fields`` gives an item's six fields, or None for an item
    that holds no record. A malformed record is skipped with an error, and
    a type outside ``DOC_TYPES`` becomes ``other`` with a warning, each
    at the item's number; the chunk's ``n_lines`` is the last number.
    Each distinct reference string gets a slot, in first-seen order."""
    doc_ids: list[str] = []
    doc_journals: list[str] = []
    doc_types: list[str] = []
    pub_years, ref_counts, doc_lines = array("q"), array("q"), array("q")
    ref_offsets = array("q", [0])
    ref_slots: list[int] = []
    slot_ids = id_table()
    errors: list[tuple[int, str]] = []
    warnings: list[tuple[int, str]] = []
    n = first - 1
    for n, item in enumerate(items, start=first):
        try:
            record = fields(item)
            if record is None:
                continue
            doc_type = _check_record(*record, census_year)
        # a JSONL line nested past the recursion limit is a record error too
        except (KeyError, TypeError, ValueError, RecursionError) as exc:
            errors.append((n, str(exc)))
            continue
        if doc_type not in DOC_TYPES:
            warnings.append((n, f"unknown doc_type {doc_type!r} "
                                "mapped to 'other'"))
            doc_type = "other"
        doc_id, journal, year, _, nref, refs = record
        doc_ids.append(doc_id)
        doc_journals.append(journal)
        doc_types.append(doc_type)
        pub_years.append(year)
        ref_counts.append(nref)
        doc_lines.append(n)
        ref_slots += map(slot_ids.__getitem__, refs)
        ref_offsets.append(len(ref_slots))
    return _Chunk(doc_ids=doc_ids, doc_journals=doc_journals,
                  pub_years=pub_years, doc_types=doc_types,
                  ref_counts=ref_counts, ref_offsets=ref_offsets,
                  ref_slots=np.array(ref_slots, dtype=np.int32),
                  doc_lines=doc_lines, **_string_columns(list(slot_ids)),
                  errors=errors, warnings=warnings, n_lines=n)


def _decoded_lines(raw: bytes, file_start: bool = False) -> Sequence[str]:
    """The text lines of one ``\\n``-ended run of UTF-8 bytes, without their
    ends; like text mode's universal newlines, ``\\r\\n`` and a lone ``\\r``
    also end a line. At ``file_start`` a byte-order mark is dropped after
    decoding, so a codec error's position still counts it."""
    line = raw.decode("utf-8")
    if file_start:
        line = line.removeprefix("\ufeff")
    if "\r" in line:
        line = line.replace("\r\n", "\n").replace("\r", "\n")
        return line.removesuffix("\n").split("\n")
    return (line.removesuffix("\n"),)


def _range_lines(path: Path, start: int, end: int) -> Iterator[str]:
    """The text lines of bytes ``[start, end)`` of a file; ``start`` and
    ``end`` lie just after a ``\\n`` or at an end of the file."""
    with open(path, "rb") as fh:
        fh.seek(start)
        left = end - start
        file_start = start == 0
        while left > 0:
            raw = fh.readline(left)
            if not raw:
                break
            left -= len(raw)
            yield from _decoded_lines(raw, file_start)
            file_start = False


def _tsv_header(path: Path) -> tuple[int, int]:
    """Check a TSV corpus's header, its first line that is neither blank
    nor a comment; return its line number and the byte offset just after
    the ``\\n``-ended run of bytes that holds it."""
    with open(path, "rb") as fh:
        lineno = 0
        for raw in fh:
            for line in _decoded_lines(raw, lineno == 0):
                lineno += 1
                if skipped(line):
                    continue
                header = line.split("\t")
                if header != CORPUS_TSV_HEADER:
                    raise CorpusFormatError(
                        f"{path}: malformed TSV header {header!r}, "
                        f"expected {CORPUS_TSV_HEADER!r}")
                return lineno, fh.tell()
    raise CorpusFormatError(f"{path}: empty TSV corpus")


def _byte_ranges(path: Path, first: int, n: int) -> list[tuple[int, int]]:
    """At most ``n`` consecutive byte ranges that cover the file, each one
    after the first starting just after a ``\\n`` at or beyond ``first``."""
    size = path.stat().st_size
    cuts = [0]
    with open(path, "rb") as fh:
        for i in range(1, n):
            fh.seek(max(first + (size - first) * i // n, cuts[-1]))
            fh.readline()
            if fh.tell() >= size:
                break
            cuts.append(fh.tell())
    cuts.append(size)
    return list(zip(cuts, cuts[1:]))


def _parse_range(path: Path, format: str, start: int, end: int, skip: int,
                 census_year: int) -> _Chunk:
    """Read, check and column the records on the lines of bytes
    ``[start, end)``, whose first ``skip`` lines are not records (a TSV
    header). Line numbers count from the range's first line."""
    fields = _jsonl_fields if format == "jsonl" else _tsv_fields
    lines = islice(_range_lines(path, start, end), skip, None)
    return _records(lines, fields, census_year, skip + 1)


def _reject_duplicates(joined: _Chunk) -> None:
    """Reject every record whose ``doc_id`` an earlier record holds: record
    a load error at its number, and drop its columns, its references and
    its warning."""
    ids = joined.doc_ids
    if len(set(ids)) == len(ids):
        return
    seen: set[str] = set()
    keep = np.ones(len(ids), dtype=bool)
    for i, doc_id in enumerate(ids):
        if doc_id in seen:
            keep[i] = False
        seen.add(doc_id)
    rejected = np.flatnonzero(~keep)
    lines = joined.doc_lines[rejected].tolist()
    joined.errors = sorted(
        joined.errors + [(line, f"duplicate doc_id {ids[i]!r}")
                         for line, i in zip(lines, rejected.tolist())])
    dropped = set(lines)
    joined.warnings = [w for w in joined.warnings if w[0] not in dropped]
    counts = np.diff(joined.ref_offsets)
    joined.ref_slots = joined.ref_slots[np.repeat(keep, counts)]
    joined.ref_offsets = np.concatenate(
        [np.zeros(1, np.int64), np.cumsum(counts[keep])])
    for name in ("doc_ids", "doc_journals", "doc_types"):
        column = getattr(joined, name)
        setattr(joined, name, [v for v, k in zip(column, keep.tolist()) if k])
    for name in ("pub_years", "ref_counts", "doc_lines"):
        setattr(joined, name, getattr(joined, name)[keep])


def load_corpus(path: str | Path, format: str = "auto",
                census_year: int = 0, threads: int = 1) -> Corpus:
    """Load a corpus file; malformed records are skipped and recorded in
    ``Corpus.load_errors``, a malformed TSV header is fatal.

    The file is read as ``min(threads, size // 4 MiB)`` byte ranges (at
    least one), each by its own process; the corpus, its messages and
    their order do not depend on how many.
    """
    path = Path(path)
    if not path.is_file():
        raise CorpusFormatError(f"corpus file not found: {path}")
    if format == "auto":
        format = "tsv" if path.suffix.lower() == ".tsv" else "jsonl"
    if format not in ("jsonl", "tsv"):
        raise CorpusFormatError(f"unknown corpus format {format!r}")
    if census_year < 1900:
        raise CorpusFormatError(f"census_year {census_year} must be >= 1900")
    if threads < 1:
        raise ValueError(f"threads {threads} must be >= 1")

    skip, first = _tsv_header(path) if format == "tsv" else (0, 0)
    n = max(1, min(threads, path.stat().st_size // _MIN_RANGE_BYTES))
    jobs = [(path, format, start, end, skip if i == 0 else 0, census_year)
            for i, (start, end) in enumerate(_byte_ranges(path, first, n))]
    parts = run_forked(_parse_range, jobs, f"a process reading {path.name}")
    corpus = Corpus.__new__(Corpus)
    corpus._store(census_year, path.name, parts)
    return corpus


def save_corpus(corpus: Corpus, path: str | Path, format: str = "jsonl") -> None:
    path = Path(path)
    if format == "jsonl":
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            for doc in corpus.documents:
                obj = {"doc_id": doc.doc_id, "journal": doc.journal_id,
                       "year": doc.pub_year, "type": doc.doc_type,
                       "nref": doc.ref_count, "refs": doc.refs}
                fh.write(json.dumps(obj, ensure_ascii=False) + "\n")
    elif format == "tsv":
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\t".join(CORPUS_TSV_HEADER) + "\n")
            for doc in corpus.documents:
                for ref in doc.refs:
                    if ";" in ref or "\t" in ref:
                        raise CorpusFormatError(
                            f"reference {ref!r} cannot be stored in TSV; "
                            "use the JSONL format")
                refs = ";".join(doc.refs)
                fh.write("\t".join([doc.doc_id, doc.journal_id, str(doc.pub_year),
                                    doc.doc_type, str(doc.ref_count), refs]) + "\n")
    else:
        raise CorpusFormatError(f"unknown corpus format {format!r}")


def load_journals(path: str | Path) -> JournalTable:
    """Load the journal master TSV. Ambiguous abbreviations are fatal."""
    path = Path(path)
    if not path.is_file():
        raise JournalTableError(f"journal file not found: {path}")
    journals: list[Journal] = []
    for lineno, fields in iter_rows(path):
        if fields[0] == "journal_id":  # tolerate a literal header row
            continue
        if len(fields) < 5:
            raise JournalTableError(
                f"{path.name}:{lineno}: expected at least 5 columns, got {len(fields)}")
        journal_id, full_name, abbrevs, field_code, merge_group = fields[:5]
        if not journal_id:
            raise JournalTableError(f"{path.name}:{lineno}: empty journal_id")
        items: dict[int, int] = {}
        for pair in fields[5:]:
            if not pair:
                continue
            year_s, _, count_s = pair.partition("=")
            try:
                year, count = integer(year_s), integer(count_s)
            except ValueError:
                raise JournalTableError(
                    f"{path.name}:{lineno}: bad year=count pair {pair!r}") from None
            if count < 0:
                raise JournalTableError(
                    f"{path.name}:{lineno}: negative item count in {pair!r}")
            items[year] = items.get(year, 0) + count
        journals.append(Journal(
            journal_id=journal_id, full_name=full_name,
            abbreviations=[a for a in abbrevs.split("|") if a],
            field_code=field_code, items_by_year=items,
            merge_group=merge_group or None))
    return JournalTable(journals)


def save_journals(table: JournalTable, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("# journal_id\tfull_name\tabbrevs\tfield\tmerge_group\tyear=count...\n")
        for j in table.journals:
            pairs = [f"{y}={c}" for y, c in sorted(j.items_by_year.items())]
            fh.write("\t".join([j.journal_id, j.full_name,
                                "|".join(j.abbreviations), j.field_code,
                                j.merge_group or ""] + pairs) + "\n")


def merge_journal_parts(corpus: Corpus, journals: JournalTable
                        ) -> tuple[Corpus, JournalTable]:
    """Merge journals sharing a ``merge_group`` into one record.

    The lexicographically smallest journal_id in a group becomes the
    canonical id; item counts are summed, abbreviation lists are unioned,
    and citing documents of all parts are reassigned. A group whose parts
    carry different field codes is rejected: the merged journal's field
    would be ambiguous.
    """
    groups: dict[str, list[Journal]] = {}
    for j in journals:
        if j.merge_group:
            groups.setdefault(j.merge_group, []).append(j)
    if not groups:
        return corpus, journals

    remap: dict[str, str] = {}
    merged: list[Journal] = []
    merged_ids: set[str] = set()
    for group_id, parts in groups.items():
        fields = {p.field_code for p in parts}
        if len(fields) > 1:
            raise JournalTableError(
                f"merge group {group_id!r} spans field codes {sorted(fields)}")
        parts = sorted(parts, key=lambda p: p.journal_id)
        canonical = parts[0]
        items: dict[int, int] = {}
        abbrevs: list[str] = []
        for p in parts:
            merged_ids.add(p.journal_id)
            remap[p.journal_id] = canonical.journal_id
            for y, c in p.items_by_year.items():
                items[y] = items.get(y, 0) + c
            for a in p.abbreviations:
                if a not in abbrevs:
                    abbrevs.append(a)
        merged.append(Journal(journal_id=canonical.journal_id,
                              full_name=canonical.full_name,
                              abbreviations=sorted(abbrevs),
                              field_code=canonical.field_code,
                              items_by_year=items, merge_group=None))

    keep = [j for j in journals if j.journal_id not in merged_ids]
    new_table = JournalTable(keep + merged)

    new_corpus = copy.copy(corpus)  # shares every column but the journal
    new_corpus.doc_journals = [remap.get(j, j) for j in corpus.doc_journals]
    new_corpus.load_errors = list(corpus.load_errors)
    new_corpus.load_warnings = list(corpus.load_warnings)
    return new_corpus, new_table


def validate_corpus(corpus: Corpus, journals: JournalTable) -> ValidationReport:
    """Tally reference parsing/matching outcomes over the whole corpus.

    ``matched + unmatched + invalid`` partitions ``total_refs``; fractions
    are computed against ``total_refs``.
    """
    ref_table = match_corpus(corpus, journals)
    status = ref_table.status
    total_refs = int(status.size)
    invalid = int((status == STATUS_INVALID).sum())
    parseable = status != STATUS_INVALID
    matched = int((parseable & (ref_table.journal_index >= 0)).sum())
    unmatched = int((parseable & (ref_table.journal_index < 0)).sum())
    pre1900 = int((status == STATUS_PRE1900).sum())
    future = int((status == STATUS_FUTURE).sum())
    unknown_docs = sum(j not in journals.by_id for j in corpus.doc_journals)

    return ValidationReport(
        total_docs=len(corpus.doc_ids), total_refs=total_refs,
        matched_refs=matched, unmatched_venue_refs=unmatched,
        invalid_year_refs=invalid, pre1900_refs=pre1900,
        future_year_refs=future, unknown_journal_docs=unknown_docs)
