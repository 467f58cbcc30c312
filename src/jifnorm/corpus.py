"""Citation corpus loading, journal master records, merging, and validation.

A corpus is a census year's worth of citing documents, each carrying its
raw cited-reference strings. It is stored column by column: one entry per
document in each per-document column, and one int slot per reference whose
string was split once into a venue token and a year token, kept as codes
into the distinct tokens. A file is read in byte ranges that start at line
boundaries, each parsed by its own process when more than one is asked
for. What a range sends back holds no reference text, so neither does a
corpus loaded from a file: ``Corpus.documents`` reads a document's
references again from its line of the file, and raises
``CorpusFormatError`` if the file's size or modification time is not what
it was at load. A corpus built in memory keeps its strings.

Two on-disk formats are supported, told apart by a file's first line that
is neither blank nor a comment: TSV if it holds a tab and does not begin
with ``{``, else JSONL.

* JSONL: one object per line with keys ``doc_id``, ``journal``, ``year``,
  ``type``, ``nref``, ``refs`` (array of strings).
* TSV: header row ``doc_id  journal  year  type  nref  refs`` before the
  records, which hold the references ``;``-joined in the last column; a
  line equal to the header is not a record.

The journal master is a headerless TSV with columns ``journal_id``,
``full_name``, ``abbrevs`` (``|``-joined), ``field``, ``merge_group``,
followed by any number of ``year=count`` pairs giving citable-item counts.
``#``-prefixed lines are comments and lines of whitespace are blank in all
formats (in TSV a line with a tab is a row). Files are read and written by
``_tsv``, whose line rules hold: a corpus line that is not UTF-8 is a
record error at its line. TSV integers are ASCII digits.
"""

from __future__ import annotations

import copy
import json
import os
from array import array
from collections import defaultdict
from collections.abc import Callable, Iterable, Sequence
from contextlib import closing
from dataclasses import dataclass, field, replace
from itertools import chain, repeat
from pathlib import Path
from typing import Optional

import numpy as np

from ._fork import run_forked
from ._tsv import (integer, iter_rows, line_starts, lines, read_line_end,
                   skipped, write_lines)
from .refmatch import (STATUS_FUTURE, STATUS_INVALID, STATUS_PRE1900,
                       _split_references, match_corpus, normalize_venue)

DOC_TYPES = frozenset({"article", "review", "letter", "other"})

CORPUS_TSV_HEADER = ["doc_id", "journal", "year", "type", "nref", "refs"]
_HEADER_LINE = "\t".join(CORPUS_TSV_HEADER)

NREF_MAX = 2**63 - 1  # declared reference counts are stored as int64
YEAR_MAX = 9999  # a cited year is read from four digits

_MIN_RANGE_BYTES = 4 << 20  # a corpus file is read in ranges of at least this
# A part of a corpus whose first _INTERN_SAMPLE references (counted to the
# end of a document) are more than 7/8 new strings stops interning them: its
# strings name single cited papers, so a dictionary would save no split.
_INTERN_SAMPLE = 1 << 16
# Reference strings split at a time. A batch's tokens die together but for
# the first of each distinct one, which a larger batch leaves scattered
# over more of the small-object heap (1 << 14 kept 4 MiB more than this).
_SPLIT_BATCH = 1 << 10


class CorpusFormatError(Exception):
    """Fatal input problem: missing file, bad header, unusable table."""


class JournalTableError(Exception):
    """Fatal journal-master problem, e.g. ambiguous abbreviations."""


def _check_census_year(census_year: int) -> None:
    if not 1900 <= census_year <= YEAR_MAX:
        raise CorpusFormatError(
            f"census_year {census_year} outside [1900, {YEAR_MAX}]")


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


class _StringColumns:
    """Slot columns built from reference strings given in slot order, a
    list at a time: the codes of each string's venue token and year token
    into the distinct ``venue_tokens`` and ``year_tokens``. The strings are
    split by one ``_split_references`` per ``_SPLIT_BATCH`` of them, and
    each distinct year token is stripped once, at the end. The strings are
    not kept, unless ``keep``: then ``strings`` lists them all."""

    def __init__(self, keep: bool = False):
        self.venue_ids, self.year_ids = id_table(), id_table()
        self.slot_venue, self.slot_year = array("i"), array("i")
        self.strings: Optional[list[str]] = [] if keep else None

    def add(self, strings: list[str]) -> None:
        for i in range(0, len(strings), _SPLIT_BATCH):
            venues, years = _split_references(strings[i:i + _SPLIT_BATCH])
            self.slot_venue.extend(map(self.venue_ids.__getitem__, venues))
            self.slot_year.extend(map(self.year_ids.__getitem__, years))
        if self.strings is not None:
            self.strings += strings

    def columns(self) -> dict:
        stripped_ids = id_table()
        strip = np.fromiter((stripped_ids[t.strip()] for t in self.year_ids),
                            dtype=np.int32, count=len(self.year_ids))
        return dict(slot_venue=self.slot_venue,
                    slot_year=strip[np.asarray(self.slot_year, dtype=np.intp)],
                    venue_tokens=list(self.venue_ids),
                    year_tokens=list(stripped_ids))


@dataclass
class _Chunk:
    """The columns of one part of a corpus: one byte range of a file, the
    documents built in memory, or a whole corpus once the parts are joined.

    Per document: ``doc_ids``, ``doc_journals``, ``pub_years``,
    ``doc_types``, ``ref_counts`` and ``doc_lines`` (its line number, or
    its position in memory), plus ``ref_offsets``, one longer. Per
    reference: ``ref_slots``, an index into the part's string slots. Per
    slot: its ``slot_venue`` and ``slot_year`` codes into ``venue_tokens``
    and ``year_tokens``. No reference text: a byte range's chunk is what its
    process sends back. Messages are ``(line, text)`` pairs in line order.
    """

    doc_ids: list[str]
    doc_journals: list[str]
    pub_years: Sequence[int]
    doc_types: list[str]
    ref_counts: Sequence[int]
    ref_offsets: Sequence[int]
    ref_slots: Sequence[int]
    slot_venue: Sequence[int]
    slot_year: Sequence[int]
    venue_tokens: list[str]
    year_tokens: list[str]
    doc_lines: Sequence[int]
    errors: list[tuple[int, str]] = field(default_factory=list)
    warnings: list[tuple[int, str]] = field(default_factory=list)
    n_lines: int = 0


# the dtype of each array column of a joined part
_DTYPES = dict(pub_years=np.int64, ref_counts=np.int64, doc_lines=np.int64,
               ref_offsets=np.int64, ref_slots=np.int32, slot_venue=np.int32,
               slot_year=np.int32)


def _join(chunks: list[_Chunk]) -> _Chunk:
    """One part from parts in file order: line numbers shifted by the lines
    of the parts before, slots and references concatenated, and the venue
    and year token tables merged and the slot codes renumbered into them.
    A single part is returned as it is, its array columns viewed, not
    copied, as their joined dtypes: its codes index its own distinct
    tokens already."""
    if len(chunks) == 1:
        return replace(chunks[0], **{
            key: np.asarray(getattr(chunks[0], key), dtype=dtype)
            for key, dtype in _DTYPES.items()})
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
        for tokens, ids, codes, key in (
                (c.venue_tokens, venue_ids, c.slot_venue, "slot_venue"),
                (c.year_tokens, year_ids, c.slot_year, "slot_year")):
            renumber = np.fromiter(map(ids.__getitem__, tokens),
                                   dtype=np.int32, count=len(tokens))
            arrays[key].append(renumber[np.asarray(codes, dtype=np.intp)])
        line_base += c.n_lines
        ref_base += len(c.ref_slots)
        slot_base += len(c.slot_venue)
    arrays["ref_offsets"].insert(0, np.zeros(1, np.int64))
    joined = {key: np.concatenate(parts) for key, parts in arrays.items()}
    return _Chunk(doc_ids=doc_ids, doc_journals=doc_journals,
                  doc_types=doc_types,
                  venue_tokens=list(venue_ids), year_tokens=list(year_ids),
                  errors=errors, warnings=warnings, n_lines=line_base,
                  **joined)


@dataclass
class _CorpusFile:
    """The file a corpus was loaded from, as it was then: its path, its
    record rule (``_jsonl_fields`` or ``_tsv_fields``), and its size and
    modification time at load."""

    path: Path
    fields: Callable[[bytes], Optional[tuple]]
    size: int
    mtime_ns: int
    # the byte offset of each line, from one pass on first use
    starts: Optional[array] = None

    def refs(self, line: int) -> list[str]:
        """The reference strings of the record on line ``line`` (1-based),
        read again; a ``CorpusFormatError`` if the file has changed."""
        with open(self.path, "rb") as fh:
            stat = os.fstat(fh.fileno())
            if (stat.st_size, stat.st_mtime_ns) != (self.size, self.mtime_ns):
                raise CorpusFormatError(
                    f"{self.path.name} has changed since it was loaded")
            if self.starts is None:
                self.starts = line_starts(fh)
            start = self.starts[line - 1]
            fh.seek(start)
            text = read_line_end(fh, self.size - start).splitlines()[0]
        return self.fields(text)[5]


class Corpus:
    """A census year's citing documents, stored column by column.

    Per document, in input order: ``doc_ids``, ``doc_journals`` (the citing
    journal), ``pub_years``, ``doc_types``, ``ref_counts`` (declared NRef)
    and ``ref_offsets``, one longer than the others: the references of
    document ``i`` are rows ``ref_offsets[i]:ref_offsets[i + 1]`` of the
    per-reference columns.

    Each reference is an index into string slots (``ref_slots``); every
    slot stands for one reference string, split once into a venue token and
    a year token whose codes are ``slot_venue`` and ``slot_year``, indices
    into the distinct ``venue_tokens`` and ``year_tokens``. A string seen in
    several byte ranges of a corpus file has a slot per range, a string
    repeated in a range that stopped interning (see ``_records``) may have
    several, and a slot may be used by no reference.

    ``Corpus(census_year, documents)`` reads ``Document`` objects as
    :func:`load_corpus` reads a file's lines: a malformed document is
    skipped and reported in ``load_errors`` as ``documents:N: text``, N
    its 1-based position, a document type is lower-cased and an unknown
    one becomes ``other`` with a warning, and a repeated ``doc_id`` is
    rejected. ``documents`` is a read-only sequence that builds each
    ``Document`` on access. A corpus built in memory keeps the string of
    each slot; one loaded from a file keeps no reference text, and
    ``documents[i]`` reads document ``i``'s references again from its line
    of the file, every other field from the columns. It raises
    ``CorpusFormatError`` if the file's size or modification time is not
    what it was at load; ``len(documents)`` reads nothing. Two corpora are
    equal when their census years and their documents are, whatever slots
    their strings got. A census year outside [1900, ``YEAR_MAX``] is a
    ``CorpusFormatError``.
    """

    _slot_strings: Optional[list[str]] = None  # built in memory
    _file: Optional[_CorpusFile] = None        # loaded from a file

    def __init__(self, census_year: int, documents: Iterable[Document]):
        _check_census_year(census_year)
        chunk, self._slot_strings = _records(documents, _document_fields,
                                             census_year, 1, keep=True)
        self._store(census_year, "documents", [chunk])

    @classmethod
    def from_columns(cls, census_year: int, *, slot_strings: list[str],
                     **columns) -> "Corpus":
        """A corpus over given per-document columns and ``ref_slots``,
        named as the attributes are, whose slot ``i`` holds
        ``slot_strings[i]``. The columns are not checked record by record,
        but a declared NRef below its reference count is a ValueError.
        They are copied once, so the corpus shares no list or array with
        the caller."""
        _check_census_year(census_year)
        columns = {key: np.array(column, dtype=_DTYPES[key])
                   if key in _DTYPES else list(column)
                   for key, column in columns.items()}
        slot_strings = list(slot_strings)
        if (columns["ref_counts"] < np.diff(columns["ref_offsets"])).any():
            raise ValueError("ref_counts below a document's reference count")
        n_docs = len(columns["doc_ids"])
        slot_columns = _StringColumns()
        slot_columns.add(slot_strings)
        chunk = _Chunk(doc_lines=np.arange(1, n_docs + 1), **columns,
                       **slot_columns.columns())
        corpus = cls.__new__(cls)
        corpus._store(census_year, "columns", [chunk])
        corpus._slot_strings = slot_strings
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
        self._doc_lines = joined.doc_lines

    def _refs(self, i: int) -> list[str]:
        """The reference strings of document ``i``."""
        if self._file is not None:
            return self._file.refs(int(self._doc_lines[i]))
        slots = self.ref_slots[self.ref_offsets[i]:self.ref_offsets[i + 1]]
        return [self._slot_strings[k] for k in slots.tolist()]

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
        return Document(doc_id=c.doc_ids[i], journal_id=c.doc_journals[i],
                        pub_year=int(c.pub_years[i]), doc_type=c.doc_types[i],
                        refs=c._refs(i), ref_count=int(c.ref_counts[i]))

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


def _jsonl_fields(line: bytes) -> Optional[tuple]:
    """The six fields of the record on an undecoded JSONL line, unchecked;
    None for a blank or comment line."""
    line = line.decode("utf-8").strip()
    if not line or line.startswith("#"):
        return None
    obj = json.loads(line)
    return (obj["doc_id"], obj["journal"], obj["year"],
            obj.get("type", "other"), obj["nref"], obj.get("refs", []))


def _tsv_fields(line: bytes) -> Optional[tuple]:
    """The six fields of the record on an undecoded TSV line, unchecked but
    for its width and integers; None for a blank, comment or header line."""
    line = line.decode("utf-8")
    if skipped(line) or line == _HEADER_LINE:
        return None
    fields = line.split("\t")
    if len(fields) != 6:
        raise ValueError(f"expected 6 columns, got {len(fields)}")
    doc_id, journal, year, doc_type, nref, refs_joined = fields
    refs = refs_joined.split(";") if refs_joined else []
    return doc_id, journal, integer(year), doc_type, integer(nref), refs


_FIELDS = {"jsonl": _jsonl_fields, "tsv": _tsv_fields}


def _document_fields(d: Document) -> tuple:
    """The six fields of a ``Document``, unchecked."""
    return d.doc_id, d.journal_id, d.pub_year, d.doc_type, d.ref_count, d.refs


def _records(items: Iterable, fields: Callable[..., Optional[tuple]],
             census_year: int, first: int, keep: bool = False
             ) -> tuple[_Chunk, Optional[list[str]]]:
    """Read, check and column the records of ``items``, numbered from
    ``first``: ``fields`` gives an item's six fields, or None for an item
    that holds no record. A malformed record is skipped with an error, and
    a type outside ``DOC_TYPES`` becomes ``other`` with a warning, each
    at the item's number; the chunk's ``n_lines`` is the last number.
    Returns the chunk and, if ``keep``, the string of each of its slots.

    Each distinct reference string gets a slot, in first-seen order, while
    strings repeat. The part is judged once, at the first document end at
    or after ``_INTERN_SAMPLE`` references: if more than 7/8 of those were
    new strings, every later reference gets a slot of its own, so a string
    repeated after that point has several slots. From then on the slots
    are numbered, so the strings are split as they come, ``_SPLIT_BATCH``
    at a time, and not held."""
    doc_ids: list[str] = []
    doc_journals: list[str] = []
    doc_types: list[str] = []
    pub_years, ref_counts, doc_lines = array("q"), array("q"), array("q")
    ref_offsets = array("q", [0])
    ref_slots: list[int] = []
    slot_ids = id_table()
    slot_columns = _StringColumns(keep)
    unshared: list[str] = []  # a slot each, once interning stops, not yet split
    n_unshared = 0
    judged = stopped = False
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
        if stopped:
            unshared += refs
            n_unshared += len(refs)
            if len(unshared) >= _SPLIT_BATCH:
                slot_columns.add(unshared)
                unshared = []
        else:
            ref_slots += map(slot_ids.__getitem__, refs)
            if not judged and len(ref_slots) >= _INTERN_SAMPLE:
                judged = True
                stopped = 8 * len(slot_ids) > 7 * len(ref_slots)
                if stopped:
                    slot_columns.add(list(slot_ids))
        ref_offsets.append(len(ref_slots) + n_unshared)
    n_interned = len(slot_ids)
    slots = np.concatenate([
        np.array(ref_slots, dtype=np.int32),
        np.arange(n_interned, n_interned + n_unshared, dtype=np.int32)])
    if not stopped:
        slot_columns.add(list(slot_ids))
    slot_columns.add(unshared)
    return _Chunk(doc_ids=doc_ids, doc_journals=doc_journals,
                  pub_years=pub_years, doc_types=doc_types,
                  ref_counts=ref_counts, ref_offsets=ref_offsets,
                  ref_slots=slots, doc_lines=doc_lines,
                  **slot_columns.columns(), errors=errors, warnings=warnings,
                  n_lines=n), slot_columns.strings


def _corpus_format(path: Path) -> str:
    """``"tsv"`` or ``"jsonl"``, as a corpus file's first line that is
    neither blank nor a comment says; a TSV file's must be the header. A
    bad byte reads as U+FFFD here and is the record loop's to report."""
    with closing(lines(path)) as raw_lines:
        for lineno, raw in enumerate(raw_lines, start=1):
            line = raw.decode("utf-8", "replace")
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            if "\t" not in line or text.startswith("{"):
                return "jsonl"
            header = line.split("\t")
            if header != CORPUS_TSV_HEADER:
                raise CorpusFormatError(
                    f"{path.name}:{lineno}: malformed TSV header "
                    f"{header!r}, expected {CORPUS_TSV_HEADER!r}")
            return "tsv"
    return "jsonl"


def _byte_ranges(path: Path, n: int) -> list[tuple[int, int]]:
    """At most ``n`` consecutive byte ranges that cover the file, each one
    after the first starting just after a line end: a ``\\n``, a
    ``\\r\\n`` or a lone ``\\r``, never between the ``\\r`` and ``\\n`` of
    one."""
    size = path.stat().st_size
    cuts = [0]
    with open(path, "rb") as fh:
        for i in range(1, n):
            fh.seek(max(size * i // n, cuts[-1]))
            read_line_end(fh, size)
            if fh.tell() >= size:
                break
            cuts.append(fh.tell())
    cuts.append(size)
    return list(zip(cuts, cuts[1:]))


def _parse_range(path: Path, format: str, start: int, end: int,
                 census_year: int) -> _Chunk:
    """Read, check and column the records on the lines of bytes
    ``[start, end)``. Line numbers count from the range's first line."""
    chunk, _ = _records(lines(path, start, end), _FIELDS[format],
                        census_year, 1)
    return chunk


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


def load_corpus(path: str | Path, census_year: int, threads: int = 1
                ) -> Corpus:
    """Load a corpus file, JSONL or TSV as its first line says; malformed
    records are skipped and recorded in ``Corpus.load_errors``, a
    malformed TSV header is fatal.

    The file is read as ``min(threads, size // 4 MiB)`` byte ranges (at
    least one), each by its own process; the corpus, its messages and
    their order do not depend on how many. The corpus keeps the file's
    path, size and modification time, and no reference text: its
    ``documents`` read the references from the file again.
    """
    path = Path(path)
    if not path.is_file():
        raise CorpusFormatError(f"corpus file not found: {path}")
    _check_census_year(census_year)
    if threads < 1:
        raise ValueError(f"threads {threads} must be >= 1")

    stat = path.stat()
    format = _corpus_format(path)
    n = max(1, min(threads, stat.st_size // _MIN_RANGE_BYTES))
    jobs = [(path, format, start, end, census_year)
            for start, end in _byte_ranges(path, n)]
    parts = run_forked(_parse_range, jobs, f"a process reading {path.name}")
    corpus = Corpus.__new__(Corpus)
    corpus._store(census_year, path.name, parts)
    corpus._file = _CorpusFile(path.absolute(), _FIELDS[format],
                               stat.st_size, stat.st_mtime_ns)
    return corpus


def save_corpus(corpus: Corpus, path: str | Path, format: str = "jsonl") -> Path:
    """Write a corpus as JSONL or TSV, one document a line, replacing
    ``path`` whole, and return the path. A document that TSV cannot hold
    raises ``CorpusFormatError``, and a string that UTF-8 cannot encode
    ``UnicodeEncodeError``; either way ``path`` keeps its old bytes."""
    if format not in ("jsonl", "tsv"):
        raise CorpusFormatError(f"unknown corpus format {format!r}")

    def line(doc: Document) -> str:
        if format == "jsonl":
            return json.dumps({"doc_id": doc.doc_id, "journal": doc.journal_id,
                               "year": doc.pub_year, "type": doc.doc_type,
                               "nref": doc.ref_count, "refs": doc.refs},
                              ensure_ascii=False)
        record = _document_fields(doc)
        text = "\t".join([*map(str, record[:5]), ";".join(doc.refs)])
        if (text.count("\t") != 5 or "\n" in text or "\r" in text
                or _tsv_fields(text.encode("utf-8")) != record):
            raise CorpusFormatError(
                f"document {doc.doc_id!r} would not read back from TSV (a "
                "tab or line break, a leading '#', or a ';' in a reference); "
                "use the JSONL format")
        return text

    header = [_HEADER_LINE] if format == "tsv" else []
    return write_lines(path, chain(header, map(line, corpus.documents)))


def load_journals(path: str | Path) -> JournalTable:
    """Load the journal master TSV. Ambiguous abbreviations are fatal."""
    path = Path(path)
    if not path.is_file():
        raise JournalTableError(f"journal file not found: {path}")
    journals: list[Journal] = []
    for where, fields in iter_rows(path):
        if fields[0] == "journal_id":  # tolerate a literal header row
            continue
        if len(fields) < 5:
            raise JournalTableError(
                f"{where}: expected at least 5 columns, got {len(fields)}")
        journal_id, full_name, abbrevs, field_code, merge_group = fields[:5]
        if not journal_id:
            raise JournalTableError(f"{where}: empty journal_id")
        items: dict[int, int] = {}
        for pair in fields[5:]:
            if not pair:
                continue
            year_s, _, count_s = pair.partition("=")
            try:
                year, count = integer(year_s), integer(count_s)
            except ValueError:
                raise JournalTableError(
                    f"{where}: bad year=count pair {pair!r}") from None
            if not 0 <= count <= NREF_MAX:
                raise JournalTableError(
                    f"{where}: item count in {pair!r} outside [0, {NREF_MAX}]")
            items[year] = items.get(year, 0) + count
        journals.append(Journal(
            journal_id=journal_id, full_name=full_name,
            abbreviations=[a for a in abbrevs.split("|") if a],
            field_code=field_code, items_by_year=items,
            merge_group=merge_group or None))
    return JournalTable(journals)


def save_journals(table: JournalTable, path: str | Path) -> Path:
    rows = ([j.journal_id, j.full_name, "|".join(j.abbreviations),
             j.field_code, j.merge_group or ""]
            + [f"{y}={c}" for y, c in sorted(j.items_by_year.items())]
            for j in table.journals)
    return write_lines(path, chain(
        ["# journal_id\tfull_name\tabbrevs\tfield\tmerge_group\tyear=count..."],
        map("\t".join, rows)))


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
    for group_id, parts in groups.items():
        fields = {p.field_code for p in parts}
        if len(fields) > 1:
            raise JournalTableError(
                f"merge group {group_id!r} spans field codes {sorted(fields)}")
        canonical = parts[0]  # the table lists journals in id order
        items: dict[int, int] = {}
        for p in parts:
            remap[p.journal_id] = canonical.journal_id
            for y, c in p.items_by_year.items():
                items[y] = items.get(y, 0) + c
        merged.append(Journal(journal_id=canonical.journal_id,
                              full_name=canonical.full_name,
                              abbreviations=sorted({a for p in parts
                                                    for a in p.abbreviations}),
                              field_code=canonical.field_code,
                              items_by_year=items, merge_group=None))

    keep = [j for j in journals if j.journal_id not in remap]
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
