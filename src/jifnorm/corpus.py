"""Citation corpus loading, journal master records, merging, and validation.

A corpus is a census year's worth of citing documents, each carrying its
raw cited-reference strings. It is stored column by column: one entry per
document in each per-document column, and one int id per reference into
the corpus's table of distinct reference strings. Two on-disk formats are
supported:

* JSONL: one object per line with keys ``doc_id``, ``journal``, ``year``,
  ``type``, ``nref``, ``refs`` (array of strings).
* TSV: header row ``doc_id  journal  year  type  nref  refs`` with the
  references ``;``-joined in the last column.

The journal master is a headerless TSV with columns ``journal_id``,
``full_name``, ``abbrevs`` (``|``-joined), ``field``, ``merge_group``,
followed by any number of ``year=count`` pairs giving citable-item counts.
``#``-prefixed lines are comments in all formats.
"""

from __future__ import annotations

import copy
import json
import sys
from collections import defaultdict
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path
from typing import TYPE_CHECKING, Optional

import numpy as np

from ._tsv import iter_rows

if TYPE_CHECKING:  # pragma: no cover
    from .refmatch import RefTable

DOC_TYPES = frozenset({"article", "review", "letter", "other"})

CORPUS_TSV_HEADER = ["doc_id", "journal", "year", "type", "nref", "refs"]

NREF_MAX = 2**63 - 1  # declared reference counts are stored as int64


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


class _ColumnBuilder:
    """Appends documents to per-document lists and interns each reference
    string to an id in first-seen order."""

    def __init__(self):
        self.doc_ids: list[str] = []
        self.doc_journals: list[str] = []
        self.pub_years: list[int] = []
        self.doc_types: list[str] = []
        self.ref_counts: list[int] = []
        self.ref_offsets: list[int] = [0]
        self.ref_ids: list[int] = []
        self.string_ids = id_table()

    def add(self, doc_id: str, journal: str, year: int, doc_type: str,
            nref: int, refs: list[str]) -> None:
        self.doc_ids.append(doc_id)
        self.doc_journals.append(journal)
        self.pub_years.append(year)
        self.doc_types.append(doc_type)
        self.ref_counts.append(nref)
        self.ref_ids += map(self.string_ids.__getitem__, refs)
        self.ref_offsets.append(len(self.ref_ids))

    def columns(self) -> dict:
        return dict(doc_ids=self.doc_ids, doc_journals=self.doc_journals,
                    pub_years=self.pub_years, doc_types=self.doc_types,
                    ref_counts=self.ref_counts, ref_offsets=self.ref_offsets,
                    ref_ids=self.ref_ids, ref_strings=list(self.string_ids))


class Corpus:
    """A census year's citing documents, stored column by column.

    Per document, in input order: ``doc_ids``, ``doc_journals`` (the citing
    journal), ``pub_years``, ``doc_types``, ``ref_counts`` (declared NRef)
    and ``ref_offsets``, one longer than the others: the references of
    document ``i`` are ``ref_ids[ref_offsets[i]:ref_offsets[i + 1]]``, ids
    into ``ref_strings``, the table of distinct reference strings.

    ``Corpus(census_year, documents)`` builds the columns from ``Document``
    objects; ``documents`` is a read-only sequence that builds each
    ``Document`` on access. Two corpora are equal when their documents
    are, whatever ids their strings got.
    """

    def __init__(self, census_year: int, documents: Iterable[Document],
                 source_format: str = "jsonl",
                 load_errors: Optional[list[str]] = None,
                 load_warnings: Optional[list[str]] = None):
        builder = _ColumnBuilder()
        for d in documents:
            builder.add(d.doc_id, d.journal_id, d.pub_year, d.doc_type,
                        d.ref_count, d.refs)
        self._store(census_year, source_format, load_errors, load_warnings,
                    **builder.columns())

    @classmethod
    def from_columns(cls, census_year: int, *, source_format: str = "jsonl",
                     load_errors: Optional[list[str]] = None,
                     load_warnings: Optional[list[str]] = None,
                     **columns) -> "Corpus":
        """A corpus over given columns, named as the attributes are."""
        corpus = cls.__new__(cls)
        corpus._store(census_year, source_format, load_errors, load_warnings,
                      **columns)
        return corpus

    def _store(self, census_year, source_format, load_errors, load_warnings, *,
               doc_ids, doc_journals, pub_years, doc_types, ref_counts,
               ref_offsets, ref_ids, ref_strings) -> None:
        self.census_year = census_year
        self.source_format = source_format
        self.load_errors = [] if load_errors is None else load_errors
        self.load_warnings = [] if load_warnings is None else load_warnings
        self.doc_ids = doc_ids
        self.doc_journals = doc_journals
        self.pub_years = np.asarray(pub_years, dtype=np.int64)
        self.doc_types = doc_types
        self.ref_counts = np.asarray(ref_counts, dtype=np.int64)
        self.ref_offsets = np.asarray(ref_offsets, dtype=np.int64)
        self.ref_ids = np.asarray(ref_ids, dtype=np.int32)
        self.ref_strings = ref_strings

    @property
    def documents(self) -> "_DocumentView":
        return _DocumentView(self)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Corpus):
            return NotImplemented
        return (self.census_year == other.census_year
                and self.source_format == other.source_format
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
        ids = c.ref_ids[c.ref_offsets[i]:c.ref_offsets[i + 1]].tolist()
        return Document(doc_id=c.doc_ids[i], journal_id=c.doc_journals[i],
                        pub_year=int(c.pub_years[i]), doc_type=c.doc_types[i],
                        refs=[c.ref_strings[k] for k in ids],
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
        from .refmatch import normalize_venue

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


def load_corpus(path: str | Path, format: str = "auto",
                census_year: int = 0) -> Corpus:
    """Load a corpus file; malformed records are skipped and recorded in
    ``Corpus.load_errors``, a malformed TSV header is fatal."""
    path = Path(path)
    if not path.is_file():
        raise CorpusFormatError(f"corpus file not found: {path}")
    if format == "auto":
        format = "tsv" if path.suffix.lower() == ".tsv" else "jsonl"
    if format not in ("jsonl", "tsv"):
        raise CorpusFormatError(f"unknown corpus format {format!r}")
    if census_year < 1900:
        raise CorpusFormatError(f"census_year {census_year} must be >= 1900")

    builder = _ColumnBuilder()
    errors: list[str] = []
    warnings: list[str] = []
    seen_ids: set[str] = set()
    name = path.name

    def add(doc_id, journal, year, doc_type, nref, refs, where: str) -> None:
        if doc_id in seen_ids:
            errors.append(f"{where}: duplicate doc_id {doc_id!r}")
            return
        seen_ids.add(doc_id)
        # only an accepted record may warn
        if doc_type not in DOC_TYPES:
            warnings.append(f"{where}: unknown doc_type {doc_type!r} "
                            "mapped to 'other'")
            doc_type = "other"
        builder.add(doc_id, journal, year, doc_type, nref, refs)

    if format == "jsonl":
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                where = f"{name}:{lineno}"
                try:
                    obj = json.loads(line)
                    doc_id, journal, year = obj["doc_id"], obj["journal"], obj["year"]
                    doc_type = obj.get("type", "other")
                    nref, refs = obj["nref"], obj.get("refs", [])
                    doc_type = _check_record(doc_id, journal, year, doc_type,
                                             nref, refs, census_year)
                except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
                    errors.append(f"{where}: {exc}")
                    continue
                add(doc_id, journal, year, doc_type, nref, refs, where)
    else:
        rows = iter_rows(path)
        try:
            _, header = next(rows)
        except StopIteration:
            raise CorpusFormatError(f"{path}: empty TSV corpus") from None
        if header != CORPUS_TSV_HEADER:
            raise CorpusFormatError(
                f"{path}: malformed TSV header {header!r}, "
                f"expected {CORPUS_TSV_HEADER!r}")
        for lineno, fields in rows:
            where = f"{name}:{lineno}"
            if len(fields) != 6:
                errors.append(f"{where}: expected 6 columns, got {len(fields)}")
                continue
            doc_id, journal, year, doc_type, nref, refs_joined = fields
            refs = [r for r in refs_joined.split(";") if r] if refs_joined else []
            try:
                year, nref = int(year), int(nref)
                doc_type = _check_record(doc_id, journal, year, doc_type, nref,
                                         refs, census_year)
            except ValueError as exc:
                errors.append(f"{where}: {exc}")
                continue
            add(doc_id, journal, year, doc_type, nref, refs, where)

    return Corpus.from_columns(census_year, source_format=format,
                               load_errors=errors, load_warnings=warnings,
                               **builder.columns())


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
        items: dict[int, int] = {}
        for pair in fields[5:]:
            if not pair:
                continue
            year_s, _, count_s = pair.partition("=")
            try:
                year, count = int(year_s), int(count_s)
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


def validate_corpus(corpus: Corpus, journals: JournalTable,
                    ref_table: Optional["RefTable"] = None) -> ValidationReport:
    """Tally reference parsing/matching outcomes over the whole corpus.

    ``matched + unmatched + invalid`` partitions ``total_refs``; fractions
    are computed against ``total_refs``.
    """
    from . import refmatch

    if ref_table is None:
        ref_table = refmatch.match_corpus(corpus, journals)

    status = ref_table.status
    total_refs = int(status.size)
    invalid = int((status == refmatch.STATUS_INVALID).sum())
    parseable = status != refmatch.STATUS_INVALID
    matched = int((parseable & (ref_table.journal_index >= 0)).sum())
    unmatched = int((parseable & (ref_table.journal_index < 0)).sum())
    pre1900 = int((status == refmatch.STATUS_PRE1900).sum())
    future = int((status == refmatch.STATUS_FUTURE).sum())
    unknown_docs = int((np.asarray(ref_table.doc_journal_index) < 0).sum())

    return ValidationReport(
        total_docs=len(corpus.doc_ids), total_refs=total_refs,
        matched_refs=matched, unmatched_venue_refs=unmatched,
        invalid_year_refs=invalid, pre1900_refs=pre1900,
        future_year_refs=future, unknown_journal_docs=unknown_docs)


def print_validation(report: ValidationReport, stream=sys.stdout) -> None:
    for row in report.to_rows():
        stream.write("\t".join(row).rstrip("\t") + "\n")
