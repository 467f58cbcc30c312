"""Cited-reference parsing and venue matching.

Two raw layouts are accepted, documented bit-exactly:

* Comma layout ``AUTHOR, YEAR, VENUE, VOL, PAGE`` — tokens are split on
  commas and stripped; the year is token 1, the venue token 2. Missing
  trailing tokens are tolerated (the venue may be empty).
* Structured layout ``VENUE|YEAR`` — exactly one ``|`` with a non-empty
  venue side.

A year token is parseable only if it is exactly four digits; anything
else (including two-digit fragments such as ``18``) yields
``invalid_format``. Parseable years are then classified: below 1900 as
``pre1900``, beyond the census year as ``future``, otherwise ``valid``.

Venue resolution is exact-match only, on normalized strings (uppercased,
interior whitespace collapsed, trailing ``.,;:`` punctuation stripped).
Misses are reported as unmatched, never guessed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .corpus import Corpus, JournalTable

YEAR_VALID = "valid"
YEAR_INVALID = "invalid_format"
YEAR_PRE1900 = "pre1900"
YEAR_FUTURE = "future"

STATUS_VALID = 0
STATUS_INVALID = 1
STATUS_PRE1900 = 2
STATUS_FUTURE = 3

_STATUS_CODE = {YEAR_VALID: STATUS_VALID, YEAR_INVALID: STATUS_INVALID,
                YEAR_PRE1900: STATUS_PRE1900, YEAR_FUTURE: STATUS_FUTURE}

_TRAILING_PUNCT = " .,;:"


@dataclass
class CitedRef:
    """Parse result for one raw reference string.

    ``year`` is present iff ``year_status != invalid_format``.
    """

    venue_abbrev: str
    year: Optional[int]
    year_status: str


def normalize_venue(s: str) -> str:
    """Uppercase, collapse whitespace, strip trailing punctuation. Idempotent."""
    return " ".join(s.split()).upper().rstrip(_TRAILING_PUNCT)


def classify_year(year: int, census_year: Optional[int]) -> str:
    if year < 1900:
        return YEAR_PRE1900
    if census_year is not None and year > census_year:
        return YEAR_FUTURE
    return YEAR_VALID


def parse_reference(raw: str, census_year: Optional[int] = None) -> CitedRef:
    """Extract (venue, year) from one raw reference string.

    Without a ``census_year`` the ``future`` classification cannot be
    applied and post-census years come back ``valid``.
    """
    if not raw:
        raise ValueError("empty reference string")
    venue = ""
    year_token = ""
    if raw.count("|") == 1:
        left, _, right = raw.partition("|")
        if left.strip():
            venue = left
            year_token = right.strip()
        else:
            year_token = ""
    else:
        tokens = [t.strip() for t in raw.split(",")]
        if len(tokens) > 1:
            year_token = tokens[1]
        if len(tokens) > 2:
            venue = tokens[2]
    if len(year_token) == 4 and year_token.isdigit():
        year = int(year_token)
        status = classify_year(year, census_year)
    else:
        year = None
        status = YEAR_INVALID
    return CitedRef(venue_abbrev=normalize_venue(venue), year=year,
                    year_status=status)


def match_venue(venue_abbrev: str, journals: JournalTable) -> Optional[str]:
    """Exact lookup of a (normalized) venue abbreviation; None on miss."""
    key = normalize_venue(venue_abbrev)
    if not key:
        return None
    return journals.abbrev_index.get(key)


@dataclass
class RefTable:
    """Columnar view of every reference in a corpus, after parse + match.

    One row per reference, in (document order, reference order). This is
    what the counting engine consumes; building it once and reusing it
    across windows and counting modes avoids re-parsing.
    """

    journal_ids: list[str]
    doc_index: np.ndarray       # int64, row -> position in corpus.documents
    journal_index: np.ndarray   # int32, row -> journal position, -1 unmatched
    year: np.ndarray            # int32, 0 where the year is unparseable
    status: np.ndarray          # uint8, STATUS_* codes
    doc_journal_index: np.ndarray  # int32 per document, -1 unknown journal
    doc_ref_count: np.ndarray      # int64 per document, declared NRef
    n_docs: int


def match_corpus(corpus: Corpus, journals: JournalTable) -> RefTable:
    """Parse and match every reference into the columnar table.

    Matching is deterministic and total: parse results are memoized per
    distinct raw string, so processing order cannot change the outcome.
    """
    journal_ids = journals.journal_ids
    journal_pos = {jid: i for i, jid in enumerate(journal_ids)}
    census = corpus.census_year

    n_refs = sum(len(d.refs) for d in corpus.documents)
    doc_index = np.empty(n_refs, dtype=np.int64)
    journal_index = np.empty(n_refs, dtype=np.int32)
    year = np.zeros(n_refs, dtype=np.int32)
    status = np.empty(n_refs, dtype=np.uint8)
    n_docs = len(corpus.documents)
    doc_journal_index = np.empty(n_docs, dtype=np.int32)
    doc_ref_count = np.empty(n_docs, dtype=np.int64)

    # memo: raw string -> (journal position, year, status code)
    memo: dict[str, tuple[int, int, int]] = {}
    row = 0
    for di, doc in enumerate(corpus.documents):
        doc_journal_index[di] = journal_pos.get(doc.journal_id, -1)
        doc_ref_count[di] = doc.ref_count
        for ref in doc.refs:
            hit = memo.get(ref.raw)
            if hit is None:
                parsed = parse_reference(ref.raw, census)
                jid = journals.abbrev_index.get(parsed.venue_abbrev)
                hit = (journal_pos[jid] if jid is not None else -1,
                       parsed.year or 0, _STATUS_CODE[parsed.year_status])
                memo[ref.raw] = hit
            doc_index[row] = di
            journal_index[row], year[row], status[row] = hit
            row += 1

    return RefTable(journal_ids=journal_ids, doc_index=doc_index,
                    journal_index=journal_index, year=year, status=status,
                    doc_journal_index=doc_journal_index,
                    doc_ref_count=doc_ref_count, n_docs=n_docs)
