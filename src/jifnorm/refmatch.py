"""Cited-reference parsing and venue matching.

Two raw layouts are accepted, documented bit-exactly:

* Comma layout ``AUTHOR, YEAR, VENUE, VOL, PAGE`` — tokens are split on
  commas and stripped; the year is token 1, the venue token 2. Missing
  trailing tokens are tolerated (the venue may be empty).
* Structured layout ``VENUE|YEAR`` — exactly one ``|`` with a non-empty
  venue side.

A year token is parseable only if it is exactly four ASCII digits; anything
else (including two-digit fragments such as ``18``) yields
``STATUS_INVALID``. Parseable years are then classified: below 1900 as
``STATUS_PRE1900``, beyond the census year as ``STATUS_FUTURE``, otherwise
``STATUS_VALID``. A status is one of these codes everywhere;
``STATUS_NAMES[code]`` is its display name.

Venue resolution is exact-match only, on normalized strings (uppercased,
interior whitespace collapsed, trailing ``.,;:`` punctuation stripped).
Misses are reported as unmatched, never guessed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from .corpus import Corpus, JournalTable

STATUS_VALID = 0
STATUS_INVALID = 1
STATUS_PRE1900 = 2
STATUS_FUTURE = 3

STATUS_NAMES = ("valid", "invalid_format", "pre1900", "future")

_TRAILING_PUNCT = " .,;:"


@dataclass
class CitedRef:
    """Parse result for one raw reference string.

    ``year`` is present iff ``year_status != STATUS_INVALID``.
    """

    venue_abbrev: str
    year: Optional[int]
    year_status: int


def normalize_venue(s: str) -> str:
    """Uppercase, collapse whitespace, strip trailing punctuation. Idempotent."""
    return " ".join(s.split()).upper().rstrip(_TRAILING_PUNCT)


def classify_year(year: int, census_year: Optional[int]) -> int:
    if year < 1900:
        return STATUS_PRE1900
    if census_year is not None and year > census_year:
        return STATUS_FUTURE
    return STATUS_VALID


def _split_references(raws: list[str]) -> tuple[list[str], list[str]]:
    """The layout rules, over a list of raw strings: the venue token (not
    yet normalized) and the year token (not yet stripped) of each."""
    venues: list[str] = []
    years: list[str] = []
    for raw in raws:
        if "|" in raw and raw.count("|") == 1:
            venue, _, year = raw.partition("|")
            if not venue.strip():
                venue = year = ""
        else:
            tokens = raw.split(",", 3)
            n = len(tokens)
            venue = tokens[2] if n > 2 else ""
            year = tokens[1] if n > 1 else ""
        venues.append(venue)
        years.append(year)
    return venues, years


def _year_of_token(token: str) -> Optional[int]:
    """The year rule: exactly four ASCII digits, else unparseable."""
    if len(token) == 4 and token.isascii() and token.isdigit():
        return int(token)
    return None


def parse_reference(raw: str, census_year: Optional[int] = None) -> CitedRef:
    """Extract (venue, year) from one raw reference string.

    Without a ``census_year`` the ``STATUS_FUTURE`` classification cannot
    be applied and post-census years come back ``STATUS_VALID``.
    """
    if not raw:
        raise ValueError("empty reference string")
    (venue,), (year_token,) = _split_references([raw])
    year = _year_of_token(year_token.strip())
    status = STATUS_INVALID if year is None else classify_year(year, census_year)
    return CitedRef(venue_abbrev=normalize_venue(venue), year=year,
                    year_status=status)


def match_venue(venue_abbrev: str, journals: JournalTable) -> Optional[str]:
    """Exact lookup of a (normalized) venue abbreviation; None on miss."""
    return journals.abbrev_index.get(normalize_venue(venue_abbrev))


@dataclass
class RefTable:
    """Columnar view of every reference in a corpus, after parse + match.

    One row per reference, in (document order, reference order), and
    nothing per document: the references of document ``i`` are rows
    ``corpus.ref_offsets[i]:corpus.ref_offsets[i + 1]``, and its journal
    and declared NRef stay in the corpus's own columns. This is what the
    counting engine consumes; building it once and reusing it across
    windows and counting modes avoids re-parsing.
    """

    journal_ids: list[str]
    journal_index: np.ndarray   # int32, row -> journal position, -1 unmatched
    year: np.ndarray            # int32, 0 where the year is unparseable
    status: np.ndarray          # uint8, STATUS_* codes
    # (corpus, {window: arrays}): what count_citations shares between the
    # counts of one window, valid only for that corpus
    _windows: tuple = field(default=(None, None), init=False, repr=False,
                            compare=False)


def match_corpus(corpus: Corpus, journals: JournalTable) -> RefTable:
    """Parse and match every reference into the columnar table.

    The corpus split each of its strings once when it was built; here each
    distinct venue token is normalized and looked up once, and each
    distinct year token classified once. The per-reference rows are
    gathered from those results through the slot codes, so processing
    order cannot change the outcome.
    """
    journal_ids = journals.journal_ids
    journal_pos = {jid: i for i, jid in enumerate(journal_ids)}
    venue_journal = np.array(
        [journal_pos.get(match_venue(v, journals), -1)
         for v in corpus.venue_tokens], dtype=np.int32)
    years = [_year_of_token(t) for t in corpus.year_tokens]
    year_value = np.array([y or 0 for y in years], dtype=np.int32)
    year_status = np.array(
        [STATUS_INVALID if y is None else classify_year(y, corpus.census_year)
         for y in years], dtype=np.uint8)

    slots = corpus.ref_slots
    return RefTable(journal_ids=journal_ids,
                    journal_index=venue_journal[corpus.slot_venue][slots],
                    year=year_value[corpus.slot_year][slots],
                    status=year_status[corpus.slot_year][slots])
