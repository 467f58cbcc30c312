import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jifnorm import (Journal, JournalTable, classify_year, match_corpus,
                     match_venue, normalize_venue, parse_reference)


@pytest.fixture()
def table():
    return JournalTable([
        Journal("J01", "Example Science", ["J EXAMPLE SCI"], "F", {}),
        Journal("J02", "Other Letters", ["OTHER LETT"], "F", {})])


def test_parse_comma_layout():
    ref = parse_reference("SMITH J, 2008, J EXAMPLE SCI, V12, P34")
    assert ref.venue_abbrev == "J EXAMPLE SCI"
    assert ref.year == 2008
    assert ref.year_status == "valid"


def test_parse_two_digit_year_is_invalid_format():
    ref = parse_reference("DOE A, 18, SOME BOOK")
    assert ref.year_status == "invalid_format"
    assert ref.year is None
    assert ref.venue_abbrev == "SOME BOOK"


def test_parse_pre1900_year():
    ref = parse_reference("LEE K, 1899, OLD J")
    assert ref.year == 1899
    assert ref.year_status == "pre1900"


def test_parse_structured_layout():
    ref = parse_reference("J EXAMPLE SCI|2009", census_year=2010)
    assert ref.venue_abbrev == "J EXAMPLE SCI"
    assert ref.year == 2009
    assert ref.year_status == "valid"


def test_parse_future_year_needs_census():
    assert parse_reference("A, 2011, V", census_year=2010).year_status == "future"
    assert parse_reference("A, 2011, V").year_status == "valid"


def test_parse_short_strings():
    assert parse_reference("ANON").year_status == "invalid_format"
    assert parse_reference("ANON, 2001").venue_abbrev == ""
    assert parse_reference("ANON, 2001").year == 2001


@pytest.mark.parametrize("year,expected", [
    (1900, "valid"), (1899, "pre1900"), (2010, "valid"), (2011, "future")])
def test_classify_year_boundaries(year, expected):
    assert classify_year(year, 2010) == expected


def test_normalize_examples():
    assert normalize_venue("j  example sci.") == "J EXAMPLE SCI"
    assert normalize_venue("  J.   Example  Sci ;") == "J. EXAMPLE SCI"
    assert normalize_venue("") == ""


@given(st.text(max_size=40))
@settings(max_examples=200, deadline=None)
def test_normalize_is_idempotent(s):
    once = normalize_venue(s)
    assert normalize_venue(once) == once


def test_match_venue_exact_and_miss(table):
    assert match_venue("J EXAMPLE SCI", table) == "J01"
    assert match_venue("UNKNOWN VENUE", table) is None


def test_match_venue_normalizes_query(table):
    assert match_venue("j  example sci.", table) == "J01"
    # oracle: both sides normalized the same way resolve identically
    assert match_venue(normalize_venue("j  example sci."), table) == "J01"


def test_no_fuzzy_matching(table):
    assert match_venue("J EXAMPLE SC", table) is None


def test_match_corpus_is_order_independent(fixture_paths, raw_fixture):
    from jifnorm import load_corpus
    from conftest import CENSUS
    corpus, journals = raw_fixture
    t1 = match_corpus(corpus, journals)
    corpus2 = load_corpus(fixture_paths["corpus"], census_year=CENSUS)
    corpus2.documents = list(reversed(corpus2.documents))
    t2 = match_corpus(corpus2, journals)
    # same multiset of (journal, year, status) rows either way
    rows1 = sorted(zip(t1.journal_index.tolist(), t1.year.tolist(),
                       t1.status.tolist()))
    rows2 = sorted(zip(t2.journal_index.tolist(), t2.year.tolist(),
                       t2.status.tolist()))
    assert rows1 == rows2


def test_match_corpus_fills_table_rows(raw_fixture):
    corpus, journals = raw_fixture
    table = match_corpus(corpus, journals)
    assert table.status.size == sum(len(d.refs) for d in corpus.documents)
    di = next(i for i, d in enumerate(corpus.documents) if d.doc_id == "J01-01")
    row = int(np.flatnonzero(table.doc_index == di)[0])
    assert table.journal_ids[table.journal_index[row]] == "J03"


def test_matched_never_exceeds_parseable(raw_fixture):
    corpus, journals = raw_fixture
    t = match_corpus(corpus, journals)
    matched = int((t.journal_index >= 0).sum())
    with_venue = sum(1 for d in corpus.documents for r in d.refs
                     if parse_reference(r.raw).venue_abbrev)
    assert matched <= with_venue
