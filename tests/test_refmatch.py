import pytest
from hypothesis import given, settings, strategies as st

from jifnorm import (Corpus, Document, Journal, JournalTable, classify_year,
                     match_corpus, match_venue, normalize_venue,
                     parse_reference)
from jifnorm.refmatch import (STATUS_FUTURE, STATUS_INVALID, STATUS_NAMES,
                              STATUS_PRE1900, STATUS_VALID)


@pytest.fixture()
def table():
    return JournalTable([
        Journal("J01", "Example Science", ["J EXAMPLE SCI"], "F", {}),
        Journal("J02", "Other Letters", ["OTHER LETT"], "F", {})])


def test_parse_comma_layout():
    ref = parse_reference("SMITH J, 2008, J EXAMPLE SCI, V12, P34")
    assert ref.venue_abbrev == "J EXAMPLE SCI"
    assert ref.year == 2008
    assert ref.year_status == STATUS_VALID


def test_parse_two_digit_year_is_invalid_format():
    ref = parse_reference("DOE A, 18, SOME BOOK")
    assert ref.year_status == STATUS_INVALID
    assert ref.year is None
    assert ref.venue_abbrev == "SOME BOOK"


def test_parse_pre1900_year():
    ref = parse_reference("LEE K, 1899, OLD J")
    assert ref.year == 1899
    assert ref.year_status == STATUS_PRE1900


def test_parse_structured_layout():
    ref = parse_reference("J EXAMPLE SCI|2009", census_year=2010)
    assert ref.venue_abbrev == "J EXAMPLE SCI"
    assert ref.year == 2009
    assert ref.year_status == STATUS_VALID


def test_parse_future_year_needs_census():
    assert parse_reference("A, 2011, V", census_year=2010).year_status == STATUS_FUTURE
    assert parse_reference("A, 2011, V").year_status == STATUS_VALID


@pytest.mark.parametrize("raw", [
    "J A|\u00b2\u2070\u2070\u2078",   # superscript digits
    "J A|\u0662\u0660\u0660\u0668",   # Arabic-Indic digits
    "SMITH J, \uff12\uff10\uff10\uff18, J A"])  # full-width digits
def test_parse_year_needs_ascii_digits(raw):
    ref = parse_reference(raw, census_year=2010)
    assert ref.year_status == STATUS_INVALID
    assert ref.year is None
    assert ref.venue_abbrev == "J A"


def test_parse_short_strings():
    assert parse_reference("ANON").year_status == STATUS_INVALID
    assert parse_reference("ANON, 2001").venue_abbrev == ""
    assert parse_reference("ANON, 2001").year == 2001


_STATUS = {"valid": STATUS_VALID, "invalid_format": STATUS_INVALID,
           "pre1900": STATUS_PRE1900, "future": STATUS_FUTURE}


@pytest.mark.parametrize("year,expected", [
    (1900, "valid"), (1899, "pre1900"), (2010, "valid"), (2011, "future")])
def test_classify_year_boundaries(year, expected):
    assert classify_year(year, 2010) == _STATUS[expected]
    assert STATUS_NAMES[classify_year(year, 2010)] == expected


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
    loaded = load_corpus(fixture_paths["corpus"], census_year=CENSUS)
    corpus2 = Corpus(CENSUS, list(reversed(loaded.documents)))
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
    row = int(corpus.ref_offsets[di])
    assert table.journal_ids[table.journal_index[row]] == "J03"


def test_matched_never_exceeds_parseable(raw_fixture):
    corpus, journals = raw_fixture
    t = match_corpus(corpus, journals)
    matched = int((t.journal_index >= 0).sum())
    with_venue = sum(1 for d in corpus.documents for r in d.refs
                     if parse_reference(r).venue_abbrev)
    assert matched <= with_venue


# free text of layout pieces, arbitrary characters and ASCII and non-ASCII
# digits, alone or placed in either layout
_PIECE = st.one_of(
    st.sampled_from(list("|, ") + ["J A", "j a.", "B", "18", "2008", "1899",
                                   "2011", "\u00b2", "\u0662", "\uff10"]),
    st.characters(), st.sampled_from("0123456789"))
_TEXT = st.lists(_PIECE, max_size=6).map("".join)
_YEAR = st.one_of(st.sampled_from(["2008", " 2009 ", "1899", "2011", "18",
                                   "\u00b2\u2070\u2070\u2078",
                                   "\u0662\u0660\u0660\u0668"]), _TEXT)
_REF_TEXT = st.one_of(
    st.lists(_PIECE, min_size=1, max_size=12).map("".join),
    st.tuples(st.one_of(st.sampled_from(["J A", " j  a. ", "B"]), _TEXT),
              _YEAR).map("|".join),
    st.tuples(_TEXT, _YEAR, st.one_of(st.sampled_from(["J A", "b;"]), _TEXT),
              _TEXT).map(", ".join))


@given(st.lists(_REF_TEXT, min_size=1, max_size=12))
@settings(max_examples=300, deadline=None)
def test_ref_table_rows_equal_parse_reference(refs):
    """Each row of the memoized table equals parse_reference plus the
    abbreviation lookup of the same string."""
    journals = JournalTable([Journal("A", "A", ["J A"], "F", {}),
                             Journal("B", "B", ["B"], "F", {})])
    half = len(refs) // 2
    corpus = Corpus(2010, [Document("d1", "A", 2010, "article", refs[:half], half),
                           Document("d2", "B", 2010, "article", refs[half:],
                                    len(refs) - half)])
    table = match_corpus(corpus, journals)
    assert table.status.size == len(refs)
    for row, raw in enumerate(refs):
        parsed = parse_reference(raw, 2010)
        jid = journals.abbrev_index.get(parsed.venue_abbrev)
        expected = table.journal_ids.index(jid) if jid is not None else -1
        assert table.journal_index[row] == expected, raw
        assert table.year[row] == (parsed.year or 0), raw
        assert table.status[row] == parsed.year_status, raw
