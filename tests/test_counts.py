import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from jifnorm import (Corpus, Document, Journal, JournalTable, load_journals,
                     match_corpus)
from jifnorm.cli import COUNT_VARIABLES
from jifnorm.counts import (CountError, CountMode, FRACTIONAL, FRACTIONAL_PLUS,
                            INTEGER, WindowSpec, count_citations, total_id,
                            window_years)

from conftest import CENSUS
from _oracle import count as oracle_count


def _one_doc(refs, nref=None):
    journals = JournalTable([Journal("A", "A", ["J A"], "F", {}),
                             Journal("B", "B", ["J B"], "F", {})])
    doc = Document("d1", "A", 2010, "article", refs,
                   nref if nref is not None else len(refs))
    return Corpus(2010, [doc]), journals


def _totals(refs, kind, mode, nref=None):
    corpus, journals = _one_doc(refs, nref)
    return count_citations(corpus, journals, kind, mode).values


@pytest.mark.parametrize("year,kind,expected", [
    (2008, "two_year", True), (2009, "two_year", True),
    (2005, "two_year", False), (2010, "two_year", False),
    (2005, "five_year", True), (2004, "five_year", False),
    (2010, "five_year", False),
    (1900, "all_years", True), (2010, "all_years", True),
])
def test_in_window(year, kind, expected):
    assert _totals([f"J A|{year}"], kind, INTEGER)["A"] == int(expected)


@pytest.mark.parametrize("kind,years", [
    ("two_year", [2008, 2009]), ("five_year", [2005, 2006, 2007, 2008, 2009]),
    ("all_years", list(range(1900, 2011))), ("census_only", [2010])])
def test_window_years(kind, years):
    assert list(window_years(kind, CENSUS)) == years
    if kind != "census_only":
        assert list(WindowSpec(kind, CENSUS).years) == years


@pytest.mark.parametrize("census,kind,years", [
    (1900, "two_year", []), (1900, "five_year", []),
    (1901, "two_year", [1900]), (1902, "five_year", [1900, 1901]),
    (1904, "five_year", [1900, 1901, 1902, 1903]),
    (1905, "five_year", [1900, 1901, 1902, 1903, 1904]),
    (1900, "all_years", [1900]), (1900, "census_only", [1900])])
def test_no_window_starts_before_1900(census, kind, years):
    assert list(window_years(kind, census)) == years


def test_empty_window_counts_nothing():
    """The two-year window of census year 1900 holds no year, so neither a
    pre-1900 nor a census-year reference falls in it."""
    assert list(WindowSpec("two_year", 1900).years) == []
    journals = JournalTable([Journal("A", "A", ["J A"], "F", {})])
    corpus = Corpus(1900, [Document("d1", "A", 1900, "article",
                                    ["J A|1898", "J A|1899", "J A|1900"], 3)])
    for mode in (INTEGER, FRACTIONAL, FRACTIONAL_PLUS):
        table = count_citations(corpus, journals, "two_year", mode)
        assert table.values == {"A": 0} and table.contributing_docs == 0


def test_window_years_unknown_kind():
    with pytest.raises(CountError):
        window_years("ten_year", CENSUS)


def test_integer_mode_has_no_fraction_base():
    assert CountMode("integer", "in_window") == INTEGER
    with pytest.raises(CountError, match="integer counting has no fraction"):
        CountMode("integer", "all_refs")


def test_variable_ids():
    assert total_id("two_year", INTEGER.label) == "TC-IC2"
    assert total_id("five_year", FRACTIONAL.label) == "TC-FC5"
    assert total_id("all_years", INTEGER.label) == "TC-IC"
    assert total_id("two_year", FRACTIONAL_PLUS.label) == "TC-FC2+"


def test_fractional_weights_in_window():
    """The unmatched venue widens k to 4 but is not credited."""
    totals = _totals(["J A|2009", "J A|2008", "J B|2009", "UNKNOWN|2008"],
                     "two_year", FRACTIONAL)
    assert totals == {"A": 0.25 + 0.25, "B": 0.25}


def test_fractional_weights_whole_list_base():
    totals = _totals(["J A|2009", "J A|2008", "J B|2009", "J B|2008"],
                     "two_year", FRACTIONAL_PLUS, nref=40)
    assert totals == {"A": 0.025 + 0.025, "B": 0.025 + 0.025}


def test_fractional_weights_no_in_window_refs():
    corpus, journals = _one_doc(["J A|2001", "J B|1999"])
    table = count_citations(corpus, journals, "two_year", FRACTIONAL)
    assert table.values == {"A": 0.0, "B": 0.0}
    assert table.contributing_docs == 0


def test_integer_weights_only_matched():
    assert _totals(["J A|2009", "UNKNOWN|2009"], "two_year",
                   INTEGER) == {"A": 1, "B": 0}


def test_single_doc_weights_sum_to_one():
    corpus, journals = _one_doc(["J A|2009", "J A|2008"])
    table = count_citations(corpus, journals, "two_year", FRACTIONAL)
    assert table.values["A"] == pytest.approx(1.0)
    assert table.values["B"] == 0.0
    integer = count_citations(corpus, journals, "two_year", INTEGER)
    assert integer.values["A"] == 2


def test_counts_match_oracle_on_fixture(merged_fixture, oracle):
    corpus, journals = merged_fixture
    for kind, suffix in (("two_year", "2"), ("five_year", "5"), ("all_years", "")):
        for mode, label in ((INTEGER, "IC"), (FRACTIONAL, "FC"),
                            (FRACTIONAL_PLUS, "FC+")):
            if label == "FC+" and kind == "all_years":
                continue
            name = f"TC-{label[:2]}{suffix}" + ("+" if label == "FC+" else "")
            table = count_citations(corpus, journals, kind, mode)
            expected = oracle["counts"][name]
            assert set(table.values) == set(expected)
            for jid, v in expected.items():
                if mode is INTEGER:
                    assert table.values[jid] == v, (name, jid)
                else:
                    assert table.values[jid] == pytest.approx(v, rel=1e-9), (name, jid)
            assert table.contributing_docs == oracle["counts"][name + ":contributing"]


def test_window_monotonicity(merged_fixture):
    corpus, journals = merged_fixture
    t2 = count_citations(corpus, journals, "two_year", INTEGER)
    t5 = count_citations(corpus, journals, "five_year", INTEGER)
    ta = count_citations(corpus, journals, "all_years", INTEGER)
    for jid in t2.values:
        assert t2.values[jid] <= t5.values[jid] <= ta.values[jid]


def test_per_document_bound_fractional(merged_fixture):
    """With the in-window base, total handed out never exceeds the number
    of contributing documents."""
    corpus, journals = merged_fixture
    for kind in ("two_year", "five_year", "all_years"):
        table = count_citations(corpus, journals, kind, FRACTIONAL)
        assert sum(table.values.values()) <= table.contributing_docs + 1e-12


def test_whole_list_totals_below_in_window_totals(merged_fixture):
    corpus, journals = merged_fixture
    for kind in ("two_year", "five_year"):
        fc = count_citations(corpus, journals, kind, FRACTIONAL)
        fcp = count_citations(corpus, journals, kind, FRACTIONAL_PLUS)
        for jid in fc.values:
            assert fcp.values[jid] <= fc.values[jid] + 1e-12


def test_document_permutation_invariance(fixture_paths, merged_fixture):
    corpus, journals = merged_fixture
    cases = [(kind, mode)
             for kind in ("two_year", "five_year", "all_years")
             for mode in (FRACTIONAL, FRACTIONAL_PLUS)]
    base = [count_citations(corpus, journals, w, mode).values
            for w, mode in cases]
    rng = np.random.default_rng(7)
    for _ in range(3):
        shuffled = Corpus(corpus.census_year,
                          [corpus.documents[i]
                           for i in rng.permutation(len(corpus.documents))])
        for (w, mode), expected in zip(cases, base):
            other = count_citations(shuffled, journals, w, mode)
            assert other.values == expected, (w, mode.label)


def test_integer_mode_permutation_exact(merged_fixture):
    corpus, journals = merged_fixture
    base = count_citations(corpus, journals, "all_years", INTEGER)
    shuffled = Corpus(corpus.census_year, list(reversed(corpus.documents)))
    other = count_citations(shuffled, journals, "all_years", INTEGER)
    assert other.values == base.values


def test_count_table_tsv_round_digits(merged_fixture, tmp_path):
    corpus, journals = merged_fixture
    table = count_citations(corpus, journals, "two_year", FRACTIONAL)
    out = tmp_path / "t.tsv"
    table.to_tsv(out)
    lines = out.read_text().splitlines()
    assert lines[0] == "journal_id\twindow\tmode\tvalue"
    value = lines[1].split("\t")[3]
    assert len(value.split(".")[1]) == 9

    integer = count_citations(corpus, journals, "two_year", INTEGER)
    integer.to_tsv(out)
    assert "." not in out.read_text().splitlines()[1].split("\t")[3]


def test_nref_below_in_window_count_names_its_document():
    docs = [Document("d0", "A", CENSUS, "article", [], 0),
            Document("d1", "A", CENSUS, "article", ["J A|2009"], 1),
            Document("d2", "A", CENSUS, "article", ["J A|2009", "J B|2008"], 1),
            Document("d3", "A", CENSUS, "article", [], 0)]
    journals = JournalTable([Journal("A", "A", ["J A"], "F", {}),
                             Journal("B", "B", ["J B"], "F", {})])
    corpus = Corpus(CENSUS, docs)
    assert corpus.load_errors == [
        "documents:3: nref 1 smaller than reference list (2)"]
    assert corpus.doc_ids == ["d0", "d1", "d3"]
    table = count_citations(corpus, journals, "two_year", FRACTIONAL)
    assert table.values == {"A": 1.0, "B": 0.0}
    assert table.contributing_docs == 1


# --- the counting pass against the per-document loop -------------------------

def _tie_groups(values, exact):
    """The floats that each group of journals equal as rationals got."""
    groups = {}
    for jid, v in exact.items():
        groups.setdefault(v, set()).add(values[jid])
    return groups


def test_equal_fixture_totals_are_equal_floats(merged_fixture, oracle):
    corpus, journals = merged_fixture
    for kind, mode in COUNT_VARIABLES:
        table = count_citations(corpus, journals, kind, mode)
        for floats in _tie_groups(table.values,
                                  oracle["counts"][table.variable_id]).values():
            assert len(floats) == 1, (table.variable_id, floats)


# journals J0..J59 with abbreviation "V<i>"; a reference to "V<i>|<year>"
_JOURNALS = [Journal(f"J{i}", f"J{i}", [f"V{i}"], "F", {}) for i in range(60)]
_MANY = JournalTable(_JOURNALS)
_YEARS = st.sampled_from(["2009", "2008", "2007", "2005", "2004", "1950",
                          "1903", "1901", "1900", "1899", "2010", "2011",
                          "18", "x"])
_VENUES = st.one_of(st.integers(0, 59).map(lambda i: f"V{i}"),
                    st.just("UNKNOWN"))
# matched, unmatched, out-of-window, pre-1900, post-census and unparseable
# years, in both layouts
_ANY_REF = st.one_of(
    st.tuples(_VENUES, _YEARS).map("|".join),
    st.tuples(_YEARS, _VENUES).map(lambda t: f"SMITH, {t[0]}, {t[1]}, V1"),
    st.just("ANON"))
# reference lists, unmatched ones included, and NRef from the list length
# to far above it
_DOCS = st.lists(st.tuples(st.lists(_ANY_REF, max_size=6),
                           st.integers(0, 10**6)), max_size=300)


@given(_DOCS, st.sampled_from([1900, 1902, 1904, CENSUS]), st.integers(1, 60))
@example([], CENSUS, 2)
@example([([f"V{i}|1899", f"V{i}|1900"], i) for i in range(200)], 1901, 60)
@settings(max_examples=100, deadline=None)
def test_counts_equal_oracle_with_empty_reference_lists(docs, census,
                                                        n_journals):
    """All 8 totals and the contributing documents equal the oracle's, with
    the first, a middle and the last document citing nothing, at census
    years whose windows start before 1900 too, over few or many journals
    and up to hundreds of distinct NRef values; totals equal as rationals
    are equal floats."""
    if docs:
        for i in {0, len(docs) // 2, len(docs) - 1}:
            docs[i] = ([], docs[i][1])
    journals = JournalTable(_JOURNALS[:n_journals])
    oracle_journals = {j.journal_id: {"abbrevs": j.abbreviations}
                       for j in _JOURNALS[:n_journals]}
    corpus = Corpus(census, [
        Document(f"d{i}", "J0", census, "article", refs, len(refs) + extra)
        for i, (refs, extra) in enumerate(docs)])
    oracle_docs = [{"refs": refs, "nref": len(refs) + extra}
                   for refs, extra in docs]
    ref_table = match_corpus(corpus, journals)
    for kind, mode in COUNT_VARIABLES:
        table = count_citations(corpus, journals, kind, mode,
                                ref_table=ref_table)
        expected, contributing = oracle_count(
            oracle_docs, oracle_journals, census, kind, mode.label)
        assert table.contributing_docs == contributing, (kind, mode.label)
        assert set(table.values) == set(expected)
        for jid, v in expected.items():
            got = table.values[jid]
            if mode is INTEGER:
                assert type(got) is int and got == v, (kind, jid)
            else:
                assert type(got) is float, (kind, mode.label, jid)
                assert got == pytest.approx(float(v), rel=1e-12, abs=0), (
                    kind, mode.label, jid)
        for floats in _tie_groups(table.values, expected).values():
            assert len(floats) == 1, (kind, mode.label, floats)


def _cites(journal, divisors, start=0, padded=True):
    """One document per divisor k, citing ``journal`` once, with NRef k:
    among k in-window references (the rest unmatched) when ``padded``,
    else alone, so that only its FC+ weight is 1/k."""
    return [Document(f"{journal}{start + i}", "J0", CENSUS, "article",
                     [f"V{journal[1:]}|2009"]
                     + ["UNKNOWN|2009"] * (k - 1 if padded else 0), k)
            for i, k in enumerate(divisors)]


def test_a_lone_total_keeps_its_summed_float():
    # 1/2 + 1/3 + 1/5 added in that order is one ulp below 31/30
    corpus = Corpus(CENSUS, _cites("J1", [2, 3, 5]))
    for mode in (FRACTIONAL, FRACTIONAL_PLUS):
        table = count_citations(corpus, _MANY, "two_year", mode)
        assert table.values["J1"] == 1.0333333333333332


# 1/2 + 1/3 + 1/7 + 1/43 = 1 - 1/1806
_SYLVESTER = [2, 3, 7, 43]


@given(st.integers(2, 40), st.lists(st.integers(1, 60), max_size=12))
@example(2, [3, 5])
# exact totals just below and just above 1 and 2
@example(1807, _SYLVESTER)
@example(1805, _SYLVESTER)
@example(1807, [1, *_SYLVESTER])
@example(1805, [1, *_SYLVESTER])
@example(2**27 + 1, _SYLVESTER + [1806])
@example(2**27 + 1, [1, 1])
# FC+ divisors above 2**53: d(d+1) and NRef itself
@example(2**27 + 1, [1])
@example(3 * 2**30 + 1, [2**60 + 1, 2**53 + 1, 3])
@example(3_000_000_001, [2**62 + 3, *_SYLVESTER, 1806])
@settings(max_examples=60, deadline=None)
def test_equal_totals_by_other_terms_are_equal_floats(d, shared):
    """Journal J1 gets 1/d and J2 1/(d+1) + 1/(d(d+1)), the same rational;
    both also get 1/k for each k in ``shared``. A divisor too large for a
    list of that many references is tested in FC+ alone."""
    padded = max([d * (d + 1), *shared]) <= 2000
    corpus = Corpus(CENSUS, _cites("J1", [d, *shared], padded=padded)
                    + _cites("J2", [d + 1, d * (d + 1), *shared], start=100,
                             padded=padded))
    for mode in (FRACTIONAL, FRACTIONAL_PLUS) if padded else (FRACTIONAL_PLUS,):
        table = count_citations(corpus, _MANY, "two_year", mode)
        exact = sum(Fraction(1, k) for k in [d, *shared])
        assert table.values["J1"] == table.values["J2"] == pytest.approx(
            float(exact), rel=1e-12)


# The tracemalloc peak of this FC+ count before the counting pass was
# restructured: one np.repeat over every reference and an int64 np.unique.
_FC_PLUS_PEAK_BEFORE = 2_834_451


def test_fc_plus_memory_with_distinct_nref(fixture_paths):
    journals = load_journals(fixture_paths["journals"])
    abbrevs = [a for j in journals for a in j.abbreviations]
    corpus = Corpus(CENSUS, [
        Document(f"d{i}", "J01", CENSUS, "article",
                 [f"{abbrevs[(i + r) % len(abbrevs)]}|{2008 + (i + r) % 3}"
                  for r in range(3)], 3 + i)
        for i in range(20000)])
    ref_table = match_corpus(corpus, journals)
    tracemalloc.start()
    try:
        table = count_citations(corpus, journals, "two_year", FRACTIONAL_PLUS,
                                ref_table=ref_table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.contributing_docs == 20000
    assert peak <= _FC_PLUS_PEAK_BEFORE


def test_pair_keys_past_int32():
    """60,000 journals × 40,000 distinct NRef values: the (journal,
    divisor) keys pass 2**31."""
    journals = JournalTable([Journal(f"J{i}", f"J{i}", [f"V{i}"], "F", {})
                             for i in range(60000)])
    corpus = Corpus(CENSUS, [
        Document(f"d{i}", "J0", CENSUS, "article", [f"V{59999 - i}|2009"],
                 i + 1) for i in range(40000)])
    table = count_citations(corpus, journals, "two_year", FRACTIONAL_PLUS)
    assert all(table.values[f"J{59999 - i}"] == 1 / (i + 1)
               for i in range(40000))
    assert sum(table.values.values()) == pytest.approx(
        sum(1 / n for n in range(1, 40001)))


def test_window_arrays_serve_only_their_corpus():
    """One ref table read with two corpora of the same references, split
    into documents differently, gives each corpus its own k."""
    refs = ["V1|2009", "V1|2009", "V2|2008"]
    first = Corpus(CENSUS, [Document("a", "J0", CENSUS, "article", refs[:2], 2),
                            Document("b", "J0", CENSUS, "article", refs[2:], 1)])
    second = Corpus(CENSUS, [Document("a", "J0", CENSUS, "article", refs[:1], 1),
                             Document("b", "J0", CENSUS, "article", refs[1:], 2)])
    ref_table = match_corpus(first, _MANY)
    for corpus, j1 in ((first, 1.0), (second, 1.5), (first, 1.0)):
        table = count_citations(corpus, _MANY, "two_year", FRACTIONAL,
                                ref_table=ref_table)
        fresh = count_citations(corpus, _MANY, "two_year", FRACTIONAL)
        assert table.values == fresh.values
        assert table.values["J1"] == j1
