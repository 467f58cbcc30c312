import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from jifnorm import (Corpus, Document, Journal, JournalTable, load_corpus,
                     match_corpus)
from jifnorm.cli import COUNT_VARIABLES
from jifnorm.counts import (CountError, CountMode, FRACTIONAL, FRACTIONAL_PLUS,
                            INTEGER, WindowSpec, count_citations, variable_id,
                            window_years)

from conftest import CENSUS
from _oracle import count as oracle_count, full_pipeline


@pytest.fixture(scope="module")
def oracle(data_dir):
    return full_pipeline(data_dir / "fixture_corpus.jsonl",
                         data_dir / "fixture_journals.tsv", CENSUS)


def _one_doc(refs, nref=None):
    journals = JournalTable([Journal("A", "A", ["J A"], "F", {}),
                             Journal("B", "B", ["J B"], "F", {})])
    doc = Document("d1", "A", 2010, "article", refs,
                   nref if nref is not None else len(refs))
    return Corpus(2010, [doc]), journals


def _totals(refs, kind, mode, nref=None):
    corpus, journals = _one_doc(refs, nref)
    return count_citations(corpus, journals, WindowSpec(kind, CENSUS),
                           mode).values


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
        w = WindowSpec(kind, CENSUS)
        assert (w.lo, w.hi) == (years[0], years[-1])


def test_window_years_unknown_kind():
    with pytest.raises(CountError):
        window_years("ten_year", CENSUS)


def test_integer_mode_has_no_fraction_base():
    assert CountMode("integer", "in_window") == INTEGER
    with pytest.raises(CountError, match="integer counting has no fraction"):
        CountMode("integer", "all_refs")


def test_variable_ids():
    assert variable_id(WindowSpec("two_year", CENSUS), INTEGER) == "TC-IC2"
    assert variable_id(WindowSpec("five_year", CENSUS), FRACTIONAL) == "TC-FC5"
    assert variable_id(WindowSpec("all_years", CENSUS), INTEGER) == "TC-IC"
    assert variable_id(WindowSpec("two_year", CENSUS), FRACTIONAL_PLUS) == "TC-FC2+"


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
    table = count_citations(corpus, journals, WindowSpec("two_year", CENSUS),
                            FRACTIONAL)
    assert table.values == {"A": 0.0, "B": 0.0}
    assert table.contributing_docs == 0


def test_integer_weights_only_matched():
    assert _totals(["J A|2009", "UNKNOWN|2009"], "two_year",
                   INTEGER) == {"A": 1, "B": 0}


def test_single_doc_weights_sum_to_one():
    corpus, journals = _one_doc(["J A|2009", "J A|2008"])
    table = count_citations(corpus, journals, WindowSpec("two_year", CENSUS),
                            FRACTIONAL)
    assert table.values["A"] == pytest.approx(1.0)
    assert table.values["B"] == 0.0
    integer = count_citations(corpus, journals, WindowSpec("two_year", CENSUS),
                              INTEGER)
    assert integer.values["A"] == 2


def test_counts_match_oracle_on_fixture(merged_fixture, oracle):
    corpus, journals = merged_fixture
    for kind, suffix in (("two_year", "2"), ("five_year", "5"), ("all_years", "")):
        w = WindowSpec(kind, CENSUS)
        for mode, label in ((INTEGER, "IC"), (FRACTIONAL, "FC"),
                            (FRACTIONAL_PLUS, "FC+")):
            if label == "FC+" and kind == "all_years":
                continue
            name = f"TC-{label[:2]}{suffix}" + ("+" if label == "FC+" else "")
            table = count_citations(corpus, journals, w, mode)
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
    t2 = count_citations(corpus, journals, WindowSpec("two_year", CENSUS), INTEGER)
    t5 = count_citations(corpus, journals, WindowSpec("five_year", CENSUS), INTEGER)
    ta = count_citations(corpus, journals, WindowSpec("all_years", CENSUS), INTEGER)
    for jid in t2.values:
        assert t2.values[jid] <= t5.values[jid] <= ta.values[jid]


def test_per_document_bound_fractional(merged_fixture):
    """With the in-window base, total handed out never exceeds the number
    of contributing documents."""
    corpus, journals = merged_fixture
    for kind in ("two_year", "five_year", "all_years"):
        table = count_citations(corpus, journals, WindowSpec(kind, CENSUS),
                                FRACTIONAL)
        assert sum(table.values.values()) <= table.contributing_docs + 1e-12


def test_whole_list_totals_below_in_window_totals(merged_fixture):
    corpus, journals = merged_fixture
    for kind in ("two_year", "five_year"):
        fc = count_citations(corpus, journals, WindowSpec(kind, CENSUS), FRACTIONAL)
        fcp = count_citations(corpus, journals, WindowSpec(kind, CENSUS),
                              FRACTIONAL_PLUS)
        for jid in fc.values:
            assert fcp.values[jid] <= fc.values[jid] + 1e-12


def test_document_permutation_invariance(fixture_paths, merged_fixture):
    corpus, journals = merged_fixture
    cases = [(WindowSpec(kind, CENSUS), mode)
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
            assert other.values == expected, (w.kind, mode.label)


def test_integer_mode_permutation_exact(merged_fixture):
    corpus, journals = merged_fixture
    base = count_citations(corpus, journals, WindowSpec("all_years", CENSUS),
                           INTEGER)
    shuffled = Corpus(corpus.census_year, list(reversed(corpus.documents)))
    other = count_citations(shuffled, journals, WindowSpec("all_years", CENSUS),
                            INTEGER)
    assert other.values == base.values


def test_census_year_mismatch_is_error(merged_fixture):
    corpus, journals = merged_fixture
    with pytest.raises(CountError):
        count_citations(corpus, journals, WindowSpec("two_year", 2009), INTEGER)


def test_count_table_tsv_round_digits(merged_fixture, tmp_path):
    corpus, journals = merged_fixture
    table = count_citations(corpus, journals, WindowSpec("two_year", CENSUS),
                            FRACTIONAL)
    out = tmp_path / "t.tsv"
    table.to_tsv(out)
    lines = out.read_text().splitlines()
    assert lines[0] == "journal_id\twindow\tmode\tvalue"
    value = lines[1].split("\t")[3]
    assert len(value.split(".")[1]) == 9

    integer = count_citations(corpus, journals, WindowSpec("two_year", CENSUS),
                              INTEGER)
    integer.to_tsv(out)
    assert "." not in out.read_text().splitlines()[1].split("\t")[3]


# --- k from the corpus's reference offsets ----------------------------------

_ORACLE_JOURNALS = {"A": {"abbrevs": ["J A"]}, "B": {"abbrevs": ["J B"]}}
# matched, unmatched, out-of-window, pre-1900, post-census and unparseable
# years, in both layouts
_REFS = st.sampled_from([
    "J A|2009", "J A|2008", "J B|2007", "J B|2005", "J A|2004", "J B|1950",
    "J A|2010", "UNKNOWN|2009", "UNKNOWN|2006", "J A|1899", "J B|2011",
    "J A|18", "SMITH, 2008, J B, V1", "DOE, 2006, J A", "X, 2009, NOWHERE",
    "ANON"])
_DOCS = st.lists(st.tuples(st.lists(_REFS, max_size=6),
                           st.integers(0, 3)), max_size=8)


@given(_DOCS)
@example([])
@settings(max_examples=150, deadline=None)
def test_counts_equal_oracle_with_empty_reference_lists(docs):
    """All 8 count variables equal the oracle's, with the first, a middle
    and the last document citing nothing."""
    if docs:
        for i in {0, len(docs) // 2, len(docs) - 1}:
            docs[i] = ([], docs[i][1])
    corpus = Corpus(CENSUS, [
        Document(f"d{i}", "A", CENSUS, "article", refs, len(refs) + extra)
        for i, (refs, extra) in enumerate(docs)])
    journals = JournalTable([Journal("A", "A", ["J A"], "F", {}),
                             Journal("B", "B", ["J B"], "F", {})])
    oracle_docs = [{"refs": refs, "nref": len(refs) + extra}
                   for refs, extra in docs]
    ref_table = match_corpus(corpus, journals)
    for kind, mode in COUNT_VARIABLES:
        table = count_citations(corpus, journals, WindowSpec(kind, CENSUS),
                                mode, ref_table=ref_table)
        expected, contributing = oracle_count(
            oracle_docs, _ORACLE_JOURNALS, CENSUS, kind, mode.label)
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
    table = count_citations(corpus, journals, WindowSpec("two_year", CENSUS),
                            FRACTIONAL)
    assert table.values == {"A": 1.0, "B": 0.0}
    assert table.contributing_docs == 1
