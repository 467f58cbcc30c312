import json
from dataclasses import replace

import numpy as np
import pytest

from jifnorm import corpus as corpus_mod
from jifnorm import (Corpus, CorpusFormatError, Document, Journal,
                     JournalTable, JournalTableError, load_corpus,
                     merge_journal_parts, save_corpus, validate_corpus)
from jifnorm.counts import FRACTIONAL, INTEGER, count_citations

from conftest import CENSUS
from _oracle import validation_tally, read_corpus, read_journals, merge_journals


def test_fixture_loads_cleanly(raw_fixture):
    corpus, journals = raw_fixture
    assert len(corpus.documents) == 60
    assert not corpus.load_errors
    assert not corpus.load_warnings
    assert len(journals) == 12
    ids = [d.doc_id for d in corpus.documents]
    assert len(set(ids)) == 60


def test_malformed_record_is_collected_not_fatal(fixture_paths):
    corpus = load_corpus(fixture_paths["bad_corpus"], census_year=CENSUS)
    assert len(corpus.documents) == 3
    assert len(corpus.load_errors) == 1
    assert ":2:" in corpus.load_errors[0]


def test_missing_file_is_fatal(tmp_path):
    with pytest.raises(CorpusFormatError):
        load_corpus(tmp_path / "nope.jsonl", census_year=CENSUS)


def test_tsv_bad_header_is_fatal(tmp_path):
    path = tmp_path / "c.tsv"
    path.write_text("doc\tjournal\tyear\n", encoding="utf-8")
    with pytest.raises(CorpusFormatError):
        load_corpus(path, census_year=CENSUS)


def test_tsv_round_trip_equals_jsonl(raw_fixture, tmp_path):
    corpus, _ = raw_fixture
    out = tmp_path / "corpus.tsv"
    save_corpus(corpus, out, format="tsv")
    back = load_corpus(out, census_year=CENSUS)
    assert back.documents == corpus.documents


@pytest.mark.parametrize("doc_id, journal, ref", [
    ("a\tb", "J01", "X|2009"), ("a\nb", "J01", "X|2009"),
    ("a\rb", "J01", "X|2009"), ("D1", "J\t01", "X|2009"),
    ("D1", "J\n01", "X|2009"), ("D1", "J\r01", "X|2009"),
    ("D1", "J01", "X\tY|2009"), ("D1", "J01", "X Y\nZ|2009"),
    ("D1", "J01", "X\rY|2009"), ("#D1", "J01", "X|2009"),
    ("D1", "J01", "X;Y|2009"),
], ids=["id-tab", "id-lf", "id-cr", "journal-tab", "journal-lf",
        "journal-cr", "ref-tab", "ref-lf", "ref-cr", "id-hash", "ref-semicolon"])
def test_tsv_refuses_a_document_it_cannot_read_back(tmp_path, doc_id,
                                                     journal, ref):
    """Such a document is refused in TSV, and JSONL keeps it unchanged."""
    corpus = Corpus(CENSUS, [T1, Document(doc_id, journal, 2009, "article",
                                          [ref], 1)])
    assert len(corpus.documents) == 2 and not corpus.load_errors
    with pytest.raises(CorpusFormatError, match="would not read back"):
        save_corpus(corpus, tmp_path / "c.tsv", format="tsv")
    save_corpus(corpus, tmp_path / "c.jsonl")
    back = load_corpus(tmp_path / "c.jsonl", census_year=CENSUS)
    assert back == corpus and not back.load_errors


# --- a corpus file's first line gives its format ----------------------------

TSV_HEADER = "doc_id\tjournal\tyear\ttype\tnref\trefs\n"
TSV_ROW = "T1\tJ01\t2010\tarticle\t1\tGAMMA CHEM REV|2009\n"
T1 = Document("T1", "J01", 2010, "article", ["GAMMA CHEM REV|2009"], 1)


@pytest.mark.parametrize("name", ["c.tsv", "c.jsonl", "c.TSV", "corpus"])
def test_format_comes_from_the_first_line_not_the_name(tmp_path, name):
    """JSONL named ``.tsv`` is read as JSONL and TSV of any name as TSV; a
    first line that begins with ``{`` is JSONL even if it holds a tab."""
    texts = {"jsonl": "# JSONL\n" + _jsonl([T1]),
             "tsv": "# TSV\n\n" + TSV_HEADER + TSV_ROW,
             "tab": '{"doc_id":\t"T1", "journal": "J01", "year": 2010, '
                    '"nref": 1, "type": "article", '
                    '"refs": ["GAMMA CHEM REV|2009"]}\n'}
    for kind, text in texts.items():
        path = tmp_path / kind / name
        path.parent.mkdir()
        path.write_text(text, encoding="utf-8")
        corpus = load_corpus(path, census_year=CENSUS)
        assert (corpus.load_errors, corpus.load_warnings) == ([], []), kind
        assert corpus.documents == [T1], kind


@pytest.mark.parametrize("text", ["", "\n \n", "# a comment\n\n# another\n"],
                         ids=["empty", "blank", "comments"])
def test_empty_or_comment_only_tsv_corpus_is_empty(tmp_path, text):
    path = tmp_path / "c.tsv"
    path.write_text(text, encoding="utf-8")
    corpus = load_corpus(path, census_year=CENSUS)
    assert (corpus.load_errors, corpus.load_warnings) == ([], [])
    assert len(corpus.documents) == 0


def test_repeated_tsv_header_is_no_record(tmp_path, monkeypatch):
    """In any byte range: the second header opens the second of two."""
    monkeypatch.setattr(corpus_mod, "_MIN_RANGE_BYTES", 16)
    path = tmp_path / "c.tsv"
    path.write_text(TSV_HEADER + TSV_ROW + TSV_HEADER
                    + "T2\tJ01\t2010\tarticle\t0\t\n", encoding="utf-8")
    assert corpus_mod._byte_ranges(path, 2)[1][0] == len(TSV_HEADER + TSV_ROW)
    for threads in (1, 2):
        corpus = load_corpus(path, census_year=CENSUS, threads=threads)
        assert (corpus.load_errors, corpus.load_warnings) == ([], [])
        assert corpus.documents == [
            T1, Document("T2", "J01", 2010, "article", [], 0)]


def test_whitespace_line_with_a_tab_before_tsv_header_is_a_record(tmp_path):
    """A line of whitespace is no record to the format rule, but a TSV line
    that holds a tab is a row."""
    path = tmp_path / "c.tsv"
    path.write_text(" \t \n" + TSV_HEADER + TSV_ROW, encoding="utf-8")
    corpus = load_corpus(path, census_year=CENSUS)
    assert corpus.load_errors == ["c.tsv:1: expected 6 columns, got 2"]
    assert corpus.documents == [T1]


def test_load_serialize_load_is_idempotent(raw_fixture, tmp_path):
    corpus, _ = raw_fixture
    out = tmp_path / "roundtrip.jsonl"
    save_corpus(corpus, out)
    back = load_corpus(out, census_year=CENSUS)
    assert back == corpus
    # and the bytes themselves are stable on a second pass
    out2 = tmp_path / "roundtrip2.jsonl"
    save_corpus(back, out2)
    assert out.read_bytes() == out2.read_bytes()


def test_doc_type_coercion_warns(tmp_path):
    path = tmp_path / "c.jsonl"
    rec = {"doc_id": "X1", "journal": "J01", "year": 2010,
           "type": "editorial", "nref": 0, "refs": []}
    path.write_text(json.dumps(rec) + "\n", encoding="utf-8")
    corpus = load_corpus(path, census_year=CENSUS)
    assert corpus.documents[0].doc_type == "other"
    assert corpus.load_warnings


def test_rejected_duplicate_leaves_no_coercion_warning(tmp_path):
    """Only an accepted record may warn: a duplicate doc_id with an unknown
    type is one load error and nothing else, in JSONL and in TSV."""
    recs = [{"doc_id": "E0", "journal": "J01", "year": 2010, "type": t,
             "nref": 0, "refs": []} for t in ("article", "weird")]
    jsonl = tmp_path / "c.jsonl"
    jsonl.write_text("".join(json.dumps(r) + "\n" for r in recs),
                     encoding="utf-8")
    tsv = tmp_path / "c.tsv"
    tsv.write_text("doc_id\tjournal\tyear\ttype\tnref\trefs\n"
                   "E0\tJ01\t2010\tarticle\t0\t\n"
                   "E0\tJ01\t2010\tweird\t0\t\n", encoding="utf-8")
    for path, line in ((jsonl, 2), (tsv, 3)):
        corpus = load_corpus(path, census_year=CENSUS)
        assert corpus.load_errors == [f"{path.name}:{line}: duplicate doc_id 'E0'"]
        assert corpus.load_warnings == []
        assert [d.doc_type for d in corpus.documents] == ["article"]


def test_mistyped_jsonl_fields_are_record_errors(tmp_path):
    """JSONL values keep their JSON types: no string is split into
    characters and no float or bool is truncated to an integer."""
    good = {"doc_id": "X", "journal": "J01", "year": 2010,
            "type": "article", "nref": 2, "refs": ["J A|2008"]}
    path = tmp_path / "c.jsonl"
    path.write_text("".join(json.dumps(dict(good, doc_id=f"X{i}", **bad)) + "\n"
                            for i, bad in enumerate([
                                {"refs": "J A|2008"},
                                {"nref": 2.9},
                                {"year": 2010.7, "nref": True}])),
                    encoding="utf-8")
    corpus = load_corpus(path, census_year=CENSUS)
    assert len(corpus.load_errors) == 3
    assert not corpus.documents and not corpus.load_warnings
    for bad in ({"nref": True}, {"year": 2010.0}, {"refs": ["J A|2008", 7]},
                {"type": 5}, {"journal": None}, {"journal": 1}, {"doc_id": 7},
                {"doc_id": None}):
        path.write_text(json.dumps(dict(good, **bad)) + "\n", encoding="utf-8")
        corpus = load_corpus(path, census_year=CENSUS)
        assert len(corpus.load_errors) == 1 and not corpus.documents, bad


def test_nref_beyond_int64_is_record_error(tmp_path):
    too_big, largest = 2**63, 2**63 - 1
    jsonl = tmp_path / "c.jsonl"
    jsonl.write_text("".join(
        json.dumps({"doc_id": f"X{n}", "journal": "J01", "year": 2010,
                    "type": "article", "nref": n, "refs": ["J A|2008"]}) + "\n"
        for n in (too_big, 10**19, largest)), encoding="utf-8")
    tsv = tmp_path / "c.tsv"
    tsv.write_text("\t".join(["doc_id", "journal", "year", "type", "nref", "refs"])
                   + "".join(f"\nX{n}\tJ01\t2010\tarticle\t{n}\tJ A|2008"
                             for n in (too_big, 10**19, largest)) + "\n",
                   encoding="utf-8")
    for path in (jsonl, tsv):
        corpus = load_corpus(path, census_year=CENSUS)
        assert len(corpus.load_errors) == 2, path
        assert [d.ref_count for d in corpus.documents] == [largest]


def test_nref_below_reference_list_is_record_error(tmp_path):
    path = tmp_path / "c.jsonl"
    rec = {"doc_id": "X1", "journal": "J01", "year": 2010,
           "type": "article", "nref": 1, "refs": ["A|2008", "B|2009"]}
    path.write_text(json.dumps(rec) + "\n", encoding="utf-8")
    corpus = load_corpus(path, census_year=CENSUS)
    assert not corpus.documents
    assert len(corpus.load_errors) == 1


def test_truncated_reference_list_is_allowed(raw_fixture):
    corpus, _ = raw_fixture
    doc = next(d for d in corpus.documents if d.doc_id == "J02-01")
    assert doc.ref_count == 12
    assert len(doc.refs) == 4


def test_ambiguous_abbreviation_rejected():
    mk = lambda jid, abbrev: Journal(jid, jid, [abbrev], "F", {})
    with pytest.raises(JournalTableError):
        JournalTable([mk("A", "J SHARED ABBR"), mk("B", "j shared abbr.")])


def test_merge_sums_items_and_unions_abbrevs(merged_fixture):
    _, journals = merged_fixture
    assert len(journals) == 10
    assert "J09B" not in journals.by_id
    merged = journals.by_id["J09A"]
    assert merged.items_by_year[2008] == 20 + 14 + 8
    assert set(merged.abbreviations) == {"IOTA GEOSCI A", "IOTA GEOSCI B",
                                         "IOTA GEOSCI C"}
    assert merged.merge_group is None


def test_merge_reassigns_documents(merged_fixture):
    corpus, _ = merged_fixture
    assert not any(d.journal_id in ("J09B", "J09C") for d in corpus.documents)
    assert sum(d.journal_id == "J09A" for d in corpus.documents) == 15


def test_merge_without_groups_is_identity():
    journals = JournalTable([Journal("A", "A", ["J A"], "F", {2009: 1})])
    corpus = Corpus(2010, [Document("d", "A", 2010, "article", [], 0)])
    c2, j2 = merge_journal_parts(corpus, journals)
    assert c2 is corpus and j2 is journals


def test_merge_across_fields_is_fatal():
    journals = JournalTable([
        Journal("A", "A", ["J A"], "PHYS", {}, merge_group="g"),
        Journal("B", "B", ["J B"], "CHEM", {}, merge_group="g")])
    corpus = Corpus(2010, [])
    with pytest.raises(JournalTableError):
        merge_journal_parts(corpus, journals)


def test_merge_conserves_counts(raw_fixture, merged_fixture):
    """Citations credited to the three parts before merging must equal the
    citations credited to the merged journal, window by window."""
    pre_c, pre_j = raw_fixture
    post_c, post_j = merged_fixture
    parts = {"J09A", "J09B", "J09C"}
    for kind in ("two_year", "five_year", "all_years"):
        for mode in (INTEGER, FRACTIONAL):
            before = count_citations(pre_c, pre_j, kind, mode)
            after = count_citations(post_c, post_j, kind, mode)
            part_total = sum(before.values[j] for j in parts)
            assert after.values["J09A"] == pytest.approx(part_total, rel=1e-12)


def test_validation_partition_and_fractions(merged_fixture):
    corpus, journals = merged_fixture
    report = validate_corpus(corpus, journals)
    assert report.total_docs == 60
    assert (report.matched_refs + report.unmatched_venue_refs
            + report.invalid_year_refs) == report.total_refs
    assert 0.0 <= report.fraction(report.invalid_year_refs) <= 1.0
    assert report.invalid_year_refs == 2   # "DOE A, 18, ..." and the yearless one
    assert report.pre1900_refs == 2
    assert report.future_year_refs == 1


def test_validation_matches_line_level_oracle(fixture_paths, merged_fixture):
    corpus, journals = merged_fixture
    report = validate_corpus(corpus, journals)
    docs = read_corpus(fixture_paths["corpus"])
    merged, _ = merge_journals(read_journals(fixture_paths["journals"]))
    tally = validation_tally(docs, merged, CENSUS)
    assert report.total_refs == tally["total_refs"]
    assert report.matched_refs == tally["matched"]
    assert report.unmatched_venue_refs == tally["unmatched"]
    assert report.invalid_year_refs == tally["invalid"]
    assert report.pre1900_refs == tally["pre1900"]
    assert report.future_year_refs == tally["future"]


def test_repeated_reference_string_is_stored_once(tmp_path):
    docs = [Document(f"d{i}", "A", 2010, "article", ["J A|2008", f"J B|200{i}"], 2)
            for i in range(3)]
    corpus = Corpus(2010, docs)
    # one slot per distinct string; the three "J A|2008" references share one
    assert corpus.slot_venue.size == 4 and corpus.ref_slots.size == 6
    assert len(set(corpus.ref_slots[0::2].tolist())) == 1
    assert list(corpus.documents) == docs
    out = tmp_path / "c.jsonl"
    save_corpus(corpus, out)
    back = load_corpus(out, census_year=2010)
    assert back.slot_venue.size == 4
    assert len(set(back.ref_slots[0::2].tolist())) == 1
    assert back == corpus


def test_all_valid_corpus_has_full_match_fraction():
    journals = JournalTable([Journal("A", "A", ["J A"], "F", {})])
    docs = [Document(f"d{i}", "A", 2010, "article",
                     ["J A|2008"], 1) for i in range(5)]
    corpus = Corpus(2010, docs)
    report = validate_corpus(corpus, journals)
    assert report.fraction(report.matched_refs) == 1.0
    assert report.invalid_year_refs == 0


# --- one record path for files and documents built in memory ---------------

def _jsonl(docs) -> str:
    return "".join(json.dumps({"doc_id": d.doc_id, "journal": d.journal_id,
                               "year": d.pub_year, "type": d.doc_type,
                               "nref": d.ref_count, "refs": d.refs}) + "\n"
                   for d in docs)


FIRST = Document("d0", "A", 2010, "Article", ["J A|2009"], 1)
LAST = Document("d2", "B", 2009, "review", [], 0)


@pytest.mark.parametrize("fields,message", [
    ({"doc_id": 7}, "doc_id 7 is not a string"),
    ({"doc_id": ""}, "empty doc_id"),
    ({"pub_year": 1899}, "pub_year 1899 outside [1900, 2010]"),
    ({"pub_year": 2011}, "pub_year 2011 outside [1900, 2010]"),
    ({"ref_count": -1, "refs": []}, "negative nref -1"),
    ({"ref_count": 1}, "nref 1 smaller than reference list (2)"),
    ({"refs": ["J A|2009", ""]}, "empty reference string"),
    ({"doc_type": 5}, "type 5 is not a string"),
    ({"doc_id": "d0"}, "duplicate doc_id 'd0'"),
    ({"doc_type": "Strange"}, "unknown doc_type 'strange' mapped to 'other'"),
], ids=["doc-id-type", "doc-id-empty", "year-1899", "year-2011",
        "nref-negative", "nref-below-refs", "ref-empty", "type-type",
        "doc-id-repeated", "type-unknown"])
def test_bad_record_reads_alike_from_a_file_and_from_memory(tmp_path, fields,
                                                             message):
    bad = replace(Document("d1", "A", 2010, "article",
                           ["J A|2009", "J B|2008"], 2), **fields)
    docs = [FIRST, bad, LAST]
    built = Corpus(2010, docs)
    read = [(built, "documents:2")]
    path = tmp_path / "c.jsonl"
    path.write_text(_jsonl(docs), encoding="utf-8")
    read.append((load_corpus(path, census_year=2010), "c.jsonl:2"))
    if isinstance(bad.doc_id, str) and isinstance(bad.doc_type, str):
        # the cases a TSV row can hold, one line below its header
        path = tmp_path / "c.tsv"
        path.write_text(TSV_HEADER + "".join(
            "\t".join([d.doc_id, d.journal_id, str(d.pub_year), d.doc_type,
                       str(d.ref_count), ";".join(d.refs)]) + "\n"
            for d in docs), encoding="utf-8")
        read.append((load_corpus(path, census_year=2010), "c.tsv:3"))
    warned = message.startswith("unknown doc_type")
    for corpus, where in read:
        messages = [f"{where}: {message}"]
        assert (corpus.load_errors, corpus.load_warnings) == (
            ([], messages) if warned else (messages, []))
        assert corpus == built
    assert built.doc_types[0] == "article"
    assert built.doc_ids == (["d0", "d1", "d2"] if warned else ["d0", "d2"])


def test_from_columns_rejects_nref_below_reference_count():
    columns = dict(doc_ids=["d0", "d1"], doc_journals=["A", "A"],
                   pub_years=np.array([2010, 2010]),
                   doc_types=["article", "article"],
                   ref_offsets=np.array([0, 1, 3]), ref_slots=np.array([0, 0, 0]),
                   slot_strings=["J A|2009"])
    corpus = Corpus.from_columns(2010, ref_counts=np.array([1, 2]), **columns)
    assert corpus.documents[1].refs == ["J A|2009"] * 2
    with pytest.raises(ValueError, match="ref_counts"):
        Corpus.from_columns(2010, ref_counts=np.array([1, 1]), **columns)


def test_from_columns_shares_nothing_with_its_caller():
    columns = dict(doc_ids=["d0", "d1"], doc_journals=["A", "A"],
                   pub_years=np.array([2010, 2010]),
                   doc_types=["article", "article"],
                   ref_counts=np.array([1, 2]), ref_offsets=np.array([0, 1, 3]),
                   ref_slots=np.array([0, 0, 0], dtype=np.int32))
    slot_strings = ["J A|2009"]
    corpus = Corpus.from_columns(2010, slot_strings=slot_strings, **columns)
    for name, column in columns.items():
        held = getattr(corpus, name)
        assert held is not column
        assert list(held) == list(column)
        if isinstance(column, np.ndarray):
            assert not np.shares_memory(held, column)
    assert corpus._slot_strings is not slot_strings
    columns["ref_slots"][:] = 5
    columns["doc_ids"][0] = "changed"
    assert corpus.documents[1].refs == ["J A|2009"] * 2
    assert corpus.doc_ids == ["d0", "d1"]


def test_a_single_part_is_joined_without_copies(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text("".join(json.dumps(
        {"doc_id": f"d{i}", "journal": "A", "year": 2009, "type": "article",
         "nref": 2, "refs": [f"J {i % 3}|2008", "J B| 2007"]}) + "\n"
        for i in range(9)),
        encoding="utf-8")
    part = corpus_mod._parse_range(path, "jsonl", 0, path.stat().st_size,
                                   CENSUS)
    joined = corpus_mod._join([part])
    for name, dtype in corpus_mod._DTYPES.items():
        column = getattr(joined, name)
        assert column.dtype == dtype
        assert np.shares_memory(column, np.asarray(getattr(part, name)))
    assert joined.doc_ids is part.doc_ids
    assert (joined.venue_tokens, joined.year_tokens) == (part.venue_tokens,
                                                         part.year_tokens)
    assert load_corpus(path, CENSUS) == Corpus(CENSUS, [
        Document(f"d{i}", "A", 2009, "article",
                 [f"J {i % 3}|2008", "J B| 2007"], 2) for i in range(9)])


@pytest.mark.parametrize("census", [1899, 10_000, 10**29],
                         ids=["1899", "10000", "10**29"])
def test_census_year_outside_four_digit_years_rejected(tmp_path, census):
    """Every way of building a corpus takes a census year in [1900, 9999]
    only, before any record is read."""
    doc = Document("d", "A", 10**25, "article", [], 0)
    with pytest.raises(CorpusFormatError, match=f"census_year {census} "):
        Corpus(census, [doc])
    with pytest.raises(CorpusFormatError, match=f"census_year {census} "):
        Corpus.from_columns(census, doc_ids=[], doc_journals=[],
                            pub_years=np.array([], dtype=np.int64),
                            doc_types=[], ref_counts=np.array([], dtype=np.int64),
                            ref_offsets=np.array([0]), ref_slots=np.array([]),
                            slot_strings=[])
    path = tmp_path / "c.jsonl"
    path.write_text(json.dumps({"doc_id": "d", "journal": "A", "year": 10**25,
                                "nref": 0}) + "\n", encoding="utf-8")
    with pytest.raises(CorpusFormatError, match=f"census_year {census} "):
        load_corpus(path, census_year=census)
    for edge in (1900, 9999):
        assert Corpus(edge, [replace(doc, pub_year=edge)]).doc_ids == ["d"]
        assert load_corpus(path, census_year=edge).load_errors == [
            f"c.jsonl:1: pub_year {10**25} outside [1900, {edge}]"]
