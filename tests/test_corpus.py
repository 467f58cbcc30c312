import json
from dataclasses import replace

import numpy as np
import pytest

from jifnorm import (Corpus, CorpusFormatError, Document, Journal,
                     JournalTable, JournalTableError, load_corpus,
                     load_journals, merge_journal_parts, save_corpus,
                     validate_corpus)
from jifnorm.counts import FRACTIONAL, INTEGER, WindowSpec, count_citations

from conftest import CENSUS
from _oracle import full_pipeline, validation_tally, read_corpus, read_journals, merge_journals


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
        load_corpus(path, format="tsv", census_year=CENSUS)


def test_tsv_round_trip_equals_jsonl(raw_fixture, tmp_path):
    corpus, _ = raw_fixture
    out = tmp_path / "corpus.tsv"
    save_corpus(corpus, out, format="tsv")
    back = load_corpus(out, format="tsv", census_year=CENSUS)
    assert back.documents == corpus.documents


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
        w = WindowSpec(kind, CENSUS)
        for mode in (INTEGER, FRACTIONAL):
            before = count_citations(pre_c, pre_j, w, mode)
            after = count_citations(post_c, post_j, w, mode)
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
    path = tmp_path / "c.jsonl"
    path.write_text(_jsonl(docs), encoding="utf-8")
    loaded = load_corpus(path, census_year=2010)
    built = Corpus(2010, docs)
    warned = message.startswith("unknown doc_type")
    for corpus, name in ((loaded, "c.jsonl"), (built, "documents")):
        messages = [f"{name}:2: {message}"]
        assert (corpus.load_errors, corpus.load_warnings) == (
            ([], messages) if warned else (messages, []))
    assert built == loaded
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
