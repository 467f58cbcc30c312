"""Reading a corpus in byte ranges, one process each, gives the corpus, the
messages and the CLI outputs of reading it whole.

The minimum range size is lowered to a few dozen bytes so that the small
inputs here split into as many ranges as processes are asked for.
"""

import json
import re

import numpy as np
import pytest

from jifnorm import corpus as corpus_mod
from jifnorm import load_corpus, load_journals, match_corpus, save_corpus
from jifnorm.cli import main

from conftest import CENSUS, DATA

THREADS = (1, 2, 3, 5, 8)
CLI_THREADS = (1, 2, 3)
TABLE_ARRAYS = ("doc_index", "journal_index", "year", "status",
                "doc_journal_index", "doc_ref_count")


@pytest.fixture(autouse=True)
def small_ranges(monkeypatch):
    monkeypatch.setattr(corpus_mod, "_MIN_RANGE_BYTES", 64)


def _write(path, lines):
    """Write (text, line end) pairs; return each line's byte offset."""
    offsets, data = [], b""
    for text, end in lines:
        offsets.append(len(data))
        data += (text + end).encode("utf-8")
    path.write_bytes(data)
    return offsets


def _record(doc_id, journal="J01", doc_type="article", **changes):
    obj = {"doc_id": doc_id, "journal": journal, "year": CENSUS,
           "type": doc_type, "nref": 3,
           "refs": ["GAMMA CHEM REV|2009", "DELTA CHEM J|2008",
                    f"SMITH J, 2007, BETA MATER LETT, V1, P{doc_id}"]}
    obj.update(changes)
    return json.dumps(obj)


JOURNALS = ("J01", "J02", "J05", "J07", "J09B")
ENDS = ("\n", "\r\n", "\r", "\n", "\r\n")


def hand_jsonl(path):
    """Records under every kind of line end, with blank and comment lines
    between them, a record error, unknown types, duplicates of records in
    the first range near the end, and no newline after the last line."""
    lines = [("# hand-made corpus", "\n")]
    for i in range(24):
        doc_type = "Editorial" if i == 5 else "article"
        lines.append((_record(f"H{i}", JOURNALS[i % 5], doc_type), ENDS[i % 5]))
        lines.append(("" if i % 2 else "# between records", ENDS[(i + 2) % 5]))
    lines.insert(9, ('{"doc_id": "BROKEN", "year": 2010', "\n"))
    original = 2          # H0
    lines.append((_record("H0", "J02"), "\n"))
    lines.append((_record("H1", doc_type="weird"), "\r\n"))
    lines.append((_record("H24", refs=["KAPPA MATH J|2007"], nref=1), ""))
    offsets = _write(path, lines)
    return offsets[original], offsets[-3]


def hand_tsv(path):
    """A TSV corpus whose header follows a comment and a blank line, with
    the same kinds of line ends and duplicates as the JSONL one. A lone
    ``\\r`` before an empty line's ``\\n`` makes one ``\\r\\n`` line end."""
    lines = [("# hand-made corpus", "\r\n"), ("", "\n"),
             ("\t".join(corpus_mod.CORPUS_TSV_HEADER), "\n")]
    for i in range(24):
        refs = "GAMMA CHEM REV|2009;KAPPA MATH J|2007;X Y|18"
        doc_type = "Letter" if i % 4 else "strange"
        lines.append(("\t".join([f"T{i}", JOURNALS[i % 5], str(CENSUS),
                                 doc_type, "3", refs]), ENDS[i % 5]))
        lines.append(("" if i % 2 else "# c", ENDS[(i + 3) % 5]))
    lines.insert(12, ("T99\tJ01\t2010\tarticle", "\n"))
    original = 3          # T0
    lines.append(("T0\tJ03\t2010\tarticle\t0\t", "\n"))
    lines.append(("T4\tJ03\t2010\tweird\t0\t", "\r"))
    lines.append(("T24\tJ03\t2010\treview\t1\tDELTA CHEM J|2008", ""))
    offsets = _write(path, lines)
    return offsets[original], offsets[-3]


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("ingest")
    fixture_tsv = root / "fixture.tsv"
    save_corpus(load_corpus(DATA / "fixture_corpus.jsonl", census_year=CENSUS),
                fixture_tsv, format="tsv")
    return {"fixture": DATA / "fixture_corpus.jsonl",
            "bad": DATA / "bad_corpus.jsonl",
            "fixture_tsv": fixture_tsv,
            "hand_jsonl": (root / "hand.jsonl", hand_jsonl(root / "hand.jsonl")),
            "hand_tsv": (root / "hand.tsv", hand_tsv(root / "hand.tsv"))}


def _path(entry):
    return entry[0] if isinstance(entry, tuple) else entry


def _read(path, threads):
    journals = load_journals(DATA / "fixture_journals.tsv")
    corpus = load_corpus(path, census_year=CENSUS, threads=threads)
    table = match_corpus(corpus, journals)
    return corpus, table


@pytest.mark.parametrize("name", ["fixture", "bad", "fixture_tsv",
                                  "hand_jsonl", "hand_tsv"])
def test_corpus_does_not_depend_on_ranges(inputs, name):
    path = _path(inputs[name])
    base, base_table = _read(path, 1)
    for threads in THREADS[1:]:
        corpus, table = _read(path, threads)
        assert corpus.load_errors == base.load_errors
        assert corpus.load_warnings == base.load_warnings
        assert corpus.documents == base.documents
        assert corpus.ref_strings == base.ref_strings
        assert np.array_equal(corpus.ref_ids, base.ref_ids)
        for attr in TABLE_ARRAYS:
            got, want = getattr(table, attr), getattr(base_table, attr)
            assert got.dtype == want.dtype and np.array_equal(got, want), attr


@pytest.mark.parametrize("name", ["hand_jsonl", "hand_tsv"])
def test_hand_made_inputs_split_where_intended(inputs, name):
    path, (original, duplicate) = inputs[name]
    data = path.read_bytes()
    assert b"\r\n" in data and re.search(rb"\r[^\n]", data)
    first_lines = set()
    for threads in THREADS[1:]:
        header_end = (corpus_mod._tsv_header(path)[1]
                      if name == "hand_tsv" else 0)
        ranges = corpus_mod._byte_ranges(path, header_end, threads)
        assert len(ranges) == threads
        assert ranges[0][1] > header_end
        [in_first] = [i for i, (a, b) in enumerate(ranges) if a <= original < b]
        [in_dup] = [i for i, (a, b) in enumerate(ranges) if a <= duplicate < b]
        assert in_first < in_dup
        first_lines |= {data[a:b].split(b"\n")[0].split(b"\r")[0]
                        for a, b in ranges[1:]}
    assert b"" in first_lines                      # a blank line
    assert any(line.startswith(b"#") for line in first_lines)


def test_hand_made_jsonl_messages(inputs):
    corpus, _ = _read(inputs["hand_jsonl"][0], 3)
    assert corpus.load_errors == [
        "hand.jsonl:10: Expecting ',' delimiter: line 1 column 34 (char 33)",
        "hand.jsonl:51: duplicate doc_id 'H0'",
        "hand.jsonl:52: duplicate doc_id 'H1'"]
    # the rejected duplicate's unknown type leaves no warning
    assert corpus.load_warnings == [
        "hand.jsonl:13: unknown doc_type 'editorial' mapped to 'other'"]
    assert len(corpus.documents) == 25
    assert corpus.documents[0].journal_id == "J01"
    assert corpus.documents[-1].refs == ["KAPPA MATH J|2007"]


def test_hand_made_tsv_messages(inputs):
    corpus, _ = _read(inputs["hand_tsv"][0], 3)
    assert corpus.load_errors == [
        "hand.tsv:13: expected 6 columns, got 4",
        "hand.tsv:51: duplicate doc_id 'T0'",
        "hand.tsv:52: duplicate doc_id 'T4'"]
    strange = [w for w in corpus.load_warnings if "strange" in w]
    assert len(strange) == 6 and not any("weird" in w
                                         for w in corpus.load_warnings)
    assert [d.doc_id for d in corpus.documents][-2:] == ["T23", "T24"]


@pytest.mark.parametrize("name", ["fixture", "bad", "fixture_tsv",
                                  "hand_jsonl", "hand_tsv"])
@pytest.mark.parametrize("command", ["validate", "indicators"])
def test_cli_outputs_do_not_depend_on_threads(inputs, tmp_path, capsys, name,
                                              command):
    path = _path(inputs[name])
    results = []
    for threads in CLI_THREADS:
        out = tmp_path / str(threads)
        extra = ["--percentiles"] if command == "indicators" else []
        code = main([command, str(path), *extra,
                     "--journals", str(DATA / "fixture_journals.tsv"),
                     "--census-year", str(CENSUS), "--threads", str(threads),
                     "--out", str(out)])
        files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        results.append((code, capsys.readouterr().err, files))
    assert results[0][0] in (0, 1)
    assert all(r == results[0] for r in results[1:])


@pytest.mark.parametrize("bad_line", [0, 20, 40])
def test_undecodable_byte_in_any_range_is_fatal(tmp_path, capsys, bad_line):
    import multiprocessing

    lines = [(_record(f"U{i}") + "\n").encode() for i in range(41)]
    lines[bad_line] = b'{"doc_id": "\xff"}\n'
    path = tmp_path / "bad.jsonl"
    path.write_bytes(b"".join(lines))
    with pytest.raises(UnicodeDecodeError):
        load_corpus(path, census_year=CENSUS, threads=3)
    code = main(["validate", str(path), "--threads", "3",
                 "--journals", str(DATA / "fixture_journals.tsv"),
                 "--census-year", str(CENSUS), "--out", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err.startswith(
        "error: 'utf-8' codec can't decode byte 0xff in position ")
    assert multiprocessing.active_children() == []


def _validate(path, threads, out):
    code = main(["validate", str(path), "--threads", str(threads),
                 "--journals", str(DATA / "fixture_journals.tsv"),
                 "--census-year", str(CENSUS), "--out", str(out)])
    return code, {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def test_deep_nesting_is_a_record_error(tmp_path, capsys):
    """A line nested past the recursion limit is a load error at its line,
    in the parent's range or in a worker's, and ends like any other."""
    records = [_record(f"D{i}") for i in range(1500)]
    deep = '{"doc_id": "DEEP", "x": ' + "[" * 100_000 + "]" * 100_000 + "}"
    broken = '{"doc_id": "DEEP", "x": '
    paths = {}
    for name, line in (("deep", deep), ("broken", broken)):
        paths[name] = tmp_path / f"{name}.jsonl"
        paths[name].write_text("\n".join(records + [line, _record("LAST")])
                               + "\n", encoding="utf-8")
    assert corpus_mod._byte_ranges(paths["deep"], 0, 2)[1][0] < len(
        "\n".join(records))
    results = {}
    for threads in (1, 2):
        corpus = load_corpus(paths["deep"], census_year=CENSUS, threads=threads)
        [error] = corpus.load_errors
        assert error.startswith("deep.jsonl:1501: maximum recursion depth "
                                "exceeded")
        assert len(corpus.documents) == 1501
        assert corpus.documents[-1].doc_id == "LAST"
        for name, path in paths.items():
            results[name, threads] = (
                *_validate(path, threads, tmp_path / f"{name}{threads}"),
                capsys.readouterr().err)
    assert results["deep", 1] == results["deep", 2]
    assert results["deep", 1][0] == results["broken", 1][0] == 1
    assert "deep.jsonl:1501: maximum recursion depth" in results["deep", 1][2]


BOM = b"\xef\xbb\xbf"


@pytest.mark.parametrize("name", ["hand_jsonl", "hand_tsv"])
def test_byte_order_mark_at_file_start_is_ignored(inputs, tmp_path, name):
    path = inputs[name][0]
    marked = tmp_path / path.name
    marked.write_bytes(BOM + path.read_bytes())
    for threads in (1, 2):
        base, base_table = _read(path, threads)
        corpus, table = _read(marked, threads)
        assert corpus.load_errors == base.load_errors
        assert corpus.load_warnings == base.load_warnings
        assert corpus.documents == base.documents
        for attr in TABLE_ARRAYS:
            assert np.array_equal(getattr(table, attr),
                                  getattr(base_table, attr)), attr


def test_byte_order_mark_before_tsv_header(tmp_path):
    path = tmp_path / "marked.tsv"
    rows = ["\t".join(corpus_mod.CORPUS_TSV_HEADER)] + [
        "\t".join([f"B{i}", "J01", str(CENSUS), "article", "1",
                   "GAMMA CHEM REV|2009"]) for i in range(12)]
    path.write_bytes(BOM + "\n".join(rows).encode("utf-8"))
    assert corpus_mod._tsv_header(path) == (1, len(BOM) + len(rows[0]) + 1)
    for threads in (1, 2):
        corpus = load_corpus(path, census_year=CENSUS, threads=threads)
        assert corpus.load_errors == []
        assert [d.doc_id for d in corpus.documents] == [
            f"B{i}" for i in range(12)]


def test_byte_order_mark_elsewhere_is_kept(tmp_path):
    """Only the mark at byte 0 is dropped: one at a later line's start is
    that record's error, and a codec error's position counts the first."""
    lines = [(_record(f"M{i}") + "\n").encode() for i in range(20)]
    lines[12] = BOM + lines[12]
    path = tmp_path / "later.jsonl"
    path.write_bytes(b"".join(lines))
    for threads in (1, 2):
        corpus = load_corpus(path, census_year=CENSUS, threads=threads)
        assert corpus.load_errors == [
            "later.jsonl:13: Unexpected UTF-8 BOM (decode using utf-8-sig): "
            "line 1 column 1 (char 0)"]
        assert len(corpus.documents) == 19
    path.write_bytes(BOM + b'{"doc_id": "\xff"}\n' + b"".join(lines[:12]))
    for threads in (1, 2):
        with pytest.raises(UnicodeDecodeError) as info:
            load_corpus(path, census_year=CENSUS, threads=threads)
        assert info.value.start == len(BOM) + 12
