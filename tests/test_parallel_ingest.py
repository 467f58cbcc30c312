"""Reading a corpus in byte ranges, one process each, gives the corpus, the
messages and the CLI outputs of reading it whole, whether each range
interns its reference strings or stops interning them. The codes stored
for each reference give its parsed venue and year, and a loaded corpus,
which holds no reference text, reads its documents back from its file.

The minimum range size is lowered to a few dozen bytes so that the small
inputs here split into as many ranges as processes are asked for, and the
interning sample is lowered to one or two references so that a range
judges its strings on its first documents.
"""

import itertools
import json
import os
import pickle
import re
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from jifnorm import _tsv, corpus as corpus_mod
from jifnorm import (Corpus, CorpusFormatError, Document, load_corpus,
                     load_journals, match_corpus, merge_journal_parts,
                     save_corpus)
from jifnorm.cli import main
from jifnorm.refmatch import (STATUS_FUTURE, STATUS_INVALID, STATUS_PRE1900,
                              STATUS_VALID, normalize_venue, parse_reference)

from _oracle import parse as oracle_parse
from conftest import CENSUS, DATA, PYTHON_FLAGS, src_env

THREADS = (1, 2, 3, 5, 8)
CLI_THREADS = (1, 2, 3)
TABLE_ARRAYS = ("journal_index", "year", "status")
INTERN_SAMPLE = corpus_mod._INTERN_SAMPLE
SAMPLES = (1, 2, INTERN_SAMPLE)
INPUTS = ("fixture", "bad", "fixture_tsv", "hand_jsonl", "hand_tsv")


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


def _read(path, threads, sample=INTERN_SAMPLE):
    journals = load_journals(DATA / "fixture_journals.tsv")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(corpus_mod, "_INTERN_SAMPLE", sample)
        corpus = load_corpus(path, census_year=CENSUS, threads=threads)
    table = match_corpus(corpus, journals)
    return corpus, table


def _with_samples(names):
    """(name, intern sample) parameters; the default sample keeps the id
    of the name alone."""
    return [pytest.param(name, sample, id=name if sample == INTERN_SAMPLE
                         else f"{name}-sample{sample}")
            for name in names for sample in SAMPLES]


def _assert_same_corpus(got, want):
    """Equal (corpus, match table) pairs, whatever slots the strings got."""
    (corpus, table), (base, base_table) = got, want
    assert corpus.load_errors == base.load_errors
    assert corpus.load_warnings == base.load_warnings
    assert corpus.documents == base.documents
    for attr in ("ref_offsets", "ref_counts"):
        a, b = getattr(corpus, attr), getattr(base, attr)
        assert a.dtype == b.dtype and np.array_equal(a, b), attr
    # the venue and year token of each reference, whatever its slot
    for tokens, codes in (("venue_tokens", "slot_venue"),
                          ("year_tokens", "slot_year")):
        a, b = ([getattr(c, tokens)[i]
                 for i in getattr(c, codes)[c.ref_slots].tolist()]
                for c in (corpus, base))
        assert a == b, tokens
    for attr in TABLE_ARRAYS:
        a, b = getattr(table, attr), getattr(base_table, attr)
        assert a.dtype == b.dtype and np.array_equal(a, b), attr


@pytest.mark.parametrize("name, sample", _with_samples(INPUTS))
def test_corpus_does_not_depend_on_ranges(inputs, name, sample):
    """Every read equals one range read at the default sample."""
    path = _path(inputs[name])
    base = _read(path, 1)
    for threads in THREADS:
        _assert_same_corpus(_read(path, threads, sample), base)


def _slot_use(refs):
    """The slot count and ``ref_slots`` of a corpus built in memory from
    one document per list of references, which reads back unchanged."""
    documents = [Document(f"D{i}", "J01", CENSUS, "article", r, len(r))
                 for i, r in enumerate(refs)]
    corpus = Corpus(CENSUS, documents)
    assert corpus.documents == documents
    return len(corpus.slot_venue), corpus.ref_slots.tolist()


@pytest.mark.parametrize("new", [7, 8])
def test_interning_stops_only_past_seven_eighths_new(monkeypatch, new):
    """Judged at the first document end at or after the sample: 8 new
    strings of 8 references stop interning, so each later reference gets
    a slot of its own; 7 of 8 keep one slot per distinct string."""
    monkeypatch.setattr(corpus_mod, "_INTERN_SAMPLE", 6)
    first = [f"V{i} J|2009" for i in range(new)]
    first += first[:8 - new]
    refs = [first[:5], first[5:], ["V0 J|2009", "V0 J|2009"], ["X J|2008"],
            ["V1 J|2009"]]
    if new == 8:
        assert _slot_use(refs) == (12, list(range(12)))
    else:
        assert _slot_use(refs) == (8, [0, 1, 2, 3, 4, 5, 6, 0, 0, 0, 7, 1])


def test_a_part_under_the_sample_interns(monkeypatch):
    """A part whose references end before the sample keeps interning,
    however many of them are new."""
    refs = [["A J|2009", "B J|2008"], ["A J|2009"]]
    monkeypatch.setattr(corpus_mod, "_INTERN_SAMPLE", 4)
    assert _slot_use(refs) == (2, [0, 1, 0])
    monkeypatch.setattr(corpus_mod, "_INTERN_SAMPLE", 2)
    assert _slot_use(refs) == (3, [0, 1, 2])


def test_a_part_is_judged_once(monkeypatch):
    """A part that keeps interning at the sample keeps it to its end, even
    where its later references are all new."""
    new = [f"N{i} J|2009" for i in range(20)]
    monkeypatch.setattr(corpus_mod, "_INTERN_SAMPLE", 2)
    assert _slot_use([["A J|2009", "A J|2009"], new, new[:1]]) == (
        21, [0, 0, *range(1, 21), 1])


VENUES = ("GAMMA CHEM REV", "DELTA CHEM J", "BETA MATER LETT",
          "KAPPA MATH J", "NO SUCH J")
SMALL_POOL = [f"{v}|{y}" for v in VENUES[:3] for y in (2008, 2009)]
# a drawn number makes nearly every string of the large pool distinct
large_refs = st.builds(
    "SMITH J, {}, {}, V{}, P{}".format,
    st.sampled_from(["2009", "2006", "1899", "2011", "18", "X"]),
    st.sampled_from(VENUES), st.integers(1, 9), st.integers(0, 10**6))
small_refs = st.sampled_from(SMALL_POOL)


@st.composite
def jsonl_corpora(draw):
    """JSONL lines from a small or a large string pool, with record errors,
    unknown types and repeated ids among them."""
    refs = draw(st.sampled_from([small_refs, large_refs]))
    lines = []
    for _ in range(draw(st.integers(1, 40))):
        if draw(st.integers(0, 19)) == 0:
            lines.append('{"doc_id": "BROKEN"')
            continue
        doc_refs = draw(st.lists(refs, max_size=8))
        lines.append(json.dumps({
            "doc_id": f"P{draw(st.integers(0, 50))}",
            "journal": draw(st.sampled_from(["J01", "J02", "J05"])),
            "year": CENSUS, "type": draw(st.sampled_from(
                ["article", "review", "weird"])),
            "nref": len(doc_refs) + draw(st.integers(0, 2)),
            "refs": doc_refs}))
    return "\n".join(lines) + "\n"


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=jsonl_corpora())
def test_interning_changes_no_result(tmp_path_factory, text):
    """Any sample and any number of ranges give the corpus, the messages
    and the match table of one range read at the default sample."""
    path = tmp_path_factory.mktemp("drawn") / "corpus.jsonl"
    path.write_text(text, encoding="utf-8")
    base = _read(path, 1)
    for sample in (1, INTERN_SAMPLE):
        for threads in CLI_THREADS:
            _assert_same_corpus(_read(path, threads, sample), base)


@pytest.mark.parametrize("name", ["hand_jsonl", "hand_tsv"])
def test_hand_made_inputs_split_where_intended(inputs, name):
    path, (original, duplicate) = inputs[name]
    data = path.read_bytes()
    assert b"\r\n" in data and re.search(rb"\r[^\n]", data)
    first_lines = set()
    for threads in THREADS[1:]:
        ranges = corpus_mod._byte_ranges(path, threads)
        assert len(ranges) == threads
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


@pytest.mark.parametrize("name, sample", _with_samples(INPUTS))
@pytest.mark.parametrize("command", ["validate", "indicators"])
def test_cli_outputs_do_not_depend_on_threads(inputs, tmp_path, capsys,
                                              monkeypatch, name, sample,
                                              command):
    """Every run writes what one process writes at the default sample."""
    path = _path(inputs[name])
    results = []
    for threads, at in [(1, INTERN_SAMPLE)] + [(t, sample)
                                               for t in CLI_THREADS]:
        monkeypatch.setattr(corpus_mod, "_INTERN_SAMPLE", at)
        out = tmp_path / f"{threads}-{at}"
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
    """The byte is fatal to its record alone: its line is a load error at
    its number, in whichever range holds it, every other document is read,
    and the outputs do not depend on ``--threads``."""
    import multiprocessing

    lines = [(_record(f"U{i}") + "\n").encode() for i in range(41)]
    lines[bad_line] = b'{"doc_id": "\xff"}\n'
    path = tmp_path / "bad.jsonl"
    path.write_bytes(b"".join(lines))
    error = (f"bad.jsonl:{bad_line + 1}: 'utf-8' codec can't decode byte "
             "0xff in position 12: invalid start byte")
    results = []
    for threads in CLI_THREADS:
        corpus = load_corpus(path, census_year=CENSUS, threads=threads)
        assert corpus.load_errors == [error]
        assert [d.doc_id for d in corpus.documents] == [
            f"U{i}" for i in range(41) if i != bad_line]
        results.append((*_validate(path, threads, tmp_path / str(threads)),
                        capsys.readouterr().err))
    code, files, err = results[0]
    assert code == 1
    assert files["load_errors.txt"] == f"{error}\n".encode()
    assert f"warning: {error}\n" in err
    assert all(r == results[0] for r in results[1:])
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
    assert corpus_mod._byte_ranges(paths["deep"], 2)[1][0] < len(
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
    assert corpus_mod._corpus_format(path) == "tsv"
    for threads in (1, 2):
        corpus = load_corpus(path, census_year=CENSUS, threads=threads)
        assert corpus.load_errors == []
        assert [d.doc_id for d in corpus.documents] == [
            f"B{i}" for i in range(12)]


def test_byte_order_mark_elsewhere_is_kept(tmp_path, capsys):
    """Only the mark at byte 0 is dropped: one at a later line's start is
    that record's error. The first is dropped before decoding, so a codec
    error on line 1 is a record error whose position does not count it."""
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
    error = ("later.jsonl:1: 'utf-8' codec can't decode byte 0xff in "
             "position 12: invalid start byte")
    results = []
    for threads in CLI_THREADS:
        corpus = load_corpus(path, census_year=CENSUS, threads=threads)
        assert corpus.load_errors == [error]
        assert [d.doc_id for d in corpus.documents] == [
            f"M{i}" for i in range(12)]
        results.append((*_validate(path, threads, tmp_path / str(threads)),
                        capsys.readouterr().err))
    assert results[0][0] == 1
    assert results[0][1]["load_errors.txt"] == f"{error}\n".encode()
    assert all(r == results[0] for r in results[1:])


@pytest.fixture
def line_end_copies(tmp_path):
    """The fixture corpus with every line ended by LF, CRLF or a lone CR."""
    data = (DATA / "fixture_corpus.jsonl").read_bytes().replace(b"\r\n", b"\n")
    copies = {}
    for name, end in (("lf", b"\n"), ("crlf", b"\r\n"), ("cr", b"\r")):
        copies[name] = tmp_path / f"{name}.jsonl"
        copies[name].write_bytes(data.replace(b"\n", end))
    return copies


def test_every_line_end_splits_into_the_same_ranges(line_end_copies):
    lf = line_end_copies["lf"]
    for threads in CLI_THREADS:
        base, base_table = _read(lf, threads)
        for path in line_end_copies.values():
            ranges = corpus_mod._byte_ranges(path, threads)
            assert len(ranges) == len(corpus_mod._byte_ranges(lf, threads))
            assert len(ranges) == threads
            data = path.read_bytes()
            # no range starts between the \r and \n of one line end
            assert all(data[a - 1:a + 1] != b"\r\n" for a, _ in ranges)
            corpus, table = _read(path, threads)
            assert corpus.load_errors == base.load_errors
            assert corpus.documents == base.documents
            for attr in TABLE_ARRAYS:
                assert np.array_equal(getattr(table, attr),
                                      getattr(base_table, attr)), attr


@pytest.mark.parametrize("block", [1, 2, 3, 5, 8])
def test_no_block_size_cuts_a_line_end(tmp_path, monkeypatch, block):
    """Every cut search over the fixture's first lines, with a blank line
    among them, at every range count up to the file size: no range starts
    between a ``\\r`` and its ``\\n``, whatever bytes the last read
    ended on, and the ranges read back the LF lines."""
    monkeypatch.setattr(_tsv, "_BLOCK", block)
    head = (DATA / "fixture_corpus.jsonl").read_bytes().split(b"\n")[:4]
    text = b"\n".join(head[:2] + [b""] + head[2:]) + b"\n"
    want = text.split(b"\n")[:-1]
    for end in (b"\n", b"\r\n", b"\r"):
        path = tmp_path / "copy.jsonl"
        data = text.replace(b"\n", end)
        path.write_bytes(data)
        seen = set()
        for n in range(1, len(data) + 1):
            ranges = tuple(corpus_mod._byte_ranges(path, n))
            assert all(data[a - 1:a + 1] != b"\r\n" for a, _ in ranges), n
            if ranges not in seen:
                seen.add(ranges)
                assert [line for a, b in ranges
                        for line in _tsv.lines(path, a, b)] == want, n


class _Recording:
    """A binary file that records the length of what each read returns."""

    def __init__(self, fh, sizes):
        self._fh, self._sizes = fh, sizes

    def __getattr__(self, name):
        return getattr(self._fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()

    def read(self, n=-1):
        data = self._fh.read(n)
        self._sizes.append(len(data))
        return data

    def readline(self, n=-1):
        data = self._fh.readline(n)
        self._sizes.append(len(data))
        return data


def test_lone_cr_file_is_read_a_block_at_a_time(line_end_copies, monkeypatch):
    block = 256
    monkeypatch.setattr(_tsv, "_BLOCK", block)
    sizes = []
    recording = lambda path, mode: _Recording(open(path, mode), sizes)
    monkeypatch.setattr(_tsv, "open", recording, raising=False)
    monkeypatch.setattr(corpus_mod, "open", recording, raising=False)
    want = list(_tsv.lines(line_end_copies["lf"]))
    for name in ("cr", "crlf"):
        path = line_end_copies[name]
        sizes.clear()
        ranges = corpus_mod._byte_ranges(path, 3)
        assert len(ranges) == 3
        assert [line for a, b in ranges
                for line in _tsv.lines(path, a, b)] == want
        assert list(_tsv.lines(path)) == want
        assert path.stat().st_size > 4 * block
        assert 0 < max(sizes) <= 2 * block, name


@pytest.mark.parametrize("block", [1, 2, 3, 5, 8, 1 << 20])
def test_line_starts_are_where_lines_begin(tmp_path, monkeypatch, block):
    """At any block size, each offset ``line_starts`` gives is where the
    line ``lines`` yields in its place begins, under every line end and
    after a byte-order mark."""
    monkeypatch.setattr(_tsv, "_BLOCK", block)
    head = (DATA / "fixture_corpus.jsonl").read_bytes().split(b"\n")[:4]
    text = b"\n".join(head[:2] + [b"", b"#"] + head[2:])
    for mark in (b"", BOM):
        for end in (b"\n", b"\r\n", b"\r"):
            path = tmp_path / "copy.jsonl"
            data = mark + text.replace(b"\n", end)
            path.write_bytes(data)
            with open(path, "rb") as fh:
                starts = _tsv.line_starts(fh)
            want = list(_tsv.lines(path))
            assert len(starts) == len(want) == 6
            assert [data[a:].splitlines()[0] if a < len(data) else b""
                    for a in starts] == want


# --- the codes a corpus stores for each reference ---------------------------

SPLIT_BATCHES = (1, 2, corpus_mod._SPLIT_BATCH)
PADS = ("", "\x1c", "\xa0", " ", "\u3000")
YEAR_TEXT = ("2009", "2010", "2011", "1899", "18", "X", "", "\uff12009")
VENUE_TEXT = ("GAMMA CHEM REV", " delta  chem j. ", "", "  ", "KAPPA MATH J;")


@st.composite
def raw_references(draw):
    """A reference string with 0, 1 or 2 ``|`` and 0 to 5 commas, whose
    year token has whitespace around it that ``str.strip`` removes."""
    year = (draw(st.sampled_from(PADS)) + draw(st.sampled_from(YEAR_TEXT))
            + draw(st.sampled_from(PADS)))
    venue = draw(st.sampled_from(VENUE_TEXT))
    commas = draw(st.integers(0, 5))
    pipes = draw(st.integers(0, 2))
    if pipes == 1 and draw(st.booleans()):  # VENUE|YEAR, commas either side
        left = draw(st.integers(0, commas))
        return f"{venue}{',' * left}|{year}{',' * (commas - left)}"
    raw = ",".join(["SMITH J", year, venue, "V1", "P2", "X"][:commas + 1])
    for _ in range(pipes):
        at = draw(st.integers(0, len(raw)))
        raw = raw[:at] + "|" + raw[at:]
    return raw


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(pool=st.lists(raw_references(), min_size=1, max_size=6),
       data=st.data())
def test_stored_codes_resolve_to_parse_reference(tmp_path_factory, pool,
                                                  data):
    """Every reference's venue code and year code give ``parse_reference``'s
    venue and year status and value, at any sample, any split batch and any
    number of ranges, in memory and from a file; and ``parse_reference``
    gives the oracle's reading of each string."""
    ref_lists = data.draw(st.lists(st.lists(st.sampled_from(pool),
                                            max_size=6),
                                   min_size=1, max_size=8))
    docs = [Document(f"D{i}", "J01", CENSUS, "article", refs, len(refs))
            for i, refs in enumerate(ref_lists)]
    want = [parse_reference(r, CENSUS) for d in docs for r in d.refs]
    oracle_status = {"valid": STATUS_VALID, "invalid": STATUS_INVALID,
                     "pre1900": STATUS_PRE1900, "future": STATUS_FUTURE}
    for raw in pool:
        venue, year, status = oracle_parse(raw, CENSUS)
        ref = parse_reference(raw, CENSUS)
        assert (ref.venue_abbrev, ref.year, ref.year_status) == (
            venue, year, oracle_status[status]), raw
    path = tmp_path_factory.mktemp("refs") / "corpus.jsonl"
    path.write_text("".join(
        json.dumps({"doc_id": d.doc_id, "journal": d.journal_id,
                    "year": d.pub_year, "nref": d.ref_count, "refs": d.refs})
        + "\n" for d in docs), encoding="utf-8")
    journals = load_journals(DATA / "fixture_journals.tsv")
    for sample, batch in itertools.product(SAMPLES, SPLIT_BATCHES):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(corpus_mod, "_INTERN_SAMPLE", sample)
            patch.setattr(corpus_mod, "_SPLIT_BATCH", batch)
            corpora = [Corpus(CENSUS, docs)] + [
                load_corpus(path, census_year=CENSUS, threads=threads)
                for threads in CLI_THREADS]
        for corpus in corpora:
            slots = corpus.ref_slots
            assert [normalize_venue(corpus.venue_tokens[v])
                    for v in corpus.slot_venue[slots].tolist()] == [
                r.venue_abbrev for r in want]
            table = match_corpus(corpus, journals)
            assert table.status.tolist() == [r.year_status for r in want]
            assert table.year.tolist() == [r.year or 0 for r in want]


# --- a loaded corpus's documents, read again from its file ------------------

def _documents_in_memory(path):
    """Every record of a corpus file as a ``Document``, malformed or not,
    read with ``json`` or a tab split: a line that yields no six fields is
    left out."""
    docs = []
    for line in path.read_bytes().removeprefix(BOM).splitlines():
        try:
            text = line.decode("utf-8")
            if path.suffix == ".tsv":
                doc_id, journal, year, doc_type, nref, refs = text.split("\t")
                if doc_id != "doc_id":
                    docs.append(Document(doc_id, journal, int(year), doc_type,
                                         refs.split(";") if refs else [],
                                         int(nref)))
            else:
                obj = json.loads(text)
                docs.append(Document(obj["doc_id"], obj["journal"],
                                     obj["year"], obj.get("type", "other"),
                                     obj.get("refs", []), obj["nref"]))
        except (KeyError, TypeError, ValueError, RecursionError):
            continue
    return docs


@pytest.fixture(scope="module")
def document_inputs(inputs, tmp_path_factory):
    """The ingest inputs, and CRLF and byte-order-mark copies of the
    fixture and of its TSV copy."""
    root = tmp_path_factory.mktemp("documents")
    paths = {name: _path(inputs[name]) for name in INPUTS}
    for name in ("fixture", "fixture_tsv"):
        data = paths[name].read_bytes()
        for kind, copy in (("crlf", data.replace(b"\n", b"\r\n")),
                           ("bom", BOM + data)):
            paths[f"{name}_{kind}"] = root / f"{kind}{paths[name].suffix}"
            paths[f"{name}_{kind}"].write_bytes(copy)
    return paths


DOCUMENT_INPUTS = INPUTS + ("fixture_crlf", "fixture_bom", "fixture_tsv_crlf",
                            "fixture_tsv_bom")


@pytest.mark.parametrize("name", DOCUMENT_INPUTS)
def test_loaded_documents_equal_the_records_built_in_memory(document_inputs,
                                                            name):
    path = document_inputs[name]
    built = Corpus(CENSUS, _documents_in_memory(path))
    assert built.documents
    for threads in CLI_THREADS:
        corpus = load_corpus(path, census_year=CENSUS, threads=threads)
        assert list(corpus.documents) == list(built.documents)
        assert corpus.documents[::-3] == built.documents[::-3]
        assert corpus == built


def _strings(value):
    """Every string held in a value, through lists, tuples, dicts, sets,
    object arrays and dataclass fields."""
    if isinstance(value, str):
        yield value
    elif isinstance(value, (list, tuple, set, frozenset)):
        for item in value:
            yield from _strings(item)
    elif isinstance(value, dict):
        for item in value.items():
            yield from _strings(item)
    elif isinstance(value, np.ndarray) and value.dtype == object:
        yield from _strings(value.tolist())
    elif hasattr(value, "__dataclass_fields__"):
        yield from _strings(list(vars(value).values()))


@pytest.mark.parametrize("name", ["fixture", "hand_jsonl", "hand_tsv"])
def test_a_loaded_corpus_and_its_ranges_hold_no_reference_text(
        document_inputs, name):
    path = document_inputs[name]
    refs = {r for d in _documents_in_memory(path) for r in d.refs}
    assert refs
    for threads in CLI_THREADS:
        corpus = load_corpus(path, census_year=CENSUS, threads=threads)
        assert not refs & set(_strings(list(vars(corpus).values())))
    format = corpus_mod._corpus_format(path)
    for start, end in corpus_mod._byte_ranges(path, 3):
        blob = pickle.dumps(corpus_mod._parse_range(path, format, start, end,
                                                    CENSUS))
        assert not [r for r in refs if r.encode("utf-8") in blob]


def test_merged_documents_carry_the_merged_journal():
    journals = load_journals(DATA / "fixture_journals.tsv")
    path = DATA / "fixture_corpus.jsonl"
    built, _ = merge_journal_parts(Corpus(CENSUS, _documents_in_memory(path)),
                                   journals)
    for threads in CLI_THREADS:
        loaded = load_corpus(path, census_year=CENSUS, threads=threads)
        merged, _ = merge_journal_parts(loaded, journals)
        assert [d.journal_id for d in merged.documents] == merged.doc_journals
        assert merged.documents == built.documents
        parts = {"J09B", "J09C"}
        assert not parts & {d.journal_id for d in merged.documents}
        assert parts <= {d.journal_id for d in loaded.documents}


def test_documents_of_a_changed_file_raise(tmp_path):
    """A loaded corpus reads its file only while its size and modification
    time are those it had at load; ``len`` reads nothing."""
    path = tmp_path / "c.jsonl"
    data = (DATA / "fixture_corpus.jsonl").read_bytes()
    path.write_bytes(data)
    stat = path.stat()
    changed = "c.jsonl has changed since it was loaded"
    corpus = load_corpus(path, census_year=CENSUS)
    with path.open("ab") as fh:    # before the first read
        fh.write(b"\n")
    with pytest.raises(CorpusFormatError, match=changed):
        corpus.documents[0]
    path.write_bytes(data)
    os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
    first = corpus.documents[3]
    assert first.refs == _documents_in_memory(path)[3].refs
    with path.open("ab") as fh:
        fh.write(b"\n")
    with pytest.raises(CorpusFormatError, match=changed):
        corpus.documents[3]
    path.write_bytes(data)
    os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
    assert corpus.documents[3] == first
    os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns + 1))
    with pytest.raises(CorpusFormatError, match=changed):
        corpus.documents[3]
    with pytest.raises(CorpusFormatError, match=changed):
        corpus == corpus
    path.unlink()
    assert len(corpus.documents) == 60


def test_documents_leave_no_file_open(tmp_path):
    """Reading documents, and failing to, closes every file it opens: a
    child run under the CI's warning flags writes nothing to stderr."""
    path = tmp_path / "c.jsonl"
    path.write_bytes((DATA / "fixture_corpus.jsonl").read_bytes())
    script = textwrap.dedent(f"""
        import gc, os
        from jifnorm import CorpusFormatError, corpus, load_corpus
        corpus._MIN_RANGE_BYTES = 64
        path = {str(path)!r}
        for threads in (1, 2, 3):
            docs = list(load_corpus(path, {CENSUS}, threads).documents)
            assert len(docs) == 60
        loaded = load_corpus(path, {CENSUS})
        os.utime(path, ns=(0, 0))
        try:
            loaded.documents[0]
        except CorpusFormatError:
            pass
        else:
            raise SystemExit("a changed file was read")
        del loaded
        gc.collect()
    """)
    proc = subprocess.run([sys.executable, *PYTHON_FLAGS, "-c", script],
                          capture_output=True, text=True, env=src_env(),
                          timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
