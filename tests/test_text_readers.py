"""The rules every text reader shares.

A UTF-8 byte-order mark that opens a journal master, a field scheme, a
percentile file, a ``--config`` file or a synth config is ignored: each
reads as its twin without the mark. The ``--config`` and synth readers
share one key=value reader and keep their messages. A line of whitespace
without a tab is blank and skipped in every TSV reader, as in JSONL; a
line with a tab stays a row. An integer is an optional sign and ASCII
digits in TSV corpora, ``year=count`` pairs, config files and flags, and
a decimal is ASCII text without ``_`` or surrounding whitespace in
indicator tables, ``--external`` files and synth configs. No table reader
accepts an empty ``journal_id``."""

import math

import pytest

from jifnorm import (IndicatorError, JournalTableError, StatsError,
                     load_corpus,
                     load_journals, load_field_scheme, load_synth_config,
                     read_indicator_table, save_corpus)
from jifnorm._tsv import integer, number
from jifnorm.cli import CliError, _load_varcomp_tables, _read_config, main
from jifnorm.synthgen import SynthConfigError

from conftest import CENSUS

BOM = "\ufeff".encode("utf-8")

SYNTH_CONFIG = (
    "seed = 7\ncensus_year = 2010\nyears_back = 10\n"
    "field.A.n_journals = 4\nfield.A.papers_per_journal_per_year = 5\n"
    "field.A.mean_ref_len = 12\nfield.A.ref_age_half_life = 3\n")


def twins(tmp_path, name, data: bytes):
    """The same bytes written twice, the second time after a BOM."""
    plain, marked = tmp_path / "plain", tmp_path / "bom"
    plain.mkdir(exist_ok=True)
    marked.mkdir(exist_ok=True)
    (plain / name).write_bytes(data)
    (marked / name).write_bytes(BOM + data)
    return plain / name, marked / name


def test_journal_master_with_bom(tmp_path, fixture_paths):
    plain, marked = twins(tmp_path, "journals.tsv",
                          fixture_paths["journals"].read_bytes())
    assert marked.read_bytes().startswith(BOM + b"#")
    want = load_journals(plain)
    assert load_journals(marked).journals == want.journals
    assert len(want) == 12


def test_field_scheme_with_bom(tmp_path, fixture_paths):
    plain, marked = twins(tmp_path, "fields.tsv",
                          fixture_paths["fields"].read_bytes())
    assert marked.read_bytes().startswith(BOM + b"journal_id")
    want = load_field_scheme(plain)
    got = load_field_scheme(marked)
    assert got.assignment == want.assignment
    assert len(got.assignment) == 10


def test_percentile_file_with_bom_in_varcomp(tmp_path, fixture_paths, capsys):
    code = main(["indicators", str(fixture_paths["corpus"]),
                 "--journals", str(fixture_paths["journals"]),
                 "--census-year", str(CENSUS), "--percentiles",
                 "--out", str(tmp_path / "ind")])
    assert code in (0, 1)
    plain, marked = twins(tmp_path, "percentiles.tsv",
                          (tmp_path / "ind" / "percentiles.tsv").read_bytes())
    runs = []
    for path in (plain, marked):
        capsys.readouterr()
        out = path.parent / "out"
        code = main(["varcomp", str(path), "--fields",
                     str(fixture_paths["fields"]), "--min-group-size", "2",
                     "--reference", "TC-IC:PR100", "--out", str(out)])
        outputs = {name: (out / name).read_bytes() for name in (
            "varcomp.tsv", "varcomp_reduction.tsv", "varcomp_dispersion.tsv")}
        runs.append((code, capsys.readouterr().err, outputs))
    assert runs[0][0] in (0, 1)
    assert runs[1] == runs[0]


def test_config_file_with_bom(tmp_path, fixture_paths):
    text = (f"census_year = {CENSUS}\n"
            f"journals = {fixture_paths['journals']}\n").encode("utf-8")
    plain, marked = twins(tmp_path, "run.cfg", text)
    assert _read_config(str(marked)) == _read_config(str(plain)) == {
        "census_year": str(CENSUS), "journals": str(fixture_paths["journals"])}
    outputs = []
    for path in (plain, marked):
        out = path.parent / "out"
        code = main(["validate", str(fixture_paths["corpus"]),
                     "--config", str(path), "--out", str(out)])
        outputs.append((code, (out / "validation.tsv").read_bytes()))
    assert outputs[0][0] == 0
    assert outputs[1] == outputs[0]


def test_synth_config_with_bom(tmp_path):
    plain, marked = twins(tmp_path, "synth.cfg", SYNTH_CONFIG.encode("utf-8"))
    want = load_synth_config(plain)
    assert want.seed == 7
    assert load_synth_config(marked) == want


@pytest.mark.parametrize("read,error", [
    (lambda p: _read_config(str(p)), CliError),
    (load_synth_config, SynthConfigError)], ids=["config", "synth"])
def test_key_value_messages(tmp_path, read, error):
    missing = tmp_path / "missing.cfg"
    with pytest.raises(error) as info:
        read(missing)
    assert str(info.value) == f"config file not found: {missing}"
    bad = tmp_path / "bad.cfg"
    bad.write_text("# comment\n\nseed 7\n", encoding="utf-8")
    with pytest.raises(error) as info:
        read(bad)
    assert str(info.value) == "bad.cfg:3: expected key=value"


WHITESPACE = "  \x0b \x0c "   # no tab


def with_blank_lines(data: bytes) -> bytes:
    """The same lines with a whitespace line before each of the first three
    and after the last."""
    lines = data.decode("utf-8").splitlines(keepends=True)
    blank = WHITESPACE + "\n"
    return "".join(blank + line if i < 3 else line
                   for i, line in enumerate(lines)).encode() + blank.encode()


def blank_twins(tmp_path, name, data: bytes):
    plain, spaced = tmp_path / "plain", tmp_path / "spaced"
    plain.mkdir(exist_ok=True)
    spaced.mkdir(exist_ok=True)
    (plain / name).write_bytes(data)
    (spaced / name).write_bytes(with_blank_lines(data))
    return plain / name, spaced / name


@pytest.fixture(scope="module")
def tables(tmp_path_factory, fixture_paths):
    out = tmp_path_factory.mktemp("indicators")
    code = main(["indicators", str(fixture_paths["corpus"]),
                 "--journals", str(fixture_paths["journals"]),
                 "--census-year", str(CENSUS), "--percentiles",
                 "--out", str(out)])
    assert code in (0, 1)
    return out


def test_blank_lines_in_journal_master(tmp_path, fixture_paths):
    plain, spaced = blank_twins(tmp_path, "journals.tsv",
                                fixture_paths["journals"].read_bytes())
    assert load_journals(spaced).journals == load_journals(plain).journals


def test_blank_lines_in_field_scheme(tmp_path, fixture_paths):
    plain, spaced = blank_twins(tmp_path, "fields.tsv",
                                fixture_paths["fields"].read_bytes())
    assert (load_field_scheme(spaced).assignment
            == load_field_scheme(plain).assignment)


@pytest.mark.parametrize("name", ["IF2-IC.tsv", "TC-FC5+.tsv",
                                  "percentiles.tsv"])
def test_blank_lines_in_indicator_tables(tmp_path, tables, name):
    plain, spaced = blank_twins(tmp_path, name, (tables / name).read_bytes())
    want = _load_varcomp_tables([plain])
    assert want and all(t.values for t in want)
    assert _load_varcomp_tables([spaced]) == want


def test_line_with_a_tab_stays_a_row(tmp_path, tables):
    path = tmp_path / "IF2-IC.tsv"
    path.write_bytes((tables / "IF2-IC.tsv").read_bytes() + b" \t \n")
    n = len(path.read_text(encoding="utf-8").splitlines())
    with pytest.raises(IndicatorError) as info:
        read_indicator_table(path)
    assert str(info.value) == f"{path}:{n}: expected 3 columns, got 2"


def test_blank_lines_in_tsv_corpus(tmp_path, raw_fixture):
    corpus = raw_fixture[0]
    save_corpus(corpus, tmp_path / "corpus.tsv", format="tsv")
    plain, spaced = blank_twins(tmp_path, "corpus.tsv",
                                (tmp_path / "corpus.tsv").read_bytes())
    want = load_corpus(plain, census_year=CENSUS)
    got = load_corpus(spaced, census_year=CENSUS)
    assert got.load_errors == want.load_errors == []
    assert got == want
    assert got.documents == corpus.documents


TSV_HEADER = "doc_id\tjournal\tyear\ttype\tnref\trefs\n"


@pytest.mark.parametrize("year,nref,bad", [
    ("２０１０", "2", "２０１０"), ("2010", "1_0", "1_0"), ("2010", " 2", " 2"),
    ("٢٠١٠", "2", "٢٠١٠")])
def test_tsv_corpus_integers_are_ascii_digits(tmp_path, year, nref, bad):
    clean = tmp_path / "clean.tsv"
    clean.write_text(TSV_HEADER + "D1\tJ01\t2010\tarticle\t2\tJ A|2009\n",
                     encoding="utf-8")
    assert len(load_corpus(clean, census_year=CENSUS).doc_ids) == 1
    path = tmp_path / "c.tsv"
    path.write_text(TSV_HEADER + f"D1\tJ01\t{year}\tarticle\t{nref}\tJ A|2009\n",
                    encoding="utf-8")
    corpus = load_corpus(path, census_year=CENSUS)
    assert corpus.doc_ids == []
    assert corpus.load_errors == [
        f"c.tsv:2: invalid literal for int() with base 10: {bad!r}"]


@pytest.mark.parametrize("pair", ["２００９=５", "2009=1_0", "2_009=5"])
def test_year_count_pairs_are_ascii_digits(tmp_path, pair):
    row = "J01\tAnnals\tANN\tPHYS\t\t{}\n"
    clean = tmp_path / "clean.tsv"
    clean.write_text(row.format("2009=5"), encoding="utf-8")
    assert load_journals(clean).by_id["J01"].items_by_year == {2009: 5}
    path = tmp_path / "journals.tsv"
    path.write_text(row.format(pair), encoding="utf-8")
    with pytest.raises(JournalTableError) as info:
        load_journals(path)
    assert str(info.value) == f"journals.tsv:1: bad year=count pair {pair!r}"


def test_empty_journal_id_fatal(tmp_path, fixture_paths, capsys):
    path = tmp_path / "journals.tsv"
    path.write_text("J01\tAnnals\tANN\tPHYS\t\t2009=5\n"
                    "\tNo Id Letters\tNO ID LETT\tPHYS\t\t2009=5\n",
                    encoding="utf-8")
    with pytest.raises(JournalTableError) as info:
        load_journals(path)
    assert str(info.value) == "journals.tsv:2: empty journal_id"
    capsys.readouterr()
    assert main(["indicators", str(fixture_paths["corpus"]),
                 "--journals", str(path), "--census-year", "2010",
                 "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == "error: journals.tsv:2: empty journal_id\n"


@pytest.mark.parametrize("value", ["２０１０", "2_010"])
def test_config_integers_are_ascii_digits(tmp_path, fixture_paths, capsys,
                                          value):
    results = {}
    for name, census in (("clean", "2010"), ("bad", value)):
        conf = tmp_path / f"{name}.cfg"
        conf.write_text(f"census_year = {census}\n"
                        f"journals = {fixture_paths['journals']}\n",
                        encoding="utf-8")
        capsys.readouterr()
        code = main(["validate", str(fixture_paths["corpus"]),
                     "--config", str(conf), "--out", str(tmp_path / name)])
        results[name] = code, capsys.readouterr().err
    assert results["clean"] == (0, "")
    assert results["bad"] == (
        2, f"error: config key census_year: bad value {value!r}\n")


def test_synth_config_integers_are_ascii_digits(tmp_path):
    clean = tmp_path / "clean.cfg"
    clean.write_text(SYNTH_CONFIG, encoding="utf-8")
    assert load_synth_config(clean).seed == 7
    bad = tmp_path / "bad.cfg"
    bad.write_text(SYNTH_CONFIG.replace("seed = 7", "seed = 1_0"),
                   encoding="utf-8")
    with pytest.raises(SynthConfigError) as info:
        load_synth_config(bad)
    assert str(info.value) == "bad.cfg:1: bad value '1_0'"


def test_integer_flags_are_ascii_digits(tmp_path, fixture_paths, capsys):
    args = ["validate", str(fixture_paths["corpus"]),
            "--journals", str(fixture_paths["journals"]),
            "--out", str(tmp_path), "--census-year"]
    assert main(args + ["2010"]) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit) as info:
        main(args + ["２０１０"])
    assert info.value.code == 2
    assert ("argument --census-year: invalid integer value: '２０１０'"
            in capsys.readouterr().err)


@pytest.mark.parametrize("text,value", [
    ("0", 0), ("2010", 2010), ("+7", 7), ("-3", -3), ("007", 7)])
def test_integer_accepts_sign_and_ascii_digits(text, value):
    assert integer(text) == value


@pytest.mark.parametrize("text", [
    "", "+", "-", " 7", "7 ", "1_0", "２", "٣", "5.0", "0x10", "++1", "²"])
def test_integer_rejects_everything_else(text):
    with pytest.raises(ValueError) as info:
        integer(text)
    assert str(info.value) == f"invalid literal for int() with base 10: {text!r}"


@pytest.mark.parametrize("text,value", [
    ("0", 0.0), ("-1.5", -1.5), ("+2e3", 2000.0), (".5", 0.5), ("7.", 7.0)])
def test_number_reads_ascii_decimals(text, value):
    assert number(text) == value


@pytest.mark.parametrize("text", ["nan", "inf", "-Infinity"])
def test_number_leaves_finiteness_to_the_reader(text):
    assert not math.isfinite(number(text))


@pytest.mark.parametrize("text", [
    "", " 3", "3 ", "\t3", "1_0", "1_5", "١٢", "٥", "２", "0x10", "1,5"])
def test_number_rejects_everything_else(text):
    with pytest.raises(ValueError) as info:
        number(text)
    assert str(info.value) == f"could not convert string to float: {text!r}"


@pytest.mark.parametrize("text", ["1_5", "２", "١٢", " 4"])
def test_external_values_are_ascii_decimals(tmp_path, fixture_paths, capsys,
                                            text):
    ext = tmp_path / "ext.tsv"
    ext.write_text(f"journal_id\tvalue\nJ01\t4.5\nJ02\t{text}\n",
                   encoding="utf-8")
    capsys.readouterr()
    assert main(["indicators", str(fixture_paths["corpus"]),
                 "--journals", str(fixture_paths["journals"]),
                 "--census-year", str(CENSUS), "--out", str(tmp_path / "out"),
                 "--external", f"X={ext}"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert [line for line in err if str(ext) in line] == [
        f"warning: {ext}:3: non-numeric value {text!r}"]
    lines = (tmp_path / "out" / "X.tsv").read_text(encoding="utf-8")
    assert lines.splitlines()[1:] == ["J01\tX\t4.500000"]


@pytest.mark.parametrize("line,bad", [
    ("quality_spread = 0_5", "0_5"), ("field.A.mean_ref_len = ٥", "٥"),
    ("invalid_ref_rate = ０.1", "０.1")])
def test_synth_config_decimals_are_ascii(tmp_path, line, bad):
    clean = tmp_path / "clean.cfg"
    clean.write_text(SYNTH_CONFIG + "quality_spread = 0.5\n",
                     encoding="utf-8")
    assert load_synth_config(clean).quality_spread == 0.5
    path = tmp_path / "bad.cfg"
    path.write_text(SYNTH_CONFIG + line + "\n", encoding="utf-8")
    with pytest.raises(SynthConfigError) as info:
        load_synth_config(path)
    assert str(info.value) == f"bad.cfg:8: bad value {bad!r}"


@pytest.mark.parametrize("row,message", [
    ("\tPHYS", "empty journal_id"), ("J11\t", "empty field")])
def test_field_scheme_empty_id_or_field_fatal(tmp_path, fixture_paths, tables,
                                               capsys, row, message):
    path = tmp_path / "fields.tsv"
    path.write_text(fixture_paths["fields"].read_text(encoding="utf-8")
                    + row + "\n", encoding="utf-8")
    n = len(path.read_text(encoding="utf-8").splitlines())
    with pytest.raises(StatsError) as info:
        load_field_scheme(path)
    assert str(info.value) == f"{path}:{n}: {message}"
    capsys.readouterr()
    assert main(["varcomp", str(tables / "IF2-IC.tsv"), "--fields", str(path),
                 "--min-group-size", "2", "--out", str(tmp_path / "vc")]) == 2
    assert capsys.readouterr().err == f"error: {path}:{n}: {message}\n"
