"""Indicator, citation-total and percentile tables read back the same way
in `rank`, `correlate` and `varcomp`: a citation-total file that
`indicators` writes (``journal_id window mode value``) reads as the
indicator of its variable id, and a malformed row is a fatal error that
names its file and line."""

import pytest

from jifnorm.cli import main

from conftest import CENSUS

VARCOMP_OUTPUTS = ("varcomp.tsv", "varcomp_reduction.tsv",
                   "varcomp_dispersion.tsv")


@pytest.fixture(scope="module")
def tables(tmp_path_factory, fixture_paths):
    out = tmp_path_factory.mktemp("indicators")
    code = main(["indicators", str(fixture_paths["corpus"]),
                 "--journals", str(fixture_paths["journals"]),
                 "--census-year", str(CENSUS), "--percentiles",
                 "--out", str(out)])
    assert code in (0, 1)
    return out


def run(args, capsys):
    capsys.readouterr()
    code = main([str(a) for a in args])
    return code, capsys.readouterr().err


def varcomp(paths, fixture_paths, out, capsys):
    code, err = run(["varcomp", *paths, "--fields", fixture_paths["fields"],
                     "--min-group-size", 2, "--reference", "TC-IC5",
                     "--out", out], capsys)
    files = {name: (out / name).read_bytes() for name in VARCOMP_OUTPUTS
             if (out / name).exists()}
    return code, err, files


def three_column_twin(count_file, indicator_id, path):
    """The values of a citation-total file as an indicator file."""
    lines = count_file.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "journal_id\twindow\tmode\tvalue"
    rows = [f"{jid}\t{indicator_id}\t{value}\n"
            for jid, _, _, value in (line.split("\t") for line in lines[1:])]
    path.write_text("journal_id\tindicator_id\tvalue\n" + "".join(rows),
                    encoding="utf-8")
    return path


def test_varcomp_reads_count_tables_as_their_variables(tmp_path, tables,
                                                       fixture_paths, capsys):
    ids = ["TC-IC5", "TC-FC5"]
    counts = [tables / f"{i}.tsv" for i in ids]
    twins = [three_column_twin(p, i, tmp_path / p.name)
             for p, i in zip(counts, ids)]
    got = varcomp(counts, fixture_paths, tmp_path / "counts", capsys)
    want = varcomp(twins, fixture_paths, tmp_path / "twins", capsys)
    assert want[0] in (0, 1), want[1]
    assert len(want[2]) == 3
    assert got == want
    rows = [line.split("\t")[0] for line in
            got[2]["varcomp.tsv"].decode().splitlines()[2:]]
    assert rows == ids


def test_correlate_and_rank_read_a_count_table(tmp_path, tables, capsys):
    code, err = run(["correlate", tables / "TC-FC.tsv", tables / "IF2-IC.tsv",
                     "--out", tmp_path / "corr"], capsys)
    assert code == 0, err
    header = (tmp_path / "corr" / "correlation_matrix.tsv").read_text(
        encoding="utf-8").splitlines()[2]
    assert header == "indicator_id\tTC-FC\tIF2-IC"
    code, err = run(["rank", tables / "TC-FC.tsv", "--top", 3,
                     "--out", tmp_path / "rank"], capsys)
    assert code == 0, err
    assert (tmp_path / "rank" / "ranking.tsv").read_text(
        encoding="utf-8").startswith("rank\tjournal_id\tvalue\n1\t")


@pytest.mark.parametrize("window,mode,message", [
    ("ten_year", "IC", "unknown window 'ten_year' or mode 'IC'"),
    ("five_year", "XC", "unknown window 'five_year' or mode 'XC'"),
])
def test_unknown_window_or_mode_in_count_table_fatal(tmp_path, capsys,
                                                     window, mode, message):
    path = tmp_path / "TC.tsv"
    path.write_text("journal_id\twindow\tmode\tvalue\n"
                    f"J01\tfive_year\tIC\t3\nJ02\t{window}\t{mode}\t4\n",
                    encoding="utf-8")
    code, err = run(["rank", path, "--top", 1, "--out", tmp_path], capsys)
    assert code == 2
    assert err == f"error: {path}:3: {message}\n"


def percentile_file(tables, tmp_path, edit):
    """The fixture's percentiles.tsv with ``edit`` applied to its lines."""
    lines = (tables / "percentiles.tsv").read_text(
        encoding="utf-8").splitlines()
    path = tmp_path / "percentiles.tsv"
    path.write_text("\n".join(edit(lines)) + "\n", encoding="utf-8")
    return path


@pytest.mark.parametrize("row,message", [
    ("J99\tTC-IC\t50.0000", "expected 4 columns, got 3"),
    ("J99\tTC-IC\tx\t3", "bad value 'x'"),
    ("J99\tTC-IC\t50.0000\ty", "bad value 'y'"),
    ("J99\tTC-IC\tnan\t3", "bad value 'nan'"),
])
def test_malformed_percentile_row_named(tmp_path, tables, fixture_paths,
                                        capsys, row, message):
    path = percentile_file(tables, tmp_path,
                           lambda lines: lines[:3] + [row] + lines[3:])
    code, err, _ = varcomp([path], fixture_paths, tmp_path / "out", capsys)
    assert code == 2
    assert err == f"error: {path}:4: {message}\n"


def test_percentile_journal_twice_for_one_indicator_fatal(
        tmp_path, tables, fixture_paths, capsys):
    lines = (tables / "percentiles.tsv").read_text(
        encoding="utf-8").splitlines()
    # the same journal under another indicator is the file's normal layout
    assert lines[1].split("\t")[0] == lines[11].split("\t")[0] == "J01"
    path = percentile_file(tables, tmp_path, lambda lines: lines + [lines[1]])
    code, err, _ = varcomp([path], fixture_paths, tmp_path / "out", capsys)
    assert code == 2
    assert err == f"error: {path}:{len(lines) + 1}: journal 'J01' listed twice\n"


def test_indicator_journal_twice_fatal(tmp_path, tables, capsys):
    path = tmp_path / "IF2-IC.tsv"
    path.write_bytes((tables / "IF2-IC.tsv").read_bytes()
                     + b"J01\tIF2-IC\t999.000000\n")
    n = len(path.read_text(encoding="utf-8").splitlines())
    for args in (["rank", path, "--top", 2], ["correlate", path, path]):
        code, err = run(args + ["--out", tmp_path / "out"], capsys)
        assert code == 2
        assert err == f"error: {path}:{n}: journal 'J01' listed twice\n"


def test_indicator_row_of_another_indicator_fatal(tmp_path, tables, capsys):
    path = tmp_path / "IF2-IC.tsv"
    text = (tables / "IF2-IC.tsv").read_text(encoding="utf-8")
    path.write_text(text.replace("J02\tIF2-IC", "J02\tIF5-IC"),
                    encoding="utf-8")
    code, err = run(["rank", path, "--top", 2, "--out", tmp_path], capsys)
    assert code == 2
    assert err == (f"error: {path}:3: indicator 'IF5-IC' in a table of "
                   "'IF2-IC'\n")


def with_value(source, path, lineno, text):
    """``source`` with the last field of line ``lineno`` set to ``text``."""
    lines = source.read_text(encoding="utf-8").splitlines()
    fields = lines[lineno - 1].split("\t")
    lines[lineno - 1] = "\t".join(fields[:-1] + [text])
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


@pytest.mark.parametrize("text", ["nan", "inf", "-inf", "NaN", "Infinity"])
def test_non_finite_indicator_value_fatal(tmp_path, tables, fixture_paths,
                                          capsys, text):
    path = with_value(tables / "IF2-IC.tsv", tmp_path / "IF2-IC.tsv", 3, text)
    want = (2, f"error: {path}:3: bad value {text!r}\n")
    for args in (["rank", path, "--top", 3],
                 ["correlate", path, tables / "IF5-FC.tsv"]):
        assert run(args + ["--out", tmp_path / "out"], capsys) == want
    code, err, _ = varcomp([path], fixture_paths, tmp_path / "vc", capsys)
    assert (code, err) == want


def test_non_finite_count_value_fatal(tmp_path, tables, fixture_paths, capsys):
    path = with_value(tables / "TC-FC.tsv", tmp_path / "TC-FC.tsv", 2, "inf")
    code, err, _ = varcomp([path], fixture_paths, tmp_path / "vc", capsys)
    assert (code, err) == (2, f"error: {path}:2: bad value 'inf'\n")


def test_correlate_reads_percentile_tables(tmp_path, tables, capsys):
    code, err = run(["correlate", tables / "percentiles.tsv",
                     tables / "IF2-IC.tsv", "--out", tmp_path], capsys)
    assert code in (0, 1), err
    header = (tmp_path / "correlation_matrix.tsv").read_text(
        encoding="utf-8").splitlines()[2].split("\t")
    sources = []
    for line in (tables / "percentiles.tsv").read_text(
            encoding="utf-8").splitlines()[1:]:
        if line.split("\t")[1] not in sources:
            sources.append(line.split("\t")[1])
    assert header == (["indicator_id"]
                      + [f"{s}:{pr}" for s in sources for pr in ("PR100", "PR6")]
                      + ["IF2-IC"])


def test_rank_of_a_percentile_file_fatal(tmp_path, tables, capsys):
    path = tables / "percentiles.tsv"
    code, err = run(["rank", path, "--top", 3, "--out", tmp_path], capsys)
    assert code == 2
    assert err == (f"error: {path}:1: percentile table where one indicator "
                   "table is expected\n")
    assert not (tmp_path / "ranking.tsv").exists()


def test_indicator_file_of_two_indicators_reads_as_two_tables(tmp_path, tables,
                                                              capsys):
    both = tmp_path / "both.tsv"
    both.write_text((tables / "IF2-IC.tsv").read_text(encoding="utf-8")
                    + (tables / "IF5-FC.tsv").read_text(encoding="utf-8"),
                    encoding="utf-8")
    code, err = run(["correlate", both, tables / "TC-FC.tsv",
                     "--out", tmp_path / "corr"], capsys)
    assert code in (0, 1), err
    header = (tmp_path / "corr" / "correlation_matrix.tsv").read_text(
        encoding="utf-8").splitlines()[2]
    assert header == "indicator_id\tIF2-IC\tIF5-FC\tTC-FC"


def test_correlate_one_percentile_file(tmp_path, tables, capsys):
    """One file of many tables is enough: the 13 indicators of the
    fixture's percentile file are 26 tables."""
    code, err = run(["correlate", tables / "percentiles.tsv",
                     "--out", tmp_path], capsys)
    assert (code, err) == (0, "")
    lines = (tmp_path / "correlation_matrix.tsv").read_text(
        encoding="utf-8").splitlines()
    header = lines[2].split("\t")
    assert len(header) == 1 + 26
    assert [line.split("\t")[0] for line in lines[3:]] == header[1:]


def test_correlate_one_table_exit_2(tmp_path, tables, capsys):
    out = tmp_path / "out"
    code, err = run(["correlate", tables / "IF2-IC.tsv", "--out", out],
                    capsys)
    assert (code, err) == (2, "error: need at least two indicator tables\n")
    assert not (out / "correlation_matrix.tsv").exists()


@pytest.mark.parametrize("name,row", [
    ("IF2-IC.tsv", "\tIF2-IC\t1.000000"), ("TC-IC.tsv", "\tall_years\tIC\t3"),
    ("percentiles.tsv", "\tIF2-IC\t50.0000\t2")])
def test_empty_journal_id_in_a_table_fatal(tmp_path, tables, fixture_paths,
                                           capsys, name, row):
    path = tmp_path / name
    path.write_text((tables / name).read_text(encoding="utf-8") + row + "\n",
                    encoding="utf-8")
    n = len(path.read_text(encoding="utf-8").splitlines())
    want = (2, f"error: {path}:{n}: empty journal_id\n")
    if name != "percentiles.tsv":
        assert run(["rank", path, "--top", 4, "--out", tmp_path / "rank"],
                   capsys) == want
        assert not (tmp_path / "rank" / "ranking.tsv").exists()
    code, err, files = varcomp([path], fixture_paths, tmp_path / "vc", capsys)
    assert (code, err, files) == (*want, {})


@pytest.mark.parametrize("text", ["1_0", "١٢", " 3", "3 ", "２"])
def test_table_value_is_an_ascii_decimal(tmp_path, tables, capsys, text):
    path = tmp_path / "IF2-IC.tsv"
    path.write_text("journal_id\tindicator_id\tvalue\n"
                    "J01\tIF2-IC\t1.0\nJ02\tIF2-IC\t2e0\nJ03\tIF2-IC\t-.5\n",
                    encoding="utf-8")
    assert run(["rank", path, "--top", 3, "--out", tmp_path / "ok"],
               capsys) == (0, "")
    ranking = (tmp_path / "ok" / "ranking.tsv").read_text(encoding="utf-8")
    assert ranking.splitlines()[1:] == ["1\tJ02\t2.000000", "2\tJ01\t1.000000",
                                        "3\tJ03\t-0.500000"]
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(f"J04\tIF2-IC\t{text}\n")
    out = tmp_path / "bad"
    assert run(["rank", path, "--top", 4, "--out", out], capsys) == (
        2, f"error: {path}:5: bad value {text!r}\n")
    assert not (out / "ranking.tsv").exists()
