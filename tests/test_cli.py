import json
import subprocess
import sys

import pytest

from jifnorm.cli import main

from conftest import CENSUS
from _oracle import full_pipeline


def run(args):
    return main([str(a) for a in args])


def read(path):
    return path.read_text(encoding="utf-8")


def dir_bytes(path):
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())
            if p.is_file()}


@pytest.fixture(scope="module")
def oracle(data_dir):
    return full_pipeline(data_dir / "fixture_corpus.jsonl",
                         data_dir / "fixture_journals.tsv", CENSUS)


@pytest.fixture(scope="module")
def indicator_dir(tmp_path_factory, fixture_paths):
    out = tmp_path_factory.mktemp("indicators")
    code = run(["indicators", fixture_paths["corpus"],
                "--journals", fixture_paths["journals"],
                "--census-year", CENSUS, "--percentiles", "--out", out])
    assert code in (0, 1)
    return out


def test_validate_fixture(tmp_path, fixture_paths, oracle):
    code = run(["validate", fixture_paths["corpus"],
                "--journals", fixture_paths["journals"],
                "--census-year", CENSUS, "--out", tmp_path])
    assert code == 0
    lines = read(tmp_path / "validation.tsv").splitlines()
    assert lines[0] == "metric\tcount\tfraction"
    cells = {row.split("\t")[0]: row.split("\t")[1] for row in lines[1:]}
    tally = oracle["validation"]
    assert int(cells["total_refs"]) == tally["total_refs"]
    assert int(cells["matched_refs"]) == tally["matched"]
    assert int(cells["invalid_year_refs"]) == tally["invalid"]
    manifest = json.loads(read(tmp_path / "manifest.json"))
    assert manifest["command"] == "validate"
    assert len(manifest["inputs"]) == 2
    assert all(len(h) == 64 for h in manifest["inputs"].values())


def test_validate_non_ascii_year_digits_are_invalid(tmp_path, fixture_paths):
    corpus = tmp_path / "c.jsonl"
    corpus.write_text(json.dumps({"doc_id": "X1", "journal": "J01", "year": 2010,
                                  "type": "article", "nref": 1,
                                  "refs": ["J A|\u00b2\u00b2\u00b2\u00b2"]}) + "\n",
                      encoding="utf-8")
    code = run(["validate", corpus, "--journals", fixture_paths["journals"],
                "--census-year", CENSUS, "--out", tmp_path / "out"])
    assert code == 0
    cells = dict(row.split("\t")[:2] for row in
                 read(tmp_path / "out" / "validation.tsv").splitlines()[1:])
    assert cells["total_refs"] == "1"
    assert cells["invalid_year_refs"] == "1"


def test_validate_missing_file_exit_2(tmp_path, fixture_paths):
    code = run(["validate", tmp_path / "nope.jsonl",
                "--journals", fixture_paths["journals"],
                "--census-year", CENSUS, "--out", tmp_path])
    assert code == 2


def test_validate_corpus_with_bad_record_warns(tmp_path, fixture_paths):
    code = run(["validate", fixture_paths["bad_corpus"],
                "--journals", fixture_paths["journals"],
                "--census-year", CENSUS, "--out", tmp_path])
    assert code == 1
    assert (tmp_path / "load_errors.txt").exists()


def test_missing_required_flag_exit_2(tmp_path, fixture_paths):
    code = run(["validate", fixture_paths["corpus"], "--out", tmp_path,
                "--journals", fixture_paths["journals"]])
    assert code == 2


def test_indicator_files_match_oracle(indicator_dir, oracle):
    for name, expected in oracle["indicators"].items():
        if name.endswith(":undefined"):
            continue
        path = indicator_dir / f"{name.replace('/', '_')}.tsv"
        assert path.exists(), name
        got = {}
        for line in read(path).splitlines()[1:]:
            jid, ind, value = line.split("\t")
            assert ind == name
            got[jid] = float(value)
        assert set(got) == set(expected)
        for jid, v in expected.items():
            assert got[jid] == pytest.approx(v, abs=1e-6), (name, jid)


def test_undefined_sidecar_for_zero_denominator(indicator_dir):
    sidecar = indicator_dir / "IF2-IC.tsv.undefined"
    assert sidecar.exists()
    assert read(sidecar).splitlines()[1:] == ["J10"]


def test_count_files_and_wide_table(indicator_dir, oracle):
    assert read(indicator_dir / "TC-IC2.tsv").splitlines()[0] == \
        "journal_id\twindow\tmode\tvalue"
    wide = read(indicator_dir / "indicators_wide.tsv").splitlines()
    header = wide[0].split("\t")
    assert header[0] == "journal_id"
    for needed in ("TC-IC", "TC-FC5+", "IF5-FC", "FC/P", "IF2-Denom",
                   "Items2010", "IF2-Num"):
        assert needed in header
    j10 = next(r for r in wide[1:] if r.startswith("J10\t")).split("\t")
    assert j10[header.index("IF2-IC")] == ""     # undefined stays blank


def test_percentiles_output(indicator_dir):
    lines = read(indicator_dir / "percentiles.tsv").splitlines()
    assert lines[0] == "journal_id\tindicator_id\tpr100\tpr6"
    ids = {line.split("\t")[1] for line in lines[1:]}
    assert "TC-FC5" in ids and "FC/P" in ids and "IF2-Denom" in ids
    assert "IF5-FC" not in ids


def test_indicators_rerun_byte_identical(tmp_path, fixture_paths):
    outs = []
    for sub in ("one", "two"):
        out = tmp_path / sub
        run(["indicators", fixture_paths["corpus"],
             "--journals", fixture_paths["journals"],
             "--census-year", CENSUS, "--out", out])
        outs.append(dir_bytes(out))
    assert outs[0] == outs[1]


def test_indicators_external_import(tmp_path, fixture_paths):
    out = tmp_path / "ind"
    code = run(["indicators", fixture_paths["corpus"],
                "--journals", fixture_paths["journals"],
                "--census-year", CENSUS, "--out", out,
                "--external", f"ISI-IF2={fixture_paths['external']}"])
    assert code == 1   # the external file carries bad rows -> warnings
    lines = read(out / "ISI-IF2.tsv").splitlines()
    assert lines[1].split("\t") == ["J01", "ISI-IF2", "4.215000"]
    header = read(out / "indicators_wide.tsv").splitlines()[0].split("\t")
    assert "ISI-IF2" in header


@pytest.mark.parametrize("rows,values,message", [
    ("J01\t4.5\nJ04\tinf\nJ05\t-inf\n", {"J01": "4.500000"},
     ["3: non-finite value 'inf'", "4: non-finite value '-inf'"]),
    ("J01\t1.5\nJ01\t2.5\nJ04\tnan\n", {"J01": "1.500000"},
     ["3: journal 'J01' listed twice", "4: non-finite value 'nan'"]),
], ids=["infinite", "repeated"])
def test_external_bad_rows_skipped_with_warning(tmp_path, fixture_paths, capsys,
                                                rows, values, message):
    ext = tmp_path / "ext.tsv"
    ext.write_text("journal_id\tvalue\n" + rows, encoding="utf-8")
    out = tmp_path / "ind"
    capsys.readouterr()
    code = run(["indicators", fixture_paths["corpus"],
                "--journals", fixture_paths["journals"],
                "--census-year", CENSUS, "--out", out,
                "--external", f"X={ext}"])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert [line for line in err if str(ext) in line] == [
        f"warning: {ext}:{m}" for m in message]
    lines = read(out / "X.tsv").splitlines()
    assert dict((jid, v) for jid, _, v in
                (line.split("\t") for line in lines[1:])) == values


def test_indicators_empty_citation_corpus(tmp_path, fixture_paths):
    corpus = tmp_path / "empty.jsonl"
    corpus.write_text(
        '{"doc_id": "d1", "journal": "J01", "year": 2010, "type": "article",'
        ' "nref": 0, "refs": []}\n', encoding="utf-8")
    out = tmp_path / "out"
    code = run(["indicators", corpus, "--journals", fixture_paths["journals"],
                "--census-year", CENSUS, "--out", out])
    assert code in (0, 1)
    for line in read(out / "TC-IC2.tsv").splitlines()[1:]:
        assert line.split("\t")[3] == "0"


def test_rank_top_k(tmp_path, indicator_dir):
    out = tmp_path / "rank"
    code = run(["rank", indicator_dir / "IF5-FC.tsv", "--top", 5, "--out", out])
    assert code == 0
    lines = read(out / "ranking.tsv").splitlines()
    assert lines[0] == "rank\tjournal_id\tvalue"
    values = [float(r.split("\t")[2]) for r in lines[1:]]
    assert values == sorted(values, reverse=True)
    assert len(values) == 5


def test_rank_top_1_is_max(tmp_path, indicator_dir):
    out = tmp_path / "rank1"
    run(["rank", indicator_dir / "IF5-FC.tsv", "--top", 1, "--out", out])
    top = read(out / "ranking.tsv").splitlines()[1].split("\t")
    table = {line.split("\t")[0]: float(line.split("\t")[2])
             for line in read(indicator_dir / "IF5-FC.tsv").splitlines()[1:]}
    assert float(top[2]) == pytest.approx(max(table.values()), abs=1e-6)


def test_rank_ties_broken_by_journal_id(tmp_path):
    ind = tmp_path / "X.tsv"
    ind.write_text("journal_id\tindicator_id\tvalue\n"
                   "JB\tX\t5.000000\nJA\tX\t5.000000\nJC\tX\t1.000000\n",
                   encoding="utf-8")
    out = tmp_path / "out"
    run(["rank", ind, "--top", 3, "--out", out])
    order = [r.split("\t")[1] for r in read(out / "ranking.tsv").splitlines()[1:]]
    assert order == ["JA", "JB", "JC"]


def test_rank_k_beyond_population_warns(tmp_path, indicator_dir):
    out = tmp_path / "rankbig"
    code = run(["rank", indicator_dir / "IF5-FC.tsv", "--top", 999, "--out", out])
    assert code == 1
    assert len(read(out / "ranking.tsv").splitlines()) == 10   # header + 9


def test_rank_pr6_lists_top_class_alphabetically(tmp_path):
    ind = tmp_path / "X.tsv"
    rows = [f"J{i:04d}\tX\t{float(i):.6f}" for i in range(200)]
    ind.write_text("journal_id\tindicator_id\tvalue\n" + "\n".join(rows) + "\n",
                   encoding="utf-8")
    out = tmp_path / "out"
    code = run(["rank", ind, "--pr6", "--out", out])
    assert code == 0
    lines = read(out / "ranking.tsv").splitlines()
    assert lines[0] == "journal_id\tindicator_id\tpr100\tpr6"
    ids = [r.split("\t")[0] for r in lines[1:]]
    assert ids == sorted(ids)
    assert ids == [f"J{i:04d}" for i in range(198, 200)]   # pr100 >= 99


def test_rank_requires_exactly_one_mode(tmp_path, indicator_dir):
    assert run(["rank", indicator_dir / "IF5-FC.tsv", "--out", tmp_path]) == 2
    assert run(["rank", indicator_dir / "IF5-FC.tsv", "--top", 3, "--pr6",
                "--out", tmp_path]) == 2


def test_correlate_matrix(tmp_path, indicator_dir):
    out = tmp_path / "corr"
    code = run(["correlate", indicator_dir / "IF5-FC.tsv",
                indicator_dir / "IF5-IC.tsv", indicator_dir / "IF2-FC.tsv",
                "--out", out])
    assert code == 0
    lines = [l for l in read(out / "correlation_matrix.tsv").splitlines()
             if not l.startswith("#")]
    assert lines[0].split("\t") == ["indicator_id", "IF5-FC", "IF5-IC", "IF2-FC"]
    first = lines[1].split("\t")
    assert first[1] == ""        # empty diagonal


def test_correlate_file_with_itself(tmp_path, indicator_dir):
    out = tmp_path / "corr1"
    run(["correlate", indicator_dir / "IF5-FC.tsv", indicator_dir / "IF5-FC.tsv",
         "--out", out])
    lines = [l for l in read(out / "correlation_matrix.tsv").splitlines()
             if not l.startswith("#")]
    assert lines[1].split("\t")[2] == "1.0000"
    assert lines[2].split("\t")[1] == "1.0000"


def test_correlate_constant_indicator_flagged(tmp_path, indicator_dir):
    const = tmp_path / "CONST.tsv"
    ids = [line.split("\t")[0]
           for line in read(indicator_dir / "IF5-FC.tsv").splitlines()[1:]]
    const.write_text("journal_id\tindicator_id\tvalue\n"
                     + "".join(f"{j}\tCONST\t1.000000\n" for j in ids),
                     encoding="utf-8")
    out = tmp_path / "corr2"
    code = run(["correlate", indicator_dir / "IF5-FC.tsv", const, "--out", out])
    assert code == 1
    lines = [l for l in read(out / "correlation_matrix.tsv").splitlines()
             if not l.startswith("#")]
    assert lines[1].split("\t")[2] == ""


def test_varcomp_report(tmp_path, indicator_dir, fixture_paths):
    out = tmp_path / "vc"
    code = run(["varcomp", indicator_dir / "IF2-IC.tsv",
                indicator_dir / "IF5-FC.tsv",
                "--fields", fixture_paths["fields"],
                "--min-group-size", 2, "--n-perm", 999, "--seed", 7,
                "--out", out])
    assert code == 0
    lines = [l for l in read(out / "varcomp.tsv").splitlines()
             if not l.startswith("#")]
    assert lines[0].split("\t") == ["indicator_id", "sigma2_between",
                                    "sigma2_within", "eta2", "perm_p",
                                    "groups_used"]
    rows = {l.split("\t")[0]: l.split("\t") for l in lines[1:]}
    assert set(rows) == {"IF2-IC", "IF5-FC"}
    assert rows["IF2-IC"][5] == "3"     # MATH excluded at min size 2en
    reduction = read(out / "varcomp_reduction.tsv").splitlines()
    assert reduction[1].split("\t")[:2] == ["IF5-FC", "IF2-IC"]
    dispersion = read(out / "varcomp_dispersion.tsv").splitlines()
    assert dispersion[0] == "indicator_id\tfield\tvar_over_mean"


def test_varcomp_same_seed_identical(tmp_path, indicator_dir, fixture_paths):
    outs = []
    for sub in ("one", "two"):
        out = tmp_path / sub
        run(["varcomp", indicator_dir / "IF5-FC.tsv",
             "--fields", fixture_paths["fields"], "--min-group-size", 2,
             "--n-perm", 999, "--seed", 5, "--reference", "IF5-FC",
             "--out", out])
        outs.append(dir_bytes(out))
    assert outs[0] == outs[1]


def test_varcomp_single_group_fatal(tmp_path, indicator_dir, fixture_paths):
    code = run(["varcomp", indicator_dir / "IF5-FC.tsv",
                "--fields", fixture_paths["fields"], "--min-group-size", 4,
                "--out", tmp_path])
    assert code == 2


def test_varcomp_field_scheme_from_journal_master(tmp_path, indicator_dir,
                                                 fixture_paths):
    """The journal master's field column gives the fixture's field file's
    scheme (its extra merged-away journals have no values), so the
    outputs match; only the manifest's inputs differ."""
    outs = {}
    for flag in ("fields", "journals"):
        out = tmp_path / flag
        assert run(["varcomp", indicator_dir / "IF2-IC.tsv",
                    indicator_dir / "IF5-FC.tsv", f"--{flag}",
                    fixture_paths[flag], "--min-group-size", 2,
                    "--out", out]) == 0
        outs[flag] = dir_bytes(out)
        manifest = json.loads(outs[flag].pop("manifest.json"))
        assert str(fixture_paths[flag]) in manifest["inputs"]
    assert outs["journals"] == outs["fields"]
    assert len(outs["fields"]) == 3


def test_varcomp_without_field_scheme_exit_2(tmp_path, indicator_dir, capsys):
    capsys.readouterr()
    out = tmp_path / "vc"
    assert run(["varcomp", indicator_dir / "IF2-IC.tsv", "--out", out]) == 2
    assert capsys.readouterr().err == (
        "error: varcomp needs --fields or --journals for the field scheme\n")
    assert not list(out.iterdir())


def test_varcomp_accepts_percentile_files(tmp_path, indicator_dir,
                                          fixture_paths):
    out = tmp_path / "vcp"
    code = run(["varcomp", indicator_dir / "percentiles.tsv",
                "--fields", fixture_paths["fields"], "--min-group-size", 2,
                "--reference", "TC-IC:PR100", "--out", out])
    assert code in (0, 1)
    lines = [l for l in read(out / "varcomp.tsv").splitlines()
             if not l.startswith("#")]
    ids = [l.split("\t")[0] for l in lines[1:]]
    # one :PR100/:PR6 pair per indicator in the file, in file order
    sources = []
    for line in read(indicator_dir / "percentiles.tsv").splitlines()[1:]:
        source = line.split("\t")[1]
        if source not in sources:
            sources.append(source)
    assert len(sources) == 13
    assert ids == [f"{s}:{pr}" for s in sources for pr in ("PR100", "PR6")]


def test_synth_roundtrip_validates(tmp_path, data_dir):
    cfg = tmp_path / "synth.cfg"
    cfg.write_text(
        "census_year = 2010\nyears_back = 10\nseed = 12\n"
        "quality_spread = 0.3\n"
        "field.A.n_journals = 4\nfield.A.papers_per_journal_per_year = 25\n"
        "field.A.mean_ref_len = 12\nfield.A.ref_age_half_life = 3\n"
        "field.B.n_journals = 4\nfield.B.papers_per_journal_per_year = 25\n"
        "field.B.mean_ref_len = 30\nfield.B.ref_age_half_life = 5\n",
        encoding="utf-8")
    out = tmp_path / "synth_out"
    assert run(["synth", cfg, "--out", out]) == 0
    for name in ("corpus.jsonl", "journals.tsv", "fields.tsv",
                 "ground_truth_journals.tsv", "ground_truth_fields.tsv",
                 "manifest.json"):
        assert (out / name).exists()

    vout = tmp_path / "validated"
    assert run(["validate", out / "corpus.jsonl", "--journals",
                out / "journals.tsv", "--census-year", 2010,
                "--out", vout]) == 0
    report = dict(l.split("\t")[:2]
                  for l in read(vout / "validation.tsv").splitlines()[1:])
    assert report["invalid_year_refs"] == "0"
    assert report["unmatched_venue_refs"] == "0"

    out2 = tmp_path / "synth_out2"
    run(["synth", cfg, "--out", out2])
    assert dir_bytes(out) == dir_bytes(out2)


def test_synth_seed_flag_overrides_config(tmp_path):
    cfg = tmp_path / "synth.cfg"
    cfg.write_text(
        "census_year = 2010\nseed = 1\nyears_back = 10\n"
        "field.A.n_journals = 3\nfield.A.papers_per_journal_per_year = 10\n"
        "field.A.mean_ref_len = 8\nfield.A.ref_age_half_life = 3\n",
        encoding="utf-8")
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    run(["synth", cfg, "--out", a])
    run(["synth", cfg, "--out", b, "--seed", 1])
    run(["synth", cfg, "--out", c, "--seed", 2])
    assert (a / "corpus.jsonl").read_bytes() == (b / "corpus.jsonl").read_bytes()
    assert (a / "corpus.jsonl").read_bytes() != (c / "corpus.jsonl").read_bytes()


def test_synth_invalid_config_exit_2(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("census_year = 2010\nfield.A.n_journals = 0\n"
                   "field.A.papers_per_journal_per_year = 10\n"
                   "field.A.mean_ref_len = 8\nfield.A.ref_age_half_life = 3\n",
                   encoding="utf-8")
    assert run(["synth", cfg, "--out", tmp_path / "x"]) == 2


def test_config_file_equivalents_and_flag_priority(tmp_path, fixture_paths):
    conf = tmp_path / "run.cfg"
    conf.write_text(f"census_year = 1905\njournals = {fixture_paths['journals']}\n"
                    f"out = {tmp_path / 'from_config'}\n", encoding="utf-8")
    # flag overrides the bogus census year from the config
    code = run(["validate", fixture_paths["corpus"], "--config", conf,
                "--census-year", CENSUS])
    assert code == 0
    assert (tmp_path / "from_config" / "validation.tsv").exists()


def test_unknown_config_key_exit_2(tmp_path, fixture_paths, capsys):
    conf = tmp_path / "run.cfg"
    for key in ("n_perms", "perm_stat", "config", "external", "corpus", "help"):
        conf.write_text(f"{key} = 5000\n", encoding="utf-8")
        capsys.readouterr()
        assert run(["validate", fixture_paths["corpus"], "--config", conf,
                    "--journals", fixture_paths["journals"],
                    "--census-year", CENSUS, "--out", tmp_path / "out"]) == 2
        assert capsys.readouterr().err == (
            f"error: run.cfg:1: unknown key {key!r}\n")
    assert not (tmp_path / "out").exists()


def test_perm_stat_flag_is_a_usage_error(tmp_path, indicator_dir, capsys):
    capsys.readouterr()
    with pytest.raises(SystemExit) as info:
        run(["varcomp", indicator_dir / "IF2-IC.tsv", "--perm-stat", "eta2",
             "--out", tmp_path])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: jifnorm [-h] [--version]")
    assert "error: unrecognized arguments: --perm-stat eta2" in err


def test_one_config_serves_every_command(tmp_path, fixture_paths,
                                         indicator_dir, capsys):
    """A config may hold keys of several commands; each command reads the
    keys it has and ignores the others."""
    synth_cfg = tmp_path / "synth.cfg"
    synth_cfg.write_text(
        "census_year = 2010\nseed = 1\nyears_back = 10\n"
        "field.A.n_journals = 3\nfield.A.papers_per_journal_per_year = 10\n"
        "field.A.mean_ref_len = 8\nfield.A.ref_age_half_life = 3\n",
        encoding="utf-8")
    conf = tmp_path / "run.cfg"
    conf.write_text(
        f"census_year = {CENSUS}\njournals = {fixture_paths['journals']}\n"
        f"fields = {fixture_paths['fields']}\nseed = 3\nthreads = 1\n"
        "min_group_size = 2\nn_perm = 999\nreference = IF2-IC\n"
        "citable_types = article,review\nformat = auto\npercentiles = yes\n"
        "top = 3\n", encoding="utf-8")
    ind = indicator_dir
    commands = {
        "validate": [fixture_paths["corpus"]],
        "indicators": [fixture_paths["corpus"]],
        "rank": [ind / "IF2-IC.tsv"],
        "correlate": [ind / "IF2-IC.tsv", ind / "IF5-FC.tsv"],
        "varcomp": [ind / "IF2-IC.tsv", ind / "IF5-FC.tsv"],
        "synth": [synth_cfg],
    }
    for command, positionals in commands.items():
        capsys.readouterr()
        out = tmp_path / command
        code = run([command, *positionals, "--config", conf, "--out", out])
        assert code in (0, 1), (command, capsys.readouterr().err)
        assert "error" not in capsys.readouterr().err
        assert (out / "manifest.json").exists()
    assert (tmp_path / "indicators" / "percentiles.tsv").exists()
    assert len(read(tmp_path / "rank" / "ranking.tsv").splitlines()) == 4


def test_console_entry_point_runs():
    proc = subprocess.run([sys.executable, "-m", "jifnorm", "--version"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip()


@pytest.mark.parametrize("threads", [0, -3])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_threads_below_one_exit_2(tmp_path, fixture_paths, capsys, threads,
                                  source):
    args = ["indicators", fixture_paths["corpus"],
            "--journals", fixture_paths["journals"],
            "--census-year", CENSUS, "--out", tmp_path / "out"]
    if source == "flag":
        args += ["--threads", threads]
    else:
        conf = tmp_path / "run.cfg"
        conf.write_text(f"threads = {threads}\n", encoding="utf-8")
        args += ["--config", conf]
    assert run(args) == 2
    assert capsys.readouterr().err == "error: --threads must be >= 1\n"
    assert not (tmp_path / "out").exists()


def test_threads_beyond_ranges_start_no_worker(tmp_path, fixture_paths,
                                               monkeypatch, capsys):
    """The fixture is far below one range's minimum size, so it is read as
    one range by this process, whatever --threads asks for."""
    import multiprocessing

    def no_worker(*args, **kwargs):
        raise AssertionError("a worker process was started")

    monkeypatch.setattr(multiprocessing, "get_context", no_worker)
    results = {}
    for threads in (1, 64):
        out = tmp_path / str(threads)
        code = run(["indicators", fixture_paths["corpus"],
                    "--journals", fixture_paths["journals"],
                    "--census-year", CENSUS, "--percentiles",
                    "--threads", threads, "--out", out])
        results[threads] = code, capsys.readouterr().err, dir_bytes(out)
    assert results[1][0] == 1
    assert results[64] == results[1]


def test_varcomp_imports_no_multiprocessing(tmp_path, indicator_dir,
                                            fixture_paths):
    script = ("import sys\nfrom jifnorm.cli import main\n"
              "code = main(sys.argv[1:])\n"
              "assert 'multiprocessing' not in sys.modules\n"
              "sys.exit(code)\n")
    proc = subprocess.run(
        [sys.executable, "-c", script, "varcomp",
         str(indicator_dir / "IF5-FC.tsv"), str(indicator_dir / "IF2-IC.tsv"),
         "--fields", str(fixture_paths["fields"]), "--min-group-size", "2",
         "--n-perm", "999", "--out", str(tmp_path)],
        capture_output=True, text=True)
    assert proc.returncode in (0, 1), proc.stderr


COMMAND_FLAGS = {
    "validate": {"--census-year", "--journals", "--format"},
    "indicators": {"--census-year", "--journals", "--format",
                   "--citable-types", "--percentiles", "--external"},
    "rank": {"--top", "--pr6"},
    "correlate": set(),
    "varcomp": {"--fields", "--journals", "--min-group-size", "--n-perm",
                "--seed", "--reference"},
    "synth": {"--seed"},
}


def test_each_command_accepts_only_the_flags_it_reads():
    from test_readme_cli import parser_flags
    shared = {"--config", "--out", "--threads"}
    assert parser_flags() == {command: flags | shared
                              for command, flags in COMMAND_FLAGS.items()}


def test_flag_of_another_command_is_a_usage_error(tmp_path, capsys):
    synth_cfg = tmp_path / "synth.cfg"
    synth_cfg.write_text(
        "census_year = 2010\nseed = 1\nyears_back = 10\n"
        "field.A.n_journals = 3\nfield.A.papers_per_journal_per_year = 10\n"
        "field.A.mean_ref_len = 8\nfield.A.ref_age_half_life = 3\n",
        encoding="utf-8")
    capsys.readouterr()
    with pytest.raises(SystemExit) as info:
        run(["synth", synth_cfg, "--census-year", 2005, "--out", tmp_path / "o"])
    assert info.value.code == 2
    assert ("error: unrecognized arguments: --census-year 2005"
            in capsys.readouterr().err)
    assert not (tmp_path / "o").exists()


def _fatal(capsys, tmp_path, args, config=None):
    """Run a command that must fail with exit 2 before creating --out;
    ``config`` lines go to a --config file."""
    out = tmp_path / "out"
    if config is not None:
        conf = tmp_path / "run.cfg"
        conf.write_text(config, encoding="utf-8")
        args = [*args, "--config", conf]
    capsys.readouterr()
    assert run([*args, "--out", out]) == 2
    assert not out.exists()
    return capsys.readouterr().err


@pytest.mark.parametrize("top", [0, -2])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_rank_top_below_one_exit_2(tmp_path, indicator_dir, capsys, top,
                                   source):
    args = ["rank", indicator_dir / "IF2-IC.tsv"]
    if source == "flag":
        err = _fatal(capsys, tmp_path, [*args, "--top", top])
    else:
        err = _fatal(capsys, tmp_path, args, f"top = {top}\n")
    assert err == "error: --top must be >= 1\n"


def test_negative_seed_exit_2(tmp_path, indicator_dir, fixture_paths, capsys):
    synth_cfg = tmp_path / "synth.cfg"
    synth_text = ("census_year = 2010\nseed = 1\nyears_back = 10\n"
                  "field.A.n_journals = 3\n"
                  "field.A.papers_per_journal_per_year = 10\n"
                  "field.A.mean_ref_len = 8\nfield.A.ref_age_half_life = 3\n")
    synth_cfg.write_text(synth_text, encoding="utf-8")
    varcomp = ["varcomp", indicator_dir / "IF2-IC.tsv",
               "--fields", fixture_paths["fields"], "--min-group-size", 2]
    for args, config in (([*varcomp, "--seed", -1], None),
                         (varcomp, "seed = -2\n"),
                         (["synth", synth_cfg, "--seed", -3], None)):
        assert (_fatal(capsys, tmp_path, args, config)
                == "error: --seed must be >= 0\n")
    synth_cfg.write_text(synth_text.replace("seed = 1", "seed = -1"),
                         encoding="utf-8")
    assert run(["synth", synth_cfg, "--out", tmp_path / "synth"]) == 2
    assert capsys.readouterr().err == "error: seed must be >= 0\n"


@pytest.mark.parametrize("line", ["quality_spread = nan",
                                  "field.A.ref_age_half_life = inf",
                                  "field.A.mean_ref_len = -inf"])
def test_synth_non_finite_parameter_exit_2(tmp_path, capsys, line):
    synth_cfg = tmp_path / "synth.cfg"
    synth_cfg.write_text(
        "census_year = 2010\nseed = 1\nyears_back = 10\n"
        "field.A.n_journals = 3\nfield.A.papers_per_journal_per_year = 10\n"
        "field.A.mean_ref_len = 8\nfield.A.ref_age_half_life = 3\n"
        f"{line}\n", encoding="utf-8")
    capsys.readouterr()
    assert run(["synth", synth_cfg, "--out", tmp_path / "out"]) == 2
    value = line.split(" = ")[1]
    assert capsys.readouterr().err == (
        f"error: synth.cfg:8: bad value {value!r}\n")


@pytest.mark.parametrize("ids", [["TC-IC"], ["FC_P"], ["EXT", "EXT"],
                                 ["A/B", "A_B"]])
def test_external_id_or_file_name_in_use_exit_2(tmp_path, fixture_paths,
                                                capsys, ids):
    """TC-IC is a computed table's id, and FC_P.tsv the file of FC/P; a
    second --external may not take the first's id or file name either.
    Nothing is written."""
    out = tmp_path / "ind"
    args = ["indicators", fixture_paths["corpus"],
            "--journals", fixture_paths["journals"], "--census-year", CENSUS,
            "--percentiles", "--out", out]
    for indicator_id in ids:
        args += ["--external", f"{indicator_id}={fixture_paths['external']}"]
    capsys.readouterr()
    assert run(args) == 2
    name = ids[-1].replace("/", "_") + ".tsv"
    assert capsys.readouterr().err == (
        f"error: --external {ids[-1]}: {name} is already an output\n")
    assert not list(out.iterdir())


@pytest.mark.parametrize("names", [["IF2-IC.tsv", "IF2-IC.tsv", "IF5-FC.tsv"],
                                   ["percentiles.tsv", "percentiles.tsv"]])
def test_varcomp_indicator_read_twice_exit_2(tmp_path, indicator_dir,
                                             fixture_paths, capsys, names):
    out = tmp_path / "vc"
    capsys.readouterr()
    assert run(["varcomp", *(indicator_dir / n for n in names),
                "--fields", fixture_paths["fields"], "--min-group-size", 2,
                "--out", out]) == 2
    first = "IF2-IC" if names[0] == "IF2-IC.tsv" else "TC-IC:PR100"
    assert capsys.readouterr().err == (
        f"error: indicator {first!r} read twice\n")
    assert not list(out.iterdir())


@pytest.mark.parametrize("size", [0, -5])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_min_group_size_below_one_exit_2(tmp_path, indicator_dir,
                                         fixture_paths, capsys, size, source):
    args = ["varcomp", indicator_dir / "IF5-FC.tsv",
            "--fields", fixture_paths["fields"]]
    if source == "flag":
        err = _fatal(capsys, tmp_path, [*args, "--min-group-size", size])
    else:
        err = _fatal(capsys, tmp_path, args, f"min_group_size = {size}\n")
    assert err == "error: --min-group-size must be >= 1\n"
