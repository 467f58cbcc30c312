"""A UTF-8 byte-order mark that opens a journal master, a field scheme, a
percentile file, a ``--config`` file or a synth config is ignored: each
reads as its twin without the mark. The ``--config`` and synth readers
share one key=value reader and keep their messages."""

import pytest

from jifnorm import load_journals, load_field_scheme, load_synth_config
from jifnorm.cli import CliError, _read_config, main
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
