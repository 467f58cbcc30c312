"""The README's ``## Library quick start`` block runs as written: in a
directory where ``jifnorm synth`` wrote the ``corpus.jsonl`` and
``journals.tsv`` it opens, it prints a validation report and then the
between-field component and permutation p-value of IF5-FC."""

from pathlib import Path

from jifnorm.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"

# two fields of 10 journals: at the default min_group_size of 10 both are
# retained, which the block's variance run needs
SYNTH_CONFIG = (
    "census_year = 2010\nyears_back = 10\nseed = 3\n"
    "field.A.n_journals = 10\nfield.A.papers_per_journal_per_year = 6\n"
    "field.A.mean_ref_len = 8\nfield.A.ref_age_half_life = 3\n"
    "field.B.n_journals = 10\nfield.B.papers_per_journal_per_year = 6\n"
    "field.B.mean_ref_len = 20\nfield.B.ref_age_half_life = 5\n")


def quick_start() -> str:
    """The first ``python`` block of the README's library quick start."""
    section = README.read_text(encoding="utf-8").split(
        "\n## Library quick start\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_library_quick_start_runs(tmp_path, monkeypatch, capsys):
    config = tmp_path / "synth.cfg"
    config.write_text(SYNTH_CONFIG, encoding="utf-8")
    assert main(["synth", str(config), "--out", str(tmp_path)]) == 0
    monkeypatch.chdir(tmp_path)
    capsys.readouterr()
    exec(compile(quick_start(), "README.md", "exec"), {})
    report, result = capsys.readouterr().out.splitlines()
    assert report.startswith("ValidationReport(total_docs=120, ")
    sigma2_between, perm_p = map(float, result.split())
    assert sigma2_between >= 0.0 and 0.0 < perm_p <= 1.0
