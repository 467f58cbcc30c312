import pytest

from jifnorm import (import_external_indicator, load_corpus, load_journals,
                     merge_journal_parts)
from jifnorm.cli import main
from jifnorm.counts import (FRACTIONAL, FRACTIONAL_PLUS, INTEGER, WindowSpec,
                            count_citations)
from jifnorm.indicators import (DENOMINATOR_WINDOWS, DenominatorTable,
                                IndicatorError, compute_denominator,
                                fc_over_p, quasi_if, read_indicator_table)

from conftest import CENSUS


def test_denominator_sums_window_years(merged_fixture):
    corpus, journals = merged_fixture
    d2 = compute_denominator(corpus, journals, "two_year")
    assert d2.values["J01"] == 50 + 60
    d5 = compute_denominator(corpus, journals, "five_year")
    assert d5.values["J01"] == 40 + 40 + 45 + 50 + 60
    dc = compute_denominator(corpus, journals, "census_only")
    assert dc.values["J01"] == 55
    assert d2.values["J10"] == 0          # no pre-census items declared
    assert dc.values["J10"] == 14


def test_denominator_derived_from_corpus_when_undeclared(merged_fixture):
    corpus, journals = merged_fixture
    j05 = journals.by_id["J05"]
    saved = j05.items_by_year
    j05.items_by_year = {}
    try:
        dc = compute_denominator(corpus, journals, "census_only")
        # J05 has 4 census-year docs of citable types (3 articles + 1 review)
        assert dc.values["J05"] == 4
        # journals that declare their counts keep them
        assert all(dc.values[j.journal_id] == j.items_by_year.get(CENSUS, 0)
                   for j in journals if j is not j05)
    finally:
        j05.items_by_year = saved


def test_library_denominator_matches_indicators_files(fixture_paths,
                                                     tmp_path):
    """With J05's counts left out of the journal master, the library's
    denominators and FC/P equal the values `indicators` writes."""
    lines = fixture_paths["journals"].read_text(encoding="utf-8").splitlines()
    master = tmp_path / "journals.tsv"
    master.write_text("".join(
        ("\t".join(line.split("\t")[:5]) if line.startswith("J05\t") else line)
        + "\n" for line in lines), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["indicators", str(fixture_paths["corpus"]),
                 "--journals", str(master), "--census-year", str(CENSUS),
                 "--out", str(out)]) in (0, 1)

    corpus, journals = merge_journal_parts(
        load_corpus(fixture_paths["corpus"], census_year=CENSUS),
        load_journals(master))
    assert not journals.by_id["J05"].items_by_year
    denoms = {window: compute_denominator(corpus, journals, window)
              for window in DENOMINATOR_WINDOWS}
    fcp = fc_over_p(count_citations(corpus, journals, "all_years", FRACTIONAL),
                    denoms["census_only"])
    assert denoms["census_only"].values["J05"] == 4
    assert "J05" in fcp.values
    for name, values in (("IF2-Denom", denoms["two_year"].values),
                         ("IF5-Denom", denoms["five_year"].values),
                         (f"Items{CENSUS}", denoms["census_only"].values),
                         ("FC/P", fcp.values)):
        path = out / (name.replace("/", "_") + ".tsv")
        rows = path.read_text(encoding="utf-8").splitlines()[1:]
        assert rows == [f"{jid}\t{name}\t{values[jid]:.6f}"
                        for jid in sorted(values)], name


def test_quasi_if_simple_ratio():
    numer = _count_table("two_year", {"A": 220.0, "B": 0.0})
    denom = DenominatorTable("two_year", {"A": 110, "B": 110})
    table = quasi_if(numer, denom)
    assert table.indicator_id == "IF2-IC"
    assert table.values["A"] == 2.0
    assert table.values["B"] == 0.0
    assert not table.undefined_journals


def test_quasi_if_zero_denominator_routed_to_undefined():
    numer = _count_table("two_year", {"A": 5.0, "B": 3.0})
    denom = DenominatorTable("two_year", {"A": 10, "B": 0})
    table = quasi_if(numer, denom)
    assert "B" in table.undefined_journals
    assert "B" not in table.values


def test_quasi_if_window_mismatch_fatal():
    numer = _count_table("two_year", {"A": 5.0})
    denom = DenominatorTable("five_year", {"A": 10})
    with pytest.raises(IndicatorError):
        quasi_if(numer, denom)


def test_quasi_if_all_years_total_fatal():
    numer = _count_table("all_years", {"A": 5.0})
    for window in DENOMINATOR_WINDOWS:
        with pytest.raises(IndicatorError):
            quasi_if(numer, DenominatorTable(window, {"A": 10}))


def _count_table(kind, values, mode=INTEGER):
    from jifnorm.counts import CountTable
    return CountTable(window=WindowSpec(kind, CENSUS), mode=mode, values=values)


def test_fc_over_p_requires_all_years_fractional():
    bad = _count_table("two_year", {"A": 5.0}, FRACTIONAL)
    items = DenominatorTable("census_only", {"A": 10})
    with pytest.raises(IndicatorError):
        fc_over_p(bad, items)
    good = _count_table("all_years", {"A": 5.0}, FRACTIONAL)
    table = fc_over_p(good, items)
    assert table.values["A"] == 0.5


def test_fc_over_p_no_census_items_undefined():
    good = _count_table("all_years", {"A": 5.0}, FRACTIONAL)
    table = fc_over_p(good, DenominatorTable("census_only", {"A": 0}))
    assert table.undefined_journals == {"A"}


def test_quasi_ifs_match_oracle(merged_fixture, oracle):
    corpus, journals = merged_fixture
    denom = {"two_year": compute_denominator(corpus, journals, "two_year"),
             "five_year": compute_denominator(corpus, journals, "five_year")}
    for name, kind, mode in (("IF2-IC", "two_year", INTEGER),
                             ("IF5-IC", "five_year", INTEGER),
                             ("IF2-FC", "two_year", FRACTIONAL),
                             ("IF5-FC", "five_year", FRACTIONAL),
                             ("IF2-FC+", "two_year", FRACTIONAL_PLUS),
                             ("IF5-FC+", "five_year", FRACTIONAL_PLUS)):
        numer = count_citations(corpus, journals, kind, mode)
        table = quasi_if(numer, denom[kind])
        assert table.indicator_id == name
        expected = oracle["indicators"][name]
        assert set(table.values) == set(expected)
        for jid, v in expected.items():
            assert table.values[jid] == pytest.approx(v, rel=1e-9), (name, jid)
        assert table.undefined_journals == oracle["indicators"][name + ":undefined"]


def test_fc_over_p_matches_oracle(merged_fixture, oracle):
    corpus, journals = merged_fixture
    numer = count_citations(corpus, journals, "all_years", FRACTIONAL)
    table = fc_over_p(numer, compute_denominator(corpus, journals, "census_only"))
    for jid, v in oracle["indicators"]["FC/P"].items():
        assert table.values[jid] == pytest.approx(v, rel=1e-9)


def test_numerator_scaling_preserves_rank_order(merged_fixture):
    corpus, journals = merged_fixture
    numer = count_citations(corpus, journals, "five_year", FRACTIONAL)
    denom = compute_denominator(corpus, journals, "five_year")
    base = quasi_if(numer, denom)
    scaled_numer = _count_table("five_year",
                                {j: 3.5 * v for j, v in numer.values.items()},
                                FRACTIONAL)
    scaled = quasi_if(scaled_numer, denom)
    for jid, v in base.values.items():
        assert scaled.values[jid] == pytest.approx(3.5 * v, rel=1e-12)
    order = sorted(base.values, key=lambda j: (base.values[j], j))
    order_scaled = sorted(scaled.values, key=lambda j: (scaled.values[j], j))
    assert order == order_scaled


def test_import_external_indicator(fixture_paths):
    journals = load_journals(fixture_paths["journals"])
    table = import_external_indicator(fixture_paths["external"], "ISI-IF2",
                                      journals)
    assert table.values == {"J01": 4.215, "J04": 1.733, "J05": 8.002}
    assert len(table.warnings) == 2   # unknown journal + non-numeric value


def test_indicator_tsv_round_trip(merged_fixture, tmp_path):
    corpus, journals = merged_fixture
    numer = count_citations(corpus, journals, "five_year", FRACTIONAL)
    table = quasi_if(numer, compute_denominator(corpus, journals, "five_year"))
    out = tmp_path / "IF5-FC.tsv"
    table.to_tsv(out)
    back = read_indicator_table(out)
    assert back.indicator_id == "IF5-FC"
    assert set(back.values) == set(table.values)
    for jid, v in table.values.items():
        assert back.values[jid] == pytest.approx(v, abs=1e-6)
    assert (tmp_path / "IF5-FC.tsv.undefined").exists() == bool(
        table.undefined_journals)

    table.to_tsv(tmp_path / "again.tsv")
    again = read_indicator_table(tmp_path / "again.tsv")
    assert again.values == back.values
