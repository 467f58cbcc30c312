import numpy as np
import pytest

from jifnorm import (load_corpus, load_journals, match_corpus, save_corpus,
                     validate_corpus)
from jifnorm.counts import (FRACTIONAL, FRACTIONAL_PLUS, INTEGER, WindowSpec,
                            count_citations)
from jifnorm.indicators import compute_denominator, quasi_if
from jifnorm.stats import analyze_indicators
from jifnorm.synthgen import (FieldSpec, SynthConfig, SynthConfigError,
                              expected_fractional_rate, generate_corpus,
                              load_synth_config)


def small_config(seed=1, **overrides):
    base = dict(
        census_year=2010,
        fields=(FieldSpec("ALPHA", 6, 40, 8.0, 3.0),
                FieldSpec("BETA", 6, 40, 20.0, 5.0)),
        quality_spread=0.4, years_back=10, seed=seed)
    base.update(overrides)
    return SynthConfig(**base)


def test_config_validation():
    with pytest.raises(SynthConfigError):
        small_config(fields=()).validate()
    with pytest.raises(SynthConfigError):
        small_config(fields=(FieldSpec("A", 0, 10, 5.0, 2.0),)).validate()
    with pytest.raises(SynthConfigError):
        small_config(fields=(FieldSpec("A", 2, 10, 0.5, 2.0),)).validate()
    with pytest.raises(SynthConfigError):
        small_config(years_back=3).validate()
    with pytest.raises(SynthConfigError):
        small_config(fields=(FieldSpec("A", 2, 10, 5.0, 2.0),
                             FieldSpec("A", 2, 10, 5.0, 2.0))).validate()


@pytest.mark.parametrize("overrides,message", [
    ({"quality_spread": float("nan")}, "quality_spread must be finite and >= 0"),
    ({"quality_spread": float("inf")}, "quality_spread must be finite and >= 0"),
    ({"fields": (FieldSpec("A", 2, 10, float("nan"), 2.0),)},
     "A: mean_ref_len must be finite and >= 1"),
    ({"fields": (FieldSpec("A", 2, 10, 5.0, float("inf")),)},
     "A: ref_age_half_life must be finite and > 0"),
    ({"fields": (FieldSpec("A", 2, 10, 5.0, float("nan")),)},
     "A: ref_age_half_life must be finite and > 0"),
    ({"seed": -1}, "seed must be >= 0"),
], ids=["nan-spread", "inf-spread", "nan-ref-len", "inf-half-life",
        "nan-half-life", "negative-seed"])
def test_config_validation_rejects_non_finite_and_negative_seed(overrides,
                                                                message):
    with pytest.raises(SynthConfigError) as info:
        small_config(**overrides).validate()
    assert str(info.value) == message


def test_generated_shapes():
    corpus, journals, scheme, truth = generate_corpus(small_config())
    assert len(journals) == 12
    assert len(corpus.documents) == 12 * 40
    assert len(scheme.assignment) == 12
    assert len(truth.quality) == 12
    for doc in corpus.documents:
        assert doc.pub_year == 2010
        assert doc.ref_count == len(doc.refs) >= 1
    j = journals.journals[0]
    assert set(j.items_by_year) == set(range(2000, 2011))
    assert all(v == 40 for v in j.items_by_year.values())


def test_same_seed_byte_identical_files(tmp_path):
    for run in ("a", "b"):
        corpus, journals, _, _ = generate_corpus(small_config(seed=99))
        save_corpus(corpus, tmp_path / f"{run}.jsonl")
    assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()


def test_different_seed_differs(tmp_path):
    c1, _, _, _ = generate_corpus(small_config(seed=1))
    c2, _, _, _ = generate_corpus(small_config(seed=2))
    assert c1 != c2


def test_generated_corpus_validates_cleanly():
    corpus, journals, _, _ = generate_corpus(small_config())
    report = validate_corpus(corpus, journals)
    assert report.invalid_year_refs == 0
    assert report.unmatched_venue_refs == 0
    assert report.fraction(report.matched_refs) == 1.0


def test_noise_injection_produces_invalid_refs():
    corpus, journals, _, _ = generate_corpus(
        small_config(invalid_ref_rate=0.1))
    report = validate_corpus(corpus, journals)
    total = report.total_refs
    assert 0.05 * total < report.invalid_year_refs < 0.15 * total


def test_generated_corpus_counts_like_jsonl_round_trip(tmp_path):
    """A generated corpus counts exactly like its JSONL save/load round
    trip."""
    cfg = small_config(seed=5)
    corpus, journals, _, _ = generate_corpus(cfg)
    save_corpus(corpus, tmp_path / "c.jsonl")
    loaded = load_corpus(tmp_path / "c.jsonl", census_year=cfg.census_year)
    w = WindowSpec("five_year", cfg.census_year)
    generated = count_citations(corpus, journals, w, FRACTIONAL)
    assert count_citations(loaded, journals, w, FRACTIONAL).values == \
        generated.values


def test_round_trip_through_files(tmp_path):
    cfg = small_config(seed=6)
    corpus, journals, _, _ = generate_corpus(cfg)
    from jifnorm import save_journals
    save_corpus(corpus, tmp_path / "c.jsonl")
    save_journals(journals, tmp_path / "j.tsv")
    corpus2 = load_corpus(tmp_path / "c.jsonl", census_year=cfg.census_year)
    journals2 = load_journals(tmp_path / "j.tsv")
    assert corpus2 == corpus
    w = WindowSpec("two_year", cfg.census_year)
    t1 = count_citations(corpus, journals, w, INTEGER)
    t2 = count_citations(corpus2, journals2, w, INTEGER)
    assert t1.values == t2.values


def test_expected_rate_symmetric_field():
    cfg = SynthConfig(census_year=2010,
                      fields=(FieldSpec("ONLY", 8, 50, 12.0, 4.0),),
                      years_back=10, seed=0)
    rates = expected_fractional_rate(cfg, "five_year")
    assert set(rates) == {"ONLY"}
    corpus, journals, _, truth = generate_corpus(cfg)
    assert truth.expected_fc_rate["five_year"] == rates


def test_expected_rate_decreases_with_half_life():
    base = SynthConfig(2010, (FieldSpec("F", 4, 30, 10.0, 2.0),), years_back=10)
    slow = SynthConfig(2010, (FieldSpec("F", 4, 30, 10.0, 4.0),), years_back=10)
    for fraction_base in ("in_window", "all_refs"):
        fast_rate = expected_fractional_rate(base, "two_year", fraction_base)["F"]
        slow_rate = expected_fractional_rate(slow, "two_year", fraction_base)["F"]
        assert slow_rate < fast_rate


def test_expected_rate_field_independent_despite_4x_ref_lengths():
    """With no mixing and equal field sizes, the in-window fractional rate
    is field-independent even at a 4x spread in reference-list length
    (equal up to the vanishing share of documents with no in-window
    reference)."""
    cfg = SynthConfig(2010,
                      (FieldSpec("SHORT", 6, 40, 10.0, 4.0),
                       FieldSpec("LONG", 6, 40, 40.0, 4.0)),
                      years_back=10)
    import math
    for window, wlen in (("two_year", 2), ("five_year", 5)):
        rates = expected_fractional_rate(cfg, window, "in_window")
        # the deviation is bounded by the short field's probability of
        # having no in-window reference at all
        from jifnorm.synthgen import _in_window_age_mass
        q_short = _in_window_age_mass(cfg.fields[0], cfg, window)
        slack = math.exp(-10.0 * q_short)
        assert abs(rates["LONG"] - rates["SHORT"]) <= rates["LONG"] * 1.05 * slack
        assert rates["LONG"] == pytest.approx(rates["SHORT"], rel=0.05)
    # the whole-list base has no such normalization guarantee across
    # half-lives, but with a common age law it also coincides
    plus = expected_fractional_rate(cfg, "five_year", "all_refs")
    assert plus["LONG"] == pytest.approx(plus["SHORT"], rel=1e-12)


def test_integer_counts_scale_with_reference_list_length():
    cfg = SynthConfig(2010,
                      (FieldSpec("SHORT", 8, 150, 10.0, 4.0),
                       FieldSpec("LONG", 8, 150, 40.0, 4.0)),
                      quality_spread=0.2, years_back=10, seed=21)
    corpus, journals, scheme, _ = generate_corpus(cfg)
    table = count_citations(corpus, journals, WindowSpec("five_year", 2010),
                            INTEGER)
    by_field = {"SHORT": 0.0, "LONG": 0.0}
    for jid, v in table.values.items():
        by_field[scheme.assignment[jid]] += v
    assert by_field["LONG"] / by_field["SHORT"] == pytest.approx(4.0, rel=0.05)


def test_expected_rate_requires_zero_mixing():
    cfg = small_config(fields=(FieldSpec("A", 4, 30, 10.0, 2.0, 0.1),
                               FieldSpec("B", 4, 30, 10.0, 2.0, 0.0)))
    with pytest.raises(SynthConfigError):
        expected_fractional_rate(cfg)
    _, _, _, truth = generate_corpus(cfg)
    assert truth.expected_fc_rate is None


def test_simulated_mean_matches_closed_form_at_scale():
    """Monte-Carlo cross-check: the field-mean fractional quasi impact
    factor at 1e5 citing documents lands within 5% of the closed form,
    for both fractionation bases."""
    cfg = SynthConfig(census_year=2010,
                      fields=(FieldSpec("BIG", 20, 5000, 10.0, 3.0),),
                      quality_spread=0.5, years_back=12, seed=77)
    corpus, journals, _, _ = generate_corpus(cfg)
    assert len(corpus.documents) == 100_000
    w = WindowSpec("five_year", 2010)
    denom = compute_denominator(corpus, journals, "five_year")
    for base, mode in (("in_window", FRACTIONAL), ("all_refs", FRACTIONAL_PLUS)):
        table = quasi_if(count_citations(corpus, journals, w, mode), denom)
        simulated = np.mean(list(table.values.values()))
        closed = expected_fractional_rate(cfg, "five_year", base)["BIG"]
        assert simulated == pytest.approx(closed, rel=0.05), base


def test_identical_fields_show_no_field_effect():
    """With zero mixing and identical parameters everywhere the labels are
    exchangeable, so integer counting shows no significant field effect."""
    spec = lambda code: FieldSpec(code, 10, 100, 8.0, 3.0)
    cfg = SynthConfig(2010, tuple(spec(f"F{i}") for i in range(3)),
                      quality_spread=0.3, years_back=10, seed=11)
    corpus, journals, scheme, _ = generate_corpus(cfg)
    table = quasi_if(
        count_citations(corpus, journals, WindowSpec("five_year", 2010), INTEGER),
        compute_denominator(corpus, journals, "five_year"))
    from jifnorm.indicators import IndicatorTable
    [result] = analyze_indicators(
        [IndicatorTable("IF5-IC", table.values)], scheme, n_perm=999, seed=4)
    assert result.perm_p > 0.001


def test_load_synth_config(tmp_path):
    cfg_file = tmp_path / "synth.cfg"
    cfg_file.write_text(
        "# demo config\n"
        "census_year = 2010\n"
        "years_back = 10\n"
        "seed = 3\n"
        "quality_spread = 0.25\n"
        "field.PHYS.n_journals = 5\n"
        "field.PHYS.papers_per_journal_per_year = 30\n"
        "field.PHYS.mean_ref_len = 35\n"
        "field.PHYS.ref_age_half_life = 2.5\n"
        "field.PHYS.cross_field_mix = 0.05\n"
        "field.MATH.n_journals = 5\n"
        "field.MATH.papers_per_journal_per_year = 30\n"
        "field.MATH.mean_ref_len = 9\n"
        "field.MATH.ref_age_half_life = 7\n",
        encoding="utf-8")
    cfg = load_synth_config(cfg_file)
    assert cfg.census_year == 2010
    assert cfg.seed == 3
    assert len(cfg.fields) == 2
    phys = next(f for f in cfg.fields if f.field_code == "PHYS")
    assert phys.mean_ref_len == 35.0
    assert phys.cross_field_mix == 0.05
    math_field = next(f for f in cfg.fields if f.field_code == "MATH")
    assert math_field.cross_field_mix == 0.0


def test_load_synth_config_errors(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("census_year = 2010\nfield.A.n_journals = 3\n",
                   encoding="utf-8")
    with pytest.raises(SynthConfigError):
        load_synth_config(bad)
    bad.write_text("nonsense = 1\n", encoding="utf-8")
    with pytest.raises(SynthConfigError):
        load_synth_config(bad)
    with pytest.raises(SynthConfigError):
        load_synth_config(tmp_path / "missing.cfg")
