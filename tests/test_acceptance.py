"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``. The heavyweight
synthetic corpus (criteria 3-5) is built once per session.
"""

import math
import time

import numpy as np
import pytest

from jifnorm import (compute_all_tables, load_corpus, load_journals,
                     merge_journal_parts)
from jifnorm.cli import main as cli_main
from jifnorm.counts import FRACTIONAL, INTEGER, count_citations
from jifnorm.indicators import compute_denominator, quasi_if
from jifnorm.percentile import build_percentiles, percentile_rank, pr6_class, top_share
from jifnorm.stats import (FieldScheme, analyze_indicators,
                           pearson, permutation_test, spearman,
                           varcomp_moments, variance_reduction)
from jifnorm.synthgen import FieldSpec, SynthConfig, generate_corpus

from conftest import CENSUS
from _oracle import full_pipeline
from test_stats import (brute_eta2, brute_pearson, brute_spearman,
                        brute_varcomp)


def _report(criterion, name):
    print(f"\nACCEPTANCE {criterion} ({name}): PASS")


# -- criterion 3/4 corpus: 11 fields, reference-list means spanning 12-45,
#    half-lives 8y down to 2y, 5% cross-field mixing, ~300 journals,
#    ~5e5 citing documents ------------------------------------------------

N_FIELDS = 11
JOURNALS_PER_FIELD = 27
PAPERS_PER_JOURNAL = 1680
BIG_SEED = 31416


def _tables_by_id(count_tables, indicator_tables):
    """``compute_all_tables``' output as one dict keyed by table id."""
    tables = {t.variable_id: t for t in count_tables}
    tables.update((t.indicator_id, t) for t in indicator_tables)
    assert len(tables) == len(count_tables) + len(indicator_tables)
    return tables


@pytest.fixture(scope="session")
def big_synth():
    mus = np.linspace(12.0, 45.0, N_FIELDS)
    halves = np.linspace(8.0, 2.0, N_FIELDS)
    fields = tuple(
        FieldSpec(f"F{i:02d}", JOURNALS_PER_FIELD, PAPERS_PER_JOURNAL,
                  float(mus[i]), float(halves[i]), cross_field_mix=0.05)
        for i in range(N_FIELDS))
    cfg = SynthConfig(census_year=2010, fields=fields, quality_spread=0.4,
                      years_back=15, seed=BIG_SEED)

    t0 = time.perf_counter()
    corpus, journals, scheme, _ = generate_corpus(cfg)
    tables = _tables_by_id(*compute_all_tables(corpus, journals))

    names = ("IF5-IC", "IF5-FC")
    results = dict(zip(names, analyze_indicators(
        [tables[name] for name in names], scheme, n_perm=1999, seed=271)))
    elapsed = time.perf_counter() - t0
    return {"corpus": corpus, "journals": journals, "scheme": scheme,
            "tables": tables, "results": results, "elapsed": elapsed}


def test_criterion_1_fixture_exactness(data_dir):
    t0 = time.perf_counter()
    corpus = load_corpus(data_dir / "fixture_corpus.jsonl", census_year=CENSUS)
    journals = load_journals(data_dir / "fixture_journals.tsv")
    corpus, journals = merge_journal_parts(corpus, journals)
    oracle = full_pipeline(data_dir / "fixture_corpus.jsonl",
                           data_dir / "fixture_journals.tsv", CENSUS)

    tables = _tables_by_id(*compute_all_tables(corpus, journals))

    # the oracle's value for each of the 20 tables: integer counts,
    # numerators and denominators are exact, ratios and fractions close
    counts = {k: v for k, v in oracle["counts"].items() if ":" not in k}
    ratios = {k: v for k, v in oracle["indicators"].items() if ":" not in k}
    denoms = oracle["denominators"]
    expected = {**counts, **ratios,
                "IF2-Num": counts["TC-IC2"], "IF5-Num": counts["TC-IC5"],
                "IF2-Denom": denoms["IF2-Denom"],
                "IF5-Denom": denoms["IF5-Denom"],
                f"Items{CENSUS}": denoms["Items"]}
    assert len(expected) == 20
    assert set(tables) == set(expected)
    for name, values in expected.items():
        table = tables[name]
        assert set(table.values) == set(values), name
        for jid, v in values.items():
            if isinstance(v, int):
                assert table.values[jid] == v, (name, jid)
            else:
                assert table.values[jid] == pytest.approx(v, rel=1e-9), (
                    name, jid)
    for name in ratios:
        assert (tables[name].undefined_journals
                == oracle["indicators"][name + ":undefined"]), name

    for name in ("IF2-IC", "IF5-IC", "IF2-FC", "IF5-FC", "FC/P"):
        pct = build_percentiles(tables[name])
        for jid, p in oracle["percentiles"][name].items():
            assert pct.pr100[jid] == pytest.approx(p, abs=1e-12), (name, jid)
            assert pct.pr6[jid] == oracle["percentiles"][name + ":pr6"][jid]

    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"fixture pipeline took {elapsed:.2f}s"
    _report(1, "fixture exactness vs brute-force oracle")


def test_criterion_2_percentile_band():
    rng = np.random.default_rng(20104219)
    values = {f"J{i:04d}": float(v) for i, v in enumerate(rng.random(3705))}
    assert len(set(values.values())) == 3705
    pr = percentile_rank(values)
    mean_pr = sum(pr.values()) / len(pr)
    assert abs(mean_pr - 50.0 * 3704 / 3705) <= 1e-9
    assert len(top_share(pr, 99.0)) == 37
    mean_pr6 = sum(pr6_class(p) for p in pr.values()) / len(pr)
    assert 1.89 <= mean_pr6 <= 1.93
    _report(2, "percentile band at n=3705")


def test_criterion_3_variance_reduction_replication(big_synth):
    n_docs = len(big_synth["corpus"].documents)
    assert n_docs == N_FIELDS * JOURNALS_PER_FIELD * PAPERS_PER_JOURNAL
    assert abs(n_docs - 5e5) / 5e5 < 0.005

    integer, fractional = (big_synth["results"]["IF5-IC"],
                           big_synth["results"]["IF5-FC"])
    assert integer.perm_p < 0.001, integer
    assert fractional.perm_p > 0.001, fractional
    reduction = variance_reduction(integer, fractional)
    assert reduction >= 0.80, reduction
    assert big_synth["elapsed"] < 60.0, f"pipeline took {big_synth['elapsed']:.1f}s"
    _report(3, f"variance reduction {reduction:.1%}, "
               f"p_int={integer.perm_p:.4g}, p_frac={fractional.perm_p:.4g}, "
               f"{big_synth['elapsed']:.1f}s")


def test_criterion_4_window_base_ordering(big_synth):
    tables = big_synth["tables"]
    for plus, base in (("IF5-FC+", "IF5-FC"), ("IF2-FC+", "IF2-FC")):
        shared = set(tables[plus].values) & set(tables[base].values)
        assert shared
        ok = sum(tables[plus].values[j] <= tables[base].values[j] + 1e-12
                 for j in shared)
        assert ok == len(shared), (plus, base)
    _report(4, "whole-list fractionation never exceeds in-window")


def test_criterion_5_bookkeeping_identity():
    cfg = SynthConfig(census_year=2010,
                      fields=(FieldSpec("A", 10, 200, 9.0, 3.0),
                              FieldSpec("B", 10, 200, 27.0, 6.0)),
                      quality_spread=0.5, years_back=12, seed=55)
    corpus, journals, _, _ = generate_corpus(cfg)
    w = "all_years"
    ic = count_citations(corpus, journals, w, INTEGER)
    fc = count_citations(corpus, journals, w, FRACTIONAL)
    ratio = sum(ic.values.values()) / sum(fc.values.values())
    contributing = [d for d in corpus.documents if d.ref_count > 0]
    mean_refs = sum(d.ref_count for d in contributing) / len(contributing)
    assert ratio == pytest.approx(mean_refs, rel=1e-9)
    assert fc.contributing_docs == len(contributing)
    _report(5, f"TC-IC(all)/TC-FC(all) = {ratio:.4f} = mean reference count")


def test_criterion_6_statistics_oracles():
    rng = np.random.default_rng(606)
    for i in range(200):
        n = int(rng.integers(6, 40))
        x = rng.normal(size=n)
        y = 0.4 * x + rng.normal(size=n)
        if i % 4 == 0:
            x = np.round(x, 1)
            y = np.round(y, 1)
        assert abs(pearson(x, y) - brute_pearson(list(x), list(y))) < 1e-10
        assert abs(spearman(x, y) - brute_spearman(list(x), list(y))) < 1e-10

        k = int(rng.integers(2, 5))
        sizes = rng.integers(3, 10, size=k)
        values, groups = [], []
        for g in range(k):
            values.extend(rng.normal(loc=rng.normal(), size=sizes[g]))
            groups.extend([f"G{g}"] * sizes[g])
        vmap = {f"J{j:04d}": v for j, v in enumerate(values)}
        scheme = FieldScheme({f"J{j:04d}": g for j, g in enumerate(groups)},
                             min_group_size=1)
        assert abs(varcomp_moments(vmap, scheme).eta2
                   - brute_eta2(values, groups)) < 1e-10
        result = varcomp_moments(vmap, scheme)
        b_between, b_within = brute_varcomp(values, groups)
        assert abs(result.sigma2_between - b_between) < 1e-10
        assert abs(result.sigma2_within - b_within) < 1e-10

    # planted-component recovery, balanced 11 x 300, averaged over
    # seeded replicates (a single draw of 10 group effects is too noisy
    # for a 15% bound by itself)
    estimates = []
    for rep in range(40):
        rep_rng = np.random.default_rng(7000 + rep)
        values, groups = [], []
        for g in range(11):
            effect = rep_rng.normal(scale=1.0)
            values.extend(rep_rng.normal(loc=effect, scale=1.0, size=300))
            groups.extend([f"G{g:02d}"] * 300)
        vmap = {f"J{j:05d}": v for j, v in enumerate(values)}
        scheme = FieldScheme({f"J{j:05d}": g
                              for j, g in enumerate(groups)})
        estimates.append(varcomp_moments(vmap, scheme).sigma2_between)
    mean_estimate = float(np.mean(estimates))
    assert abs(mean_estimate - 1.0) <= 0.15, mean_estimate
    _report(6, f"statistics oracles; planted recovery {mean_estimate:.3f}")


def test_criterion_7_determinism_across_threads(tmp_path, data_dir):
    corpus = data_dir / "fixture_corpus.jsonl"
    journals = data_dir / "fixture_journals.tsv"
    fields = data_dir / "fixture_fields.tsv"
    synth_cfg = tmp_path / "synth.cfg"
    synth_cfg.write_text(
        "census_year = 2010\nyears_back = 10\nseed = 9\nquality_spread = 0.3\n"
        "field.A.n_journals = 4\nfield.A.papers_per_journal_per_year = 20\n"
        "field.A.mean_ref_len = 10\nfield.A.ref_age_half_life = 3\n"
        "field.B.n_journals = 4\nfield.B.papers_per_journal_per_year = 20\n"
        "field.B.mean_ref_len = 25\nfield.B.ref_age_half_life = 5\n",
        encoding="utf-8")

    def run_all(root, threads):
        root.mkdir()
        t = str(threads)
        base = ["--census-year", str(CENSUS), "--journals", str(journals),
                "--threads", t]
        assert cli_main(["validate", str(corpus), *base,
                         "--out", str(root / "validate")]) == 0
        assert cli_main(["indicators", str(corpus), *base, "--percentiles",
                         "--out", str(root / "indicators")]) in (0, 1)
        ind = root / "indicators"
        assert cli_main(["rank", str(ind / "IF5-FC.tsv"), "--top", "5",
                         "--threads", t, "--out", str(root / "rank")]) == 0
        assert cli_main(["rank", str(ind / "IF5-IC.tsv"), "--pr6",
                         "--threads", t,
                         "--out", str(root / "rankpr6")]) == 0
        assert cli_main(["correlate", str(ind / "IF5-FC.tsv"),
                         str(ind / "IF5-IC.tsv"), str(ind / "IF2-FC.tsv"),
                         "--threads", t, "--out", str(root / "correlate")]) == 0
        assert cli_main(["varcomp", str(ind / "IF5-FC.tsv"),
                         str(ind / "IF2-IC.tsv"), "--fields", str(fields),
                         "--min-group-size", "2", "--n-perm", "999",
                         "--seed", "5", "--threads", t,
                         "--out", str(root / "varcomp")]) in (0, 1)
        assert cli_main(["synth", str(synth_cfg), "--threads", t,
                         "--out", str(root / "synth")]) == 0

    # identical invocations except --threads: reuse the same output paths
    import shutil
    snapshots = {}
    root = tmp_path / "run"
    for threads in (1, 4, 8):
        if root.exists():
            shutil.rmtree(root)
        run_all(root, threads)
        snapshot = {}
        for path in sorted(root.rglob("*")):
            if path.is_file():
                snapshot[str(path.relative_to(root))] = path.read_bytes()
        snapshots[threads] = snapshot
    assert snapshots[1] == snapshots[4] == snapshots[8]
    _report(7, "byte-identical outputs at thread counts 1/4/8")


def test_criterion_8_invariance_suite(big_synth):
    rng = np.random.default_rng(808)

    # percentile ranks: exact invariance under a strictly monotone transform
    values = {f"J{i:04d}": float(v) for i, v in enumerate(rng.normal(size=800))}
    pr = percentile_rank(values)
    for transform in (lambda v: math.exp(v / 4.0), lambda v: 7.0 * v - 3.0,
                      lambda v: v ** 3):
        mapped = {j: transform(v) for j, v in values.items()}
        assert len(set(mapped.values())) == len(set(values.values()))
        assert percentile_rank(mapped) == pr

    # rank-order correlation: exact invariance under monotone transforms
    x = rng.normal(size=200)
    y = x + rng.normal(size=200)
    rho = spearman(x, y)
    assert spearman(np.exp(x), y) == rho
    assert spearman(x, np.arctan(y)) == rho

    # field-effect measures under positive affine transforms
    groups = [f"G{g}" for g in range(4) for _ in range(50)]
    base_vals = rng.normal(size=200) + np.repeat([0.0, 0.5, 1.0, 1.5], 50)
    vmap = {f"J{i:04d}": float(v) for i, v in enumerate(base_vals)}
    scheme = FieldScheme({f"J{i:04d}": g for i, g in enumerate(groups)},
                         min_group_size=1)
    base_eta = varcomp_moments(vmap, scheme).eta2
    base_sigma = varcomp_moments(vmap, scheme).sigma2_between
    base_p = permutation_test([vmap], scheme, seed=12)[0]
    scaled = {j: 2.5 * v + 40.0 for j, v in vmap.items()}
    assert varcomp_moments(scaled, scheme).eta2 == pytest.approx(base_eta,
                                                                 rel=1e-10)
    assert varcomp_moments(scaled, scheme).sigma2_between == pytest.approx(
        2.5 ** 2 * base_sigma, rel=1e-10)
    assert permutation_test([scaled], scheme, seed=12)[0] == base_p

    # quasi impact factor rank order under numerator scaling
    from jifnorm.counts import CountTable
    table = big_synth["tables"]["IF5-FC"]
    order = sorted(table.values, key=lambda j: (table.values[j], j))
    corpus, journals = big_synth["corpus"], big_synth["journals"]
    counts = big_synth["tables"]["TC-FC5"]
    scaled_counts = CountTable(counts.window, counts.mode,
                               {j: 17.0 * v for j, v in counts.values.items()})
    scaled_if = quasi_if(scaled_counts,
                         compute_denominator(corpus, journals, "five_year"))
    scaled_order = sorted(scaled_if.values,
                          key=lambda j: (scaled_if.values[j], j))
    assert scaled_order == order
    _report(8, "invariance suite")
