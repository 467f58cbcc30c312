"""
Does fractional counting neutralize between-field differences?
==============================================================

A desk-scale version of the package's central experiment. Five fields
differ in reference-list length (10 to 40 references per paper) and in
citation turnover (half-lives from 6 years down to 2), with 5% of
references crossing field lines. Field membership then strongly predicts
a journal's integer-counted five-year impact factor, because long-list
fast-turnover fields hand out more in-window citations per paper.

Fractional counting divides each reference by the citing paper's
in-window reference count, so every paper distributes the same total
weight regardless of its field's habits. The between-field variance
component collapses and the permutation test goes silent.
"""

import numpy as np

from jifnorm import (analyze_indicators, compute_all_tables, generate_corpus,
                     variance_reduction)
from jifnorm.synthgen import FieldSpec, SynthConfig

cfg = SynthConfig(
    census_year=2010,
    fields=tuple(
        FieldSpec(code, n_journals=12, papers_per_journal_per_year=120,
                  mean_ref_len=mu, ref_age_half_life=h, cross_field_mix=0.05)
        for code, mu, h in (("F1", 10.0, 6.0), ("F2", 17.0, 5.0),
                            ("F3", 25.0, 4.0), ("F4", 32.0, 3.0),
                            ("F5", 40.0, 2.0))),
    quality_spread=0.4, years_back=12, seed=2718)

corpus, journals, scheme, truth = generate_corpus(cfg)
print(f"generated {len(corpus.documents)} citing documents over "
      f"{len(journals)} journals in {len(cfg.fields)} fields")

# every table `jifnorm indicators` writes; this demo reads two of them
_, indicator_tables = compute_all_tables(corpus, journals)
tables = {t.indicator_id: t for t in indicator_tables}

print("\nfield means of the five-year quasi impact factor:")
print(f"  {'field':6} {'integer':>10} {'fractional':>12}")
for spec in cfg.fields:
    members = [j for j, f in scheme.assignment.items() if f == spec.field_code]
    ic = np.mean([tables["IF5-IC"].values[j] for j in members])
    fc = np.mean([tables["IF5-FC"].values[j] for j in members])
    print(f"  {spec.field_code:6} {ic:10.3f} {fc:12.4f}")

print("\nbetween-field variance components (permutation p at 1999 draws):")
names = ("IF5-IC", "IF5-FC")
results = dict(zip(names, analyze_indicators([tables[n] for n in names], scheme,
                                             n_perm=1999, seed=42)))
for name, r in results.items():
    print(f"  {name}: sigma2_between={r.sigma2_between:.6g} "
          f"sigma2_within={r.sigma2_within:.6g} eta2={r.eta2:.4f} "
          f"p={r.perm_p:.4g}")

reduction = variance_reduction(results["IF5-IC"], results["IF5-FC"])
print(f"\nfractional counting removes {reduction:.1%} of the integer-counted "
      "between-field component")

# The closed-form expected rates require zero mixing, so evaluate them
# on the mixing-free version of the same configuration.
from jifnorm import expected_fractional_rate

cfg0 = SynthConfig(
    census_year=cfg.census_year,
    fields=tuple(FieldSpec(f.field_code, f.n_journals,
                           f.papers_per_journal_per_year, f.mean_ref_len,
                           f.ref_age_half_life, cross_field_mix=0.0)
                 for f in cfg.fields),
    quality_spread=cfg.quality_spread, years_back=cfg.years_back)
rates = expected_fractional_rate(cfg0, "five_year")
print("\nexpected fractional five-year rates per field at zero mixing "
      "(field-independent by construction):")
print("  " + ", ".join(f"{k}={v:.4f}" for k, v in sorted(rates.items())))
