"""Field-normalized journal citation indicators.

Citation totals per journal can be counted as integers or fractionally
(each reference weighted by the inverse of the citing document's
reference count, either within the citation window or over the whole
list), turned into quasi impact factors over two-year, five-year, or
all-year windows, ranked into percentiles and six percentile classes,
and tested for between-field variance with moment estimators and
permutation tests. A deterministic synthetic-corpus generator provides
ground truth for the whole pipeline.
"""

__version__ = "0.1.0"

from .corpus import (Corpus, CorpusFormatError, Document, Journal,
                     JournalTable, JournalTableError, ValidationReport,
                     load_corpus, load_journals, merge_journal_parts,
                     save_corpus, save_journals, validate_corpus)
from .counts import (CountError, CountMode, CountTable, FRACTIONAL,
                     FRACTIONAL_PLUS, INTEGER, WindowSpec, count_citations,
                     variable_id)
from .indicators import (DEFAULT_CITABLE_TYPES, DenominatorTable,
                         IndicatorError, IndicatorTable, compute_denominator,
                         count_indicator, fc_over_p,
                         import_external_indicator, quasi_if,
                         read_indicator_table, read_tables)
from .percentile import (PercentileError, PercentileTable, build_percentiles,
                         percentile_rank, pr6_class, top_share)
from .refmatch import (CitedRef, RefTable, classify_year, match_corpus,
                       match_venue, normalize_venue, parse_reference)
from .stats import (CorrelationMatrix, FieldScheme, StatsError, VarCompResult,
                    analyze_indicators, average_ranks, correlation_matrix,
                    ks_normality, load_field_scheme, pearson,
                    permutation_test, save_field_scheme, scheme_from_journals,
                    spearman, varcomp_moments, variance_reduction)
from .synthgen import (FieldSpec, GroundTruth, SynthConfig, SynthConfigError,
                       expected_fractional_rate, generate_corpus,
                       load_synth_config)

__all__ = [name for name in dir() if not name.startswith("_")]
