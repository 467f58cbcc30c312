"""Command-line pipeline: validate, indicators, rank, correlate, varcomp, synth.

Every command is a pure function of its input files, flags, and seed;
identical invocations produce byte-identical outputs (no timestamps are
written). Exit codes: 0 success, 1 computation-level warnings were
emitted, 2 fatal input error.

Optional flags have config-file equivalents (``--config`` points at a
key=value file whose keys are the flag names with underscores, e.g.
``census_year=2010``); explicit flags win on conflict.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

from . import __version__
from . import corpus as corpus_mod
from . import stats as stats_mod
from . import synthgen
from ._tsv import integer, iter_key_values, iter_rows, write_rows
from .corpus import CorpusFormatError, JournalTableError
from .counts import (CountError, FRACTIONAL, FRACTIONAL_PLUS, INTEGER,
                     WindowSpec, count_citations)
from .indicators import (DEFAULT_CITABLE_TYPES, DENOMINATOR_WINDOWS,
                         IndicatorError, IndicatorTable, compute_denominator,
                         count_indicator, denominator_indicator,
                         derived_item_counts, fc_over_p,
                         import_external_indicator, quasi_if,
                         read_indicator_table, read_table_values)
from .percentile import PERCENTILE_HEADER, PercentileError, build_percentiles
from .refmatch import match_corpus
from .stats import StatsError, analyze_indicators, variance_reduction
from .synthgen import SynthConfigError

FATAL_ERRORS = (CorpusFormatError, JournalTableError, CountError,
                IndicatorError, PercentileError, StatsError,
                SynthConfigError, OSError, ValueError)

# citation-total variables emitted by `indicators`, in report order
COUNT_VARIABLES = [
    ("all_years", INTEGER), ("two_year", INTEGER), ("five_year", INTEGER),
    ("all_years", FRACTIONAL), ("two_year", FRACTIONAL), ("five_year", FRACTIONAL),
    ("two_year", FRACTIONAL_PLUS), ("five_year", FRACTIONAL_PLUS),
]


class CliError(Exception):
    pass


def _cast_bool(value: str) -> bool:
    if value.lower() in ("1", "true", "yes", "on"):
        return True
    if value.lower() in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {value!r}")


def _read_config(path: str | None) -> dict[str, str]:
    """A config file's values by key. A key must be the dest of an optional
    flag of some subcommand other than those only the command line reads."""
    if not path:
        return {}
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    keys = {a.dest for p in sub.choices.values() for a in p._actions
            if a.option_strings} - {"help", "config", "external"}
    config = {}
    for lineno, key, value in iter_key_values(path, CliError):
        if key not in keys:
            raise CliError(f"{Path(path).name}:{lineno}: unknown key {key!r}")
        config[key] = value
    return config


def _available_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class Settings:
    """Flag values merged over config-file values (flags win)."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.config = _read_config(getattr(args, "config", None))
        threads = self.get("threads", None, integer)
        if threads is not None and threads < 1:
            raise CliError("--threads must be >= 1")
        self.threads = threads or _available_cpus()

    def get(self, key: str, default=None, cast=str):
        flag = getattr(self.args, key, None)
        if flag is not None:
            return flag
        if key in self.config:
            try:
                return cast(self.config[key])
            except ValueError:
                raise CliError(f"config key {key}: bad value "
                               f"{self.config[key]!r}") from None
        return default

    def require(self, key: str, cast=str):
        value = self.get(key, None, cast)
        if value is None:
            raise CliError(f"missing required option --{key.replace('_', '-')}")
        return value


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(out_dir: Path, command: str, inputs: list[Path],
                   parameters: dict, outputs: list[str]) -> None:
    manifest = {
        "tool": "jifnorm",
        "version": __version__,
        "command": command,
        "inputs": {str(p): _sha256(p) for p in inputs},
        "parameters": parameters,
        "outputs": sorted(outputs),
    }
    with open(out_dir / "manifest.json", "w", encoding="utf-8",
              newline="\n") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _out_dir(settings: Settings) -> Path:
    out = Path(settings.get("out", ".", str))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_inputs(settings: Settings, corpus_path: str
                 ) -> tuple[corpus_mod.Corpus, corpus_mod.JournalTable, list[str]]:
    census = settings.require("census_year", integer)
    journals_path = settings.require("journals")
    fmt = settings.get("format", "auto")
    journals = corpus_mod.load_journals(journals_path)
    corpus = corpus_mod.load_corpus(corpus_path, format=fmt, census_year=census,
                                    threads=settings.threads)
    warnings = corpus.load_warnings + corpus.load_errors
    corpus, journals = corpus_mod.merge_journal_parts(corpus, journals)
    return corpus, journals, warnings


def _citable_types(settings: Settings, warnings: list[str]) -> frozenset[str]:
    raw = settings.get("citable_types", None)
    if raw is None:
        return DEFAULT_CITABLE_TYPES
    types = frozenset(t.strip().lower() for t in raw.split(",") if t.strip())
    unknown = types - corpus_mod.DOC_TYPES
    if unknown:
        warnings.append(f"citable types {sorted(unknown)} are not known "
                        "document types")
    return types


def cmd_validate(settings: Settings) -> int:
    out = _out_dir(settings)
    corpus, journals, warnings = _load_inputs(settings, settings.args.corpus)
    report = corpus_mod.validate_corpus(corpus, journals)
    write_rows(out / "validation.tsv", ["metric", "count", "fraction"],
               report.to_rows())
    outputs = ["validation.tsv"]
    if corpus.load_errors:
        with open(out / "load_errors.txt", "w", encoding="utf-8",
                  newline="\n") as fh:
            fh.writelines(e + "\n" for e in corpus.load_errors)
        outputs.append("load_errors.txt")
    write_manifest(out, "validate",
                   [Path(settings.args.corpus), Path(settings.require("journals"))],
                   {"census_year": settings.require("census_year", integer)},
                   outputs)
    _emit_warnings(warnings)
    return 1 if warnings else 0


def compute_all_tables(corpus, journals, citable_types,
                       census: int) -> tuple[list, list[IndicatorTable]]:
    """All citation-total tables plus derived indicators, in report order."""
    ref_table = match_corpus(corpus, journals)
    count_tables = [count_citations(corpus, journals, WindowSpec(kind, census),
                                    mode, ref_table=ref_table)
                    for kind, mode in COUNT_VARIABLES]
    by_id = {t.variable_id: t for t in count_tables}

    items = derived_item_counts(corpus, journals, citable_types)
    denoms = {window: compute_denominator(journals, window, census,
                                          item_counts=items)
              for window in DENOMINATOR_WINDOWS}

    derived = [quasi_if(t, denoms[t.window.kind]) for t in count_tables
               if t.window.kind != "all_years"]
    derived.append(fc_over_p(by_id["TC-FC"], denoms["census_only"]))
    derived += [replace(count_indicator(by_id[f"TC-IC{n}"]),
                        indicator_id=f"IF{n}-Num") for n in ("2", "5")]
    derived += [denominator_indicator(denoms[window], name) for window, name
                in zip(DENOMINATOR_WINDOWS,
                       ("IF2-Denom", "IF5-Denom", f"Items{census}"))]
    return count_tables, derived


def cmd_indicators(settings: Settings) -> int:
    out = _out_dir(settings)
    census = settings.require("census_year", integer)
    corpus, journals, warnings = _load_inputs(settings, settings.args.corpus)
    citable = _citable_types(settings, warnings)

    count_tables, indicator_tables = compute_all_tables(corpus, journals,
                                                        citable, census)
    external_paths: list[Path] = []
    for spec in settings.args.external or []:
        indicator_id, sep, ext_path = spec.partition("=")
        if not sep or not indicator_id or not ext_path:
            raise CliError(f"--external expects ID=PATH, got {spec!r}")
        table = import_external_indicator(ext_path, indicator_id, journals)
        warnings.extend(table.warnings)
        indicator_tables.append(table)
        external_paths.append(Path(ext_path))
    # every table as an indicator; a count table's file keeps its own form
    tables = [count_indicator(t) for t in count_tables] + indicator_tables
    outputs: list[str] = []
    for source, table in zip(count_tables + indicator_tables, tables):
        name = table.indicator_id.replace("/", "_") + ".tsv"
        source.to_tsv(out / name)
        outputs.append(name)
        if table.undefined_journals:
            outputs.append(name + ".undefined")
            warnings.append(f"{table.indicator_id}: "
                            f"{len(table.undefined_journals)} journals have a "
                            "zero denominator")

    # combined wide table: journals x variables, blanks where undefined
    rows = [[jid] + [f"{t.values[jid]:.6f}" if jid in t.values else ""
                     for t in tables]
            for jid in journals.journal_ids]
    write_rows(out / "indicators_wide.tsv",
               ["journal_id"] + [t.indicator_id for t in tables], rows)
    outputs.append("indicators_wide.tsv")

    if settings.get("percentiles", False, _cast_bool):
        # percentile ranks are reported for the citation-total family
        pr_marked = {"FC/P", "IF2-Num", "IF5-Num", "IF2-Denom", "IF5-Denom"}
        ranked = tables[:len(count_tables)] + [
            t for t in indicator_tables if t.indicator_id in pr_marked]
        pr_rows = [row for t in ranked if t.values
                   for row in build_percentiles(t).to_rows()]
        write_rows(out / "percentiles.tsv", PERCENTILE_HEADER, pr_rows)
        outputs.append("percentiles.tsv")

    write_manifest(out, "indicators",
                   [Path(settings.args.corpus), Path(settings.require("journals"))]
                   + external_paths,
                   {"census_year": census,
                    "citable_types": sorted(citable)},
                   outputs)
    _emit_warnings(warnings)
    return 1 if warnings else 0


def cmd_rank(settings: Settings) -> int:
    out = _out_dir(settings)
    table = read_indicator_table(settings.args.indicator)
    warnings: list[str] = []
    top = settings.get("top", None, integer)
    pr6 = settings.get("pr6", False, _cast_bool)
    if (top is None) == (not pr6):
        raise CliError("exactly one of --top K or --pr6 is required")

    if pr6:
        pct = build_percentiles(table)
        rows = [row for row in pct.to_rows() if pct.pr6[row[0]] == 6]
        write_rows(out / "ranking.tsv", PERCENTILE_HEADER, rows)
        params = {"mode": "pr6"}
    else:
        if top > len(table.values):
            warnings.append(f"requested top {top} exceeds population "
                            f"{len(table.values)}; emitting full list")
            top = len(table.values)
        ordered = sorted(table.values.items(), key=lambda kv: (-kv[1], kv[0]))
        rows = [[str(rank), jid, f"{value:.6f}"]
                for rank, (jid, value) in enumerate(ordered[:top], start=1)]
        write_rows(out / "ranking.tsv", ["rank", "journal_id", "value"], rows)
        params = {"mode": "top", "k": top}
    write_manifest(out, "rank", [Path(settings.args.indicator)], params,
                   ["ranking.tsv"])
    _emit_warnings(warnings)
    return 1 if warnings else 0


def cmd_correlate(settings: Settings) -> int:
    out = _out_dir(settings)
    paths = [Path(p) for p in settings.args.indicators]
    if len(paths) < 2:
        raise CliError("correlate needs at least two indicator files")
    tables = [read_indicator_table(p) for p in paths]
    matrix = stats_mod.correlation_matrix(tables)
    matrix.to_tsv(out / "correlation_matrix.tsv")
    warnings = [f"correlation undefined for {a} / {b}"
                for a, b in matrix.undefined_pairs]
    write_manifest(out, "correlate", paths, {"n_journals": matrix.n_journals},
                   ["correlation_matrix.tsv"])
    _emit_warnings(warnings)
    return 1 if warnings else 0


def _load_varcomp_tables(paths: list[Path]) -> list[IndicatorTable]:
    """Indicator files, plus percentile files expanded into :PR100/:PR6."""
    tables: list[IndicatorTable] = []
    for path in paths:
        header = next((fields for _, fields in iter_rows(path)), [])
        if header == PERCENTILE_HEADER:
            # one (PR100, PR6) pair per indicator_id, in file order
            for source, rows in read_table_values(
                    path, len(PERCENTILE_HEADER)).items():
                for i, name in enumerate(("PR100", "PR6")):
                    tables.append(IndicatorTable(
                        f"{source}:{name}",
                        {jid: v[i] for jid, v in rows.items()}))
        else:
            tables.append(read_indicator_table(path))
    return tables


def cmd_varcomp(settings: Settings) -> int:
    out = _out_dir(settings)
    min_group = settings.get("min_group_size", 10, integer)
    n_perm = settings.get("n_perm", 999, integer)
    seed = settings.get("seed", 0, integer)
    reference_id = settings.get("reference", "IF2-IC")

    fields_path = settings.get("fields", None)
    if fields_path:
        scheme = stats_mod.load_field_scheme(fields_path,
                                             min_group_size=min_group)
        scheme_input = [Path(fields_path)]
    else:
        journals_path = settings.get("journals", None)
        if not journals_path:
            raise CliError("varcomp needs --fields or --journals for the "
                           "field scheme")
        scheme = stats_mod.scheme_from_journals(
            corpus_mod.load_journals(journals_path), min_group_size=min_group)
        scheme_input = [Path(journals_path)]

    paths = [Path(p) for p in settings.args.indicators]
    tables = _load_varcomp_tables(paths)
    warnings: list[str] = []
    results = analyze_indicators(tables, scheme, n_perm=n_perm, seed=seed,
                                 threads=settings.threads)

    note = ("method: one-way moment-estimator variance components with "
            "label-permutation significance; components are on the raw "
            "indicator scale, so reductions and significance patterns are "
            "comparable but absolute magnitudes are not")
    rows = [[r.indicator_id, f"{r.sigma2_between:.9g}", f"{r.sigma2_within:.9g}",
             f"{r.eta2:.9g}", f"{r.perm_p:.9g}", str(r.groups_used)]
            for r in results]
    write_rows(out / "varcomp.tsv",
               ["indicator_id", "sigma2_between", "sigma2_within", "eta2",
                "perm_p", "groups_used"], rows, preamble=[note])

    reference = next((r for r in results if r.indicator_id == reference_id), None)
    red_rows = []
    if reference is None:
        warnings.append(f"reference indicator {reference_id!r} not among "
                        "inputs; no variance-reduction block")
    else:
        for r in results:
            if r.indicator_id == reference_id:
                continue
            try:
                red = f"{variance_reduction(reference, r):.9g}"
            except StatsError:
                red = ""
                warnings.append(f"variance reduction undefined for "
                                f"{r.indicator_id} (reference component is 0)")
            red_rows.append([r.indicator_id, reference_id, red])
    write_rows(out / "varcomp_reduction.tsv",
               ["indicator_id", "reference_id", "variance_reduction"], red_rows)

    disp_rows = []
    for r in results:
        for code in sorted(r.dispersion_by_field):
            disp_rows.append([r.indicator_id, code,
                              f"{r.dispersion_by_field[code]:.9g}"])
    write_rows(out / "varcomp_dispersion.tsv",
               ["indicator_id", "field", "var_over_mean"], disp_rows)

    write_manifest(out, "varcomp", paths + scheme_input,
                   {"n_perm": n_perm, "seed": seed, "statistic": "eta2",
                    "min_group_size": min_group, "reference": reference_id},
                   ["varcomp.tsv", "varcomp_reduction.tsv",
                    "varcomp_dispersion.tsv"])
    _emit_warnings(warnings)
    return 1 if warnings else 0


def cmd_synth(settings: Settings) -> int:
    out = _out_dir(settings)
    cfg = synthgen.load_synth_config(settings.args.config_file)
    cfg = replace(cfg, seed=settings.get("seed", cfg.seed, integer))
    corpus, journals, scheme, truth = synthgen.generate_corpus(cfg)
    corpus_mod.save_corpus(corpus, out / "corpus.jsonl")
    corpus_mod.save_journals(journals, out / "journals.tsv")
    stats_mod.save_field_scheme(scheme, out / "fields.tsv")
    truth.save(out)
    write_manifest(out, "synth", [Path(settings.args.config_file)],
                   {"seed": cfg.seed, "census_year": cfg.census_year},
                   ["corpus.jsonl", "journals.tsv", "fields.tsv",
                    "ground_truth_journals.tsv", "ground_truth_fields.tsv"])
    return 0


def _emit_warnings(warnings: list[str]) -> None:
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="key=value file with flag defaults")
    common.add_argument("--census-year", dest="census_year", type=integer)
    common.add_argument("--journals", help="journal master TSV")
    common.add_argument("--fields", help="journal_id/field TSV")
    common.add_argument("--out", help="output directory (default .)")
    common.add_argument("--seed", type=integer)
    common.add_argument("--threads", type=integer,
                        help="processes that read the corpus in validate and "
                             "indicators and run the permutation test in "
                             "varcomp, in blocks of seed-sequence children "
                             "(default: available CPUs); correlate, rank and "
                             "synth are serial; outputs do not depend on it")
    common.add_argument("--citable-types", dest="citable_types",
                        help="comma-separated doc types counted as citable")
    common.add_argument("--min-group-size", dest="min_group_size", type=integer)
    common.add_argument("--format", choices=["auto", "jsonl", "tsv"],
                        help="corpus file format (default auto)")

    parser = argparse.ArgumentParser(
        prog="jifnorm",
        description="Field-normalized journal citation indicators")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", parents=[common],
                       help="reference accounting for a corpus")
    p.add_argument("corpus")

    p = sub.add_parser("indicators", parents=[common],
                       help="citation totals, quasi impact factors, fc/p")
    p.add_argument("corpus")
    p.add_argument("--percentiles", action="store_const", const=True,
                   default=None, help="also emit percentile ranks")
    p.add_argument("--external", action="append", metavar="ID=PATH",
                   help="import an externally supplied indicator and emit "
                        "it alongside the computed ones (repeatable)")

    p = sub.add_parser("rank", parents=[common],
                       help="top-k or top-percentile-class listing")
    p.add_argument("indicator")
    p.add_argument("--top", type=integer)
    p.add_argument("--pr6", action="store_const", const=True, default=None,
                   help="list the top percentile class alphabetically")

    p = sub.add_parser("correlate", parents=[common],
                       help="rank-order/product-moment correlation matrix")
    p.add_argument("indicators", nargs="+")

    p = sub.add_parser("varcomp", parents=[common],
                       help="between-field variance components and "
                            "permutation significance")
    p.add_argument("indicators", nargs="+")
    p.add_argument("--n-perm", dest="n_perm", type=integer)
    p.add_argument("--reference", help="reference indicator for the "
                                       "variance-reduction block")

    p = sub.add_parser("synth", parents=[common],
                       help="generate a synthetic corpus")
    p.add_argument("config_file")
    return parser


COMMANDS = {"validate": cmd_validate, "indicators": cmd_indicators,
            "rank": cmd_rank, "correlate": cmd_correlate,
            "varcomp": cmd_varcomp, "synth": cmd_synth}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        settings = Settings(args)
        return COMMANDS[args.command](settings)
    except (CliError, *FATAL_ERRORS) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
