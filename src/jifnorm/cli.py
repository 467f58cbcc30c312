"""Command-line pipeline: validate, indicators, rank, correlate, varcomp, synth.

Every command is a pure function of its input files, flags, and seed;
identical invocations produce byte-identical outputs (no timestamps are
written). Exit codes: 0 success, 1 computation-level warnings were
emitted, 2 fatal input error.

All flags have config-file equivalents (``--config`` points at a
key=value file whose keys are the flag names with underscores, e.g.
``census_year=2010``); explicit flags win on conflict.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from pathlib import Path

from . import __version__
from . import corpus as corpus_mod
from . import indicators as ind_mod
from . import percentile as pct_mod
from . import stats as stats_mod
from . import synthgen
from ._tsv import iter_rows, write_rows
from .corpus import CorpusFormatError, JournalTableError
from .counts import (CountError, CountMode, FRACTIONAL, FRACTIONAL_PLUS,
                     INTEGER, WindowSpec, count_citations)
from .indicators import (DEFAULT_CITABLE_TYPES, IndicatorError, IndicatorTable,
                         compute_denominator, count_indicator,
                         denominator_indicator, derived_item_counts, fc_over_p,
                         import_external_indicator, quasi_if,
                         read_indicator_table)
from .percentile import PercentileError, build_percentiles
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
    if not path:
        return {}
    p = Path(path)
    if not p.is_file():
        raise CliError(f"config file not found: {p}")
    values: dict[str, str] = {}
    with open(p, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise CliError(f"{p.name}:{lineno}: expected key=value")
            values[key.strip()] = value.strip()
    return values


def _available_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class Settings:
    """Flag values merged over config-file values (flags win)."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.config = _read_config(getattr(args, "config", None))
        threads = self.get("threads", None, int)
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
    census = settings.require("census_year", int)
    journals_path = settings.require("journals")
    fmt = settings.get("format", "auto")
    journals = corpus_mod.load_journals(journals_path)
    corpus = corpus_mod.load_corpus(corpus_path, format=fmt, census_year=census,
                                    threads=settings.threads)
    warnings = list(corpus.load_warnings)
    warnings += corpus.load_errors
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
                   {"census_year": settings.require("census_year", int)},
                   outputs)
    _emit_warnings(warnings)
    return 1 if warnings else 0


def _safe_name(indicator_id: str) -> str:
    return indicator_id.replace("/", "_")


def compute_all_tables(corpus, journals, citable_types,
                       census: int) -> tuple[list, list[IndicatorTable]]:
    """All citation-total tables plus derived indicators, in report order."""
    ref_table = match_corpus(corpus, journals)
    count_tables = [count_citations(corpus, journals, WindowSpec(kind, census),
                                    mode, ref_table=ref_table)
                    for kind, mode in COUNT_VARIABLES]
    by_id = {t.variable_id: t for t in count_tables}

    items = derived_item_counts(corpus, journals, citable_types)
    denom2 = compute_denominator(journals, "two_year", census, item_counts=items)
    denom5 = compute_denominator(journals, "five_year", census, item_counts=items)
    denom_census = compute_denominator(journals, "census_only", census,
                                       item_counts=items)

    derived = [
        quasi_if(by_id["TC-IC2"], denom2),
        quasi_if(by_id["TC-IC5"], denom5),
        quasi_if(by_id["TC-FC2"], denom2),
        quasi_if(by_id["TC-FC5"], denom5),
        quasi_if(by_id["TC-FC2+"], denom2),
        quasi_if(by_id["TC-FC5+"], denom5),
        fc_over_p(by_id["TC-FC"], denom_census),
    ]
    aliases = [
        IndicatorTable("IF2-Num", {j: float(v) for j, v in by_id["TC-IC2"].values.items()}),
        IndicatorTable("IF5-Num", {j: float(v) for j, v in by_id["TC-IC5"].values.items()}),
        denominator_indicator(denom2, "IF2-Denom"),
        denominator_indicator(denom5, "IF5-Denom"),
        denominator_indicator(denom_census, f"Items{census}"),
    ]
    return count_tables, derived + aliases


def cmd_indicators(settings: Settings) -> int:
    out = _out_dir(settings)
    census = settings.require("census_year", int)
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
    outputs: list[str] = []
    for table in count_tables:
        name = f"{_safe_name(table.variable_id)}.tsv"
        table.to_tsv(out / name)
        outputs.append(name)
    for table in indicator_tables:
        name = f"{_safe_name(table.indicator_id)}.tsv"
        table.to_tsv(out / name)
        outputs.append(name)
        if table.undefined_journals:
            outputs.append(name + ".undefined")
            warnings.append(f"{table.indicator_id}: "
                            f"{len(table.undefined_journals)} journals have a "
                            "zero denominator")

    # combined wide table: journals x variables, blanks where undefined
    wide_ids: list[str] = [t.variable_id for t in count_tables]
    wide_cols: list[dict[str, float]] = [t.values for t in count_tables]
    for t in indicator_tables:
        wide_ids.append(t.indicator_id)
        wide_cols.append(t.values)
    rows = []
    for jid in journals.journal_ids:
        row = [jid]
        for col in wide_cols:
            row.append(f"{col[jid]:.6f}" if jid in col else "")
        rows.append(row)
    write_rows(out / "indicators_wide.tsv", ["journal_id"] + wide_ids, rows)
    outputs.append("indicators_wide.tsv")

    if settings.get("percentiles", False, _cast_bool):
        # percentile ranks are reported for the citation-total family
        pr_marked = {"FC/P", "IF2-Num", "IF5-Num", "IF2-Denom", "IF5-Denom"}
        pr_rows = []
        pr_tables = ([count_indicator(t) for t in count_tables]
                     + [t for t in indicator_tables
                        if t.indicator_id in pr_marked])
        for t in pr_tables:
            if not t.values:
                continue
            pr_rows.extend(build_percentiles(t).to_rows())
        write_rows(out / "percentiles.tsv",
                   ["journal_id", "indicator_id", "pr100", "pr6"], pr_rows)
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
    top = settings.get("top", None, int)
    pr6 = settings.get("pr6", False, _cast_bool)
    if (top is None) == (not pr6):
        raise CliError("exactly one of --top K or --pr6 is required")

    if pr6:
        pct = build_percentiles(table)
        rows = [[jid, table.indicator_id, f"{pct.pr100[jid]:.4f}",
                 str(pct.pr6[jid])]
                for jid in sorted(pct.pr6) if pct.pr6[jid] == 6]
        write_rows(out / "ranking.tsv",
                   ["journal_id", "indicator_id", "pr100", "pr6"], rows)
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
        with open(path, encoding="utf-8") as fh:
            header = ""
            for line in fh:
                if line.strip() and not line.startswith("#"):
                    header = line.rstrip("\n")
                    break
        if header.split("\t")[:4] == ["journal_id", "indicator_id", "pr100", "pr6"]:
            # one (PR100, PR6) pair per indicator_id, in file order
            pairs: dict[str, tuple[dict[str, float], dict[str, float]]] = {}
            for _, fields in iter_rows(path):
                if fields[0] == "journal_id":
                    continue
                jid, source, p100, p6 = fields
                pr100, pr6 = pairs.setdefault(source, ({}, {}))
                pr100[jid] = float(p100)
                pr6[jid] = float(p6)
            for source, (pr100, pr6) in pairs.items():
                tables.append(IndicatorTable(f"{source}:PR100", pr100))
                tables.append(IndicatorTable(f"{source}:PR6", pr6))
        else:
            tables.append(read_indicator_table(path))
    return tables


def cmd_varcomp(settings: Settings) -> int:
    out = _out_dir(settings)
    min_group = settings.get("min_group_size", 10, int)
    n_perm = settings.get("n_perm", 999, int)
    seed = settings.get("seed", 0, int)
    statistic = settings.get("perm_stat", "eta2")
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
    results = analyze_indicators(tables, scheme, statistic=statistic,
                                 n_perm=n_perm, seed=seed,
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
                   {"n_perm": n_perm, "seed": seed, "statistic": statistic,
                    "min_group_size": min_group, "reference": reference_id},
                   ["varcomp.tsv", "varcomp_reduction.tsv",
                    "varcomp_dispersion.tsv"])
    _emit_warnings(warnings)
    return 1 if warnings else 0


def cmd_synth(settings: Settings) -> int:
    out = _out_dir(settings)
    cfg = synthgen.load_synth_config(settings.args.config_file)
    seed = settings.get("seed", None, int)
    if seed is not None:
        cfg = synthgen.SynthConfig(
            census_year=cfg.census_year, fields=cfg.fields,
            quality_spread=cfg.quality_spread, years_back=cfg.years_back,
            seed=seed, invalid_ref_rate=cfg.invalid_ref_rate)
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
    common.add_argument("--census-year", dest="census_year", type=int)
    common.add_argument("--journals", help="journal master TSV")
    common.add_argument("--fields", help="journal_id/field TSV")
    common.add_argument("--out", help="output directory (default .)")
    common.add_argument("--seed", type=int)
    common.add_argument("--threads", type=int,
                        help="processes that read the corpus in validate and "
                             "indicators and run the permutation test in "
                             "varcomp, in blocks of seed-sequence children "
                             "(default: available CPUs); correlate, rank and "
                             "synth are serial; outputs do not depend on it")
    common.add_argument("--citable-types", dest="citable_types",
                        help="comma-separated doc types counted as citable")
    common.add_argument("--min-group-size", dest="min_group_size", type=int)
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
    p.add_argument("--top", type=int)
    p.add_argument("--pr6", action="store_const", const=True, default=None,
                   help="list the top percentile class alphabetically")

    p = sub.add_parser("correlate", parents=[common],
                       help="rank-order/product-moment correlation matrix")
    p.add_argument("indicators", nargs="+")

    p = sub.add_parser("varcomp", parents=[common],
                       help="between-field variance components and "
                            "permutation significance")
    p.add_argument("indicators", nargs="+")
    p.add_argument("--n-perm", dest="n_perm", type=int)
    p.add_argument("--reference", help="reference indicator for the "
                                       "variance-reduction block")
    p.add_argument("--perm-stat", dest="perm_stat",
                   choices=["eta2", "sigma2_between"])

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
