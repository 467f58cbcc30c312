"""Command-line pipeline: validate, indicators, rank, correlate, varcomp, synth.

Every command is a pure function of its input files, flags, and seed;
identical invocations produce byte-identical outputs (no timestamps are
written). Exit codes: 0 success, 1 computation-level warnings were
emitted, 2 fatal input error.

Each optional flag is declared once in ``OPTIONS`` with its type and
default, and each command accepts only the flags it reads plus
``--config``, ``--out`` and ``--threads``; any other flag is a usage
error. A flag has a config-file equivalent (``--config`` points at a
key=value file whose keys are the flag names with underscores, e.g.
``census_year=2010``): the running command's keys are cast by their
flags' declarations and become its defaults, so explicit flags win on
conflict, and the keys of other commands are ignored.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from . import corpus as corpus_mod
from . import stats as stats_mod
from . import synthgen
from ._tsv import integer, iter_key_values, write_lines, write_rows
from .corpus import CorpusFormatError, JournalTableError
from .counts import (CountError, FRACTIONAL, FRACTIONAL_PLUS, INTEGER,
                     count_citations)
from .indicators import (DEFAULT_CITABLE_TYPES, DENOMINATOR_WINDOWS,
                         IndicatorError, IndicatorTable, compute_denominator,
                         count_indicator, denominator_indicator, fc_over_p,
                         import_external_indicator, quasi_if,
                         read_indicator_table, read_tables, value_text)
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

# every optional flag, with its type and default
OPTIONS = {
    "--config": {"help": "key=value file with flag defaults"},
    "--out": {"default": ".", "help": "output directory (default .)"},
    "--threads": {"type": integer,
                  "help": "processes that read the corpus in validate and "
                          "indicators and run the permutation test in "
                          "varcomp, in blocks of seed-sequence children "
                          "(default: available CPUs); every command accepts "
                          "it, and correlate, rank and synth run serially; "
                          "outputs do not depend on it"},
    "--census-year": {"type": integer},
    "--journals": {"help": "journal master TSV"},
    "--citable-types": {"help": "comma-separated doc types counted as citable"},
    "--percentiles": {"action": "store_true",
                      "help": "also emit percentile ranks"},
    "--external": {"action": "append", "metavar": "ID=PATH",
                   "help": "import an externally supplied indicator and emit "
                           "it alongside the computed ones (repeatable)"},
    "--top": {"type": integer},
    "--pr6": {"action": "store_true",
              "help": "list the top percentile class alphabetically"},
    "--fields": {"help": "journal_id/field TSV"},
    "--min-group-size": {"type": integer, "default": stats_mod.MIN_GROUP_SIZE},
    "--n-perm": {"type": integer, "default": stats_mod.N_PERM},
    "--seed": {"type": integer},
    "--reference": {"default": "IF2-IC",
                    "help": "reference indicator for the variance-reduction "
                            "block"},
}


# the arguments that name input files, --external as ID=PATH
PATH_ARGUMENTS = ("corpus", "indicator", "indicators", "config_file",
                  "journals", "fields", "external")


class CliError(Exception):
    pass


def _cast_bool(value: str) -> bool:
    if value.lower() in ("1", "true", "yes", "on"):
        return True
    if value.lower() in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {value!r}")


def _read_config(path: str | None) -> dict[str, str]:
    """A config file's values by key. A key must name an optional flag of
    some subcommand other than those only the command line reads."""
    if not path:
        return {}
    keys = ({flag[2:].replace("-", "_") for flag in OPTIONS}
            - {"config", "external"})
    config = {}
    for where, key, value in iter_key_values(path, CliError):
        if key not in keys:
            raise CliError(f"{where}: unknown key {key!r}")
        config[key] = value
    return config


def _config_defaults(parser: argparse.ArgumentParser,
                     config: dict[str, str]) -> dict[str, object]:
    """The config values of the flags ``parser`` has, each cast by its
    flag's declaration (an on/off flag by :func:`_cast_bool`)."""
    defaults = {}
    for action in parser._actions:
        if action.dest not in config:
            continue
        cast = _cast_bool if action.nargs == 0 else action.type or str
        try:
            defaults[action.dest] = cast(config[action.dest])
        except ValueError:
            raise CliError(f"config key {action.dest}: bad value "
                           f"{config[action.dest]!r}") from None
    return defaults


def _available_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _recorded(key: str, value):
    """A parameter as the manifest records it: a path, and the PATH of
    ``--external ID=PATH``, made absolute and normalized with symlinks
    kept, so that the run replays from any directory."""
    if key not in PATH_ARGUMENTS or value is None:
        return value
    if isinstance(value, list):
        return [_recorded(key, item) for item in value]
    if key == "external":
        indicator_id, _, path = value.partition("=")
        return f"{indicator_id}={os.path.abspath(path)}"
    return os.path.abspath(value)


def write_manifest(out_dir: Path, command: str, inputs: list[Path],
                   parameters: dict, outputs: list[Path]) -> None:
    """Write ``manifest.json``: the sha256 of each input by its absolute
    path, and of each output by its file name, and the Python and numpy
    versions that made them."""
    manifest = {
        "tool": "jifnorm",
        "version": __version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "command": command,
        "inputs": {os.path.abspath(p): _sha256(p) for p in inputs},
        "parameters": parameters,
        "outputs": {p.name: _sha256(p) for p in outputs},
    }
    write_lines(out_dir / "manifest.json",
                [json.dumps(manifest, indent=2, sort_keys=True)])


def _load_inputs(args: argparse.Namespace
                 ) -> tuple[corpus_mod.Corpus, corpus_mod.JournalTable, list[str]]:
    for key in ("census_year", "journals"):
        if getattr(args, key) is None:
            raise CliError(f"missing required option --{key.replace('_', '-')}")
    journals = corpus_mod.load_journals(args.journals)
    corpus = corpus_mod.load_corpus(args.corpus, args.census_year,
                                    threads=args.threads)
    warnings = corpus.load_warnings + corpus.load_errors
    corpus, journals = corpus_mod.merge_journal_parts(corpus, journals)
    return corpus, journals, warnings


def _citable_types(raw: str | None, warnings: list[str]) -> frozenset[str]:
    if raw is None:
        return DEFAULT_CITABLE_TYPES
    types = frozenset(t.strip().lower() for t in raw.split(",") if t.strip())
    unknown = types - corpus_mod.DOC_TYPES
    if unknown:
        warnings.append(f"citable types {sorted(unknown)} are not known "
                        "document types")
    return types


# Each cmd_* writes its outputs into ``out`` and returns (input paths,
# the paths its writers returned, warnings); ``main`` writes the manifest.

def cmd_validate(args: argparse.Namespace, out: Path):
    corpus, journals, warnings = _load_inputs(args)
    report = corpus_mod.validate_corpus(corpus, journals)
    written = [write_rows(out / "validation.tsv",
                          ["metric", "count", "fraction"], report.to_rows())]
    if corpus.load_errors:
        written.append(write_lines(out / "load_errors.txt",
                                   corpus.load_errors))
    return [Path(args.corpus), Path(args.journals)], written, warnings


def _table_file(indicator_id: str) -> str:
    return indicator_id.replace("/", "_") + ".tsv"


def compute_all_tables(corpus, journals, citable_types=DEFAULT_CITABLE_TYPES
                       ) -> tuple[list, list[IndicatorTable]]:
    """The paper's table set, as ``indicators`` writes it, in report order:
    the 8 citation totals (``TC-IC``, ``TC-IC2``, ``TC-IC5``, ``TC-FC``,
    ``TC-FC2``, ``TC-FC5``, ``TC-FC2+``, ``TC-FC5+``) as ``CountTable``s,
    and the 12 indicators (``IF2-IC``, ``IF5-IC``, ``IF2-FC``, ``IF5-FC``,
    ``IF2-FC+``, ``IF5-FC+``, ``FC/P``, ``IF2-Num``, ``IF5-Num``,
    ``IF2-Denom``, ``IF5-Denom``, ``Items<census year>``) as
    ``IndicatorTable``s. References are matched once, for all 8 counts."""
    census = corpus.census_year
    ref_table = match_corpus(corpus, journals)
    count_tables = [count_citations(corpus, journals, kind, mode,
                                    ref_table=ref_table)
                    for kind, mode in COUNT_VARIABLES]
    by_id = {t.variable_id: t for t in count_tables}

    denoms = {window: compute_denominator(corpus, journals, window,
                                          citable_types)
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


def cmd_indicators(args: argparse.Namespace, out: Path):
    corpus, journals, warnings = _load_inputs(args)
    citable = _citable_types(args.citable_types, warnings)

    count_tables, indicator_tables = compute_all_tables(corpus, journals,
                                                        citable)
    # file names in use (a repeated id repeats its file name)
    taken = {"indicators_wide.tsv", "percentiles.tsv",
             *(_table_file(t.variable_id) for t in count_tables),
             *(_table_file(t.indicator_id) for t in indicator_tables)}
    external_paths: list[Path] = []
    for spec in args.external or []:
        indicator_id, sep, ext_path = spec.partition("=")
        if not sep or not indicator_id or not ext_path:
            raise CliError(f"--external expects ID=PATH, got {spec!r}")
        # the id is a column header and a cell of its table
        if any(c in indicator_id for c in "\t\n\r"):
            raise CliError(f"--external id {indicator_id!r} holds a tab or "
                           "a line end")
        name = _table_file(indicator_id)
        if name in taken:
            raise CliError(f"--external {indicator_id}: {name} is already "
                           "an output")
        taken.add(name)
        table = import_external_indicator(ext_path, indicator_id, journals)
        warnings.extend(table.warnings)
        indicator_tables.append(table)
        external_paths.append(Path(ext_path))
    # every table as an indicator; a count table's file keeps its own form
    tables = [count_indicator(t) for t in count_tables] + indicator_tables
    written: list[Path] = []
    for source, table in zip(count_tables + indicator_tables, tables):
        written += source.to_tsv(out / _table_file(table.indicator_id))
        if table.undefined_journals:
            warnings.append(f"{table.indicator_id}: "
                            f"{len(table.undefined_journals)} journals have a "
                            "zero denominator")

    # combined wide table: journals x variables, blanks where undefined
    rows = [[jid] + [value_text(t.values[jid]) if jid in t.values else ""
                     for t in tables]
            for jid in journals.journal_ids]
    written.append(write_rows(out / "indicators_wide.tsv",
                              ["journal_id"] + [t.indicator_id for t in tables],
                              rows))

    if args.percentiles:
        # percentile ranks are reported for the citation-total family
        pr_marked = {"FC/P", "IF2-Num", "IF5-Num", "IF2-Denom", "IF5-Denom"}
        ranked = tables[:len(count_tables)] + [
            t for t in indicator_tables if t.indicator_id in pr_marked]
        pr_rows = [row for t in ranked if t.values
                   for row in build_percentiles(t).to_rows()]
        written.append(write_rows(out / "percentiles.tsv", PERCENTILE_HEADER,
                                  pr_rows))

    return ([Path(args.corpus), Path(args.journals)] + external_paths,
            written, warnings)


def cmd_rank(args: argparse.Namespace, out: Path):
    table = read_indicator_table(args.indicator)
    warnings: list[str] = []
    top = args.top
    if (top is None) == (not args.pr6):
        raise CliError("exactly one of --top K or --pr6 is required")

    if args.pr6:
        pct = build_percentiles(table)
        header = PERCENTILE_HEADER
        rows = [row for row in pct.to_rows() if pct.pr6[row[0]] == 6]
    else:
        if top > len(table.values):
            warnings.append(f"requested top {top} exceeds population "
                            f"{len(table.values)}; emitting full list")
            top = len(table.values)
        ordered = sorted(table.values.items(), key=lambda kv: (-kv[1], kv[0]))
        header = ["rank", "journal_id", "value"]
        rows = [[str(rank), jid, value_text(value)]
                for rank, (jid, value) in enumerate(ordered[:top], start=1)]
    return ([Path(args.indicator)],
            [write_rows(out / "ranking.tsv", header, rows)], warnings)


def cmd_correlate(args: argparse.Namespace, out: Path):
    paths = [Path(p) for p in args.indicators]
    tables = _load_varcomp_tables(paths)
    matrix = stats_mod.correlation_matrix(tables)
    warnings = [f"correlation undefined for {a} / {b}"
                for a, b in matrix.undefined_pairs]
    return paths, matrix.to_tsv(out / "correlation_matrix.tsv"), warnings


def _load_varcomp_tables(paths: list[Path]) -> list[IndicatorTable]:
    """The tables of the files, in order, as :func:`read_tables` reads
    them. ``correlate`` loads its files here too; the name stays, as the
    benchmark's tracer times the call under it."""
    return [table for path in paths for table in read_tables(path)]


def cmd_varcomp(args: argparse.Namespace, out: Path):
    min_group = args.min_group_size
    if args.fields:
        scheme = stats_mod.load_field_scheme(args.fields,
                                             min_group_size=min_group)
        scheme_input = [Path(args.fields)]
    else:
        if not args.journals:
            raise CliError("varcomp needs --fields or --journals for the "
                           "field scheme")
        scheme = stats_mod.scheme_from_journals(
            corpus_mod.load_journals(args.journals), min_group_size=min_group)
        scheme_input = [Path(args.journals)]

    paths = [Path(p) for p in args.indicators]
    tables = _load_varcomp_tables(paths)
    ids = [t.indicator_id for t in tables]
    repeated = next((i for n, i in enumerate(ids) if i in ids[:n]), None)
    if repeated is not None:
        raise CliError(f"indicator {repeated!r} read twice")
    warnings: list[str] = []
    results = analyze_indicators(tables, scheme, n_perm=args.n_perm,
                                 seed=args.seed, threads=args.threads)

    note = ("method: one-way moment-estimator variance components with "
            "label-permutation significance; components are on the raw "
            "indicator scale, so reductions and significance patterns are "
            "comparable but absolute magnitudes are not")
    rows = [[r.indicator_id, f"{r.sigma2_between:.9g}", f"{r.sigma2_within:.9g}",
             f"{r.eta2:.9g}", f"{r.perm_p:.9g}", str(r.groups_used)]
            for r in results]

    reference_id = args.reference
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

    disp_rows = [[r.indicator_id, code, f"{r.dispersion_by_field[code]:.9g}"]
                 for r in results for code in sorted(r.dispersion_by_field)]
    written = [
        write_rows(out / "varcomp.tsv",
                   ["indicator_id", "sigma2_between", "sigma2_within", "eta2",
                    "perm_p", "groups_used"], rows, preamble=[note]),
        write_rows(out / "varcomp_reduction.tsv",
                   ["indicator_id", "reference_id", "variance_reduction"],
                   red_rows),
        write_rows(out / "varcomp_dispersion.tsv",
                   ["indicator_id", "field", "var_over_mean"], disp_rows)]
    return paths + scheme_input, written, warnings


def cmd_synth(args: argparse.Namespace, out: Path):
    cfg = synthgen.load_synth_config(args.config_file)
    if args.seed is not None:   # a synth config carries its own seed
        cfg = replace(cfg, seed=args.seed)
    corpus, journals, scheme, truth = synthgen.generate_corpus(cfg)
    written = [corpus_mod.save_corpus(corpus, out / "corpus.jsonl"),
               corpus_mod.save_journals(journals, out / "journals.tsv"),
               stats_mod.save_field_scheme(scheme, out / "fields.tsv"),
               *truth.save(out)]
    return [Path(args.config_file)], written, []


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jifnorm",
        description="Field-normalized journal citation indicators")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, summary: str, *flags: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=summary)
        for flag in ("--config", "--out", "--threads") + flags:
            p.add_argument(flag, **OPTIONS[flag])
        return p

    corpus_flags = ("--census-year", "--journals")
    command("validate", "reference accounting for a corpus",
            *corpus_flags).add_argument("corpus")
    command("indicators", "citation totals, quasi impact factors, fc/p",
            *corpus_flags, "--citable-types", "--percentiles",
            "--external").add_argument("corpus")
    command("rank", "top-k or top-percentile-class listing",
            "--top", "--pr6").add_argument("indicator")
    command("correlate", "rank-order/product-moment correlation matrix"
            ).add_argument("indicators", nargs="+")
    p = command("varcomp", "between-field variance components and "
                "permutation significance", "--fields", "--journals",
                "--min-group-size", "--n-perm", "--seed", "--reference")
    p.add_argument("indicators", nargs="+")
    p.set_defaults(seed=0)
    command("synth", "generate a synthetic corpus",
            "--seed").add_argument("config_file")
    return parser


COMMANDS = {"validate": cmd_validate, "indicators": cmd_indicators,
            "rank": cmd_rank, "correlate": cmd_correlate,
            "varcomp": cmd_varcomp, "synth": cmd_synth}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            sub = next(a for a in parser._actions
                       if isinstance(a, argparse._SubParsersAction))
            command = sub.choices[args.command]
            command.set_defaults(**_config_defaults(
                command, _read_config(args.config)))
            args = parser.parse_args(argv)
        for key, low in (("threads", 1), ("top", 1), ("seed", 0),
                         ("min_group_size", 1)):
            value = getattr(args, key, None)
            if value is not None and value < low:
                raise CliError(f"--{key.replace('_', '-')} must be >= {low}")
        if args.threads is None:
            args.threads = _available_cpus()
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        inputs, written, warnings = COMMANDS[args.command](args, out)
        # the command line as parsed, less what changes no output byte
        parameters = {key: _recorded(key, value)
                      for key, value in vars(args).items()
                      if key not in ("command", "config", "out", "threads")}
        write_manifest(out, args.command, inputs, parameters, written)
    except (CliError, *FATAL_ERRORS) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    return 1 if warnings else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
