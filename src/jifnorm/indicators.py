"""Ratio indicators derived from count tables and citable-item counts.

A quasi impact factor divides a journal's citation total for a window by
the number of citable items it published in that window; the fc/p ratio
divides all-years fractional citations by the census year's citable
items. Journals with a zero denominator are routed to
``undefined_journals`` rather than being assigned a fabricated 0, and are
excluded from downstream percentile and variance runs.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from ._tsv import iter_rows, number, write_rows
from .corpus import Corpus, JournalTable
from .counts import (COUNT_HEADER, CountError, CountMode, CountTable,
                     _WINDOW_SUFFIX, total_id, window_years)
from .percentile import PERCENTILE_HEADER

DEFAULT_CITABLE_TYPES = frozenset({"article", "review"})

DENOMINATOR_WINDOWS = ("two_year", "five_year", "census_only")


class IndicatorError(Exception):
    pass


@dataclass
class DenominatorTable:
    window: str                  # two_year | five_year | census_only
    values: dict[str, int]

    def __post_init__(self):
        if self.window not in DENOMINATOR_WINDOWS:
            raise IndicatorError(f"unknown denominator window {self.window!r}")


@dataclass
class IndicatorTable:
    indicator_id: str
    values: dict[str, float]
    undefined_journals: set[str] = field(default_factory=set)
    warnings: list[str] = field(default_factory=list)

    def to_tsv(self, path: str | Path) -> None:
        rows = [[jid, self.indicator_id, f"{self.values[jid]:.6f}"]
                for jid in sorted(self.values)]
        write_rows(path, ["journal_id", "indicator_id", "value"], rows)
        if self.undefined_journals:
            sidecar = Path(str(path) + ".undefined")
            write_rows(sidecar, ["journal_id"],
                       [[jid] for jid in sorted(self.undefined_journals)])


def read_tables(path: str | Path, single: bool = False
                ) -> list[IndicatorTable]:
    """The tables of a TSV in order of first appearance, read as its
    ``journal_id`` header row says: under :data:`COUNT_HEADER` a row is a
    citation total of its variable id, under :data:`PERCENTILE_HEADER` it
    gives ``ID:PR100`` and ``ID:PR6``, else it is ``journal_id indicator_id
    value``. A file without rows is an empty table named after the file (a
    percentile file, none). A row of another width, an empty
    ``journal_id``, a value that is not a finite decimal, a journal listed
    twice in a table and, when ``single``, a percentile header or a second
    indicator are fatal."""
    tables: dict[str, dict[str, float]] = {}
    header: list[str] = []
    width = 3
    for lineno, fields in iter_rows(path):
        where = f"{path}:{lineno}"
        if fields[0] == "journal_id":
            header = fields
            if single and header == PERCENTILE_HEADER:
                raise IndicatorError(f"{where}: percentile table where one "
                                     "indicator table is expected")
            width = (len(header) if header in (COUNT_HEADER, PERCENTILE_HEADER)
                     else 3)
            continue
        if len(fields) != width:
            raise IndicatorError(
                f"{where}: expected {width} columns, got {len(fields)}")
        if header == COUNT_HEADER:
            try:
                fields = [fields[0], total_id(fields[1], fields[2]), fields[3]]
            except CountError as exc:
                raise IndicatorError(f"{where}: {exc}") from None
        jid, ind, *texts = fields
        if not jid:
            raise IndicatorError(f"{where}: empty journal_id")
        if single and tables and ind not in tables:
            raise IndicatorError(f"{where}: indicator {ind!r} in a table of "
                                 f"{next(iter(tables))!r}")
        names = ([f"{ind}:PR100", f"{ind}:PR6"] if header == PERCENTILE_HEADER
                 else [ind])
        for name, text in zip(names, texts):
            values = tables.setdefault(name, {})
            if jid in values:
                raise IndicatorError(f"{where}: journal {jid!r} listed twice")
            try:
                values[jid] = number(text)
            except ValueError:
                values[jid] = math.nan  # rejected below with the non-finite ones
            if not math.isfinite(values[jid]):
                raise IndicatorError(f"{where}: bad value {text!r}")
    if not tables and header != PERCENTILE_HEADER:
        return [IndicatorTable(Path(path).stem, {})]
    return [IndicatorTable(name, values) for name, values in tables.items()]


def read_indicator_table(path: str | Path) -> IndicatorTable:
    """The one table of an indicator or citation-total TSV; a percentile
    file is fatal."""
    [table] = read_tables(path, single=True)
    return table


def compute_denominator(corpus: Corpus, journals: JournalTable, window: str,
                        citable_types: frozenset[str] = DEFAULT_CITABLE_TYPES
                        ) -> DenominatorTable:
    """Citable items per journal over the window's years of the corpus's
    census year: the declared ``items_by_year``, or for a journal that
    declares none its documents of ``citable_types`` in the corpus (read
    only when some journal declares none)."""
    table = DenominatorTable(window=window, values={})
    years = window_years(window, corpus.census_year)
    undeclared = {j.journal_id for j in journals if not j.items_by_year}
    derived = Counter(
        journal for journal, year, doc_type
        in zip(corpus.doc_journals, corpus.pub_years.tolist(), corpus.doc_types)
        if journal in undeclared and doc_type in citable_types
        and year in years) if undeclared else Counter()
    for j in journals:
        table.values[j.journal_id] = (
            sum(j.items_by_year.get(y, 0) for y in years) if j.items_by_year
            else derived[j.journal_id])
    return table


def _divide(indicator_id: str, numerators: dict[str, float],
            denominators: dict[str, int]) -> IndicatorTable:
    values: dict[str, float] = {}
    undefined: set[str] = set()
    for jid in numerators:
        denom = denominators.get(jid, 0)
        if denom > 0:
            values[jid] = numerators[jid] / denom
        else:
            undefined.add(jid)
    return IndicatorTable(indicator_id=indicator_id, values=values,
                          undefined_journals=undefined)


def quasi_if(numerators: CountTable, denominators: DenominatorTable
             ) -> IndicatorTable:
    """Per-journal citation total over citable items for the same window."""
    kind = numerators.window.kind
    # no denominator covers all years, so an all-years total never passes
    if kind != denominators.window:
        raise IndicatorError(
            f"window mismatch: numerator {kind}, "
            f"denominator {denominators.window}")
    return _divide(f"IF{_WINDOW_SUFFIX[kind]}-{numerators.mode.label}",
                   numerators.values, denominators.values)


def fc_over_p(all_year_fc: CountTable, items_census: DenominatorTable
              ) -> IndicatorTable:
    """All-years fractional citations over census-year citable items."""
    if all_year_fc.window.kind != "all_years":
        raise IndicatorError("fc/p numerator must use the all_years window")
    if all_year_fc.mode != CountMode("fractional", "in_window"):
        raise IndicatorError("fc/p numerator must be fractional with the "
                             "in-window (all valid years) base")
    if items_census.window != "census_only":
        raise IndicatorError("fc/p denominator must be census-year items")
    return _divide("FC/P", all_year_fc.values, items_census.values)


def count_indicator(table: CountTable) -> IndicatorTable:
    """View a count table as an indicator (for percentiles, correlations,
    variance runs). Every journal is defined; totals may be 0."""
    return IndicatorTable(indicator_id=table.variable_id,
                          values={j: float(v) for j, v in table.values.items()})


def denominator_indicator(table: DenominatorTable, indicator_id: str
                          ) -> IndicatorTable:
    return IndicatorTable(indicator_id=indicator_id,
                          values={j: float(v) for j, v in table.values.items()})


def import_external_indicator(path: str | Path, indicator_id: str,
                              journals: JournalTable) -> IndicatorTable:
    """Load externally supplied per-journal values (e.g. published impact
    factors). A row with a value that is not a finite decimal, or of a
    journal unknown to the master or already listed, is skipped with a
    warning in the table's list."""
    values: dict[str, float] = {}
    warnings: list[str] = []
    for lineno, fields in iter_rows(path):
        if fields[0] == "journal_id":
            continue
        if len(fields) == 3:
            jid, _, value = fields
        elif len(fields) == 2:
            jid, value = fields
        else:
            warnings.append(f"{path}:{lineno}: expected 2 or 3 columns")
            continue
        try:
            v = number(value)
        except ValueError:
            warnings.append(f"{path}:{lineno}: non-numeric value {value!r}")
            continue
        if not math.isfinite(v):
            warnings.append(f"{path}:{lineno}: non-finite value {value!r}")
            continue
        if jid not in journals.by_id:
            warnings.append(f"{path}:{lineno}: unknown journal {jid!r}")
            continue
        if jid in values:
            warnings.append(f"{path}:{lineno}: journal {jid!r} listed twice")
            continue
        values[jid] = v
    return IndicatorTable(indicator_id=indicator_id, values=values,
                          warnings=warnings)
