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
from typing import Optional

from ._tsv import iter_rows, write_rows
from .corpus import Corpus, JournalTable
from .counts import (COUNT_HEADER, CountError, CountMode, CountTable,
                     _WINDOW_SUFFIX, total_id, window_years)

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


def read_table_values(path: str | Path, width: int, single: bool = False
                      ) -> dict[str, dict[str, list[float]]]:
    """Per indicator id, in order of first appearance, each journal's
    numbers from a table whose rows are ``journal_id``, ``indicator_id``
    and ``width - 2`` numbers, past its ``journal_id`` header rows; a
    citation-total table, headed as :meth:`CountTable.to_tsv` writes it,
    names its rows by variable id. A row of another width, a value that is
    not a finite number, a journal listed twice for one indicator and,
    when ``single``, a row of a second indicator are fatal."""
    tables: dict[str, dict[str, list[float]]] = {}
    count_table = False
    for lineno, fields in iter_rows(path):
        if fields[0] == "journal_id":
            count_table = fields == COUNT_HEADER
            continue
        where = f"{path}:{lineno}"
        expected = len(COUNT_HEADER) if count_table else width
        if len(fields) != expected:
            raise IndicatorError(
                f"{where}: expected {expected} columns, got {len(fields)}")
        if count_table:
            try:
                fields = [fields[0], total_id(fields[1], fields[2]), fields[3]]
            except CountError as exc:
                raise IndicatorError(f"{where}: {exc}") from None
        jid, ind, *texts = fields
        if single and tables and ind not in tables:
            raise IndicatorError(f"{where}: indicator {ind!r} in a table of "
                                 f"{next(iter(tables))!r}")
        values = tables.setdefault(ind, {})
        if jid in values:
            raise IndicatorError(f"{where}: journal {jid!r} listed twice")
        values[jid] = []
        for text in texts:
            try:
                value = float(text)
            except ValueError:
                value = math.nan  # rejected below with the non-finite ones
            if not math.isfinite(value):
                raise IndicatorError(f"{where}: bad value {text!r}")
            values[jid].append(value)
    return tables


def read_indicator_table(path: str | Path) -> IndicatorTable:
    """Read an indicator TSV written by :meth:`IndicatorTable.to_tsv`, or a
    citation-total TSV written by :meth:`CountTable.to_tsv` as the
    indicator of its variable id."""
    tables = read_table_values(path, 3, single=True)
    indicator_id, values = next(iter(tables.items()), (Path(path).stem, {}))
    return IndicatorTable(indicator_id=indicator_id,
                          values={jid: v for jid, (v,) in values.items()})


def derived_item_counts(corpus: Corpus, journals: JournalTable,
                        citable_types: frozenset[str] = DEFAULT_CITABLE_TYPES
                        ) -> Counter[tuple[str, int]]:
    """Documents of the citable types per (journal, publication year) in
    the corpus, for the journals that declare no ``items_by_year``; empty
    when every journal declares its counts."""
    undeclared = {j.journal_id for j in journals if not j.items_by_year}
    if not undeclared:
        return Counter()
    return Counter(
        (journal, year) for journal, year, doc_type
        in zip(corpus.doc_journals, corpus.pub_years.tolist(), corpus.doc_types)
        if journal in undeclared and doc_type in citable_types)


def compute_denominator(journals: JournalTable, window: str, census_year: int,
                        *, item_counts: Optional[Counter[tuple[str, int]]] = None
                        ) -> DenominatorTable:
    """Sum citable items over the window's years.

    Declared ``items_by_year`` counts are used as-is (they are citable
    counts by definition of the journal master). Journals with no declared
    counts at all take theirs from ``item_counts``, the corpus's documents
    of the citable types as :func:`derived_item_counts` tallies them, so
    several windows can share one pass over the corpus; without it they
    count 0.
    """
    table = DenominatorTable(window=window, values={})
    item_counts = item_counts or Counter()
    years = window_years(window, census_year)
    for j in journals:
        if j.items_by_year:
            total = sum(j.items_by_year.get(y, 0) for y in years)
        else:
            total = sum(item_counts[j.journal_id, y] for y in years)
        table.values[j.journal_id] = total
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
    factors). A row with a value that is not a finite number, or of a
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
            v = float(value)
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
