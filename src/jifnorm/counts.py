"""Per-journal citation totals for a (window, counting mode) pair.

Windows are anchored on the census year Y; :func:`window_years` gives the
publication years each covers. Years classified pre-1900 or beyond the
census year never fall in any window.

Counting modes:

* integer — every matched, valid, in-window reference contributes 1.
* fractional, in-window base — each such reference contributes 1/k where
  k is the citing document's number of valid in-window references,
  matched or not. Fractionation follows citing-side behavior, so
  unmatched venues still widen the denominator.
* fractional, whole-list base (the "+" variants) — each contributes
  1/NRef, NRef being the document's declared total reference count.

With the in-window base a citing document hands out at most total weight
1 (exactly 1 when all its in-window references match), which is what
normalizes fractional totals to document counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from ._tsv import write_rows
from .corpus import Corpus, JournalTable
from .refmatch import RefTable, STATUS_VALID, match_corpus

# the counting windows, each with the suffix that names variables over it
_WINDOW_SUFFIX = {"two_year": "2", "five_year": "5", "all_years": ""}


class CountError(Exception):
    pass


def window_years(kind: str, census_year: int) -> range:
    """The publication years that window ``kind`` covers for a census year."""
    if kind == "two_year":
        return range(census_year - 2, census_year)
    if kind == "five_year":
        return range(census_year - 5, census_year)
    if kind == "all_years":
        return range(1900, census_year + 1)
    if kind == "census_only":
        return range(census_year, census_year + 1)
    raise CountError(f"unknown window kind {kind!r}")


@dataclass(frozen=True)
class WindowSpec:
    kind: str
    census_year: int

    def __post_init__(self):
        if self.kind not in _WINDOW_SUFFIX:
            raise CountError(f"unknown window kind {self.kind!r}")

    @property
    def lo(self) -> int:
        return window_years(self.kind, self.census_year)[0]

    @property
    def hi(self) -> int:
        return window_years(self.kind, self.census_year)[-1]


@dataclass(frozen=True)
class CountMode:
    counting: str                    # "integer" | "fractional"
    fraction_base: str = "in_window"  # "in_window" | "all_refs"; fractional only

    def __post_init__(self):
        if self.counting not in ("integer", "fractional"):
            raise CountError(f"unknown counting mode {self.counting!r}")
        if self.fraction_base not in ("in_window", "all_refs"):
            raise CountError(f"unknown fraction base {self.fraction_base!r}")
        if self.counting == "integer" and self.fraction_base != "in_window":
            raise CountError("integer counting has no fraction base")

    @property
    def label(self) -> str:
        if self.counting == "integer":
            return "IC"
        return "FC+" if self.fraction_base == "all_refs" else "FC"


INTEGER = CountMode("integer")
FRACTIONAL = CountMode("fractional", "in_window")
FRACTIONAL_PLUS = CountMode("fractional", "all_refs")

_MODE_LABELS = {m.label for m in (INTEGER, FRACTIONAL, FRACTIONAL_PLUS)}

COUNT_HEADER = ["journal_id", "window", "mode", "value"]


def total_id(kind: str, label: str) -> str:
    """The id of a citation total by window kind and mode label: the window's
    suffix goes between the label's IC/FC and its ``+`` (TC-FC5+, TC-IC)."""
    if kind not in _WINDOW_SUFFIX or label not in _MODE_LABELS:
        raise CountError(f"unknown window {kind!r} or mode {label!r}")
    return f"TC-{label[:2]}{_WINDOW_SUFFIX[kind]}{label[2:]}"


def variable_id(window: WindowSpec, mode: CountMode) -> str:
    """Canonical citation-total variable name, e.g. TC-IC2, TC-FC5+."""
    return total_id(window.kind, mode.label)


@dataclass
class CountTable:
    window: WindowSpec
    mode: CountMode
    values: dict[str, float]
    contributing_docs: int = 0

    @property
    def variable_id(self) -> str:
        return variable_id(self.window, self.mode)

    def to_tsv(self, path: str | Path) -> None:
        is_int = self.mode.counting == "integer"
        rows = [[jid, self.window.kind, self.mode.label,
                 str(int(v)) if is_int else f"{v:.9f}"]
                for jid, v in sorted(self.values.items())]
        write_rows(path, COUNT_HEADER, rows)


def count_citations(corpus: Corpus, journals: JournalTable, w: WindowSpec,
                    mode: CountMode, ref_table: Optional[RefTable] = None
                    ) -> CountTable:
    """Sum per-journal citation weights over the whole corpus.

    Fractional totals are reduced from exact integer counts of references
    per (journal, k), k being the divisor of each reference's weight, so
    they do not depend on the order of the documents. No corpus holds an
    NRef below its reference count, so a whole-list weight is at most 1/k.
    """
    if w.census_year != corpus.census_year:
        raise CountError(
            f"window census year {w.census_year} != corpus {corpus.census_year}")
    if ref_table is None:
        ref_table = match_corpus(corpus, journals)

    n_journals = len(ref_table.journal_ids)
    offsets = corpus.ref_offsets
    valid = ref_table.status == STATUS_VALID
    inwin = valid & (ref_table.year >= w.lo) & (ref_table.year <= w.hi)

    # k = valid in-window references per citing document (matched or not):
    # differences of the running in-window count at the reference offsets
    k = np.diff(np.concatenate(([0], np.cumsum(inwin)))[offsets])
    contributing = int((k > 0).sum())

    counted = inwin & (ref_table.journal_index >= 0)
    jidx = ref_table.journal_index[counted]

    if mode.counting == "integer":
        totals = np.bincount(jidx, minlength=n_journals).astype(np.int64)
        values = {jid: int(totals[i]) for i, jid in enumerate(ref_table.journal_ids)}
        return CountTable(window=w, mode=mode, values=values,
                          contributing_docs=contributing)

    per_doc = k if mode.fraction_base == "in_window" else corpus.ref_counts
    # count references exactly per (journal, divisor) pair, then add one
    # count/divisor term per pair in ascending-divisor order
    divisors, code = np.unique(per_doc, return_inverse=True)
    n_div = divisors.size
    ref_code = np.repeat(code, np.diff(offsets))[counted]
    pairs, refs_per_pair = np.unique(jidx.astype(np.int64) * n_div + ref_code,
                                     return_counts=True)
    totals = np.bincount(pairs // n_div,
                         weights=refs_per_pair / divisors[pairs % n_div],
                         minlength=n_journals)
    values = {jid: float(totals[i]) for i, jid in enumerate(ref_table.journal_ids)}
    return CountTable(window=w, mode=mode, values=values,
                      contributing_docs=contributing)
