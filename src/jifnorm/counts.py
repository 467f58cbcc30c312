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
from fractions import Fraction
from pathlib import Path
from typing import Optional

import numpy as np

from ._tsv import write_rows
from .corpus import Corpus, JournalTable
from .refmatch import RefTable, match_corpus

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


@dataclass
class CountTable:
    window: WindowSpec
    mode: CountMode
    values: dict[str, float]
    contributing_docs: int = 0

    @property
    def variable_id(self) -> str:
        return total_id(self.window.kind, self.mode.label)

    def to_tsv(self, path: str | Path) -> list[Path]:
        is_int = self.mode.counting == "integer"
        rows = [[jid, self.window.kind, self.mode.label,
                 str(int(v)) if is_int else f"{v:.9f}"]
                for jid, v in sorted(self.values.items())]
        return [write_rows(path, COUNT_HEADER, rows)]


def count_citations(corpus: Corpus, journals: JournalTable, window: str,
                    mode: CountMode, ref_table: Optional[RefTable] = None
                    ) -> CountTable:
    """Sum per-journal citation weights over the whole corpus for window
    kind ``window`` of the corpus's census year.

    Fractional totals are reduced from exact integer counts of references
    per (journal, k), k being the divisor of each reference's weight, so
    they do not depend on the order of the documents. No corpus holds an
    NRef below its reference count, so a whole-list weight is at most 1/k.
    Totals that are equal as rationals are equal floats.

    The window's membership, k and counted references are computed once
    per ``ref_table`` and corpus, and shared by the window's three modes.
    """
    w = WindowSpec(window, corpus.census_year)
    if ref_table is None:
        ref_table = match_corpus(corpus, journals)
    win = _window(corpus, ref_table, w)
    n_journals = len(ref_table.journal_ids)

    if mode.counting == "integer":
        totals = np.bincount(win.journal, minlength=n_journals).tolist()
    else:
        per_doc = win.k if mode.fraction_base == "in_window" else corpus.ref_counts
        totals = _fractional_totals(win, per_doc, n_journals)
    return CountTable(window=w, mode=mode,
                      values=dict(zip(ref_table.journal_ids, totals)),
                      contributing_docs=win.contributing)


@dataclass(frozen=True)
class _Window:
    """What the counts over one window share. Per citing document: ``k``,
    its valid in-window references, matched or not, and ``counted``, those
    of them that match a journal. Per counted reference, in (document,
    reference) order: ``journal``, its journal's position."""
    k: np.ndarray
    counted: np.ndarray
    journal: np.ndarray
    contributing: int


def _window(corpus: Corpus, ref_table: RefTable, w: WindowSpec) -> _Window:
    """The window's shared arrays, from ``ref_table``'s memo when they were
    computed for this same corpus."""
    seen, memo = ref_table._windows
    if seen is not corpus:
        memo = {}
        ref_table._windows = (corpus, memo)
    if w in memo:
        return memo[w]
    if ref_table.year.size >= 2**31:
        raise CountError("more than 2**31 - 1 references")
    # valid years are [1900, census year] and an unparseable one is 0, so
    # with lo at least 1900 one unsigned compare tests validity and
    # membership at once (a window of a census year before 1905 can
    # start before 1900)
    lo = max(w.lo, 1900)
    member = (ref_table.year - np.int32(lo)).view(np.uint32) < w.hi + 1 - lo
    # per-document counts: differences of a running count at the offsets
    running = np.zeros(member.size + 1, dtype=np.int32)
    np.cumsum(member, dtype=np.int32, out=running[1:])
    k = np.diff(running[corpus.ref_offsets])
    member &= ref_table.journal_index >= 0
    np.cumsum(member, dtype=np.int32, out=running[1:])
    counted = np.diff(running[corpus.ref_offsets])
    memo[w] = _Window(k=k, counted=counted,
                      journal=np.compress(member, ref_table.journal_index),
                      contributing=int(np.count_nonzero(k)))
    return memo[w]


def _fractional_totals(win: _Window, per_doc: np.ndarray, n_journals: int
                       ) -> list[float]:
    """Per-journal sums of count/divisor over the (journal, divisor) pairs,
    ``per_doc`` giving each document's divisor.

    Each pair adds one term in ascending-divisor order, so every total is
    reproducible. A total may still be a few ulps from its rational value;
    a journal whose total lies that near another's gets its exact sum,
    rounded once, so that totals equal as rationals are equal floats.
    """
    journal, divisor, refs = _pairs(win, per_doc, n_journals)
    # with no pairs at all, bincount gives int zeros, even with weights
    totals = np.bincount(journal, weights=refs / divisor,
                         minlength=n_journals).astype(np.float64, copy=False)
    values = totals.tolist()
    tied = _tie_candidates(totals, np.bincount(journal, minlength=n_journals))
    if tied.size:
        exact = {j: Fraction(0) for j in tied.tolist()}
        pick = np.isin(journal, tied)
        for j, n, d in zip(journal[pick].tolist(), refs[pick].tolist(),
                           divisor[pick].tolist()):
            exact[j] += Fraction(n, d)
        for j, total in exact.items():
            values[j] = float(total)
    return values


def _pairs(win: _Window, per_doc: np.ndarray, n_journals: int
           ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per nonzero (journal, divisor) pair, in (journal, divisor) order:
    its journal, its divisor and its number of references."""
    has = win.counted > 0
    divisors, code = np.unique(per_doc[has], return_inverse=True)
    n_div = divisors.size
    # each reference's key, journal * n_div + divisor code: int32 when
    # every key fits, since int32 keys sort faster than int64
    key_type = np.int32 if n_journals * n_div <= 2**31 else np.int64
    keys = win.journal.astype(key_type)
    keys *= n_div
    keys += np.repeat(code.astype(key_type), win.counted[has])
    pairs, refs = np.unique(keys, return_counts=True)
    return pairs // n_div, divisors[pairs % n_div], refs


def _tie_candidates(totals: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """The journals whose total could equal another journal's as a
    rational: both of each adjacent pair, in sorted order, at most
    2 * (T + 2) * 2**-52 times the larger total apart, T the most terms of
    any journal. Totals equal as rationals, of t terms each rounded once
    (twice for a divisor above 2**53), and every adjacent pair between
    them, lie within about (ti + tj + 2) * 2**-53 times their value of each
    other, under half that bound. A journal with no terms is exactly 0 and
    is left out."""
    live = np.flatnonzero(terms)
    order = live[np.argsort(totals[live])]
    value = totals[order]
    bound = 2 * (int(terms.max(initial=0)) + 2) * 2.0**-52
    near = np.diff(value) <= bound * value[1:]
    marked = np.zeros(order.size, dtype=bool)
    marked[:-1] = near
    marked[1:] |= near
    return order[marked]
