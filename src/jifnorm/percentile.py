"""Percentile ranks and six-class percentile bins.

The percentile of a journal is 100 times the share of the population with
a strictly lower value, so ties receive identical percentiles and the
maximum attainable value is 100*(n-1)/n. The six classes partition the
percentile axis at 99/95/90/75/50 (top-1%, top-5%, top-10%, top-25%,
top-50%, bottom-50%); under distinct values their expected mean is
6*.01 + 5*.04 + 4*.05 + 3*.15 + 2*.25 + 1*.50 = 1.91.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from ._tsv import write_rows

if TYPE_CHECKING:  # pragma: no cover
    from .indicators import IndicatorTable

PR6_THRESHOLDS = (99.0, 95.0, 90.0, 75.0, 50.0)

PERCENTILE_HEADER = ["journal_id", "indicator_id", "pr100", "pr6"]


class PercentileError(Exception):
    pass


@dataclass
class PercentileTable:
    source_indicator: str
    pr100: dict[str, float]
    pr6: dict[str, int]
    n: int

    def to_rows(self) -> list[list[str]]:
        return [[jid, self.source_indicator, f"{self.pr100[jid]:.4f}",
                 str(self.pr6[jid])] for jid in sorted(self.pr100)]

    def to_tsv(self, path: str | Path) -> list[Path]:
        return [write_rows(path, PERCENTILE_HEADER, self.to_rows())]


def percentile_rank(values: dict[str, float]) -> dict[str, float]:
    """Map each journal to 100 * (count of strictly lower values) / n."""
    if not values:
        raise PercentileError("cannot rank an empty population")
    ids = sorted(values)
    v = np.array([values[j] for j in ids], dtype=np.float64)
    if not np.isfinite(v).all():
        raise PercentileError("values must be finite")
    order = np.sort(v)
    below = np.searchsorted(order, v, side="left")
    pr = 100.0 * below / v.size
    return {jid: float(p) for jid, p in zip(ids, pr)}


def pr6_class(percentile: float) -> int:
    """Class 6 at >= 99, then 5/4/3/2 at 95/90/75/50, else 1."""
    for cls, threshold in zip((6, 5, 4, 3, 2), PR6_THRESHOLDS):
        if percentile >= threshold:
            return cls
    return 1


def _pr6_classes(percentiles: np.ndarray) -> np.ndarray:
    """:func:`pr6_class` of each percentile: 1 plus the number of
    thresholds at or below it."""
    return np.searchsorted(PR6_THRESHOLDS[::-1], percentiles, side="right") + 1


def top_share(pr100: dict[str, float], threshold: float) -> set[str]:
    """Journals at or above a percentile threshold."""
    if not 0.0 <= threshold < 100.0:
        raise PercentileError(f"threshold {threshold} outside [0, 100)")
    return {jid for jid, p in pr100.items() if p >= threshold}


def build_percentiles(indicator: IndicatorTable) -> PercentileTable:
    """Percentile table over the indicator's defined journals (journals
    with undefined values are not part of the rank population)."""
    pr100 = percentile_rank(indicator.values)
    pr6 = dict(zip(pr100, _pr6_classes(np.fromiter(pr100.values(), float,
                                                    len(pr100))).tolist()))
    return PercentileTable(source_indicator=indicator.indicator_id,
                           pr100=pr100, pr6=pr6, n=len(pr100))
