"""Correlations, between-field effect measures, and distribution screens.

Field effects are tested without distributional assumptions: a one-way
random-effects decomposition by the method of moments gives the between-
and within-field variance components, and a label-permutation test of
eta2 gives the significance of the observed separation (a permutation
keeps SS_total, so eta2 orders draws by SS_between). The permutation
p-value uses the add-one estimator (1 + exceedances) / (n_perm + 1), so
it can never be exactly zero. Components are on the raw scale of the
indicator, so reductions and significance patterns are comparable across
counting variants but coefficient magnitudes are not comparable with
model-based estimates on transformed scales.

Fields smaller than ``min_group_size`` journals are excluded before any
of these computations, mirroring the usual treatment of tiny residual
categories.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from ._fork import run_forked
from ._tsv import iter_rows, write_rows
from .corpus import JournalTable
from .indicators import IndicatorTable


# a block of the permutation test permutes at least this many labels,
# summed over its permutations and tables
_MIN_PERM_WORK = 1 << 22


class StatsError(Exception):
    pass


@dataclass
class FieldScheme:
    """A unique assignment of each journal to one broad field."""

    name: str
    assignment: dict[str, str]
    min_group_size: int = 10

    def group_arrays(self, values: dict[str, float]
                     ) -> tuple[np.ndarray, np.ndarray, list[str], list[str]]:
        """Align values with field labels and apply the size filter.

        Returns (values, integer labels, retained field codes, excluded
        field codes); journals must all be assigned, fields below
        ``min_group_size`` are dropped along with their journals.
        """
        ids = sorted(values)
        missing = [j for j in ids if j not in self.assignment]
        if missing:
            raise StatsError(
                f"{len(missing)} journals lack a field assignment "
                f"(first: {missing[0]!r})")
        fields = [self.assignment[j] for j in ids]
        sizes: dict[str, int] = {}
        for f in fields:
            sizes[f] = sizes.get(f, 0) + 1
        retained = sorted(f for f, n in sizes.items() if n >= self.min_group_size)
        excluded = sorted(f for f, n in sizes.items() if n < self.min_group_size)
        pos = {f: i for i, f in enumerate(retained)}
        v, g = [], []
        for j, f in zip(ids, fields):
            if f in pos:
                v.append(values[j])
                g.append(pos[f])
        return (np.array(v, dtype=np.float64), np.array(g, dtype=np.int64),
                retained, excluded)


def load_field_scheme(path: str | Path, name: Optional[str] = None,
                      min_group_size: int = 10) -> FieldScheme:
    """Load a two-column TSV (journal_id, field); an empty journal_id or
    field is fatal."""
    assignment: dict[str, str] = {}
    for lineno, fields in iter_rows(path):
        if fields[0] == "journal_id":
            continue
        if len(fields) != 2:
            raise StatsError(f"{path}:{lineno}: expected 2 columns")
        jid, code = fields
        if not jid:
            raise StatsError(f"{path}:{lineno}: empty journal_id")
        if not code:
            raise StatsError(f"{path}:{lineno}: empty field")
        if jid in assignment and assignment[jid] != code:
            raise StatsError(f"{path}:{lineno}: journal {jid!r} assigned twice")
        assignment[jid] = code
    return FieldScheme(name=name or Path(path).stem, assignment=assignment,
                       min_group_size=min_group_size)


def save_field_scheme(scheme: FieldScheme, path: str | Path) -> None:
    rows = [[jid, scheme.assignment[jid]] for jid in sorted(scheme.assignment)]
    write_rows(path, ["journal_id", "field"], rows)


def scheme_from_journals(journals: JournalTable, min_group_size: int = 10
                         ) -> FieldScheme:
    return FieldScheme(name="journal-table",
                       assignment={j.journal_id: j.field_code for j in journals},
                       min_group_size=min_group_size)


@dataclass
class VarCompResult:
    indicator_id: str
    sigma2_between: float
    sigma2_within: float
    eta2: float
    perm_p: float = float("nan")
    groups_used: int = 0
    n_journals: int = 0
    excluded_fields: list[str] = field(default_factory=list)
    dispersion_by_field: dict[str, float] = field(default_factory=dict)


def _check_pair(x: Sequence[float], y: Sequence[float]
                ) -> tuple[np.ndarray, np.ndarray]:
    xa = np.asarray(x, dtype=np.float64)
    ya = np.asarray(y, dtype=np.float64)
    if xa.ndim != 1 or ya.ndim != 1 or xa.size != ya.size:
        raise StatsError("inputs must be 1-d sequences of equal length")
    if xa.size < 3:
        raise StatsError("need at least 3 observations")
    return xa, ya


def pearson(x: Sequence[float], y: Sequence[float]) -> float:
    """Product-moment correlation; zero variance on either side is an error
    (undefined, reported rather than propagated as NaN)."""
    xa, ya = _check_pair(x, y)
    dx = xa - xa.mean()
    dy = ya - ya.mean()
    sxx = float(dx @ dx)
    syy = float(dy @ dy)
    if sxx == 0.0 or syy == 0.0:
        raise StatsError("correlation undefined: zero variance")
    return float(dx @ dy) / math.sqrt(sxx * syy)


def average_ranks(x: Sequence[float]) -> np.ndarray:
    """Ranks 1..n with tied values receiving their average rank."""
    xa = np.asarray(x, dtype=np.float64)
    order = np.argsort(xa, kind="stable")
    xs = xa[order]
    # a run of equal values starts where a value differs from the one
    # before; NaN differs from everything, so each NaN is its own run
    new_run = np.ones(xa.size, dtype=bool)
    new_run[1:] = xs[1:] != xs[:-1]
    starts = np.flatnonzero(new_run)
    lengths = np.diff(np.r_[starts, xa.size])
    ranks = np.empty(xa.size, dtype=np.float64)
    # run [i, j] gets (i + j) / 2 + 1 with j = i + length - 1
    ranks[order] = np.repeat((2 * starts + lengths - 1) / 2.0 + 1.0, lengths)
    return ranks


def spearman(x: Sequence[float], y: Sequence[float]) -> float:
    """Rank-order correlation: Pearson applied to average ranks."""
    xa, ya = _check_pair(x, y)
    return pearson(average_ranks(xa), average_ranks(ya))


@dataclass
class CorrelationMatrix:
    """Square matrix with rank-order correlations in the upper triangle and
    product-moment correlations in the lower one; the diagonal is empty."""

    ids: list[str]
    matrix: np.ndarray
    n_journals: int
    undefined_pairs: list[tuple[str, str]] = field(default_factory=list)

    def to_tsv(self, path: str | Path) -> None:
        rows = []
        for i, rid in enumerate(self.ids):
            row = [rid]
            for j in range(len(self.ids)):
                v = self.matrix[i, j]
                row.append("" if np.isnan(v) else f"{v:.4f}")
            rows.append(row)
        write_rows(path, ["indicator_id"] + list(self.ids), rows,
                   preamble=[f"n_journals\t{self.n_journals}",
                             "upper triangle: rank-order (Spearman); "
                             "lower triangle: product-moment (Pearson)"])


def correlation_matrix(tables: list[IndicatorTable]) -> CorrelationMatrix:
    """Pairwise correlations over the journals common to all tables."""
    if len(tables) < 2:
        raise StatsError("need at least two indicator tables")
    common = set(tables[0].values)
    for t in tables[1:]:
        common &= set(t.values)
    if len(common) < 3:
        raise StatsError(
            f"only {len(common)} journals shared by all tables; need >= 3")
    ids = sorted(common)
    data = [np.array([t.values[j] for j in ids]) for t in tables]
    k = len(tables)
    matrix = np.full((k, k), np.nan)
    undefined = []
    for i in range(k):
        for j in range(i + 1, k):
            try:
                matrix[i, j] = spearman(data[i], data[j])
                matrix[j, i] = pearson(data[i], data[j])
            except StatsError:
                undefined.append((tables[i].indicator_id, tables[j].indicator_id))
    return CorrelationMatrix(ids=[t.indicator_id for t in tables],
                             matrix=matrix, n_journals=len(ids),
                             undefined_pairs=undefined)


def _ss_between(sizes: np.ndarray, sums: np.ndarray, mean: float) -> float:
    return float((sizes * (sums / sizes - mean) ** 2).sum())


def _one_way(values: dict[str, float], scheme: FieldScheme) -> tuple:
    """Group a value map by field and split its sum of squares: (values,
    integer labels, retained fields, excluded fields, SS_between, SS_total,
    group sizes)."""
    v, g, retained, excluded = scheme.group_arrays(values)
    k = len(retained)
    if k < 2:
        raise StatsError("need at least 2 retained fields")
    sizes = np.bincount(g, minlength=k).astype(np.float64)
    sums = np.bincount(g, weights=v, minlength=k)
    mean = v.mean()
    ss_total = float(((v - mean) ** 2).sum())
    return (v, g, retained, excluded, _ss_between(sizes, sums, mean), ss_total,
            sizes)


def _eta2(ss_between: float, ss_total: float) -> float:
    """SS_between / SS_total, or 0 when SS_total is 0."""
    return ss_between / ss_total if ss_total > 0 else 0.0


def varcomp_moments(values: dict[str, float], scheme: FieldScheme,
                    indicator_id: str = "") -> VarCompResult:
    """One-way random-effects variance components by the method of moments.

    sigma2_within is the within-field mean square; sigma2_between is
    (MS_between - MS_within) / n0 clamped at zero, with
    n0 = (N - sum(n_i^2)/N) / (k - 1).
    """
    v, g, retained, excluded, ss_between, ss_total, sizes = _one_way(values,
                                                                     scheme)
    k, n_total = len(retained), v.size
    n0 = (n_total - float((sizes ** 2).sum()) / n_total) / (k - 1)
    ms_within = (ss_total - ss_between) / (n_total - k)

    dispersion: dict[str, float] = {}
    for i, code in enumerate(retained):
        group = v[g == i]
        mean = float(group.mean())
        var = float(group.var(ddof=1)) if group.size > 1 else 0.0
        dispersion[code] = var / mean if mean != 0.0 else float("nan")

    return VarCompResult(
        indicator_id=indicator_id,
        sigma2_between=max(0.0, (ss_between / (k - 1) - ms_within) / n0),
        sigma2_within=ms_within, eta2=_eta2(ss_between, ss_total),
        groups_used=k, n_journals=n_total, excluded_fields=excluded,
        dispersion_by_field=dispersion)


def _perm_block(tables: list[tuple], seed: int, first: int, stop: int
                ) -> list[int]:
    """Per-table exceedance counts over permutations ``first..stop-1``;
    permutation i draws from child i of the ``seed`` seed sequence."""
    lengths = {v.size for v, *_ in tables}
    exceed = [0] * len(tables)
    for i in range(first, stop):
        child = np.random.SeedSequence(seed, spawn_key=(i,))
        orders = {n: np.random.default_rng(child).permutation(n)
                  for n in lengths}
        for t, (v, g, k, sizes, mean, ss_total, observed) in enumerate(tables):
            sums = np.bincount(g[orders[v.size]], weights=v, minlength=k)
            if _eta2(_ss_between(sizes, sums, mean), ss_total) >= observed:
                exceed[t] += 1
    return exceed


def permutation_test(value_maps: Sequence[dict[str, float]],
                     scheme: FieldScheme, n_perm: int = 999, seed: int = 0,
                     threads: int = 1) -> list[float]:
    """Right-tailed label-permutation p-value of eta2 for the field effect
    of each value map, in input order.

    Field labels are shuffled uniformly; permutation i of a table with n
    journals draws from seed-sequence child i, so a map's p-value does not
    depend on the other maps. A shuffle's swaps depend on n alone, so one
    draw of n positions per child serves every table of that size. The
    permutations are cut into at most ``threads`` contiguous blocks, each
    run by its own process when there is enough work; their exceedance
    counts are summed, so the p-values do not depend on ``threads``.
    """
    if n_perm < 999:
        raise StatsError("n_perm must be at least 999")
    if threads < 1:
        raise StatsError(f"threads {threads} must be >= 1")
    tables = []
    for values in value_maps:
        v, g, retained, _, ss_between, ss_total, sizes = _one_way(values,
                                                                  scheme)
        tables.append((v, g, len(retained), sizes, v.mean(), ss_total,
                       _eta2(ss_between, ss_total)))

    work = n_perm * sum(v.size for v, *_ in tables)
    blocks = max(1, min(threads, work // _MIN_PERM_WORK))
    cuts = [n_perm * b // blocks for b in range(blocks + 1)]
    jobs = [(tables, seed, first, stop) for first, stop in zip(cuts, cuts[1:])]
    counts = run_forked(_perm_block, jobs, "a permutation process")
    return [(1 + sum(c)) / (n_perm + 1) for c in zip(*counts)]


def analyze_indicators(tables: Sequence[IndicatorTable], scheme: FieldScheme,
                       n_perm: int = 999, seed: int = 0, threads: int = 1
                       ) -> list[VarCompResult]:
    """Variance components plus permutation significance for each
    indicator, in input order; ``threads`` bounds the processes of the
    permutation test."""
    results = [varcomp_moments(t.values, scheme, indicator_id=t.indicator_id)
               for t in tables]
    p_values = permutation_test([t.values for t in tables], scheme,
                                n_perm=n_perm, seed=seed, threads=threads)
    for result, p in zip(results, p_values):
        result.perm_p = p
    return results


def variance_reduction(reference: VarCompResult, alternative: VarCompResult
                       ) -> float:
    """Relative drop of the between-field component versus a reference;
    negative when the alternative is worse."""
    if reference.sigma2_between == 0.0:
        raise StatsError("variance reduction undefined: reference component is 0")
    return ((reference.sigma2_between - alternative.sigma2_between)
            / reference.sigma2_between)


def ks_normality(values: Sequence[float]) -> float:
    """One-sample Kolmogorov-Smirnov statistic against a normal fitted with
    the sample's mean and (ddof=1) variance. A screen only: no p-value."""
    v = np.sort(np.asarray(values, dtype=np.float64))
    n = v.size
    if n < 5:
        raise StatsError("need at least 5 observations")
    sd = float(v.std(ddof=1))
    if sd == 0.0:
        raise StatsError("normality screen undefined: zero variance")
    z = (v - v.mean()) / sd
    cdf = np.array([0.5 * (1.0 + math.erf(x / math.sqrt(2.0))) for x in z])
    i = np.arange(1, n + 1)
    d_plus = float((i / n - cdf).max())
    d_minus = float((cdf - (i - 1) / n).max())
    return max(d_plus, d_minus)
