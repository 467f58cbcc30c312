import math

import numpy as np
import pytest
import scipy.stats

from jifnorm.indicators import IndicatorTable
from jifnorm.stats import (FieldScheme, StatsError, VarCompResult,
                           analyze_indicators, average_ranks,
                           correlation_matrix, ks_normality,
                           pearson, permutation_test, spearman,
                           varcomp_moments, variance_reduction)


# --- direct-formula reference implementations (deliberately naive) ---------

def brute_pearson(x, y):
    n = len(x)
    mx = sum(x) / n
    my = sum(y) / n
    sxy = sum((a - mx) * (b - my) for a, b in zip(x, y))
    sxx = sum((a - mx) ** 2 for a in x)
    syy = sum((b - my) ** 2 for b in y)
    return sxy / math.sqrt(sxx * syy)


def brute_ranks(x):
    ranks = [0.0] * len(x)
    for value in set(x):
        positions = [i for i, v in enumerate(x) if v == value]
        natural = [sum(1 for w in x if w < value) + 1 + k
                   for k in range(len(positions))]
        mean_rank = sum(natural) / len(natural)
        for i in positions:
            ranks[i] = mean_rank
    return ranks


def brute_spearman(x, y):
    return brute_pearson(brute_ranks(list(x)), brute_ranks(list(y)))


def brute_eta2(values, groups):
    n = len(values)
    mean = sum(values) / n
    by_group = {}
    for v, g in zip(values, groups):
        by_group.setdefault(g, []).append(v)
    ss_between = sum(len(vs) * (sum(vs) / len(vs) - mean) ** 2
                     for vs in by_group.values())
    ss_total = sum((v - mean) ** 2 for v in values)
    return ss_between / ss_total


def brute_varcomp(values, groups):
    n = len(values)
    by_group = {}
    for v, g in zip(values, groups):
        by_group.setdefault(g, []).append(v)
    k = len(by_group)
    mean = sum(values) / n
    ss_between = sum(len(vs) * (sum(vs) / len(vs) - mean) ** 2
                     for vs in by_group.values())
    ss_within = sum((v - sum(vs) / len(vs)) ** 2
                    for vs in by_group.values() for v in vs)
    ms_within = ss_within / (n - k)
    ms_between = ss_between / (k - 1)
    n0 = (n - sum(len(vs) ** 2 for vs in by_group.values()) / n) / (k - 1)
    return max(0.0, (ms_between - ms_within) / n0), ms_within


def loop_average_ranks(x):
    """Run-by-run average ranks: the loop that ``average_ranks`` replaced."""
    xa = np.asarray(x, dtype=np.float64)
    order = np.argsort(xa, kind="stable")
    xs = xa[order]
    ranks = np.empty(xa.size, dtype=np.float64)
    i = 0
    while i < xa.size:
        j = i
        while j + 1 < xa.size and xs[j + 1] == xs[i]:
            j += 1
        ranks[order[i:j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def loop_permutation_p(values, scheme, n_perm, seed):
    """One table at a time, eta2 recomputed from scratch for every draw,
    where draw i shuffles n rounded up to a multiple of 256 positions with
    a generator made from child i and keeps those below n, in order."""
    grouped = scheme.group(values)
    v, g, k = grouped.values, grouped.labels, len(grouped.retained)
    sizes = np.bincount(g, minlength=k).astype(np.float64)
    mean = v.mean()
    ss_total = float(((v - mean) ** 2).sum())

    def stat(labels):
        sums = np.bincount(labels, weights=v, minlength=k)
        ss_between = float((sizes * (sums / sizes - mean) ** 2).sum())
        return ss_between / ss_total if ss_total > 0 else 0.0

    observed = stat(g)
    m = -(-v.size // 256) * 256
    exceed = 0
    for child in np.random.SeedSequence(seed).spawn(n_perm):
        order = np.random.default_rng(child).permutation(m)
        if stat(g[order[order < v.size]]) >= observed:
            exceed += 1
    return (1 + exceed) / (n_perm + 1)


def _scheme(groups, min_group_size=1):
    return FieldScheme({f"J{i:04d}": g for i, g in enumerate(groups)},
                       min_group_size=min_group_size)


def _values(seq):
    return {f"J{i:04d}": float(v) for i, v in enumerate(seq)}


# --- pearson / spearman -----------------------------------------------------

def test_pearson_perfect_linear():
    x = [1.0, 2.0, 3.0, 4.0]
    assert pearson(x, [2 * v + 1 for v in x]) == pytest.approx(1.0)
    assert pearson(x, [-v for v in x]) == pytest.approx(-1.0)


def test_pearson_zero_variance_reported():
    with pytest.raises(StatsError):
        pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])


def test_spearman_monotone_and_reversed():
    x = [3.0, 1.0, 10.0, 4.0]
    assert spearman(x, [math.exp(v) for v in x]) == pytest.approx(1.0)
    assert spearman(x, [-v ** 3 for v in x]) == pytest.approx(-1.0)


def test_spearman_tied_sample_hand_ranking():
    # x ranks: [1, 2.5, 2.5, 4]; y ranks: [1, 3, 2, 4]
    x = [1.0, 2.0, 2.0, 3.0]
    y = [1.0, 3.0, 2.0, 4.0]
    expected = brute_pearson([1, 2.5, 2.5, 4], [1, 3, 2, 4])
    assert spearman(x, y) == pytest.approx(expected, abs=1e-12)
    assert spearman(x, y) == pytest.approx(
        scipy.stats.spearmanr(x, y).statistic, abs=1e-12)


def test_correlations_match_brute_force_200_instances():
    rng = np.random.default_rng(202)
    for i in range(200):
        n = int(rng.integers(5, 40))
        x = rng.normal(size=n)
        y = rng.normal(size=n) + 0.5 * x
        if i % 3 == 0:   # inject ties
            x = np.round(x, 1)
            y = np.round(y, 1)
        assert abs(pearson(x, y) - brute_pearson(list(x), list(y))) < 1e-10
        assert abs(spearman(x, y) - brute_spearman(list(x), list(y))) < 1e-10


def test_average_ranks_against_scipy():
    rng = np.random.default_rng(5)
    for _ in range(20):
        x = np.round(rng.normal(size=30), 1)
        assert np.allclose(average_ranks(x), scipy.stats.rankdata(x))


def test_average_ranks_equals_loop_oracle():
    rng = np.random.default_rng(17)
    cases = [np.array([]), np.array([3.5]), np.array([np.nan]),
             np.array([np.nan, np.nan, 1.0, 1.0]), np.array([2.0, -0.0, 0.0])]
    for _ in range(200):
        n = int(rng.integers(1, 80))
        x = rng.integers(0, int(rng.integers(1, 6)), size=n).astype(np.float64)
        if rng.random() < 0.5:
            x[rng.random(n) < 0.2] = np.nan
        cases.append(x)
    cases.append(np.round(rng.normal(size=5000), 1))
    for x in cases:
        got = average_ranks(x)
        want = loop_average_ranks(x)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)


# --- correlation matrix ------------------------------------------------------

def test_matrix_identical_tables():
    t = IndicatorTable("A", _values([1, 2, 3, 4, 5]))
    u = IndicatorTable("B", dict(t.values))
    m = correlation_matrix([t, u])
    assert m.matrix[0, 1] == pytest.approx(1.0)   # upper: rank-order
    assert m.matrix[1, 0] == pytest.approx(1.0)   # lower: product-moment
    assert math.isnan(m.matrix[0, 0])


def test_matrix_monotone_transform():
    base = _values([1, 2, 3, 4, 10])
    t = IndicatorTable("A", base)
    u = IndicatorTable("B", {j: math.exp(v) for j, v in base.items()})
    m = correlation_matrix([t, u])
    assert m.matrix[0, 1] == pytest.approx(1.0)
    assert m.matrix[1, 0] < 1.0


def test_matrix_compositional_oracle():
    rng = np.random.default_rng(9)
    tables = [IndicatorTable(name, _values(rng.normal(size=25)))
              for name in ("A", "B", "C")]
    m = correlation_matrix(tables)
    for i in range(3):
        for j in range(3):
            if i == j:
                continue
            x = [tables[i].values[k] for k in sorted(tables[i].values)]
            y = [tables[j].values[k] for k in sorted(tables[j].values)]
            expected = spearman(x, y) if i < j else pearson(x, y)
            assert m.matrix[i, j] == pytest.approx(expected, abs=1e-12)


def test_matrix_equals_per_pair_spearman_and_pearson():
    """Ranking each table once gives the very floats of ranking it for
    every pair, over tied, untied and constant tables."""
    rng = np.random.default_rng(31)
    maps = [_values(rng.normal(size=40)),
            _values(np.round(rng.normal(size=40), 1)),
            _values(rng.integers(1, 7, size=40)),
            _values(np.exp(rng.normal(size=40))),
            _values([2.0] * 40)]
    maps[1].pop("J0007")
    tables = [IndicatorTable(f"T{i}", m) for i, m in enumerate(maps)]
    m = correlation_matrix(tables)
    ids = sorted(set(maps[0]) - {"J0007"})
    data = [[t.values[j] for j in ids] for t in tables]
    assert m.n_journals == len(ids) == 39
    for i in range(5):
        for j in range(i + 1, 5):
            if 4 in (i, j):
                assert math.isnan(m.matrix[i, j])
                assert math.isnan(m.matrix[j, i])
                continue
            assert m.matrix[i, j] == spearman(data[i], data[j])
            assert m.matrix[j, i] == pearson(data[i], data[j])
    assert m.undefined_pairs == [(f"T{i}", "T4") for i in range(4)]


def test_matrix_intersection_and_degenerate():
    t = IndicatorTable("A", _values([1, 2, 3, 4]))
    u = IndicatorTable("B", _values([1, 1, 1, 1]))
    m = correlation_matrix([t, u])
    assert m.undefined_pairs == [("A", "B")]
    small = IndicatorTable("C", {"J0000": 1.0, "J0001": 2.0})
    with pytest.raises(StatsError):
        correlation_matrix([t, small])


# --- eta squared / variance components ---------------------------------------

def test_eta2_extremes():
    equal_means = _values([1.0, 2.0, 3.0, 1.0, 2.0, 3.0])
    assert varcomp_moments(_scheme(list("AAABBB")).group(
        equal_means)).eta2 == pytest.approx(0.0)
    separated = _values([1.0, 1.0, 5.0, 5.0])
    assert varcomp_moments(_scheme(list("AABB")).group(
        separated)).eta2 == pytest.approx(1.0)


def test_eta2_three_group_oracle():
    rng = np.random.default_rng(17)
    values = rng.normal(size=30)
    groups = list("ABC") * 10
    got = varcomp_moments(_scheme(groups).group(_values(values))).eta2
    assert got == pytest.approx(brute_eta2(list(values), groups), abs=1e-12)


def test_varcomp_matches_brute_force_200_instances():
    rng = np.random.default_rng(404)
    for _ in range(200):
        k = int(rng.integers(2, 6))
        sizes = rng.integers(3, 12, size=k)
        values, groups = [], []
        for g in range(k):
            effect = rng.normal(scale=1.0)
            values.extend(rng.normal(loc=effect, size=sizes[g]))
            groups.extend([f"G{g}"] * sizes[g])
        result = varcomp_moments(_scheme(groups).group(_values(values)))
        b_between, b_within = brute_varcomp(values, groups)
        assert abs(result.sigma2_between - b_between) < 1e-10
        assert abs(result.sigma2_within - b_within) < 1e-10
        assert abs(result.eta2 - brute_eta2(values, groups)) < 1e-10


def test_varcomp_identical_values():
    result = varcomp_moments(_scheme(list("AB") * 10).group(
        _values([2.0] * 20)))
    assert result.sigma2_between == 0.0
    assert result.sigma2_within == 0.0


def test_varcomp_clamps_negative_between():
    # group means equal, all variance within -> MS_between < MS_within
    values = _values([0.0, 1.0, 0.0, 1.0, 0.5, 0.5])
    result = varcomp_moments(_scheme(list("AABBCC")).group(values))
    assert result.sigma2_between == 0.0


def test_varcomp_recovers_planted_component():
    rng = np.random.default_rng(2024)
    k, n = 11, 300
    values, groups = [], []
    for g in range(k):
        effect = rng.normal(scale=1.0)
        values.extend(rng.normal(loc=effect, scale=1.0, size=n))
        groups.extend([f"G{g:02d}"] * n)
    result = varcomp_moments(_scheme(groups).group(_values(values)))
    assert abs(result.sigma2_between - 1.0) <= 0.15
    assert abs(result.sigma2_within - 1.0) <= 0.05


def test_varcomp_single_group_fatal():
    with pytest.raises(StatsError):
        varcomp_moments(_scheme(list("AAA")).group(_values([1, 2, 3])))


def test_varcomp_one_journal_per_field_fatal():
    """With no more journals than fields there is no within-field degree
    of freedom: a StatsError, not a ZeroDivisionError."""
    scheme = FieldScheme({"J01": "A", "J02": "B", "J03": "C"},
                         min_group_size=1)
    with pytest.raises(StatsError, match="3 journals in 3 retained fields"):
        varcomp_moments(scheme.group({"J01": 1.0, "J02": 2.0, "J03": 4.0}))


def test_min_group_size_filter():
    values = _values(range(25))
    groups = ["A"] * 12 + ["B"] * 11 + ["C"] * 2
    scheme = _scheme(groups, min_group_size=10)
    result = varcomp_moments(scheme.group(values))
    assert result.groups_used == 2
    assert result.excluded_fields == ["C"]
    assert result.n_journals == 23
    assert set(result.dispersion_by_field) == {"A", "B"}


def test_dispersion_by_field_is_var_over_mean():
    values = _values([1.0, 2.0, 3.0, 10.0, 20.0, 30.0])
    result = varcomp_moments(_scheme(list("AAABBB")).group(values))
    assert result.dispersion_by_field["A"] == pytest.approx(1.0 / 2.0)
    assert result.dispersion_by_field["B"] == pytest.approx(100.0 / 20.0)


def test_dispersion_undefined_for_one_journal_or_zero_mean():
    """A field of one journal has no sample variance, and a field of mean
    0 no ratio: both read NaN, not a number."""
    values = _values([1.0, 2.0, 3.0, -1.0, 1.0, 0.0, 7.0])
    result = varcomp_moments(_scheme(list("AAABBBC")).group(values))
    assert result.dispersion_by_field["A"] == pytest.approx(1.0 / 2.0)
    assert math.isnan(result.dispersion_by_field["B"])
    assert math.isnan(result.dispersion_by_field["C"])


# --- permutation test --------------------------------------------------------

def test_permutation_perfect_separation():
    values = _values([0.0, 0.1, 0.05, 10.0, 10.1, 10.05] * 3)
    groups = (["A"] * 3 + ["B"] * 3) * 3
    p = permutation_test([_scheme(groups).group(values)], n_perm=999,
                         seed=1)[0]
    assert p == pytest.approx(1.0 / 1000.0)


def test_permutation_null_is_insignificant():
    rng = np.random.default_rng(88)
    values = _values(rng.normal(size=120))
    groups = [f"G{i % 4}" for i in range(120)]
    p = permutation_test([_scheme(groups).group(values)], n_perm=999,
                         seed=5)[0]
    assert p > 0.05


def test_permutation_determinism_and_thread_independence():
    rng = np.random.default_rng(13)
    values = _values(rng.normal(size=60))
    groups = [f"G{i % 3}" for i in range(60)]
    scheme = _scheme(groups)
    p1 = permutation_test([scheme.group(values)], n_perm=999, seed=42)[0]
    p2 = permutation_test([scheme.group(values)], n_perm=999, seed=42)[0]
    assert p1 == p2
    assert permutation_test([scheme.group(values)], n_perm=999,
                            seed=43)[0] != p1


def test_permutation_requires_999():
    with pytest.raises(StatsError):
        permutation_test([_scheme(list("AABB")).group(_values([1, 2, 3, 4]))],
                         n_perm=99)


@pytest.mark.parametrize("dtype", [np.int8, np.int64])
def test_shuffle_swaps_depend_on_length_only(dtype):
    """The numpy property that lets the test draw positions, not labels:
    permuting an array equals indexing it with a permutation of its
    positions drawn from the same child. So a draw depends on its length
    alone, and one draw of m positions serves every table of its size
    class."""
    children = np.random.SeedSequence(2024).spawn(5)
    rng = np.random.default_rng(3)
    for n in (1, 2, 7, 100, 3705):
        g = rng.integers(0, 11, size=n).astype(dtype)
        for child in children:
            shuffled = np.random.default_rng(child).permutation(g)
            order = np.random.default_rng(child).permutation(n)
            assert shuffled.dtype == g.dtype
            assert np.array_equal(shuffled, g[order])


def test_positions_below_n_of_a_class_shuffle_are_uniform():
    """The positions below n of a shuffle of 256, in their shuffled order,
    are a uniformly random order of n: each of the n! orders appears, and
    their counts pass a chi-square test."""
    draws = 6000
    counts = {n: {} for n in (3, 4, 5)}
    for child in np.random.SeedSequence(77).spawn(draws):
        order = np.random.default_rng(child).permutation(256)
        for n, seen in counts.items():
            key = tuple(order[order < n].tolist())
            seen[key] = seen.get(key, 0) + 1
    for n, seen in counts.items():
        cells = math.factorial(n)
        assert len(seen) == cells
        expected = draws / cells
        chi2 = sum((c - expected) ** 2 / expected for c in seen.values())
        assert chi2 < scipy.stats.chi2.isf(1e-4, cells - 1)


def _mixed_size_maps():
    """Tables of several sizes over one 300-journal, 4-field scheme that
    drops fields of fewer than 10 journals: real values, PR6-like integer
    classes with heavy ties, and subsets with undefined journals left out.
    Their sizes fall on both sides of 256, in two size classes, and one
    subset keeps too few journals of a field, so it has 3 fields."""
    rng = np.random.default_rng(91)
    groups = [f"G{i % 4}" for i in range(300)]
    shift = np.array([0.0, 0.3, 0.6, 0.9])[np.arange(64) % 4]
    full = _values(rng.normal(size=64) + shift)
    pr6 = _values(np.clip(np.round(rng.normal(3.5, 1.2, 64) + shift), 1, 6))
    pr6_null = _values(rng.integers(1, 7, size=64))
    subset = {j: v for j, v in full.items() if int(j[1:]) % 5}
    pr6_subset = {j: v for j, v in pr6.items() if int(j[1:]) % 3}
    wide = _values(rng.normal(size=300) + 0.15 * (np.arange(300) % 4))
    edge = {j: v for j, v in wide.items() if int(j[1:]) < 256}
    past = {j: v for j, v in wide.items() if int(j[1:]) < 257}
    past_pr6 = {j: float(np.clip(round(2 * v + 3.5), 1, 6))
                for j, v in past.items()}
    thin = {j: v for j, v in full.items()
            if int(j[1:]) % 4 != 3 or int(j[1:]) < 20}
    return (_scheme(groups, min_group_size=10),
            [full, pr6, subset, pr6_null, pr6_subset, dict(subset), wide,
             edge, past, past_pr6, thin])


def test_shared_draws_equal_per_table_loop():
    scheme, maps = _mixed_size_maps()
    assert len({len(m) for m in maps}) == 7
    assert {-(-len(m) // 256) for m in maps} == {1, 2}
    assert {len(scheme.group(m).retained) for m in maps} == {3, 4}
    got = permutation_test([scheme.group(m) for m in maps], 999, seed=8)
    want = [loop_permutation_p(m, scheme, 999, 8) for m in maps]
    assert got == want
    assert len(set(want)) > 2


def test_joint_call_equals_one_call_per_table_in_any_order():
    scheme, maps = _mixed_size_maps()
    alone = [permutation_test([scheme.group(m)], seed=21)[0] for m in maps]
    rng = np.random.default_rng(4)
    for _ in range(3):
        order = rng.permutation(len(maps))
        joint = permutation_test([scheme.group(maps[i]) for i in order],
                                 seed=21)
        assert joint == [alone[i] for i in order]
    assert permutation_test([], seed=21) == []


# --- variance reduction -------------------------------------------------------

def _vc(sigma2_between):
    return VarCompResult("X", sigma2_between, 1.0, 0.5)


def test_variance_reduction_reference_values():
    assert variance_reduction(_vc(0.24), _vc(0.02)) == pytest.approx(
        0.22 / 0.24, abs=5e-5)
    assert variance_reduction(_vc(0.24), _vc(0.02)) == pytest.approx(
        0.917, abs=5e-4)
    assert variance_reduction(_vc(0.24), _vc(0.05)) == pytest.approx(
        0.7917, abs=5e-5)
    assert variance_reduction(_vc(0.3), _vc(0.3)) == 0.0
    assert variance_reduction(_vc(0.1), _vc(0.2)) < 0.0


def test_variance_reduction_zero_reference_undefined():
    with pytest.raises(StatsError):
        variance_reduction(_vc(0.0), _vc(0.1))


# --- invariances ---------------------------------------------------------------

def test_spearman_invariant_under_monotone_transforms():
    rng = np.random.default_rng(23)
    x = rng.normal(size=50)
    y = rng.normal(size=50) + x
    base = spearman(x, y)
    assert spearman(np.exp(x), y) == base
    assert spearman(x, 5.0 * y + 2.0) == base


def test_pearson_invariant_under_positive_affine():
    rng = np.random.default_rng(29)
    x = rng.normal(size=50)
    y = rng.normal(size=50) + x
    base = pearson(x, y)
    assert pearson(2.0 * x + 3.0, y) == pytest.approx(base, abs=1e-12)
    assert pearson(x, 0.5 * y - 7.0) == pytest.approx(base, abs=1e-12)


def test_field_effect_measures_affine_invariance():
    rng = np.random.default_rng(37)
    values = rng.normal(size=60) + np.repeat([0.0, 1.0, 2.0], 20)
    groups = [f"G{i}" for i in range(3) for _ in range(20)]
    scheme = _scheme(groups)
    base_eta = varcomp_moments(scheme.group(_values(values))).eta2
    base_vc = varcomp_moments(scheme.group(_values(values)))
    base_p = permutation_test([scheme.group(_values(values))], seed=3)[0]

    shifted = _values(values + 100.0)
    assert varcomp_moments(scheme.group(shifted)).eta2 == pytest.approx(
        base_eta, abs=1e-12)
    assert varcomp_moments(scheme.group(shifted)).sigma2_between == (
        pytest.approx(base_vc.sigma2_between, abs=1e-10))

    scaled = _values(4.0 * values - 9.0)
    assert varcomp_moments(scheme.group(scaled)).eta2 == pytest.approx(
        base_eta, abs=1e-12)
    assert varcomp_moments(scheme.group(scaled)).sigma2_between == (
        pytest.approx(16.0 * base_vc.sigma2_between, rel=1e-10))
    assert permutation_test([scheme.group(scaled)], seed=3)[0] == base_p

    # reductions computed after transforming both tables are unchanged
    alt = rng.normal(size=60) + np.repeat([0.0, 0.5, 1.0], 20)
    vc_alt = varcomp_moments(scheme.group(_values(alt)))
    base_red = variance_reduction(base_vc, vc_alt)
    vc_alt_scaled = varcomp_moments(scheme.group(_values(4.0 * alt - 9.0)))
    vc_scaled = varcomp_moments(scheme.group(scaled))
    assert variance_reduction(vc_scaled, vc_alt_scaled) == pytest.approx(
        base_red, rel=1e-10)


# --- normality screen -----------------------------------------------------------

def test_ks_small_on_normal_quantile_sample():
    n = 400
    sample = scipy.stats.norm.ppf((np.arange(1, n + 1)) / (n + 1))
    assert ks_normality(sample) < 2.0 / math.sqrt(n)


def test_ks_large_on_skewed_sample():
    rng = np.random.default_rng(61)
    n = 1000
    sample = np.exp(rng.normal(size=n))
    assert ks_normality(sample) > 2.0 / math.sqrt(n)


def test_ks_hand_computation_on_minimal_sample():
    # smallest admissible sample; gaps written out one by one
    sample = [0.0, 0.0, 0.0, 1.0, 1.0]
    mean = 0.4
    sd = math.sqrt(0.3)
    phi = lambda x: 0.5 * (1.0 + math.erf(((x - mean) / sd) / math.sqrt(2.0)))
    gaps = []
    for i, x in enumerate(sorted(sample), start=1):
        gaps.append(i / 5.0 - phi(x))
        gaps.append(phi(x) - (i - 1) / 5.0)
    assert ks_normality(sample) == pytest.approx(max(gaps), abs=1e-15)
    assert ks_normality(sample) == pytest.approx(0.3674, abs=5e-4)


def test_ks_matches_scipy():
    rng = np.random.default_rng(71)
    sample = rng.normal(size=500)
    expected = scipy.stats.kstest(
        sample, "norm", args=(sample.mean(), sample.std(ddof=1))).statistic
    assert ks_normality(sample) == pytest.approx(expected, abs=1e-12)


def test_ks_guards():
    with pytest.raises(StatsError):
        ks_normality([1.0, 2.0, 3.0])
    with pytest.raises(StatsError):
        ks_normality([1.0] * 10)


def test_analyze_indicators_groups_each_table_once(monkeypatch):
    """One grouping per table serves both the moments and the one
    permutation test: the results equal those of the two calls made
    per table and on all tables."""
    scheme, maps = _mixed_size_maps()
    tables = [IndicatorTable(f"T{i}", m) for i, m in enumerate(maps)]
    want = [varcomp_moments(scheme.group(m), indicator_id=t.indicator_id)
            for m, t in zip(maps, tables)]
    p_values = permutation_test([scheme.group(m) for m in maps], seed=6)
    for result, p in zip(want, p_values):
        result.perm_p = p
    grouped = []
    real = FieldScheme.group

    def group(self, values):
        grouped.append(values)
        return real(self, values)

    monkeypatch.setattr(FieldScheme, "group", group)
    assert analyze_indicators(tables, scheme, seed=6) == want
    assert grouped == maps


def test_analyze_indicator_fills_everything(merged_fixture):
    table = IndicatorTable("X", _values(np.arange(40.0)))
    scheme = _scheme([f"G{i % 2}" for i in range(40)])
    [result] = analyze_indicators([table], scheme, n_perm=999, seed=0)
    assert result.indicator_id == "X"
    assert 0.0 < result.perm_p <= 1.0
    assert result.groups_used == 2
