import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from jifnorm.indicators import IndicatorTable
from jifnorm.percentile import (PR6_THRESHOLDS, PercentileError,
                                _pr6_classes, build_percentiles,
                                percentile_rank, pr6_class, top_share)

from _oracle import pr100 as oracle_pr100, pr6 as oracle_pr6


def _values(seq):
    return {f"J{i:04d}": float(v) for i, v in enumerate(seq)}


def test_counting_rule_with_ties():
    pr = percentile_rank(_values([10, 20, 20, 30]))
    assert [pr[j] for j in sorted(pr)] == [0.0, 25.0, 25.0, 75.0]


def test_all_equal_values_rank_zero():
    pr = percentile_rank(_values([7, 7, 7]))
    assert set(pr.values()) == {0.0}


def test_empty_population_is_fatal():
    with pytest.raises(PercentileError):
        percentile_rank({})


def test_non_finite_rejected():
    with pytest.raises(PercentileError):
        percentile_rank(_values([1.0, float("nan")]))


def test_mean_percentile_for_distinct_values():
    rng = np.random.default_rng(42)
    values = _values(rng.random(3705))
    assert len(set(values.values())) == 3705
    pr = percentile_rank(values)
    mean = sum(pr.values()) / len(pr)
    assert mean == pytest.approx(50.0 * 3704 / 3705, abs=1e-9)
    assert 49.9 < mean < 50.0


@pytest.mark.parametrize("p,cls", [
    (99.2, 6), (99.0, 6), (98.99, 5), (95.0, 5), (94.99, 4), (90.0, 4),
    (89.99, 3), (75.0, 3), (74.99, 2), (50.0, 2), (49.99, 1), (0.0, 1)])
def test_pr6_thresholds(p, cls):
    assert pr6_class(p) == cls


def test_pr6_is_nondecreasing_step_function():
    grid = np.linspace(0.0, 99.99, 5000)
    classes = [pr6_class(p) for p in grid]
    assert classes == sorted(classes)
    assert set(classes) == {1, 2, 3, 4, 5, 6}


def test_top_share_sizes_for_large_distinct_population():
    rng = np.random.default_rng(7)
    pr = percentile_rank(_values(rng.random(3705)))
    assert len(top_share(pr, 99.0)) == 37
    assert len(top_share(pr, 0.0)) == 3705


def test_top_share_small_enumeration():
    pr = percentile_rank(_values([1, 2, 3, 4]))
    assert sorted(pr.values()) == [0.0, 25.0, 50.0, 75.0]
    assert len(top_share(pr, 50.0)) == 2


def test_mean_pr6_near_class_mass_limit():
    rng = np.random.default_rng(3)
    table = IndicatorTable("X", _values(rng.random(3705)))
    pct = build_percentiles(table)
    mean = sum(pct.pr6.values()) / pct.n
    assert 1.89 <= mean <= 1.93


@given(st.lists(st.floats(min_value=-1e6, max_value=1e6,
                          allow_nan=False, allow_infinity=False),
                min_size=1, max_size=80))
@settings(max_examples=150, deadline=None)
def test_matches_quadratic_oracle(seq):
    values = _values(seq)
    pr = percentile_rank(values)
    expected = oracle_pr100(values)
    assert pr == expected
    for jid, p in pr.items():
        assert pr6_class(p) == oracle_pr6(p)


@given(st.lists(st.floats(min_value=-100.0, max_value=100.0,
                          allow_nan=False, allow_infinity=False),
                min_size=2, max_size=60))
@settings(max_examples=150, deadline=None)
def test_monotone_transform_invariance(seq):
    values = _values(seq)
    pr = percentile_rank(values)
    transformed = {j: math.exp(v / 50.0) for j, v in values.items()}
    # exp must stay strictly increasing on the sample after rounding,
    # otherwise it is not a monotone transform of these floats at all
    assume(len(set(transformed.values())) == len(set(values.values())))
    assert percentile_rank(transformed) == pr


def test_affine_transform_invariance_exact():
    rng = np.random.default_rng(11)
    values = _values(rng.normal(size=500))
    pr = percentile_rank(values)
    shifted = {j: 3.0 * v + 11.0 for j, v in values.items()}
    assert percentile_rank(shifted) == pr


@given(st.lists(st.floats(min_value=-1e3, max_value=1e3,
                          allow_nan=False, allow_infinity=False),
                min_size=1, max_size=100))
@settings(max_examples=150, deadline=None)
def test_tie_deflation_bound(seq):
    values = _values(seq)
    pr = percentile_rank(values)
    n = len(values)
    mean = sum(pr.values()) / n
    bound = 50.0 * (n - 1) / n
    assert mean <= bound + 1e-9
    if len(set(values.values())) == n:
        assert mean == pytest.approx(bound, abs=1e-9)


def test_build_percentiles_table_output(tmp_path):
    table = IndicatorTable("IF5-FC", _values([1, 2, 2, 9]))
    pct = build_percentiles(table)
    assert pct.source_indicator == "IF5-FC"
    assert pct.n == 4
    out = tmp_path / "p.tsv"
    pct.to_tsv(out)
    lines = out.read_text().splitlines()
    assert lines[0] == "journal_id\tindicator_id\tpr100\tpr6"
    assert lines[1].split("\t") == ["J0000", "IF5-FC", "0.0000", "1"]


def test_pr6_classes_agree_with_pr6_class_at_every_threshold():
    """Both forms of the class rule give the oracle's class at each
    threshold and just below it."""
    points = [0.0, 100.0]
    for threshold in PR6_THRESHOLDS:
        points += [threshold, math.nextafter(threshold, -math.inf)]
    want = [oracle_pr6(p) for p in points]
    assert _pr6_classes(np.array(points)).tolist() == want
    assert [pr6_class(p) for p in points] == want


def test_nan_percentile_has_no_class():
    with pytest.raises(PercentileError, match="NaN percentile"):
        pr6_class(float("nan"))
    with pytest.raises(PercentileError, match="NaN percentile"):
        _pr6_classes(np.array([50.0, float("nan")]))
