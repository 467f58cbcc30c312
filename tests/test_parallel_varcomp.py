"""The permutation test cut into blocks of seed-sequence children, one
process each, gives the p-values of running it whole; ingest and the
permutation test share one fork helper.

The minimum block work is lowered to one label so that small tables split
into as many blocks as processes are asked for. No test here asks for more
than 5 processes.
"""

import multiprocessing
import os

import numpy as np
import pytest

from jifnorm import corpus as corpus_mod
from jifnorm import load_corpus, stats
from jifnorm.cli import main
from jifnorm.stats import permutation_test

from conftest import CENSUS
from test_parallel_ingest import _record
from test_stats import _mixed_size_maps

THREADS = (1, 2, 3, 5)


@pytest.fixture
def small_blocks(monkeypatch):
    monkeypatch.setattr(stats, "_MIN_PERM_WORK", 1)


@pytest.fixture
def block_counts(monkeypatch):
    """The number of jobs each permutation test hands to the fork helper."""
    seen = []
    real = stats.run_forked

    def spy(fn, jobs, *args):
        seen.append(len(jobs))
        return real(fn, jobs, *args)

    monkeypatch.setattr(stats, "run_forked", spy)
    return seen


def test_spawn_key_rebuilds_spawned_child():
    for seed in (0, 8, 2**40):
        children = np.random.SeedSequence(seed).spawn(1001)
        for i in (0, 1, 499, 500, 1000):
            rebuilt = np.random.SeedSequence(seed, spawn_key=(i,))
            assert np.array_equal(rebuilt.generate_state(8),
                                  children[i].generate_state(8))
            assert np.array_equal(
                np.random.default_rng(rebuilt).permutation(3705),
                np.random.default_rng(children[i]).permutation(3705))


@pytest.mark.parametrize("n_perm", [999, 1001])
@pytest.mark.parametrize("statistic", ["eta2", "sigma2_between"])
def test_p_values_do_not_depend_on_blocks(small_blocks, block_counts,
                                          statistic, n_perm):
    scheme, maps = _mixed_size_maps()
    assert len(maps) >= 6 and len({len(m) for m in maps}) == 3
    want = permutation_test(maps, scheme, statistic, n_perm, seed=8)
    assert len(set(want)) > 2
    for threads in THREADS[1:]:
        got = permutation_test(maps, scheme, statistic, n_perm, seed=8,
                               threads=threads)
        assert got == want
    assert block_counts == list(THREADS)
    assert multiprocessing.active_children() == []


def test_small_test_stays_in_one_block(block_counts):
    scheme, maps = _mixed_size_maps()
    permutation_test(maps, scheme, n_perm=999, seed=8, threads=5)
    assert block_counts == [1]


def test_threads_below_one_is_an_error():
    scheme, maps = _mixed_size_maps()
    with pytest.raises(stats.StatsError, match="threads 0 must be >= 1"):
        permutation_test(maps, scheme, threads=0)


def _ingest_failing(monkeypatch, tmp_path, failure):
    """Load a four-range corpus whose ranges after the first run
    ``failure`` in their worker process."""
    monkeypatch.setattr(corpus_mod, "_MIN_RANGE_BYTES", 64)
    real = corpus_mod._parse_range

    def parse(path, format, start, *args):
        if start > 0:
            failure()
        return real(path, format, start, *args)

    monkeypatch.setattr(corpus_mod, "_parse_range", parse)
    path = tmp_path / "corpus.jsonl"
    path.write_text("".join(_record(f"F{i}") + "\n" for i in range(40)),
                    encoding="utf-8")
    load_corpus(path, census_year=CENSUS, threads=4)


def _varcomp_failing(monkeypatch, tmp_path, failure):
    """Run a four-block permutation test whose blocks after the first run
    ``failure`` in their worker process."""
    monkeypatch.setattr(stats, "_MIN_PERM_WORK", 1)
    real = stats._perm_block

    def block(tables, statistic, seed, first, stop):
        if first > 0:
            failure()
        return real(tables, statistic, seed, first, stop)

    monkeypatch.setattr(stats, "_perm_block", block)
    scheme, maps = _mixed_size_maps()
    permutation_test(maps, scheme, threads=4)


RUNS = {"ingest": (_ingest_failing, "a process reading corpus.jsonl"),
        "varcomp": (_varcomp_failing, "a permutation process")}


@pytest.mark.parametrize("kind", sorted(RUNS))
def test_worker_exception_reaches_caller(monkeypatch, tmp_path, kind):
    def failure():
        raise ArithmeticError(f"worker {os.getpid()} failed")

    with pytest.raises(ArithmeticError, match="worker [0-9]+ failed") as info:
        RUNS[kind][0](monkeypatch, tmp_path, failure)
    assert str(info.value) != f"worker {os.getpid()} failed"
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("kind", sorted(RUNS))
def test_worker_without_result_is_an_os_error(monkeypatch, tmp_path, kind):
    def failure():
        os._exit(3)

    run, who = RUNS[kind]
    with pytest.raises(OSError, match=f"^{who} exited with code 3$"):
        run(monkeypatch, tmp_path, failure)
    assert multiprocessing.active_children() == []


@pytest.fixture(scope="module")
def indicator_dir(tmp_path_factory, fixture_paths):
    out = tmp_path_factory.mktemp("indicators")
    code = main(["indicators", str(fixture_paths["corpus"]),
                 "--journals", str(fixture_paths["journals"]),
                 "--census-year", str(CENSUS), "--percentiles",
                 "--out", str(out)])
    assert code in (0, 1)
    return out


@pytest.mark.parametrize("statistic", ["eta2", "sigma2_between"])
def test_varcomp_outputs_do_not_depend_on_threads(
        small_blocks, block_counts, indicator_dir, fixture_paths, tmp_path,
        capsys, statistic):
    results = []
    for threads in (1, 2, 3):
        out = tmp_path / str(threads)
        code = main(["varcomp", *(str(indicator_dir / name) for name in
                                  ("IF2-IC.tsv", "IF5-FC.tsv",
                                   "percentiles.tsv")),
                     "--fields", str(fixture_paths["fields"]),
                     "--min-group-size", "2", "--n-perm", "999",
                     "--perm-stat", statistic, "--threads", str(threads),
                     "--out", str(out)])
        files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        results.append((code, capsys.readouterr().err, files))
    assert block_counts == [1, 2, 3]
    assert results[0][0] in (0, 1)
    assert all(r == results[0] for r in results[1:])
