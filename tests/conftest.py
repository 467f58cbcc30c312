import os
from pathlib import Path

import pytest

from jifnorm import load_corpus, load_journals, merge_journal_parts
from jifnorm.cli import main

from _oracle import full_pipeline

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"
CENSUS = 2010
# the interpreter flags of the CI test run, for the Python processes a
# test starts, so that a warning raised only there fails too
PYTHON_FLAGS = ("-X", "dev", "-W", "error")


def src_env() -> dict[str, str]:
    """This process's environment with the checkout's ``src`` first on
    ``PYTHONPATH``, for the Python processes a test starts."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                               else []))
    return env


@pytest.fixture(scope="session")
def data_dir():
    return DATA


@pytest.fixture(scope="session")
def fixture_paths():
    return {"corpus": DATA / "fixture_corpus.jsonl",
            "journals": DATA / "fixture_journals.tsv",
            "fields": DATA / "fixture_fields.tsv",
            "external": DATA / "external_if.tsv",
            "bad_corpus": DATA / "bad_corpus.jsonl"}


@pytest.fixture(scope="session")
def oracle():
    """The reference pipeline's results on the fixture, built once; tests
    only read them."""
    return full_pipeline(DATA / "fixture_corpus.jsonl",
                         DATA / "fixture_journals.tsv", CENSUS)


@pytest.fixture(scope="session")
def tables(tmp_path_factory, fixture_paths):
    """The directory of ``indicators --percentiles`` run once on the
    fixture; tests only read it."""
    out = tmp_path_factory.mktemp("indicators")
    code = main(["indicators", str(fixture_paths["corpus"]),
                 "--journals", str(fixture_paths["journals"]),
                 "--census-year", str(CENSUS), "--percentiles",
                 "--out", str(out)])
    assert code in (0, 1)
    return out


@pytest.fixture()
def raw_fixture(fixture_paths):
    corpus = load_corpus(fixture_paths["corpus"], census_year=CENSUS)
    journals = load_journals(fixture_paths["journals"])
    return corpus, journals


@pytest.fixture()
def merged_fixture(raw_fixture):
    return merge_journal_parts(*raw_fixture)
