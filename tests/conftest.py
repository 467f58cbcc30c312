from pathlib import Path

import pytest

from jifnorm import load_corpus, load_journals, merge_journal_parts

DATA = Path(__file__).parent / "data"
CENSUS = 2010
# the interpreter flags of the CI test run, for the Python processes a
# test starts, so that a warning raised only there fails too
PYTHON_FLAGS = ("-X", "dev", "-W", "error")


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


@pytest.fixture()
def raw_fixture(fixture_paths):
    corpus = load_corpus(fixture_paths["corpus"], census_year=CENSUS)
    journals = load_journals(fixture_paths["journals"])
    return corpus, journals


@pytest.fixture()
def merged_fixture(raw_fixture):
    return merge_journal_parts(*raw_fixture)
