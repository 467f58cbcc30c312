"""Output bytes pinned across environments: the sha256 of every file that
each run below writes, against ``tests/data/golden.json``. ``manifest.json``
is left out, since it records absolute paths. The file also records the
Python and numpy versions the digests were made under, so a mismatch in
another environment says which two environments disagree.

A change that alters an output on purpose rewrites the file with
``PYTHONPATH=src python tests/test_golden.py`` and lists each changed
output.
"""

import hashlib
import json
import platform
import tempfile
from pathlib import Path

import numpy as np

from jifnorm.cli import main

from conftest import CENSUS, DATA
from test_readme_library import SYNTH_CONFIG

GOLDEN = DATA / "golden.json"


def _runs(tables: Path, config: Path) -> dict[str, list]:
    """Each run's argv by name, less ``--out``; the table runs read the
    ``indicators`` run's outputs in ``tables``."""
    corpus = ["--journals", DATA / "fixture_journals.tsv",
              "--census-year", CENSUS]
    inputs = [tables / name for name in
              ("IF2-IC.tsv", "IF5-FC.tsv", "percentiles.tsv")]
    return {
        "validate": ["validate", DATA / "fixture_corpus.jsonl", *corpus],
        "indicators": ["indicators", DATA / "fixture_corpus.jsonl", *corpus,
                       "--percentiles"],
        "rank-pr6-IF2-IC": ["rank", inputs[0], "--pr6"],
        "rank-pr6-IF5-FC": ["rank", inputs[1], "--pr6"],
        "correlate": ["correlate", *inputs],
        "varcomp": ["varcomp", *inputs, "--fields", DATA / "fixture_fields.tsv",
                    "--min-group-size", 2, "--n-perm", 999, "--seed", 0],
        "synth": ["synth", config],
    }


def digests(work: Path) -> dict[str, dict[str, str]]:
    """The sha256 of every file each run writes under ``work``, by run
    name and file name."""
    config = work / "synth.cfg"
    config.write_text(SYNTH_CONFIG, encoding="utf-8")
    result = {}
    for name, argv in _runs(work / "indicators", config).items():
        out = work / name
        code = main([str(a) for a in argv]
                    + ["--threads", "1", "--out", str(out)])
        assert code in (0, 1), name
        result[name] = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                        for p in sorted(out.iterdir())
                        if p.name != "manifest.json"}
    return result


def environment() -> dict[str, str]:
    return {"python": platform.python_version(), "numpy": np.__version__}


def test_outputs_match_golden_digests(tmp_path):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = digests(tmp_path)
    recorded = {key: golden[key] for key in ("python", "numpy")}
    assert got == golden["runs"], (
        f"digests recorded under {recorded}, this run under {environment()}")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        record = {**environment(), "runs": digests(Path(work))}
    GOLDEN.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
