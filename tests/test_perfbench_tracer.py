"""The benchmark's tracer (perfbench/tracer.py) wraps public functions of
the package by name. A refactor that renames one of them must fail here,
not first in the benchmark: traced and untraced runs of the same command
must agree on exit code and output bytes, and the spans must name the
wrapped layers."""

import json
import subprocess
import sys

import pytest

from conftest import CENSUS, PYTHON_FLAGS, ROOT, src_env


def _run(prefix, args):
    proc = subprocess.run(prefix + [str(a) for a in args], cwd=ROOT,
                          env=src_env(), capture_output=True, text=True,
                          timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


def _dir_bytes(path):
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


CORPUS_SPANS = {"corpus.load_journals", "corpus.load", "corpus.merge",
                "cli.write", "cli.manifest"}


@pytest.mark.parametrize("command,spans", [
    ("varcomp", {"stats.permutation", "stats.moments"}),
    ("correlate", {"stats.correlation"}),
    ("indicators", CORPUS_SPANS | {
        "refmatch.match", "counts.integer", "counts.fractional",
        "counts.fractional_plus", "indicators.denominator",
        "indicators.ratio", "percentile.build"}),
    ("validate", CORPUS_SPANS),
])
def test_tracer_runs_command_unchanged(tmp_path, tables, fixture_paths,
                                       command, spans):
    inputs = [tables / "IF2-IC.tsv", tables / "IF5-FC.tsv",
              tables / "percentiles.tsv"]
    corpus_args = [fixture_paths["corpus"], "--journals",
                   fixture_paths["journals"], "--census-year", CENSUS]
    if command == "varcomp":
        args = ["varcomp", *inputs, "--fields", fixture_paths["fields"],
                "--min-group-size", 2, "--n-perm", 999, "--seed", 3]
    elif command == "correlate":
        args = ["correlate", *inputs[:2]]
    elif command == "indicators":
        args = ["indicators", *corpus_args, "--percentiles"]
    else:
        args = ["validate", *corpus_args]
    plain = _run([sys.executable, *PYTHON_FLAGS, "-m", "jifnorm"],
                 args + ["--out", tmp_path / "plain"])
    spans_path = tmp_path / "spans.json"
    traced = _run([sys.executable, *PYTHON_FLAGS,
                   str(ROOT / "perfbench" / "tracer.py"), str(spans_path)],
                  args + ["--out", tmp_path / "traced"])

    assert plain[0] in (0, 1), plain[2]
    assert traced == plain
    assert _dir_bytes(tmp_path / "traced") == _dir_bytes(tmp_path / "plain")
    record = json.loads(spans_path.read_text(encoding="utf-8"))
    assert record["exit"] == plain[0]
    names = {name for name, _, _ in record["spans"]}
    assert spans <= names
    if command in ("indicators", "validate"):
        # every span of a corpus command is a stage named here
        assert names == spans
