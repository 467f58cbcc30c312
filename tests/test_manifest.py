"""The manifest is the record of a run: its ``outputs`` are the files the
run wrote, each with its sha256, and its ``command`` and ``parameters``
alone re-run it."""

import argparse
import hashlib
import json
import os
from pathlib import Path

import pytest

from jifnorm.cli import build_parser, main

from conftest import CENSUS

SYNTH_CONFIG = (
    "census_year = 2010\nyears_back = 10\nseed = 4\n"
    "field.A.n_journals = 3\nfield.A.papers_per_journal_per_year = 6\n"
    "field.A.mean_ref_len = 8\nfield.A.ref_age_half_life = 3\n"
    "field.B.n_journals = 3\nfield.B.papers_per_journal_per_year = 5\n"
    "field.B.mean_ref_len = 20\nfield.B.ref_age_half_life = 5\n")


def command_line(name, tables, paths, tmp_path):
    """The argv of run ``name``, every path in it absolute, without
    ``--out``."""
    corpus_flags = ["--journals", paths["journals"], "--census-year", CENSUS]
    if name == "synth":
        config = tmp_path / "synth.cfg"
        config.write_text(SYNTH_CONFIG, encoding="utf-8")
        return ["synth", config]
    if name == "indicators --config":
        config = tmp_path / "run.cfg"
        config.write_text(f"census_year = {CENSUS}\n"
                          f"journals = {paths['journals']}\n"
                          "percentiles = yes\ncitable_types = article\n",
                          encoding="utf-8")
        return ["indicators", paths["corpus"], "--config", config]
    return {
        "validate": ["validate", paths["corpus"], *corpus_flags],
        "validate bad corpus": ["validate", paths["bad_corpus"],
                                *corpus_flags],
        "indicators": ["indicators", paths["corpus"], *corpus_flags,
                       "--percentiles", "--external",
                       f"EXT={paths['external']}"],
        "rank --top": ["rank", tables / "IF2-FC.tsv", "--top", 3],
        "rank --pr6": ["rank", tables / "TC-IC.tsv", "--pr6"],
        "correlate": ["correlate", tables / "IF2-IC.tsv",
                      tables / "IF2-FC.tsv", tables / "IF5-FC.tsv"],
        "varcomp": ["varcomp", tables / "IF2-IC.tsv", tables / "IF5-FC.tsv",
                    "--fields", paths["fields"], "--min-group-size", 2,
                    "--n-perm", 999, "--seed", 3],
    }[name]


def run_into(argv, out):
    code = main([str(a) for a in argv] + ["--out", str(out)])
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    return code, manifest


# the files each run must list among its outputs
MUST_LIST = {
    "validate": {"validation.tsv"},
    "validate bad corpus": {"validation.tsv", "load_errors.txt"},
    "indicators": {"IF2-IC.tsv.undefined", "IF5-FC+.tsv.undefined",
                   "EXT.tsv", "indicators_wide.tsv", "percentiles.tsv"},
    "indicators --config": {"IF2-IC.tsv.undefined", "percentiles.tsv"},
    "rank --top": {"ranking.tsv"},
    "rank --pr6": {"ranking.tsv"},
    "correlate": {"correlation_matrix.tsv"},
    "varcomp": {"varcomp.tsv", "varcomp_reduction.tsv",
                "varcomp_dispersion.tsv"},
    "synth": {"corpus.jsonl", "journals.tsv", "fields.tsv",
              "ground_truth_journals.tsv", "ground_truth_fields.tsv"},
}


@pytest.mark.parametrize("name", sorted(MUST_LIST))
def test_manifest_outputs_are_the_files_written(name, tmp_path, tables,
                                               fixture_paths):
    out = tmp_path / "out"
    code, manifest = run_into(
        command_line(name, tables, fixture_paths, tmp_path), out)
    assert code in (0, 1)
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in out.iterdir() if p.name != "manifest.json"}
    assert manifest["outputs"] == written
    assert MUST_LIST[name] <= set(written)


def replay_argv(manifest):
    """The argv that ``manifest``'s ``command`` and ``parameters`` stand for,
    read through the command's own positional and optional arguments; a
    parameter that no argument takes fails the test."""
    parser = build_parser()
    commands = next(a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction))
    command = manifest["command"]
    parameters = dict(manifest["parameters"])
    argv = [command]
    for action in commands.choices[command]._actions:
        if action.dest not in parameters:
            continue
        value = parameters.pop(action.dest)
        values = value if isinstance(value, list) else [value]
        if not action.option_strings:
            argv += values
        elif action.nargs == 0:
            argv += [action.option_strings[0]] if value else []
        elif value is not None:
            for item in values:
                argv += [action.option_strings[0], item]
    assert not parameters, f"no argument takes {sorted(parameters)}"
    return argv


def _relative(arg, start):
    """A path argument of an argv, or the PATH of an ``ID=PATH``, made
    relative to ``start``; any other argument as it is."""
    if isinstance(arg, Path):
        return os.path.relpath(arg, start)
    if isinstance(arg, str) and arg.startswith("EXT="):
        return "EXT=" + os.path.relpath(arg[4:], start)
    return arg


@pytest.mark.parametrize("name", sorted(MUST_LIST))
def test_manifest_replays_its_run(name, tmp_path, tables, fixture_paths,
                                  monkeypatch):
    """A run given relative paths records each input absolute, so the argv
    rebuilt from its manifest, re-run from another working directory at
    another --threads, writes the same bytes into a fresh directory, the
    manifest included."""
    # at another depth, so that no relative path finds its file there
    here, elsewhere = tmp_path / "here", tmp_path / "else" / "where"
    here.mkdir()
    elsewhere.mkdir(parents=True)
    argv = [_relative(a, here)
            for a in command_line(name, tables, fixture_paths, tmp_path)]
    first, second = tmp_path / "first", tmp_path / "second"
    monkeypatch.chdir(here)
    code, manifest = run_into(argv + ["--threads", 2], first)
    assert all(os.path.isabs(path) for path in manifest["inputs"])
    monkeypatch.chdir(elsewhere)
    assert run_into(replay_argv(manifest) + ["--threads", 1],
                    second)[0] == code
    written = sorted(p.name for p in first.iterdir())
    assert sorted(p.name for p in second.iterdir()) == written
    for file_name in written:
        assert ((second / file_name).read_bytes()
                == (first / file_name).read_bytes()), file_name
