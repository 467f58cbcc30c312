"""Mutants of ``src/jifnorm``, each with the tests that must kill it.

Each entry of ``MUTANTS`` names a file under ``src/jifnorm``, a snippet
that occurs exactly once in it, the snippet's replacement, and the ids of
the tests that must each fail once the snippet is replaced: a contract's
test that stops failing when its contract breaks shows here.

Run ``python tests/mutants.py``. It copies the checkout's ``src/`` and
``tests/`` to a temporary directory, so that ``conftest.ROOT`` and
``src_env()`` point at the copy and a test's own Python processes see the
mutant too. There it runs every listed test once unmutated, which must
pass, then makes one mutant at a time and runs its tests with ``python
-X dev -W error -m pytest``, and reads from a JUnit report which of them
failed. Hypothesis runs derandomized and does not shrink a failing
example, so a run gives the same result every time and a killed mutant is
reported quickly. It exits 1 if a test passes against its mutant, if a
snippet does not occur exactly once, or if the unmutated tests fail, else
0. Nothing is written outside the temporary directory. pytest does not
collect this file, whose name does not start with ``test_``.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
import xml.etree.ElementTree as ET
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
# a run that takes longer than this has hung, and counts as a failure
TIMEOUT_S = 600


class Mutant(NamedTuple):
    name: str
    file: str          # under src/jifnorm
    snippet: str       # occurs exactly once in the file
    replacement: str
    tests: tuple[str, ...]


_INGEST = "tests/test_parallel_ingest.py::"

MUTANTS = [
    # the window rule: no window starts before 1900
    Mutant("window starts before 1900", "counts.py",
           "return range(max(first[kind], 1900), stop)",
           "return range(first[kind], stop)",
           ("tests/test_counts.py::test_empty_window_counts_nothing",
            "tests/test_indicators.py::"
            "test_census_1902_divides_by_the_years_it_counts",
            "tests/test_indicators.py::"
            "test_census_1900_windows_are_empty_and_undefined",
            "tests/test_indicators.py::"
            "test_numerator_and_denominator_cover_the_same_years")),
    Mutant("--external id may hold a tab", "cli.py",
           'if any(c in indicator_id for c in "\\t\\n\\r"):',
           "if False:",
           ("tests/test_cli.py::"
            "test_external_id_holding_a_tab_or_line_end_exit_2[EX\\tT]",)),
    # equal fractional totals are equal floats
    Mutant("tie bound of 2**-60", "counts.py",
           "bound = 2 * (int(terms.max(initial=0)) + 2) * 2.0**-52",
           "bound = 2.0**-60",
           ("tests/test_counts.py::"
            "test_equal_totals_by_other_terms_are_equal_floats",)),
    # the intern rule of a part of a corpus
    Mutant("unshared references left out of ref_offsets", "corpus.py",
           "ref_offsets.append(len(ref_slots) + n_unshared)",
           "ref_offsets.append(len(ref_slots))",
           (_INGEST + "test_interning_changes_no_result",)),
    Mutant(">= for > in the intern judgement", "corpus.py",
           "stopped = 8 * len(slot_ids) > 7 * len(ref_slots)",
           "stopped = 8 * len(slot_ids) >= 7 * len(ref_slots)",
           (_INGEST + "test_interning_stops_only_past_seven_eighths_new[7]",)),
    Mutant("interning never stops", "corpus.py",
           "stopped = 8 * len(slot_ids) > 7 * len(ref_slots)",
           "stopped = False",
           (_INGEST + "test_interning_stops_only_past_seven_eighths_new[8]",)),
    Mutant("judged at every document", "corpus.py",
           "if not judged and len(ref_slots) >= _INTERN_SAMPLE:",
           "if len(ref_slots) >= _INTERN_SAMPLE:",
           (_INGEST + "test_a_part_is_judged_once",)),
    Mutant("unshared strings reversed", "corpus.py",
           "                slot_columns.add(unshared)\n"
           "                unshared = []",
           "                slot_columns.add(unshared[::-1])\n"
           "                unshared = []",
           (_INGEST + "test_stored_codes_resolve_to_parse_reference",)),
    Mutant("a dropped flush batch", "corpus.py",
           "                slot_columns.add(unshared)\n"
           "                unshared = []",
           "                unshared = []",
           (_INGEST + "test_stored_codes_resolve_to_parse_reference",)),
    Mutant("interned strings added after the streamed ones", "corpus.py",
           "                if stopped:\n"
           "                    slot_columns.add(list(slot_ids))\n"
           "        ref_offsets.append(len(ref_slots) + n_unshared)\n"
           "    n_interned = len(slot_ids)\n"
           "    slots = np.concatenate([\n"
           "        np.array(ref_slots, dtype=np.int32),\n"
           "        np.arange(n_interned, n_interned + n_unshared, "
           "dtype=np.int32)])\n"
           "    if not stopped:\n"
           "        slot_columns.add(list(slot_ids))\n"
           "    slot_columns.add(unshared)\n",
           "        ref_offsets.append(len(ref_slots) + n_unshared)\n"
           "    n_interned = len(slot_ids)\n"
           "    slots = np.concatenate([\n"
           "        np.array(ref_slots, dtype=np.int32),\n"
           "        np.arange(n_interned, n_interned + n_unshared, "
           "dtype=np.int32)])\n"
           "    slot_columns.add(unshared)\n"
           "    slot_columns.add(list(slot_ids))\n",
           (_INGEST + "test_interning_changes_no_result",
            _INGEST + "test_stored_codes_resolve_to_parse_reference")),
    # slot columns and joined parts
    Mutant("year tokens not stripped", "corpus.py",
           "(stripped_ids[t.strip()] for t in self.year_ids)",
           "(stripped_ids[t] for t in self.year_ids)",
           (_INGEST + "test_stored_codes_resolve_to_parse_reference",)),
    Mutant("_join shifts slots by references", "corpus.py",
           "slot_base += len(c.slot_venue)",
           "slot_base += len(c.ref_slots)",
           (_INGEST + "test_corpus_does_not_depend_on_ranges[fixture]",)),
    Mutant("any | taken as the structured layout", "refmatch.py",
           'if "|" in raw and raw.count("|") == 1:',
           'if "|" in raw:',
           (_INGEST + "test_stored_codes_resolve_to_parse_reference",)),
    # the documents of a loaded corpus
    Mutant("no size/mtime check", "corpus.py",
           "if (stat.st_size, stat.st_mtime_ns) != (self.size, self.mtime_ns):",
           "if False:",
           (_INGEST + "test_documents_of_a_changed_file_raise",)),
    Mutant("a size-only check", "corpus.py",
           "if (stat.st_size, stat.st_mtime_ns) != (self.size, self.mtime_ns):",
           "if stat.st_size != self.size:",
           (_INGEST + "test_documents_of_a_changed_file_raise",)),
    Mutant("the file opened without with", "corpus.py",
           'with open(self.path, "rb") as fh:',
           'for fh in [open(self.path, "rb")]:',
           (_INGEST + "test_documents_leave_no_file_open",)),
    Mutant("an off-by-one line index", "corpus.py",
           "start = self.starts[line - 1]",
           "start = self.starts[line - 2]",
           (_INGEST + "test_loaded_documents_equal_the_records_built_in_memory"
            "[fixture]",)),
    # line ends and byte-order marks
    Mutant("a wrong BOM offset", "_tsv.py",
           "initial=fh.tell() - len(block)))",
           "initial=fh.tell() - len(block) if starts else 0))",
           (_INGEST + "test_line_starts_are_where_lines_begin[1048576]",
            _INGEST + "test_loaded_documents_equal_the_records_built_in_memory"
            "[fixture_bom]")),
    Mutant("lines split by str.splitlines", "_tsv.py",
           "map(bytes.splitlines, _blocks(fh, start, end)))",
           "(line.encode('utf-8', 'surrogateescape') for block in "
           "_blocks(fh, start, end) for line in "
           "block.decode('utf-8', 'surrogateescape').splitlines()))",
           ("tests/test_text_readers.py::test_only_lf_crlf_and_cr_end_a_line",)),
    Mutant("the byte after a closing \\r not read", "_tsv.py",
           "piece += fh.read(1)",
           "pass",
           (_INGEST + "test_no_block_size_cuts_a_line_end[1]",)),
    # the manifest
    Mutant("a constant digest", "cli.py",
           "return h.hexdigest()",
           'return "0" * 64',
           ("tests/test_manifest.py::"
            "test_manifest_outputs_are_the_files_written[validate]",)),
]


# a pytest plugin, written into the copy: derandomized examples, no
# shrinking and no example database
_SETTINGS = """from hypothesis import Phase, settings
settings.register_profile("mutants", derandomize=True, database=None,
                          phases=[Phase.explicit, Phase.generate])
settings.load_profile("mutants")
"""


def _failing(copy: Path, tests: list[str]) -> set[str]:
    """Those of ``tests`` that fail, or are not reported, when pytest runs
    them in ``copy`` under CI's interpreter flags; all of them for a run
    past ``TIMEOUT_S``. Hypothesis's pytest plugin is left out: its report
    of a failing example imports modules whose warnings, errors under
    ``-W error``, can end the run before the report is written."""
    report = copy / "report.xml"
    report.unlink(missing_ok=True)
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join(
                   [str(copy / "src")] + ([os.environ["PYTHONPATH"]]
                                          if os.environ.get("PYTHONPATH")
                                          else [])))
    command = [sys.executable, "-X", "dev", "-W", "error", "-m", "pytest",
               "-q", "-p", "no:cacheprovider", "-p", "no:hypothesispytest",
               "-p", "mutant_settings", f"--junitxml={report}", *tests]
    try:
        subprocess.run(command, cwd=copy, env=env, stdout=subprocess.DEVNULL,
                       stderr=subprocess.DEVNULL, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return set(tests)
    passed = set()
    if report.exists():
        for case in ET.parse(report).iter("testcase"):
            if not any(child.tag in ("failure", "error", "skipped")
                       for child in case):
                passed.add(case.get("classname").replace(".", "/")
                           + ".py::" + case.get("name"))
    return set(tests) - passed


def _survivors(copy: Path, mutant: Mutant) -> list[str]:
    """What is wrong with ``mutant``: its snippet's count if it is not 1,
    else each of its tests that passes against it."""
    path = copy / "src" / "jifnorm" / mutant.file
    original = path.read_text(encoding="utf-8")
    found = original.count(mutant.snippet)
    if found != 1:
        return [f"its snippet occurs {found} times in {mutant.file}"]
    path.write_text(original.replace(mutant.snippet, mutant.replacement),
                    encoding="utf-8")
    try:
        failing = _failing(copy, list(mutant.tests))
    finally:
        path.write_text(original, encoding="utf-8")
    return [f"{test} passes" for test in mutant.tests if test not in failing]


def main() -> int:
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="jifnorm-mutants-") as tmp:
        copy = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, copy / part,
                            ignore=shutil.ignore_patterns("__pycache__"))
        (copy / "mutant_settings.py").write_text(_SETTINGS, encoding="utf-8")
        tests = sorted({t for m in MUTANTS for t in m.tests})
        failing = _failing(copy, tests)
        if failing:
            print("failing with no mutant made:", *sorted(failing),
                  sep="\n    ")
            return 1
        failed = 0
        for mutant in MUTANTS:
            problems = _survivors(copy, mutant)
            failed += bool(problems)
            print(("NOT KILLED" if problems else "killed    "), mutant.name,
                  *(f"\n    {p}" for p in problems), flush=True)
    print(f"{len(MUTANTS) - failed} of {len(MUTANTS)} mutants killed in "
          f"{time.perf_counter() - start:.0f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
