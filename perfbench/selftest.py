"""Self-test of the benchmark's checkers and tracer at a tiny scale.

Usage (from the root of a source checkout): ``python3 perfbench/selftest.py``

For each workload it builds inputs at one tenth of the journal count, runs
the commands once, and requires the checker to pass on the program's real
output. It then perturbs a copy of that output in one place at a time and
requires the checker to reject every copy. Finally it runs one traced
round and requires a non-zero value for every span of the layers the
workload runs. Exits 0 when all of this holds.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import dataclasses  # noqa: E402
import shutil  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402

SCALE = 0.1
SEED = 5


def _edit(path: Path, fn) -> None:
    """Apply ``fn`` to the list of data rows (split on tabs) of a TSV,
    keeping comment lines and the header."""
    lines = path.read_text(encoding="utf-8").split("\n")[:-1]
    head = [i for i, line in enumerate(lines) if not line.startswith("#")][0]
    rows = [line.split("\t") for line in lines[head + 1:]]
    fn(rows)
    path.write_text("\n".join(lines[:head + 1] + ["\t".join(r) for r in rows])
                    + "\n", encoding="utf-8")


def fc5_off(out: Path, outcome):
    def bump(rows):
        top = max(rows, key=lambda r: float(r[3]))
        top[3] = f"{float(top[3]) * (1 + 1e-6):.9f}"
    _edit(out / "TC-FC5.tsv", bump)
    return outcome


def pr6_flip(out: Path, outcome):
    def flip(rows):
        row = next(r for r in rows if r[3] == "3")
        row[3] = "4"
    _edit(out / "percentiles.tsv", flip)
    return outcome


def sidecar_drop(out: Path, outcome):
    _edit(out / "IF2-IC.tsv.undefined", lambda rows: rows.pop())
    return outcome


def warning_drop(out: Path, outcome):
    lines = outcome.stderr.splitlines(keepends=True)
    return dataclasses.replace(outcome, stderr="".join(lines[1:]))


def perm_p_off(out: Path, outcome):
    def shift(rows):
        rows[3][4] = f"{float(rows[3][4]) + 0.3 / (run.N_PERM + 1):.9g}"
    _edit(out / "varcomp.tsv", shift)
    return outcome


def sigma_off(out: Path, outcome):
    def bump(rows):
        rows[0][1] = f"{float(rows[0][1]) * (1 + 1e-6):.9g}"
    _edit(out / "varcomp.tsv", bump)
    return outcome


def correlation_off(out: Path, outcome):
    def bump(rows):
        rows[0][2] = f"{float(rows[0][2]) + 0.001:.4f}"
    _edit(out / "correlation_matrix.tsv", bump)
    return outcome


def ranking_drop(out: Path, outcome):
    _edit(out / "ranking.tsv", lambda rows: rows.pop())
    return outcome


PERTURBATIONS = {
    "indicators": (fc5_off, pr6_flip, sidecar_drop, warning_drop),
    "varcomp": (perm_p_off, sigma_off),
    "correlate": (correlation_off,),
    "rank": (ranking_drop,),
}
# spans every traced round of a workload must record
LAYER_SPANS = {
    "indicators": ("corpus.load_journals_s", "corpus.load_s", "corpus.merge_s",
                   "refmatch.match_s", "counts.integer_s", "counts.fractional_s",
                   "counts.fractional_plus_s", "indicators.denominator_s",
                   "indicators.ratio_s", "percentile.build_s", "cli.write_s",
                   "cli.manifest_s"),
    "varcomp": ("stats.read_s", "stats.moments_s", "stats.permutation_s",
                "stats.correlation_s", "percentile.build_s", "cli.write_s",
                "cli.manifest_s"),
}


def selftest(name: str, base: Path) -> list[str]:
    failures = []
    bench = run.Run(name, SEED, base, scale=SCALE)
    bench.setup()
    for command in bench.workload.commands(bench.truth, base, "real"):
        outcome = run.execute(command, base, bench.env, traced=False)
        out = base / command.out
        try:
            bench.workload.check(out, bench.truth, outcome)
        except checks.CheckError as exc:
            failures.append(f"{name} {command.name}: real output rejected: {exc}")
            continue
        for perturb in PERTURBATIONS[command.name]:
            copy = base / "perturbed" / perturb.__name__
            shutil.copytree(out, copy)
            changed = perturb(copy, outcome)
            try:
                bench.workload.check(copy, bench.truth, changed)
                failures.append(f"{name} {command.name}: {perturb.__name__} "
                                "was not detected")
            except checks.CheckError:
                pass
    traced = run.layer_metrics(bench.round(0, traced=True))
    spans = LAYER_SPANS["varcomp" if name == "varcomp-paper" else "indicators"]
    failures += [f"{name}: traced round recorded no {m}" for m in spans
                 if not traced[m] > 0]
    failures += [f"{name}: traced round: {p}" for p in bench.problems]
    return failures


def main() -> int:
    failures = []
    run.WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="selftest-", dir=run.WORK) as tmp:
        for name in run.WORKLOADS:
            base = Path(tmp) / name
            base.mkdir()
            found = selftest(name, base)
            print(f"{name}: {'ok' if not found else 'FAILED'}")
            failures += found
    try:
        run.WORK.rmdir()
    except OSError:
        pass  # a benchmark run is using it
    for failure in failures:
        print(failure, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
