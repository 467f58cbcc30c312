"""Benchmark of the jifnorm pipeline: corpus -> indicators -> varcomp.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The benchmark writes its inputs from the seed with its own generator, runs
the workload's ``jifnorm`` commands from ``src/`` one at a time, each in a
fresh process with a fresh ``--out`` directory, for whole rounds until S
seconds have passed, and checks every output against its own computations.
The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` (commands) and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer ones with ``--trace 1``, where
each command runs under ``tracer.py`` instead.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Callable  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
TRACER = HERE / "tracer.py"

N_PERM = 1999
SETUPS = 3               # input builds per run at least; setup_s is their
SETUP_SECONDS = 2.0      # median, over more builds until this much is spent
COMMAND_TIMEOUT = 150.0  # seconds before a hung command is killed

END_TO_END_UNITS = {"wall_s": "s", "items_per_s": "1/s", "peak_rss_mb": "MB",
                    "setup_s": "s"}
PER_LAYER_UNITS = {
    "corpus.load_journals_s": "s", "corpus.load_s": "s", "corpus.merge_s": "s",
    "corpus.docs": "count", "corpus.load_errors": "count",
    "corpus.rss_after_load_mb": "MB",
    "refmatch.match_s": "s", "refmatch.refs": "count",
    "refmatch.distinct_refs": "count", "refmatch.matched_refs": "count",
    "refmatch.refs_per_s": "1/s", "refmatch.rss_after_match_mb": "MB",
    "counts.integer_s": "s", "counts.fractional_s": "s",
    "counts.fractional_plus_s": "s", "counts.total_s": "s",
    "counts.counted_refs": "count",
    "indicators.denominator_s": "s", "indicators.ratio_s": "s",
    "indicators.undefined": "count",
    "percentile.build_s": "s",
    "cli.write_s": "s", "cli.manifest_s": "s", "cli.output_bytes": "bytes",
    "stats.read_s": "s", "stats.moments_s": "s", "stats.permutation_s": "s",
    "stats.perms_per_s": "1/s", "stats.correlation_s": "s", "stats.pairs": "count",
    "trace.coverage": "ratio", "trace.wall_s": "s",
}


@dataclass
class Command:
    name: str
    args: list[str]
    out: str                       # --out directory, relative to the run dir


@dataclass
class Outcome:
    command: Command
    wall: float
    exit: int
    rss_mb: float
    stderr: str
    spans: dict                    # tracer output; empty when untraced


@dataclass
class Workload:
    setup: Callable[[Path, int, float], object]      # dir, seed, scale
    commands: Callable[[object, Path, str], list[Command]]
    check: Callable[[Path, object, Outcome], None]
    items: Callable[[object], int]          # work per round, for items_per_s


def _rel(path: Path, base: Path) -> str:
    return os.path.relpath(path, base)


def indicators_workload(layout: str, field_property: bool) -> Workload:
    def setup(directory: Path, seed: int, scale: float = 1.0):
        return inputs.write_indicator_inputs(directory, seed, layout, scale)

    def commands(truth, run_dir: Path, round_dir: str) -> list[Command]:
        out = f"{round_dir}/indicators"
        return [Command("indicators", [
            "indicators", "--percentiles", "--census-year", str(inputs.CENSUS),
            "--journals", _rel(truth.input_files["journals"], run_dir),
            "--out", out, _rel(truth.input_files["corpus"], run_dir)], out)]

    def check(out: Path, truth, outcome: Outcome) -> None:
        checks.check_indicators(out, truth, outcome.exit, outcome.stderr,
                                field_property)

    return Workload(setup, commands, check, lambda truth: truth.refs)


def varcomp_workload() -> Workload:
    def setup(directory: Path, seed: int, scale: float = 1.0):
        return inputs.write_varcomp_inputs(directory, seed, scale)

    def commands(truth, run_dir: Path, round_dir: str) -> list[Command]:
        tables = [_rel(p, run_dir) for p in truth.indicator_files]
        pct = [_rel(p, run_dir) for p in truth.percentile_files]
        return [
            Command("varcomp", [
                "varcomp", "--fields", _rel(truth.fields_file, run_dir),
                "--n-perm", str(N_PERM), "--threads", "2",
                "--reference", inputs.VARCOMP_REFERENCE,
                "--out", f"{round_dir}/varcomp", *tables, *pct],
                f"{round_dir}/varcomp"),
            Command("correlate", ["correlate", "--out", f"{round_dir}/correlate",
                                  *tables], f"{round_dir}/correlate"),
            Command("rank", ["rank", "--pr6", "--out", f"{round_dir}/rank",
                             _rel(truth.rank_file, run_dir)], f"{round_dir}/rank"),
        ]

    def check(out: Path, truth, outcome: Outcome) -> None:
        name = outcome.command.name
        if name == "varcomp":
            checks.check_varcomp(out, truth, N_PERM, outcome.exit, outcome.stderr)
        elif name == "correlate":
            checks.check_correlate(out, truth, outcome.exit, outcome.stderr)
        else:
            checks.check_rank(out, truth, outcome.exit, outcome.stderr)

    return Workload(setup, commands, check,
                    lambda truth: len(truth.tables) * N_PERM)


WORKLOADS = {
    "indicators-shared": indicators_workload("shared", field_property=True),
    "indicators-distinct": indicators_workload("distinct", field_property=False),
    "varcomp-paper": varcomp_workload(),
}


def tree_digest(root: Path) -> dict[str, str]:
    """sha256 of every file under ``root``, keyed by relative path."""
    digests = {}
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digests[str(path.relative_to(root))] = hashlib.sha256(
            path.read_bytes()).hexdigest()
    return digests


def child_env() -> dict[str, str]:
    """The user's environment with the checkout's sources first and the
    numeric libraries held to one thread each, so ``--threads`` is the only
    source of parallelism."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.update(PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1",
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    return env


def execute(command: Command, run_dir: Path, env: dict[str, str],
            traced: bool) -> Outcome:
    """Run one command in a fresh process; wall time and peak RSS are the
    child's own (``wait4``)."""
    log = run_dir / "logs" / command.out.replace("/", "_")
    log.parent.mkdir(exist_ok=True)
    spans_path = log.with_suffix(".spans.json")
    if traced:
        argv = [sys.executable, str(TRACER), str(spans_path), *command.args]
    else:
        argv = [sys.executable, "-m", "jifnorm", *command.args]
    with open(log.with_suffix(".err"), "wb+") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=run_dir, env=env,
                                stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(COMMAND_TIMEOUT, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read().decode("utf-8", "replace")
    spans = {"spans": [], "counts": {}}
    if traced and spans_path.is_file():
        spans = json.loads(spans_path.read_text())
    return Outcome(command, wall, proc.returncode, usage.ru_maxrss / 1024,
                   stderr, spans)


@dataclass
class Round:
    wall: float
    outcomes: list[Outcome]
    output_bytes: int


class Run:
    """One benchmark run: set-up, then whole rounds of the workload."""

    def __init__(self, name: str, seed: int, run_dir: Path, scale: float = 1.0):
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.dir = run_dir
        self.scale = scale
        self.env = child_env()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reference: dict[str, tuple] = {}

    def setup(self) -> list[float]:
        """Build the inputs at least SETUPS times and for SETUP_SECONDS in
        all; they must be identical each time."""
        times, digest = [], None
        target = self.dir / "inputs"
        while len(times) < SETUPS or sum(times) < SETUP_SECONDS:
            shutil.rmtree(target, ignore_errors=True)
            start = time.perf_counter()
            self.truth = self.workload.setup(target, self.seed, self.scale)
            times.append(time.perf_counter() - start)
            again = tree_digest(target)
            if digest is not None and again != digest:
                raise RuntimeError("input generation is not deterministic")
            digest = again
        self.input_digest = digest
        return times

    def round(self, index: int, traced: bool) -> Round:
        round_dir = f"rounds/{index}"
        commands = self.workload.commands(self.truth, self.dir, round_dir)
        start = time.perf_counter()
        outcomes = [execute(c, self.dir, self.env, traced) for c in commands]
        wall = time.perf_counter() - start
        out_bytes = sum(p.stat().st_size for p in (self.dir / round_dir).rglob("*")
                        if p.is_file())
        for outcome in outcomes:
            self.attempted += 1
            problem = self.verify(outcome)
            if problem:
                self.failed += 1
                self.problems.append(f"{outcome.command.name}: {problem}")
        if tree_digest(self.dir / "inputs") != self.input_digest:
            self.failed += len(outcomes)
            self.problems.append("input files changed or new files appeared "
                                 "beside them")
        shutil.rmtree(self.dir / round_dir)
        return Round(wall, outcomes, out_bytes)

    def verify(self, outcome: Outcome) -> str | None:
        """Full check on the first run of a command; later runs must give
        byte-identical outputs, stderr and exit code."""
        out = self.dir / outcome.command.out
        seen = (outcome.exit, outcome.stderr, tree_digest(out))
        name = outcome.command.name
        if name in self.reference:
            if seen != self.reference[name]:
                return "output differs from the first round"
            return None
        self.reference[name] = seen
        try:
            self.workload.check(out, self.truth, outcome)
        except Exception as exc:  # a malformed output must count, not crash
            return f"{type(exc).__name__}: {exc}"
        return None

    def measure(self, seconds: float, traced: bool) -> list[Round]:
        rounds: list[Round] = []
        start = time.perf_counter()
        while not rounds or (time.perf_counter() - start + rounds[-1].wall
                             <= seconds):
            rounds.append(self.round(len(rounds), traced))
        return rounds


def end_to_end(run: Run, setup_times: list[float], rounds: list[Round]) -> dict:
    wall = statistics.median(r.wall for r in rounds)
    return {
        "wall_s": wall,
        "items_per_s": run.workload.items(run.truth) / wall,
        "peak_rss_mb": statistics.median(max(o.rss_mb for o in r.outcomes)
                                         for r in rounds),
        "setup_s": statistics.median(setup_times),
    }


SPAN_METRICS = {
    "corpus.load_journals_s": ("corpus.load_journals",),
    "corpus.load_s": ("corpus.load",), "corpus.merge_s": ("corpus.merge",),
    "refmatch.match_s": ("refmatch.match",),
    "counts.integer_s": ("counts.integer",),
    "counts.fractional_s": ("counts.fractional",),
    "counts.fractional_plus_s": ("counts.fractional_plus",),
    "counts.total_s": ("counts.integer", "counts.fractional",
                       "counts.fractional_plus"),
    "indicators.denominator_s": ("indicators.denominator",),
    "indicators.ratio_s": ("indicators.ratio",),
    "percentile.build_s": ("percentile.build",),
    "cli.write_s": ("cli.write",), "cli.manifest_s": ("cli.manifest",),
    "stats.read_s": ("stats.read",), "stats.moments_s": ("stats.moments",),
    "stats.permutation_s": ("stats.permutation",),
    "stats.correlation_s": ("stats.correlation",),
}
COUNT_METRICS = ("corpus.docs", "corpus.load_errors", "corpus.rss_after_load_mb",
                 "refmatch.refs", "refmatch.matched_refs", "refmatch.rss_after_match_mb",
                 "counts.counted_refs", "indicators.undefined", "stats.pairs")


def layer_metrics(rnd: Round) -> dict[str, float]:
    """Per-layer metrics of one traced round; layers that did not run read 0."""
    by_span: dict[str, float] = {}
    counts: dict[str, float] = {}
    for outcome in rnd.outcomes:
        for name, start, end in outcome.spans["spans"]:
            by_span[name] = by_span.get(name, 0.0) + (end - start)
        for name, value in outcome.spans["counts"].items():
            counts[name] = counts.get(name, 0) + value
    metrics = {m: sum(by_span.get(s, 0.0) for s in spans)
               for m, spans in SPAN_METRICS.items()}
    metrics.update({m: counts.get(m, 0) for m in COUNT_METRICS})

    def rate(work: float, seconds: float) -> float:
        return work / seconds if seconds > 0 else 0.0

    metrics["refmatch.refs_per_s"] = rate(metrics["refmatch.refs"],
                                          metrics["refmatch.match_s"])
    metrics["stats.perms_per_s"] = rate(counts.get("stats.permutations", 0),
                                        metrics["stats.permutation_s"])
    metrics["cli.output_bytes"] = rnd.output_bytes
    metrics["trace.coverage"] = sum(by_span.values()) / rnd.wall
    metrics["trace.wall_s"] = rnd.wall
    return metrics


def per_layer(run: Run, rounds: list[Round]) -> dict:
    each = [layer_metrics(r) for r in rounds]
    values = {m: statistics.median(e[m] for e in each)
              for m in PER_LAYER_UNITS if m != "refmatch.distinct_refs"}
    # a fact of the inputs, known to the generator; 0 where refmatch is idle
    values["refmatch.distinct_refs"] = getattr(run.truth, "distinct_refs", 0)
    return values


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "jifnorm" / "cli.py").is_file():
        print(f"error: no jifnorm sources under {SRC}; run from the root of a "
              "source checkout", file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        run = Run(args.workload, args.seed % 2**64, run_dir)
        setup_times = run.setup()
        rounds = run.measure(args.seconds, traced=bool(args.trace))
        if args.trace:
            values, units = per_layer(run, rounds), PER_LAYER_UNITS
        else:
            values, units = end_to_end(run, setup_times, rounds), END_TO_END_UNITS
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run is still using it

    for problem in run.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"{args.workload}: {len(rounds)} rounds, {run.attempted} commands, "
          f"round walls {' '.join(f'{r.wall:.3f}' for r in rounds)} s",
          file=sys.stderr)
    result = {"correct": not run.problems, "attempted": run.attempted,
              "failed": run.failed,
              "metrics": {m: {"value": values[m], "unit": u}
                          for m, u in units.items()}}
    print(json.dumps(result))
    return 0 if not run.problems else 1


if __name__ == "__main__":
    sys.exit(main())
