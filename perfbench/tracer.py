"""Run one ``jifnorm`` command with a span around each call into a layer.

Usage: ``python tracer.py SPANS.json ARG...`` runs ``jifnorm ARG...`` in
this process, exactly as ``python -m jifnorm ARG...`` would, after
replacing the public functions the CLI calls with wrappers that time
them. Only the outermost wrapped call is timed, so spans never overlap
and their sum is comparable with the command's wall time. Spans, counts
taken at the same boundaries, and the exit code go to SPANS.json.
"""

import json
import resource
import sys
import time


def rss_mb() -> float:
    """Resident set size of this process now (peak so far where /proc is
    not available)."""
    try:
        with open("/proc/self/statm") as fh:
            pages = int(fh.read().split()[1])
        return pages * resource.getpagesize() / 2**20
    except OSError:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float]] = []
        self.counts: dict[str, float] = {}
        self.depth = 0

    def add(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def wrap(self, owner, attr: str, name, after=None) -> None:
        """Replace ``owner.attr`` by a timed wrapper. ``name`` is a span name
        or a function of the call's arguments; ``after(result, args,
        kwargs)`` records counts once the span has ended."""
        fn = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            if self.depth:
                return fn(*args, **kwargs)
            self.depth += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.depth -= 1
                label = name(*args, **kwargs) if callable(name) else name
                self.spans.append((label, start, end))
            if after is not None:
                after(result, args, kwargs)
            return result

        setattr(owner, attr, wrapper)


def _count_kind(corpus, journals, window, mode, **_):
    if mode.counting == "integer":
        return "counts.integer"
    if mode.fraction_base == "all_refs":
        return "counts.fractional_plus"
    return "counts.fractional"


def instrument(tracer: Tracer) -> None:
    from jifnorm import cli, corpus, counts, indicators, stats

    def after_load(result, args, kwargs):
        tracer.add("corpus.docs", len(result.documents))
        tracer.add("corpus.load_errors", len(result.load_errors))
        tracer.counts["corpus.rss_after_load_mb"] = rss_mb()

    def after_match(result, args, kwargs):
        tracer.add("refmatch.refs", int(result.status.size))
        tracer.add("refmatch.matched_refs", int((result.journal_index >= 0).sum()))
        tracer.counts["refmatch.rss_after_match_mb"] = rss_mb()

    def after_count(result, args, kwargs):
        if result.window.kind == "all_years" and result.mode.counting == "integer":
            tracer.add("counts.counted_refs", sum(result.values.values()))

    def after_ratio(result, args, kwargs):
        tracer.add("indicators.undefined", len(result.undefined_journals))

    def after_permutation(result, args, kwargs):
        tracer.add("stats.permutations", kwargs.get("n_perm", 999))

    def after_correlation(result, args, kwargs):
        k = len(result.ids)
        tracer.add("stats.pairs", k * (k - 1) // 2)

    wrap = tracer.wrap
    wrap(corpus, "load_journals", "corpus.load_journals")
    wrap(corpus, "load_corpus", "corpus.load", after_load)
    wrap(corpus, "merge_journal_parts", "corpus.merge")
    wrap(cli, "match_corpus", "refmatch.match", after_match)
    wrap(cli, "count_citations", _count_kind, after_count)
    wrap(cli, "compute_denominator", "indicators.denominator")
    for attr in ("quasi_if", "fc_over_p"):
        wrap(cli, attr, "indicators.ratio", after_ratio)
    for attr in ("denominator_indicator", "count_indicator"):
        wrap(cli, attr, "indicators.ratio")
    wrap(cli, "build_percentiles", "percentile.build")
    for owner in (counts.CountTable, indicators.IndicatorTable,
                  stats.CorrelationMatrix):
        wrap(owner, "to_tsv", "cli.write")
    wrap(cli, "write_rows", "cli.write")
    wrap(cli, "write_manifest", "cli.manifest")
    for owner, attr in ((cli, "_load_varcomp_tables"), (cli, "read_indicator_table"),
                        (stats, "load_field_scheme")):
        wrap(owner, attr, "stats.read")
    wrap(stats, "varcomp_moments", "stats.moments")
    wrap(stats, "permutation_test", "stats.permutation", after_permutation)
    wrap(stats, "correlation_matrix", "stats.correlation", after_correlation)


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    instrument(tracer)
    from jifnorm import cli

    code = 2
    try:
        code = cli.main(argv)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"spans": tracer.spans, "counts": tracer.counts,
                       "exit": code}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
