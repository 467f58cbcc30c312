"""Output checkers: every file a workload's commands write is compared
with values the benchmark computes itself, from the generator's ground
truth or from the written inputs, never by calling ``jifnorm``.

Each checker raises :class:`CheckError` on the first mismatch.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from inputs import (CENSUS, VARCOMP_REFERENCE, IndicatorTruth, VarcompTruth,
                    percentile_ranks, pr6_classes)


class CheckError(Exception):
    pass


def read_tsv(path: Path) -> tuple[list[str], list[list[str]]]:
    """Header and rows of a TSV, skipping ``#`` comment lines."""
    if not path.is_file():
        raise CheckError(f"missing output {path.name}")
    lines = [line for line in path.read_text(encoding="utf-8").split("\n")
             if line and not line.startswith("#")]
    if not lines:
        raise CheckError(f"{path.name}: no header")
    return lines[0].split("\t"), [line.split("\t") for line in lines[1:]]


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def _close(got: float, want: float, rel: float, abs_: float) -> bool:
    return abs(got - want) <= rel * abs(want) + abs_


def _column(path: Path, header: list[str]) -> dict[str, str]:
    """Last column of a TSV keyed by its first, with the header checked."""
    got_header, rows = read_tsv(path)
    _expect(got_header == header, f"{path.name}: header {got_header}")
    values = {}
    for row in rows:
        _expect(len(row) == len(header), f"{path.name}: row {row}")
        _expect(row[0] not in values, f"{path.name}: {row[0]} listed twice")
        values[row[0]] = row[-1]
    return values


def moment_components(values: np.ndarray, labels: np.ndarray
                      ) -> tuple[float, float, float]:
    """(sigma2_between, sigma2_within, eta2): one-way random-effects
    components by the method of moments, written out from the textbook
    formulas."""
    groups = np.unique(labels)
    k, n = groups.size, values.size
    grand = values.mean()
    ss_between = ss_within = 0.0
    sizes = []
    for g in groups:
        x = values[labels == g]
        sizes.append(x.size)
        ss_between += x.size * (x.mean() - grand) ** 2
        ss_within += ((x - x.mean()) ** 2).sum()
    ms_between = ss_between / (k - 1)
    ms_within = ss_within / (n - k)
    n0 = (n - sum(s * s for s in sizes) / n) / (k - 1)
    return (max(0.0, (ms_between - ms_within) / n0), ms_within,
            ss_between / (ss_between + ss_within))


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_manifest(out: Path, command: str, inputs: list[Path]) -> None:
    path = out / "manifest.json"
    _expect(path.is_file(), f"{command}: no manifest.json")
    manifest = json.loads(path.read_text(encoding="utf-8"))
    _expect(manifest.get("command") == command, f"manifest command {manifest}")
    written = sorted(str(p.relative_to(out)) for p in out.rglob("*")
                     if p.is_file() and p.name != "manifest.json")
    _expect(sorted(manifest["outputs"]) == written,
            f"{command}: manifest outputs {manifest['outputs']} vs {written}")
    hashes = {Path(k).name: v for k, v in manifest["inputs"].items()}
    for p in inputs:
        _expect(hashes.get(p.name) == _sha256(p),
                f"{command}: manifest hash of {p.name}")


def _warnings(stderr: str) -> list[str]:
    lines = [line for line in stderr.splitlines() if line.strip()]
    bad = [line for line in lines if not line.startswith("warning: ")]
    _expect(not bad, f"unexpected stderr: {bad[:3]}")
    return [line[len("warning: "):] for line in lines]


# ------------------------------------------------------------- indicators

QUASI_IF = {"IF2-IC": ("TC-IC2", "two_year"), "IF5-IC": ("TC-IC5", "five_year"),
            "IF2-FC": ("TC-FC2", "two_year"), "IF5-FC": ("TC-FC5", "five_year"),
            "IF2-FC+": ("TC-FC2+", "two_year"), "IF5-FC+": ("TC-FC5+", "five_year"),
            "FC/P": ("TC-FC", "census_only")}
PERCENTILE_IDS = ("TC-IC", "TC-IC2", "TC-IC5", "TC-FC", "TC-FC2", "TC-FC5",
                  "TC-FC2+", "TC-FC5+", "FC/P", "IF2-Num", "IF5-Num",
                  "IF2-Denom", "IF5-Denom")
# a 9-decimal total is within 5e-10 of the program's value; a 6-decimal
# value within 5e-7
FC_TOL = (1e-9, 5.01e-10)
SIX_TOL = (1e-9, 5.01e-7)


def _file(indicator_id: str) -> str:
    return indicator_id.replace("/", "_") + ".tsv"


def check_indicators(out: Path, truth: IndicatorTruth, exit_code: int,
                     stderr: str, field_property: bool) -> None:
    """Check an `indicators --percentiles` output directory."""
    ids = truth.journal_ids
    written: dict[str, dict[str, float]] = {}

    # citation totals: integers exact, fractional within FC_TOL
    for var, expected in truth.totals.items():
        col = _column(out / _file(var), ["journal_id", "window", "mode", "value"])
        _expect(sorted(col) == ids, f"{var}: journal set")
        for j, jid in enumerate(ids):
            if "IC" in var:
                _expect(col[jid] == str(int(expected[j])),
                        f"{var} {jid}: {col[jid]} != {int(expected[j])}")
            else:
                _expect(_close(float(col[jid]), float(expected[j]), *FC_TOL),
                        f"{var} {jid}: {col[jid]} != {expected[j]!r}")
        written[var] = {k: float(v) for k, v in col.items()}

    # quasi impact factors, undefined sidecars and their warnings
    expected_warnings = [f"corpus.jsonl:{n}" for n in truth.malformed_lines]
    undefined_warnings = []
    for ind, (var, window) in QUASI_IF.items():
        den = truth.denominators[window]
        num = truth.totals[var]
        col = _column(out / _file(ind), ["journal_id", "indicator_id", "value"])
        defined = [jid for j, jid in enumerate(ids) if den[j] > 0]
        undefined = [jid for j, jid in enumerate(ids) if den[j] == 0]
        _expect(sorted(col) == defined, f"{ind}: defined journal set")
        for j, jid in enumerate(ids):
            if den[j] == 0:
                continue
            if "IC" in var:
                _expect(col[jid] == f"{int(num[j]) / int(den[j]):.6f}",
                        f"{ind} {jid}: {col[jid]}")
            else:
                _expect(_close(float(col[jid]), num[j] / den[j], *SIX_TOL),
                        f"{ind} {jid}: {col[jid]} != {num[j] / den[j]!r}")
        sidecar = out / (_file(ind) + ".undefined")
        if undefined:
            _, rows = read_tsv(sidecar)
            _expect([r[0] for r in rows] == undefined, f"{ind}: sidecar list")
            undefined_warnings.append(
                f"{ind}: {len(undefined)} journals have a zero denominator")
        else:
            _expect(not sidecar.exists(), f"{ind}: unexpected sidecar")
        written[ind] = {k: float(v) for k, v in col.items()}

    # aliases: numerators and denominators as indicators
    aliases = {"IF2-Num": truth.totals["TC-IC2"], "IF5-Num": truth.totals["TC-IC5"],
               "IF2-Denom": truth.denominators["two_year"],
               "IF5-Denom": truth.denominators["five_year"],
               f"Items{CENSUS}": truth.denominators["census_only"]}
    for ind, expected in aliases.items():
        col = _column(out / _file(ind), ["journal_id", "indicator_id", "value"])
        _expect(col == {jid: f"{float(expected[j]):.6f}"
                        for j, jid in enumerate(ids)}, f"{ind}: values")
        written[ind] = {k: float(v) for k, v in col.items()}

    # wide table: one column per variable, blank where undefined
    header, rows = read_tsv(out / "indicators_wide.tsv")
    _expect(header[0] == "journal_id" and len(rows) == len(ids),
            "indicators_wide.tsv: shape")
    for c, name in enumerate(header[1:], start=1):
        col = written.get(name)
        _expect(col is not None, f"indicators_wide.tsv: column {name}")
        for row in rows:
            value = col.get(row[0])
            if value is None:
                _expect(row[c] == "", f"wide {name} {row[0]}: not blank")
            else:
                _expect(_close(float(row[c]), value, *SIX_TOL),
                        f"wide {name} {row[0]}: {row[c]} != {value}")

    check_percentiles(out / "percentiles.tsv",
                      {ind: written[ind] for ind in PERCENTILE_IDS})

    # warnings: one per planted malformed record, one per undefined table
    warnings = _warnings(stderr)
    load = [w.split(": ", 1)[0] for w in warnings if w.startswith("corpus.jsonl:")]
    _expect(sorted(load) == sorted(expected_warnings),
            f"load-error warnings {load} != {expected_warnings}")
    rest = [w for w in warnings if not w.startswith("corpus.jsonl:")]
    _expect(rest == undefined_warnings, f"warnings {rest}")
    _expect(exit_code == (1 if warnings else 0), f"exit code {exit_code}")
    check_manifest(out, "indicators", list(truth.input_files.values()))

    if field_property:
        # fractional counting removes most of the between-field variance
        field_of = dict(zip(ids, truth.field_codes))
        comps = {}
        for ind in ("IF5-IC", "IF5-FC"):
            jids = sorted(written[ind])
            comps[ind] = moment_components(
                np.array([written[ind][j] for j in jids]),
                np.array([field_of[j] for j in jids]))[0]
        _expect(comps["IF5-FC"] <= comps["IF5-IC"] / 5,
                f"between-field variance IF5-FC {comps['IF5-FC']:.4g} > "
                f"IF5-IC {comps['IF5-IC']:.4g} / 5")


def check_percentiles(path: Path, sources: dict[str, dict[str, float]]) -> None:
    """PR100 and PR6 recomputed from the written indicator values.

    The program ranks unrounded values. Where two written values lie within
    the written resolution of each other their order is unknown, so the
    count of lower journals may fall anywhere in the range such near-ties
    allow; everywhere else it must be exact.
    """
    header, rows = read_tsv(path)
    _expect(header == ["journal_id", "indicator_id", "pr100", "pr6"],
            f"{path.name}: header {header}")
    by_ind: dict[str, dict[str, tuple[str, str]]] = {}
    for row in rows:
        _expect(len(row) == 4, f"{path.name}: row {row}")
        by_ind.setdefault(row[1], {})[row[0]] = (row[2], row[3])
    _expect(list(by_ind) == list(sources),
            f"{path.name}: indicators {list(by_ind)}")
    for ind, values in sources.items():
        got = by_ind[ind]
        _expect(sorted(got) == sorted(values), f"{path.name} {ind}: journals")
        jids = sorted(values)
        v = np.array([values[j] for j in jids])
        n = v.size
        integral = bool(np.all(v == np.round(v)))
        tol = 0.0 if integral else 1.01 * 10.0 ** -(6 if ind == "FC/P" else 9)
        ordered = np.sort(v)
        lo = np.searchsorted(ordered, v - tol, side="left")
        hi = np.searchsorted(ordered, v + tol, side="left") - (1 if tol else 0)
        for i, jid in enumerate(jids):
            pr100, pr6 = got[jid]
            below = round(float(pr100) * n / 100.0)
            _expect(abs(float(pr100) - 100.0 * below / n) <= 5.01e-5,
                    f"{ind} {jid}: pr100 {pr100} is no rank")
            _expect(lo[i] <= below <= max(hi[i], lo[i]),
                    f"{ind} {jid}: pr100 {pr100}, expected "
                    f"{100.0 * lo[i] / n:.4f}")
            cls = pr6_classes(np.array([100.0 * below / n]))[0]
            _expect(pr6 == str(cls), f"{ind} {jid}: pr6 {pr6} != {cls}")


# ---------------------------------------------------------------- varcomp

def check_varcomp(out: Path, truth: VarcompTruth, n_perm: int, exit_code: int,
                  stderr: str) -> None:
    _expect(exit_code == 0 and not _warnings(stderr),
            f"varcomp exit {exit_code}: {stderr[:200]}")
    header, rows = read_tsv(out / "varcomp.tsv")
    _expect(header == ["indicator_id", "sigma2_between", "sigma2_within",
                       "eta2", "perm_p", "groups_used"], f"varcomp header {header}")
    _expect([r[0] for r in rows] == list(truth.tables),
            f"varcomp rows {[r[0] for r in rows]}")
    own = {}
    for row in rows:
        ind = row[0]
        values = truth.tables[ind]
        jids = sorted(values)
        x = np.array([values[j] for j in jids])
        labels = np.array([truth.assignment[j] for j in jids])
        sb, sw, eta2 = moment_components(x, labels)
        own[ind] = sb
        got_sb, got_sw, got_eta2, p = (float(c) for c in row[1:5])
        _expect(_close(got_sb, sb, 2e-8, 1e-10 * sw), f"{ind}: sigma2_between "
                f"{row[1]} != {sb!r}")
        _expect(_close(got_sw, sw, 2e-8, 0.0), f"{ind}: sigma2_within {row[2]}")
        _expect(_close(got_eta2, eta2, 2e-8, 1e-12), f"{ind}: eta2 {row[3]}")
        _expect(row[5] == str(len(set(labels))), f"{ind}: groups_used {row[5]}")
        scaled = p * (n_perm + 1)
        _expect(abs(scaled - round(scaled)) < 1e-6
                and 1 <= round(scaled) <= n_perm + 1,
                f"{ind}: perm_p {row[4]} is not k/(n_perm+1)")
        if ind in truth.strong:
            _expect(round(scaled) == 1, f"{ind}: strong effect has p {row[4]}")

    # dispersion (variance over mean) per field
    disp = {}
    for ind, field_code, value in read_tsv(out / "varcomp_dispersion.tsv")[1]:
        disp[(ind, field_code)] = float(value)
    for ind, values in truth.tables.items():
        for code in sorted(set(truth.assignment.values())):
            x = np.array([v for j, v in values.items()
                          if truth.assignment[j] == code])
            want = x.var(ddof=1) / x.mean()
            _expect(_close(disp.get((ind, code), np.nan), want, 2e-8, 0.0),
                    f"dispersion {ind} {code}")
    _expect(len(disp) == len(truth.tables) * len(set(truth.assignment.values())),
            "dispersion row count")

    header, rows = read_tsv(out / "varcomp_reduction.tsv")
    ref = own[VARCOMP_REFERENCE]
    expected = [ind for ind in truth.tables if ind != VARCOMP_REFERENCE]
    _expect([r[0] for r in rows] == expected, "reduction rows")
    for ind, reference, value in rows:
        _expect(reference == VARCOMP_REFERENCE, f"reduction reference {reference}")
        _expect(_close(float(value), (ref - own[ind]) / ref, 2e-8, 1e-9),
                f"{ind}: variance reduction {value}")
    check_manifest(out, "varcomp", truth.indicator_files + truth.percentile_files
                   + [truth.fields_file])


def average_ranks(x: np.ndarray) -> np.ndarray:
    order = np.argsort(x, kind="stable")
    xs = x[order]
    first = np.concatenate([[True], xs[1:] != xs[:-1]])
    starts = np.flatnonzero(first)
    ends = np.concatenate([starts[1:], [x.size]]) - 1
    ranks = np.empty(x.size)
    ranks[order] = ((starts + ends) / 2.0 + 1.0)[np.cumsum(first) - 1]
    return ranks


def pearson(x: np.ndarray, y: np.ndarray) -> float:
    dx, dy = x - x.mean(), y - y.mean()
    return float((dx * dy).sum() / np.sqrt((dx * dx).sum() * (dy * dy).sum()))


def check_correlate(out: Path, truth: VarcompTruth, exit_code: int,
                    stderr: str) -> None:
    _expect(exit_code == 0 and not _warnings(stderr), f"correlate exit {exit_code}")
    ids = [t for t in truth.tables if ":" not in t]
    common = sorted(set.intersection(*(set(truth.tables[t]) for t in ids)))
    data = [np.array([truth.tables[t][j] for j in common]) for t in ids]
    text = (out / "correlation_matrix.tsv").read_text(encoding="utf-8")
    _expect(f"# n_journals\t{len(common)}\n" in text, "correlate n_journals")
    header, rows = read_tsv(out / "correlation_matrix.tsv")
    _expect(header == ["indicator_id"] + ids, f"correlate header {header}")
    for i, row in enumerate(rows):
        _expect(row[0] == ids[i] and row[i + 1] == "", f"correlate row {row[:2]}")
        for j in range(len(ids)):
            if i == j:
                continue
            want = (pearson(average_ranks(data[i]), average_ranks(data[j]))
                    if i < j else pearson(data[i], data[j]))
            _expect(_close(float(row[j + 1]), want, 0.0, 5.01e-5),
                    f"correlation {ids[i]}/{ids[j]}: {row[j + 1]} != {want:.6f}")
    check_manifest(out, "correlate", truth.indicator_files)


def check_rank(out: Path, truth: VarcompTruth, exit_code: int,
               stderr: str) -> None:
    _expect(exit_code == 0 and not _warnings(stderr), f"rank exit {exit_code}")
    ind = VARCOMP_REFERENCE
    jids = sorted(truth.tables[ind])
    pr100 = percentile_ranks(np.array([truth.tables[ind][j] for j in jids]))
    pr6 = pr6_classes(pr100)
    want = [[j, ind, f"{p:.4f}", "6"] for j, p, c in zip(jids, pr100, pr6)
            if c == 6]
    header, rows = read_tsv(out / "ranking.tsv")
    _expect(header == ["journal_id", "indicator_id", "pr100", "pr6"],
            f"ranking header {header}")
    _expect(rows == want, f"ranking rows: {len(rows)} vs {len(want)} expected")
    check_manifest(out, "rank", [truth.rank_file])

