"""Seeded input generation for the benchmark workloads.

Everything here is the benchmark's own code: it imports nothing from
``jifnorm``. Besides writing the input files, each generator returns the
ground truth the checkers compare the program's outputs against, computed
from the generator's own arrays (cited journal, cited year, citing
document) rather than from the strings the program parses.

The journal population mirrors the paper's design: 3,705 journals in 11
broad fields that differ in reference-list length and citation half-life.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

CENSUS = 2010
YEARS_BACK = 15            # oldest regular cited year is CENSUS - YEARS_BACK
CITABLE = ("article", "review")

# code, journals, mean reference-list length, citation half-life (years)
FIELDS = (
    ("BIO", 420, 38.0, 7.0),
    ("BMR", 520, 45.0, 4.0),
    ("CHE", 380, 30.0, 5.0),
    ("CLM", 900, 26.0, 5.0),
    ("EAS", 260, 34.0, 8.0),
    ("ENG", 420, 18.0, 6.0),
    ("HLT", 130, 24.0, 6.0),
    ("MTH", 230, 14.0, 11.0),
    ("PHY", 240, 22.0, 5.0),
    ("PSY", 105, 40.0, 9.0),
    ("SOC", 100, 36.0, 10.0),
)

# citing documents per journal in the census year, cycled over the
# journals: mean 13.5, so 3,705 journals give ~50k documents and ~1.4M
# references, 0.1x the acceptance corpus (498,960 documents)
DOCS_PER_JOURNAL = (11, 12, 13, 14, 15, 16)

# journals per special role (at scale 1)
N_SPLIT = 60        # journals listed as two merge_group parts
N_UNDECLARED = 30   # no declared item counts: denominators from the corpus
N_CEASED = 15       # items up to CENSUS-2 only, no citing documents
N_NEW = 15          # items in the census year only
CROSS_FIELD_MIX = 0.03
SPLIT_B_SHARE = 0.3     # share of citations to a split journal naming part B
ALIAS_SHARE = 0.1       # distinct layout: citations using the second abbreviation


# counting windows (inclusive year bounds) keyed by variable-id suffix
WINDOWS = {"": (1900, CENSUS), "2": (CENSUS - 2, CENSUS - 1),
           "5": (CENSUS - 5, CENSUS - 1)}


@dataclass
class Journals:
    """The merged (canonical) journal population plus the master rows."""

    ids: list[str]                  # canonical ids, sorted
    field_codes: list[str]          # per canonical journal
    size: np.ndarray                # citing documents in the census year
    weight: np.ndarray              # citation attractiveness (quality * size)
    items: list[dict[int, int]]     # declared items by year ({} = undeclared)
    part_b: dict[int, str]          # canonical index -> part-B id
    abbrevs: list[list[str]]        # per canonical journal, part A first
    abbrev_b: dict[int, str]        # canonical index -> part B's abbreviation
    master_rows: list[str]


def field_sizes(scale: float) -> list[int]:
    return [max(12, round(n * scale)) for _, n, _, _ in FIELDS]


def make_journals(rng: np.random.Generator, scale: float = 1.0) -> Journals:
    sizes = field_sizes(scale)
    n = sum(sizes)
    field_idx = rng.permutation(np.repeat(np.arange(len(FIELDS)), sizes))
    ids = [f"J{i + 1:04d}" for i in range(n)]
    codes = [FIELDS[f][0] for f in field_idx]
    size = rng.permutation(np.resize(DOCS_PER_JOURNAL, n))
    quality = rng.lognormal(0.0, 1.0, size=n)

    def count(k: int) -> int:
        return max(2, round(k * scale))

    roles = rng.permutation(n)
    cut = np.cumsum([count(N_SPLIT), count(N_UNDECLARED), count(N_CEASED),
                     count(N_NEW)])
    split, undeclared, ceased, new = np.split(roles[:cut[-1]], cut[:-1])

    items: list[dict[int, int]] = []
    for j in range(n):
        per_year = rng.integers(size[j], size[j] + 2, size=YEARS_BACK + 1)
        items.append({CENSUS - YEARS_BACK + a: int(c)
                      for a, c in enumerate(per_year)})
    for j in undeclared:
        items[j] = {}
    for j in ceased:
        items[j] = {y: c for y, c in items[j].items() if y <= CENSUS - 2}
        size[j] = 0
    for j in new:
        items[j] = {CENSUS: items[j][CENSUS]}

    abbrevs = [[f"{codes[j]} J {j + 1:04d}", f"{codes[j]} JNL {j + 1:04d}"]
               for j in range(n)]
    part_b = {int(j): f"{ids[j]}-B" for j in split}
    abbrev_b = {j: f"{codes[j]} J {j + 1:04d} SECT B" for j in part_b}

    rows = ["# journal_id\tfull_name\tabbrevs\tfield\tmerge_group\tyear=count..."]
    for j in range(n):
        group = f"MG{j + 1:04d}" if j in part_b else ""
        own = items[j]
        if j in part_b:
            own = {y: c - c // 2 for y, c in items[j].items()}
        rows.append(_master_row(ids[j], f"Journal {j + 1} of {codes[j]}",
                                abbrevs[j], codes[j], group, own))
        if j in part_b:
            rows.append(_master_row(part_b[j], f"Journal {j + 1} of {codes[j]}, B",
                                    [abbrev_b[j]], codes[j], group,
                                    {y: c // 2 for y, c in items[j].items()}))
    return Journals(ids=ids, field_codes=codes, size=size,
                    weight=quality * np.maximum(size, 1), items=items,
                    part_b=part_b, abbrevs=abbrevs, abbrev_b=abbrev_b,
                    master_rows=rows)


def _master_row(jid, name, abbrevs, code, group, items) -> str:
    pairs = [f"{y}={c}" for y, c in sorted(items.items())]
    return "\t".join([jid, name, "|".join(abbrevs), code, group] + pairs)


@dataclass
class IndicatorTruth:
    """Expected `indicators` results, keyed by canonical journal id."""

    journal_ids: list[str]
    field_codes: list[str]
    totals: dict[str, np.ndarray]        # TC-* variable id -> per journal
    denominators: dict[str, np.ndarray]  # two_year / five_year / census_only
    refs: int                            # references in loadable documents
    distinct_refs: int                   # distinct raw strings among them
    malformed_lines: list[int]           # corpus line numbers planted as bad
    input_files: dict[str, Path]


# ---------------------------------------------------------------- corpora

_SURNAMES = ("SMITH", "WANG", "MUELLER", "GARCIA", "TANAKA", "KOWALSKI",
             "ROSSI", "DUBOIS", "OKAFOR", "SILVA", "NGUYEN", "JOHANSSON",
             "PATEL", "IVANOV", "KIM", "LOPEZ", "MURPHY", "COHEN", "SATO",
             "BERG", "NOVAK", "HUBER", "LARSEN", "MORAN", "KHAN", "YILMAZ")
_INVALID_YEAR_TOKENS = ("19", "2OO8", "n.d.", "20085", "")


def _age_probs(half_life: float) -> np.ndarray:
    ages = np.arange(YEARS_BACK + 1, dtype=np.float64)
    p = 0.5 ** (ages / half_life)
    p[0] *= 0.3                    # few citations to the census year itself
    return p / p.sum()


def write_indicator_inputs(out: Path, seed: int, layout: str,
                           scale: float = 1.0) -> IndicatorTruth:
    """Write ``journals.tsv`` and ``corpus.jsonl`` for an `indicators` run.

    ``layout`` is ``"shared"`` (structured ``VENUE|YEAR`` strings, clean
    records) or ``"distinct"`` (comma layout with author, volume and page,
    so nearly every string is distinct, plus planted noise).
    """
    distinct = layout == "distinct"
    rng = np.random.default_rng([seed, 1 if distinct else 0])
    jr = make_journals(rng, scale)
    n_j = len(jr.ids)
    field_of = np.array([[c for c, *_ in FIELDS].index(c) for c in jr.field_codes])

    # citing documents: `size` per journal, published in the census year
    doc_j = np.repeat(np.arange(n_j), jr.size)
    n_docs = doc_j.size
    doc_f = field_of[doc_j]
    mean_len = np.array([m for _, _, m, _ in FIELDS])[doc_f]
    nrefs = np.maximum(rng.poisson(mean_len), 1)
    if distinct:
        types = rng.choice(["article", "review", "letter", "other"], size=n_docs,
                           p=[0.80, 0.08, 0.07, 0.05])
        extra = np.where(rng.random(n_docs) < 0.05,
                         rng.integers(1, 10, size=n_docs), 0)
    else:
        types = rng.choice(["article", "review"], size=n_docs, p=[0.92, 0.08])
        extra = np.zeros(n_docs, dtype=np.int64)
    declared = nrefs + extra
    in_b = np.array([j in jr.part_b for j in doc_j]) & (rng.random(n_docs) < 0.5)

    # references: cited journal (canonical index or -1) and cited year
    ref_doc = np.repeat(np.arange(n_docs), nrefs)
    n_refs = ref_doc.size
    ref_f = doc_f[ref_doc]
    target = np.empty(n_refs, dtype=np.int64)
    age = np.empty(n_refs, dtype=np.int64)
    for f, (_, _, _, half_life) in enumerate(FIELDS):
        sel = np.flatnonzero(ref_f == f)
        members = np.flatnonzero(field_of == f)
        w = jr.weight[members]
        target[sel] = rng.choice(members, size=sel.size, p=w / w.sum())
        age[sel] = rng.choice(YEARS_BACK + 1, size=sel.size,
                              p=_age_probs(half_life))
    cross = rng.random(n_refs) < CROSS_FIELD_MIX
    target[cross] = rng.choice(n_j, size=int(cross.sum()),
                               p=jr.weight / jr.weight.sum())
    year = CENSUS - age
    valid = np.ones(n_refs, dtype=bool)
    if distinct:
        nonsource = rng.random(n_refs) < 0.15
        target[nonsource] = -1
        u = rng.random(n_refs)
        invalid = u < 0.015
        pre1900 = (u >= 0.015) & (u < 0.020)
        future = (u >= 0.020) & (u < 0.025)
        year[pre1900] = rng.integers(1800, 1900, size=int(pre1900.sum()))
        year[future] = rng.integers(CENSUS + 1, CENSUS + 6, size=int(future.sum()))
        valid = ~(invalid | pre1900 | future)
    year_token = [str(y) for y in year.tolist()]
    if distinct:
        bad_tok = rng.integers(0, len(_INVALID_YEAR_TOKENS), size=n_refs)
        for i in np.flatnonzero(invalid).tolist():
            year_token[i] = _INVALID_YEAR_TOKENS[bad_tok[i]]

    venues = _venue_strings(rng, jr, target, distinct)
    if distinct:
        surname = rng.integers(0, len(_SURNAMES), size=n_refs).tolist()
        initials = rng.integers(0, 26 * 26, size=n_refs).tolist()
        vol = rng.integers(1, 400, size=n_refs).tolist()
        page = rng.integers(1, 10000, size=n_refs).tolist()
        raw = [f"{_SURNAMES[s]} {chr(65 + i // 26)}{chr(65 + i % 26)}, {y}, {v}, "
               f"V{vo}, P{p}"
               for s, i, y, v, vo, p in zip(surname, initials, year_token,
                                            venues, vol, page)]
    else:
        raw = [f"{v}|{y}" for v, y in zip(venues, year_token)]

    # corpus file: documents in a seeded order, planted bad records inside
    order = rng.permutation(n_docs)
    starts = np.concatenate([[0], np.cumsum(nrefs)])
    doc_ids = [f"D{i + 1:07d}" for i in range(n_docs)]
    lines = ["# benchmark corpus, census year %d, layout %s" % (CENSUS, layout)]
    for d in order.tolist():
        jid = jr.part_b[doc_j[d]] if in_b[d] else jr.ids[doc_j[d]]
        lines.append(json.dumps({
            "doc_id": doc_ids[d], "journal": jid, "year": CENSUS,
            "type": str(types[d]), "nref": int(declared[d]),
            "refs": raw[starts[d]:starts[d + 1]]}))
    malformed: list[int] = []
    if distinct:
        lines, malformed = _plant_malformed(rng, lines, jr.ids[0])

    out.mkdir(parents=True, exist_ok=True)
    (out / "journals.tsv").write_text("\n".join(jr.master_rows) + "\n",
                                      encoding="utf-8")
    (out / "corpus.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")

    # ground truth: totals over the valid, in-window references
    totals: dict[str, np.ndarray] = {}
    for suffix, (lo, hi) in WINDOWS.items():
        inwin = valid & (year >= lo) & (year <= hi)
        k = np.bincount(ref_doc[inwin], minlength=n_docs)
        counted = inwin & (target >= 0)
        tj, td = target[counted], ref_doc[counted]
        totals[f"TC-IC{suffix}"] = np.bincount(tj, minlength=n_j)
        totals[f"TC-FC{suffix}"] = np.bincount(tj, weights=1.0 / k[td],
                                               minlength=n_j)
        if suffix:
            totals[f"TC-FC{suffix}+"] = np.bincount(
                tj, weights=1.0 / declared[td], minlength=n_j)

    citable = np.isin(types, CITABLE)
    derived_census = np.bincount(doc_j[citable], minlength=n_j)
    denominators = {}
    for name, years in (("two_year", range(CENSUS - 2, CENSUS)),
                        ("five_year", range(CENSUS - 5, CENSUS)),
                        ("census_only", range(CENSUS, CENSUS + 1))):
        denominators[name] = np.array([
            sum(jr.items[j].get(y, 0) for y in years) if jr.items[j]
            else (int(derived_census[j]) if name == "census_only" else 0)
            for j in range(n_j)], dtype=np.int64)

    return IndicatorTruth(
        journal_ids=jr.ids, field_codes=jr.field_codes, totals=totals,
        denominators=denominators, refs=n_refs, distinct_refs=len(set(raw)),
        malformed_lines=malformed,
        input_files={"corpus": out / "corpus.jsonl",
                     "journals": out / "journals.tsv"})


def _venue_strings(rng, jr: Journals, target: np.ndarray, noisy: bool
                   ) -> list[str]:
    """Venue text per reference: an abbreviation of the cited journal (part
    B's for a share of split-journal citations), or a non-source venue."""
    n = target.size
    use_b = rng.random(n) < SPLIT_B_SHARE
    use_alias = rng.random(n) < (ALIAS_SHARE if noisy else 0.0)
    variant = rng.choice(4, size=n, p=[0.80, 0.07, 0.07, 0.06]) if noisy else None
    nonsource = rng.integers(1, 20000, size=n)
    out = []
    for i, t in enumerate(target.tolist()):
        if t < 0:
            out.append(f"NS J {nonsource[i]:05d}")
            continue
        if use_b[i] and t in jr.abbrev_b:
            v = jr.abbrev_b[t]
        else:
            v = jr.abbrevs[t][1 if use_alias[i] else 0]
        if noisy:
            # spellings that normalize to the master's abbreviation
            kind = variant[i]
            if kind == 1:
                v = v.lower()
            elif kind == 2:
                v = v + "."
            elif kind == 3:
                v = v.replace(" ", "  ", 1)
        out.append(v)
    return out


def _plant_malformed(rng, lines: list[str], journal: str
                     ) -> tuple[list[str], list[int]]:
    """Insert one record per kind of record-level error; return the lines
    and the 1-based line numbers of the planted records."""
    first_doc = json.loads(lines[1])
    good = {"doc_id": "X", "journal": journal, "year": CENSUS,
            "type": "article", "nref": 2, "refs": ["A B|2008", "C D|2007"]}

    def rec(**changes) -> str:
        obj = dict(good, **changes)
        return json.dumps({k: v for k, v in obj.items() if v is not None})

    bad = [
        '{"doc_id": "BAD1", "journal": "%s", "year": 20' % journal,  # cut JSON
        rec(doc_id="BAD2", nref=None),                   # missing key
        rec(doc_id="BAD3", year=1850),                   # pub year < 1900
        rec(doc_id="BAD4", year=CENSUS + 2),             # pub year > census
        rec(doc_id="BAD5", nref=-1),                     # negative nref
        rec(doc_id="BAD6", nref=1),                      # nref < len(refs)
        rec(doc_id="BAD7", refs=["A B|2008", ""]),       # empty reference
        rec(doc_id=first_doc["doc_id"]),                 # duplicate doc_id
    ]
    # insert after the first document, so the duplicate is the second copy
    slots = np.sort(rng.choice(np.arange(2, len(lines) + 1), size=len(bad),
                               replace=False))
    result = list(lines)
    planted = []
    for offset, (slot, text) in enumerate(zip(slots.tolist(), bad)):
        result.insert(slot + offset, text)
        planted.append(slot + offset + 1)
    return result, planted


# ---------------------------------------------------------------- varcomp

# indicator id, field effect (log-scale shift per unit field score), share
# of journals left undefined
VARCOMP_TABLES = (
    ("IF2-IC", 0.8, 0.01),
    ("IF5-IC", 0.8, 0.01),
    ("IF2-FC", 0.3, 0.01),
    ("IF5-FC", 0.0, 0.01),
    ("TC-IC2", 0.8, 0.0),
    ("TC-FC2", 0.3, 0.0),
    ("TC-FC5", 0.0, 0.0),
    ("FC/P", 0.0, 0.02),
)
# single-indicator percentile files: (source indicator, field effect)
VARCOMP_PERCENTILES = (("IF5-IC", 0.8), ("IF5-FC", 0.0))
STRONG_EFFECT = 0.8
VARCOMP_REFERENCE = "IF2-IC"


@dataclass
class VarcompTruth:
    assignment: dict[str, str]
    tables: dict[str, dict[str, float]]     # analyzed id -> values as written
    strong: set[str]                        # analyzed ids with a strong effect
    indicator_files: list[Path]             # correlate inputs, in order
    percentile_files: list[Path]
    fields_file: Path
    rank_file: Path


def percentile_ranks(values: np.ndarray) -> np.ndarray:
    """100 * (number of strictly lower values) / n."""
    ordered = np.sort(values)
    return 100.0 * np.searchsorted(ordered, values, side="left") / values.size


def pr6_classes(pr100: np.ndarray) -> np.ndarray:
    cls = np.ones(pr100.size, dtype=np.int64)
    for c, threshold in zip((2, 3, 4, 5, 6), (50.0, 75.0, 90.0, 95.0, 99.0)):
        cls[pr100 >= threshold] = c
    return cls


def write_varcomp_inputs(out: Path, seed: int, scale: float = 1.0
                         ) -> VarcompTruth:
    """Indicator tables with planted field effects, percentile files and
    the field scheme for `varcomp`, `correlate` and `rank --pr6`."""
    rng = np.random.default_rng([seed, 2])
    sizes = field_sizes(scale)
    n = sum(sizes)
    field_idx = rng.permutation(np.repeat(np.arange(len(FIELDS)), sizes))
    ids = [f"J{i + 1:04d}" for i in range(n)]
    codes = [FIELDS[f][0] for f in field_idx]
    score = rng.permutation(np.linspace(-1.0, 1.0, len(FIELDS)))[field_idx]
    latent = rng.standard_normal(n)

    out.mkdir(parents=True, exist_ok=True)
    fields_file = out / "fields.tsv"
    fields_file.write_text("journal_id\tfield\n" + "".join(
        f"{j}\t{c}\n" for j, c in zip(ids, codes)), encoding="utf-8")

    def draw(effect: float) -> np.ndarray:
        noise = 0.7 * latent + 0.7 * rng.standard_normal(n)
        return np.exp(1.0 + effect * score + 0.7 * noise)

    tables: dict[str, dict[str, float]] = {}
    strong: set[str] = set()
    indicator_files = []
    for ind, effect, undefined in VARCOMP_TABLES:
        values = draw(effect)
        keep = rng.random(n) >= undefined
        text = [f"{ids[j]}\t{ind}\t{values[j]:.6f}\n" for j in np.flatnonzero(keep)]
        path = out / (ind.replace("/", "_") + ".tsv")
        path.write_text("journal_id\tindicator_id\tvalue\n" + "".join(text),
                        encoding="utf-8")
        indicator_files.append(path)
        tables[ind] = {line.split("\t")[0]: float(line.split("\t")[2])
                       for line in text}
        if effect >= STRONG_EFFECT:
            strong.add(ind)

    percentile_files = []
    for ind, effect in VARCOMP_PERCENTILES:
        values = np.round(draw(effect), 6)
        pr100 = percentile_ranks(values)
        pr6 = pr6_classes(pr100)
        path = out / f"pct_{ind}.tsv"
        path.write_text("journal_id\tindicator_id\tpr100\tpr6\n" + "".join(
            f"{ids[j]}\t{ind}\t{pr100[j]:.4f}\t{pr6[j]}\n" for j in range(n)),
            encoding="utf-8")
        percentile_files.append(path)
        tables[f"{ind}:PR100"] = {ids[j]: float(f"{pr100[j]:.4f}") for j in range(n)}
        tables[f"{ind}:PR6"] = {ids[j]: float(pr6[j]) for j in range(n)}
        if effect >= STRONG_EFFECT:
            strong.update({f"{ind}:PR100", f"{ind}:PR6"})

    return VarcompTruth(assignment=dict(zip(ids, codes)),
                        tables=tables, strong=strong,
                        indicator_files=indicator_files,
                        percentile_files=percentile_files,
                        fields_file=fields_file,
                        rank_file=indicator_files[0])
