"""Synthetic citation corpora with controllable field-specific behavior.

Each field draws reference-list lengths from a Poisson law (its mean is
the field's "citation potential") and reference ages from a geometric law
parameterized by a half-life, truncated to the configured look-back. A
citing document picks cited journals inside its own field with
probability 1 - cross_field_mix (proportional to latent journal quality,
drawn log-normally) and uniformly over the whole journal set otherwise.

With zero mixing, every citing document distributes its in-window
fractional weight within its own field, so the expected fractional
citation rate per journal is field-independent even when reference-list
lengths differ severalfold, while integer counts scale with list length.
That contrast is the ground truth the analysis layer is tested against.
"""

from __future__ import annotations

import dataclasses
import math
from pathlib import Path
from typing import Optional

import numpy as np

from ._tsv import integer, iter_key_values, number, write_rows
from .corpus import YEAR_MAX, Corpus, Journal, JournalTable
from .counts import window_years
from .stats import FieldScheme

# windows with a closed-form expected fractional rate
_RATE_WINDOWS = ("two_year", "five_year")


class SynthConfigError(Exception):
    pass


@dataclasses.dataclass(frozen=True)
class FieldSpec:
    field_code: str
    n_journals: int
    papers_per_journal_per_year: int
    mean_ref_len: float
    ref_age_half_life: float
    cross_field_mix: float = 0.0


@dataclasses.dataclass(frozen=True)
class SynthConfig:
    census_year: int
    fields: tuple[FieldSpec, ...]
    quality_spread: float = 0.0
    years_back: int = 10
    seed: int = 0
    invalid_ref_rate: float = 0.0

    def validate(self) -> None:
        if not 1900 <= self.census_year <= YEAR_MAX:
            raise SynthConfigError(
                f"census_year {self.census_year} outside [1900, {YEAR_MAX}]")
        if self.years_back < 5:
            raise SynthConfigError("years_back must be >= 5")
        if self.census_year - self.years_back < 1900:
            raise SynthConfigError(
                "years_back reaches below 1900; cited years would be invalid")
        if not 0 <= self.quality_spread < math.inf:
            raise SynthConfigError("quality_spread must be finite and >= 0")
        if self.seed < 0:
            raise SynthConfigError("seed must be >= 0")
        if not 0.0 <= self.invalid_ref_rate < 1.0:
            raise SynthConfigError("invalid_ref_rate must be in [0, 1)")
        if not self.fields:
            raise SynthConfigError("at least one field is required")
        codes = [f.field_code for f in self.fields]
        if len(set(codes)) != len(codes):
            raise SynthConfigError("field codes must be unique")
        for f in self.fields:
            if not f.field_code or not all(
                    c.isalnum() or c in "_-" for c in f.field_code):
                raise SynthConfigError(
                    f"field code {f.field_code!r} must be alphanumeric/_/-")
            if f.n_journals < 1:
                raise SynthConfigError(f"{f.field_code}: n_journals must be >= 1")
            if f.papers_per_journal_per_year < 1:
                raise SynthConfigError(
                    f"{f.field_code}: papers_per_journal_per_year must be >= 1")
            if not 1.0 <= f.mean_ref_len < math.inf:
                raise SynthConfigError(
                    f"{f.field_code}: mean_ref_len must be finite and >= 1")
            if not 0.0 < f.ref_age_half_life < math.inf:
                raise SynthConfigError(
                    f"{f.field_code}: ref_age_half_life must be finite and > 0")
            if not 0.0 <= f.cross_field_mix <= 1.0:
                raise SynthConfigError(
                    f"{f.field_code}: cross_field_mix must be in [0, 1]")
        if sum(f.n_journals for f in self.fields) < 2:
            raise SynthConfigError("need at least 2 journals overall")


@dataclasses.dataclass
class GroundTruth:
    """Latent journal quality plus the analytic per-field expected
    fractional in-window citation rates (two- and five-year windows;
    available only without cross-field mixing)."""

    quality: dict[str, float]
    expected_fc_rate: Optional[dict[str, dict[str, float]]] = None

    def save(self, out_dir: str | Path) -> list[Path]:
        """Write both ground-truth tables into ``out_dir``; return the paths."""
        out = Path(out_dir)
        rows = []
        if self.expected_fc_rate:
            for window in sorted(self.expected_fc_rate):
                for code, rate in sorted(self.expected_fc_rate[window].items()):
                    rows.append([window, code, f"{rate:.9f}"])
        return [write_rows(out / "ground_truth_journals.tsv",
                           ["journal_id", "quality"],
                           [[jid, f"{q:.9f}"]
                            for jid, q in sorted(self.quality.items())]),
                write_rows(out / "ground_truth_fields.tsv",
                           ["window", "field", "expected_fc_rate"], rows)]


def _age_probs(half_life: float, years_back: int) -> np.ndarray:
    ages = np.arange(1, years_back + 1, dtype=np.float64)
    probs = 0.5 ** (ages / half_life)
    return probs / probs.sum()


def _in_window_age_mass(spec: FieldSpec, cfg: SynthConfig, window_kind: str
                        ) -> float:
    """Probability that one reference is valid and aged into the window,
    one of ``_RATE_WINDOWS``."""
    probs = _age_probs(spec.ref_age_half_life, cfg.years_back)
    years = window_years(window_kind, cfg.census_year)
    # probs[a - 1] is the share of references cited at age a = census - year
    ages = slice(cfg.census_year - years.stop, cfg.census_year - years.start)
    return float(probs[ages].sum()) * (1.0 - cfg.invalid_ref_rate)


def _prob_any_in_window(mu: float, q: float) -> float:
    """P(a document with max(Poisson(mu), 1) references has at least one
    in-window reference), each reference independently in-window w.p. q."""
    return 1.0 - math.exp(-mu * q) + q * math.exp(-mu)


def expected_fractional_rate(cfg: SynthConfig, window_kind: str = "five_year",
                             fraction_base: str = "in_window"
                             ) -> dict[str, float]:
    """Closed-form expected fractional quasi impact factor per field.

    With the in-window base a document hands out total weight 1 whenever it
    has any in-window reference; with the whole-list base it hands out
    exactly the in-window share of its reference list, whose expectation is
    the in-window age mass. Requires zero cross-field mixing; mixing breaks
    the closed form.
    """
    cfg.validate()
    if window_kind not in _RATE_WINDOWS:
        raise SynthConfigError(f"unsupported window {window_kind!r}")
    if any(f.cross_field_mix > 0 for f in cfg.fields):
        raise SynthConfigError(
            "expected rates are only available with cross_field_mix = 0")
    wlen = len(window_years(window_kind, cfg.census_year))
    rates: dict[str, float] = {}
    for spec in cfg.fields:
        q = _in_window_age_mass(spec, cfg, window_kind)
        if fraction_base == "in_window":
            mass = _prob_any_in_window(spec.mean_ref_len, q)
        elif fraction_base == "all_refs":
            mass = q
        else:
            raise SynthConfigError(f"unknown fraction base {fraction_base!r}")
        docs = spec.n_journals * spec.papers_per_journal_per_year
        denom = wlen * spec.papers_per_journal_per_year
        rates[spec.field_code] = docs * mass / (spec.n_journals * denom)
    return rates


def generate_corpus(cfg: SynthConfig
                    ) -> tuple[Corpus, JournalTable, FieldScheme, GroundTruth]:
    """Generate a census-year corpus, journal master, field scheme, and
    ground truth. Deterministic for a given config: journals draw from
    per-journal seed-sequence children, so output does not depend on
    generation order."""
    cfg.validate()
    fields = sorted(cfg.fields, key=lambda f: f.field_code)
    census = cfg.census_year
    yb = cfg.years_back

    journals: list[Journal] = []
    spec_of: dict[str, FieldSpec] = {}
    for spec in fields:
        items = {y: spec.papers_per_journal_per_year
                 for y in range(census - yb, census + 1)}
        for i in range(spec.n_journals):
            jid = f"{spec.field_code}-J{i:03d}"
            journals.append(Journal(
                journal_id=jid,
                full_name=f"Journal of {spec.field_code} Studies {i:03d}",
                abbreviations=[f"J {spec.field_code} {i:03d}"],
                field_code=spec.field_code,
                items_by_year=dict(items)))
            spec_of[jid] = spec
    table = JournalTable(journals)
    ordered_ids = table.journal_ids
    pos = {jid: i for i, jid in enumerate(ordered_ids)}
    n_all = len(ordered_ids)

    root = np.random.SeedSequence(cfg.seed)
    children = root.spawn(n_all + 1)
    quality_rng = np.random.default_rng(children[0])
    quality_draw = quality_rng.lognormal(mean=0.0, sigma=cfg.quality_spread,
                                         size=n_all)
    quality = {jid: float(quality_draw[pos[jid]]) for jid in ordered_ids}

    field_members: dict[str, np.ndarray] = {}
    field_probs: dict[str, np.ndarray] = {}
    for spec in fields:
        members = np.array([pos[j.journal_id] for j in journals
                            if j.field_code == spec.field_code], dtype=np.int64)
        members.sort()
        w = quality_draw[members]
        field_members[spec.field_code] = members
        field_probs[spec.field_code] = w / w.sum()

    # the string pool: slot 0 per journal holds the invalid-year variant,
    # slots 1..years_back one string per cited age
    per_journal = yb + 1
    slot_strings: list[str] = []
    for jid in ordered_ids:
        abbrev = table.by_id[jid].abbreviations[0]
        slot_strings.append(f"{abbrev}|18")
        slot_strings.extend(f"{abbrev}|{census - age}" for age in range(1, yb + 1))

    doc_ids: list[str] = []
    doc_journals: list[str] = []
    ref_counts: list[np.ndarray] = []
    ref_slots: list[np.ndarray] = []

    for ji, jid in enumerate(ordered_ids):
        spec = spec_of[jid]
        rng = np.random.default_rng(children[ji + 1])
        n_papers = spec.papers_per_journal_per_year
        nrefs = np.maximum(rng.poisson(spec.mean_ref_len, n_papers), 1)
        total = int(nrefs.sum())

        ages = rng.choice(np.arange(1, yb + 1), size=total,
                          p=_age_probs(spec.ref_age_half_life, yb))
        cross = rng.random(total) < spec.cross_field_mix
        targets = np.empty(total, dtype=np.int64)
        n_within = int((~cross).sum())
        if n_within:
            targets[~cross] = rng.choice(field_members[spec.field_code],
                                         size=n_within,
                                         p=field_probs[spec.field_code])
        n_cross = total - n_within
        if n_cross:
            targets[cross] = rng.integers(0, n_all, size=n_cross)
        invalid = (rng.random(total) < cfg.invalid_ref_rate
                   if cfg.invalid_ref_rate > 0 else np.zeros(total, dtype=bool))

        ref_slots.append(targets * per_journal + np.where(invalid, 0, ages))
        ref_counts.append(nrefs)
        doc_ids.extend(f"{jid}-D{di:05d}" for di in range(n_papers))
        doc_journals.extend([jid] * n_papers)

    counts = np.concatenate(ref_counts)
    offsets = np.zeros(counts.size + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    corpus = Corpus.from_columns(
        census, doc_ids=doc_ids, doc_journals=doc_journals,
        pub_years=np.full(counts.size, census), doc_types=["article"] * counts.size,
        ref_counts=counts, ref_offsets=offsets,
        ref_slots=np.concatenate(ref_slots), slot_strings=slot_strings)

    scheme = FieldScheme({jid: spec_of[jid].field_code for jid in ordered_ids})
    truth = GroundTruth(quality=quality)
    if all(f.cross_field_mix == 0 for f in cfg.fields):
        truth.expected_fc_rate = {
            kind: expected_fractional_rate(cfg, kind)
            for kind in _RATE_WINDOWS}
    return corpus, table, scheme, truth


def _finite(text: str) -> float:
    """:func:`number` of ``text``, rejecting ``nan`` and infinities with a
    ValueError."""
    value = number(text)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {text!r}")
    return value


# the keys of a config: the int and float fields, each cast by its type
_CASTS = {"int": integer, "float": _finite}
_FIELD_KEYS = {f.name: _CASTS[f.type] for f in dataclasses.fields(FieldSpec)
               if f.type in _CASTS}
_TOP_KEYS = {f.name: _CASTS[f.type] for f in dataclasses.fields(SynthConfig)
             if f.type in _CASTS}


def load_synth_config(path: str | Path) -> SynthConfig:
    """Read a flat key=value config. Field parameters use dotted keys,
    e.g. ``field.PHYS.mean_ref_len = 40``."""
    top: dict[str, object] = {}
    per_field: dict[str, dict[str, object]] = {}
    path = Path(path)
    for where, key, value in iter_key_values(path, SynthConfigError):
        if key.startswith("field."):
            parts = key.split(".")
            if len(parts) != 3 or parts[2] not in _FIELD_KEYS:
                raise SynthConfigError(f"{where}: unknown field key {key!r}")
            _, code, param = parts
            target, cast = per_field.setdefault(code, {}), _FIELD_KEYS[param]
        elif key in _TOP_KEYS:
            target, param, cast = top, key, _TOP_KEYS[key]
        else:
            raise SynthConfigError(f"{where}: unknown key {key!r}")
        try:
            target[param] = cast(value)
        except ValueError:
            raise SynthConfigError(f"{where}: bad value {value!r}") from None
    if "census_year" not in top:
        raise SynthConfigError(f"{path.name}: census_year is required")
    fields = []
    for code in sorted(per_field):
        params = per_field[code]
        missing = [f.name for f in dataclasses.fields(FieldSpec)
                   if f.name in _FIELD_KEYS and f.name not in params
                   and f.default is dataclasses.MISSING]
        if missing:
            raise SynthConfigError(
                f"{path.name}: field {code!r} missing {', '.join(missing)}")
        fields.append(FieldSpec(field_code=code, **params))
    cfg = SynthConfig(fields=tuple(fields), **top)
    cfg.validate()
    return cfg
