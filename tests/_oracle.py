"""Independent brute-force reference implementation used as the oracle.

Everything here is computed with plain dict/loop logic straight from the
documented file formats and counting rules, with no imports from the
package under test. Keep it slow and obvious. Fractional totals are
exact rationals, so ties that hold mathematically hold here too.
"""

import json
from fractions import Fraction


def read_journals(path):
    journals = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            cols = line.split("\t")
            if cols[0] == "journal_id":
                continue
            items = {}
            for pair in cols[5:]:
                if pair:
                    y, c = pair.split("=")
                    items[int(y)] = items.get(int(y), 0) + int(c)
            journals[cols[0]] = {
                "name": cols[1],
                "abbrevs": [a for a in cols[2].split("|") if a],
                "field": cols[3],
                "group": cols[4] or None,
                "items": items,
            }
    return journals


def read_corpus(path):
    docs = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            obj = json.loads(line)
            docs.append(obj)
    return docs


def merge_journals(journals):
    """Returns (merged journal dict, part -> canonical map)."""
    groups = {}
    for jid, rec in journals.items():
        if rec["group"]:
            groups.setdefault(rec["group"], []).append(jid)
    remap = {}
    merged = {}
    for jid, rec in journals.items():
        if not rec["group"]:
            merged[jid] = {"abbrevs": list(rec["abbrevs"]),
                           "field": rec["field"], "items": dict(rec["items"])}
    for gid, members in groups.items():
        members = sorted(members)
        canon = members[0]
        items = {}
        abbrevs = []
        for m in members:
            remap[m] = canon
            for y, c in journals[m]["items"].items():
                items[y] = items.get(y, 0) + c
            for a in journals[m]["abbrevs"]:
                if a not in abbrevs:
                    abbrevs.append(a)
        merged[canon] = {"abbrevs": abbrevs, "field": journals[canon]["field"],
                         "items": items}
    return merged, remap


def norm(s):
    out = " ".join(s.split()).upper()
    while out and out[-1] in ".,;: ":
        out = out[:-1]
    return out


def parse(raw, census):
    """Returns (venue normalized, year or None, status string)."""
    venue, ytok = "", ""
    if raw.count("|") == 1:
        left, right = raw.split("|")
        if left.strip():
            venue, ytok = left, right.strip()
    else:
        toks = [t.strip() for t in raw.split(",")]
        if len(toks) > 1:
            ytok = toks[1]
        if len(toks) > 2:
            venue = toks[2]
    if len(ytok) == 4 and ytok.isascii() and ytok.isdigit():
        year = int(ytok)
        if year < 1900:
            status = "pre1900"
        elif year > census:
            status = "future"
        else:
            status = "valid"
    else:
        year, status = None, "invalid"
    return norm(venue), year, status


def window_bounds(kind, census):
    """Inclusive first and last years; no window starts before 1900."""
    if kind == "two_year":
        return max(census - 2, 1900), census - 1
    if kind == "five_year":
        return max(census - 5, 1900), census - 1
    return 1900, census


def count(docs, merged, census, kind, mode):
    """mode: 'IC' | 'FC' | 'FC+'. Returns (totals per journal, contributing);
    fractional totals are Fractions."""
    abbrev_to_jid = {}
    for jid, rec in merged.items():
        for a in rec["abbrevs"]:
            abbrev_to_jid[norm(a)] = jid
    lo, hi = window_bounds(kind, census)
    totals = {jid: 0 if mode == "IC" else Fraction(0) for jid in merged}
    contributing = 0
    for doc in docs:
        parsed = [parse(r, census) for r in doc["refs"]]
        in_win = [(v, y) for v, y, s in parsed
                  if s == "valid" and lo <= y <= hi]
        if not in_win:
            continue
        contributing += 1
        k = len(in_win)
        for venue, year in in_win:
            jid = abbrev_to_jid.get(venue)
            if jid is None:
                continue
            if mode == "IC":
                totals[jid] += 1
            elif mode == "FC":
                totals[jid] += Fraction(1, k)
            else:
                totals[jid] += Fraction(1, doc["nref"])
    return totals, contributing


def denominator(merged, kind, census):
    lo, hi = window_bounds(kind, census)
    if kind == "census_only":
        lo = hi = census
    out = {}
    for jid, rec in merged.items():
        out[jid] = sum(c for y, c in rec["items"].items() if lo <= y <= hi)
    return out


def ratio(numer, denom):
    values, undefined = {}, set()
    for jid in numer:
        if denom.get(jid, 0) > 0:
            values[jid] = numer[jid] / denom[jid]
        else:
            undefined.add(jid)
    return values, undefined


def pr100(values):
    out = {}
    n = len(values)
    for jid, v in values.items():
        below = sum(1 for w in values.values() if w < v)
        out[jid] = 100.0 * below / n
    return out


def pr6(p):
    if p >= 99:
        return 6
    if p >= 95:
        return 5
    if p >= 90:
        return 4
    if p >= 75:
        return 3
    if p >= 50:
        return 2
    return 1


def validation_tally(docs, merged, census):
    abbrevs = {norm(a) for rec in merged.values() for a in rec["abbrevs"]}
    tally = {"total_docs": len(docs), "total_refs": 0, "matched": 0,
             "unmatched": 0, "invalid": 0, "pre1900": 0, "future": 0}
    for doc in docs:
        for raw in doc["refs"]:
            tally["total_refs"] += 1
            venue, year, status = parse(raw, census)
            if status == "invalid":
                tally["invalid"] += 1
                continue
            if status == "pre1900":
                tally["pre1900"] += 1
            elif status == "future":
                tally["future"] += 1
            if venue in abbrevs:
                tally["matched"] += 1
            else:
                tally["unmatched"] += 1
    return tally


def full_pipeline(corpus_path, journals_path, census):
    """Everything criterion-style comparisons need, in one dict."""
    journals = read_journals(journals_path)
    docs = read_corpus(corpus_path)
    merged, remap = merge_journals(journals)

    result = {"journals": merged, "remap": remap}
    counts = {}
    for kind, suffix in (("two_year", "2"), ("five_year", "5"), ("all_years", "")):
        for mode in ("IC", "FC", "FC+"):
            if mode == "FC+" and kind == "all_years":
                continue
            totals, contributing = count(docs, merged, census, kind, mode)
            name = f"TC-{mode[:2]}{suffix}" + ("+" if mode == "FC+" else "")
            counts[name] = totals
            counts[name + ":contributing"] = contributing
    result["counts"] = counts

    denom2 = denominator(merged, "two_year", census)
    denom5 = denominator(merged, "five_year", census)
    denom_now = denominator(merged, "census_only", census)
    result["denominators"] = {"IF2-Denom": denom2, "IF5-Denom": denom5,
                              "Items": denom_now}
    indicators = {}
    for name, numer, denom in (
            ("IF2-IC", counts["TC-IC2"], denom2),
            ("IF5-IC", counts["TC-IC5"], denom5),
            ("IF2-FC", counts["TC-FC2"], denom2),
            ("IF5-FC", counts["TC-FC5"], denom5),
            ("IF2-FC+", counts["TC-FC2+"], denom2),
            ("IF5-FC+", counts["TC-FC5+"], denom5),
            ("FC/P", counts["TC-FC"], denom_now)):
        values, undefined = ratio(numer, denom)
        indicators[name] = values
        indicators[name + ":undefined"] = undefined
    result["indicators"] = indicators

    percentiles = {}
    for name in ("IF2-IC", "IF5-IC", "IF2-FC", "IF5-FC", "FC/P"):
        p = pr100(indicators[name])
        percentiles[name] = p
        percentiles[name + ":pr6"] = {j: pr6(v) for j, v in p.items()}
    result["percentiles"] = percentiles
    result["validation"] = validation_tally(docs, merged, census)
    return result
