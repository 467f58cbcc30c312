"""
Citation windows, fractional counting, and quasi impact factors
===============================================================

A tiny corpus makes the counting rules visible. Two journals: MATH
papers carry short reference lists, BIO papers long ones. Integer
counting then hands BIO far more citations per paper; fractional
counting (weight 1/k per reference, k = the citing document's in-window
reference count) hands every citing document the same total weight 1,
which is exactly the normalization that removes the list-length
advantage.
"""

from jifnorm import (Corpus, Document, Journal, JournalTable, WindowSpec,
                     compute_denominator, count_citations, fc_over_p,
                     quasi_if)
from jifnorm.counts import FRACTIONAL, FRACTIONAL_PLUS, INTEGER

CENSUS = 2010

journals = JournalTable([
    Journal("BIO", "Biology Journal", ["BIO J"], "BIO",
            {y: 10 for y in range(2005, 2011)}),
    Journal("MATH", "Mathematics Journal", ["MATH J"], "MATH",
            {y: 10 for y in range(2005, 2011)}),
])


def doc(doc_id, journal, refs):
    return Document(doc_id, journal, CENSUS, "article", refs, len(refs))


# One BIO paper cites 8 recent BIO items; one MATH paper cites 2 recent
# MATH items; a third paper cites one of each plus an older item.
corpus = Corpus(CENSUS, [
    doc("b1", "BIO", [f"BIO J|200{d}" for d in (8, 8, 8, 9, 9, 9, 9, 9)]),
    doc("m1", "MATH", ["MATH J|2009", "MATH J|2008"]),
    doc("x1", "BIO", ["BIO J|2009", "MATH J|2009", "MATH J|2001"]),
])

w2 = WindowSpec("two_year", CENSUS)
print("what each document hands out on its own, two-year window:")
for d in corpus.documents:
    alone = Corpus(CENSUS, [d])
    for mode, name in ((INTEGER, "integer"), (FRACTIONAL, "fractional")):
        table = count_citations(alone, journals, w2, mode)
        print(f"  {d.doc_id} {name:10}: {table.values}")

print("\ntwo-year totals:")
for mode, name in ((INTEGER, "TC-IC2"), (FRACTIONAL, "TC-FC2"),
                   (FRACTIONAL_PLUS, "TC-FC2+")):
    table = count_citations(corpus, journals, w2, mode)
    print(f"  {name:8} {table.values}   (contributing docs: "
          f"{table.contributing_docs})")

# Integer counting: BIO soaks up 9 of the 12 in-window citations.
# Fractional counting: each document hands out weight 1, and the x1
# document splits it between the fields.
denom = compute_denominator(corpus, journals, "two_year")
print("\nquasi impact factors over the two-year window "
      f"(denominators {denom.values}):")
for mode in (INTEGER, FRACTIONAL):
    table = quasi_if(count_citations(corpus, journals, w2, mode), denom)
    print(f"  {table.indicator_id:8} {table.values}")

fcp = fc_over_p(
    count_citations(corpus, journals, WindowSpec("all_years", CENSUS), FRACTIONAL),
    compute_denominator(corpus, journals, "census_only"))
print(f"\nall-years fractional citations per census item: {fcp.values}")
