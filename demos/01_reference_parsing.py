"""
Parsing cited-reference strings and matching venues
===================================================

Cited references arrive as free-ish text. Two layouts are understood:
the comma layout ("AUTHOR, YEAR, VENUE, VOL, PAGE") and the structured
escape hatch ("VENUE|YEAR"). The year must be four digits; venues are
matched exactly, after normalization, against the journal master's
abbreviations. Nothing is ever guessed: a venue that does not resolve
stays unmatched and is reported as such.
"""

from jifnorm import (Journal, JournalTable, match_venue, normalize_venue,
                     parse_reference)
from jifnorm.refmatch import STATUS_NAMES

CENSUS = 2010

examples = [
    "SMITH J, 2008, J EXAMPLE SCI, V12, P34",   # ordinary comma layout
    "J EXAMPLE SCI|2009",                       # structured layout
    "DOE A, 18, SOME BOOK",                     # 2-digit year: invalid format
    "LEE K, 1899, OLD J",                       # pre-1900
    "NG B, 2011, J EXAMPLE SCI",                # beyond the census year
    "REFERENCE WITHOUT ANY YEAR",
]

print("parse results (census year %d):" % CENSUS)
for raw in examples:
    ref = parse_reference(raw, census_year=CENSUS)
    print(f"  {raw!r:50} -> venue={ref.venue_abbrev!r:18} "
          f"year={ref.year!s:5} status={STATUS_NAMES[ref.year_status]}")

# Normalization uppercases, collapses interior whitespace, and strips
# trailing punctuation, and it is idempotent, so both sides of a lookup
# can be normalized without a second thought.
print("\nnormalization:")
for messy in ("j  example sci.", "  J Example   Sci ;", "J EXAMPLE SCI"):
    print(f"  {messy!r:28} -> {normalize_venue(messy)!r}")

table = JournalTable([
    Journal("J01", "Journal of Example Science", ["J EXAMPLE SCI"], "PHYS", {}),
    Journal("J02", "Other Letters", ["OTHER LETT"], "CHEM", {}),
])

print("\nvenue lookup:")
for venue in ("J EXAMPLE SCI", "j example sci.", "OTHER LETT", "UNKNOWN VENUE"):
    print(f"  {venue!r:20} -> {match_venue(venue, table)}")
