"""
Five triples, one counting sequence
===================================

Each of the five pattern triples has avoiders counted by the weak sorting
numbers 1, 1, 2, 6, 21, 79, 309, 1237, 5026, ... (OEIS A111279).  This
script counts them three independent ways: brute-force enumeration, the
table recurrence, and coefficient extraction from the algebraic generating
function, and watches the three columns agree.
"""
from weaksort import TRIPLES, counting_sequence, count_via_recurrence
from weaksort.perms import format_perm
from weaksort.series import gf_catalog

N = 8

print("The five triples:")
for name, patterns in TRIPLES.items():
    print(f"  {name}: " + ", ".join(format_perm(t) for t in sorted(patterns)))
print()

print(f"Brute-force counts up to n={N}:")
for name, patterns in TRIPLES.items():
    print(f"  {name}: {counting_sequence(patterns, N)}")
print()

print("The recurrence gives the same numbers, and reaches far beyond")
print("enumeration scale (here n=30):")
seq = count_via_recurrence("pi1", 30)
print(f"  n=9..14: {seq[9:15]}")
print(f"  n=30:    {seq[30]}")
print()

coeffs = list(gf_catalog("main", 30).coeffs)
print("Series coefficients of (1-5x+(1+x)sqrt(1-4x))/(1-5x+(1-x)sqrt(1-4x)):")
print(f"  n=0..8:  {coeffs[:9]}")
assert coeffs == seq
print("  ... identical to the recurrence through n=30.")
