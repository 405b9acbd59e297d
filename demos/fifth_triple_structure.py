"""
Anatomy of an avoider of {3214, 3241, 4213}
===========================================

Splitting a permutation just below its last entry yields an upper and a
lower part; four simple conditions on that split characterize avoidance of
the fifth triple exactly.  Counting splits by upper length, key entries and
distributed lower entries gives a closed formula, and the same analysis
rebuilds every avoider from three independent choices.
"""
from weaksort.class5 import (
    check_structure,
    construct,
    count_avoiders,
    count_indecomposable,
    decompose,
)
from weaksort.counting import enumerate_avoiders
from weaksort.perms import TRIPLES, format_perm

p = (3, 5, 1, 6, 10, 2, 13, 18, 4, 7, 14, 15, 17, 16, 8, 11, 12, 9)
d = decompose(p)
print(f"permutation  {format_perm(p)}")
print(f"upper part   {list(d.upper)}")
print(f"  head       {list(d.upper_head)}")
print(f"  tail       {list(d.upper_tail)}")
print(f"lower part   {list(d.lower)}")
print(f"  tail       {list(d.lower_tail)}")
print(f"key entries  {sorted(d.key_values)}")
print(f"(a, k, i) =  ({d.a}, {d.k}, {d.i})")
ok, _ = check_structure(p)
print(f"all four structure conditions hold: {ok}")
print()

print("the four conditions are equivalent to avoidance (check at n=6):")
from weaksort.perms import all_perms, avoids

agree = all(
    check_structure(q)[0] == avoids(q, TRIPLES["pi5"]) for q in all_perms(6)
)
print(f"  agreement on all 720 permutations: {agree}")
print()

print("closed formula vs. enumeration:")
for n in range(3, 9):
    formula = count_avoiders(n)
    brute = len(enumerate_avoiders(n, TRIPLES["pi5"]))
    print(f"  n={n}: formula {formula:5d}   enumeration {brute:5d}")
print()

print("indecomposable avoiders, n=1..7:", [count_indecomposable(n) for n in range(1, 8)])
print()

print("rebuilding the avoiders of length 4 that end in 2:")
for upper in [(2, 3, 1), (3, 2, 1)]:
    for dist in [(0, 0), (1, 0), (0, 1)]:
        q = construct(upper, (1,), dist)
        print(f"  upper {upper}, blocks {dist} -> {format_perm(q)}")
