"""
From permutations to Schroder paths
===================================

Avoiders of {3214, 4213} are exactly the permutations that are
lexicographically least among all permutations sharing their bounding
staircase, and the staircases encode one-size-smaller Schroder paths.
The composite bijection sends avoiders of length n to Schroder paths of
size n-1; restricting to the fourth triple's avoiders lands on the paths
whose components each carry at most one peak.
"""
from weaksort import enumerate_avoiders
from weaksort.perms import SCHRODER_PAIR, TRIPLES, format_perm
from weaksort.schroder import (
    enumerate_paths,
    le1_peak_paths,
    path_to_perm,
    peak_census,
    perm_to_path,
    perm_to_staircase,
    staircase_to_schroder,
)

p = (5, 1, 2, 9, 4, 8, 10, 6, 7, 3)
print(f"permutation       {format_perm(p)}")
st = perm_to_staircase(p)
print(f"bounding staircase {st}")
path = staircase_to_schroder(st)
print(f"Schroder path      {path}  (size {path.count('N') + path.count('D')})")
back = path_to_perm(path)
print(f"decoded back       {format_perm(back)}")
assert back == p
print()

print("sizes of the image match the large Schroder numbers:")
for n in range(1, 8):
    avoiders = enumerate_avoiders(n, SCHRODER_PAIR)
    image = {perm_to_path(q) for q in avoiders}
    assert image == set(enumerate_paths(n - 1))
    print(f"  n={n}: {len(avoiders)} avoiders -> all {len(image)} paths of size {n-1}")
print()

print("peak census of Schroder 4-paths (no peak = Catalan, one peak = binom):")
print(f"  {peak_census(4)[0]}")
print()

n = 6
image = {perm_to_path(q) for q in enumerate_avoiders(n, TRIPLES['pi4'])}
assert image == set(le1_peak_paths(n - 1))
print(
    f"fourth-triple avoiders of length {n} map onto the {len(image)} paths of "
    f"size {n-1} with at most one peak per component"
)
