"""
The generating-function catalog
===============================

Every series in the package is assembled from sqrt(1-4x), whose
coefficients are -2 times Catalan numbers, using exact integer
arithmetic.  This script extracts coefficients from the catalog, verifies
the kernel-method identity numerically, and evaluates the bivariate series
that refines the fifth triple's avoiders by number of components.
"""
from weaksort.recurrence import verify_kernel_identity
from weaksort.series import gf_catalog, sqrt_one_minus_4x

print("sqrt(1-4x) =", list(sqrt_one_minus_4x(7).coeffs), "...")
print()

for name in ("main", "schroder_le1peak_per_comp", "class5_indec"):
    coeffs = list(gf_catalog(name, 10).coeffs)
    print(f"{name:28s} {coeffs}")
print()

ok, residual = verify_kernel_identity(40)
print(f"kernel identity residual vanishes through order 40: {ok}")
print()

biv = gf_catalog("class5_bivariate", 8)
print("avoiders of the fifth triple by length n and components k:")
for n in range(1, 9):
    row = [biv.coefficient(n, k) for k in range(1, n + 1)]
    print(f"  n={n}: {row}")
print()

collapse = biv.at_y1() - gf_catalog("pi4_nonempty", 8)
print(f"bivariate at y=1 equals the univariate series: {collapse.is_zero()}")
