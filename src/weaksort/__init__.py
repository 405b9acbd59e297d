"""
weaksort: five triples of 4-letter patterns whose avoiders are counted by
the weak sorting numbers (OEIS A111279), with the machinery to verify it.

Submodules
----------
perms       permutations, pattern containment, the eight symmetries
levels      the enumeration level: byte columns, bit-lanes, window kernel
counting    pruned enumeration and the exhaustive triple classification
recurrence  first-two-entry table recurrences for the first three triples
series      exact integer power series and the generating-function catalog
schroder    Schroder paths, bounding staircases, and the bijections
class5      structure theorem and direct counting for the fifth triple
oeis        b-file parser and the four bundled OEIS fixtures
acceptance  the end-to-end verification suite (also: `weaksort verify`)
_fork       forked children for `verify` and the enumeration's last lengths
"""
from .perms import (
    TRIPLES,
    WEAK_SORTING_TRIPLE,
    apply_symmetry,
    avoids,
    canonical_form,
    components,
    contains,
    direct_sum,
    extrema,
    orbit,
    parse_perm,
    standardize,
)
from .counting import (
    avoider_levels,
    counting_sequence,
    counting_sequences,
    enumerate_avoiders,
    wilf_search,
)
from .recurrence import count_via_recurrence, verify_kernel_identity
from .series import gf_catalog
from .schroder import enumerate_paths, path_to_perm, perm_to_path
from .class5 import count_avoiders, count_indecomposable, decompose

__all__ = [
    "TRIPLES",
    "WEAK_SORTING_TRIPLE",
    "apply_symmetry",
    "avoider_levels",
    "avoids",
    "canonical_form",
    "components",
    "contains",
    "counting_sequence",
    "counting_sequences",
    "count_avoiders",
    "count_indecomposable",
    "count_via_recurrence",
    "decompose",
    "direct_sum",
    "enumerate_avoiders",
    "enumerate_paths",
    "extrema",
    "gf_catalog",
    "orbit",
    "parse_perm",
    "path_to_perm",
    "perm_to_path",
    "standardize",
    "verify_kernel_identity",
    "wilf_search",
]

__version__ = "0.1.0"
