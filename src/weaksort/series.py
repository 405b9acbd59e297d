"""
Truncated formal power series with integer coefficients, and the catalog
of generating functions used across the package.

A Series holds coefficients c_0..c_N as ints; N is the truncation order.
Arithmetic truncates to the smaller operand order.  Every generating
function in the catalog has integer coefficients, so division is exact
integer long division: a quotient coefficient that is not an integer
raises ValueError naming it, which makes the integrality of every
coefficient a check performed by construction.

The key primitive is sqrt(1-4x), whose coefficients are known in closed
form: c_0 = 1 and c_n = -2 * Catalan(n-1).  Every generating function in
the catalog is assembled from it by ring operations, avoiding any generic
series square root.

The one two-variable generating function needed (avoiders of the fifth
triple by length and number of components) has a denominator linear in y,
d0 + y*d1 with d0(0) = 2, so it expands as a geometric series in y whose
y^k coefficient is a univariate Series: no second ring is needed.  Its
common ratio -d1/d0 is O(x), so the y^k coefficient starts at x^k, and at
truncation order N the powers y^1..y^N are all there is.  BivariateSeries
only holds the result, x-major: row n lists the coefficients of x^n y^k.
"""
from __future__ import annotations

from math import comb
from typing import Iterable


def catalan(n: int) -> int:
    """The n-th Catalan number binom(2n,n)/(n+1)."""
    if n < 0:
        return 0
    return comb(2 * n, n) // (n + 1)


def gen_catalan(n: int, k: int) -> int:
    """
    Generalized Catalan number (k+1)/(2n+k+1) * binom(2n+k+1, n): the n-th
    coefficient of C(x)^(k+1) where C is the Catalan generating function.

    Conventions at the edges: C_{0,-1} = 1 (the empty product C(x)^0),
    while C_{n,k} = 0 for n < 0, for k < -1, and for k = -1 with n > 0.
    """
    if n < 0 or k < -1:
        return 0
    if k == -1:
        return 1 if n == 0 else 0
    return (k + 1) * comb(2 * n + k + 1, n) // (2 * n + k + 1)


def _exact(num: int, den: int, n: int) -> int:
    """num / den, raising ValueError naming the x^n coefficient unless the
    division is exact."""
    q, r = divmod(num, den)
    if r:
        raise ValueError(f"coefficient of x^{n} is not an integer: {num}/{den}")
    return q


class _Value:
    """Value semantics over the fields a subclass names in __slots__: set
    once by __init__ in that order, never reassigned, compared and hashed
    by value, only against the same type, and printed as Name(field=...)."""

    __slots__ = ()

    def __init__(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(
            f"{name}={value!r}" for name, value in zip(self.__slots__, self._values())
        )
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), self._values()


class Series(_Value):
    """A power series truncated at order len(coeffs)-1."""

    __slots__ = ("coeffs",)
    coeffs: tuple[int, ...]

    def __init__(self, coeffs: tuple[int, ...]) -> None:
        if not coeffs:
            raise ValueError("a series needs at least the constant coefficient")
        super().__init__(coeffs)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, n: int) -> int:
        return self.coeffs[n]

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __add__(self, other: "Series") -> "Series":
        N = min(self.order, other.order)
        return Series(tuple(self.coeffs[i] + other.coeffs[i] for i in range(N + 1)))

    def __sub__(self, other: "Series") -> "Series":
        N = min(self.order, other.order)
        return Series(tuple(self.coeffs[i] - other.coeffs[i] for i in range(N + 1)))

    def __neg__(self) -> "Series":
        return Series(tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, int):
            return Series(tuple(c * other for c in self.coeffs))
        N = min(self.order, other.order)
        out = [0] * (N + 1)
        for i, ci in enumerate(self.coeffs[: N + 1]):
            if ci:
                for j in range(N + 1 - i):
                    cj = other.coeffs[j]
                    if cj:
                        out[i + j] += ci * cj
        return Series(tuple(out))

    __rmul__ = __mul__

    def __truediv__(self, other: "Series | int") -> "Series":
        """
        Exact long division by a series with nonzero constant term, or by a
        nonzero int.  Raises ValueError if a quotient coefficient is not an
        integer.
        """
        if isinstance(other, int):
            return Series(tuple(_exact(c, other, n) for n, c in enumerate(self.coeffs)))
        c0 = other.coeffs[0]
        if c0 == 0:
            raise ZeroDivisionError(
                f"division by a series with zero constant term: {other.coeffs[:4]}..."
            )
        N = min(self.order, other.order)
        out = [0] * (N + 1)
        for n in range(N + 1):
            s = self.coeffs[n]
            for k in range(1, n + 1):
                if other.coeffs[k]:
                    s -= other.coeffs[k] * out[n - k]
            out[n] = _exact(s, c0, n)
        return Series(tuple(out))

    def shift(self) -> "Series":
        """Multiply by x (same truncation order; the top coefficient drops off)."""
        return Series((0,) + self.coeffs[: self.order])


def from_ints(values: Iterable[int], order: int) -> Series:
    """The series with the given leading coefficients, zero-padded or cut to
    the truncation order."""
    vals = tuple(values)[: order + 1]
    return Series(vals + (0,) * (order + 1 - len(vals)))


def one(order: int) -> Series:
    return from_ints([1], order)


def x(order: int) -> Series:
    return from_ints([0, 1], order)


def _catalans(count: int) -> list[int]:
    """Catalan(0), ..., Catalan(count-1) by the running product
    C_{n+1} = C_n * 2(2n+1) / (n+2)."""
    out = []
    c = 1
    for n in range(count):
        out.append(c)
        c = c * (4 * n + 2) // (n + 2)
    return out


def sqrt_one_minus_4x(order: int) -> Series:
    """sqrt(1-4x) = 1 - 2x C(x): c_0 = 1, c_n = -2*Catalan(n-1)."""
    return Series((1,) + tuple(-2 * c for c in _catalans(order)))


def catalan_series(order: int) -> Series:
    """C(x) = (1 - sqrt(1-4x)) / (2x) = sum Catalan(n) x^n."""
    return Series(tuple(_catalans(order + 1)))


# --------------------------------------------------------------------------
# bivariate series


class BivariateSeries(_Value):
    """x-truncated series in x and y, stored x-major: coeffs[n][k] is the
    coefficient of x^n y^k, for k <= n."""

    __slots__ = ("coeffs",)
    coeffs: tuple[tuple[int, ...], ...]
    order = Series.order

    def coefficient(self, n: int, k: int) -> int:
        """The coefficient of x^n y^k."""
        row = self.coeffs[n]
        return row[k] if k < len(row) else 0

    def at_y1(self) -> Series:
        """Evaluate y = 1, collapsing to a univariate series in x."""
        return Series(tuple(sum(row) for row in self.coeffs))


# --------------------------------------------------------------------------
# catalog

CATALOG_NAMES = (
    "main",
    "indec_le1peak",
    "schroder_le1peak_per_comp",
    "pi4_nonempty",
    "class5_F",
    "class5_F_rationalized",
    "class5_indec",
    "class5_bivariate",
)


def gf_catalog(name: str, order: int):
    """
    The named generating function, truncated at the given order.

    main
        Avoiders of any of the five triples, by length:
        (1-5x+(1+x)sqrt(1-4x)) / (1-5x+(1-x)sqrt(1-4x)).
    indec_le1peak
        Indecomposable Schroder paths with at most one peak, by size:
        (1 + x + x/sqrt(1-4x) - sqrt(1-4x)) / 2.
    schroder_le1peak_per_comp
        Schroder paths with at most one peak in every component:
        2*sqrt(1-4x) / (1-5x+(1-x)sqrt(1-4x)).
    pi4_nonempty
        Nonempty avoiders of the fourth triple: x times the previous entry.
    class5_F
        1 + pi4_nonempty: the same function as `main`, assembled along the
        fifth class's route.
    class5_F_rationalized
        1 + (2x^2 + x(1-5x)C(x)) / (1-4x-x^2), with the radical cleared from
        the denominator.
    class5_indec
        Indecomposable avoiders of the fifth triple, by length:
        x / (1 - x/sqrt(1-4x)).  Coefficients 1,1,3,11,43,... from n=1
        (OEIS A026671 shifted onto the length index).
    class5_bivariate
        Avoiders of the fifth triple by length (x) and number of components
        (y): 2xy*sqrt(1-4x) / (y-2x-3xy+(2-xy-y)sqrt(1-4x)).  The
        denominator is d0 + y*d1 with d0 = 2(sqrt(1-4x) - x) and
        d1 = 1 - 3x - (1+x)sqrt(1-4x), so the y^k coefficient is G*R^(k-1)
        with G = 2x*sqrt(1-4x)/d0 and R = -d1/d0, both exact divisions.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    N = order
    sq = sqrt_one_minus_4x(N)
    xs = x(N)
    ones = one(N)
    if name == "main":
        num = from_ints([1, -5], N) + from_ints([1, 1], N) * sq
        den = from_ints([1, -5], N) + from_ints([1, -1], N) * sq
        return num / den
    if name == "indec_le1peak":
        return (ones + xs + xs / sq - sq) / 2
    if name == "schroder_le1peak_per_comp":
        den = from_ints([1, -5], N) + from_ints([1, -1], N) * sq
        return (sq * 2) / den
    if name == "pi4_nonempty":
        return gf_catalog("schroder_le1peak_per_comp", N).shift()
    if name == "class5_F":
        return ones + gf_catalog("pi4_nonempty", N)
    if name == "class5_F_rationalized":
        C = catalan_series(N)
        num = from_ints([0, 0, 2], N) + xs * from_ints([1, -5], N) * C
        return ones + num / from_ints([1, -4, -1], N)
    if name == "class5_indec":
        return xs / (ones - xs / sq)
    if name == "class5_bivariate":
        # the denominator is d0 + y*d1, so F = sum_{k>=1} y^k G R^(k-1)
        d0 = (sq - xs) * 2
        d1 = from_ints([1, -3], N) - from_ints([1, 1], N) * sq
        G = (sq * 2).shift() / d0
        R = -d1 / d0
        cols = [G]  # cols[k-1] is the y^k coefficient, a series from x^k on
        for _ in range(1, N):
            cols.append(cols[-1] * R)
        return BivariateSeries(
            tuple((0,) + tuple(c[n] for c in cols[:n]) for n in range(N + 1))
        )
    raise KeyError(f"unknown series {name!r}; choose from {CATALOG_NAMES}")
