"""Integer polynomials, sign-change counting, and certified root isolation.

Root enclosures come from one exact bisection loop, `RootInterval.refined`,
behind two bracket strategies:

- `isolate_unique_positive_root` takes a polynomial with exactly one
  positive coefficient sign change (so one positive root) and brackets it
  by [1, 1+max|coeff|] or [0, 1];
- `largest_positive_root` takes any integer polynomial and bisects its
  square-free part with Sturm counts until the largest positive root is
  alone in (lo, hi].  That is what the spectral-radius code needs for
  characteristic polynomials with repeated or clustered roots.  It routes a
  polynomial with one sign change to the first strategy and returns a
  largest root of exactly 1 as the exact interval [1, 1].

Every polynomial, Sturm chain members included, is evaluated by one sparse
integer kernel, `_homogeneous`: at x = m/d it returns d^deg * p(x), so a
sign needs no Fraction.  `IntPoly.__call__` divides it by d^deg, and the
bisection keeps its endpoints as integers over q * 2^k and builds
Fractions only at return.

`LaurentPoly` supports the path-generating functions used by the rome
method: entries are integer combinations of powers of 1/x.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence


class IntPoly:
    """Integer-coefficient polynomial, coefficients ascending by degree."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int]):
        cs = [int(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: tuple[int, ...] = tuple(cs)

    @classmethod
    def zero(cls) -> "IntPoly":
        return cls([])

    @classmethod
    def monomial(cls, coeff: int, power: int) -> "IntPoly":
        return cls([0] * power + [coeff])

    @classmethod
    def from_terms(cls, terms: dict[int, int]) -> "IntPoly":
        if not terms:
            return cls([])
        deg = max(terms)
        cs = [0] * (deg + 1)
        for p, c in terms.items():
            cs[p] += c
        return cls(cs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other: object) -> bool:
        return isinstance(other, IntPoly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __add__(self, other: "IntPoly") -> "IntPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [0] * (n - len(self.coeffs))
        for i, c in enumerate(other.coeffs):
            a[i] += c
        return IntPoly(a)

    def __neg__(self) -> "IntPoly":
        return IntPoly([-c for c in self.coeffs])

    def __sub__(self, other: "IntPoly") -> "IntPoly":
        return self + (-other)

    def __mul__(self, other: "IntPoly") -> "IntPoly":
        if self.is_zero() or other.is_zero():
            return IntPoly([])
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                if b:
                    out[i + j] += a * b
        return IntPoly(out)

    def scale(self, k: int) -> "IntPoly":
        return IntPoly([k * c for c in self.coeffs])

    def __call__(self, x: Fraction) -> Fraction:
        if not self.coeffs:
            return Fraction(0)
        d = x.denominator
        return Fraction(_homogeneous(self._scaled_terms(d), x.numerator, 0), d**self.degree)

    def _scaled_terms(self, d: int) -> list[tuple[int, int, int]]:
        """(c_p * d^(deg-p), p, deg-p) for every nonzero c_p: the terms
        `_homogeneous` sums for points with denominator d * 2^k."""
        deg = self.degree
        return [(c * d ** (deg - p), p, deg - p) for p, c in enumerate(self.coeffs) if c]

    def derivative(self) -> "IntPoly":
        return IntPoly([p * c for p, c in enumerate(self.coeffs)][1:])

    def strip_power_factor(self) -> tuple["IntPoly", int]:
        """Remove the largest x^k dividing the polynomial; returns (quotient, k)."""
        if self.is_zero():
            return self, 0
        k = 0
        while self.coeffs[k] == 0:
            k += 1
        return IntPoly(self.coeffs[k:]), k

    def normalized_sign(self) -> "IntPoly":
        """Flip the sign so the leading coefficient is positive."""
        if self.coeffs and self.coeffs[-1] < 0:
            return -self
        return self

    def __repr__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for p in range(self.degree, -1, -1):
            c = self.coeffs[p]
            if c == 0:
                continue
            mag = abs(c)
            if p == 0:
                term = str(mag)
            elif p == 1:
                term = "x" if mag == 1 else f"{mag}*x"
            else:
                term = f"x^{p}" if mag == 1 else f"{mag}*x^{p}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts)

    def to_json(self) -> list[str]:
        return [str(c) for c in self.coeffs]


def descartes_positive_sign_changes(p: IntPoly) -> int:
    """Number of sign changes in the coefficient sequence (zeros skipped).

    One sign change certifies exactly one positive real root.
    """
    if p.is_zero():
        raise ValueError("zero polynomial has no sign-change count")
    signs = [1 if c > 0 else -1 for c in p.coeffs if c != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


@dataclass(frozen=True)
class RootInterval:
    """Certified enclosure of a single real root of `poly`.

    Either lo == hi is an exact root, or the root is the one root of poly
    in the half-open (lo, hi]: hi is not a root, and poly changes sign
    between just right of lo and hi.  lo itself may be a root (a smaller
    one, as `largest_positive_root` can leave it).
    """

    lo: Fraction
    hi: Fraction
    poly: IntPoly

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError("lo > hi")
        if self.lo == self.hi:
            if _sign_at(self.poly, self.lo) != 0:
                raise ValueError("degenerate interval must hit the root exactly")
            return
        shi = _sign_at(self.poly, self.hi)
        if shi == 0:
            raise ValueError("hi is a root: use the exact interval [hi, hi]")
        if _sign_right_of(self.poly, self.lo) == shi:
            raise ValueError("polynomial does not change sign over (lo, hi]")

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def is_exact(self) -> bool:
        return self.lo == self.hi

    def refined(self, digits: int) -> "RootInterval":
        """Bisect until the width drops below 10^-digits.

        The package's one bisection loop.  A midpoint with the sign of hi
        becomes the new hi, any other the new lo, so the root kept is the
        one in (lo, hi].  With lo = a/q and hi = b/q, every point visited is
        an integer over q * 2^k, so the loop runs on integer numerators and
        takes each sign from `_homogeneous`; Fractions are built at return.
        """
        lo, hi = self.lo, self.hi
        if lo == hi:
            return self
        q = lcm(lo.denominator, hi.denominator)
        a, b = lo.numerator * (q // lo.denominator), hi.numerator * (q // hi.denominator)
        terms = self.poly._scaled_terms(q)
        shi = _sign(_homogeneous(terms, b, 0))
        # (lo, hi) = (a, b) / (q * 2^k), and b - a stays the initial gap:
        # the width is below 10^-digits once (b - a) * 10^digits < q * 2^k.
        gap, k = (b - a) * 10**digits, 0
        while gap >= q << k:
            mid, k = a + b, k + 1
            v = _sign(_homogeneous(terms, mid, k))
            if v == 0:
                x = Fraction(mid, q << k)
                return RootInterval(x, x, self.poly)
            if v == shi:
                a, b = 2 * a, mid
            else:
                a, b = mid, 2 * b
        return RootInterval(Fraction(a, q << k), Fraction(b, q << k), self.poly)


def _homogeneous(terms: list[tuple[int, int, int]], m: int, k: int) -> int:
    """(d * 2^k)^deg * p(m / (d * 2^k)) for the `IntPoly._scaled_terms(d)`
    of p: the exact integer sum of c_p d^(deg-p) m^p 2^(k(deg-p)).  The
    powers of m are built upward, one gap in the exponents at a time."""
    total, mp, prev = 0, 1, 0
    for c, p, e in terms:
        mp *= m ** (p - prev)
        prev = p
        total += c * mp << k * e
    return total


def _sign(q: int) -> int:
    return (q > 0) - (q < 0)


def _sign_at(p: IntPoly, x: Fraction) -> int:
    """Sign of p(x), read off `_homogeneous` without building p(x)."""
    return _sign(_homogeneous(p._scaled_terms(x.denominator), x.numerator, 0))


def _sign_right_of(p: IntPoly, x: Fraction) -> int:
    """Sign of a nonzero p just right of x: that of the lowest derivative
    (p itself included) not vanishing at x."""
    while (s := _sign_at(p, x)) == 0:
        p = p.derivative()
    return s


def coefficient_bound(p: IntPoly) -> int:
    """Upper bound 1 + max|coeff| for all real roots of an integer polynomial."""
    return 1 + max(abs(c) for c in p.coeffs)


def isolate_unique_positive_root(p: IntPoly, digits: int) -> RootInterval:
    """Enclosure of width < 10^-digits for the unique positive root of `p`.

    Requires exactly one coefficient sign change.  The bracket is
    [1, 1+max|coeff|], falling back to [0, 1] when the root lies below 1;
    `RootInterval.refined` bisects it.
    """
    if p.is_zero():
        raise ValueError("zero polynomial")
    core, _ = p.strip_power_factor()
    if descartes_positive_sign_changes(core) != 1:
        raise ValueError("polynomial does not have exactly one positive sign change")
    core = core.normalized_sign()
    one = _sign_at(core, Fraction(1))
    if one == 0:
        return RootInterval(Fraction(1), Fraction(1), core)
    if one < 0:
        lo, hi = Fraction(1), Fraction(coefficient_bound(core))
    else:
        # p(0) and p(1) share no sign with the (positive) leading behaviour,
        # so the lone root sits in (0, 1).
        lo, hi = Fraction(0), Fraction(1)
    return RootInterval(lo, hi, core).refined(digits)


# ---------------------------------------------------------------------------
# Sturm chains (needed for characteristic polynomials of arbitrary digraphs,
# whose positive roots need not be simple or unique)
# ---------------------------------------------------------------------------


def _frac_coeffs(p: IntPoly) -> list[Fraction]:
    return [Fraction(c) for c in p.coeffs]


def _poly_divmod(a: list[Fraction], b: list[Fraction]):
    """Quotient and remainder of a by b over the rationals (coefficients ascending)."""
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    r = a[:]
    db = len(b) - 1
    while len(r) - 1 >= db and any(r):
        while r and r[-1] == 0:
            r.pop()
        if len(r) - 1 < db:
            break
        f = r[-1] / b[-1]
        shift = len(r) - 1 - db
        q[shift] = f
        for i, c in enumerate(b):
            r[shift + i] -= f * c
        r.pop()
    while r and r[-1] == 0:
        r.pop()
    return q, r


def sturm_chain(p: IntPoly) -> list[IntPoly]:
    """Sturm chain of p.  Each remainder is scaled by a positive constant to
    a primitive integer polynomial, which keeps every sign of the chain."""
    chain = [p]
    nxt = p.derivative()
    while not nxt.is_zero():
        chain.append(nxt)
        _, rem = _poly_divmod(_frac_coeffs(chain[-2]), _frac_coeffs(nxt))
        nxt = _primitive([-c for c in rem])
    return chain


def _sturm_variations(chain: list[IntPoly], x: Fraction) -> int:
    signs = [s for s in (_sign_at(q, x) for q in chain) if s]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_roots_in(p: IntPoly, a: Fraction, b: Fraction, chain=None) -> int:
    """Number of distinct real roots of p in the half-open interval (a, b]."""
    if chain is None:
        chain = sturm_chain(p)
    return _sturm_variations(chain, a) - _sturm_variations(chain, b)


def _primitive(coeffs: Sequence[Fraction]) -> IntPoly:
    """The primitive integer polynomial that is a positive rational multiple
    of `coeffs`."""
    den = lcm(*(c.denominator for c in coeffs)) if coeffs else 1
    ints = [int(c * den) for c in coeffs]
    g = 0
    for c in ints:
        g = gcd(g, abs(c))
    return IntPoly([c // g for c in ints]) if g else IntPoly([])


def poly_gcd(p: IntPoly, q: IntPoly) -> IntPoly:
    """Greatest common divisor over Q, as a primitive integer polynomial
    with positive leading coefficient."""
    a, b = _frac_coeffs(p), _frac_coeffs(q)
    while b:
        a, b = b, _poly_divmod(a, b)[1]
    return _primitive(a).normalized_sign()


def _squarefree_part(p: IntPoly) -> IntPoly:
    """Primitive square-free part p / gcd(p, p') over the integers."""
    g = poly_gcd(p, p.derivative())
    if g.degree <= 0:
        return p.normalized_sign()
    q, rem = _poly_divmod(_frac_coeffs(p), _frac_coeffs(g))
    assert not rem, "gcd division must be exact"
    return _primitive(q).normalized_sign()


def largest_positive_root(p: IntPoly, digits: int) -> RootInterval | None:
    """Certified enclosure of the largest positive real root, or None.

    Works for any nonzero integer polynomial.  With one coefficient sign
    change the root is unique and `isolate_unique_positive_root` brackets
    it.  Otherwise the square-free part is bisected with Sturm counts until
    the largest root is alone in (lo, hi], so repeated roots and several
    positive roots are all handled; a largest root of exactly 1 (a pure
    cycle's radius) is returned as the exact interval [1, 1].
    """
    if p.is_zero():
        raise ValueError("zero polynomial")
    core, _ = p.strip_power_factor()
    if core.degree == 0:
        return None
    if descartes_positive_sign_changes(core) == 1:
        return isolate_unique_positive_root(core, digits)
    sf = _squarefree_part(core)
    chain = sturm_chain(sf)
    lo, hi = Fraction(0), Fraction(coefficient_bound(sf))
    # Invariant: the largest positive root lies in (lo, hi], with n roots there.
    n = count_roots_in(sf, lo, hi, chain)
    if n == 0:
        return None
    one = Fraction(1)
    if _sign_at(sf, one) == 0 and count_roots_in(sf, one, hi, chain) == 0:
        return RootInterval(one, one, sf)
    while n > 1:
        mid = (lo + hi) / 2
        above = count_roots_in(sf, mid, hi, chain)
        if above:
            lo, n = mid, above
        elif _sign_at(sf, mid) == 0:
            return RootInterval(mid, mid, sf)
        else:
            hi = mid
    return RootInterval(lo, hi, sf).refined(digits)


# ---------------------------------------------------------------------------
# Laurent polynomials in 1/x for the rome path-generating functions
# ---------------------------------------------------------------------------


class LaurentPoly:
    """Integer Laurent polynomial; terms map exponent -> coefficient."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[int, int] | None = None):
        self.terms = {int(p): int(c) for p, c in (terms or {}).items() if c != 0}

    @classmethod
    def constant(cls, c: int) -> "LaurentPoly":
        return cls({0: c})

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        out = dict(self.terms)
        for p, c in other.terms.items():
            out[p] = out.get(p, 0) + c
        return LaurentPoly(out)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        out = dict(self.terms)
        for p, c in other.terms.items():
            out[p] = out.get(p, 0) - c
        return LaurentPoly(out)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly({p: -c for p, c in self.terms.items()})

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        out: dict[int, int] = {}
        for p1, c1 in self.terms.items():
            for p2, c2 in other.terms.items():
                key = p1 + p2
                out[key] = out.get(key, 0) + c1 * c2
        return LaurentPoly(out)

    def shifted(self, k: int) -> "LaurentPoly":
        """Multiply by x^k."""
        return LaurentPoly({p + k: c for p, c in self.terms.items()})

    def is_zero(self) -> bool:
        return not self.terms

    def min_exponent(self) -> int:
        if not self.terms:
            return 0
        return min(self.terms)

    def to_int_poly(self) -> IntPoly:
        if self.terms and min(self.terms) < 0:
            raise ValueError("Laurent polynomial has negative exponents")
        return IntPoly.from_terms(self.terms)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, LaurentPoly) and self.terms == other.terms

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for p in sorted(self.terms, reverse=True):
            c = self.terms[p]
            if p == 0:
                parts.append(f"{c}")
            else:
                parts.append(f"{c}*x^{p}" if c != 1 else f"x^{p}")
        return " + ".join(parts)


def laurent_poly_det(matrix: Sequence[Sequence[LaurentPoly]]) -> LaurentPoly:
    """Exact determinant over the Laurent-polynomial ring, by cofactor expansion."""
    n = len(matrix)
    for row in matrix:
        if len(row) != n:
            raise ValueError("matrix must be square")
    if n == 0:
        return LaurentPoly.constant(1)
    if n == 1:
        return matrix[0][0]
    total = LaurentPoly()
    for j in range(n):
        entry = matrix[0][j]
        if entry.is_zero():
            continue
        minor = [[row[k] for k in range(n) if k != j] for row in matrix[1:]]
        cof = entry * laurent_poly_det(minor)
        total = total + cof if j % 2 == 0 else total - cof
    return total
