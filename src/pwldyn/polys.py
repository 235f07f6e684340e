"""Integer polynomials, sign-change counting, and certified root isolation.

Root enclosures are produced by exact bisection on Fractions.  A polynomial
with exactly one positive sign change (one positive root) is refined through
`isolate_unique_positive_root`; arbitrary integer polynomials go through a
Sturm chain (`largest_positive_root`), which is what the spectral-radius
code needs for characteristic polynomials with repeated or clustered roots.

`LaurentPoly` supports the path-generating functions used by the rome
method: entries are integer combinations of powers of 1/x.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
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
        # Sparse evaluation: the polynomials here often have 3-5 terms but
        # degree in the thousands.
        total = Fraction(0)
        for p, c in enumerate(self.coeffs):
            if c:
                total += c * x**p
        return total

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
    """Certified enclosure [lo, hi] of a single real root of `poly`.

    Either lo == hi is an exact root, or poly changes sign over [lo, hi]
    and the interval contains exactly one root.
    """

    lo: Fraction
    hi: Fraction
    poly: IntPoly

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError("lo > hi")
        if self.lo == self.hi:
            if self.poly(self.lo) != 0:
                raise ValueError("degenerate interval must hit the root exactly")
        elif _sign(self.poly(self.lo)) * _sign(self.poly(self.hi)) > 0:
            raise ValueError("polynomial does not change sign over the interval")

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def is_exact(self) -> bool:
        return self.lo == self.hi

    def refined(self, digits: int) -> "RootInterval":
        """Bisect until the width drops below 10^-digits."""
        lo, hi = self.lo, self.hi
        if lo == hi:
            return self
        tol = Fraction(1, 10**digits)
        slo = _sign(self.poly(lo))
        while hi - lo >= tol:
            mid = (lo + hi) / 2
            v = self.poly(mid)
            if v == 0:
                return RootInterval(mid, mid, self.poly)
            if _sign(v) == slo:
                lo = mid
            else:
                hi = mid
        return RootInterval(lo, hi, self.poly)

    def contains(self, q: Fraction) -> bool:
        return self.lo <= q <= self.hi

    def midpoint_float(self) -> float:
        return float((self.lo + self.hi) / 2)


def _sign(q: Fraction) -> int:
    return (q > 0) - (q < 0)


def coefficient_bound(p: IntPoly) -> int:
    """Upper bound 1 + max|coeff| for all real roots of an integer polynomial."""
    return 1 + max(abs(c) for c in p.coeffs)


def isolate_unique_positive_root(p: IntPoly, digits: int) -> RootInterval:
    """Enclosure of width < 10^-digits for the unique positive root of `p`.

    Requires exactly one coefficient sign change.  Pure bisection on exact
    rationals; the initial bracket is [1, 1+max|coeff|], falling back to
    [0, 1] when the root lies below 1.
    """
    if p.is_zero():
        raise ValueError("zero polynomial")
    core, _ = p.strip_power_factor()
    if descartes_positive_sign_changes(core) != 1:
        raise ValueError("polynomial does not have exactly one positive sign change")
    core = core.normalized_sign()
    one = core(Fraction(1))
    if one == 0:
        return RootInterval(Fraction(1), Fraction(1), core)
    M = Fraction(coefficient_bound(core))
    if one < 0:
        lo, hi = Fraction(1), M
    else:
        # p(0) and p(1) share no sign with the (positive) leading behaviour,
        # so the lone root sits in (0, 1).
        lo, hi = Fraction(0), Fraction(1)
    tol = Fraction(1, 10**digits)
    slo = _sign(core(lo))
    while hi - lo >= tol:
        mid = (lo + hi) / 2
        v = core(mid)
        if v == 0:
            return RootInterval(mid, mid, core)
        if _sign(v) == slo:
            lo = mid
        else:
            hi = mid
    return RootInterval(lo, hi, core)


# ---------------------------------------------------------------------------
# Sturm chains (needed for characteristic polynomials of arbitrary digraphs,
# whose positive roots need not be simple or unique)
# ---------------------------------------------------------------------------


def _frac_coeffs(p: IntPoly) -> list[Fraction]:
    return [Fraction(c) for c in p.coeffs]


def _poly_rem(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    """Remainder of a by b over the rationals (coefficients ascending)."""
    r = a[:]
    db = len(b) - 1
    while len(r) - 1 >= db and any(r):
        while r and r[-1] == 0:
            r.pop()
        if len(r) - 1 < db:
            break
        f = r[-1] / b[-1]
        shift = len(r) - 1 - db
        for i, c in enumerate(b):
            r[shift + i] -= f * c
        r.pop()
    while r and r[-1] == 0:
        r.pop()
    return r


def sturm_chain(p: IntPoly) -> list[list[Fraction]]:
    chain = [_frac_coeffs(p), _frac_coeffs(p.derivative())]
    while chain[-1]:
        rem = _poly_rem(chain[-2], chain[-1])
        if not rem:
            break
        chain.append([-c for c in rem])
    return [c for c in chain if c]


def _eval_frac(coeffs: Sequence[Fraction], x: Fraction) -> Fraction:
    total = Fraction(0)
    for c in reversed(coeffs):
        total = total * x + c
    return total


def _sturm_variations(chain: list[list[Fraction]], x: Fraction) -> int:
    signs = []
    for coeffs in chain:
        v = _eval_frac(coeffs, x)
        if v != 0:
            signs.append(1 if v > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_roots_in(p: IntPoly, a: Fraction, b: Fraction, chain=None) -> int:
    """Number of distinct real roots of p in the half-open interval (a, b]."""
    if chain is None:
        chain = sturm_chain(p)
    return _sturm_variations(chain, a) - _sturm_variations(chain, b)


def _primitive(coeffs: Sequence[Fraction]) -> IntPoly:
    """The primitive integer polynomial with positive leading coefficient
    that is a rational multiple of `coeffs`."""
    from math import gcd, lcm

    den = lcm(*(c.denominator for c in coeffs)) if coeffs else 1
    ints = [int(c * den) for c in coeffs]
    g = 0
    for c in ints:
        g = gcd(g, abs(c))
    return IntPoly([c // g for c in ints]).normalized_sign() if g else IntPoly([])


def poly_gcd(p: IntPoly, q: IntPoly) -> IntPoly:
    """Greatest common divisor over Q, as a primitive integer polynomial."""
    a, b = _frac_coeffs(p), _frac_coeffs(q)
    while b:
        a, b = b, _poly_rem(a, b)
    return _primitive(a)


def _squarefree_part(p: IntPoly) -> IntPoly:
    """Primitive square-free part p / gcd(p, p') over the integers."""
    g = poly_gcd(p, p.derivative())
    if g.degree <= 0:
        return p.normalized_sign()
    q, rem = _poly_divmod(_frac_coeffs(p), _frac_coeffs(g))
    assert not rem, "gcd division must be exact"
    return _primitive(q)


def _poly_divmod(a: list[Fraction], b: list[Fraction]):
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


def largest_positive_root(p: IntPoly, digits: int) -> RootInterval | None:
    """Certified enclosure of the largest positive real root, or None.

    Works for any nonzero integer polynomial: the square-free part is
    bracketed with a Sturm chain, so repeated roots and several positive
    roots are all handled.
    """
    if p.is_zero():
        raise ValueError("zero polynomial")
    core, _ = p.strip_power_factor()
    if core.degree == 0:
        return None
    sf = _squarefree_part(core)
    chain = sturm_chain(sf)
    M = Fraction(coefficient_bound(sf))
    if count_roots_in(sf, Fraction(0), M, chain) == 0:
        return None
    lo, hi = Fraction(0), M
    tol = Fraction(1, 10**digits)
    # Invariant: largest positive root lies in (lo, hi], none in (hi, M].
    while hi - lo >= tol or count_roots_in(sf, lo, hi, chain) > 1:
        mid = (lo + hi) / 2
        if _eval_frac(chain[0], mid) == 0 and count_roots_in(sf, mid, hi, chain) == 0:
            return RootInterval(mid, mid, sf)
        if count_roots_in(sf, mid, hi, chain) >= 1:
            lo = mid
        else:
            hi = mid
    if _eval_frac(chain[0], hi) == 0:
        return RootInterval(hi, hi, sf)
    return RootInterval(lo, hi, sf)


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

    def cleared(self) -> tuple[IntPoly, int]:
        """Clear denominators: returns (x^k * self as IntPoly, k)."""
        k = -self.min_exponent()
        if k < 0:
            k = 0
        return self.shifted(k).to_int_poly(), k

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
