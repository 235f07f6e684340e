"""Integer polynomials, sign-change counting, and certified root isolation.

Root enclosures come from one exact refinement loop, `RootInterval.refined`,
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
refinement keeps its endpoints as integers over q * 2^k and builds
Fractions only at return.  It returns the bisection's enclosure to the
bit, but takes quadratic interval refinement steps on the bisection's own
grid where the root is unique, so a simple root costs O(log digits)
evaluations rather than one per bit.

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
        """The bisection's enclosure of width below 10^-digits.

        The package's one refinement loop.  With lo = a/q and hi = b/q,
        the bisection's depth-k grid is the integers over q * 2^k, and it
        stops at the first depth K whose cells are narrower than
        10^-digits.  Its plain step evaluates the midpoint: one with the
        sign of hi becomes the new hi, any other the new lo, so the root
        kept is the one in (lo, hi].

        When that root is the only one right of lo >= 0 (one coefficient
        sign change) and lo is not a root, the loop first tries Abbott's
        quadratic interval refinement on the same grid: split the cell
        into 2^j sub-cells, evaluate the one the secant picks, and keep it
        if its exact end signs bracket the root (then j doubles; else j
        halves and the plain step runs).  A kept sub-cell is the grid cell
        bisection would reach, and every probe is a grid point of depth at
        most K, so the enclosure is the bisection's to the bit, in
        O(log digits) steps once the secant is close.  Signs and values
        come from `_homogeneous` on integer numerators; Fractions are built
        at return.
        """
        lo, hi = self.lo, self.hi
        if lo == hi:
            return self
        q = lcm(lo.denominator, hi.denominator)
        a, b = lo.numerator * (q // lo.denominator), hi.numerator * (q // hi.denominator)
        terms, deg = self.poly._scaled_terms(q), self.poly.degree
        fa, fb = _homogeneous(terms, a, 0), _homogeneous(terms, b, 0)
        shi = _sign(fb)
        # The cell is (a, b) / (q * 2^k) with b - a = gap throughout, and
        # f(x) = (q * 2^k)^deg * p(x) at its ends.  K is the least k with
        # gap * 10^digits < q * 2^k.
        gap, k = b - a, 0
        depth = (gap * 10**digits // q).bit_length()
        qir = lo >= 0 and fa != 0 and descartes_positive_sign_changes(self.poly) == 1

        def exact(m: int, depth_m: int) -> "RootInterval":
            x = Fraction(m, q << depth_m)
            return RootInterval(x, x, self.poly)

        j = 1
        while k < depth:
            if qir:
                j = min(j, depth - k)
                n, s = 1 << j, abs(fa) + abs(fb)
                i = min(max((2 * n * abs(fa) + s) // (2 * s), 1), n - 1)
                p, kj = (a << j) + i * gap, k + j
                fp = _homogeneous(terms, p, kj)
                if fp == 0:
                    return exact(p, kj)
                # Evaluate the neighbour on the root's side; a cell end's
                # value is the old one scaled to depth k + j.
                if _sign(fp) == shi:
                    m = p - gap
                    fm = fa << j * deg if i == 1 else _homogeneous(terms, m, kj)
                    cell = (m, p, fm, fp)
                else:
                    m = p + gap
                    fm = fb << j * deg if i == n - 1 else _homogeneous(terms, m, kj)
                    cell = (p, m, fp, fm)
                if fm == 0:
                    return exact(m, kj)
                if _sign(fm) != _sign(fp):
                    a, b, fa, fb = cell
                    k, j = kj, 2 * j
                    continue
                j = max(j // 2, 1)
            mid, k = a + b, k + 1
            fm = _homogeneous(terms, mid, k)
            if fm == 0:
                return exact(mid, k)
            if _sign(fm) == shi:
                a, b, fa, fb = 2 * a, mid, fa << deg, fm
            else:
                a, b, fa, fb = mid, 2 * b, fm, fb << deg
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
    """Sign of p(x), read off `_homogeneous` without building p(x).

    The denominator is split as odd * 2^t, so only the odd part is raised
    to powers; the power of two enters as shifts.
    """
    d = x.denominator
    t = (d & -d).bit_length() - 1
    return _sign(_homogeneous(p._scaled_terms(d >> t), x.numerator, t))


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
    `RootInterval.refined` narrows it by quadratic interval refinement.
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
