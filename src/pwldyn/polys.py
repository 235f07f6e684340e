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

`compare_roots` orders the roots of two enclosures exactly, refining
them only while they overlap and hold distinct roots.

`IntPoly` is the one polynomial type, and its nonzero (power, coeff) terms
are its one representation; the dense coefficient tuple is a view that
only the pseudo-division reads.  Sturm chain members, gcds and square-free
parts are primitive integer pseudo-remainders and quotients
(`_pseudo_divmod`), positive multiples of the rational ones, and the rome
determinant of `markov` is `poly_det` over `IntPoly` entries.

The kernel reads those terms with the odd part d of a point's denominator:
at x = m / (d * 2^k) it evaluates the integer (d * 2^k)^deg * p(x), so a
sign needs no Fraction.  `_homogeneous` builds that integer exactly;
`IntPoly.__call__` divides it out.  Every sign query (the refinement's probes,
`_sign_at` in the constructor's proof, in Sturm counts and in
`largest_positive_root`) goes through `_probe`.  Where the exact integer
would be long, `_probe` first bounds it from below and above by
`_bounded`, with the powers of m and of d formed by squaring and every
product cut to a few more bits than the point's depth (directed rounding,
as in Rump's verification methods), and takes the sign those bounds prove;
the exact kernel decides only when they cannot.  So every sign is exact,
no float is used, and a deep probe costs about its depth in bits rather
than degree times depth.  The refinement keeps its endpoints as integers
over q * 2^k and builds Fractions only at return.  It returns the
bisection's enclosure to the bit, but takes quadratic interval refinement
steps on the bisection's own grid where the root is unique, so a simple
root costs O(log digits) evaluations rather than one per bit.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import index, itemgetter
from typing import Iterable, Sequence


class IntPoly:
    """Integer polynomial, held as its nonzero terms: the (power, coeff)
    pairs, ascending in power.  Equality, hashing and the arithmetic read
    those terms, and the sign kernel reads them with the odd part of the
    point's denominator, so a polynomial costs its terms, not its degree.
    `coeffs` is the dense view, ascending by degree.  A coefficient that is
    not an integer (a Fraction, a float) is refused, not truncated."""

    __slots__ = ("terms",)

    def __init__(self, coeffs: Iterable[int]):
        self.terms = tuple(filter(itemgetter(1), enumerate(_integers(coeffs))))

    @classmethod
    def from_terms(cls, terms: dict[int, int]) -> "IntPoly":
        """The sum of c x^p over {p: c}."""
        poly = object.__new__(cls)
        poly.terms = tuple(sorted(filter(itemgetter(1), zip(terms, _integers(terms.values())))))
        return poly

    @property
    def coeffs(self) -> tuple[int, ...]:
        cs = [0] * (self.degree + 1)
        for p, c in self.terms:
            cs[p] = c
        return tuple(cs)

    @property
    def degree(self) -> int:
        return self.terms[-1][0] if self.terms else -1  # -1 for the zero polynomial

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other: object) -> bool:
        return isinstance(other, IntPoly) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(self.terms)

    def __add__(self, other: "IntPoly") -> "IntPoly":
        out = dict(self.terms)
        for p, c in other.terms:
            out[p] = out.get(p, 0) + c
        return IntPoly.from_terms(out)

    def __neg__(self) -> "IntPoly":
        return IntPoly.from_terms({p: -c for p, c in self.terms})

    def __sub__(self, other: "IntPoly") -> "IntPoly":
        return self + -other

    def __mul__(self, other: "IntPoly") -> "IntPoly":
        out: dict[int, int] = {}
        for i, a in self.terms:
            for j, b in other.terms:
                out[i + j] = out.get(i + j, 0) + a * b
        return IntPoly.from_terms(out)

    def __call__(self, x: Fraction) -> Fraction:
        d = x.denominator
        return Fraction(_homogeneous(self.terms, d, x.numerator, 0), d ** max(self.degree, 0))

    def derivative(self) -> "IntPoly":
        return IntPoly.from_terms({p - 1: p * c for p, c in self.terms if p})

    def strip_power_factor(self) -> tuple["IntPoly", int]:
        """Remove the largest x^k dividing the polynomial; returns (quotient, k)."""
        k = self.terms[0][0] if self.terms else 0
        return (IntPoly.from_terms({p - k: c for p, c in self.terms}) if k else self), k

    def normalized_sign(self) -> "IntPoly":
        """Flip the sign so the leading coefficient is positive."""
        return -self if self.terms and self.terms[-1][1] < 0 else self

    def __repr__(self) -> str:
        parts = []
        for p, c in reversed(self.terms):
            x = "" if p == 0 else "x" if p == 1 else f"x^{p}"
            term = x if abs(c) == 1 and p else f"{abs(c)}*{x}" if p else str(abs(c))
            sign = ("- " if c < 0 else "+ ") if parts else "-" if c < 0 else ""
            parts.append(sign + term)
        return " ".join(parts) or "0"


def _integers(values: Iterable) -> list[int]:
    """The values as ints by `operator.index`, or a ValueError naming the
    first one that is not an integer."""
    values = list(values)
    try:
        return list(map(index, values))
    except TypeError:
        bad = next(v for v in values if not hasattr(type(v), "__index__"))
        raise ValueError(f"polynomial coefficients must be integers, got {bad!r}") from None


def descartes_positive_sign_changes(p: IntPoly) -> int:
    """Number of sign changes in the coefficient sequence (zeros skipped).

    One sign change certifies exactly one positive real root.
    """
    if p.is_zero():
        raise ValueError("zero polynomial has no sign-change count")
    signs = [c > 0 for _, c in p.terms]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


class RootInterval:
    """Certified enclosure of a single real root of `poly`.

    Either lo == hi is an exact root, or the root is the one root of poly
    in the half-open (lo, hi]: hi is not a root, and poly changes sign
    between just right of lo and hi.  lo itself may be a root (a smaller
    one, as `largest_positive_root` can leave it).  The constructor proves
    this; `refined` builds its results with `_proven`, since its exact end
    signs already prove them.
    """

    __slots__ = ("lo", "hi", "poly")

    def __init__(self, lo: Fraction, hi: Fraction, poly: IntPoly):
        self.lo, self.hi, self.poly = lo, hi, poly
        if lo > hi:
            raise ValueError("lo > hi")
        if lo == hi:
            if _sign_at(poly, lo) != 0:
                raise ValueError("degenerate interval must hit the root exactly")
            return
        shi = _sign_at(poly, hi)
        if shi == 0:
            raise ValueError("hi is a root: use the exact interval [hi, hi]")
        if _sign_right_of(poly, lo) == shi:
            raise ValueError("polynomial does not change sign over (lo, hi]")

    @classmethod
    def _proven(cls, lo: Fraction, hi: Fraction, poly: IntPoly) -> "RootInterval":
        """The enclosure [lo, hi] of poly, built without the constructor's proof."""
        ri = object.__new__(cls)
        ri.lo, ri.hi, ri.poly = lo, hi, poly
        return ri

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.lo, self.hi, self.poly) == (other.lo, other.hi, other.poly)

    def __hash__(self) -> int:
        return hash((self.lo, self.hi, self.poly))

    def __repr__(self) -> str:
        return f"RootInterval(lo={self.lo!r}, hi={self.hi!r}, poly={self.poly!r})"

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
        O(log digits) steps once the secant is close.

        Each probe is read by `_probe`: its sign is exact, proven from
        truncated bounds at about k + 2j bits when the exact value would be
        long, and its magnitude |d^deg p(x)|, d the odd part of q, is kept
        as (mantissa, exponent), so a cell end carried to a deeper grid
        keeps its value.  The secant reads those magnitudes; the signs
        alone decide which cell is kept.  Fractions are built at return.
        """
        if digits < 0:
            raise ValueError(f"digits must be >= 0, got {digits}")
        lo, hi = self.lo, self.hi
        if lo == hi:
            return self
        q = lcm(lo.denominator, hi.denominator)
        a, b = lo.numerator * (q // lo.denominator), hi.numerator * (q // hi.denominator)
        # With q = d * 2^t, d odd, the cell is (a, b) / (d * 2^k) from
        # k = t on, with b - a = gap throughout, and f(x) = (d * 2^k)^deg *
        # p(x) at its ends, so only d is raised to powers.  K is the least
        # k with gap * 10^digits < d * 2^k.
        t = (q & -q).bit_length() - 1
        d, gap, k = q >> t, b - a, t
        depth = t + (gap * 10**digits // q).bit_length()
        terms, deg = self.poly.terms, self.poly.degree
        # Bits a sign at depth k needs: k plus the bits of d above the
        # start gap (the cell's width below the scale), 2j for the secant's
        # pick among 2^j sub-cells, and a margin for the rounding of about
        # 2 log2(deg) truncated products for each of the powers of m and d.
        margin = max(d.bit_length() - gap.bit_length(), 0) + deg.bit_length() + 64

        def exact(m: int, depth_m: int) -> "RootInterval":
            x = Fraction(m, d << depth_m)
            return RootInterval._proven(x, x, self.poly)

        sa, fa = _probe(terms, d, a, k, margin)
        shi, fb = _probe(terms, d, b, k, margin)
        qir = lo >= 0 and sa != 0 and descartes_positive_sign_changes(self.poly) == 1
        # With qir, the a end has sign -shi and the b end shi throughout.
        j = 1
        while k < depth:
            if qir:
                j = min(j, depth - k)
                n, i, extra = 1 << j, _secant(fa, fb, j), margin + 2 * j
                p, kj = (a << j) + i * gap, k + j
                sp, fp = _probe(terms, d, p, kj, extra)
                if sp == 0:
                    return exact(p, kj)
                # Evaluate the neighbour on the root's side, or reuse the
                # cell end it is.
                if sp == shi:
                    m = p - gap
                    sm, fm = (-shi, fa) if i == 1 else _probe(terms, d, m, kj, extra)
                    cell = (m, p, fm, fp)
                else:
                    m = p + gap
                    sm, fm = (shi, fb) if i == n - 1 else _probe(terms, d, m, kj, extra)
                    cell = (p, m, fp, fm)
                if sm == 0:
                    return exact(m, kj)
                if sm != sp:
                    a, b, fa, fb = cell
                    k, j = kj, 2 * j
                    continue
                j = max(j // 2, 1)
            mid, k = a + b, k + 1
            sm, fm = _probe(terms, d, mid, k, margin + 2 * j)
            if sm == 0:
                return exact(mid, k)
            if sm == shi:
                a, b, fb = 2 * a, mid, fm
            else:
                a, b, fa = mid, 2 * b, fm
        return RootInterval._proven(Fraction(a, d << k), Fraction(b, d << k), self.poly)


def _homogeneous(terms: tuple[tuple[int, int], ...], d: int, m: int, k: int) -> int:
    """(d * 2^k)^deg * p(m / (d * 2^k)) for the nonzero terms (p, c_p) of p:
    the exact sum of c_p m^p d^(deg-p) 2^(k(deg-p)), by Horner's rule over
    the exponent gaps, scaling the partial sum by (d * 2^k)^gap."""
    total, mp, prev = 0, 1, 0
    for p, c in terms:
        g, prev = p - prev, p
        mp *= m**g
        total = (total * d**g << k * g) + c * mp
    return total


def _truncated(v: int, e: int, bits: int, up: bool) -> tuple[int, int]:
    """(w, e') with w * 2^e' the value v * 2^e (v >= 0) cut to `bits` bits,
    rounded down, or up when `up`."""
    s = v.bit_length() - bits
    if s <= 0:
        return v, e
    w = v >> s
    return w + (up and w << s != v), e + s


def _power_bounds(x: int, exponents: list[int], bits: int, up: bool) -> list[tuple[int, int]]:
    """(w, e) with w * 2^e a bound on x^n for each n of the ascending
    `exponents`, x >= 0: each power is the last one times x^(n - last), that
    factor formed by squaring, with x and every product cut to `bits` bits,
    rounded down, or up when `up`.  For x = 1 there is nothing to form."""
    if x == 1:
        return [(1, 0)] * len(exponents)
    x = _truncated(x, 0, bits, up)
    pw, prev, out = (1, 0), 0, []
    for n in exponents:
        g, (xw, xe), prev = n - prev, x, n
        while g:
            if g & 1:
                pw = _truncated(pw[0] * xw, pw[1] + xe, bits, up)
            g >>= 1
            if g:
                xw, xe = _truncated(xw * xw, 2 * xe, bits, up)
        out.append(pw)
    return out


def _bounded(terms: tuple[tuple[int, int], ...], d: int, m: int, k: int, bits: int) -> tuple[int, int, int]:
    """(lo, hi, e) with lo * 2^e <= _homogeneous(terms, d, m, k) <= hi * 2^e,
    for m >= 0.

    Each term's magnitude |c| m^p d^(deg-p) 2^(k(deg-p)) is bounded below
    and above: the powers of m and of d come from `_power_bounds`, upward in
    p for m and downward for d, and |c| and every product are cut to `bits`
    bits, rounded down for the lower bound and up for the upper.  The
    signed bounds are summed on the grid 2^e, `bits` bits below the largest
    term, again rounding each term down or up.
    """
    deg = terms[-1][0]
    mags = []
    for up in (False, True):
        mps = _power_bounds(m, [p for p, _ in terms], bits, up)
        dps = _power_bounds(d, [deg - p for p, _ in reversed(terms)], bits, up)[::-1]
        out = []
        for (p, c), (mw, me), (dw, de) in zip(terms, mps, dps):
            w, ex = _truncated(abs(c), 0, bits, up)
            w, ex = _truncated(w * mw, ex + me, bits, up)
            w, ex = _truncated(w * dw, ex + de, bits, up)
            out.append((w, ex + k * (deg - p)))
        mags.append(out)
    base = max(ex + w.bit_length() for w, ex in mags[1]) - bits
    lo = hi = 0
    for (_, c), (wl, el), (wh, eh) in zip(terms, *mags):
        if c < 0:
            wl, el, wh, eh = -wh, eh, -wl, el
        lo += wl << el - base if el >= base else wl >> base - el
        hi += wh << eh - base if eh >= base else -(-wh >> base - eh)
    return lo, hi, base


# Degree times the bit length of the point above which a probe first tries
# the bounds of `_bounded`: below it the exact integer is short enough that
# building it costs less than the bounds (with a cutover at 4,000 bits the
# roots of levels 0-4 at 100-150 digits took 1.1-1.3x as long).
_EXACT_BITS = 12_000


def _probe(terms: tuple[tuple[int, int], ...], d: int, m: int, k: int, margin: int) -> tuple[int, tuple[int, int]]:
    """Sign of f = _homogeneous(terms, d, m, k) and the magnitude (w, e) of
    f / 2^(k deg), the value d^deg p(x) at x = m / (d 2^k), with w * 2^e at
    most that magnitude: equal when f is built exactly, a lower bound when
    `_bounded` at k + margin bits proves the sign.  Long exact integers
    are built only where the bounds cannot decide, or for m < 0."""
    deg = terms[-1][0] if terms else 0
    if m >= 0 and deg * m.bit_length() > _EXACT_BITS:
        lo, hi, e = _bounded(terms, d, m, k, k + margin)
        if lo > 0:
            return 1, (lo, e - k * deg)
        if hi < 0:
            return -1, (-hi, e - k * deg)
    f = _homogeneous(terms, d, m, k)
    return (-1, (-f, -k * deg)) if f < 0 else (1 if f else 0, (f, -k * deg))


def _secant(fa: tuple[int, int], fb: tuple[int, int], j: int) -> int:
    """round(2^j |fa| / (|fa| + |fb|)) kept in [1, 2^j - 1]: the sub-cell
    the secant through the cell ends picks, from their magnitudes (w, e).
    Where one magnitude is below 2^-(j+1) of the other the rounding is
    known; otherwise the two are aligned exactly, at a shift bounded by
    j + 2 plus the mantissa lengths."""
    (wa, ea), (wb, eb) = fa, fb
    n, ta, tb = 1 << j, ea + wa.bit_length(), eb + wb.bit_length()
    if ta + j + 2 < tb:
        return 1
    if tb + j + 2 < ta:
        return n - 1
    if ea > eb:
        wa <<= ea - eb
    else:
        wb <<= eb - ea
    s = wa + wb
    i = (2 * n * wa + s) // (2 * s)
    return 1 if i < 1 else n - 1 if i >= n else i


def _sign(q: int) -> int:
    return (q > 0) - (q < 0)


def _sign_at(p: IntPoly, x: Fraction) -> int:
    """Sign of p(x), read by `_probe` without building p(x).

    The denominator is split as d * 2^t, d odd, so only d is raised to
    powers; the power of two enters as shifts.  Bounds are tried at the
    denominator's bit length plus the margin of `RootInterval.refined`.
    """
    d = x.denominator
    t = (d & -d).bit_length() - 1
    margin = (d >> t).bit_length() + p.degree.bit_length() + 64
    return _probe(p.terms, d >> t, x.numerator, t, margin)[0]


def _sign_right_of(p: IntPoly, x: Fraction) -> int:
    """Sign of a nonzero p just right of x: that of the lowest derivative
    (p itself included) not vanishing at x."""
    while (s := _sign_at(p, x)) == 0:
        p = p.derivative()
    return s


def coefficient_bound(p: IntPoly) -> int:
    """Upper bound 1 + max|coeff| for all real roots of an integer polynomial."""
    return 1 + max(abs(c) for _, c in p.terms)


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


def _pseudo_divmod(a: IntPoly, b: IntPoly) -> tuple[IntPoly, IntPoly]:
    """Q, R with k*a = Q*b + R for some integer k > 0 and deg R < deg b.

    Each step scales the running remainder and quotient by |lc(b)| and
    subtracts lc(r) * sign(lc(b)) * x^shift * b, so Q and R are positive
    multiples of the rational quotient and remainder and keep their signs.
    """
    db, lb = b.terms[-1]
    m, s = abs(lb), _sign(lb)
    r = list(a.coeffs)
    q = [0] * (len(r) - db)
    while len(r) > db:
        c, shift = r[-1] * s, len(r) - 1 - db
        r, q = [m * x for x in r], [m * x for x in q]
        q[shift] += c
        for i, x in b.terms:
            r[shift + i] -= c * x
        r.pop()  # m * lc(r) - c * lc(b) = 0
        while r and r[-1] == 0:
            r.pop()
    return IntPoly(q), IntPoly(r)


def sturm_chain(p: IntPoly) -> list[IntPoly]:
    """Sturm chain of p.  Each remainder is scaled by a positive constant to
    a primitive integer polynomial, which keeps every sign of the chain."""
    chain = [p]
    nxt = p.derivative()
    while not nxt.is_zero():
        chain.append(nxt)
        nxt = _primitive(-_pseudo_divmod(chain[-2], nxt)[1])
    return chain


def _sturm_variations(chain: list[IntPoly], x: Fraction) -> int:
    signs = [s for s in (_sign_at(q, x) for q in chain) if s]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_roots_in(p: IntPoly, a: Fraction, b: Fraction, chain=None) -> int:
    """Number of distinct real roots of p in the half-open interval (a, b]."""
    if chain is None:
        chain = sturm_chain(p)
    return _sturm_variations(chain, a) - _sturm_variations(chain, b)


def _primitive(p: IntPoly) -> IntPoly:
    """p divided by its content, the gcd of its coefficients."""
    g = gcd(*(c for _, c in p.terms))
    return IntPoly.from_terms({i: c // g for i, c in p.terms}) if g > 1 else p


def poly_gcd(p: IntPoly, q: IntPoly) -> IntPoly:
    """Greatest common divisor over Q, as a primitive integer polynomial
    with positive leading coefficient."""
    while not q.is_zero():
        p, q = q, _primitive(_pseudo_divmod(p, q)[1])
    return _primitive(p).normalized_sign()


def _squarefree_part(p: IntPoly) -> IntPoly:
    """Primitive square-free part p / gcd(p, p') over the integers: the
    primitive part of the pseudo-quotient, exact by Gauss's lemma."""
    g = poly_gcd(p, p.derivative())
    if g.degree <= 0:
        return p.normalized_sign()
    q, rem = _pseudo_divmod(p, g)
    assert rem.is_zero(), "gcd division must be exact"
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


def compare_roots(a: RootInterval, b: RootInterval) -> int:
    """-1, 0 or 1 as the root held by `a` is below, equal to or above that of `b`.

    Exact, and never gives up: overlapping enclosures are first tested for
    one common root (`_same_root`); distinct roots are refined, doubling the
    digits each round, until their enclosures separate.
    """
    if a.hi > b.lo and b.hi > a.lo and _same_root(a, b):
        return 0
    w = max(a.width, b.width)  # digits = about -log10(w)
    digits = max(w.denominator.bit_length() - w.numerator.bit_length(), 0) * 3 // 10
    while True:
        # A root lies in (lo, hi) or is lo = hi, so touching ends order the
        # roots; a.lo == b.hi below means both are that one exact point.
        if a.hi <= b.lo:
            return 0 if a.lo == b.hi else -1
        if b.hi <= a.lo:
            return 1
        digits = max(2 * digits, 1)
        a, b = a.refined(digits), b.refined(digits)


def _same_root(a: RootInterval, b: RootInterval) -> bool:
    """Whether two enclosures hold the same root.

    An exact enclosure holds lo; any other holds the one root of its
    polynomial in (lo, hi].  The roots agree iff gcd(a.poly, b.poly) has a
    root where those two root sets meet.
    """
    lo, hi = max(a.lo, b.lo), min(a.hi, b.hi)
    if lo > hi:
        return False
    g = poly_gcd(a.poly, b.poly)
    if g.degree <= 0:
        return False
    if lo == hi:
        return g(lo) == 0 and all(r.is_exact or r.lo < lo for r in (a, b))
    return count_roots_in(g, lo, hi) > 0


# ---------------------------------------------------------------------------
# Determinants for the rome method of `markov`
# ---------------------------------------------------------------------------


def poly_det(matrix: Sequence[Sequence[IntPoly]]) -> IntPoly:
    """Exact determinant over the integer-polynomial ring, by cofactor expansion."""
    n = len(matrix)
    for row in matrix:
        if len(row) != n:
            raise ValueError("matrix must be square")
    if n == 0:
        return IntPoly([1])
    if n == 1:
        return matrix[0][0]
    total = IntPoly([])
    for j in range(n):
        entry = matrix[0][j]
        if entry.is_zero():
            continue
        minor = [[row[k] for k in range(n) if k != j] for row in matrix[1:]]
        cof = entry * poly_det(minor)
        total = total + cof if j % 2 == 0 else total - cof
    return total
