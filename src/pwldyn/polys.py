"""Integer polynomials, sign-change counting, and certified root isolation.

Root enclosures come from one exact refinement loop, `RootInterval.refined`,
behind two bracket strategies that count roots by one rule, Descartes'
(the coefficient sign changes, `_sign_changes`):

- `isolate_unique_positive_root` takes a polynomial with exactly one
  positive coefficient sign change (so one positive root) and brackets it
  by [1, 1+max|coeff|] or [0, 1], from one exact sign at 1;
- `largest_positive_root` takes any integer polynomial and isolates the
  largest positive root of its square-free part in a dyadic cell of its
  root bound, by the sign changes on each cell.  That is what the
  spectral-radius code needs for characteristic polynomials with repeated
  or clustered roots.  It routes a polynomial with one sign change to the
  first strategy and returns a largest root of exactly 1 as the exact
  interval [1, 1].

`compare_roots` orders the roots of two enclosures exactly, refining
them only while they overlap and hold distinct roots.

`IntPoly` is the one polynomial type.  Its one long division,
`_pseudo_divmod`, scales by the divisor's leading coefficient only where a
step is not exact in Z[y]: gcds and square-free parts are its primitive
remainders and quotients, and `poly_det`, the rome determinant of `markov`
by fraction-free elimination, takes each exact division from it.

The kernel reads those terms with the odd part d of a point's denominator:
at x = m / (d * 2^k) it evaluates the integer (d * 2^k)^deg * p(x), so a
sign needs no Fraction.  `_homogeneous` builds that integer exactly;
`IntPoly.__call__` divides it out.  The one other evaluator is the
fixed-point `_approximate`, which rounds x (or 1/x, where x > 2) and every
product of its powers all down or all up.  Every exact sign (the two that
prove a refinement's answer, the plain bisection's midpoints, `_sign_at`
in the constructor's proof and in `_same_root`) goes through `_probe`.
Where the exact integer would be long, `_probe` first takes the sign that
a pass rounded down and one rounded up prove, at a few more bits than the
point's depth (directed rounding, as in Rump's verification methods); the
exact kernel decides only when they cannot.  So every sign is exact, no
float is used, and a deep probe costs about its depth in bits rather than
degree times depth.  How the refinement predicts and proves its answer
is told at `RootInterval.refined`.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm
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
        """The sum of c x^p over {p: c}, every power p >= 0."""
        poly = object.__new__(cls)
        poly.terms = tuple(sorted(filter(itemgetter(1), zip(terms, _integers(terms.values())))))
        if poly.terms and poly.terms[0][0] < 0:
            raise ValueError(f"polynomial powers must be >= 0, got {poly.terms[0][0]}")
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
    """Sign changes of the coefficients: one certifies exactly one positive root."""
    if p.is_zero():
        raise ValueError("zero polynomial has no sign-change count")
    return _sign_changes(c for _, c in p.terms)


def _sign_changes(values: Iterable[int]) -> int:
    """Sign changes along a sequence of integers, zeros skipped."""
    signs = [v > 0 for v in values if v]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


class RootInterval:
    """Certified enclosure of a single real root of `poly`.

    Either lo == hi is an exact root, or the root is the one root of poly
    in the half-open (lo, hi]: hi is not a root, and poly changes sign
    between just right of lo and hi.  lo itself may be a root (a smaller
    one, as `largest_positive_root` can leave it).  The constructor proves
    this: the sign change, and where lo < 0 or poly has more than one
    coefficient sign change (else Descartes' rule leaves one root right of
    lo >= 0), no second distinct root in (lo, hi) (`_second_root`).
    `refined` and `largest_positive_root` build their results with
    `_proven`, since their signs and cells already prove them.
    """

    __slots__ = ("lo", "hi", "poly")

    def __init__(self, lo: Fraction, hi: Fraction, poly: IntPoly):
        self.lo, self.hi, self.poly = lo, hi, poly
        if poly.is_zero():
            raise ValueError("zero polynomial")
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
        if (lo < 0 or descartes_positive_sign_changes(poly) > 1) and _second_root(poly, lo, hi):
            raise ValueError("polynomial has more than one root in (lo, hi]")

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
        sign change) and lo is not a root, the bisection's answer is known
        in advance: the depth-K cell holding the root, or the root itself
        where it is a point of that grid.  The loop then predicts it and
        proves it: a Newton-type search on fixed-point values finds a grid
        point next to the root (`_predicted_point`), and two exact signs,
        there and at the neighbour on the root's side, prove the cell (or
        hit the root).  Only a failed proof runs the plain steps, from the
        start.  So the enclosure is the bisection's to the bit, in two
        exact probes (`_probe`) and O(log K) approximate evaluations.
        """
        if digits < 0:
            raise ValueError(f"digits must be >= 0, got {digits}")
        return _refine(self, digits, None)


def _refine(ri: RootInterval, digits: int, ends: tuple[int, int] | None) -> RootInterval:
    """`ri.refined(digits)`, digits >= 0, with the signs of ri.poly at lo
    and hi given as `ends` where the caller knows them, so that no probe
    is repeated, or probed here when `ends` is None."""
    lo, hi, poly = ri.lo, ri.hi, ri.poly
    if lo == hi:
        return ri
    q = lcm(lo.denominator, hi.denominator)
    a, b = lo.numerator * (q // lo.denominator), hi.numerator * (q // hi.denominator)
    # With q = d * 2^t, d odd, the cell is (a, b) / (d * 2^k) from
    # k = t on, with b - a = gap throughout, and f(x) = (d * 2^k)^deg *
    # p(x) at its ends, so only d is raised to powers.  K is the least
    # k with gap * 10^digits < d * 2^k.
    t = (q & -q).bit_length() - 1
    d, gap = q >> t, b - a
    depth = t + (gap * 10**digits // q).bit_length()
    if depth == t:
        return ri
    terms, deg = poly.terms, poly.degree
    # Bits a sign at depth k needs: k plus the bits of d above the start
    # gap (the cell's width below the scale), and a margin for the
    # rounding of x and of the about 2 log2(deg) products that form each
    # of its powers.
    margin = max(d.bit_length() - gap.bit_length(), 0) + deg.bit_length() + 64
    sa, shi = ends or (_probe(terms, d, a, t, margin), _probe(terms, d, b, t, margin))
    if lo >= 0 and sa != 0 and descartes_positive_sign_changes(poly) == 1:
        # The root is the one positive root, so the bisection ends on the
        # depth-K cell whose exact end signs are -shi and shi, or on a
        # root that is a point of that grid: predict it, then prove it.
        n, scale = 1 << depth - t, d << depth
        start = a << depth - t

        def sign(j: int) -> int:
            return -shi if j == 0 else shi if j == n else _probe(terms, d, start + j * gap, depth, margin)

        # A grid point j next to the root, then its neighbour on the
        # root's side: a zero is the root, opposite signs the cell.
        j = _predicted_point(terms, d, start, gap, depth, n, shi, depth + margin)
        s = sign(j)
        if s:
            j2 = j - 1 if s == shi else j + 1
            s2 = sign(j2)
            if s2 == -s:
                j, j2 = sorted((j, j2))
                return RootInterval._proven(Fraction(start + j * gap, scale), Fraction(start + j2 * gap, scale), poly)
            j, s = j2, s2
        if s == 0:
            x = Fraction(start + j * gap, scale)
            return RootInterval._proven(x, x, poly)
    return _bisected(poly, d, a, b, t, depth, shi, margin)


def _bisected(poly: IntPoly, d: int, a: int, b: int, k: int, depth: int, shi: int, margin: int) -> RootInterval:
    """The plain bisection of the cell (a, b) / (d * 2^k), in which poly
    has the sign shi at the right end, down to depth `depth`: the loop for
    a root that need not be the only one right of lo, and the fallback
    where a predicted cell fails its proof."""
    terms = poly.terms
    while k < depth:
        mid, k = a + b, k + 1
        s = _probe(terms, d, mid, k, margin)
        if s == 0:
            x = Fraction(mid, d << k)
            return RootInterval._proven(x, x, poly)
        if s == shi:
            a, b = 2 * a, mid
        else:
            a, b = mid, 2 * b
    return RootInterval._proven(Fraction(a, d << k), Fraction(b, d << k), poly)


def _predicted_point(terms: tuple[tuple[int, int], ...], d: int, a: int, gap: int, k: int, n: int, shi: int, bits: int) -> int:
    """A point j in [0, n] of the grid (a + j gap) / (d * 2^k) next to the
    root, found from approximate values: the point 0 has the sign -shi,
    the point n the sign shi, and the root between is the one positive
    root of a polynomial with one coefficient sign change.

    The values come from `_approximate`; they only steer, and the caller
    proves a cell at j with two exact signs.  The search runs on the
    distance u from the end the root hugs: the point 0 where it is not x =
    0 (its values steer the first step; a root bound's bracket holds its
    root near there), else the end that the sign at n/2 tells.  It takes
    Halley steps (`_halley_step`: Newton's, corrected by the second
    derivative) on ln(P/N), P and N the terms of the sign of shi and of
    the other sign, each to the far end of the cell of its target, in the
    bracket (near, far) of the root that the values' signs keep.  A step
    that moves on more than 3/4 of the step before, the same way, goes
    twice as far (the steps are crawling); one that leaves the bracket,
    or turns back that far, gives way to a safeguard: a gallop towards
    the hugged end (far / 2^2, far / 2^4, far / 2^8, ...) while near is 0,
    a geometric midpoint while far > 4 near, else the midpoint.  The
    search ends at a bracket one cell wide, or at a target within a small
    fraction of a cell of the root.

    A value is taken at the bits that resolve 2^-16 of the point's
    expected distance from the root in cells, times the 2^-64 that `bits`
    keeps below a cell: for a safeguard point its distance from the
    bracket's near end, for a step's target the cube of the move over
    n^2 (Halley's error, on a function tame on the bracket's scale).
    Where its error bound could flip its sign, it is taken again at
    `bits`.
    """
    deg, nbits = terms[-1][0], n.bit_length()
    # A step's move scales t by m / gap < (a + n gap) / gap: t to 2^-64 of
    # a cell needs the values to these bits.
    keep = ((a + n * gap) // gap).bit_length() + 64
    # The error of P - N at B bits, in units of 2^-B, is at most slack
    # times the sum of |c_p| max(1, x^p): x's rounding moves x^p by
    # p x^(p-1), each cut product by a unit times the powers after it.
    slack = 4 * (deg + len(terms) * deg.bit_length())
    coeffs = sum(abs(c) for _, c in terms)

    def value(i: int, r: int) -> tuple[bool, tuple[int, ...], bool]:
        """Whether the point i is right of the root (a zero counts as
        right), by its values at bits - r bits, the values (P, N, P1, N1,
        P2, N2) with P of the sign of shi, cut to `keep` bits for the
        step, and whether they resolve 2^-16 of a cell."""
        while True:
            pos, neg, pos1, neg1, pos2, neg2 = _approximate(terms, d, a + i * gap, k, bits - r)
            if shi < 0:
                pos, neg, pos1, neg1, pos2, neg2 = neg, pos, neg1, pos1, neg2, pos2
            if not r or abs(pos - neg) > slack * ((pos + neg >> bits - r) + coeffs):
                break
            r = 0
        values = pos, neg, pos1, neg1, pos2, neg2
        if (cut := (pos + neg).bit_length() - keep) > 0:
            values = pos >> cut, neg >> cut, pos1 >> cut, neg1 >> cut, pos2 >> cut, neg2 >> cut
        return pos >= neg, values, r <= 48

    i = n >> 1 if a == 0 else 0
    right, values, fine = value(i, nbits - 17)
    hug_left = right or i == 0
    near, far, shift = 0, i or n, 1
    last = 0  # the last step's move, in 2^-8 of a cell; 0 after a safeguard
    while far - near > 1:
        step, slow = None, False
        step_to = _halley_step(i, a + i * gap, gap, deg, values, fine)
        if step_to is not None:
            target, settled = step_to
            if settled:
                return min(max(target + 128 >> 8, 0), n)
            move = target - (i << 8)
            slow = 4 * abs(move) > 3 * abs(last) > 0
            if slow and move * last > 0:
                target, slow = target + move, False
            last, c = move, target >> 8
            step = c if right else c + 1
            if not hug_left:
                step = n - step
        if step is not None and near < step < far and not slow:
            r = max(3 * abs(last).bit_length() - 40 - 2 * nbits, 0)  # move^3 / n^2, in cells
        else:
            if not near:
                shift *= 2
                step = max(far >> shift, 1)
            elif far > 4 * near:
                step = isqrt(near * far)
            else:
                step = near + far >> 1
            last, r = 0, max((step - near).bit_length() - 16, 0)
        i = step if hug_left else n - step
        right, values, fine = value(i, r)
        if right == hug_left:
            far = step
        else:
            near = step
    return near if hug_left else n - near


_LN2 = 12786308645202655659  # 2^64 ln 2, rounded down


def _halley_step(i: int, m: int, gap: int, deg: int, values: tuple[int, ...], fine: bool, bits: int = 64) -> tuple[int, bool] | None:
    """Halley's target from the point i, at m / (d 2^k), in 2^-8 of a cell
    gap / (d 2^k), from `_approximate`'s values there, and whether it is
    within 2^-6 of a cell of the root by Taylor's rule, which is asked
    only of `fine` values (to 2^-16 of a cell); None where the values give
    no step.

    The step is on h = ln(P/N) in y = ln x, where P and N are near power
    laws.  h is read as t = 2 (P - N) / (P + N), h to third order, with
    h' = P1 / P - N1 / N > 0 (every term of P has a higher power than any
    of N) where the values show it, and h'' = (P2 P - P1^2) / P^2 -
    (N2 N - N1^2) / N^2.  Newton's move w = -t / h' is divided by
    1 - c, c = t h'' / (2 h'^2), where c < 1/2 (Halley's), and x moves to
    x e^w, read as x (2 + w) / (2 - w) (e^w to third order).  h'' and c
    come from `bits`-bit views of the values, taken again to 2^-24 of a
    cell of the move where the target would end the search.  Where P/N
    is beyond 7 or 1/7 (|t| >= 3/2), t falls far short of h: the step is
    Newton's, with h from the bit lengths of P and N and t of their
    mantissas.

    Newton's step leaves about h'' w^2 / 2 of h, so misses by h'' w^2 /
    (2 h'), and Halley's by at most that times |w| (|h''| / (2 h') +
    deg / 3), where h''' is at most about deg h'', which holds while
    deg |w| < 1/16; reading h as t shortens the move by about t^2 / 12 of
    it, for |t| < 1.
    """
    pos, neg, dpos, dneg, ddpos, ddneg = values
    slope = dpos * neg - dneg * pos  # P N h'
    if not pos or slope <= 0:
        return None
    cut = max((pos + neg).bit_length() - bits, 0)
    p0, n0, p1, n1 = pos >> cut, neg >> cut, dpos >> cut, dneg >> cut
    f0, s0, slope0 = p0 - n0, p0 + n0, p1 * n0 - n1 * p0
    curve = ((ddpos >> cut) * p0 - p1 * p1) * n0 * n0 - ((ddneg >> cut) * n0 - n1 * n1) * p0 * p0  # (P N)^2 h''
    c = (f0 * curve << bits) // (s0 * slope0 * slope0) if slope0 > 0 else 0
    if 2 * c >= 1 << bits:
        c = 0
    # With w = -v / q, x moves by -2 v / (2 q + v) of x.
    if 4 * abs(f0) < 3 * s0:
        v = (pos - neg) * pos * neg << bits + 1
    else:
        c, db = 0, pos.bit_length() - neg.bit_length()
        pa, na = (pos, neg << db) if db >= 0 else (pos << -db, neg)
        h = db * _LN2 + ((pa - na) << 65) // (pa + na)  # 2^64 ln(P/N)
        v = h * (pos + neg) * pos * neg << bits - 64
    q = (pos + neg) * slope * ((1 << bits) - c)
    if 2 * q + v <= 0:
        return None
    target = (i << 8) - (m * v << 9) // (gap * (2 * q + v))
    if not fine:
        return target, False
    move = abs(target - (i << 8))
    if slope0 <= 0 or 2 * abs(f0) >= s0 or 16 * deg * move * gap >= m << 8:
        return target, False
    pn = p0 * n0 * slope0
    miss = abs(curve) * move * move * gap // (pn * m << 9)  # Newton's, in 2^-8 of a cell
    if c:
        miss = miss * move * gap * (3 * abs(curve) + 2 * deg * pn) // (1536 * m * pn)
    miss += move * f0 * f0 // (3 * s0 * s0) + 1
    if miss < 4 and move.bit_length() + 16 > bits:
        return _halley_step(i, m, gap, deg, values, fine, move.bit_length() + 16)
    return target, miss < 4


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


def _approximate(terms: tuple[tuple[int, int], ...], d: int, m: int, k: int, bits: int, up: bool = False) -> tuple[int, ...]:
    """(P, N, P1, N1, P2, N2) at x = m / (d * 2^k), m >= 0, each 2^bits
    times its value, rounded down, or up when `up`: P is the sum of the
    terms c x^p with c > 0, N minus the sum of the others, so that p = P -
    N, and P1, P2 (N1, N2) weigh each term by p and p^2, so that P1 = x P'
    and P2 = x (x P')'.  Fixed point with `bits` fractional bits: x is
    rounded to that grid once, and each power of it is formed by squaring
    with every product rounded back to the grid, all down or all up, so a
    pass rounded down and one rounded up bound each value.

    Where x > 2 the loop runs on y = 1/x and reads c x^p as c y^(deg-p):
    every value is then y^deg times the one named, which keeps each ratio
    and sign, and no power exceeds 1 (x^p up to 2^deg otherwise), so a
    probe at a large x stays short."""
    deg, den, flip = terms[-1][0], d << k, 0
    if m > den << 1:
        m, den, flip, terms = den, m, deg, terms[::-1]
    carry = (1 << bits) - 1 if up else 0
    x = ((m << bits) + (den - 1 if up else 0)) // den
    pos = neg = pos1 = neg1 = pos2 = neg2 = prev = 0
    power = 1 << bits
    for p, c in terms:
        e = abs(p - flip)  # the power of x, or of y = 1/x where flipped
        g, sq, prev = e - prev, x, e
        while g:
            if g & 1:
                power = power * sq + carry >> bits
            g >>= 1
            if g:
                sq = sq * sq + carry >> bits
        term = c * power
        weighed = p * term
        if c > 0:
            pos, pos1, pos2 = pos + term, pos1 + weighed, pos2 + p * weighed
        else:
            neg, neg1, neg2 = neg - term, neg1 - weighed, neg2 - p * weighed
    return pos, neg, pos1, neg1, pos2, neg2


# Length in bits of the exact integer, deg * log2 max(m, d 2^k) for a point
# m / (d 2^k), above which a probe first tries the two passes of
# `_approximate`: below it the integer is short enough that building it
# costs less.  On a shared 2-core machine with Python 3.11, one probe of a
# band48 polynomial of degree 7-307 at 20-500 bits breaks even between
# 3,500 and 5,800; the roots of the seed-1 entropy benchmark take times
# within 2% of each other with cutovers of 4,000 to 10,000 and about 5%
# longer with 12,000.  At x = 1, the first sign of an isolation, the
# length is 0 and the sign exact at every degree: at degree 9,007 the
# exact sign takes 1 us against 9 us for the passes.
_EXACT_BITS = 10_000


def _probe(terms: tuple[tuple[int, int], ...], d: int, m: int, k: int, margin: int) -> int:
    """Sign of _homogeneous(terms, d, m, k), that of p at x = m / (d 2^k).

    Where the exact integer would be long and m >= 0, two passes of
    `_approximate` at k + margin bits, one rounded down and one up, bound
    P and N: P rounded down above N rounded up proves +1, P rounded up
    below N rounded down proves -1.  Where they prove neither, where the
    integer is short, and for m < 0, the sign is that of the exact integer."""
    deg = terms[-1][0] if terms else 0
    if m >= 0 and deg * (max(m, d << k).bit_length() - 1) > _EXACT_BITS:
        pos, neg = _approximate(terms, d, m, k, k + margin)[:2]
        pos_up, neg_up = _approximate(terms, d, m, k, k + margin, True)[:2]
        if pos > neg_up:
            return 1
        if pos_up < neg:
            return -1
    return _sign(_homogeneous(terms, d, m, k))


def _sign(q: int) -> int:
    return (q > 0) - (q < 0)


def _sign_at(p: IntPoly, x: Fraction) -> int:
    """Sign of p(x), read by `_probe` without building p(x).

    The denominator is split as d * 2^t, d odd, so only d is raised to
    powers; the power of two enters as shifts.  The bound passes run at
    the denominator's bit length plus the margin of `RootInterval.refined`.
    """
    d = x.denominator
    t = (d & -d).bit_length() - 1
    margin = (d >> t).bit_length() + p.degree.bit_length() + 64
    return _probe(p.terms, d >> t, x.numerator, t, margin)


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

    Requires exactly one coefficient sign change.  The core (p without its
    power of x, leading coefficient positive) has a negative constant term
    and a positive leading one, so one exact sign, at 1, brackets the
    root: by [1, 1+max|coeff|] when it is negative (by Cauchy's bound the
    end has the leading sign), by [0, 1] when it is positive.  The bracket
    goes to the refinement with those end signs, so no sign is probed
    twice, and `RootInterval.refined` narrows it by predicting the
    bisection's last cell and proving it with two exact signs.
    """
    if digits < 0:
        raise ValueError(f"digits must be >= 0, got {digits}")
    if p.is_zero():
        raise ValueError("zero polynomial")
    core, _ = p.strip_power_factor()
    if descartes_positive_sign_changes(core) != 1:
        raise ValueError("polynomial does not have exactly one positive sign change")
    core = core.normalized_sign()
    one = _sign_at(core, Fraction(1))
    if one == 0:
        return RootInterval._proven(Fraction(1), Fraction(1), core)
    lo, hi = (Fraction(1), Fraction(coefficient_bound(core))) if one < 0 else (Fraction(0), Fraction(1))
    return _refine(RootInterval._proven(lo, hi, core), digits, (-1, 1))


# ---------------------------------------------------------------------------
# Division, gcds, and the roots of characteristic polynomials of digraphs
# ---------------------------------------------------------------------------


def _pseudo_divmod(a: IntPoly, b: IntPoly) -> tuple[int, IntPoly, IntPoly]:
    """(k, Q, R) with k*a = Q*b + R, an integer k > 0 and deg R < deg b.

    A step whose top coefficient lc(b) does not divide first scales the
    running remainder, quotient and k by |lc(b)|.  So Q and R are positive
    multiples of the rational quotient and remainder, and k == 1 with R == 0
    exactly when b divides a in Z[y] (each step's term is then Q's).
    """
    db, lb = b.terms[-1]
    m, s, k = abs(lb), _sign(lb), 1
    r = list(a.coeffs)
    q = [0] * (len(r) - db)
    while len(r) > db:
        c, rest = divmod(r[-1], lb)
        if rest:
            c, k = r[-1] * s, k * m
            r, q = [m * x for x in r], [m * x for x in q]
        shift = len(r) - 1 - db
        q[shift] += c
        for i, x in b.terms:
            r[shift + i] -= c * x
        r.pop()  # lc(r) - c * lc(b) = 0
        while r and r[-1] == 0:
            r.pop()
    return k, IntPoly(q), IntPoly(r)


def _primitive(p: IntPoly) -> IntPoly:
    """p divided by its content, the gcd of its coefficients."""
    g = gcd(*(c for _, c in p.terms))
    return IntPoly.from_terms({i: c // g for i, c in p.terms}) if g > 1 else p


def poly_gcd(p: IntPoly, q: IntPoly) -> IntPoly:
    """Greatest common divisor over Q, as a primitive integer polynomial
    with positive leading coefficient."""
    while not q.is_zero():
        p, q = q, _primitive(_pseudo_divmod(p, q)[2])
    return _primitive(p).normalized_sign()


def _squarefree_part(p: IntPoly) -> IntPoly:
    """Primitive square-free part p / gcd(p, p') over the integers: the
    primitive part of the pseudo-quotient, exact by Gauss's lemma."""
    g = poly_gcd(p, p.derivative())
    if g.degree <= 0:
        return p.normalized_sign()
    _, q, rem = _pseudo_divmod(p, g)
    assert rem.is_zero(), "gcd division must be exact"
    return _primitive(q).normalized_sign()


def largest_positive_root(p: IntPoly, digits: int) -> RootInterval | None:
    """Certified enclosure of the largest positive real root, or None.

    For any nonzero integer polynomial: `isolate_unique_positive_root`
    where one coefficient sign change makes the root unique, else the
    bisection of the coarsest dyadic cell of (0, 1 + max|coeff|] that holds
    the square-free part's largest root alone (`_root_cells`), or [1, 1]
    where that root is 1 (a pure cycle's radius).
    """
    if p.is_zero():
        raise ValueError("zero polynomial")
    core, _ = p.strip_power_factor()
    if core.degree == 0:
        return None
    if descartes_positive_sign_changes(core) == 1:
        return isolate_unique_positive_root(core, digits)
    sf = _squarefree_part(core)
    bound = coefficient_bound(sf)
    cells = _root_cells(sf, bound)
    k, c, at_end = next(cells, (0, None, False))
    if c is None:
        return None
    top = (bound * 10**digits).bit_length()  # the level of refined(digits)'s cells
    if k > top:
        # Isolated deeper (complex roots nearby kept the count up): the
        # bisection stops at `top`, or where the root parts from the next.
        y, d, _ = next(cells, (0, -1, False))  # (0, -1): no second root
        m = min(k, y)
        level = max(m + 1 - ((c >> k - m) ^ (d >> y - m)).bit_length(), top)
        if k > level:
            c, k, at_end = c >> k - level, level, False
    lo, hi = Fraction(bound * c, 1 << k), Fraction(bound * (c + 1), 1 << k)
    if at_end:
        return RootInterval._proven(hi, hi, sf)
    if lo < 1 < hi and not sum(a for _, a in sf.terms):
        return RootInterval._proven(Fraction(1), Fraction(1), sf)
    return RootInterval._proven(lo, hi, sf).refined(digits)


def _root_cells(sf: IntPoly, bound: int):
    """sf's positive roots right to left, sf square-free, as dyadic cells
    (k, c, at_end) of (0, bound]: (c, c + 1] * bound / 2^k has the root at
    its right end where at_end, else exactly one root, inside.

    A depth-first search, right half first, after Collins and Akritas.  A
    cell carries q(x) = 2^(kn) sf(bound (c + x) / 2^k), n = deg sf: q(1) = 0
    is a root at its right end, and the sign changes of (1 + x)^n q(1 / (1 +
    x)) bound the roots inside with their parity (Descartes' rule).  0 drops
    the cell, 1 isolates a root, more split it into 2^n q(x / 2) and that
    shifted by 1.  Narrow cells count 0 or 1, so the search ends.
    """
    stack = [(0, 0, [a * bound**i for i, a in enumerate(sf.coeffs)])]
    while stack:
        k, c, q = stack.pop()
        if not sum(q):
            yield k, c, True
        count = _sign_changes(_taylor_shift(q[::-1]))
        if count == 1:
            yield k, c, False
        elif count > 1:
            left = [a << len(q) - 1 - i for i, a in enumerate(q)]
            stack += (k + 1, 2 * c, left), (k + 1, 2 * c + 1, _taylor_shift(left))


def _second_root(p: IntPoly, lo: Fraction, hi: Fraction) -> bool:
    """Whether p has two distinct roots in the open (lo, hi): p's
    square-free part sf, of degree n, moved to (0, 1) as D^n sf(lo + (hi -
    lo) x) by Horner's rule, D the common denominator of lo and hi, and
    searched by `_root_cells`."""
    sf = _squarefree_part(p)
    d = lcm(lo.denominator, hi.denominator)
    a, b = (x.numerator * (d // x.denominator) for x in (lo, hi))
    q, scale = [], 1
    for c in reversed(sf.coeffs):  # q <- q * (a + (b - a) x) + c * d^(n - i)
        q = [a * u + (b - a) * v for u, v in zip(q + [0], [0] + q)]
        q[0] += c * scale
        scale *= d
    cells = _root_cells(IntPoly(q), 1)
    return next(cells, None) is not None and next(cells, None) is not None


def _taylor_shift(q: list[int]) -> list[int]:
    """The ascending coefficients of q(x + 1), by synthetic division."""
    q = list(q)
    for i in range(len(q) - 1):
        for j in range(len(q) - 2, i - 1, -1):
            q[j] += q[j + 1]
    return q


def compare_roots(a: RootInterval, b: RootInterval) -> int:
    """-1, 0 or 1 as the root held by `a` is below, equal to or above that of `b`.

    Exact, and never gives up: overlapping enclosures are first tested for
    one common root (`_same_root`); distinct roots are refined, doubling the
    digits each round, until their enclosures separate.
    """
    if a.poly.is_zero() or b.poly.is_zero():
        raise ValueError("zero polynomial")
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
    polynomial in (lo, hi], a sign change, so not hi and of odd multiplicity.
    The roots agree iff g = gcd(a.poly, b.poly) has a root where those root
    sets meet.  For two proper enclosures that is the overlap (lo, hi], where
    g has at most one root, of odd multiplicity: so iff g changes sign there.
    """
    lo, hi = max(a.lo, b.lo), min(a.hi, b.hi)
    if lo > hi:
        return False
    g = poly_gcd(a.poly, b.poly)
    if g.degree <= 0:
        return False
    if lo == hi:
        return g(lo) == 0 and all(r.is_exact or r.lo < lo for r in (a, b))
    return _sign_right_of(g, lo) != _sign_at(g, hi)


# ---------------------------------------------------------------------------
# Determinants for the rome method of `markov`
# ---------------------------------------------------------------------------


def poly_det(matrix: Sequence[Sequence[IntPoly]]) -> IntPoly:
    """Exact determinant over the integer-polynomial ring, by fraction-free
    (Bareiss) elimination: each step's division by the previous pivot is
    exact in Z[y], and a zero pivot swaps in a lower row of the column."""
    n = len(matrix)
    for row in matrix:
        if len(row) != n:
            raise ValueError("matrix must be square")
    if n == 0:
        return IntPoly([1])
    m = [list(row) for row in matrix]
    sign, prev = 1, IntPoly([1])
    for k in range(n - 1):
        if m[k][k].is_zero():
            swap = next((r for r in range(k + 1, n) if not m[r][k].is_zero()), None)
            if swap is None:
                return IntPoly([])
            m[k], m[swap], sign = m[swap], m[k], -sign
        pivot = m[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                scale, m[i][j], rem = _pseudo_divmod(m[i][j] * pivot - m[i][k] * m[k][j], prev)
                if scale != 1 or not rem.is_zero():
                    raise ValueError("polynomial division is not exact")
        prev = pivot
    return m[-1][-1] if sign > 0 else -m[-1][-1]
