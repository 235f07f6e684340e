"""Entropy of the invariant graph for a = -1, 4 < b < 8.

The return of a marked boundary orbit point under F^3 along the bottom edge
(x -> 4x + b - 2 from x0 = b - 10) controls the covering digraph.  The
parameter interval splits into levels n = 0, 1, 2, ... and within each level
into four classes S, T, U, V according to which marked gap the n-th orbit
point falls in.  Classes T and V give Markov digraphs and an exact entropy;
S and U give certified lower/upper bounds.  The class letters double as the
output labels of the summary table.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from pwldyn.graphs import build_gamma
from pwldyn.markov import CoverDigraph, build_cover_digraph, spectral_radius
from pwldyn.planemap import Params, Point, Segment
from pwldyn.polys import IntPoly, RootInterval, isolate_unique_positive_root
from pwldyn.rationals import format_decimal, ln_enclosure

F = Fraction


# ---------------------------------------------------------------------------
# Breakpoints and classification
# ---------------------------------------------------------------------------


def breakpoints(n: int) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """Exact class boundaries (p_n, q_n, r_n, s_n) of level n.

    They are the parameter values at which the n-th orbit point of
    x -> 4x + b - 2 from x0 = b - 10 hits the four marked abscissas
    -b/2, 1-b, (1-2b)/2, (2-5b)/4 on the bottom edge.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    pw = 4 ** (n + 1)
    p = F(4 * (4 * pw - 1), 2 * pw + 1)
    q = F(8 * pw + 1, pw + 2)
    r = F(16 * pw - 1, 2 * pw + 4)
    s = F(2 * (4 * (4 * pw) - 1), 4 * pw + 11)
    return p, q, r, s


def level_left_end(n: int) -> Fraction:
    """p_{n-1}, with p_{-1} = 4 as the left end of the whole interval."""
    return F(4) if n == 0 else breakpoints(n - 1)[0]


@dataclass(frozen=True)
class LevelClass:
    n: int
    letter: str  # "S", "T", "U" or "V"

    def __str__(self) -> str:
        return f"{self.letter}{self.n}"

    def interval(self) -> tuple[Fraction, Fraction, bool, bool]:
        """(lo, hi, lo_closed, hi_closed) of the parameter class."""
        p, q, r, s = breakpoints(self.n)
        prev = level_left_end(self.n)
        return {
            "S": (prev, s, False, False),
            "T": (s, r, True, True),
            "U": (r, q, False, False),
            "V": (q, p, True, True),
        }[self.letter]


def classify(b) -> LevelClass:
    """Unique level class containing b; endpoints respected exactly."""
    b = Fraction(b)
    if not 4 < b < 8:
        raise ValueError(f"classification requires 4 < b < 8, got b = {b}")
    n = 0
    while b > breakpoints(n)[0]:
        n += 1
    p, q, r, s = breakpoints(n)
    if b < s:
        return LevelClass(n, "S")
    if b <= r:
        return LevelClass(n, "T")
    if b < q:
        return LevelClass(n, "U")
    return LevelClass(n, "V")


def x_orbit_point(b, n: int) -> Fraction:
    """Closed form of the n-th return x_n = ((b-8)*4^(n+1) + 2 - b) / 3."""
    if n < 0:
        raise ValueError("n must be >= 0")
    b = Fraction(b)
    return ((b - 8) * 4 ** (n + 1) + 2 - b) / 3


# ---------------------------------------------------------------------------
# Characteristic polynomials per class
# ---------------------------------------------------------------------------


def _sparse(terms: dict[int, int]) -> IntPoly:
    return IntPoly.from_terms(terms)


def poly_lower(n: int) -> IntPoly:
    """x^(7+3n) - x^(4+3n) - 1: solid digraph of classes S and U."""
    return _sparse({7 + 3 * n: 1, 4 + 3 * n: -1, 0: -1})


def poly_upper_s(n: int) -> IntPoly:
    """x^(7+3n) - x^(4+3n) - x^3 - 2: dashed digraph of class S."""
    return _sparse({7 + 3 * n: 1, 4 + 3 * n: -1, 3: -1, 0: -2})


def poly_exact_t(n: int) -> IntPoly:
    """x^(7+3n) - x^(4+3n) - 2: Markov digraph of class T."""
    return _sparse({7 + 3 * n: 1, 4 + 3 * n: -1, 0: -2})


def poly_upper_u(n: int) -> IntPoly:
    """x^(10+3n) - x^(7+3n) - 2x^3 - 1: dashed digraph of class U."""
    return _sparse({10 + 3 * n: 1, 7 + 3 * n: -1, 3: -2, 0: -1})


def poly_exact_v(n: int) -> IntPoly:
    """x^(10+3n) - x^(7+3n) - x^3 - 1: Markov digraph of class V."""
    return _sparse({10 + 3 * n: 1, 7 + 3 * n: -1, 3: -1, 0: -1})


def level_polynomials(lc: LevelClass) -> tuple[IntPoly, ...]:
    """Characteristic polynomials whose roots give the entropy of the class."""
    n = lc.n
    return {
        "S": (poly_lower(n), poly_upper_s(n)),
        "T": (poly_exact_t(n),),
        "U": (poly_lower(n), poly_upper_u(n)),
        "V": (poly_exact_v(n),),
    }[lc.letter]


# ---------------------------------------------------------------------------
# Entropy
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EntropyResult:
    kind: str  # "exact" or "bounds"
    level: LevelClass
    lo_root: RootInterval
    hi_root: RootInterval
    ln_lo: tuple[Fraction, Fraction]
    ln_hi: tuple[Fraction, Fraction]

    def decimal(self, places: int = 5) -> str:
        if self.kind == "exact":
            return _agreed(self.ln_lo, places)
        return f"[{_agreed(self.ln_lo, places)}, {_agreed(self.ln_hi, places)}]"


def _agreed(bracket: tuple[Fraction, Fraction], places: int) -> str:
    lo, hi = bracket
    s_lo, s_hi = format_decimal(lo, places), format_decimal(hi, places)
    if s_lo != s_hi:
        raise ValueError("bracket too wide for the requested number of places")
    return s_lo


def entropy_or_bounds(b, digits: int = 7) -> EntropyResult:
    """Exact entropy (classes T, V) or certified bounds (classes S, U)."""
    if digits < 0:
        raise ValueError(f"digits must be >= 0, got {digits}")
    lc = classify(b)
    polys = level_polynomials(lc)
    err = F(1, 10 ** (digits + 3))
    lo = isolate_unique_positive_root(polys[0], digits + 3)
    if len(polys) == 1:
        lnb = ln_enclosure(lo.lo, lo.hi, err)
        return EntropyResult("exact", lc, lo, lo, lnb, lnb)
    hi = isolate_unique_positive_root(polys[1], digits + 3)
    return EntropyResult(
        "bounds", lc, lo, hi,
        ln_enclosure(lo.lo, lo.hi, err),
        ln_enclosure(hi.lo, hi.hi, err),
    )


# ---------------------------------------------------------------------------
# Root ordering and the limit at the right endpoint
# ---------------------------------------------------------------------------


def _five_roots(n: int, digits: int) -> list[RootInterval]:
    """Enclosures of the roots of the five level-n polynomials, ascending order."""
    return [
        isolate_unique_positive_root(p, digits)
        for p in (poly_lower(n), poly_exact_v(n), poly_exact_t(n), poly_upper_u(n), poly_upper_s(n))
    ]


def verify_root_ordering(n_max: int, digits: int = 6) -> bool:
    """Certified 1 < lower < V-root < T-root < U-root < S-upper for n <= n_max."""
    for n in range(n_max + 1):
        roots = _five_roots(n, digits)
        d = digits
        while True:
            chain = [RootInterval(F(1), F(1), IntPoly([-1, 1])), *roots]
            if all(a.hi < bq.lo for a, bq in zip(chain, chain[1:])):
                break
            d += 6
            if d > digits + 60:
                return False
            roots = [r.refined(d) for r in roots]
    return True


def roots_strictly_decreasing(n_max: int, digits: int = 6) -> bool:
    """Each of the five root sequences strictly decreases up to level n_max.

    Uses the sign of the level-(n+1) polynomial at the lower end of the
    level-n enclosure: positivity there puts the next root strictly below.
    """
    families = (poly_lower, poly_exact_v, poly_exact_t, poly_upper_u, poly_upper_s)
    for fam in families:
        for n in range(n_max):
            cur = isolate_unique_positive_root(fam(n), digits)
            nxt_poly = fam(n + 1)
            d = digits
            while nxt_poly(cur.lo) <= 0:
                d += 6
                if d > digits + 60:
                    return False
                cur = cur.refined(d)
    return True


def continuity_level_bound(eps) -> int:
    """Smallest level n with (1+eps)^(3n) > (x^3+2)/(x^4 (x^3-1)) at x = 1+eps.

    Beyond that level the upper S-class root drops below 1+eps, which pins
    the entropy below ln(1+eps) for the rest of the parameter interval: the
    entropy tends to 0 at the right endpoint.
    """
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    x = 1 + eps
    g = (x**3 + 2) / (x**4 * (x**3 - 1))
    n = 0
    growth = x**3
    cur = Fraction(1)
    while cur <= g:
        cur *= growth
        n += 1
    return n


def upper_root_below(n: int, eps) -> bool:
    """Certified check that the level-n S-upper root is below 1 + eps."""
    x = 1 + Fraction(eps)
    return poly_upper_s(n)(x) > 0


# ---------------------------------------------------------------------------
# Partition of the invariant graph and the induced digraphs
# ---------------------------------------------------------------------------


def _orbit_points(b: Fraction, n: int) -> list[Fraction]:
    return [x_orbit_point(b, i) for i in range(n + 1)]


def band48_partition(b) -> tuple[list[tuple[str, Segment]], LevelClass]:
    """Named interval partition carrying the covering digraph at parameter b.

    Plateaus and their feeder intervals are deliberately absent: collapsed
    intervals contribute no itineraries.
    """
    b = Fraction(b)
    lc = classify(b)
    n = lc.n
    g = build_gamma("band48", b)

    def P(name: str) -> Point:
        return g.named_point(name)

    xs = _orbit_points(b, n)  # x_0 > x_1 > ... > x_n on the bottom edge
    bottom = [Point(x, F(-1)) for x in xs]
    first_img = [Point(-x, x + b - 1) for x in xs]  # on the falling right edge
    second_img = [Point(-2 * x - b, -2 * x + 1) for x in xs]  # on the rising left edge

    part: list[tuple[str, Segment]] = [
        ("A", Segment(P("P18"), P("P9"))),
        ("B", Segment(P("P11"), P("P16"))),
        ("D", Segment(P("P17"), P("P12"))),
        ("E", Segment(P("P2"), P("P3"))),
        ("H", Segment(P("Y6"), P("P6"))),
        ("I", Segment(P("P7"), P("Y4"))),
        ("G", Segment(bottom[0], P("P4"))),
        ("F1", Segment(P("P3"), bottom[n])),
    ]
    if n == 0:
        part.append(("C", Segment(P("P12"), P("P1"))))
        part.append(("K", Segment(P("Y1"), P("Y2"))))
    else:
        part.append(("K", Segment(P("Y1"), first_img[0])))
        part.append(("C1", Segment(second_img[n - 1], P("P1"))))
        for j in range(2, n + 1):
            part.append((f"C{j}", Segment(second_img[n - j], second_img[n - j + 1])))
        part.append((f"C{n + 1}", Segment(P("P12"), second_img[0])))
        part.append(("J2", Segment(first_img[n - 1], P("Y2"))))
        for j in range(3, n + 2):
            part.append((f"J{j}", Segment(first_img[n - j + 1], first_img[n - j + 2])))
        for j in range(2, n + 2):
            part.append((f"F{j}", Segment(bottom[n - j + 2], bottom[n - j + 1])))
    return part, lc


def cover_digraphs(b, mode_pair: bool = True) -> tuple[CoverDigraph, CoverDigraph, LevelClass]:
    """(lower, upper) covering digraphs at b, from the actual invariant graph."""
    b = Fraction(b)
    part, lc = band48_partition(b)
    g = build_gamma("band48", b)
    params = Params.standard(b)
    lower = build_cover_digraph(g, part, params, "lower")
    upper = build_cover_digraph(g, part, params, "upper")
    return lower, upper, lc


def cross_check_entropy(b, digits: int = 7) -> bool:
    """Closed-form class polynomials against digraphs built from the graph.

    The spectral radii of the lower/upper digraphs must land inside the
    certified enclosures of the class polynomial roots.
    """
    res = entropy_or_bounds(b, digits)
    lower, upper, _ = cover_digraphs(b)
    r_lo = spectral_radius(lower, digits + 3)
    r_hi = spectral_radius(upper, digits + 3)
    for got, expected in ((r_lo, res.lo_root), (r_hi, res.hi_root)):
        if got.poly != expected.poly:
            return False
        if got.hi < expected.lo or expected.hi < got.lo:
            return False
    return True


# ---------------------------------------------------------------------------
# Summary table
# ---------------------------------------------------------------------------


def table_rows(levels: int = 3, places: int = 5) -> list[dict[str, str]]:
    """One row per class for levels 0..levels-1: set, interval, entropy."""
    rows = []
    for n in range(levels):
        for letter in "STUV":
            lc = LevelClass(n, letter)
            lo, hi, lo_closed, hi_closed = lc.interval()
            mid = (lo + hi) / 2
            res = entropy_or_bounds(mid, places + 2)
            interval = "{}{}, {}{}".format(
                "[" if lo_closed else "(",
                _frac_str(lo),
                _frac_str(hi),
                "]" if hi_closed else ")",
            )
            rows.append({"set": str(lc), "interval": interval, "entropy": res.decimal(places)})
    return rows


def _frac_str(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def table_csv(levels: int = 3, places: int = 5) -> str:
    lines = ["set,interval,entropy"]
    for row in table_rows(levels, places):
        lines.append('{},"{}","{}"'.format(row["set"], row["interval"], row["entropy"]))
    return "\n".join(lines) + "\n"
