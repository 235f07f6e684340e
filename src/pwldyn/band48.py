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

from fractions import Fraction
from typing import NamedTuple

from pwldyn.graphs import _table_lattice
from pwldyn.markov import CoverDigraph, _cover_digraph_pair, spectral_radius
from pwldyn.planemap import LatticeSegment
from pwldyn.polys import IntPoly, RootInterval, _sign_at, compare_roots, isolate_unique_positive_root
from pwldyn.rationals import format_decimal, ln_enclosure, rational_str

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


class LevelClass(NamedTuple):
    n: int
    letter: str  # "S", "T", "U" or "V"

    def __str__(self) -> str:
        return f"{self.letter}{self.n}"

    def interval(self) -> tuple[Fraction, Fraction, bool, bool]:
        """(lo, hi, lo_closed, hi_closed) of the parameter class."""
        _require_letter(self.letter)
        p, q, r, s = breakpoints(self.n)
        prev = level_left_end(self.n)
        return {
            "S": (prev, s, False, False),
            "T": (s, r, True, True),
            "U": (r, q, False, False),
            "V": (q, p, True, True),
        }[self.letter]


def _require_letter(letter: str) -> None:
    if letter not in ("S", "T", "U", "V"):
        raise ValueError(f"class letter must be S, T, U or V, got {letter!r}")


def classify(b) -> LevelClass:
    """Unique level class containing b; endpoints respected exactly.

    With b = u/v, w = 16v - 2u and pw = 4^(n+1), each class end of level n
    is one comparison of integers: b <= p_n iff w*pw >= 4v + u, b < s_n iff
    2w*pw > 11u + 2v, b <= r_n iff w*pw >= 4u + v, and b < q_n iff
    (8v - u)*pw > 2u - v.  pw is a power of two, so each is a shift.
    """
    b = Fraction(b)
    u, v = b.numerator, b.denominator
    if not 4 * v < u < 8 * v:
        raise ValueError(f"classification requires 4 < b < 8, got b = {rational_str(b)}")
    # The level is the least n with b <= p_n, i.e. w << 2n + 2 >= t.  As
    # 2^(L-1) < t/w < 2^(L+1) for L the difference of the bit lengths,
    # n is (L - 1) // 2 or one more.
    w, t = 16 * v - 2 * u, 4 * v + u
    n = max(0, (t.bit_length() - w.bit_length() - 1) // 2)
    if w << 2 * n + 2 < t:
        n += 1
    e = 2 * n + 2
    assert w << e >= t and (n == 0 or w << e - 2 < t)  # p_(n-1) < b <= p_n
    if w << e + 1 > 11 * u + 2 * v:
        return LevelClass(n, "S")
    if w << e >= 4 * u + v:
        return LevelClass(n, "T")
    if 8 * v - u << e > 2 * u - v:
        return LevelClass(n, "U")
    return LevelClass(n, "V")


# ---------------------------------------------------------------------------
# Characteristic polynomials per class
# ---------------------------------------------------------------------------


def _require_level(n: int) -> None:
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")


def poly_lower(n: int) -> IntPoly:
    """x^(7+3n) - x^(4+3n) - 1: solid digraph of classes S and U."""
    _require_level(n)
    return IntPoly.from_terms({7 + 3 * n: 1, 4 + 3 * n: -1, 0: -1})


def poly_upper_s(n: int) -> IntPoly:
    """x^(7+3n) - x^(4+3n) - x^3 - 2: dashed digraph of class S."""
    _require_level(n)
    return IntPoly.from_terms({7 + 3 * n: 1, 4 + 3 * n: -1, 3: -1, 0: -2})


def poly_exact_t(n: int) -> IntPoly:
    """x^(7+3n) - x^(4+3n) - 2: Markov digraph of class T."""
    _require_level(n)
    return IntPoly.from_terms({7 + 3 * n: 1, 4 + 3 * n: -1, 0: -2})


def poly_upper_u(n: int) -> IntPoly:
    """x^(10+3n) - x^(7+3n) - 2x^3 - 1: dashed digraph of class U."""
    _require_level(n)
    return IntPoly.from_terms({10 + 3 * n: 1, 7 + 3 * n: -1, 3: -2, 0: -1})


def poly_exact_v(n: int) -> IntPoly:
    """x^(10+3n) - x^(7+3n) - x^3 - 1: Markov digraph of class V."""
    _require_level(n)
    return IntPoly.from_terms({10 + 3 * n: 1, 7 + 3 * n: -1, 3: -1, 0: -1})


def level_polynomials(lc: LevelClass) -> tuple[IntPoly, ...]:
    """Characteristic polynomials whose roots give the entropy of the class:
    the class's own families, each three or four terms at any level."""
    _require_letter(lc.letter)
    families = {
        "S": (poly_lower, poly_upper_s),
        "T": (poly_exact_t,),
        "U": (poly_lower, poly_upper_u),
        "V": (poly_exact_v,),
    }[lc.letter]
    return tuple(fam(lc.n) for fam in families)


# ---------------------------------------------------------------------------
# Entropy
# ---------------------------------------------------------------------------


class EntropyResult(NamedTuple):
    kind: str  # "exact" or "bounds"
    level: LevelClass
    lo_root: RootInterval
    hi_root: RootInterval
    ln_lo: tuple[Fraction, Fraction]
    ln_hi: tuple[Fraction, Fraction]

    def decimal(self, places: int = 5) -> str:
        """The entropy, or its bounds, rounded to `places` decimals.

        Where a bracket straddles a rounding boundary, its root and ln
        bracket are refined 3 digits at a time until both ends round alike.
        That ends: ln of an algebraic number other than 1 is transcendental,
        so it is never a rounding boundary.
        """
        _refuse_above_ceiling(places)
        lo = _rounded(self.lo_root, self.ln_lo, places)
        if self.kind == "exact":
            return lo
        return f"[{lo}, {_rounded(self.hi_root, self.ln_hi, places)}]"


def _rounded(root: RootInterval, ln: tuple[Fraction, Fraction], places: int) -> str:
    digits = places + 3  # the precision `entropy_or_bounds(b, places)` used
    while (text := format_decimal(ln[0], places)) != format_decimal(ln[1], places):
        digits += 3
        root = root.refined(digits)
        ln = ln_enclosure(root.lo, root.hi, F(1, 10**digits))
    return text


# The most digits `entropy_or_bounds` and `EntropyResult.decimal` take.
# Past about 1000 digits an entropy's time is its logarithm's, which grows
# about as digits^2.6: 0.10 s at 3000, 2.48 s at 10,000 and 44.6 s at
# 30,000 (Python 3.11, a shared 2-core machine), so about 10 minutes near
# 80,000.  Above it a request is refused before any power of ten is built.
_MAX_DIGITS = 80_000


def _refuse_above_ceiling(digits: int) -> None:
    if digits > _MAX_DIGITS:
        raise ValueError(f"digits must be <= {_MAX_DIGITS}, got {digits}")


def entropy_or_bounds(b, digits: int = 7) -> EntropyResult:
    """Exact entropy (classes T, V) or certified bounds (classes S, U)."""
    if digits < 0:
        raise ValueError(f"digits must be >= 0, got {digits}")
    _refuse_above_ceiling(digits)
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


# The five class-root families, in ascending order of their roots at each level.
_FAMILIES = (poly_lower, poly_exact_v, poly_exact_t, poly_upper_u, poly_upper_s)


def _ascending(polys: list[IntPoly]) -> bool:
    """Whether the positive roots of `polys` strictly increase, decided by
    `compare_roots` from 6-digit enclosures it refines where a pair needs."""
    roots = [isolate_unique_positive_root(p, 6) for p in polys]
    return all(compare_roots(r, s) < 0 for r, s in zip(roots, roots[1:]))


def verify_root_ordering(n_max: int) -> bool:
    """Certified 1 < lower < V-root < T-root < U-root < S-upper for n <= n_max."""
    return all(_ascending([IntPoly([-1, 1]), *(fam(n) for fam in _FAMILIES)]) for n in range(n_max + 1))


def roots_strictly_decreasing(n_max: int) -> bool:
    """Each of the five root sequences strictly decreases up to level n_max."""
    return all(_ascending([fam(n) for n in range(n_max, -1, -1)]) for fam in _FAMILIES)


def continuity_level_bound(eps) -> int:
    """Smallest level n with (1+eps)^(3n) > (x^3+2)/(x^4 (x^3-1)) at x = 1+eps.

    Beyond that level the upper S-class root drops below 1+eps, which pins
    the entropy below ln(1+eps) for the rest of the parameter interval: the
    entropy tends to 0 at the right endpoint.

    For g > 1, certified brackets of ln x and ln g are refined until they
    prove 3(n-1) ln x < ln g < 3n ln x.  That ends: x^(3m) = g would make x a
    rational root > 1 of x^(3m+7) - x^(3m+4) - x^3 - 2, and 2, the only
    candidate, is not one.
    """
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    x = 1 + eps
    g = (x**3 + 2) / (x**4 * (x**3 - 1))
    if g < 1:
        return 0
    bits = 32 + eps.denominator.bit_length()  # 2^-bits is far below ln x > 1/(den + 1)
    while True:
        err = F(1, 1 << bits)
        x_lo, x_hi = ln_enclosure(x, x, err)
        g_lo, g_hi = ln_enclosure(g, g, err)
        n = g_lo // (3 * x_hi) + 1
        if 3 * (n - 1) * x_hi < g_lo and g_hi < 3 * n * x_lo:
            return n
        bits *= 2


def upper_root_below(n: int, eps) -> bool:
    """Certified check that the level-n S-upper root is below 1 + eps: the
    polynomial is positive there, read as an exact sign, not a value."""
    return _sign_at(poly_upper_s(n), 1 + Fraction(eps)) > 0


# ---------------------------------------------------------------------------
# Partition of the invariant graph and the induced digraphs
# ---------------------------------------------------------------------------


def _partition(b: Fraction, named: dict[str, tuple[int, int]]) -> tuple[list[tuple[str, LatticeSegment]], LevelClass]:
    """Partition carrying the covering digraphs at b = u/v, as lattice ends
    on the tables' (1/4v)Z^2, the named points of the graph given there;
    plateaus and their feeders are absent (collapsed intervals carry no
    itineraries).

    The orbit points of the bottom edge, x_0 = b - 10 and
    x_(i+1) = 4x_i + b - 2, are each c0 + c1*b with integers c0 and c1, so
    they and their first two images lie on that lattice too: 4v*x_i is
    X_0 = 4u - 40v, then X_(i+1) = 4X_i + 4u - 8v.
    """
    lc = classify(b)
    n = lc.n
    u, v = b.numerator, b.denominator
    bq, one = 4 * u, 4 * v  # b and 1 on the lattice

    def P(name: str) -> tuple[int, int]:
        return named[name]

    # x_0 > x_1 > ... > x_n on the bottom edge
    xs = [bq - 10 * one]
    for _ in range(n):
        xs.append(4 * xs[-1] + bq - 2 * one)
    bottom = [(x, -one) for x in xs]
    first_img = [(-x, x + bq - one) for x in xs]  # on the falling right edge
    second_img = [(-2 * x - bq, -2 * x + one) for x in xs]  # on the rising left edge

    part = [
        ("A", P("P18"), P("P9")),
        ("B", P("P11"), P("P16")),
        ("D", P("P17"), P("P12")),
        ("E", P("P2"), P("P3")),
        ("H", P("Y6"), P("P6")),
        ("I", P("P7"), P("Y4")),
        ("G", bottom[0], P("P4")),
        ("F1", P("P3"), bottom[n]),
    ]
    if n == 0:
        part.append(("C", P("P12"), P("P1")))
        part.append(("K", P("Y1"), P("Y2")))
    else:
        part.append(("K", P("Y1"), first_img[0]))
        part.append(("C1", second_img[n - 1], P("P1")))
        for j in range(2, n + 1):
            part.append((f"C{j}", second_img[n - j], second_img[n - j + 1]))
        part.append((f"C{n + 1}", P("P12"), second_img[0]))
        part.append(("J2", first_img[n - 1], P("Y2")))
        for j in range(3, n + 2):
            part.append((f"J{j}", first_img[n - j + 1], first_img[n - j + 2]))
        for j in range(2, n + 2):
            part.append((f"F{j}", bottom[n - j + 2], bottom[n - j + 1]))
    return [(label, (*p, *q)) for label, p, q in part], lc


def cover_digraphs(b) -> tuple[CoverDigraph, CoverDigraph, LevelClass]:
    """(lower, upper) covering digraphs at b, from the actual invariant graph,
    with the partition and the graph's edges on one lattice."""
    b = Fraction(b)
    t = _table_lattice("band48", b)
    part, lc = _partition(b, t.named())
    lower, upper = _cover_digraph_pair(t.frame, -t.frame, 4 * b.numerator, part, list(t.edge_ends().values()))
    return lower, upper, lc


def cross_check_entropy(b) -> bool:
    """Closed-form class polynomials against digraphs built from the graph.

    True iff the stripped characteristic factor of the lower (upper) digraph
    is the first (last) class polynomial.  `spectral_radius` proves the radius
    inside that polynomial's root enclosure by exact leading-minor tests, and
    raises if the proof fails; T and V share one digraph, proven once.  Both
    tests are exact, so the enclosure's 10 digits decide no answer.
    """
    lc = classify(b)
    lower, upper, _ = cover_digraphs(b)
    polys = level_polynomials(lc)
    pairs = dict.fromkeys(((lower, polys[0]), (upper, polys[-1])))  # one pair for T and V
    return all(spectral_radius(dg, 10).poly == poly for dg, poly in pairs)


# ---------------------------------------------------------------------------
# Summary table
# ---------------------------------------------------------------------------


def table_rows(levels: int = 3, places: int = 5) -> list[dict[str, str]]:
    """One row per class for levels 0..levels-1: set, interval, entropy."""
    if places < 0:
        raise ValueError(f"digits must be >= 0, got {places}")
    rows = []
    for n in range(levels):
        for letter in "STUV":
            lc = LevelClass(n, letter)
            lo, hi, lo_closed, hi_closed = lc.interval()
            mid = (lo + hi) / 2
            res = entropy_or_bounds(mid, places)
            interval = "{}{}, {}{}".format(
                "[" if lo_closed else "(",
                rational_str(lo),
                rational_str(hi),
                "]" if hi_closed else ")",
            )
            rows.append({"set": str(lc), "interval": interval, "entropy": res.decimal(places)})
    return rows


def table_csv(places: int = 5) -> str:
    lines = ["set,interval,entropy"]
    for row in table_rows(places=places):
        lines.append('{},"{}","{}"'.format(row["set"], row["interval"], row["entropy"]))
    return "\n".join(lines) + "\n"
