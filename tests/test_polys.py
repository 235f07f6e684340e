import random
from fractions import Fraction as F
from math import isqrt

import pytest

import oracles
from pwldyn import polys
from pwldyn.band48 import poly_exact_t, poly_exact_v, poly_lower, poly_upper_s, poly_upper_u
from pwldyn.markov import digraph_from_edges, spectral_radius
from pwldyn.polys import (
    IntPoly,
    RootInterval,
    coefficient_bound,
    compare_roots,
    descartes_positive_sign_changes,
    isolate_unique_positive_root,
    largest_positive_root,
    poly_det,
    poly_gcd,
    _approximate,
    _homogeneous,
    _primitive,
    _pseudo_divmod,
    _sign_at,
    _squarefree_part,
)


def poly(**terms) -> IntPoly:
    return IntPoly.from_terms({int(k[1:]): v for k, v in terms.items()})


X7_X4_1 = poly(p7=1, p4=-1, p0=-1)
BAND48_FAMILIES = (poly_lower, poly_upper_s, poly_exact_t, poly_upper_u, poly_exact_v)


def test_descartes_counts():
    assert descartes_positive_sign_changes(X7_X4_1) == 1
    assert descartes_positive_sign_changes(poly(p2=1, p0=1)) == 0
    assert descartes_positive_sign_changes(poly(p10=1, p7=-1, p3=-2, p0=-1)) == 1
    with pytest.raises(ValueError):
        descartes_positive_sign_changes(IntPoly([]))


def _rounds_to(ri: RootInterval, text: str, places: int = 5) -> bool:
    from pwldyn.rationals import format_decimal

    ri = ri.refined(places + 3)
    return format_decimal(ri.lo, places) == format_decimal(ri.hi, places) == text


def test_isolate_unique_positive_root_examples():
    ri = isolate_unique_positive_root(X7_X4_1, 5)
    assert ri.width < F(1, 10**5)
    assert _rounds_to(ri, "1.15855")

    exact = isolate_unique_positive_root(poly(p1=1, p0=-1), 40)
    assert exact.lo == exact.hi == 1

    ri = isolate_unique_positive_root(poly(p7=1, p4=-1, p0=-2), 5)
    assert _rounds_to(ri, "1.23175")


def test_isolate_rejects_multiple_sign_changes():
    with pytest.raises(ValueError):
        isolate_unique_positive_root(poly(p2=1, p0=1), 5)
    with pytest.raises(ValueError):
        isolate_unique_positive_root(poly(p2=1, p1=-3, p0=1), 5)


def test_isolate_root_below_one():
    ri = isolate_unique_positive_root(poly(p1=2, p0=-1), 10)
    assert ri.lo <= F(1, 2) <= ri.hi


def test_root_interval_invariants():
    with pytest.raises(ValueError):
        RootInterval(F(2), F(3), X7_X4_1)  # no sign change there
    with pytest.raises(ValueError):
        RootInterval(F(2), F(2), X7_X4_1)  # not an exact root
    # (x-1)^k (x^2-3): the enclosure holds the one root in (lo, hi]
    x_1 = poly(p1=1, p0=-1)
    p = x_1 * poly(p2=1, p0=-3)
    for q in (p, x_1 * p):
        ri = RootInterval(F(1), F(2), q).refined(6)
        assert ri.width < F(1, 10**6)
        assert 1 < ri.lo and ri.lo**2 < 3 < ri.hi**2
    with pytest.raises(ValueError):
        RootInterval(F(1), F(3, 2), p)  # no root in (1, 3/2]
    with pytest.raises(ValueError):
        RootInterval(F(0), F(1), p)  # hi is a root


def test_from_terms_refuses_a_negative_power():
    with pytest.raises(ValueError, match="^polynomial powers must be >= 0, got -2$"):
        IntPoly.from_terms({-2: 1, 0: 3})
    with pytest.raises(ValueError, match="^polynomial powers must be >= 0, got -7$"):
        IntPoly.from_terms({4: 1, -1: 2, -7: -1})
    assert IntPoly.from_terms({-2: 0, 0: 3}) == IntPoly([3])  # a zero term is no term


def test_root_interval_refuses_a_second_root():
    # (x-1)(x-2)(x-3) on (0, 10] changes sign but holds three roots; had it
    # been accepted, compare_roots would call it equal to two enclosures
    # that it orders apart
    p = poly(p1=1, p0=-1) * poly(p1=1, p0=-2) * poly(p1=1, p0=-3)
    with pytest.raises(ValueError, match=r"^polynomial has more than one root in \(lo, hi\]$"):
        RootInterval(F(0), F(10), p)
    two, three = RootInterval(F(3, 2), F(5, 2), p), RootInterval(F(5, 2), F(7, 2), p)
    assert RootInterval(F(1), F(5, 2), p) == RootInterval._proven(F(1), F(5, 2), p)  # lo may be a smaller root
    assert (compare_roots(two, three), compare_roots(three, two)) == (-1, 1)


def _sign_right_of(p: IntPoly, x: F) -> int:
    """The oracle's sign of a nonzero p just right of x, by derivatives."""
    while (s := oracles._sign_of_value(p, x)) == 0:
        p = p.derivative()
    return s


def test_root_interval_accepts_exactly_one_distinct_root():
    # Seeded (p, lo, hi): products of rational roots of multiplicity 1-3,
    # some times x^2 - 2 or x^2 + 1, on rational brackets of either sign.
    # The constructor accepts exactly the brackets holding one distinct
    # root with a sign change, by the oracle's Sturm count of the
    # square-free part, and refuses the rest with its one-line reason.
    rng = random.Random(4901)
    seen = {"one": 0, "several": 0, "no change": 0, "exact": 0}
    for _ in range(1200):
        p = IntPoly([rng.choice((1, -1, 3))])
        for _ in range(rng.randint(1, 4)):
            r = F(rng.randint(-12, 12), rng.choice((1, 1, 2, 3)))
            for _ in range(rng.choice((1, 1, 1, 2, 3))):
                p = p * IntPoly([-r.numerator, r.denominator])
        p = p * rng.choice((IntPoly([1]), IntPoly([-2, 0, 1]), IntPoly([1, 0, 1])))
        lo = F(rng.randint(-30, 30), rng.choice((1, 2, 4, 7)))
        hi = lo if rng.random() < 0.05 else lo + F(rng.randint(1, 40), rng.choice((1, 2, 3, 8)))
        if lo == hi:
            expect = oracles._sign_of_value(p, lo) == 0
            key = "exact"
        else:
            count = oracles.count_roots_in(oracles.squarefree_part(p), lo, hi)
            changes = oracles._sign_of_value(p, hi) != 0 and _sign_right_of(p, lo) != oracles._sign_of_value(p, hi)
            expect = changes and count == 1
            key = "one" if expect else "several" if changes else "no change"
        try:
            RootInterval(lo, hi, p)
            got = True
        except ValueError as exc:
            got = False
            assert "\n" not in str(exc)
            if key == "several":
                assert str(exc) == "polynomial has more than one root in (lo, hi]"
        assert got == expect, (p, lo, hi)
        seen[key] += 1
    assert min(seen.values()) >= 50, seen


def test_root_interval_refuses_the_zero_polynomial():
    # every point is a root of 0, so no enclosure holds one root of it
    for lo, hi in ((F(1), F(1)), (F(1), F(2))):
        with pytest.raises(ValueError, match="zero polynomial"):
            RootInterval(lo, hi, IntPoly([]))


def test_compare_roots_refuses_the_zero_polynomial():
    zero = RootInterval._proven(F(1), F(1), IntPoly([]))
    root = RootInterval(F(2), F(2), poly(p1=1, p0=-2))
    for a, b in ((zero, root), (root, zero)):
        with pytest.raises(ValueError, match="zero polynomial"):
            compare_roots(a, b)


def test_count_roots_in_refuses_the_zero_polynomial():
    with pytest.raises(ValueError, match="zero polynomial"):
        oracles.count_roots_in(IntPoly([]), F(0), F(1))
    with pytest.raises(ValueError, match="zero polynomial"):  # the engine's root search too
        largest_positive_root(IntPoly([]), 5)


def test_sturm_counting_and_largest_root():
    p = poly(p2=1, p0=-2) * poly(p1=1, p0=-3)  # roots +-sqrt(2), 3
    assert oracles.count_roots_in(p, F(0), F(10)) == 2
    ri = largest_positive_root(p, 12)
    assert ri.lo <= 3 <= ri.hi
    # squared factor: distinct-root semantics
    p2 = poly(p1=1, p0=-1) * poly(p1=1, p0=-1)
    ri = largest_positive_root(p2, 12)
    assert ri.lo == ri.hi == 1
    assert largest_positive_root(poly(p2=1, p0=1), 8) is None
    # largest root exactly 1, with no dyadic midpoint of [0, 5] equal to 1
    p3 = poly(p1=1, p0=-1) * poly(p1=3, p0=-1) * poly(p2=1, p0=1)
    ri = largest_positive_root(p3, 12)
    assert ri.lo == ri.hi == 1


def test_poly_det_examples():
    a = poly(p3=1, p7=1)
    assert poly_det([[a]]) == a

    one = IntPoly([1])
    zero_det = poly_det([[one - one, IntPoly([])], [IntPoly([]), one - one]])
    assert zero_det.is_zero()

    with pytest.raises(ValueError):
        poly_det([[one, one]])


def _random_poly_matrix(rng: random.Random, n: int) -> list[list[IntPoly]]:
    """An n x n matrix of small IntPolys, of one of several shapes: dense,
    sparse, with zero pivots (a zero corner, a permutation pattern), with a
    zero row or column, or rank-deficient (a row a combination of two
    others)."""
    kind = rng.choice(("dense", "sparse", "zero-corner", "permutation", "zero-row", "zero-column", "deficient"))

    def entry(p_zero: float) -> IntPoly:
        if rng.random() < p_zero:
            return IntPoly([])
        return IntPoly([rng.randint(-4, 4) for _ in range(rng.randint(1, 3))])

    m = [[entry(0.6 if kind == "sparse" else 0.1) for _ in range(n)] for _ in range(n)]
    if kind == "permutation":
        perm = rng.sample(range(n), n)
        m = [[m[i][j] if j == perm[i] or rng.random() < 0.2 else IntPoly([]) for j in range(n)] for i in range(n)]
    elif n and kind == "zero-corner":
        m[0][0] = IntPoly([])
    elif n and kind == "zero-row":
        m[rng.randrange(n)] = [IntPoly([])] * n
    elif n and kind == "zero-column":
        j = rng.randrange(n)
        for row in m:
            row[j] = IntPoly([])
    elif n >= 3 and kind == "deficient":
        i, j, k = rng.sample(range(n), 3)
        u, v = entry(0), entry(0)
        m[i] = [u * a + v * b for a, b in zip(m[j], m[k])]
    return m


def test_poly_det_matches_the_cofactor_oracle():
    rng = random.Random(1968)
    sizes = [0, 1, 2, 3, 4, 5, 6, 7]
    cases = [_random_poly_matrix(rng, rng.choices(sizes, weights=(1, 2, 4, 4, 4, 3, 2, 1))[0]) for _ in range(600)]
    assert sum(len(m) == 7 for m in cases) >= 20
    deficient = 0
    for m in cases:
        det = poly_det(m)
        assert det == oracles.poly_det(m), m
        deficient += len(m) > 1 and det.is_zero()
    assert deficient >= 100


def test_poly_det_refuses_an_inexact_division(monkeypatch):
    # An exact division scales nothing (k == 1) and leaves no remainder; each
    # inexact one shows a scale or a remainder, which `poly_det` refuses.
    y, one = IntPoly([0, 1]), IntPoly([1])
    assert _pseudo_divmod(y * y - one, y + one) == (1, y - one, IntPoly([]))
    assert _pseudo_divmod(IntPoly([]), y) == (1, IntPoly([]), IntPoly([]))
    assert _pseudo_divmod(y * y, y + one) == (1, y - one, one)
    assert _pseudo_divmod(IntPoly([3]), IntPoly([2])) == (2, IntPoly([3]), IntPoly([]))
    assert _pseudo_divmod(y, y * y) == (1, IntPoly([]), y)
    m = [[y + one, y], [y, y - one]]
    assert poly_det(m) == oracles.poly_det(m)
    for bad in ((2, y, IntPoly([])), (1, y, one)):
        monkeypatch.setattr(polys, "_pseudo_divmod", lambda a, b, bad=bad: bad)
        with pytest.raises(ValueError, match="^polynomial division is not exact$"):
            poly_det([[y, one, one], [one, y, one], [one, one, y]])


def _random_factor(rng: random.Random, deg: int) -> IntPoly:
    cs = [rng.randint(-9, 9) for _ in range(deg)]
    return IntPoly(cs + [rng.choice((-1, 1)) * rng.randint(1, 9)])


def _division_cases(rng: random.Random, count: int):
    """Seeded pairs (a, b) of nonzero polynomials with random leading signs:
    shared factors, squared factors, constant and linear divisors, band48
    family polynomials times a factor, and a product against its derivative.
    Five in every four hundred reach degree 40 (one of them exactly), the
    rest stay below 11, since the Fraction oracle's cost grows steeply with
    the degree."""
    for i in range(count):
        top, kind = (40 if i % 400 < 5 else 10), i % 5
        f = _random_factor(rng, rng.randint(1, 4))
        if kind == 0:
            a = f * _random_factor(rng, rng.randint(0, top - 4))
            b = f * _random_factor(rng, rng.randint(0, 8))
        elif kind == 1:
            a, b = f * f * _random_factor(rng, rng.randint(0, top - 8)), f * _random_factor(rng, 3)
        elif kind == 2:
            a = _random_factor(rng, top if top == 40 else rng.randint(0, top))
            b = _random_factor(rng, rng.randint(0, 1))
        elif kind == 3:
            fam = BAND48_FAMILIES[rng.randrange(5)](rng.randint(0, (top - 10) // 3))
            a = fam * _random_factor(rng, rng.randint(0, top - fam.degree))
            b = fam.derivative() if i % 2 else fam * _random_factor(rng, 2)
        else:
            a = _random_factor(rng, rng.randint(0, top // 2)) * _random_factor(rng, rng.randint(0, top // 2))
            b = a.derivative() if a.degree > 0 else f
        yield a, b


def test_integer_division_matches_fraction_oracle():
    rng = random.Random(2020)
    degrees = set()
    for a, b in _division_cases(rng, 2000):
        degrees.add(a.degree)
        k, q, r = _pseudo_divmod(a, b)
        assert k > 0 and IntPoly([k]) * a == q * b + r and r.degree < b.degree
        fq, fr = oracles._poly_divmod(oracles._frac_coeffs(a), oracles._frac_coeffs(b))
        assert (_primitive(q), _primitive(r)) == (oracles._primitive(fq), oracles._primitive(fr))
        exact = all(c.denominator == 1 for c in fq) and not any(fr)
        assert (k == 1 and r.is_zero()) == exact
        assert poly_gcd(a, b) == oracles.poly_gcd(a, b)
        assert _squarefree_part(a) == oracles.squarefree_part(a)
    assert max(degrees) == 40


_FRACTION_OPERATORS = (
    "__new__", "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__truediv__",
    "__rtruediv__", "__floordiv__", "__rfloordiv__", "__mod__", "__rmod__", "__pow__", "__rpow__",
    "__neg__", "__abs__", "__eq__", "__lt__", "__le__", "__gt__", "__ge__",
)


def test_sturm_gcd_and_squarefree_do_no_fraction_arithmetic(monkeypatch):
    t, v = poly_exact_t(10), poly_exact_v(10)
    p = t * t * v

    def forbidden(*args):
        raise AssertionError("Fraction arithmetic in the polynomial division")

    with monkeypatch.context() as patch:
        for op in _FRACTION_OPERATORS:
            patch.setattr(F, op, forbidden)
        g = poly_gcd(p, t * poly_lower(10))
        sf = _squarefree_part(p)
        cells = list(polys._root_cells(sf, coefficient_bound(sf)))
    assert g == t
    assert sf == (t * v).normalized_sign()
    assert len(cells) == 2  # the largest roots of t and v, each alone in a cell


def _factor(rng: random.Random) -> IntPoly:
    """A small factor: a rational or dyadic root, the root 1, two real roots
    c +- sqrt(e) / s (clustered for large s), a complex pair (s x - a)^2 + e
    next to the real point a / s, or random coefficients."""
    kind = rng.randrange(6)
    if kind == 0:
        return poly(p1=rng.randint(1, 8), p0=-rng.randint(-20, 40))
    if kind == 1:
        return poly(p1=1 << rng.randint(0, 6), p0=-rng.randint(1, 60))
    if kind == 2:
        return poly(p1=1, p0=-1)
    s = 10 ** rng.randint(1, 3)
    if kind == 3:
        c, e = rng.randint(1, 9), rng.randint(1, 3)
        return poly(p2=s * s, p1=-2 * c * s * s, p0=c * c * s * s - e)
    if kind == 4:
        a, e = rng.randint(1, 30 * s), rng.randint(1, s)
        return poly(p2=s * s, p1=-2 * a * s, p0=a * a + e)
    return _random_factor(rng, rng.randint(1, 4))


def _general_route_pool(monkeypatch, rng: random.Random, digraphs: int, products: int) -> list[IntPoly]:
    """Seeded polynomials of `largest_positive_root`'s general route (other
    than one coefficient sign change): those `spectral_radius` isolates on
    random digraphs of 1-12 nodes, products of `_factor`s, some squared,
    and last two whose largest root is a point of the search's grid below
    the cells of `refined(0)`, one with a complex pair next to it and one
    with a second real root."""
    from pwldyn import markov

    seen = []
    monkeypatch.setattr(markov, "largest_positive_root", lambda p, digits: seen.append(p) or largest_positive_root(p, digits))
    for _ in range(digraphs):
        n = rng.randint(1, 12)
        labels = [f"v{i}" for i in range(n)]
        density = rng.choice((0.1, 0.2, 0.3, 0.45))
        spectral_radius(digraph_from_edges(labels, [(a, b) for a in labels for b in labels if rng.random() < density]), 12, check=False)
    monkeypatch.undo()
    for _ in range(products):
        p = IntPoly([1])
        for _ in range(rng.randint(1, 3)):
            f = _factor(rng)
            p = p * f * (f if rng.random() < 0.3 else IntPoly([1]))
        seen.append(p)
    seen += [  # 1 + max|coeff| = 2^15 and 2^23; the root 5/4 is at depth 17 and 25
        poly(p1=4, p0=-5) * poly(p2=8, p1=-20, p0=13) * poly(p1=1, p0=216),
        poly(p1=4, p0=-5) * poly(p1=8, p0=-9) * poly(p1=1, p0=110377),
    ]
    general = []
    for p in seen:
        core = p.strip_power_factor()[0]
        if core.degree > 0 and descartes_positive_sign_changes(core) != 1:
            general.append(p)
    return general


def test_largest_positive_root_matches_the_sturm_route(monkeypatch):
    # The cell search returns the Sturm bisection's enclosure to the bit,
    # also where it isolates the root below the cells of `refined(digits)`.
    rng = random.Random(4646)
    pool = _general_route_pool(monkeypatch, rng, 900, 2000)
    assert len(pool) >= 2000
    kinds = dict.fromkeys(("repeated", "none", "exact", "one", "deep", "deep exact"), 0)
    cases = [(p, rng.choice((0, 0, 1, 2, 3, 5, 8, 12))) for p in pool] + [(p, 0) for p in pool[-2:]]
    for p, digits in cases:
        ri = largest_positive_root(p, digits)
        assert ri == oracles.largest_positive_root(p, digits), (p, digits)
        kinds["none"] += ri is None
        if ri is None:
            continue
        sf = ri.poly  # the square-free part
        kinds["repeated"] += sf.degree < p.strip_power_factor()[0].degree
        kinds["exact"] += ri.is_exact and ri.lo != 1
        kinds["one"] += ri.is_exact and ri.lo == 1
        if digits <= 3:  # where the search isolates below `refined`'s cells
            bound = coefficient_bound(sf)
            k, _, at_end = next(polys._root_cells(sf, bound))
            deep = k > (bound * 10**digits).bit_length()
            kinds["deep"] += deep
            kinds["deep exact"] += deep and at_end
    assert min(kinds.values()) >= 2 and kinds["deep"] >= 100, kinds


def test_cell_counts_match_the_descartes_oracle():
    # The search's cell polynomial, reached by its halvings and Taylor shifts,
    # is 2^(kn) p(B (c + x) / 2^k), and the engine's count on it equals
    # Descartes' count on (1 + y)^n p((lo + hi y) / (1 + y)) from Fractions.
    rng = random.Random(4747)
    at_root = 0
    for case in range(600):
        p = IntPoly([1])
        for _ in range(rng.randint(1, 3)):
            p = p * _factor(rng)
        bound = coefficient_bound(p) if case % 3 else rng.randint(1, 200)
        k = rng.randint(0, 12)
        c = rng.randrange(1 << k)
        lo, hi = F(bound * c, 1 << k), F(bound * (c + 1), 1 << k)
        if case % 4 == 0:  # a root at an end of the cell
            end = rng.choice((lo, hi)) if lo else hi
            p = p * IntPoly([-end.numerator, end.denominator])
        q = [a * bound**i for i, a in enumerate(p.coeffs)]
        for bit in reversed(range(k)):
            q = [a << len(q) - 1 - i for i, a in enumerate(q)]
            if c >> bit & 1:
                q = polys._taylor_shift(q)
        n = p.degree
        # q(x) = 2^(kn) p(B (c + x) / 2^k) at the n + 1 points x = 0..n
        assert [sum(a * x**i for i, a in enumerate(q)) for x in range(n + 1)] == [
            sum(a * (bound * (c + x)) ** i << k * (n - i) for i, a in enumerate(p.coeffs)) for x in range(n + 1)]
        at_root += not oracles._sign_of_value(p, lo) * oracles._sign_of_value(p, hi)
        assert polys._sign_changes(polys._taylor_shift(q[::-1])) == oracles.descartes_cell_count(p, lo, hi), (p, lo, hi)
    assert at_root >= 150


def test_same_root_matches_gcd_and_sturm():
    # Pairs of enclosures built to hold one root through two polynomials, to
    # touch at their ends, or to be exact; `_same_root` decides each by a
    # sign change where the oracle counts the gcd's roots with Sturm chains.
    rng = random.Random(4848)
    extra = (IntPoly([1]), poly(p1=1, p0=3), poly(p2=1, p0=1), poly(p2=1, p1=-1, p0=1))
    groups = []
    while len(groups) < 70:
        p = IntPoly([1])
        for _ in range(rng.randint(1, 3)):
            p = p * _factor(rng)
        group = [largest_positive_root(p * rng.choice(extra), rng.randrange(0, 8)) for _ in range(3)]
        if group[0] is not None:
            groups.append(group + [group[0].refined(rng.randrange(0, 12))])
    for _ in range(20):  # r < sqrt(c) < r2: exact ends, and lo a root of the enclosure's polynomial
        c, j = rng.choice((2, 3, 5, 7, 11)), rng.randrange(0, 12)
        r, r2 = (F(isqrt(c * 100**j) + i, 10**j) for i in (0, 1))
        at = {x: IntPoly([-x.numerator, x.denominator]) for x in (r, r2)}
        square, near = poly(p2=1, p0=-c), IntPoly([-(c * 100 ** (j + 2) + 1), 0, 100 ** (j + 2)])  # sqrt(c + tiny)
        groups.append([
            RootInterval(r, r, at[r]), RootInterval(r, r, at[r] * poly(p1=1, p0=1)), RootInterval(r2, r2, at[r2]),
            RootInterval(r, r2, at[r] * square), RootInterval(r, r2, square), RootInterval(r, r2, at[r] * near),
            RootInterval(r, r2, square * square * square * at[r]).refined(2),
        ])
    flat = [ri for group in groups for ri in group]
    pairs = [(a, b) for group in groups for a in group for b in group]
    pairs += [(rng.choice(flat), rng.choice(flat)) for _ in range(200)]
    assert len(pairs) >= 1000
    seen = set()
    for a, b in pairs:
        same = polys._same_root(a, b)
        assert same == oracles.same_root(a, b), (a, b)
        seen.add((same, max(a.lo, b.lo) == min(a.hi, b.hi), a.hi == b.lo and not a.is_exact))
    assert {(True, False, False), (False, False, False), (True, True, False), (False, True, False), (False, True, True)} <= seen, seen


def test_negative_digits_are_refused():
    with pytest.raises(ValueError, match="-2"):
        isolate_unique_positive_root(X7_X4_1, -2)
    golden = digraph_from_edges(["a", "b"], [("a", "a"), ("a", "b"), ("b", "a")])
    with pytest.raises(ValueError, match="-1"):
        spectral_radius(golden, -1)


def test_five_families_enclosure_property():
    for fam in BAND48_FAMILIES:
        for n in (*range(0, 13, 3), 25, 50):
            p = fam(n)
            ri = isolate_unique_positive_root(p, 8)
            assert ri.width < F(1, 10**8)
            assert p(ri.lo) < 0 < p(ri.hi)


def test_poly_arithmetic_and_repr():
    p = poly(p3=1, p0=-1)
    q = poly(p1=1, p0=1)
    assert (p * q)(F(2)) == p(F(2)) * q(F(2))
    assert (p + q - q) == p
    assert repr(X7_X4_1) == "x^7 - x^4 - 1"


def test_dense_coefficients_must_be_integers():
    with pytest.raises(ValueError, match=r"Fraction\(1, 2\)"):
        IntPoly([F(1, 2), 1.9])
    with pytest.raises(ValueError, match="1.9"):
        IntPoly([3, 1.9])
    assert IntPoly([True, 0, -2]).terms == ((0, 1), (2, -2))


def test_term_coefficients_must_be_integers():
    with pytest.raises(ValueError, match=r"Fraction\(1, 2\)"):
        IntPoly.from_terms({2: F(1, 2)})
    with pytest.raises(ValueError, match="1.0"):
        IntPoly.from_terms({0: 1, 5: 1.0})
    assert IntPoly.from_terms({3: True, 1: 0}).terms == ((3, 1),)


def _dense_pool(rng: random.Random) -> list[list[int]]:
    """Seeded dense coefficient lists: the zero polynomial with and without
    zeros, trailing zeros, x^k factors, negative leading coefficients, a
    common content, and sparse polynomials up to degree 30,000."""
    pool = [[], [0], [0, 0, 0], [5], [-7, 0, 0], [0, 0, 0, -3], [0, 1], [-1, 1], [4, -6, 0, 8, 0]]
    while len(pool) < 520:
        kind = len(pool) % 4
        if kind == 3:
            deg = rng.choice((100, 3000, 30_000))
            cs = [0] * (deg + 1)
            for _ in range(rng.randint(1, 4)):
                cs[rng.randint(0, deg)] = rng.randint(-(10**6), 10**6)
            cs[deg] = rng.choice((-1, 1)) * rng.randint(1, 10**6)
        else:
            cs = [rng.choice((0, 0, rng.randint(-9, 9), rng.randint(-(10**20), 10**20)))
                  for _ in range(rng.randint(0, 12))]
            if kind == 1 and cs:
                cs = [0] * rng.randint(1, 5) + [c * rng.choice((2, 6)) for c in cs]
        pool.append(cs + [0] * rng.choice((0, 0, 1, 3)))
    return pool


def test_terms_match_the_dense_reference():
    # `IntPoly` against the earlier dense tuple arithmetic (`DensePoly`):
    # equal values, and equal polynomials hash alike whichever constructor
    # built them.
    rng = random.Random(33)
    pool = _dense_pool(rng)
    polys = [(IntPoly(cs), oracles.DensePoly(cs)) for cs in pool]
    for cs, (p, d) in zip(pool, polys):
        q = IntPoly.from_terms(dict(enumerate(cs)))
        assert p == q and hash(p) == hash(q)
        assert (p.coeffs, p.degree, repr(p)) == (d.coeffs, d.degree, repr(d))
        assert p.terms == tuple((k, c) for k, c in enumerate(d.coeffs) if c)
        assert (-p).coeffs == (-d).coeffs
        assert p.derivative().coeffs == d.derivative().coeffs
        (ps, k), (ds, dk) = p.strip_power_factor(), d.strip_power_factor()
        assert (ps.coeffs, k) == (ds.coeffs, dk)
        assert p.normalized_sign().coeffs == d.normalized_sign().coeffs
        assert _primitive(p).coeffs == d.primitive().coeffs
    pairs = [(rng.randrange(len(pool)), rng.randrange(len(pool))) for _ in range(600)]
    pairs += [(i, i) for i in range(len(pool))] + [(0, 1), (0, 2), (3, 3)]
    equal = 0
    for i, j in pairs:
        (p, d), (q, e) = polys[i], polys[j]
        assert (p == q) == (d == e)
        if d == e:
            equal += 1
            assert hash(p) == hash(q)
        assert (p + q).coeffs == (d + e).coeffs
        assert (p - q).coeffs == (d - e).coeffs
        if min(p.degree, q.degree) < 3000:
            assert (p * q).coeffs == (d * e).coeffs
    assert equal > len(pool)


def test_random_eval_consistency():
    rng = random.Random(7)
    for _ in range(200):
        coeffs = [rng.randint(-5, 5) for _ in range(rng.randint(1, 6))]
        p = IntPoly(coeffs)
        if p.is_zero():
            continue
        x = F(rng.randint(-50, 50), rng.randint(1, 50))
        expect = sum(c * x**i for i, c in enumerate(coeffs))
        assert p(x) == expect


def _sign(p: IntPoly, x: F) -> int:
    """Sign of p(x) from the plain integer sum sum c_i n^i d^(deg-i) at x = n/d."""
    n, d, deg = x.numerator, x.denominator, p.degree
    v = sum(c * n**i * d ** (deg - i) for i, c in p.terms)
    return (v > 0) - (v < 0)


def _fraction_bisection(ri: RootInterval, digits: int) -> tuple[F, F]:
    """Oracle for `RootInterval.refined`: plain bisection on Fractions, one
    midpoint per step, with `_sign` as the evaluator."""

    def sign(x: F) -> int:
        return _sign(ri.poly, x)

    lo, hi = ri.lo, ri.hi
    if lo == hi:
        return lo, hi
    shi = sign(hi)
    while hi - lo >= F(1, 10**digits):
        mid = (lo + hi) / 2
        s = sign(mid)
        if s == 0:
            return mid, mid
        if s == shi:
            hi = mid
        else:
            lo = mid
    return lo, hi


def _assert_refines_like_oracle(ri: RootInterval, digits: int):
    got = ri.refined(digits)
    assert (got.lo, got.hi) == _fraction_bisection(ri, digits)


def _bisection_cell(ri: RootInterval, digits: int, got: RootInterval) -> bool:
    """Whether `got` is what bisecting `ri` to 10^-digits returns, when the
    root is the only one in (lo, hi) and lo is not a root: the cell of the
    bisection's last grid (spacing width / 2^K, K the first depth below
    10^-digits) whose end signs bracket the root.  Two evaluations stand in
    for the K of the bisection where those are too dear to run."""
    cell = ri.width
    while cell >= F(1, 10**digits):
        cell /= 2
    on_grid = ((got.lo - ri.lo) / cell).denominator == 1
    if got.is_exact:
        return on_grid and _sign(ri.poly, got.lo) == 0
    shi = _sign(ri.poly, ri.hi)
    return (
        on_grid
        and got.width == cell
        and _sign(ri.poly, got.lo) == -shi
        and _sign(ri.poly, got.hi) == shi
    )


def _band48_start(p: IntPoly) -> RootInterval:
    """isolate_unique_positive_root's bracket [1, 1 + max|coeff|]: p(1) < 0
    for all five families."""
    return RootInterval(F(1), F(1 + max(abs(c) for c in p.coeffs)), p)


def test_refined_matches_fraction_bisection_on_band48_families():
    for fam in BAND48_FAMILIES:
        for n in range(51):
            _assert_refines_like_oracle(_band48_start(fam(n)), 8 if n % 10 else 30)
    _assert_refines_like_oracle(_band48_start(poly_exact_v(0)), 1000)


def test_refined_is_the_bisection_cell_at_high_levels():
    # The bisection oracle runs K evaluations of degree up to 3010; it is
    # run where that is cheap, and there it must agree with the cell check.
    for fam in BAND48_FAMILIES:
        for n in (100, 400, 1000):
            start = _band48_start(fam(n))
            for digits in (5, 30, 150):
                got = start.refined(digits)
                assert _bisection_cell(start, digits, got)
                if digits == 5 or n == 100 and digits == 30:
                    assert (got.lo, got.hi) == _fraction_bisection(start, digits)


def test_refined_matches_fraction_bisection_from_non_dyadic_starts():
    rng = random.Random(11)
    checked = 0
    while checked < 60:
        terms = {rng.randint(0, 40): rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(rng.randint(2, 5))}
        p = IntPoly.from_terms(terms)
        a, b = F(rng.randint(1, 20), rng.randint(1, 15)), F(rng.randint(1, 20), rng.randint(1, 15))
        lo, hi = min(a, b), max(a, b)
        try:
            ri = RootInterval(lo, hi, p)
        except ValueError:
            continue  # no single sign change over (lo, hi]
        _assert_refines_like_oracle(ri, rng.randint(1, 30))
        checked += 1
    _assert_refines_like_oracle(RootInterval(F(1, 3), F(7, 5), poly(p2=1, p0=-1)), 25)


def test_refined_midpoint_on_the_root_is_exact():
    cases = [
        # (2x-3)(x^2-2): the first midpoint is the root 3/2
        (poly(p1=2, p0=-3) * poly(p2=1, p0=-2), F(23, 16), F(25, 16), F(3, 2)),
        # (8x-11)(x^2+1): the third midpoint is the root 11/8
        (poly(p1=8, p0=-11) * poly(p2=1, p0=1), F(1), F(2), F(11, 8)),
        # (2x-1)(x^2+1) from a non-dyadic start: the midpoint of [1/3, 2/3]
        (poly(p1=2, p0=-1) * poly(p2=1, p0=1), F(1, 3), F(2, 3), F(1, 2)),
    ]
    for p, lo, hi, root in cases:
        ri = RootInterval(lo, hi, p).refined(20)
        assert ri.lo == ri.hi == root
        assert (ri.lo, ri.hi) == _fraction_bisection(RootInterval(lo, hi, p), 20)


def test_refined_enclosures_pass_the_constructor(monkeypatch):
    # `refined` builds its results without the constructor's proof; each
    # one must be an enclosure the constructor accepts.  Levels 0-400 of
    # every band48 family, and the exact roots a midpoint can hit.
    from pwldyn import polys

    starts = [(_band48_start(fam(n)), digits)
              for fam in BAND48_FAMILIES for n in range(0, 401, 8) for digits in (3, 40)]
    starts += [(RootInterval(F(23, 16), F(25, 16), poly(p1=2, p0=-3) * poly(p2=1, p0=-2)), 20),
               (RootInterval(F(1), F(2), poly(p1=8, p0=-11) * poly(p2=1, p0=1)), 20)]
    sign_at = polys._sign_at
    proofs = 0

    def counted(*args):
        nonlocal proofs
        proofs += 1
        return sign_at(*args)

    monkeypatch.setattr(polys, "_sign_at", counted)
    got = [start.refined(digits) for start, digits in starts]
    assert proofs == 0
    assert sum(ri.is_exact for ri in got) == 2
    for ri in got:
        assert RootInterval(ri.lo, ri.hi, ri.poly) == ri
    assert proofs > 0


def _one_sign_change_poly(rng: random.Random) -> IntPoly:
    """Random sparse integer polynomial: negative coefficients below a cut
    degree, positive above, so exactly one positive root."""
    cut = rng.randint(1, 30)
    terms = {rng.randint(0, cut - 1): -rng.randint(1, 9) for _ in range(rng.randint(1, 3))}
    terms.update({rng.randint(cut, 40): rng.randint(1, 9) for _ in range(rng.randint(1, 3))})
    return IntPoly.from_terms(terms)


def test_refined_matches_fraction_bisection_with_one_sign_change():
    # lo >= 0, one coefficient sign change and p(lo) != 0: the interval
    # refinement steps run, and must land on the bisection's cell.
    rng = random.Random(23)
    checked = 0
    while checked < 200:
        p = _one_sign_change_poly(rng)
        assert descartes_positive_sign_changes(p) == 1
        lo = F(rng.randint(0, 30), rng.randint(1, 31))
        hi = lo + F(rng.randint(1, 60), rng.randint(1, 29))
        if lo.denominator & (lo.denominator - 1) == 0 and hi.denominator & (hi.denominator - 1) == 0:
            continue  # keep the grid non-dyadic
        try:
            ri = RootInterval(lo, hi, p)
        except ValueError:
            continue  # the root is not in (lo, hi)
        _assert_refines_like_oracle(ri, rng.randint(1, 60))
        checked += 1


def _oracle_starts(rng: random.Random) -> list[tuple[RootInterval, int]]:
    """Seeded (start, digits) for the exact-evaluation oracle: band48
    brackets at levels 0-50 (0-150 digits), 400 and 1000 (0-150), 3000
    (0-40) and 10,000 (0-10), levels 0-4 at 1000 and 3000 digits; sparse
    polynomials with one sign change up to degree 2000, from a refined
    dyadic cell and from a non-dyadic bracket around it; dyadic roots a
    probe can hit exactly; and brackets with lo < 0 around one of several
    roots."""
    starts = []
    for fam in BAND48_FAMILIES:
        starts += [(_band48_start(fam(n)), rng.randint(0, 150)) for n in range(51)]
        starts += [(_band48_start(fam(n)), rng.randint(0, 150)) for n in (400, 400, 1000, 1000)]
        starts += [(_band48_start(fam(3000)), rng.randint(0, 40)), (_band48_start(fam(10_000)), rng.randint(0, 10))]
        starts += [(_band48_start(fam(n)), digits) for n in range(5) for digits in (1000, 3000)]
    for _ in range(100):
        cut = rng.randint(1, 1999)
        terms = {rng.randint(0, cut - 1): -rng.randint(1, 10**6) for _ in range(rng.randint(1, 3))}
        terms.update({rng.randint(cut, 2000): rng.randint(1, 10**6) for _ in range(rng.randint(1, 3))})
        cell = isolate_unique_positive_root(IntPoly.from_terms(terms), rng.randint(0, 3))
        den = 2 * rng.randint(1, 500) + 1
        wider = RootInterval(F(cell.lo * den // 1, den), F(-(-cell.hi * den // 1), den), cell.poly)
        starts += [(cell, rng.randint(0, 40)), (wider, rng.randint(0, 40))]
    for _ in range(30):
        s, deg = rng.randint(1, 40), rng.choice((1, 10, 300, 1000))
        root = F(rng.randint(2 ** s + 1, 2 ** (s + 1) - 1), 2**s)  # in (1, 2)
        p = IntPoly([-root.numerator, root.denominator]) * IntPoly([1] * (deg + 1))
        starts.append((RootInterval(F(1), F(3), p), rng.randint(13, 40)))
    negative = 0
    while negative < 25:
        roots = rng.sample(range(-9, 10), rng.randint(2, 5))
        p = IntPoly([1])
        for r in roots:
            p = p * IntPoly([-r, 1])
        lo = F(rng.randint(-200, -1), rng.randint(1, 21))
        hi = lo + F(rng.randint(1, 300), rng.randint(1, 21))
        # p's roots are simple: it changes sign over (lo, hi] where an odd
        # number of them lie in (lo, hi), hi not one.  Several roots there
        # are wanted (the plain bisection), so the bracket is built unproven.
        if p(hi) == 0 or oracles.count_roots_in(p, lo, hi) % 2 == 0:
            continue
        starts.append((RootInterval._proven(lo, hi, p), rng.randint(0, 40)))
        negative += 1
    return starts


def test_refined_matches_the_exact_evaluation_oracle():
    # Truncated bounds only prove signs: the enclosure is the one the
    # loop with every probe evaluated exactly returns, to the bit.
    rng = random.Random(10_000)
    starts = _oracle_starts(rng)
    assert len(starts) >= 500
    hits = 0
    for start, digits in starts:
        got, want = start.refined(digits), oracles.refined_exact(start, digits)
        assert (got.lo, got.hi) == (want.lo, want.hi), (start, digits)
        hits += got.is_exact
    assert hits >= 10


def test_refined_bisects_past_several_roots():
    def roots(*rs: int) -> IntPoly:
        out = IntPoly([1])
        for r in rs:
            out = out * poly(p1=1, p0=-r)
        return out

    # Three roots in (lo, hi): by three sign changes, or by one sign
    # change and two negative roots right of lo < 0.  Both take the plain
    # bisection step, which keeps the root its own rule picks.  The
    # constructor refuses such brackets, so they are built unproven.
    for p, lo, hi in ((roots(1, 2, 3), F(0), F(10)), (roots(-3, -4, 1), F(-20), F(5, 3))):
        with pytest.raises(ValueError, match=r"^polynomial has more than one root in \(lo, hi\]$"):
            RootInterval(lo, hi, p)
        for digits in (1, 5, 40):
            _assert_refines_like_oracle(RootInterval._proven(lo, hi, p), digits)


def test_refined_evaluation_count(monkeypatch):
    from pwldyn import polys

    calls = 0
    homogeneous = polys._homogeneous

    def counted(*args):
        nonlocal calls
        calls += 1
        return homogeneous(*args)

    monkeypatch.setattr(polys, "_homogeneous", counted)
    for p, digits, limit in ((poly_exact_v(0), 1000, 100), (poly_exact_t(400), 30, 80)):
        calls = 0
        isolate_unique_positive_root(p, digits)
        assert calls <= limit


def _counted(monkeypatch, *names: str) -> dict[str, int]:
    """Calls to the named functions of `polys`, counted from now on."""
    from pwldyn import polys

    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _f=getattr(polys, name), _name=name):
            calls[_name] += 1
            return _f(*args)

        monkeypatch.setattr(polys, name, counted)
    return calls


def _steering(monkeypatch, wrap=None) -> dict[str, int]:
    """Calls to `_probe`, and to `_approximate` by the search apart from the
    two passes inside each probe, counted from now on; `wrap`, where given,
    rewrites the values the search reads and leaves the probes' alone."""
    from pwldyn import polys

    calls = {"_probe": 0, "search": 0}
    probe, approximate = polys._probe, polys._approximate
    proving = False

    def counted_probe(*args):
        nonlocal proving
        calls["_probe"] += 1
        proving = True
        try:
            return probe(*args)
        finally:
            proving = False

    def steering(*args):
        if proving:
            return approximate(*args)
        calls["search"] += 1
        values = approximate(*args)
        return wrap(values) if wrap else values

    monkeypatch.setattr(polys, "_probe", counted_probe)
    monkeypatch.setattr(polys, "_approximate", steering)
    return calls


def test_isolation_proves_its_cell_with_few_exact_signs(monkeypatch):
    # A work count, not a timing.  A root costs at most 4 exact signs (the
    # sign at 1 and the two ends of the predicted cell), never the plain
    # bisection, and search values that grow with log K, K the depth of
    # the bisection's last grid (about the bit length of 1 / width); the
    # bound passes inside a probe are not search values.
    calls = _steering(monkeypatch)
    bisected = _counted(monkeypatch, "_bisected")
    for fam in BAND48_FAMILIES:
        for n in (0, 10, 100, 400, 1000):
            for digits in (5, 30, 150):
                calls["_probe"] = calls["search"] = 0
                ri = isolate_unique_positive_root(fam(n), digits)
                depth = ri.width.denominator.bit_length()
                assert calls["_probe"] <= 4, (fam, n, digits)
                assert bisected["_bisected"] == 0, (fam, n, digits)
                assert calls["search"] <= 2 * depth.bit_length() + 4, (fam, n, digits, calls)


def _one_root_poly(root: F, deg: int) -> IntPoly:
    """(den x - num)(1 + x + ... + x^deg) for root = num / den: root is its
    one positive root, and its coefficients change sign once, as
    -num, den - num (deg times), den."""
    return IntPoly([-root.numerator, root.denominator]) * IntPoly([1] * (deg + 1))


def _grid_depth(width: F, digits: int) -> int:
    """Bisection steps from a bracket of `width` to its last grid (cells
    below 10^-digits)."""
    cell, steps = width, 0
    while cell >= F(1, 10**digits):
        cell, steps = cell / 2, steps + 1
    return steps


def _adversarial_starts() -> list[tuple[RootInterval, int]]:
    """Brackets for predict-then-prove: roots on the last grid and on
    shallower ones (the bisection ends on them exactly), roots within
    2^-(K+8) of a point of the last grid on either side, lo = 0, and
    non-dyadic brackets."""
    starts = []
    for digits in (3, 12, 40):
        for deg in (1, 10, 100):
            for lo, hi in ((F(1), F(3)), (F(1), F(2)), (F(2, 3), F(11, 7))):
                start = lambda root: RootInterval(lo, hi, _one_root_poly(root, deg))
                steps = _grid_depth(hi - lo, digits)
                cell = (hi - lo) / 2**steps
                for j, s in ((5, steps), (3, steps - 2), (1, 1), (2**steps // 3, steps)):
                    point = lo + cell * 2 ** (steps - s) * j  # on the depth-s grid
                    starts.append((start(point), digits))
                    for near in (F(1, 3), F(-1, 5), F(1, 2**20)):
                        starts.append((start(point + cell * near / 2**8), digits))
    for digits in (5, 30):
        for root in (F(1, 7), F(1, 2), F(3, 4) + F(1, 10**40), F(999, 1000)):
            # isolate's bracket [0, 1] for a root below 1
            starts.append((RootInterval(F(0), F(1), _one_root_poly(root, 12)), digits))
    return starts


def test_predicted_cells_on_and_near_grid_points(monkeypatch):
    # Exact hits, near misses, lo = 0 and non-dyadic grids: the enclosure
    # is the one plain bisection returns, and no prediction falls back.
    calls = _counted(monkeypatch, "_bisected")
    starts = _adversarial_starts()
    assert len(starts) >= 400
    hits = 0
    for start, digits in starts:
        got = start.refined(digits)
        assert _bisection_cell(start, digits, got), (start, digits)
        if start.poly.degree <= 11 or digits == 3:
            assert (got.lo, got.hi) == _fraction_bisection(start, digits), (start, digits)
        hits += got.is_exact
    assert hits >= 80
    assert calls["_bisected"] == 0


def test_level_ten_thousand_cell_at_ten_digits():
    for fam in BAND48_FAMILIES:
        start = _band48_start(fam(10_000))
        assert _bisection_cell(start, 10, start.refined(10))
    start = _band48_start(poly_exact_t(10_000))
    assert start.refined(10) == oracles.refined_exact(start, 10)


def test_flipped_approximation_still_returns_the_bisection_cell(monkeypatch):
    # A mutation of the steering alone: the search reads the values of -p
    # and steers wrong, the probes' own passes stay right, the proof
    # refuses the search's answer, and the plain bisection gives the cell.
    _steering(monkeypatch, lambda v: (v[1], v[0], v[3], v[2], v[5], v[4]))
    calls = _counted(monkeypatch, "_bisected")
    starts = [(_band48_start(fam(n)), digits) for fam in BAND48_FAMILIES for n in (0, 3, 40) for digits in (5, 20)]
    starts += [(start, digits) for start, digits in _adversarial_starts()[::7] if start.poly.degree <= 11]
    for start, digits in starts:
        before = calls["_bisected"]
        got = start.refined(digits)
        assert (got.lo, got.hi) == _fraction_bisection(start, digits), (start, digits)
        assert calls["_bisected"] == before + 1, (start, digits)


def test_deep_isolation_builds_few_exact_integers(monkeypatch):
    # A work count, not a timing: the level-3000 T root to 23 digits is
    # proven from the bound passes, and the exact kernel runs only where
    # the integer it builds is short.
    from pwldyn import polys

    p = poly_exact_t(3000)
    bracket_end = _homogeneous(p.terms, 1, coefficient_bound(p), 0).bit_length()
    lengths = []

    def counted(*args):
        value = _homogeneous(*args)
        lengths.append(value.bit_length())
        return value

    monkeypatch.setattr(polys, "_homogeneous", counted)
    ri = isolate_unique_positive_root(p, 23)
    assert ri.width < F(1, 10**23)
    assert 0 < len(lengths) <= 6
    assert max(lengths) <= bracket_end


def test_sign_at_one_is_exact_above_the_cutover(monkeypatch):
    # A work count: at x = 1 the exact integer is the sum of the
    # coefficients, so the first sign of the level-3333 T root's isolation
    # (degree 10,006, above the cutover's 10,000) takes no bound pass.
    core = poly_exact_t(3333).strip_power_factor()[0].normalized_sign()
    assert core.degree > 10_000
    calls = _counted(monkeypatch, "_approximate", "_homogeneous")
    assert _sign_at(core, F(1)) == _sign(core, F(1))
    assert calls == {"_approximate": 0, "_homogeneous": 1}


def _kernel_cases(rng: random.Random, count: int):
    """Seeded (terms, d, m, k): sparse polynomials up to degree 30,000 with
    coefficients up to 10^6 of either sign, an odd d (1 in a third of the
    cases, a 20th power of up to 133 bits in some others below degree
    30,000), at m = 0 or m up to 2^64 and k = 0 or up to 60."""
    for case in range(count):
        deg = 30_000 if case % 40 == 0 else rng.choice((1, 2, 7, 30, 300, 3000))
        terms = {deg: rng.choice((-1, 1)) * rng.randint(1, 10**6)}
        for _ in range(rng.randint(0, 5)):
            terms[rng.randint(0, deg)] = rng.randint(-(10**6), 10**6)
        d = 1 if case % 3 == 0 else 2 * rng.randint(1, 49) + 1
        if case % 11 == 5 and deg < 30_000:
            d **= 20
        m = 0 if case % 10 == 1 else rng.randint(1, 1 << rng.randint(1, 64))
        k = 0 if case % 7 == 2 else rng.randint(1, 60)
        yield IntPoly.from_terms(terms).terms, d, m, k


def _pass_case(terms, d: int, m: int, k: int, bits: int) -> tuple:
    """A kernel case at `bits` with the exact P, N, P1, N1, P2, N2 at x =
    m / (d 2^k), times (d 2^k)^deg, and the scale the passes' values times
    2^-bits are to be multiplied by to give those: (d 2^k)^deg, or m^deg
    where x > 2 and the passes run on 1/x."""
    deg, exact = terms[-1][0], [0] * 6
    for p, c in terms:
        value = abs(c) * m**p * d ** (deg - p) << k * (deg - p)
        for i, weight in enumerate((1, p, p * p)):
            exact[2 * i + (c < 0)] += weight * value
    assert exact[0] - exact[1] == _homogeneous(terms, d, m, k)
    scale = m**deg if m > 2 * (d << k) else (d << k) ** deg
    return terms, d, m, k, bits, exact, scale


def _bounds_miss(kernel, cases) -> int:
    """Cases where the passes of `kernel` rounded down and up, at `bits`,
    `bits` + 32 or 2 `bits` + 200, times the case's scale, do not hold
    2^bits times each of its exact values, or where the total width of
    those six enclosures grows with the bits."""
    misses = 0
    for terms, d, m, k, bits, exact, scale in cases:
        widths = []
        for b in (bits, bits + 32, 2 * bits + 200):
            lows, highs = kernel(terms, d, m, k, b), kernel(terms, d, m, k, b, True)
            misses += not all(lo * scale <= v << b <= hi * scale for lo, hi, v in zip(lows, highs, exact))
            widths.append((sum(highs) - sum(lows), b))  # the width is scale * w / 2^b
        misses += any(w << b2 - b < w2 for (w, b), (w2, b2) in zip(widths, widths[1:]))
    return misses


def test_bounded_kernel_encloses_the_exact_value(monkeypatch):
    from pwldyn import polys

    rng = random.Random(30_000)
    cases = [_pass_case(terms, d, m, k, rng.randint(8, 64)) for terms, d, m, k in _kernel_cases(rng, 400)]
    assert sum(m > 2 * (d << k) for _, d, m, k, *_ in cases) >= 100  # the reciprocal branch
    assert _bounds_miss(_approximate, cases) == 0
    # A kernel whose up pass rounds down must miss some case.
    approximate = polys._approximate
    monkeypatch.setattr(polys, "_approximate", lambda terms, d, m, k, bits, up=False: approximate(terms, d, m, k, bits))
    assert _bounds_miss(polys._approximate, cases) > 0


def test_sign_at_matches_fraction_evaluation():
    # sparse polynomials up to degree 1210 at x = m / (odd * 2^t), in
    # [-3, 3] and in [0, 10^6] (above 2 the bound passes run on 1/x);
    # every fifth one gets x as a root
    rng = random.Random(1210)
    for lo, hi in ((-3, 3), (0, 10**6)):
        for case in range(200):
            deg = rng.randint(1, 1210)
            terms = {deg: rng.choice((-1, 1)) * rng.randint(1, 10**6)}
            for _ in range(rng.randint(0, 6)):
                terms[rng.randint(0, deg - 1)] = rng.randint(-(10**6), 10**6)
            p = IntPoly.from_terms(terms)
            d = (2 * rng.randint(0, 500) + 1) << rng.randint(0, 40)
            x = F(rng.randint(lo * d, hi * d), d)
            if case % 5 == 0:
                p = p * IntPoly([-x.numerator, x.denominator])
            value = sum((c * x**k for k, c in enumerate(p.coeffs) if c), F(0))
            assert _sign_at(p, x) == (value > 0) - (value < 0), (case, x)


def test_large_x_signs_stay_short(monkeypatch):
    # A work count, not a timing: at x in [10^5, 10^6] the bound passes
    # run on 1/x, so the signs of x^3000 - 7 x^1500 - 3 need no exact
    # integer, and no P or N of the passes is longer than the bits plus
    # the coefficients' bits plus 8 (forming x^3000 takes about 57,000).
    from pwldyn import polys

    p = poly(p3000=1, p1500=-7, p0=-3)
    coefficient_bits = max(abs(c) for _, c in p.terms).bit_length()
    rng = random.Random(3000)
    approximate, excess = polys._approximate, []

    def measured(terms, d, m, k, bits, up=False):
        values = approximate(terms, d, m, k, bits, up)
        excess.append(max(v.bit_length() for v in values[:2]) - bits - coefficient_bits)
        return values

    monkeypatch.setattr(polys, "_approximate", measured)
    calls = _counted(monkeypatch, "_homogeneous")
    for _ in range(20):
        q = (2 * rng.randint(0, 500) + 1) << rng.randint(0, 40)
        x = F(rng.randint(10**5 * q, 10**6 * q), q)
        assert _sign_at(p, x) == _sign(p, x) == 1, x
    assert calls["_homogeneous"] == 0
    assert len(excess) == 40 and max(excess) <= 8


def _mp(mpmath, x: F):
    return mpmath.mpf(x.numerator) / x.denominator


def _compare_roots_pool(mpmath, rng: random.Random) -> list[list[tuple[RootInterval, object]]]:
    """Groups of (enclosure, 200-digit mpmath value of its root).

    Each group holds roots chosen to be equal, to touch an enclosure end or
    to lie closer than the enclosures' widths.
    """

    def value(p: IntPoly, ri: RootInterval):
        f = lambda x: mpmath.polyval(list(reversed(p.coeffs)), x)
        return mpmath.findroot(f, (_mp(mpmath, ri.lo), _mp(mpmath, ri.hi)), solver="illinois", maxsteps=2000)

    groups = []
    # band48 family roots at random levels, each also held by p times a
    # factor without larger positive roots (one root, two polynomials).
    extra = (poly(p1=1, p0=3), poly(p2=1, p0=1), poly(p1=5, p0=-4), poly(p2=1, p1=-1))
    for _ in range(40):
        fam = rng.choice(BAND48_FAMILIES)
        p = fam(rng.randrange(0, 25))
        ri = isolate_unique_positive_root(p, rng.randrange(0, 8))
        root = value(p, ri)
        q = p * rng.choice(extra)
        shared = largest_positive_root(q, rng.randrange(0, 8))
        assert shared.poly != ri.poly
        groups.append([(ri, root), (shared, root)])
    # Roots about 10^-k apart, k = 40..99: the enclosures separate only past k digits.
    for _ in range(30):
        c, k, s = rng.choice((2, 3, 5, 7)), rng.randrange(40, 100), rng.choice((1, -1))
        near = IntPoly([-(c * 10**k + s), 0, 10**k])
        groups.append([
            (isolate_unique_positive_root(poly(p2=1, p0=-c), rng.randrange(0, 6)), mpmath.sqrt(c)),
            (isolate_unique_positive_root(near, rng.randrange(0, 6)), mpmath.sqrt(c + mpmath.mpf(s) / 10**k)),
        ])
    # Exact rational roots at both ends of an enclosure of sqrt(c): lo = r
    # is also a root of the enclosure's polynomial (a smaller one).
    def exact(x: F, other: IntPoly = IntPoly([1])) -> tuple[RootInterval, object]:
        return RootInterval(x, x, IntPoly([-x.numerator, x.denominator]) * other), _mp(mpmath, x)

    for _ in range(30):
        c, j = rng.choice((2, 3, 5, 7, 11)), rng.randrange(0, 12)
        r, r2 = (F(isqrt(c * 100**j) + i, 10**j) for i in (0, 1))  # r < sqrt(c) < r2
        square = poly(p2=1, p0=-c)
        groups.append([
            exact(r),
            exact(r, poly(p1=1, p0=1)),
            exact(r2),
            (RootInterval(r, r2, exact(r)[0].poly * square), mpmath.sqrt(c)),
            (RootInterval(r, r2, square), mpmath.sqrt(c)),
        ])
    return groups


def test_compare_roots_matches_200_digit_oracle():
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(20_17)
    with mpmath.workdps(220):
        groups = _compare_roots_pool(mpmath, rng)
        flat = [item for group in groups for item in group]
        pairs = [(a, b) for group in groups for a in group for b in group]
        pairs += [(rng.choice(flat), rng.choice(flat)) for _ in range(300)]
        assert len(pairs) >= 500
        signs = set()
        for (a, ra), (b, rb) in pairs:
            for ri, root in ((a, ra), (b, rb)):  # the oracle found the enclosed root
                assert _mp(mpmath, ri.lo) <= root <= _mp(mpmath, ri.hi)
            diff = ra - rb
            want = 0 if abs(diff) < mpmath.mpf(10) ** -150 else (1 if diff > 0 else -1)
            assert compare_roots(a, b) == want
            assert compare_roots(b, a) == -want
            signs.add(want)
        assert signs == {-1, 0, 1}
