import random
from fractions import Fraction as F

import pytest

from pwldyn.band48 import poly_exact_t, poly_exact_v, poly_lower, poly_upper_s, poly_upper_u
from pwldyn.polys import (
    IntPoly,
    LaurentPoly,
    RootInterval,
    count_roots_in,
    descartes_positive_sign_changes,
    isolate_unique_positive_root,
    largest_positive_root,
    laurent_poly_det,
    _sign_at,
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
        descartes_positive_sign_changes(IntPoly.zero())


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


def test_sturm_counting_and_largest_root():
    p = poly(p2=1, p0=-2) * poly(p1=1, p0=-3)  # roots +-sqrt(2), 3
    assert count_roots_in(p, F(0), F(10)) == 2
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


def test_laurent_det_examples():
    a = LaurentPoly({-3: 1, -7: 1})
    assert laurent_poly_det([[a]]) == a

    cleared = (a - LaurentPoly.constant(1)).shifted(7).to_int_poly()
    assert cleared.normalized_sign() == X7_X4_1

    one = LaurentPoly.constant(1)
    zero_det = laurent_poly_det(
        [[one - one, LaurentPoly()], [LaurentPoly(), one - one]]
    )
    assert zero_det.is_zero()

    with pytest.raises(ValueError):
        laurent_poly_det([[one, one]])


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
    assert X7_X4_1.to_json() == ["-1", "0", "0", "0", "-1", "0", "0", "1"]


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
    v = sum(c * n**i * d ** (deg - i) for i, c in enumerate(p.coeffs) if c)
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


def test_refined_bisects_past_several_roots():
    def roots(*rs: int) -> IntPoly:
        out = IntPoly([1])
        for r in rs:
            out = out * poly(p1=1, p0=-r)
        return out

    # Three roots in (lo, hi): by three sign changes, or by one sign
    # change and two negative roots right of lo < 0.  Both take the plain
    # bisection step, which keeps the root its own rule picks.
    for p, lo, hi in ((roots(1, 2, 3), F(0), F(10)), (roots(-3, -4, 1), F(-20), F(5, 3))):
        for digits in (1, 5, 40):
            _assert_refines_like_oracle(RootInterval(lo, hi, p), digits)


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


def test_sign_at_matches_fraction_evaluation():
    # sparse polynomials up to degree 1210 at x = m / (odd * 2^t); every
    # fifth one gets x as a root
    rng = random.Random(1210)
    for case in range(200):
        deg = rng.randint(1, 1210)
        terms = {deg: rng.choice((-1, 1)) * rng.randint(1, 10**6)}
        for _ in range(rng.randint(0, 6)):
            terms[rng.randint(0, deg - 1)] = rng.randint(-(10**6), 10**6)
        p = IntPoly.from_terms(terms)
        d = (2 * rng.randint(0, 500) + 1) << rng.randint(0, 40)
        x = F(rng.randint(-3 * d, 3 * d), d)
        if case % 5 == 0:
            p = p * IntPoly([-x.numerator, x.denominator])
        value = sum((c * x**k for k, c in enumerate(p.coeffs) if c), F(0))
        assert _sign_at(p, x) == (value > 0) - (value < 0), (case, x)
