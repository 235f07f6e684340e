import random
import re
import tracemalloc
from fractions import Fraction as F

import pytest

import oracles
from oracles import x_orbit_point
from pwldyn import band48, markov
from pwldyn.band48 import (
    LevelClass,
    breakpoints,
    classify,
    continuity_level_bound,
    cross_check_entropy,
    entropy_or_bounds,
    level_left_end,
    level_polynomials,
    poly_exact_t,
    poly_exact_v,
    poly_lower,
    poly_upper_s,
    poly_upper_u,
    roots_strictly_decreasing,
    table_rows,
    upper_root_below,
    verify_root_ordering,
)
from pwldyn.markov import spectral_radius
from pwldyn.polys import IntPoly, RootInterval, isolate_unique_positive_root
from pwldyn.rationals import format_decimal, ln_enclosure


def poly(**terms) -> IntPoly:
    return IntPoly.from_terms({int(k[1:]): v for k, v in terms.items()})


def test_breakpoints_first_levels():
    assert breakpoints(0) == (F(20, 3), F(11, 2), F(21, 4), F(14, 3))
    p1, q1, r1, s1 = breakpoints(1)
    assert (p1, s1, r1, q1) == (F(84, 11), F(34, 5), F(85, 12), F(43, 6))
    p2, q2, r2, s2 = breakpoints(2)
    assert (s2, r2, q2, p2) == (F(682, 89), F(31, 4), F(171, 22), F(340, 43))
    assert level_left_end(0) == 4


def test_breakpoint_ordering_to_level_50():
    for n in range(51):
        p, q, r, s = breakpoints(n)
        assert level_left_end(n) < s < r < q < p < 8


def test_classify_examples():
    assert str(classify(5)) == "T0"
    assert str(classify(6)) == "V0"
    assert str(classify(F(9, 2))) == "S0"
    # closed/open endpoints
    assert str(classify(F(14, 3))) == "T0"
    assert str(classify(F(21, 4))) == "T0"
    assert str(classify(F(11, 2))) == "V0"
    assert str(classify(F(20, 3))) == "V0"
    with pytest.raises(ValueError):
        classify(4)
    with pytest.raises(ValueError):
        classify(8)


def _holds(lc: LevelClass, b: F) -> bool:
    lo, hi, lo_closed, hi_closed = lc.interval()
    return (lo < b or lo_closed and lo == b) and (b < hi or hi_closed and b == hi)


def test_classify_matches_level_walk():
    # Every closed class end of levels 0-60 (s and r close T, q and p close
    # V) and its neighbours 10^-30 away, seeded b in levels 0-60 and
    # 61-400, and seeded b of small denominator: the class is the walk's,
    # and b lies in its `LevelClass.interval()`.
    levels = [breakpoints(n) for n in range(401)]

    def walk(b: F) -> LevelClass:
        """Level by level: the first n with b <= p_n, then the class tests."""
        n = 0
        while b > levels[n][0]:
            n += 1
        p, q, r, s = levels[n]
        return LevelClass(n, "S" if b < s else "T" if b <= r else "U" if b < q else "V")

    eps = F(1, 10**30)
    cases = [x + d for bps in levels[:61] for x in bps for d in (-eps, 0, eps)]
    rng = random.Random(17)
    for _ in range(20_000):
        n = rng.randint(0, 60)
        lo, hi = level_left_end(n), levels[n][0]
        cases.append(lo + (hi - lo) * F(rng.randint(1, 10**6 - 1), 10**6))
    for _ in range(300):
        n, den = rng.randint(61, 400), rng.randint(1, 10**4)
        lo, hi = level_left_end(n), levels[n][0]
        cases += [lo + (hi - lo) * F(rng.randint(1, 10**9 - 1), 10**9), F(rng.randint(4 * den + 1, 8 * den - 1), den)]
    for b in cases:
        if 4 < b < 8:
            assert classify(b) == walk(b)
            assert _holds(classify(b), b)


def test_level_polynomials():
    assert level_polynomials(LevelClass(0, "T")) == (poly(p7=1, p4=-1, p0=-2),)
    assert level_polynomials(LevelClass(0, "V")) == (poly(p10=1, p7=-1, p3=-1, p0=-1),)
    assert level_polynomials(LevelClass(1, "S")) == (
        poly(p10=1, p7=-1, p0=-1),
        poly(p10=1, p7=-1, p3=-1, p0=-2),
    )


def test_negative_levels_and_unknown_letters_are_refused():
    # a family built a polynomial for n < 0 (poly_upper_s(-1) was
    # x^4 - x^3 - x - 2), upper_root_below(-3, ...) failed with a TypeError
    # inside the sign kernel, and an unknown letter raised KeyError
    for fam in (poly_lower, poly_upper_s, poly_exact_t, poly_upper_u, poly_exact_v):
        for n in (-1, -5):
            with pytest.raises(ValueError, match=f"^n must be >= 0, got {n}$"):
                fam(n)
        assert fam(0).degree in (7, 10)
    with pytest.raises(ValueError, match="^n must be >= 0, got -3$"):
        upper_root_below(-3, F(1, 10))
    for lc in (LevelClass(0, "X"), LevelClass(2, "s")):
        for read in (LevelClass.interval, level_polynomials):
            with pytest.raises(ValueError, match=f"^class letter must be S, T, U or V, got {lc.letter!r}$"):
                read(lc)


def test_entropy_examples():
    res = entropy_or_bounds(5)
    assert res.kind == "exact"
    assert res.decimal(5) == "0.20844"

    res = entropy_or_bounds(F(43, 6))
    assert res.kind == "exact"
    assert str(res.level) == "V1"
    assert res.decimal(5) == "0.15051"

    res = entropy_or_bounds(F(9, 2))
    assert res.kind == "bounds"
    assert res.decimal(5) == "[0.14717, 0.28888]"


def test_decimal_refines_a_bracket_on_a_rounding_boundary():
    # ln root(x^13 - x^10 - x^3 - 1) = 0.1505...9512225000122...: the
    # 63-digit bracket straddles ...95122|5, so decimal() must refine it.
    res = entropy_or_bounds(F(977, 132), 63)
    lo, hi = res.ln_lo
    assert format_decimal(lo, 63) != format_decimal(hi, 63)
    assert res.decimal(63) == "0.150507039588169513887448472673565893859728027605332147493951223"


def test_decimal_refuses_negative_places():
    with pytest.raises(ValueError, match=r"places must be >= 0, got -1"):
        entropy_or_bounds(5, 5).decimal(-1)


def test_x_orbit_point():
    assert x_orbit_point(F(7), 0) == 7 - 10
    for n in range(5):
        assert x_orbit_point(8, n) == -2
    b = F(20, 3)
    assert x_orbit_point(b, 0) == -b / 2  # lands on the first marked abscissa

    # closed form equals the recurrence x -> 4x + b - 2
    rng = random.Random(10)
    for _ in range(50):
        b = 4 + 4 * F(rng.randint(1, 9999), 10000)
        x = b - 10
        for n in range(6):
            assert x_orbit_point(b, n) == x
            x = 4 * x + b - 2


def test_class_change_values_land_on_marked_abscissas():
    # at b = p_n, q_n, r_n, s_n the n-th orbit point hits the four marks
    for n in range(4):
        p, q, r, s = breakpoints(n)
        assert x_orbit_point(p, n) == -p / 2
        assert x_orbit_point(q, n) == 1 - q
        assert x_orbit_point(r, n) == (1 - 2 * r) / 2
        assert x_orbit_point(s, n) == (2 - 5 * s) / 4


def test_root_orderings():
    assert verify_root_ordering(0)
    # spot-check the documented level-0 values
    vals = {
        poly_lower(0): "1.15855",
        poly_exact_v(0): "1.20443",
        poly_exact_t(0): "1.23175",
        poly_upper_u(0): "1.25898",
        poly_upper_s(0): "1.33493",
    }
    from pwldyn.rationals import format_decimal

    for p, text in vals.items():
        ri = isolate_unique_positive_root(p, 8)
        assert format_decimal(ri.lo, 5) == format_decimal(ri.hi, 5) == text
    assert verify_root_ordering(2)


def test_g_function_ordering_random_lambda():
    # (lx^3+c)/denominators ordering of the five comparison curves on (1, 4]
    rng = random.Random(31)
    for _ in range(100):
        lam = 1 + F(rng.randint(1, 30000), 10000)
        l3, l4, l7 = lam**3, lam**4, lam**7
        g_lower = 1 / (l4 * (l3 - 1))
        g_v = (l3 + 1) / (l7 * (l3 - 1))
        g_t = 2 / (l4 * (l3 - 1))
        g_u = (2 * l3 + 1) / (l7 * (l3 - 1))
        g_s = (l3 + 2) / (l4 * (l3 - 1))
        assert g_lower < g_v < g_t < g_u < g_s


def test_monotone_decrease_small_levels():
    assert roots_strictly_decreasing(6)


def test_continuity_level_bound():
    assert continuity_level_bound(1) == 0  # the comparison value is below 1 there
    n = continuity_level_bound(F(1, 10))
    assert upper_root_below(n, F(1, 10))
    assert upper_root_below(n + 5, F(1, 10))
    assert n > 0
    with pytest.raises(ValueError):
        continuity_level_bound(0)


def test_upper_root_below_reads_the_sign_of_the_value():
    # The sign read by `_sign_at` against the Fraction value of the
    # polynomial at 1 + eps: at criterion 6's levels n and n + 5, at n - 1
    # and at level 0 (where the root is above 1 + eps), and at n for
    # eps = 1/10^4 (n = 30,702, degree 92,113).
    cases = []
    for eps in (F(1, 10), F(1, 100), F(1, 1000)):
        n = continuity_level_bound(eps)
        cases += [(level, eps) for level in (0, n - 1, n, n + 5)]
    cases.append((continuity_level_bound(F(1, 10**4)), F(1, 10**4)))
    assert cases[-1][0] == 30_702
    answers = set()
    for level, eps in cases:
        want = poly_upper_s(level)(1 + eps) > 0
        assert upper_root_below(level, eps) == want, (level, eps)
        answers.add(want)
    assert answers == {False, True}


def _mpmath_entropy(mpmath, lc: LevelClass, places: int) -> str:
    """The entropy of class lc, or its bounds, to `places` decimals, from
    60-digit mpmath roots of the class polynomials."""
    n, want = lc.n, []
    with mpmath.workdps(60):
        for p in level_polynomials(lc):
            f = lambda x: mpmath.fsum(c * x**k for k, c in p.terms)
            df = lambda x: mpmath.fsum(c * k * x ** (k - 1) for k, c in p.terms)
            # f is convex right of 1 and positive at x0: Newton
            # descends monotonically to the one root above 1.
            x0 = 1 + mpmath.log(n) / n
            root = mpmath.findroot(f, x0, solver="newton", df=df, maxsteps=500)
            assert 1 < root < x0
            want.append(format_decimal(F(mpmath.nstr(mpmath.log(root), 40)), places))
    return want[0] if len(want) == 1 else f"[{want[0]}, {want[1]}]"


def test_deep_entropy_decimal_matches_mpmath_roots():
    mpmath = pytest.importorskip("mpmath")
    places = 12
    for n in (1000, 3000, 10_000):
        for letter in "STUV":
            lo, hi, _, _ = LevelClass(n, letter).interval()
            b = (lo + hi) / 2
            assert classify(b) == (n, letter)
            got = entropy_or_bounds(b, places).decimal(places)
            assert got == _mpmath_entropy(mpmath, LevelClass(n, letter), places), (n, letter)


def test_level_one_million_entropy_matches_mpmath():
    # b = 8 - 20/4^(n+1) lies in T_n (T_n is about [8 - 22.5/4^(n+1),
    # 8 - 16.5/4^(n+1)]); b has 2,000,006 bits.
    mpmath = pytest.importorskip("mpmath")
    n = 10**6
    pw = 4 ** (n + 1)
    b = F(8 * pw - 20, pw)
    res = entropy_or_bounds(b, 10)
    assert res.level == (n, "T")
    assert res.decimal(10) == _mpmath_entropy(mpmath, res.level, 10) == "0.0000040073"


# The continuity levels of paper result 1 at eps = 1/10^5 and 1/10^6, with
# the S-upper polynomial's value at 1 + eps at that level and one below
# (60-digit mpmath values).
_DEEP_CONTINUITY = ((F(1, 10**5), 383_765, 2.0911e-5, -6.9088e-5),
                    (F(1, 10**6), 4_605_172, 7.6029e-6, -1.3972e-6))


def test_continuity_at_depth():
    for eps, n, _, _ in _DEEP_CONTINUITY:
        assert continuity_level_bound(eps) == n
        assert upper_root_below(n, eps)
        assert not upper_root_below(n - 1, eps)


def test_continuity_at_depth_matches_mpmath_values():
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(60):
        for eps, n, at_n, below in _DEEP_CONTINUITY:
            x = 1 + mpmath.mpf(eps.numerator) / eps.denominator
            for level, value in ((n, at_n), (n - 1, below)):
                got = x ** (7 + 3 * level) - x ** (4 + 3 * level) - x**3 - 2
                assert abs(got - value) < 1e-4 * abs(value)
                assert upper_root_below(level, eps) == (got > 0)


def test_continuity_at_one_millionth_stays_small():
    # A memory guard: the level bound, the degree-13.8M polynomial and its
    # signs at n and n - 1 together allocate under 1 MB.
    eps = F(1, 10**6)
    tracemalloc.start()
    try:
        n = continuity_level_bound(eps)
        assert upper_root_below(n, eps) and not upper_root_below(n - 1, eps)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def _continuity_level_loop(eps):
    """The earlier `continuity_level_bound`: multiply x^3 up past g."""
    x = 1 + eps
    g = (x**3 + 2) / (x**4 * (x**3 - 1))
    n, cur = 0, F(1)
    while cur <= g:
        cur *= x**3
        n += 1
    return n


def test_continuity_level_bound_matches_the_power_loop():
    for eps in (1, F(1, 3), F(1, 10), F(1, 100), F(1, 1000), F(7, 9999)):
        assert continuity_level_bound(eps) == _continuity_level_loop(F(eps))
    # the loop takes about half a minute at this eps; check x^(3(n-1)) < g < x^(3n) exactly
    n = continuity_level_bound(F(1, 10**4))
    assert n == 30702
    x = 1 + F(1, 10**4)
    g = (x**3 + 2) / (x**4 * (x**3 - 1))
    a, b = x.numerator, x.denominator
    u, v = a ** (3 * n - 3), b ** (3 * n - 3)
    assert u * g.denominator < g.numerator * v  # x^(3(n-1)) < g
    assert g.numerator * v * b**3 < u * a**3 * g.denominator  # g < x^(3n)


def test_continuity_level_bound_refines_a_bracket_too_wide_to_decide(monkeypatch):
    calls = []

    def coarse_first(x, y, err):
        assert x == y
        lo, hi = ln_enclosure(x, y, err)
        calls.append(x)
        return (lo - 1, hi + 1) if len(calls) <= 2 else (lo, hi)

    monkeypatch.setattr(band48, "ln_enclosure", coarse_first)
    assert continuity_level_bound(F(1, 100)) == _continuity_level_loop(F(1, 100))
    assert len(calls) == 4


def test_table_rows_structure():
    rows = table_rows()
    assert len(rows) == 12
    assert rows[0] == {
        "set": "S0",
        "interval": "(4, 14/3)",
        "entropy": "[0.14717, 0.28888]",
    }
    assert rows[1]["entropy"] == "0.20844"
    assert rows[7] == {"set": "V1", "interval": "[43/6, 84/11]", "entropy": "0.15051"}


def test_table_rows_match_the_wider_computation():
    # Rows were once computed at places + 2 digits; `decimal` refines where it needs.
    for levels, places in [(3, p) for p in (0, 1, 2, 3, 5, 8, 12, 20)] + [(6, 5)]:
        want = []
        for n in range(levels):
            for letter in "STUV":
                lo, hi, _, _ = LevelClass(n, letter).interval()
                want.append(entropy_or_bounds((lo + hi) / 2, places + 2).decimal(places))
        assert [row["entropy"] for row in table_rows(levels, places)] == want, (levels, places)


def test_cross_check_representatives():
    for n in range(3):
        for letter in "STUV":
            lo, hi, _, _ = LevelClass(n, letter).interval()
            assert cross_check_entropy((lo + hi) / 2)


def test_cross_check_level_100():
    # digraphs of about 300 nodes around one long cycle
    for letter in "STUV":
        lo, hi, _, _ = LevelClass(100, letter).interval()
        assert cross_check_entropy((lo + hi) / 2) is oracles.cross_check_entropy((lo + hi) / 2) is True


def _outcome(check, *args):
    try:
        return check(*args)
    except (AssertionError, ValueError) as e:
        return type(e), str(e)


def test_cross_check_matches_earlier_definition():
    rng = random.Random(24)
    cases = []
    for n in range(6):
        for letter in "TV":
            lo, hi, _, _ = LevelClass(n, letter).interval()
            cases += [(lo, 7), (hi, 7)]
    for _ in range(400):
        lo, hi, lo_closed, hi_closed = LevelClass(rng.randrange(6), rng.choice("STUV")).interval()
        den = rng.randint(2, 1000)
        k = rng.randint(0 if lo_closed else 1, den if hi_closed else den - 1)
        cases.append((lo + (hi - lo) * F(k, den), rng.choice((0, 3, 7))))
    for b, digits in cases:
        got = _outcome(cross_check_entropy, b)
        assert got == _outcome(oracles.cross_check_entropy, b, digits) is True, (b, digits)


def test_cross_check_refutes_a_wrong_polynomial(monkeypatch):
    # (x + 1) * p has the root of p and the same sign pattern above 0, so
    # the radius proof still passes and only the polynomial differs
    char_poly = markov._char_poly
    monkeypatch.setattr(markov, "_char_poly", lambda *args: IntPoly([1, 1]) * char_poly(*args))
    for b in (5, F(6), F(27, 4)):
        assert cross_check_entropy(b) is oracles.cross_check_entropy(b) is False


def test_cross_check_raises_on_a_wrong_enclosure(monkeypatch):
    largest = markov.largest_positive_root

    def shifted(p, digits):
        r = largest(p, digits)
        return RootInterval._proven(r.lo + 1, r.hi + 1, r.poly)

    monkeypatch.setattr(markov, "largest_positive_root", shifted)
    for b in (5, F(6)):
        for check in (cross_check_entropy, oracles.cross_check_entropy):
            with pytest.raises(AssertionError, match="exact radius check failed"):
                check(b)


def test_cross_check_builds_no_entropy_and_one_radius_per_pair(monkeypatch):
    def forbidden(*args):
        raise AssertionError("entropy bracket built by the cross-check")

    for name in ("entropy_or_bounds", "ln_enclosure"):
        monkeypatch.setattr(band48, name, forbidden)
    calls = []

    def counted(dg, digits):
        calls.append(dg)
        return spectral_radius(dg, digits)

    monkeypatch.setattr(band48, "spectral_radius", counted)
    assert cross_check_entropy(5)
    for letter, radii in zip("STUV", (2, 1, 2, 1)):
        lo, hi, _, _ = LevelClass(1, letter).interval()
        calls.clear()
        assert cross_check_entropy((lo + hi) / 2)
        assert len(calls) == radii


def test_cross_check_refusals_match_earlier_definition():
    for b in (3, 4, 8):
        with pytest.raises(ValueError) as expected:
            oracles.cross_check_entropy(b)
        with pytest.raises(ValueError, match=re.escape(str(expected.value))):
            cross_check_entropy(b)
