import math
import random
import sys
from fractions import Fraction as F
from math import gcd

import pytest

import oracles
from pwldyn.rationals import (
    common_decimal_prefix,
    decimal_above,
    decimal_digits,
    first_digit_place,
    format_decimal,
    ln_enclosure,
    parse_rational,
    rational_str,
)


def test_parse_rational():
    assert parse_rational("-888/1087") == F(-888, 1087)
    assert parse_rational("5") == F(5)
    assert parse_rational("0.69") == F(69, 100)
    assert parse_rational(" -0.815 ") == F(-163, 200)
    for bad in ("", "3/0", "abc", "1/x"):
        with pytest.raises(ValueError, match=repr(bad)):
            parse_rational(bad)


def test_rational_str_roundtrip():
    for q in (F(-888, 1087), F(3), F(0), F(7, 8)):
        assert parse_rational(rational_str(q)) == q


def test_parse_rational_reads_rational_str_past_the_int_str_limit():
    rng = random.Random(4300)
    digits = [1, 599, 600, 601, 1200, 4300, 4301, 9000, 10**5]
    qs = []
    for n, m in [(n, rng.choice(digits[:-1])) for n in digits] + [(600, 10**5)]:
        num = rng.randrange(10 ** (n - 1), 10**n) * rng.choice((1, -1))
        qs.append(F(num, rng.randrange(10 ** (m - 1), 10**m)))
    texts = [rational_str(q) for q in qs]
    decimals = [f"{t.split('/')[0]}.{'0' * 5}{rng.randrange(10**700)}e-{rng.randrange(4)}" for t in texts]
    got = [parse_rational(t) for t in texts + decimals]
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        want = [F(*map(int, t.split("/"))) for t in texts] + [F(t) for t in decimals]
    finally:
        sys.set_int_max_str_digits(old)
    assert got[: len(qs)] == qs
    assert got == want


def test_decimal_digits_truncates_toward_zero():
    assert decimal_digits(F(1, 3), 5) == "0.33333"
    assert decimal_digits(F(-1, 3), 5) == "-0.33333"
    assert decimal_digits(F(22, 7), 3) == "3.142"
    assert decimal_digits(F(5), 0) == "5"


def _long_division_digits(q, ndigits):
    """`decimal_digits` one digit at a time, as it was first written."""
    sign = "-" if q < 0 else ""
    n, d = abs(q.numerator), q.denominator
    out, rem = str(n // d), n % d
    if ndigits:
        out += "."
    for _ in range(ndigits):
        rem *= 10
        out += str(rem // d)
        rem %= d
    return sign + out


def test_decimal_digits_matches_long_division():
    rng = random.Random(7)
    for _ in range(300):
        q = F(rng.randint(-10**30, 10**30), rng.randint(1, 10**rng.randint(1, 30)))
        nd = rng.randint(0, 80)
        assert decimal_digits(q, nd) == _long_division_digits(q, nd), (q, nd)
    big = F(2**9000 + 1, 3**4000)  # whole part and fraction past the int -> str split
    assert decimal_digits(big, 2500) == _long_division_digits(big, 2500)


def test_format_decimal_rounds_half_away():
    assert format_decimal(F(2888762, 10**7), 5) == "0.28888"
    assert format_decimal(F(15, 1000), 2) == "0.02"
    assert format_decimal(F(-25, 1000), 2) == "-0.03"


def test_format_decimal_refuses_negative_places():
    with pytest.raises(ValueError, match=r"places must be >= 0, got -2"):
        format_decimal(F(1, 3), -2)


def test_format_decimal_matches_fraction_rounding():
    # The integer rounding against the Fraction one it replaced: round half
    # away from zero, on exact halves too.
    def fraction_rounding(q, places):
        scaled = abs(q) * 10**places
        n = scaled.numerator // scaled.denominator
        n += 2 * (scaled - n) >= 1
        whole, frac = divmod(n, 10**places)
        sign = "-" if q < 0 and n else ""
        return f"{sign}{whole}.{frac:0{places}d}" if places else f"{sign}{whole}"

    rng = random.Random(86)
    for case in range(3000):
        places = rng.randint(0, 60)
        if case % 4 == 0:  # an exact half at the last place
            q = F(2 * rng.randint(-(10**places), 10**places) + 1, 2 * 10**places)
        else:
            q = F(rng.randint(-(10 ** rng.randint(1, 70)), 10 ** rng.randint(1, 70)), rng.randint(1, 10 ** rng.randint(1, 70)))
        assert format_decimal(q, places) == fraction_rounding(q, places), (q, places)


def test_decimal_above_rounds_up_at_the_last_digit():
    assert [first_digit_place(q) for q in (F(1), F(1, 10), F(99, 1000), F(123, 10), F(-1, 7))] == [0, 1, 2, -1, 1]
    assert decimal_above(F(4962832381, 10**19), 6) == "0.000000000496284"
    assert decimal_above(F(1, 1000), 6) == "0.00100001"  # strictly above an exact decimal
    assert decimal_above(F(123, 10), 3) == "12.4"
    for q in (F(1, 3), F(2, 3) * F(1, 10**150), F(7, 10**200)):
        text = decimal_above(q, 4)
        places = len(text.split(".")[1])
        assert q < F(text) <= q + F(1, 10**places)
    with pytest.raises(ValueError):
        decimal_above(F(0), 3)


def test_common_decimal_prefix():
    a = F(817001660127394075579379106922368833240_06, 10**41)
    b = F(817001660127394075579379106922368833240_45, 10**41)
    assert common_decimal_prefix(-a, -b).startswith("-0.817001660127394075579379106922368833240")
    assert common_decimal_prefix(F(1, 3), F(2, 3)) == "0."
    assert common_decimal_prefix(F(1, 2), F(-1, 2)) == ""


def test_ln_bounds_certified_against_float():
    for num, den in ((5, 4), (1157855, 1000000), (133493, 100000), (999, 1000), (3, 1)):
        x = F(num, den)
        lo, hi = ln_enclosure(x, x, F(1, 10**15))
        assert lo <= hi
        assert hi - lo <= F(1, 10**15)
        assert abs(float(lo) - math.log(num / den)) < 1e-12
    assert ln_enclosure(F(1), F(1), F(1, 10)) == (0, 0)
    with pytest.raises(ValueError, match="^ln_enclosure requires x > 0$"):
        ln_enclosure(F(0), F(0), F(1, 10))


def test_ln_enclosure_refuses_an_inverted_interval():
    # an inverted interval would give an inverted bracket, (46516315/67108864, 0)
    for lo, hi, shown in ((2, 1, "lo = 2 and hi = 1"), (F(5, 3), F(1, 2), "lo = 5/3 and hi = 1/2")):
        with pytest.raises(ValueError, match=f"^ln_enclosure requires lo <= hi, got {shown}$"):
            ln_enclosure(lo, hi, F(1, 100))
    lo, hi = ln_enclosure(F(3, 2), F(3, 2), F(1, 100))  # a point is no inverted interval
    assert lo <= hi


def test_exact_addition_independent_normalization():
    # Oracle: add via raw cross-multiplication and explicit gcd reduction,
    # compare bit-for-bit with Fraction arithmetic.
    rng = random.Random(12345)
    for _ in range(500):
        a, b = rng.randint(-10**9, 10**9), rng.randint(1, 10**9)
        c, d = rng.randint(-10**9, 10**9), rng.randint(1, 10**9)
        num, den = a * d + c * b, b * d
        g = gcd(abs(num), den) or 1
        expect = (num // g, den // g)
        got = F(a, b) + F(c, d)
        assert (got.numerator, got.denominator) == expect


def _ln_cases(rng: random.Random):
    """x of 1-3000-bit numerator and denominator (so about half below 1),
    exact powers of 2, x within 2^-j of a power of 2 on either side, and
    x = 1 + 2^-j, where only the tail bound keeps hi above ln(x)."""
    for _ in range(240):
        yield F(rng.getrandbits(rng.randint(1, 3000)) | 1, rng.getrandbits(rng.randint(1, 3000)) | 1)
    for k in range(-30, 30):
        yield F(2) ** k
        yield F(2) ** k * (1 + F(rng.choice((-1, 1)), 2 ** rng.randint(1, 600)))
    for j in range(100, 4000, 400):
        yield 1 + F(1, 2**j)


def test_ln_bounds_contain_mpmath_log():
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(2026)
    cases = list(_ln_cases(rng))
    assert len(cases) >= 300 and any(x < 1 for x in cases)
    for i, x in enumerate(cases):
        # err from 10^-3 to 10^-1000, log-uniform, both ends included.
        places = (3, 1000)[i] if i < 2 else round(10 ** rng.uniform(0.5, 3))
        err = F(rng.randint(1, 9), 10**places)
        lo, hi = ln_enclosure(x, x, err)
        assert lo <= hi and hi - lo <= err, x
        # Enough digits to hold x exactly and to see past err.
        with mpmath.workdps(places + 30 + len(str(max(x.numerator, x.denominator)))):
            value = mpmath.log(mpmath.mpf(x.numerator) / x.denominator)
            assert mpmath.mpf(lo.numerator) / lo.denominator <= value, x
            assert value <= mpmath.mpf(hi.numerator) / hi.denominator, x


def test_ln_brackets_match_the_both_ways_oracle():
    # Each end comes from the series passes it keeps, and equals the end
    # that summing every series both ways gives, powers of two of either
    # sign included.
    rng = random.Random(3000)
    for case in range(3000):
        lo = F(rng.getrandbits(rng.randint(1, 200)) | 1, rng.getrandbits(rng.randint(1, 200)) | 1)
        hi = lo if case % 10 == 0 else lo * (1 + F(rng.randint(1, 10**6), 10 ** rng.randint(1, 40)))
        err = F(1, 10 ** rng.randint(0, 160))
        want_lo, want_hi = oracles.ln_bounds_both_ways(lo, err)[0], oracles.ln_bounds_both_ways(hi, err)[1]
        assert ln_enclosure(lo, hi, err) == (want_lo, want_hi), (lo, hi, err)
        assert ln_enclosure(lo, lo, err) == oracles.ln_bounds_both_ways(lo, err), (lo, err)
    assert ln_enclosure(F(1), F(1), F(1, 10)) == (0, 0)
    with pytest.raises(ValueError):
        ln_enclosure(F(0), F(1), F(1, 10))


def test_ln_enclosure_sums_one_series_pass_per_end(monkeypatch):
    # A work count: with x in [1, 2) at both ends (k = 0) the lower end
    # sums the series rounded down and the upper end the one rounded up,
    # once each; past a power of two each end adds one pass for ln 2.
    from pwldyn import rationals

    passes = []
    atanh_bound = rationals._atanh_bound

    def counted(a, b, prec, up):
        passes.append(up)
        return atanh_bound(a, b, prec, up)

    monkeypatch.setattr(rationals, "_atanh_bound", counted)
    ln_enclosure(F(1157855, 1000000), F(1157856, 1000000), F(1, 10**150))
    assert passes == [False, True]
    passes.clear()
    ln_enclosure(F(1, 3), F(17, 3), F(1, 10**30))  # k = -2 and k = 2
    assert passes == [False, True, True, True]
