import math
import random
from fractions import Fraction as F
from math import gcd

import pytest

from pwldyn.rationals import (
    common_decimal_prefix,
    decimal_above,
    decimal_digits,
    first_digit_place,
    format_decimal,
    ln_bounds,
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


def test_decimal_digits_truncates_toward_zero():
    assert decimal_digits(F(1, 3), 5) == "0.33333"
    assert decimal_digits(F(-1, 3), 5) == "-0.33333"
    assert decimal_digits(F(22, 7), 3) == "3.142"
    assert decimal_digits(F(5), 0) == "5"


def test_format_decimal_rounds_half_away():
    assert format_decimal(F(2888762, 10**7), 5) == "0.28888"
    assert format_decimal(F(15, 1000), 2) == "0.02"
    assert format_decimal(F(-25, 1000), 2) == "-0.03"


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
        lo, hi = ln_bounds(x, F(1, 10**15))
        assert lo <= hi
        assert hi - lo <= F(1, 10**15)
        assert abs(float(lo) - math.log(num / den)) < 1e-12
    assert ln_bounds(F(1), F(1, 10)) == (0, 0)
    with pytest.raises(ValueError):
        ln_bounds(F(0), F(1, 10))


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
