"""Exact rational helpers: parsing, decimal rendering, certified logarithms.

All functions work on `fractions.Fraction` and never round through binary
floats, so their outputs are usable inside certificates.  `ln_enclosure`
sums its atanh series in fixed-point integers, at each end of an interval
only the pass that end keeps (down at the lower end, up with an explicit
tail bound at the upper), and returns dyadic ends.  `format_decimal`
rounds in integers.
"""

from __future__ import annotations

import re
from fractions import Fraction


def parse_rational(text: str) -> Fraction:
    """Parse "num/den", an integer, or a decimal string of any length into an exact Fraction.

    Decimals are converted exactly ("0.69" -> 69/100), never through float.
    """
    s = text.strip()
    try:
        if "/" in s:
            num, den = s.split("/", 1)
            return Fraction(_parse_int(num), _parse_int(den))
        if "." in s or "e" in s or "E" in s:
            m = len(s) > _STR_DIGITS and _DECIMAL.fullmatch(s)
            if not m:
                return Fraction(s)  # Fraction parses decimal strings exactly
            sign, whole, frac, exp = m.groups(default="")
            return Fraction(_parse_int(sign + whole + frac), 10 ** len(frac)) * Fraction(10) ** int(exp or 0)
        return Fraction(_parse_int(s))
    except (ValueError, ZeroDivisionError):
        shown = repr(text) if len(text) <= 40 else f"{text[:40]!r}... ({len(text)} characters)"
        raise ValueError(f"invalid rational {shown}") from None


_STR_BITS = 2000  # at most 603 digits: below every limit CPython accepts (640 or more)
_STR_DIGITS = 600  # the same bound on a run of digits read at once
_DECIMAL = re.compile(r"([-+]?)(\d*)(?:\.(\d*))?(?:[eE]([-+]?\d+))?")


def _parse_int(s: str) -> int:
    """int(s) at any length: a long run of digits is read in two parts split at a power of ten."""
    s = s.strip()
    if len(s) <= _STR_DIGITS or not s[1:].isdecimal():
        return int(s)
    k = len(s) // 2
    return _parse_int(s[:-k]) * 10**k + (-1 if s[0] == "-" else 1) * _parse_int(s[-k:])


def _int_str(n: int) -> str:
    """Decimal digits of n at any length.

    CPython's int -> str refuses past a process-wide digit limit (4300 by
    default, at least 640); larger integers are split at a power of ten
    into halves that are rendered on their own.
    """
    if n < 0:
        return "-" + _int_str(-n)
    if n.bit_length() <= _STR_BITS:
        return str(n)
    k = n.bit_length() * 3 // 20  # about half the digit count (log10(2) > 3/10)
    hi, lo = divmod(n, 10**k)
    return _int_str(hi) + _int_str(lo).zfill(k)


def rational_str(q: Fraction) -> str:
    """Serialize as "num/den" (or plain integer when the denominator is 1)."""
    if q.denominator == 1:
        return _int_str(q.numerator)
    return f"{_int_str(q.numerator)}/{_int_str(q.denominator)}"


def decimal_digits(q: Fraction, ndigits: int) -> str:
    """Decimal expansion truncated toward zero after `ndigits` fractional digits.

    No rounding is applied: the returned string is an exact prefix of the
    infinite expansion of |q| (with sign), which is what a digit-agreement
    comparison between two brackets needs.
    """
    if ndigits < 0:
        raise ValueError("ndigits must be >= 0")
    return _fixed_point("-" if q < 0 else "", abs(q.numerator) * 10**ndigits // q.denominator, ndigits)


def format_decimal(q: Fraction, places: int) -> str:
    """Round half away from zero to `places` decimal places.

    The rounded magnitude is floor(|q| 10^places + 1/2), formed in
    integers as (2 |num| 10^places + den) // (2 den)."""
    if places < 0:
        raise ValueError(f"places must be >= 0, got {places}")
    num, den = q.numerator, q.denominator
    n = (2 * abs(num) * 10**places + den) // (2 * den)
    return _fixed_point("-" if num < 0 and n else "", n, places)


def _fixed_point(sign: str, n: int, places: int) -> str:
    """sign followed by n / 10^places written out with `places` decimals."""
    whole, frac = divmod(n, 10**places)
    if places == 0:
        return f"{sign}{_int_str(whole)}"
    return f"{sign}{_int_str(whole)}.{_int_str(frac).zfill(places)}"


def first_digit_place(q: Fraction) -> int:
    """Place k of the first significant digit of q != 0: 10^-k <= |q| < 10^(1-k)."""
    q = abs(q)
    if q == 0:
        raise ValueError("zero has no significant digit")
    k = (q.denominator.bit_length() - q.numerator.bit_length()) * 30103 // 100000  # log10(2): a guess within two places
    while q * Fraction(10) ** k < 1:
        k += 1
    while q * Fraction(10) ** (k - 1) >= 1:
        k -= 1
    return k


def decimal_above(q: Fraction, significant: int) -> str:
    """Decimal strictly above q > 0 and within one unit of its last digit.

    The digit count follows q: its leading zeros plus `significant`
    significant digits, so the bound stays tight at every magnitude.
    """
    if q <= 0:
        raise ValueError("decimal_above requires q > 0")
    places = max(0, first_digit_place(q) + significant - 1)
    scaled = q * 10**places
    return format_decimal(Fraction(scaled.numerator // scaled.denominator + 1, 10**places), places)


def common_decimal_prefix(a: Fraction, b: Fraction, max_digits: int = 80) -> str:
    """Longest common prefix of the decimal expansions of `a` and `b`.

    Expansions are truncated toward zero at `max_digits` fractional digits
    first; the result therefore consists of digits both numbers provably
    share.  Returns the empty string when even the signs differ.
    """
    sa = decimal_digits(a, max_digits)
    sb = decimal_digits(b, max_digits)
    out = []
    for ca, cb in zip(sa, sb):
        if ca != cb:
            break
        out.append(ca)
    prefix = "".join(out)
    # A prefix that stops inside the integer part is not a digit agreement.
    if "." in sa[: len(prefix) + 1] and "." not in prefix:
        return ""
    return prefix


def _ln_bound(x: Fraction, err: Fraction, up: bool) -> Fraction:
    """A dyadic lower bound of ln(x) within err of it, or an upper one when
    `up`: with x = 2^k * m, m in [1, 2), ln(x) = 2*atanh(z) + k*ln(2) where
    z = (m-1)/(m+1) <= 1/3 and ln(2) = 2*atanh(1/3); the atanh of z rounded
    the same way, ln(2) that way for k > 0, the other way for k < 0."""
    if x <= 0:
        raise ValueError("ln_enclosure requires x > 0")
    if err <= 0:
        raise ValueError("err must be positive")
    if x == 1:
        return Fraction(0)
    n, d = x.numerator, x.denominator
    k = n.bit_length() - d.bit_length()
    n, d = n << max(-k, 0), d << max(k, 0)  # n/d = x/2^k in (1/2, 2)
    if n < d:
        n, k = 2 * n, k - 1  # now m = n/d = x/2^k in [1, 2)
    # 2^-e <= err.  Each atanh bracket spans at most 3*prec ulps (under
    # prec/3 + 2 terms, each a few ulps apart), so the bracket of ln(x)
    # spans at most 6*(1 + |k|)*prec ulps: below 2^-e with these guard bits.
    e = max(0, err.denominator.bit_length() - err.numerator.bit_length() + 1)
    prec = e + e.bit_length() + abs(k).bit_length() + 16
    total = 2 * _atanh_bound(n - d, n + d, prec, up)
    if k:
        total += 2 * k * _atanh_bound(1, 3, prec, up == (k > 0))
    return Fraction(total, 1 << prec)


def _atanh_bound(a: int, b: int, prec: int, up: bool) -> int:
    """An integer at most 2^prec * atanh(a/b), or at least it when `up`,
    for 0 <= a/b <= 1/3.

    The series sum_j z^(2j+1)/(2j+1) runs in fixed point with z, z^2,
    every term and every quotient rounded down, or all of them rounded
    up: a quotient of n >= 0 by d rounds up as (n + d - 1) // d, a shift
    by prec as (n + 2^prec - 1) >> prec.  The upper sum stops at the first
    term t <= 1 ulp and adds the tail bound 9t/8 + 1 ulp: the true terms
    from there on are at most t, shrinking by z^2 <= 1/9 each, so they sum
    to at most 9t/8.
    """
    lift = (1 << prec) - 1 if up else 0
    z = ((a << prec) + (b - 1 if up else 0)) // b
    z2 = (z * z + lift) >> prec
    term, total, j = z, 0, 1
    while term > 1:
        total += (term + j - 1) // j if up else term // j
        term = (term * z2 + lift) >> prec
        j += 2
    return total + (9 * term + 7) // 8 + 1 if up else total


def ln_enclosure(lo: Fraction, hi: Fraction, err: Fraction) -> tuple[Fraction, Fraction]:
    """Certified bracket of ln over the rational interval [lo, hi]
    (outward rounded), each end within err of ln there, so a bracket of
    ln(x) no wider than err for lo = hi = x.  Each end is dyadic, from the
    one series pass it needs (two when its power of two k is not 0)."""
    if lo > hi:
        raise ValueError(f"ln_enclosure requires lo <= hi, got lo = {rational_str(lo)} and hi = {rational_str(hi)}")
    return _ln_bound(lo, err, False), _ln_bound(hi, err, True)
