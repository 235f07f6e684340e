"""Exact rational helpers: parsing, decimal rendering, certified logarithms.

All functions work on `fractions.Fraction` and never round through binary
floats, so their outputs are usable inside certificates.
"""

from __future__ import annotations

from fractions import Fraction

Q = Fraction


def parse_rational(text: str) -> Fraction:
    """Parse "num/den", an integer, or a decimal string into an exact Fraction.

    Decimals are converted exactly ("0.69" -> 69/100), never through float.
    """
    s = text.strip()
    try:
        if "/" in s:
            num, den = s.split("/", 1)
            return Fraction(int(num), int(den))
        if "." in s or "e" in s or "E" in s:
            return Fraction(s)  # Fraction parses decimal strings exactly
        return Fraction(int(s))
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"invalid rational {text!r}") from None


def rational_str(q: Fraction) -> str:
    """Serialize as "num/den" (or plain integer when the denominator is 1)."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def decimal_digits(q: Fraction, ndigits: int) -> str:
    """Decimal expansion truncated toward zero after `ndigits` fractional digits.

    No rounding is applied: the returned string is an exact prefix of the
    infinite expansion of |q| (with sign), which is what a digit-agreement
    comparison between two brackets needs.
    """
    if ndigits < 0:
        raise ValueError("ndigits must be >= 0")
    sign = "-" if q < 0 else ""
    n, d = abs(q.numerator), q.denominator
    int_part = n // d
    rem = n % d
    if ndigits == 0:
        return f"{sign}{int_part}"
    digits = []
    for _ in range(ndigits):
        rem *= 10
        digits.append(str(rem // d))
        rem %= d
    return f"{sign}{int_part}." + "".join(digits)


def format_decimal(q: Fraction, places: int) -> str:
    """Round half away from zero to `places` decimal places."""
    scaled = abs(q) * 10**places
    n = scaled.numerator // scaled.denominator
    if 2 * (scaled - n) >= 1:
        n += 1
    sign = "-" if q < 0 and n != 0 else ""
    whole, frac = divmod(n, 10**places)
    if places == 0:
        return f"{sign}{whole}"
    return f"{sign}{whole}.{str(frac).zfill(places)}"


def first_digit_place(q: Fraction) -> int:
    """Place k of the first significant digit of q != 0: 10^-k <= |q| < 10^(1-k)."""
    q = abs(q)
    if q == 0:
        raise ValueError("zero has no significant digit")
    k = len(str(q.denominator)) - len(str(q.numerator))
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


def ln_bounds(x: Fraction, err: Fraction) -> tuple[Fraction, Fraction]:
    """Certified rational bracket [lo, hi] with lo <= ln(x) <= hi, hi-lo <= err.

    Uses ln(x) = 2*atanh(z) with z=(x-1)/(x+1) and the geometric tail bound
    2*z^(2K+1) / ((2K+1)*(1-z^2)); all arithmetic is exact.
    """
    if x <= 0:
        raise ValueError("ln_bounds requires x > 0")
    if err <= 0:
        raise ValueError("err must be positive")
    if x == 1:
        return Fraction(0), Fraction(0)
    if x < 1:
        lo, hi = ln_bounds(1 / x, err)
        return -hi, -lo
    z = (x - 1) / (x + 1)
    z2 = z * z
    total = Fraction(0)
    term = z  # z^(2k+1)
    k = 0
    while True:
        total += term / (2 * k + 1)
        term *= z2
        k += 1
        tail = 2 * term / ((2 * k + 1) * (1 - z2))
        if tail <= err:
            return 2 * total, 2 * total + tail


def ln_enclosure(lo: Fraction, hi: Fraction, err: Fraction) -> tuple[Fraction, Fraction]:
    """Bracket of ln over the rational interval [lo, hi] (outward rounded)."""
    a, _ = ln_bounds(lo, err)
    _, b = ln_bounds(hi, err)
    return a, b
