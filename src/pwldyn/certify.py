"""Certified rational brackets for the two entropy-transition parameters.

Near each transition the first-return dynamics on an invariant subinterval
is conjugate to a one-parameter trapezoid map on [0, 1] (rising slope 16,
a plateau at height 1, falling slope -8 or -16).  Periodic orbits of the
point 1 decide the certificate:

* a period 3*2^N orbit forces positive entropy (at least ln(2)/period), so
  its parameter bounds the transition from the positive-entropy side;
* a period 2^N orbit following the doubling-cascade pattern induces a
  covering digraph of spectral radius exactly 1, bounding from the zero
  side.

Patterns come from the doubling operator on itineraries; the admissible
parameter window of a pattern is an exact rational interval, and the d <->
b changes of variables are exact Moebius maps.  Every certificate is
re-verified from scratch: exact periodicity, itinerary, and radius.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from pwldyn.piecewise import (
    Itinerary,
    ParamAffine,
    Piece,
    PiecewiseAffine1D,
    closing_window,
    iterate_point,
    itinerary_of,
    markov_radius_from_orbit,
)
from pwldyn.planemap import Params, Segment, point, restrict_iterate_to_segment
from pwldyn.polys import RootInterval
from pwldyn.rationals import (
    common_decimal_prefix,
    decimal_above,
    decimal_digits,
    first_digit_place,
    rational_str,
)

F = Fraction


# ---------------------------------------------------------------------------
# Doubling of itineraries
# ---------------------------------------------------------------------------

_DOUBLE = {"R": "RL", "C": "RC", "L": "RR"}


def star_product(s: Itinerary) -> Itinerary:
    """Doubling operator: R -> RL, C -> RC, L -> RR (length doubles)."""
    out: list[str] = []
    for sym in s.symbols:
        if sym not in _DOUBLE:
            raise ValueError(f"invalid symbol {sym!r}")
        out.extend(_DOUBLE[sym])
    return Itinerary(tuple(out))


def upper_pattern(period: int) -> Itinerary:
    """Pattern of period 3*2^k obtained by doubling the seed RLC."""
    pat = Itinerary.parse("RLC")
    while len(pat) < period:
        pat = star_product(pat)
    if len(pat) != period:
        raise ValueError(f"upper period must be 3*2^k, got {period}")
    return pat


def lower_pattern(period: int) -> Itinerary:
    """Cascade pattern of period 2^k (k >= 1) obtained by doubling RC."""
    pat = Itinerary.parse("RC")
    while len(pat) < period:
        pat = star_product(pat)
    if len(pat) != period or period < 2:
        raise ValueError(f"lower period must be 2^k with k >= 1, got {period}")
    return pat


# ---------------------------------------------------------------------------
# The two trapezoid families and their parameter changes
# ---------------------------------------------------------------------------


def _trapezoid_family(falling_slope: int, plateau_right: Fraction) -> PiecewiseAffine1D:
    return PiecewiseAffine1D(
        F(0),
        F(1),
        [ParamAffine(F(1, 16), F(-1, 16)), plateau_right],
        [
            Piece(F(16), ParamAffine(F(0), F(1)), "L"),
            Piece(F(0), F(1), "C"),
            Piece(F(falling_slope), F(-falling_slope), "R"),
        ],
    )


def phi_family() -> PiecewiseAffine1D:
    """16x+d | 1 | -8x+8 on [0,1]; plateau ends at 7/8."""
    return _trapezoid_family(-8, F(7, 8))


def psi_family() -> PiecewiseAffine1D:
    """16x+d | 1 | -16x+16 on [0,1]; plateau ends at 15/16."""
    return _trapezoid_family(-16, F(15, 16))


def alpha_d_to_b(d) -> Fraction:
    d = Fraction(d)
    den = 9 * d + 128
    if den == 0:
        raise ValueError("denominator vanishes")
    return F(-8) * (d + 13) / den


def alpha_b_to_d(b) -> Fraction:
    b = Fraction(b)
    den = 9 * b + 8
    if den == 0:
        raise ValueError("denominator vanishes")
    return F(-8) * (16 * b + 13) / den


def beta_d_to_b(d) -> Fraction:
    """Parameter change for the second transition window.

    Derived from the affine chart sending the first-return domain
    [300-435b, 29b-20] to [0, 1]; see `build_k1`.  Validated by the
    roundtrip identity and by the self-verifying certificates.
    """
    d = Fraction(d)
    den = 2 * (29 * d + 408)
    if den == 0:
        raise ValueError("denominator vanishes")
    return (40 * d + 563) / den


def beta_b_to_d(b) -> Fraction:
    b = Fraction(b)
    den = 2 * (29 * b - 20)
    if den == 0:
        raise ValueError("denominator vanishes")
    return (563 - 816 * b) / den


@dataclass(frozen=True)
class TrapezoidFamily:
    tag: str                      # "alpha" or "beta"
    family: PiecewiseAffine1D     # parameter-affine trapezoid on [0, 1]
    return_power: int             # F-iterates per trapezoid step (6 or 7)

    def concrete(self, d: Fraction) -> PiecewiseAffine1D:
        return self.family.at(d)

    def d_to_b(self, d: Fraction) -> Fraction:
        return alpha_d_to_b(d) if self.tag == "alpha" else beta_d_to_b(d)

    def b_to_d(self, b: Fraction) -> Fraction:
        return alpha_b_to_d(b) if self.tag == "alpha" else beta_b_to_d(b)


def trapezoid_family(tag: str) -> TrapezoidFamily:
    if tag == "alpha":
        return TrapezoidFamily("alpha", phi_family(), 6)
    if tag == "beta":
        return TrapezoidFamily("beta", psi_family(), 7)
    raise ValueError(f"unknown transition tag {tag!r}")


# ---------------------------------------------------------------------------
# The concrete first-return maps behind the conjugacies
# ---------------------------------------------------------------------------

ALPHA_WINDOW = (F(-112, 137), F(-13, 16))
BETA_WINDOW = (F(603, 874), F(563, 816))


def _require_window(b: Fraction, window: tuple[Fraction, Fraction], what: str):
    if not window[0] <= b <= window[1]:
        raise ValueError(f"{what} requires b in [{window[0]}, {window[1]}]")


def build_g2(b) -> PiecewiseAffine1D:
    """Semiconjugate core of the 6-step return map on the first window."""
    b = Fraction(b)
    _require_window(b, ALPHA_WINDOW, "build_g2")
    top = (9 * b + 8) / (8 * (b + 1))
    u1 = (137 * b + 112) / (128 * (b + 1))
    u2 = 7 * (9 * b + 8) / (64 * (b + 1))
    return PiecewiseAffine1D(
        F(0), top, [u1, u2],
        [
            Piece(F(16), -(16 * b + 13) / (b + 1), "L"),
            Piece(F(0), top, "C"),
            Piece(F(-8), (9 * b + 8) / (b + 1), "R"),
        ],
    )


def build_g3(b) -> PiecewiseAffine1D:
    """Trapezoidal extension of build_g2 between the rising fixed point and its preimage."""
    b = Fraction(b)
    _require_window(b, ALPHA_WINDOW, "build_g3")
    g2 = build_g2(b)
    x1 = (16 * b + 13) / (15 * (b + 1))
    x2 = (119 * b + 107) / (120 * (b + 1))
    return PiecewiseAffine1D(x1, x2, list(g2.breakpoints), list(g2.pieces))


def build_k1(b) -> PiecewiseAffine1D:
    """The 7-step return map on the second window's invariant interval.

    16x+4-3b, then constant 29b-20, then -16x+29b-20 on
    [300-435b, 29b-20].  Outside the stated parameter window the interval is
    no longer invariant, so construction is refused there.
    """
    b = Fraction(b)
    _require_window(b, BETA_WINDOW, "build_k1")
    left = 300 - 435 * b
    right = 29 * b - 20
    return PiecewiseAffine1D(
        left, right, [2 * b - F(3, 2), F(0)],
        [
            Piece(F(16), 4 - 3 * b, "L"),
            Piece(F(0), right, "C"),
            Piece(F(-16), right, "R"),
        ],
    )


def sigma_segment(b) -> Segment:
    """Invariant subinterval of the second window, on the line y = 2b-1."""
    b = Fraction(b)
    return Segment(point(300 - 435 * b, 2 * b - 1), point(29 * b - 20, 2 * b - 1))


def pi_segment(b) -> Segment:
    """Invariant subinterval of the first window, on the line y = x+b+1."""
    b = Fraction(b)
    return Segment(point(-9 * b - 8, -8 * b - 7), point(-b, 1))


def k1_from_return_map(b) -> PiecewiseAffine1D:
    """Independent construction of build_k1 by exact 7-fold composition of F."""
    b = Fraction(b)
    _require_window(b, BETA_WINDOW, "k1_from_return_map")
    return restrict_iterate_to_segment(Params.standard(b), sigma_segment(b), 7)


def normalized_plateau_width(m: PiecewiseAffine1D, extended: bool = False) -> Fraction:
    """Plateau length of the trapezoid after rescaling its domain to [0, 1].

    With `extended`, the map is first extended to the invariant interval
    between the rising branch's fixed point and that point's preimage under
    the falling branch (the shape parameter of the normalized trapezoid).
    """
    m._require_concrete()
    consts = [i for i, p in enumerate(m.pieces) if p.is_constant]
    if len(consts) != 1:
        raise ValueError("map must have exactly one constancy piece")
    i = consts[0]
    cuts = m.cut_points()
    u1, u2 = cuts[i], cuts[i + 1]
    if extended:
        rise = m.pieces[0]
        fall = m.pieces[-1]
        x_fix = rise.offset / (1 - rise.slope)
        x_pre = (x_fix - fall.offset) / fall.slope
        lo, hi = x_fix, x_pre
    else:
        lo, hi = Fraction(m.lo), Fraction(m.hi)
    return (u2 - u1) / (hi - lo)


# ---------------------------------------------------------------------------
# Certification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OrbitCertificate:
    d: Fraction
    b: Fraction
    pattern: Itinerary
    orbit: tuple[Fraction, ...]
    radius: RootInterval
    kind: str  # "radius_one" or "radius_above_one"


@dataclass(frozen=True)
class CertifiedInterval:
    tag: str
    lo: Fraction
    hi: Fraction
    lo_certificate: OrbitCertificate
    hi_certificate: OrbitCertificate
    return_power: int

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def bowen_franks_note(self) -> dict[str, str]:
        p = len(self.hi_certificate.pattern)
        return {
            "trapezoid_entropy_gt": f"ln(2)/{p}",
            "planar_entropy_gt": f"ln(2)/{p * self.return_power}",
        }

    def to_json(self) -> dict:
        def cert(c: OrbitCertificate) -> dict:
            return {
                "d": rational_str(c.d),
                "b": rational_str(c.b),
                "pattern": str(c.pattern),
                "orbit": [rational_str(x) for x in c.orbit],
                "radius": c.kind,
            }

        return {
            "schema": "transition-certificate/1",
            "tag": self.tag,
            "lo": rational_str(self.lo),
            "hi": rational_str(self.hi),
            "width_lt": decimal_above(self.width, 6),
            "digits": digits_report(self),
            "lower": cert(self.lo_certificate),
            "upper": cert(self.hi_certificate),
            "bowen_franks": self.bowen_franks_note(),
        }

    def to_json_str(self) -> str:
        return json.dumps(self.to_json(), indent=2) + "\n"


def _window_certificates(fam: TrapezoidFamily, pattern: Itinerary, want_radius_one: bool):
    """Both endpoint certificates of the pattern's closing window, verified."""
    window = closing_window(fam.family, pattern, 1)
    if window is None:
        raise ValueError(f"pattern {pattern} admits no parameter window")
    period = len(pattern)
    out = []
    for d in window:
        m = fam.concrete(d)
        orbit = iterate_point(m, 1, period)
        if orbit[period] != orbit[0] or len(set(orbit[:period])) != period:
            continue  # degenerate endpoint (shorter period); skip it
        if itinerary_of(m, 1, period - 1).symbols != pattern.symbols:
            continue
        radius = markov_radius_from_orbit(m, orbit[:period])
        if want_radius_one:
            if not radius.is_exact or radius.lo != 1:
                raise AssertionError(f"expected spectral radius 1 at d = {d}")
            kind = "radius_one"
        else:
            if not radius.lo > 1:
                raise AssertionError(f"expected spectral radius above 1 at d = {d}")
            kind = "radius_above_one"
        out.append(OrbitCertificate(d, fam.d_to_b(d), pattern, tuple(orbit[:period]), radius, kind))
    if not out:
        raise AssertionError(f"no valid certificate at the window endpoints of {pattern}")
    return out


def certify(tag: str, upper_period: int, lower_period: int) -> CertifiedInterval:
    """Certified rational bracket of the transition parameter.

    The upper side uses the period 3*2^k pattern (positive entropy via the
    odd-times-power period); the lower side uses the 2^k cascade pattern
    (induced digraph of spectral radius exactly 1).  Among the valid window
    endpoints the pair with the narrowest bracket is returned.
    """
    fam = trapezoid_family(tag)
    uppers = _window_certificates(fam, upper_pattern(upper_period), want_radius_one=False)
    lowers = _window_certificates(fam, lower_pattern(lower_period), want_radius_one=True)
    best = None
    for up in uppers:
        for lo in lowers:
            if lo.b < up.b:
                width = up.b - lo.b
                if best is None or width < best[0]:
                    best = (width, lo, up)
    if best is None:
        raise AssertionError("no endpoint pair brackets the transition")
    _, lo, up = best
    return CertifiedInterval(tag, lo.b, up.b, lo, up, fam.return_power)


def verify_certificate(ci: CertifiedInterval) -> bool:
    """Re-derive both sides of a certificate from scratch."""
    fam = trapezoid_family(ci.tag)
    for cert, want_one in ((ci.lo_certificate, True), (ci.hi_certificate, False)):
        m = fam.concrete(cert.d)
        period = len(cert.pattern)
        orbit = iterate_point(m, cert.orbit[0], period)
        if tuple(orbit[:period]) != cert.orbit or orbit[period] != cert.orbit[0]:
            return False
        if fam.d_to_b(cert.d) != cert.b or fam.b_to_d(cert.b) != cert.d:
            return False
        radius = markov_radius_from_orbit(m, cert.orbit)
        if want_one and not (radius.is_exact and radius.lo == 1):
            return False
        if not want_one and not radius.lo > 1:
            return False
    return ci.lo < ci.hi


def digits_report(ci: CertifiedInterval, limit: int | None = None) -> str:
    """Decimal digits shared by both bracket ends (the proven digits).

    Ends that share m fractional digits lie within 10^-m of each other, so
    comparing up to the first significant place of the width finds every
    shared digit.
    """
    if ci.lo == ci.hi:
        prefix = decimal_digits(ci.lo, limit if limit is not None else 60)
    else:
        places = max(1, first_digit_place(ci.hi - ci.lo))
        prefix = common_decimal_prefix(ci.lo, ci.hi, max_digits=places)
    if limit is not None:
        head, _, tail = prefix.partition(".")
        prefix = head + "." + tail[:limit] if tail else head
    return prefix
