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

Patterns come from the doubling operator on itineraries.  The trapezoid
family is the only map family with a parameter, and it owns it:
`TrapezoidFamily.at(d)` is the concrete map, `window(pattern)` the exact
rational d-window of a pattern, and the d <-> b changes of variables are
exact Moebius maps.  The radius is classified by one exact comparison with
1 (`markov.compare_radius`).  Every certificate is re-derived from scratch:
periodicity, itinerary, radius.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from pwldyn.markov import CoverDigraph, compare_radius
from pwldyn.piecewise import Itinerary, Piece, PiecewiseAffine1D, iterate_point, markov_partition
from pwldyn.planemap import Params, Segment, point, restrict_iterate_to_segment
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


def alpha_d_to_b(d) -> Fraction:
    d = Fraction(d)
    den = 9 * d + 128
    if den == 0:
        raise ValueError("denominator vanishes")
    return F(-8) * (d + 13) / den


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


@dataclass(frozen=True)
class TrapezoidFamily:
    """The maps 16x+d | 1 | s*x-s on [0, 1], one for each d in [0, 1].

    The rising branch L meets the plateau C at (1-d)/16; C ends at
    `plateau_right`, where the falling branch R (slope s = `falling_slope`)
    starts and falls to 0 at x = 1.
    """

    tag: str                      # "alpha" or "beta"
    falling_slope: int
    plateau_right: Fraction
    return_power: int             # F-iterates per trapezoid step (6 or 7)

    def at(self, d) -> PiecewiseAffine1D:
        """The concrete map at parameter d."""
        d = Fraction(d)
        s = F(self.falling_slope)
        return PiecewiseAffine1D(
            F(0), F(1), [(1 - d) / 16, self.plateau_right],
            [Piece(F(16), d, "L"), Piece(F(0), F(1), "C"), Piece(s, -s, "R")],
        )

    def window(self, pattern: Itinerary) -> tuple[Fraction, Fraction] | None:
        """The d-window [lo, hi] within [0, 1] on which the orbit of 1 follows
        `pattern`, or None when it is empty.

        Each iterate is affine in d and is held as the pair (c0, c1) of
        c0 + c1*d.  Requiring it to lie in the closed span of its piece gives
        two linear inequalities in d.  The pattern must end at the plateau C,
        whose value 1 closes the orbit.
        """
        if pattern.symbols[-1] != "C":
            raise ValueError("pattern must end at the constancy piece")
        s, u2 = self.falling_slope, self.plateau_right
        u1 = (F(1, 16), F(-1, 16))  # (1-d)/16
        spans = {"L": ((F(0), F(0)), u1), "C": (u1, (u2, F(0))), "R": ((u2, F(0)), (F(1), F(0)))}
        lo_d, hi_d = F(0), F(1)
        c0, c1 = F(1), F(0)
        for sym in pattern.symbols:
            if sym not in spans:
                raise ValueError(f"symbol {sym!r} is not a piece name")
            (a0, a1), (b0, b1) = spans[sym]
            # a <= x and x <= b, each as k*d <= c
            for k, c in ((a1 - c1, c0 - a0), (c1 - b1, b0 - c0)):
                if k > 0:
                    hi_d = min(hi_d, c / k)
                elif k < 0:
                    lo_d = max(lo_d, c / k)
                elif c < 0:
                    return None
                if lo_d > hi_d:
                    return None
            if sym == "L":
                c0, c1 = 16 * c0, 16 * c1 + 1
            elif sym == "C":
                c0, c1 = F(1), F(0)
            else:
                c0, c1 = s * (c0 - 1), s * c1
        return lo_d, hi_d

    def d_to_b(self, d: Fraction) -> Fraction:
        return alpha_d_to_b(d) if self.tag == "alpha" else beta_d_to_b(d)


def phi_family() -> TrapezoidFamily:
    """16x+d | 1 | -8x+8 on [0,1]; plateau ends at 7/8."""
    return TrapezoidFamily("alpha", -8, F(7, 8), 6)


def psi_family() -> TrapezoidFamily:
    """16x+d | 1 | -16x+16 on [0,1]; plateau ends at 15/16."""
    return TrapezoidFamily("beta", -16, F(15, 16), 7)


def trapezoid_family(tag: str) -> TrapezoidFamily:
    if tag == "alpha":
        return phi_family()
    if tag == "beta":
        return psi_family()
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


# ---------------------------------------------------------------------------
# Certification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OrbitCertificate:
    d: Fraction
    b: Fraction
    pattern: Itinerary
    orbit: tuple[Fraction, ...]
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


def orbit_digraph(m: PiecewiseAffine1D, orbit: Sequence[Fraction]) -> CoverDigraph:
    """Covering digraph of the Markov partition cut at an exact periodic orbit.

    The domain is cut by `markov_partition` seeded with the orbit; constancy
    cells are dropped (they feed no itinerary growth), every remaining cell
    is monotone, and an edge is exact covering.
    """
    pts = set(map(Fraction, orbit))
    full = iterate_point(m, orbit[0], len(pts))
    if full[-1] != full[0] or set(full[:-1]) != pts:
        raise ValueError("orbit is not exactly periodic under the map")
    cells = markov_partition(m, pts)
    nodes = [i for i, (_, _, _, cover) in enumerate(cells) if cover is not None]
    pos = {i: k for k, i in enumerate(nodes)}
    succ = tuple(tuple(pos[j] for j in cells[i][3] if j in pos) for i in nodes)
    return CoverDigraph(tuple(f"I{k}" for k in range(len(nodes))), succ)


def _endpoint_certificate(fam: TrapezoidFamily, d: Fraction, pattern: Itinerary) -> OrbitCertificate | None:
    """Certificate of the orbit of 1 at parameter d, or None when that orbit
    is not periodic with exactly `pattern` as its itinerary (a window end
    where the pattern degenerates)."""
    m = fam.at(d)
    period = len(pattern)
    orbit = iterate_point(m, 1, period)
    if orbit[period] != orbit[0] or len(set(orbit[:period])) != period:
        return None
    if Itinerary(tuple(m.symbol(m.piece_index_at(x)) for x in orbit[:period])) != pattern:
        return None
    side = compare_radius(orbit_digraph(m, orbit[:period]).succ, 1)
    kind = ("radius_below_one", "radius_one", "radius_above_one")[side + 1]
    return OrbitCertificate(d, fam.d_to_b(d), pattern, tuple(orbit[:period]), kind)


def _window_certificates(fam: TrapezoidFamily, pattern: Itinerary, kind: str) -> list[OrbitCertificate]:
    """Certificates at the valid ends of the pattern's closing window, each of `kind`."""
    window = fam.window(pattern)
    if window is None:
        raise ValueError(f"pattern {pattern} admits no parameter window")
    out = [c for c in (_endpoint_certificate(fam, d, pattern) for d in window) if c is not None]
    if not out:
        raise AssertionError(f"no valid certificate at the window endpoints of {pattern}")
    if any(c.kind != kind for c in out):
        raise AssertionError(f"expected {kind} at the window endpoints of {pattern}")
    return out


def certify(tag: str, upper_period: int, lower_period: int) -> CertifiedInterval:
    """Certified rational bracket of the transition parameter.

    The upper side uses the period 3*2^k pattern (positive entropy via the
    odd-times-power period); the lower side uses the 2^k cascade pattern
    (induced digraph of spectral radius exactly 1).  Among the valid window
    endpoints the pair with the narrowest bracket is returned.
    """
    fam = trapezoid_family(tag)
    uppers = _window_certificates(fam, upper_pattern(upper_period), "radius_above_one")
    lowers = _window_certificates(fam, lower_pattern(lower_period), "radius_one")
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
    """Re-derive both endpoint certificates from scratch; every field must match."""
    fam = trapezoid_family(ci.tag)
    lo, hi = ci.lo_certificate, ci.hi_certificate
    try:  # a pattern length that no doubling gives, or an orbit that escapes, is no certificate
        sides = ((lo, lower_pattern(len(lo.pattern)), "radius_one"),
                 (hi, upper_pattern(len(hi.pattern)), "radius_above_one"))
        for cert, pattern, kind in sides:
            if cert.kind != kind or cert != _endpoint_certificate(fam, cert.d, pattern):
                return False
    except ValueError:
        return False
    return (ci.lo, ci.hi) == (lo.b, hi.b) and ci.lo < ci.hi and ci.return_power == fam.return_power


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
