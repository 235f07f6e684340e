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
rational d-window of a pattern, and `d_to_b(d)` the exact Moebius change
to the planar parameter.  The family is also the one record of its
transition window of F: its range of b (`b_window`), the interval
`segment(b)` and the power of F that returns it.  The radius is classified
by one exact comparison with 1 (`markov.compare_radius`).  Every
certificate is re-derived from scratch: periodicity, itinerary, radius.

The hot loops run on integers: `window` holds its iterates as integer
pairs and tests each inequality at its two bounds, and an endpoint's
orbit walk, itinerary, periodicity check and Markov partition run on the
numerators of the map's `IntegerFrame`.  Fractions are built only for the
window ends and the two orbits a certificate returns; verification
compares orbits with their numerators by cross-multiplying.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import NamedTuple, Sequence

from pwldyn.markov import compare_radius
from pwldyn.piecewise import IntegerFrame, Itinerary, Piece, PiecewiseAffine1D
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
    if period < 3 or period % 3 or (period // 3) & (period // 3 - 1):
        raise ValueError(f"upper period must be 3*2^k, got {period}")
    pat = Itinerary.parse("RLC")
    while len(pat.symbols) < period:
        pat = star_product(pat)
    return pat


def lower_pattern(period: int) -> Itinerary:
    """Cascade pattern of period 2^k (k >= 1) obtained by doubling RC."""
    if period < 2 or period & (period - 1):
        raise ValueError(f"lower period must be 2^k with k >= 1, got {period}")
    pat = Itinerary.parse("RC")
    while len(pat.symbols) < period:
        pat = star_product(pat)
    return pat


# ---------------------------------------------------------------------------
# The two trapezoid families and their transition windows
# ---------------------------------------------------------------------------


class TrapezoidFamily(NamedTuple):
    """The maps 16x+d | 1 | s*x-s on [0, 1], one for each d in [0, 1].

    The rising branch L meets the plateau C at (1-d)/16; C ends at
    `plateau_right`, where the falling branch R (slope s = `falling_slope`)
    starts and falls to 0 at x = 1.  The family describes one transition
    window of F: the map at d is conjugate to F^return_power on the
    interval `edge` (`segment(b)`), where b = `d_to_b(d)`.
    """

    tag: str                      # "alpha" or "beta"
    falling_slope: int
    plateau_right: Fraction
    return_power: int             # F-iterates per trapezoid step
    edge: str                     # the return-invariant interval of F
    ends: tuple                   # its two ends, ((c0x, c1x), (c0y, c1y)) -> c0 + c1*b
    moebius: tuple[int, int, int, int]  # b = (m0*d + m1) / (m2*d + m3)

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

        Each iterate is affine in d with integer coefficients, held as the
        pair (c0, c1) of c0 + c1*d.  Requiring it to lie in the closed span
        of its piece gives two affine inequalities in d, on integers once
        the spans are scaled by `scale`.  Each bound n/m is held with
        X = m*x(n/m), the current iterate there, which every step updates
        in linear time; an inequality is tested at both bounds on those
        integers.  One that holds at both is slack, one that fails at both
        empties the window, and otherwise its root c/k is the new bound on
        the failing side.  The pattern must end at the plateau C, whose
        value 1 closes the orbit.
        """
        if pattern.symbols[-1] != "C":
            raise ValueError("pattern must end at the constancy piece")
        s, u2 = self.falling_slope, self.plateau_right
        scale = lcm(16, u2.denominator)
        e, v2 = scale // 16, u2.numerator * (scale // u2.denominator)
        # the spans scaled by `scale`, ends as (c0, c1); (1-d)/16 is (e, -e)
        spans = {"L": ((0, 0), (e, -e)), "C": ((e, -e), (v2, 0)), "R": ((v2, 0), (scale, 0))}
        lo, hi = (0, 1, 1), (1, 1, 1)  # (n, m, X) of the bounds 0 and 1, where x = 1
        c0, c1 = 1, 0
        for sym in pattern.symbols:
            if sym not in spans:
                raise ValueError(f"symbol {sym!r} is not a piece name")
            # a <= x and x <= b, each as sign*(scale*x - end) >= 0
            for (e0, e1), sign in zip(spans[sym], (1, -1)):
                ok = [sign * (scale * x - e0 * m - e1 * n) >= 0 for n, m, x in (lo, hi)]
                if ok[0] and ok[1]:
                    continue
                if not (ok[0] or ok[1]):
                    return None
                # the inequality is k*d <= c, nonconstant here
                k, c = sign * (e1 - scale * c1), sign * (scale * c0 - e0)
                if k < 0:
                    k, c = -k, -c
                bound = (c, k, k * c0 + c * c1)
                if ok[0]:
                    hi = bound
                else:
                    lo = bound
            if sym == "L":
                c0, c1 = 16 * c0, 16 * c1 + 1
                lo, hi = ((n, m, 16 * x + n) for n, m, x in (lo, hi))
            elif sym == "C":
                c0, c1 = 1, 0
                lo, hi = ((n, m, m) for n, m, _ in (lo, hi))
            else:
                c0, c1 = s * (c0 - 1), s * c1
                lo, hi = ((n, m, s * (x - m)) for n, m, x in (lo, hi))
        return Fraction(lo[0], lo[1]), Fraction(hi[0], hi[1])

    def d_to_b(self, d) -> Fraction:
        """The planar parameter b of the map at d."""
        m0, m1, m2, m3 = self.moebius
        d = Fraction(d)
        den = m2 * d + m3
        if den == 0:
            raise ValueError("denominator vanishes")
        return (m0 * d + m1) / den

    @property
    def b_window(self) -> tuple[Fraction, Fraction]:
        """The family's range of b, (d_to_b(1), d_to_b(0)): both families decrease in d."""
        return self.d_to_b(1), self.d_to_b(0)

    def segment(self, b) -> Segment:
        """The interval `edge` at b, on which F^return_power is the trapezoid map."""
        b = Fraction(b)
        return Segment(*(point(x0 + x1 * b, y0 + y1 * b) for (x0, x1), (y0, y1) in self.ends))


_FAMILIES = {
    # 16x+d | 1 | -8x+8; F^6 on PI from (-9b-8, -8b-7) to (-b, 1); b = -8(d+13)/(9d+128)
    "alpha": TrapezoidFamily(
        "alpha", -8, F(7, 8), 6, "PI", (((-8, -9), (-7, -8)), ((0, -1), (1, 0))), (-8, -104, 9, 128)
    ),
    # 16x+d | 1 | -16x+16; F^7 on SIGMA from (300-435b, 2b-1) to (29b-20, 2b-1); b = (40d+563)/(2(29d+408))
    "beta": TrapezoidFamily(
        "beta", -16, F(15, 16), 7, "SIGMA", (((300, -435), (-1, 2)), ((-20, 29), (-1, 2))), (40, 563, 58, 816)
    ),
}


def phi_family() -> TrapezoidFamily:
    return _FAMILIES["alpha"]


def psi_family() -> TrapezoidFamily:
    return _FAMILIES["beta"]


def trapezoid_family(tag: str) -> TrapezoidFamily:
    if tag not in _FAMILIES:
        raise ValueError(f"unknown transition tag {tag!r}")
    return _FAMILIES[tag]


# ---------------------------------------------------------------------------
# The concrete first-return maps behind the conjugacies
# ---------------------------------------------------------------------------

def _require_window(b: Fraction, fam: TrapezoidFamily, what: str):
    lo, hi = fam.b_window
    if not lo <= b <= hi:
        raise ValueError(f"{what} requires b in [{lo}, {hi}]")


def build_k1(b) -> PiecewiseAffine1D:
    """The 7-step return map on the second window's invariant interval.

    16x+4-3b, then constant 29b-20, then -16x+29b-20 on
    [300-435b, 29b-20].  Outside the stated parameter window the interval is
    no longer invariant, so construction is refused there.
    """
    b = Fraction(b)
    _require_window(b, psi_family(), "build_k1")
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


def k1_from_return_map(b) -> PiecewiseAffine1D:
    """Independent construction of build_k1 by exact 7-fold composition of F."""
    b = Fraction(b)
    fam = psi_family()
    _require_window(b, fam, "k1_from_return_map")
    return restrict_iterate_to_segment(Params.standard(b), fam.segment(b), fam.return_power)


# ---------------------------------------------------------------------------
# Certification
# ---------------------------------------------------------------------------


class OrbitCertificate(NamedTuple):
    d: Fraction
    b: Fraction
    pattern: Itinerary
    orbit: tuple[Fraction, ...]
    kind: str  # "radius_one" or "radius_above_one"


class CertifiedInterval(NamedTuple):
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
        p = len(self.hi_certificate.pattern.symbols)
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
        import json  # only where JSON is written, as in `cli.cmd_graph`

        return json.dumps(self.to_json(), indent=2) + "\n"


def _orbit_succ(frame: IntegerFrame, orbit: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """Successor lists of the covering digraph of `frame.partition` cut at a
    periodic orbit (numerators over frame.q), constancy cells dropped: every
    kept cell is monotone and each edge is exact covering."""
    _, cells = frame.partition(orbit)
    nodes = [i for i, (_, cover) in enumerate(cells) if cover is not None]
    pos = {i: k for k, i in enumerate(nodes)}
    return tuple(tuple(pos[j] for j in cells[i][1] if j in pos) for i in nodes)


class _Endpoint(NamedTuple):
    """An `OrbitCertificate` whose orbit is held as numerators over q."""

    d: Fraction
    b: Fraction
    pattern: Itinerary
    q: int
    orbit: tuple[int, ...]
    kind: str

    def certificate(self) -> OrbitCertificate:
        orbit = tuple(Fraction(x, self.q) for x in self.orbit)
        return OrbitCertificate(self.d, self.b, self.pattern, orbit, self.kind)

    def matches(self, cert: OrbitCertificate) -> bool:
        """Whether `cert` states this endpoint: the same d, b, pattern and
        kind, and each point x, in lowest terms, with x.denominator dividing
        q and x.numerator * (q // x.denominator) its numerator.  The orbit
        shares a few denominators, so each quotient is computed once."""
        if (cert.d, cert.b, cert.pattern, cert.kind) != (self.d, self.b, self.pattern, self.kind):
            return False
        if len(cert.orbit) != len(self.orbit):
            return False
        scale: dict[int, int] = {}  # denominator -> q // denominator
        for x, n in zip(cert.orbit, self.orbit):
            k = scale.get(x.denominator)
            if k is None:
                k, r = divmod(self.q, x.denominator)
                if r:
                    return False
                scale[x.denominator] = k
            if x.numerator * k != n:
                return False
        return True


def _endpoint(fam: TrapezoidFamily, d: Fraction, pattern: Itinerary) -> _Endpoint | None:
    """The orbit of 1 at parameter d, or None when it is not periodic with
    exactly `pattern` as its itinerary (a window end where the pattern
    degenerates).  One walk on the numerators of the map's integer frame
    gives both the orbit and its itinerary."""
    m = fam.at(d)
    frame, (one,) = m.integer_frame((1,))
    period = len(pattern.symbols)
    xs, idx = frame.walk(one, period)
    if xs[period] != xs[0] or len(set(xs[:period])) != period:
        return None
    if Itinerary(tuple(m.symbol(i) for i in idx)) != pattern:
        return None
    side = compare_radius(_orbit_succ(frame, xs[:period]), 1)
    kind = ("radius_below_one", "radius_one", "radius_above_one")[side + 1]
    return _Endpoint(d, fam.d_to_b(d), pattern, frame.q, tuple(xs[:period]), kind)


def _window_endpoints(fam: TrapezoidFamily, pattern: Itinerary, kind: str) -> list[_Endpoint]:
    """Endpoints at the valid ends of the pattern's closing window, each of `kind`."""
    window = fam.window(pattern)
    if window is None:
        raise ValueError(f"pattern {pattern} admits no parameter window")
    out = [e for e in (_endpoint(fam, d, pattern) for d in window) if e is not None]
    if not out:
        raise AssertionError(f"no valid certificate at the window endpoints of {pattern}")
    if any(e.kind != kind for e in out):
        raise AssertionError(f"expected {kind} at the window endpoints of {pattern}")
    return out


def certify(tag: str, upper_period: int, lower_period: int) -> CertifiedInterval:
    """Certified rational bracket of the transition parameter.

    The upper side uses the period 3*2^k pattern (positive entropy via the
    odd-times-power period); the lower side uses the 2^k cascade pattern
    (induced digraph of spectral radius exactly 1).  Among the valid window
    endpoints the pair with the narrowest bracket is returned; only its two
    orbits are turned into Fractions.
    """
    fam = trapezoid_family(tag)
    uppers = _window_endpoints(fam, upper_pattern(upper_period), "radius_above_one")
    lowers = _window_endpoints(fam, lower_pattern(lower_period), "radius_one")
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
    return CertifiedInterval(tag, lo.b, up.b, lo.certificate(), up.certificate(), fam.return_power)


def verify_certificate(ci: CertifiedInterval) -> bool:
    """Re-derive both endpoint certificates from scratch; every field must match."""
    fam = trapezoid_family(ci.tag)
    lo, hi = ci.lo_certificate, ci.hi_certificate
    try:  # a pattern length that no doubling gives, or an orbit that escapes, is no certificate
        sides = ((lo, lower_pattern(len(lo.pattern.symbols)), "radius_one"),
                 (hi, upper_pattern(len(hi.pattern.symbols)), "radius_above_one"))
        for cert, pattern, kind in sides:
            end = _endpoint(fam, cert.d, pattern)
            if cert.kind != kind or end is None or not end.matches(cert):
                return False
    except ValueError:
        return False
    return (ci.lo, ci.hi) == (lo.b, hi.b) and ci.lo < ci.hi and ci.return_power == fam.return_power


def digits_report(ci: CertifiedInterval, limit: int | None = None) -> str:
    """Decimal digits shared by both bracket ends (the proven digits).

    Ends that share m fractional digits lie within 10^-m of each other, so
    comparing up to the first significant place of the width finds every
    shared digit.  `limit` keeps at most that many of them.
    """
    if limit is not None and limit < 0:
        raise ValueError(f"limit must be >= 0, got {limit}")
    if ci.lo == ci.hi:
        prefix = decimal_digits(ci.lo, limit if limit is not None else 60)
    else:
        places = max(1, first_digit_place(ci.hi - ci.lo))
        prefix = common_decimal_prefix(ci.lo, ci.hi, max_digits=places)
    if limit is not None:
        head, _, tail = prefix.partition(".")
        prefix = f"{head}.{tail[:limit]}" if tail and limit else head
    return prefix
