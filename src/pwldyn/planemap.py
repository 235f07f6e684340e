"""The planar map F(x,y) = (|x|-y+a, x-|y|+b) and exact segment dynamics.

On each closed quadrant F is affine, so the image of a segment is computed
exactly by splitting at the axes and applying the quadrant matrices.  That
machinery yields invariance checks for planar graphs and the induced
one-dimensional map of F^k along a segment.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Iterable, NamedTuple

from pwldyn.piecewise import Piece, PiecewiseAffine1D, interval_gaps, interval_union, merged
from pwldyn.rationals import rational_str


class Point(NamedTuple):
    x: Fraction
    y: Fraction

    def to_json(self) -> list[str]:
        return [rational_str(self.x), rational_str(self.y)]


def point(x, y) -> Point:
    return Point(Fraction(x), Fraction(y))


@dataclass(frozen=True)
class Params:
    a: Fraction
    b: Fraction

    @classmethod
    def standard(cls, b) -> "Params":
        """The normalized slice a = -1 used throughout the analysis."""
        return cls(Fraction(-1), Fraction(b))


@dataclass(frozen=True)
class Segment:
    p: Point
    q: Point

    def __post_init__(self):
        if self.p == self.q:
            raise ValueError("degenerate segment")

    @cached_property
    def dx(self) -> Fraction:
        return self.q.x - self.p.x

    @cached_property
    def dy(self) -> Fraction:
        return self.q.y - self.p.y

    def line_key(self) -> tuple[Fraction, Fraction, Fraction]:
        """Canonical (A, B, C) with A*x + B*y = C describing the carrying line."""
        a = self.dy
        b = -self.dx
        c = a * self.p.x + b * self.p.y
        if a != 0:
            return (Fraction(1), b / a, c / a)
        return (Fraction(0), Fraction(1), c / b)

    def chart_axis(self) -> str:
        """Coordinate used as the 1D chart: the one with larger span (ties -> x)."""
        return "x" if abs(self.dx) >= abs(self.dy) else "y"

    def chart_interval(self) -> tuple[Fraction, Fraction]:
        if self.chart_axis() == "x":
            a, b = self.p.x, self.q.x
        else:
            a, b = self.p.y, self.q.y
        return (a, b) if a <= b else (b, a)

    def point_at_chart(self, t: Fraction) -> Point:
        axis = self.chart_axis()
        if axis == "x":
            s = (t - self.p.x) / self.dx
        else:
            s = (t - self.p.y) / self.dy
        return Point(self.p.x + s * self.dx, self.p.y + s * self.dy)

    def contains_point(self, pt: Point) -> bool:
        cross = self.dx * (pt.y - self.p.y) - self.dy * (pt.x - self.p.x)
        if cross != 0:
            return False
        t = self.dx * (pt.x - self.p.x) + self.dy * (pt.y - self.p.y)
        return 0 <= t <= self.dx * self.dx + self.dy * self.dy

    def chart_length(self) -> Fraction:
        lo, hi = self.chart_interval()
        return hi - lo

    def to_json(self) -> dict:
        return {"p": self.p.to_json(), "q": self.q.to_json()}


def segment(p1, p2) -> Segment:
    return Segment(point(*p1), point(*p2))


# ---------------------------------------------------------------------------
# Quadrants and the map
# ---------------------------------------------------------------------------

# Closed quadrants: Q1 = {x>=0, y>=0}, Q2 = {x<=0, y>=0},
# Q3 = {x<=0, y<=0}, Q4 = {x>=0, y<=0}.  Sign pairs (sx, sy) give
# |x| = sx*x and |y| = sy*y on the quadrant.
_QUADRANT_SIGNS = {1: (1, 1), 2: (-1, 1), 3: (-1, -1), 4: (1, -1)}


def quadrant_of(pt: Point) -> int:
    """Lowest-index closed quadrant containing the point.

    The tie-break on the axes is a pure bookkeeping convention: F is
    continuous, so the value of F never depends on the choice.
    """
    for q in (1, 2, 3, 4):
        sx, sy = _QUADRANT_SIGNS[q]
        if sx * pt.x >= 0 and sy * pt.y >= 0:
            return q
    raise AssertionError("unreachable")


@dataclass(frozen=True)
class QuadrantAffine:
    """Affine expression of F on one closed quadrant: linear part and offset."""

    quadrant: int
    matrix: tuple[tuple[int, int], tuple[int, int]]
    offset: tuple[Fraction, Fraction]

    def apply(self, pt: Point) -> Point:
        (m11, m12), (m21, m22) = self.matrix
        return Point(
            m11 * pt.x + m12 * pt.y + self.offset[0],
            m21 * pt.x + m22 * pt.y + self.offset[1],
        )


def quadrant_affine(params: Params, q: int) -> QuadrantAffine:
    sx, sy = _QUADRANT_SIGNS[q]
    return QuadrantAffine(q, ((sx, -1), (1, -sy)), (params.a, params.b))


def apply_F(params: Params, pt: Point) -> Point:
    """F(x, y) = (|x| - y + a, x - |y| + b), evaluated exactly."""
    return Point(abs(pt.x) - pt.y + params.a, pt.x - abs(pt.y) + params.b)


def scale_conjugate_check(params: Params, lam: Fraction, pt: Point) -> bool:
    """Whether lam * F_{a,b}(pt/lam) equals F_{lam*a, lam*b}(pt) exactly.

    The identity holds for every lam > 0 and reduces the family to the
    one-parameter slice a = -1.
    """
    lam = Fraction(lam)
    if lam <= 0:
        raise ValueError("scaling factor must be positive")
    inner = apply_F(params, Point(pt.x / lam, pt.y / lam))
    lhs = Point(lam * inner.x, lam * inner.y)
    rhs = apply_F(Params(lam * params.a, lam * params.b), pt)
    return lhs == rhs


def iterate_F(params: Params, pt: Point, k: int) -> Point:
    for _ in range(k):
        pt = apply_F(params, pt)
    return pt


# ---------------------------------------------------------------------------
# Exact piecewise iteration of a segment
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrackedPiece:
    """Image of the sub-segment t in [t0, t1]: (x0+vx*t, y0+vy*t)."""

    t0: Fraction
    t1: Fraction
    x0: Fraction
    vx: Fraction
    y0: Fraction
    vy: Fraction

    def at(self, t: Fraction) -> Point:
        return Point(self.x0 + self.vx * t, self.y0 + self.vy * t)

    @property
    def is_collapsed(self) -> bool:
        return self.vx == 0 and self.vy == 0


def _initial_piece(seg: Segment) -> TrackedPiece:
    t0, t1 = seg.chart_interval()
    if seg.chart_axis() == "x":
        vx = Fraction(1)
        vy = seg.dy / seg.dx
        x0 = Fraction(0)
        y0 = seg.p.y - vy * seg.p.x
    else:
        vy = Fraction(1)
        vx = seg.dx / seg.dy
        y0 = Fraction(0)
        x0 = seg.p.x - vx * seg.p.y
    return TrackedPiece(t0, t1, x0, vx, y0, vy)


def _axis_crossings(piece: TrackedPiece) -> list[Fraction]:
    cuts = []
    for c0, v in ((piece.x0, piece.vx), (piece.y0, piece.vy)):
        if v != 0:
            t = -c0 / v
            if piece.t0 < t < piece.t1:
                cuts.append(t)
    return sorted(set(cuts))


def _step_piece(params: Params, piece: TrackedPiece) -> list[TrackedPiece]:
    cuts = [piece.t0, *_axis_crossings(piece), piece.t1]
    out = []
    for a, b in zip(cuts, cuts[1:]):
        mid = (a + b) / 2
        q = quadrant_of(piece.at(mid))
        sx, sy = _QUADRANT_SIGNS[q]
        # F on the quadrant: (sx*x - y + a, x - sy*y + b)
        nx0 = sx * piece.x0 - piece.y0 + params.a
        nvx = sx * piece.vx - piece.vy
        ny0 = piece.x0 - sy * piece.y0 + params.b
        nvy = piece.vx - sy * piece.vy
        out.append(TrackedPiece(a, b, nx0, nvx, ny0, nvy))
    return out


def iterate_segment_pieces(params: Params, seg: Segment, k: int) -> list[TrackedPiece]:
    """Exact piecewise-affine image of F^k restricted to `seg`.

    Each returned piece maps a chart sub-interval of `seg` affinely into the
    plane; collapsed pieces (constant image) are kept.
    """
    pieces = [_initial_piece(seg)]
    for _ in range(k):
        nxt: list[TrackedPiece] = []
        for piece in pieces:
            nxt.extend(_step_piece(params, piece))
        pieces = nxt
    return pieces


def restrict_iterate_to_segment(params: Params, seg: Segment, k: int) -> PiecewiseAffine1D:
    """Induced 1D map of F^k along `seg`, in the segment's chart coordinate.

    The image of every piece must land on the segment's own carrying line
    (exact cross-product test); the returned map sends the chart coordinate
    of a point to the chart coordinate of its k-th image.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    pieces = iterate_segment_pieces(params, seg, k)
    A, B, C = seg.line_key()
    axis = seg.chart_axis()
    out_pieces = []
    breakpoints = []
    for piece in pieces:
        for t in (piece.t0, piece.t1):
            pt = piece.at(t)
            if A * pt.x + B * pt.y != C:
                raise ValueError("image of iterated segment left the carrying line")
        if axis == "x":
            slope, offset = piece.vx, piece.x0
        else:
            slope, offset = piece.vy, piece.y0
        out_pieces.append(Piece(slope, offset))
        breakpoints.append(piece.t1)
    breakpoints.pop()  # last right endpoint is the domain end
    lo, hi = seg.chart_interval()
    return merged(PiecewiseAffine1D(lo, hi, breakpoints, out_pieces, chart=axis))


# ---------------------------------------------------------------------------
# Unions of segments on carrying lines
# ---------------------------------------------------------------------------


class LineCover:
    """Union of segments, kept per carrying line as sorted disjoint chart intervals.

    All segments of one line share its chart (`Segment.chart_axis` depends
    only on the slope), whatever their orientation.  Segments that touch
    merge; contact at a single point is no overlap.
    """

    def __init__(self, segments: Iterable[Segment] = ()):
        # line key -> (first segment added, which charts the line; union)
        self.lines: dict[tuple, tuple[Segment, list[tuple[Fraction, Fraction]]]] = {}
        for seg in segments:
            self.add(seg)

    def add(self, seg: Segment) -> bool:
        """Add `seg`; whether it overlapped the cover before."""
        key = seg.line_key()
        lo, hi = seg.chart_interval()
        anchor, union = self.lines.get(key, (seg, []))
        self.lines[key] = (anchor, interval_union([*union, (lo, hi)]))
        return interval_gaps(lo, hi, union) != [(lo, hi)]

    def chart_gaps(self, key, lo: Fraction, hi: Fraction) -> list[tuple[Fraction, Fraction]]:
        """Parts of the chart interval [lo, hi] of line `key` outside the cover."""
        entry = self.lines.get(key)
        return interval_gaps(lo, hi, entry[1] if entry else ())

    def gaps(self, seg: Segment) -> list[Segment]:
        """Maximal sub-segments of `seg` outside the cover."""
        return [
            Segment(seg.point_at_chart(lo), seg.point_at_chart(hi))
            for lo, hi in self.chart_gaps(seg.line_key(), *seg.chart_interval())
        ]

    def overlaps(self, seg: Segment) -> bool:
        """Whether `seg` shares a sub-segment of positive length with the cover."""
        lo, hi = seg.chart_interval()
        return self.chart_gaps(seg.line_key(), lo, hi) != [(lo, hi)]

    def segments(self) -> list[Segment]:
        """Maximal segments of the union, line by line in order of first addition."""
        return [
            Segment(anchor.point_at_chart(lo), anchor.point_at_chart(hi))
            for anchor, union in self.lines.values()
            for lo, hi in union
        ]


# ---------------------------------------------------------------------------
# Plateaus
# ---------------------------------------------------------------------------


def detect_plateaus(graph_or_segments) -> list[Segment]:
    """Maximal sub-segments that F collapses to a point.

    These are exactly the pieces of slope +1 inside the closed first
    quadrant and of slope -1 inside the closed third quadrant (there the
    affine branch of F kills the segment direction).  Accepts a planar
    graph or any iterable of segments.
    """
    segments = getattr(graph_or_segments, "all_segments", None)
    segs: Iterable[Segment] = segments() if callable(segments) else graph_or_segments
    found: list[Segment] = []
    for seg in segs:
        if seg.dx == 0:
            continue
        slope = seg.dy / seg.dx
        if slope == 1:
            clipped = _clip_to_quadrant(seg, 1)
        elif slope == -1:
            clipped = _clip_to_quadrant(seg, 3)
        else:
            continue
        if clipped is not None:
            found.append(clipped)
    return LineCover(found).segments()


def _clip_to_quadrant(seg: Segment, q: int) -> Segment | None:
    sx, sy = _QUADRANT_SIGNS[q]
    piece = _initial_piece(seg)
    t0, t1 = piece.t0, piece.t1
    # Require sx*x(t) >= 0 and sy*y(t) >= 0; both are affine in t.
    for c0, v in ((sx * piece.x0, sx * piece.vx), (sy * piece.y0, sy * piece.vy)):
        if v == 0:
            if c0 < 0:
                return None
        else:
            t_at = -c0 / v
            if v > 0:
                t0 = max(t0, t_at)
            else:
                t1 = min(t1, t_at)
    if t0 >= t1:
        return None
    return Segment(piece.at(t0), piece.at(t1))
