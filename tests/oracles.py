"""Fraction oracles for the integer engines of `planemap` and `piecewise`.

These are the earlier `fractions.Fraction` implementations: the piece
tracker that pushed a segment through F in the chart coordinate, the line
cover keyed by rational line equations, the invariance check and covering
relations built on them, and the Fraction transfer recursion of
`uncaptured_measures`.  The tests compare the engines with them; no
library code imports this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from pwldyn.piecewise import Piece, PiecewiseAffine1D, interval_gaps, interval_union, markov_partition, merged
from pwldyn.planemap import Params, Point, Segment

_QUADRANT_SIGNS = {1: (1, 1), 2: (-1, 1), 3: (-1, -1), 4: (1, -1)}


def quadrant_of(pt: Point) -> int:
    for q in (1, 2, 3, 4):
        sx, sy = _QUADRANT_SIGNS[q]
        if sx * pt.x >= 0 and sy * pt.y >= 0:
            return q
    raise AssertionError("unreachable")


def line_key(seg: Segment) -> tuple[Fraction, Fraction, Fraction]:
    """Canonical (A, B, C) with A*x + B*y = C describing the carrying line."""
    a = seg.dy
    b = -seg.dx
    c = a * seg.p.x + b * seg.p.y
    if a != 0:
        return (Fraction(1), b / a, c / a)
    return (Fraction(0), Fraction(1), c / b)


def contains_point(seg: Segment, pt: Point) -> bool:
    cross = seg.dx * (pt.y - seg.p.y) - seg.dy * (pt.x - seg.p.x)
    if cross != 0:
        return False
    t = seg.dx * (pt.x - seg.p.x) + seg.dy * (pt.y - seg.p.y)
    return 0 <= t <= seg.dx * seg.dx + seg.dy * seg.dy


# ---------------------------------------------------------------------------
# The piece tracker
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
    pieces = [_initial_piece(seg)]
    for _ in range(k):
        nxt: list[TrackedPiece] = []
        for piece in pieces:
            nxt.extend(_step_piece(params, piece))
        pieces = nxt
    return pieces


def restrict_iterate_to_segment(params: Params, seg: Segment, k: int) -> PiecewiseAffine1D:
    if k < 0:
        raise ValueError("k must be >= 0")
    pieces = iterate_segment_pieces(params, seg, k)
    A, B, C = line_key(seg)
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
    breakpoints.pop()
    lo, hi = seg.chart_interval()
    return merged(PiecewiseAffine1D(lo, hi, breakpoints, out_pieces, chart=axis))


# ---------------------------------------------------------------------------
# The line cover and what was built on it
# ---------------------------------------------------------------------------


class FractionLineCover:
    """Union of segments per carrying line, keyed by `line_key`."""

    def __init__(self, segments=()):
        self.lines: dict = {}
        for seg in segments:
            self.add(seg)

    def add(self, seg: Segment) -> bool:
        key = line_key(seg)
        lo, hi = seg.chart_interval()
        anchor, union = self.lines.get(key, (seg, []))
        self.lines[key] = (anchor, interval_union([*union, (lo, hi)]))
        return interval_gaps(lo, hi, union) != [(lo, hi)]

    def chart_gaps(self, key, lo, hi):
        entry = self.lines.get(key)
        return interval_gaps(lo, hi, entry[1] if entry else ())

    def gaps(self, seg: Segment) -> list[Segment]:
        return [
            Segment(seg.point_at_chart(lo), seg.point_at_chart(hi))
            for lo, hi in self.chart_gaps(line_key(seg), *seg.chart_interval())
        ]

    def overlaps(self, seg: Segment) -> bool:
        lo, hi = seg.chart_interval()
        return self.chart_gaps(line_key(seg), lo, hi) != [(lo, hi)]

    def segments(self) -> list[Segment]:
        return [
            Segment(anchor.point_at_chart(lo), anchor.point_at_chart(hi))
            for anchor, union in self.lines.values()
            for lo, hi in union
        ]


def image_gaps(params: Params, segments) -> tuple[list[Segment], list[Point]]:
    """(uncovered sub-segments, collapsed points off the union), as `verify_invariance` had them."""
    cover = FractionLineCover(segments)
    uncovered: list[Segment] = []
    bad_points: list[Point] = []
    for seg in segments:
        for piece in iterate_segment_pieces(params, seg, 1):
            p0 = piece.at(piece.t0)
            if not piece.is_collapsed:
                uncovered.extend(cover.gaps(Segment(p0, piece.at(piece.t1))))
            elif not any(contains_point(s, p0) for s in segments):
                bad_points.append(p0)
    return uncovered, bad_points


def image_cover_relations(params: Params, segments) -> tuple[list[list[int]], list[list[int]]]:
    """Sorted (lower, upper) successor lists, as `build_cover_digraph_pair` had them."""
    targets: dict = {}
    for j, seg in enumerate(segments):
        targets.setdefault(line_key(seg), []).append((j, *seg.chart_interval()))
    lower: list[list[int]] = [[] for _ in segments]
    upper: list[list[int]] = [[] for _ in segments]
    for i, seg in enumerate(segments):
        images = FractionLineCover(
            Segment(piece.at(piece.t0), piece.at(piece.t1))
            for piece in iterate_segment_pieces(params, seg, 1)
            if not piece.is_collapsed
        )
        for key in images.lines:
            for j, lo, hi in targets.get(key, ()):
                gaps = images.chart_gaps(key, lo, hi)
                if not gaps:
                    lower[i].append(j)
                if gaps != [(lo, hi)]:
                    upper[i].append(j)
    return [sorted(row) for row in lower], [sorted(row) for row in upper]


# ---------------------------------------------------------------------------
# The capture recursion
# ---------------------------------------------------------------------------


def uncaptured_measures(m: PiecewiseAffine1D, depth: int) -> list[Fraction]:
    cells = markov_partition(m)
    u = [b - a for a, b, _, _ in cells]
    out = [sum(u, Fraction(0))]
    for _ in range(depth):
        u = [Fraction(0) if cov is None else sum(u[cov.start:cov.stop], Fraction(0)) / abs(p.slope)
             for _, _, p, cov in cells]
        out.append(sum(u, Fraction(0)))
    return out
