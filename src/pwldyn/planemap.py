"""The planar map F(x,y) = (|x|-y+a, x-|y|+b) and exact segment dynamics.

On each closed quadrant F is affine with an integer linear part, so the
image of a segment is computed exactly by splitting at the axes and
applying the quadrant matrices.  The segment engine (`SegmentLattice`,
`iterate_segment_pieces`) does this on integers.  It holds each point p
in one frame D as the integer pair D*p.  That is the rescaling
lam*F_{a,b}(p/lam) = F_{lam*a, lam*b}(p) at lam = D: F gets the integer
offsets (a*D, b*D) and maps Z^2 into Z^2.  A segment is walked by an
integer s along its primitive direction.

Frame invariant: every point, offset, piece end and chart interval the
engine holds is an integer in the current frame.  An axis crossing at a
non-integer s multiplies D, and every integer held, by the smallest
factor that makes it a lattice point; nothing is ever rounded.  Every
engine entry (`image_gaps`, `image_cover_relations`, `_restricted_frames`)
takes lattice ends and F's offsets in one frame, which its callers read
off integer tables (`graphs`, `band48`, `measure`).  Only the two public
wrappers that take `Segment`s, `restrict_iterate_to_segment` and
`detect_plateaus`, convert Fractions: to the least frame that clears
them and a, b (`_lattice_frame`).  The engine builds `Fraction`s only for
the values it returns, one per distinct coordinate (`_off_lattice`).  It
yields what F adds to a union of segments and the covering relations of a
partition under F, both on line covers, and the induced one-dimensional
map of F^k along a segment.  `Point` and `Segment` are records of Fraction
ends; the chart, line key and containment test are the engine's alone.

That induced map has integer slopes.  A piece of F^k is s -> P + s*v
with v an integer vector (F's linear parts are integer matrices), and it
stays on the segment's line only if v is parallel to the segment's
primitive direction u; then v = lam*u with lam an integer, and lam is the
piece's slope in the chart coordinate.  `_restricted_frames` checks both
facts and returns each map as an `IntegerFrame`, ready for the orbit
closure and the capture recursion with no `Fraction` round trip.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, groupby, repeat
from math import gcd, lcm
from typing import Iterable, Iterator, NamedTuple, Sequence

from pwldyn.piecewise import IntegerFrame, PiecewiseAffine1D, _lowest_frame
from pwldyn.rationals import rational_str


class Point(NamedTuple):
    x: Fraction
    y: Fraction

    def to_json(self) -> list[str]:
        return [rational_str(self.x), rational_str(self.y)]


def point(x, y) -> Point:
    return Point(Fraction(x), Fraction(y))


class Params(NamedTuple):
    a: Fraction
    b: Fraction

    @classmethod
    def standard(cls, b) -> "Params":
        """The normalized slice a = -1 used throughout the analysis."""
        return cls(Fraction(-1), Fraction(b))


class Segment:
    """The segment from p to q, p != q: a record of its two validated ends."""

    def __init__(self, p: Point, q: Point):
        if p == q:
            raise ValueError("degenerate segment")
        self.p = p
        self.q = q

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.p == other.p and self.q == other.q

    def __hash__(self) -> int:
        return hash((self.p, self.q))

    def __repr__(self) -> str:
        return f"Segment(p={self.p!r}, q={self.q!r})"


def segment(p1, p2) -> Segment:
    return Segment(point(*p1), point(*p2))


# ---------------------------------------------------------------------------
# The map
# ---------------------------------------------------------------------------


def apply_F(params: Params, pt: Point) -> Point:
    """F(x, y) = (|x| - y + a, x - |y| + b), evaluated exactly."""
    return Point(abs(pt.x) - pt.y + params.a, pt.x - abs(pt.y) + params.b)


# ---------------------------------------------------------------------------
# The segment engine on the lattice (1/D)Z^2
# ---------------------------------------------------------------------------
#
# A piece is a tuple (i, s0, s1, x0, vx, y0, vy): on s in [s0, s1] of
# segment i the current iterate is s -> (x0 + vx*s, y0 + vy*s), all in
# frame units.  Integer s runs over the lattice points of segment i.


def _on_frame(pt: Point, d: int) -> tuple[int, int]:
    """d*pt as an integer pair; d must be a multiple of both denominators."""
    return (pt.x.numerator * (d // pt.x.denominator), pt.y.numerator * (d // pt.y.denominator))


def _off_lattice(points: Iterable[tuple[int, int]], d: int) -> list[Point]:
    """The lattice points as `Point`s (x, y)/d, with one Fraction for each
    distinct coordinate."""
    points = list(points)
    values = set(chain.from_iterable(points))
    coords = dict(zip(values, map(Fraction, values, repeat(d))))
    return [Point(coords[x], coords[y]) for x, y in points]


def _lattice_segment_holds(p: tuple[int, int], q: tuple[int, int], pt: tuple[int, int]) -> bool:
    """Whether the lattice point pt lies on the segment from p to q != p
    (exact cross and dot tests)."""
    (px, py), (qx, qy), (x, y) = p, q, pt
    dx, dy = qx - px, qy - py
    if dx * (y - py) != dy * (x - px):
        return False
    return 0 <= dx * (x - px) + dy * (y - py) <= dx * dx + dy * dy


def _walk(x1: int, y1: int, x2: int, y2: int) -> tuple[int, int, int, int, int]:
    """(x, y, ux, uy, n): the lattice segment between two distinct points as
    n steps of its primitive direction u from (x, y), its end of lower chart
    coordinate (the chart is x when |ux| >= |uy|, else y).  Equal points
    raise ValueError."""
    dx, dy = x2 - x1, y2 - y1
    if (dx if abs(dx) >= abs(dy) else dy) < 0:
        x1, y1, dx, dy = x2, y2, -dx, -dy
    n = gcd(dx, dy)
    if not n:
        raise ValueError("degenerate segment")
    return x1, y1, dx // n, dy // n, n


def _line_chart(x1: int, y1: int, x2: int, y2: int) -> tuple[tuple[int, int, int], int, int]:
    """(key, lo, hi) of the lattice segment between two distinct points.

    The key (ux, uy, c) names the carrying line by the direction u of
    `_walk` and c = uy*X - ux*Y on the line; [lo, hi] is the segment's
    chart interval.
    """
    x, y, ux, uy, n = _walk(x1, y1, x2, y2)
    return _piece_chart((0, 0, n, x, ux, y, uy))


def _piece_chart(piece: tuple[int, ...]) -> tuple[tuple[int, int, int], int, int]:
    """(key, lo, hi) of the image of a piece that F has not collapsed, as
    `_line_chart` gives it: its direction v divided by +-gcd(v), so that
    the chart coordinate grows along it, and c read at s = 0.  A piece of a
    segment's own walk already has a primitive direction with a growing
    chart coordinate, so its key is that direction's."""
    _, s0, s1, x0, vx, y0, vy = piece
    t, v = (x0, vx) if abs(vx) >= abs(vy) else (y0, vy)
    g = gcd(vx, vy)
    if v < 0:
        g, s0, s1 = -g, s1, s0
    ux, uy = vx // g, vy // g
    return (ux, uy, uy * x0 - ux * y0), t + v * s0, t + v * s1


def _scaled(pieces: list[tuple[int, ...]], f: int) -> list[tuple[int, ...]]:
    """The same pieces in a frame f times finer: s, x0 and y0 scale by f."""
    return [(i, s0 * f, s1 * f, x0 * f, vx, y0 * f, vy) for i, s0, s1, x0, vx, y0, vy in pieces]


def _crossing_factor(pieces: list[tuple[int, ...]]) -> int:
    """Smallest frame factor that puts every axis crossing inside a piece at an integer s."""
    f = 1
    for _, s0, s1, x0, vx, y0, vy in pieces:
        for c, v in ((x0, vx), (y0, vy)):  # crossing at s = -c/v
            if v and c % v and ((s0 * v < -c < s1 * v) if v > 0 else (s0 * v > -c > s1 * v)):
                f = lcm(f, abs(v) // gcd(c, v))
    return f


def _step(pieces: list[tuple[int, ...]], a: int, b: int) -> list[tuple[int, ...]]:
    """Cut every piece at its axis crossings (integers) and apply F's quadrant branch."""
    out = []
    for i, s0, s1, x0, vx, y0, vy in pieces:
        xa, xb, ya, yb = x0 + vx * s0, x0 + vx * s1, y0 + vy * s0, y0 + vy * s1
        if not (xa < 0 < xb or xb < 0 < xa or ya < 0 < yb or yb < 0 < ya):
            # no crossing inside: one branch, that of the ends' midpoint
            sx = -1 if xa + xb < 0 else 1
            sy = -1 if ya + yb < 0 else 1
            out.append((i, s0, s1, sx * x0 - y0 + a, sx * vx - vy, x0 - sy * y0 + b, vx - sy * vy))
            continue
        cuts = {-c // v for c, v in ((x0, vx), (y0, vy)) if v and not c % v and s0 < -c // v < s1}
        ends = [s0, *sorted(cuts), s1]
        for lo, hi in zip(ends, ends[1:]):
            # F on the quadrant of the piece's midpoint: (sx*x - y + a, x - sy*y + b)
            sx = -1 if 2 * x0 + vx * (lo + hi) < 0 else 1
            sy = -1 if 2 * y0 + vy * (lo + hi) < 0 else 1
            out.append((i, lo, hi, sx * x0 - y0 + a, sx * vx - vy, x0 - sy * y0 + b, vx - sy * vy))
    return out


# A segment handed to the engine as lattice ends (x1, y1, x2, y2), p != q.
LatticeSegment = tuple[int, int, int, int]


def _lattice_frame(params: Params, segments: Sequence[Segment]) -> tuple[int, int, int, list[LatticeSegment]]:
    """(D, a*D, b*D, ends): the frame D clearing a, b and every segment end,
    and each segment's lattice ends in it."""
    d = lcm(params.a.denominator, params.b.denominator,
            *(v.denominator for seg in segments for pt in (seg.p, seg.q) for v in pt))
    ends = [(*_on_frame(seg.p, d), *_on_frame(seg.q, d)) for seg in segments]
    return d, params.a.numerator * (d // params.a.denominator), params.b.numerator * (d // params.b.denominator), ends


class SegmentLattice:
    """Segments and the offsets of F on the lattice (1/D)Z^2, D = `frame`.

    `starts[i]` is the identity piece of segment i, walked as in `_walk`:
    s runs over [0, n] and the chart coordinate grows with s.
    """

    def __init__(self, frame: int, a: int, b: int, segments: Sequence[LatticeSegment]):
        self.frame, self.a, self.b = frame, a, b
        self.starts = []
        for i, ends in enumerate(segments):
            x, y, ux, uy, n = _walk(*ends)
            self.starts.append((i, 0, n, x, ux, y, uy))

    def rescale(self, f: int) -> None:
        self.frame *= f
        self.a *= f
        self.b *= f
        self.starts = _scaled(self.starts, f)


def iterate_segment_pieces(lat: SegmentLattice, k: int) -> list[tuple[int, ...]]:
    """Pieces (i, s0, s1, x0, vx, y0, vy) of F^k on the segments of `lat`.

    On s in [s0, s1] of segment i, F^k is s -> (x0 + vx*s, y0 + vy*s),
    in lattice units; pieces come in segment order, then in s order, and
    collapsed ones (vx = vy = 0) are kept.  `lat` is rescaled in place
    whenever a crossing needs a finer frame.
    """
    pieces = lat.starts
    for _ in range(k):
        f = _crossing_factor(pieces)
        if f > 1:
            lat.rescale(f)
            pieces = _scaled(pieces, f)
        pieces = _step(pieces, lat.a, lat.b)
    return pieces


def _restricted_frames(frame: int, a: int, b: int, segments: Sequence[LatticeSegment], k: int) -> Iterator[IntegerFrame]:
    """Induced 1D maps of F^k along each of `segments`, in segment order,
    as `IntegerFrame`s in each segment's chart coordinate.

    The segments come as lattice ends in `frame`, where F has the offsets
    (a, b), and one lattice walks them all.  The image of every piece must
    land on its segment's own carrying line (exact cross-product test), and
    its direction is then an integer multiple of the segment's primitive
    one, the piece's slope; a failure of either raises ValueError when that
    segment's frame is reached.  Equal neighbouring pieces are merged, and
    each frame is over the least q, that of `PiecewiseAffine1D.integer_frame`.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    lat = SegmentLattice(frame, a, b, segments)
    pieces = iterate_segment_pieces(lat, k)
    for (_, _, _, px, ux, py, uy), (_, run) in zip(lat.starts, groupby(pieces, key=lambda p: p[0])):
        on_x = abs(ux) >= abs(uy)
        # chart t = (tp + ut*s)/D, and ut > 0
        tp, ut = (px, ux) if on_x else (py, uy)
        cuts, slopes, offsets = [tp], [], []
        for _, s0, s1, x0, vx, y0, vy in run:
            for s in (s0, s1):
                if ux * (y0 + vy * s - py) != uy * (x0 + vx * s - px):
                    raise ValueError("image of iterated segment left the carrying line")
            c0, v = (x0, vx) if on_x else (y0, vy)
            lam, rest = divmod(v, ut)
            if rest:
                raise ValueError("image direction is not an integer multiple of the segment's")
            cuts.append(tp + ut * s1)
            slopes.append(lam)
            offsets.append(c0 - lam * tp)  # D*t' = lam*(D*t) + c0 - lam*tp
        yield _lowest_frame(lat.frame, cuts, slopes, offsets)


def restrict_iterate_to_segment(params: Params, seg: Segment, k: int) -> PiecewiseAffine1D:
    """Induced 1D map of F^k along `seg`, in the segment's chart coordinate:
    the `Fraction` view of `_restricted_frames` on the one segment.

    The image of every piece must land on the segment's own carrying line
    (exact cross-product test); the returned map sends the chart coordinate
    of a point to the chart coordinate of its k-th image.
    """
    return next(_restricted_frames(*_lattice_frame(params, [seg]), k)).to_map()


def image_gaps(frame: int, a: int, b: int, segments: Sequence[LatticeSegment]) -> tuple[list[Segment], list[Point]]:
    """What F adds to the union of `segments`: (sub-segments, points).

    The segments come as lattice ends in `frame`, where F has the offsets
    (a, b).  Each is split at the axes and every affine piece is pushed
    through F.  The sub-segments are the maximal parts of the images outside
    the union, piece by piece, each oriented by growing chart coordinate.
    The points are those off the union to which F collapses a piece.
    """
    lat = SegmentLattice(frame, a, b, segments)
    pieces = iterate_segment_pieces(lat, 1)
    cover = _line_cover(_piece_chart(start) for start in lat.starts)
    gaps: list[Segment] = []
    points: list[tuple[int, int]] = []
    for piece in pieces:
        if piece[4] or piece[6]:
            key, lo, hi = _piece_chart(piece)
            for g0, g1 in interval_gaps(lo, hi, cover.get(key, ())):
                gaps.append(_chart_segment(key, g0, g1, lat.frame))
        elif not _cover_contains(cover, piece[3], piece[5]):
            points.append((piece[3], piece[5]))
    return gaps, _off_lattice(points, lat.frame)


def image_cover_relations(frame: int, a: int, b: int, partition: Sequence[tuple[str, LatticeSegment]],
                          hosts: Sequence[LatticeSegment]) -> tuple[list[list[int]], list[list[int]]]:
    """(lower, upper) of the named partition intervals under F: lower[i]
    lists the j with interval j inside F(interval i); upper[i] lists the j
    that F(interval i) meets in a part of positive length.

    Intervals and `hosts`, the segments of their graph, come as lattice
    ends in `frame`, where F has the offsets (a, b).  The first interval,
    in partition order, that overlaps an earlier one with positive length
    is refused, naming the earliest such; then so is the first interval not
    wholly inside the union of the hosts.
    """
    lat = SegmentLattice(frame, a, b, [ends for _, ends in partition])
    pieces = iterate_segment_pieces(lat, 1)
    charts = [_piece_chart(start) for start in lat.starts]
    targets: dict[tuple[int, int, int], list[tuple[int, int, int]]] = {}
    for j, (key, lo, hi) in enumerate(charts):
        for i, ilo, ihi in targets.get(key, ()):
            if lo < ihi and ilo < hi:
                raise ValueError(f"partition intervals {partition[i][0]} and {partition[j][0]} overlap")
        targets.setdefault(key, []).append((j, lo, hi))
    f = lat.frame // frame  # the walk's refinement
    cover = _line_cover(_line_chart(x1 * f, y1 * f, x2 * f, y2 * f) for x1, y1, x2, y2 in hosts)
    for (label, _), (key, lo, hi) in zip(partition, charts):
        if interval_gaps(lo, hi, cover.get(key, ())):
            raise ValueError(f"partition interval {label} is not on the graph")
    # the image of interval i on each line, keyed (i, line) in piece order
    images: dict[tuple, list[tuple[int, int]]] = {}
    for piece in pieces:
        if piece[4] or piece[6]:
            key, lo, hi = _piece_chart(piece)
            images.setdefault((piece[0], key), []).append((lo, hi))
    lower: list[list[int]] = [[] for _ in partition]
    upper: list[list[int]] = [[] for _ in partition]
    for (i, key), intervals in images.items():
        union = interval_union(intervals)
        for j, lo, hi in targets.get(key, ()):
            gaps = interval_gaps(lo, hi, union)
            if not gaps:
                lower[i].append(j)
            if gaps != [(lo, hi)]:
                upper[i].append(j)
    return lower, upper


# ---------------------------------------------------------------------------
# Line covers: unions of segments on carrying lines
# ---------------------------------------------------------------------------
#
# A line cover maps each line key of `_line_chart` to the line's sorted
# disjoint chart intervals, lines in order of first appearance, all in the
# frame of the lattice after its last rescaling.  Segments of one line share
# its chart whatever their orientation; touching ones merge, and contact at
# a single point is no overlap.


def interval_union(intervals) -> list[tuple]:
    """Sorted disjoint union of closed intervals; touching intervals merge."""
    out: list[tuple] = []
    for lo, hi in sorted(intervals):
        if out and lo <= out[-1][1]:
            if hi > out[-1][1]:
                out[-1] = (out[-1][0], hi)
        else:
            out.append((lo, hi))
    return out


def interval_gaps(lo, hi, union) -> list[tuple]:
    """Parts of positive length of [lo, hi] outside a sorted disjoint union."""
    gaps = []
    for clo, chi in union:
        if clo >= hi:
            break
        if chi > lo:
            if clo > lo:
                gaps.append((lo, clo))
            lo = chi
    if lo < hi:
        gaps.append((lo, hi))
    return gaps


def _line_cover(charts) -> dict[tuple[int, int, int], list[tuple[int, int]]]:
    """The line cover of (key, lo, hi) charts: each line merged once."""
    lines: dict[tuple[int, int, int], list[tuple[int, int]]] = {}
    for key, lo, hi in charts:
        lines.setdefault(key, []).append((lo, hi))
    return {key: interval_union(intervals) if len(intervals) > 1 else intervals for key, intervals in lines.items()}


def _cover_contains(cover: dict, x: int, y: int) -> bool:
    """Whether the lattice point (x, y) lies in the line cover."""
    for (ux, uy, c), union in cover.items():
        if uy * x - ux * y == c:
            t = x if abs(ux) >= abs(uy) else y
            if any(lo <= t <= hi for lo, hi in union):
                return True
    return False


def _chart_segment(key: tuple[int, int, int], lo: int, hi: int, frame: int) -> Segment:
    """The segment of chart interval [lo, hi] on line `key`, off the lattice of `frame`."""
    ux, uy, c = key
    if abs(ux) >= abs(uy):
        ends = ((lo, (uy * lo - c) // ux), (hi, (uy * hi - c) // ux))
    else:
        ends = (((c + ux * lo) // uy, lo), ((c + ux * hi) // uy, hi))
    return Segment(*_off_lattice(ends, frame))


# ---------------------------------------------------------------------------
# Plateaus
# ---------------------------------------------------------------------------


def detect_plateaus(graph_or_segments) -> list[Segment]:
    """Maximal sub-segments that F collapses to a point.

    These are the pieces of one F step whose image has direction 0: the
    linear part of F does not depend on (a, b), so the step runs at
    a = b = 0.  Accepts a planar graph or any iterable of segments.
    """
    segments = getattr(graph_or_segments, "all_segments", None)
    segs = list(segments() if callable(segments) else graph_or_segments)
    lat = SegmentLattice(*_lattice_frame(Params(Fraction(0), Fraction(0)), segs))
    pieces = iterate_segment_pieces(lat, 1)  # may refine lat.frame
    cover = _line_cover(_piece_chart((i, s0, s1, *lat.starts[i][3:]))
                        for i, s0, s1, _, vx, _, vy in pieces if not vx and not vy)
    return [_chart_segment(key, lo, hi, lat.frame) for key, union in cover.items() for lo, hi in union]
