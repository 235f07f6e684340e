"""Reference implementations that only the tests use.

Most are the earlier `fractions.Fraction` implementations of the integer
engines of `planemap`, `piecewise` and `markov`: the piece tracker that
pushed a segment through F in the chart coordinate, the line cover keyed
by rational line equations, the invariance check and covering relations
built on them, the Fraction evaluation of the graph tables and of their
orbit relations, the Fraction orbit-closure Markov partition, the Fraction
transfer recursion (`fraction_uncaptured_measures`) and the interval
preimages it replaced, and the Gauss-Jordan radius comparison over the
rationals.  The colour depth-first search for a cycle off a node set and
the path stack that listed every rome-to-rome path are the earlier forms
of the Kahn pass and the path count of `markov`.  The float power
iteration without its early exit is kept too.  The parameter-affine map
family and its closing window are the earlier generic form of
`certify.TrapezoidFamily`, and the per-window d -> b maps and invariant
segments are the earlier hand-written form of its table.  The Sturm chain,
gcd and square-free part by Fraction long division are the earlier form of
the integer pseudo-division in `polys`.  The band48 cross-check that also
built the entropy brackets and compared two radius enclosures is kept as
the earlier form of `band48.cross_check_entropy`.  The refinement loop
that built every probe's exact integer, with no sign bounds, is kept as
the earlier form of `RootInterval.refined`, and `DensePoly`, the dense
coefficient tuple with its arithmetic, is the earlier form of `IntPoly`.
The ln bracket that summed every atanh series rounded both ways, where
`rationals` now sums the one way each end keeps, is kept as the earlier
form of `ln_enclosure(x, x, err)`, and the cofactor expansion as the
earlier form of the fraction-free determinant `polys.poly_det`.
The merge of equal pieces and the affine conjugation of a map on Fractions
are the earlier forms of their integer-frame versions, the capture
recursion that runs every step (`capture_vectors`) is the earlier form of
the one that stops at the first repeated vector, and the band48 partition
read off the graph's Fraction points is the earlier form of the lattice
partition.
The union and gaps of closed intervals on a line are read off counts over
the cells between their ends, apart from the sorted sweeps of `planemap`
that the engine uses.
The Fraction views of three integer engines (the orbit-closure partition,
the covering digraph of a periodic orbit and the band48 lattice
partition), the closed-form band48 orbit point and the return map cores
`build_g2` and `build_g3` of the first transition window left the library
when only tests read them.  An edge's return map is built by the piece
tracker on Fractions, apart from the lattice engine that `measure` calls.
The rest are small checks of the map and of digraphs that back statements
in the tests (quadrant pieces, the rescaling identity, simple cycles, the
trapezoid shape and the inverse parameter changes), and helpers that only
tests read: the itinerary of a point, the uncaptured measures as
Fractions, and the Fraction geometry of a segment (its chart axis and
interval, a point by its chart coordinate, point-on-segment and
point-on-graph tests, a graph's point and edge by name).  `Segment` is a
record of its two ends, so these oracles keep their own chart rule rather
than borrow the lattice engine's.  No library code imports this module.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

from pwldyn import band48, certify, graphs
from pwldyn.markov import CoverDigraph, _cyclic_components, spectral_radius
from pwldyn.piecewise import Itinerary, Piece, PiecewiseAffine1D
from pwldyn.planemap import Params, Point, Segment, _off_lattice, apply_F
from pwldyn.polys import IntPoly, RootInterval, _homogeneous, _sign, descartes_positive_sign_changes

_QUADRANT_SIGNS = {1: (1, 1), 2: (-1, 1), 3: (-1, -1), 4: (1, -1)}


def quadrant_of(pt: Point) -> int:
    for q in (1, 2, 3, 4):
        sx, sy = _QUADRANT_SIGNS[q]
        if sx * pt.x >= 0 and sy * pt.y >= 0:
            return q
    raise AssertionError("unreachable")


def deltas(seg: Segment) -> tuple[Fraction, Fraction]:
    """(dx, dy) = q - p."""
    return seg.q.x - seg.p.x, seg.q.y - seg.p.y


def chart_axis(seg: Segment) -> str:
    """Coordinate used as the 1D chart: the one with larger span (ties -> x)."""
    dx, dy = deltas(seg)
    return "x" if abs(dx) >= abs(dy) else "y"


def chart_interval(seg: Segment) -> tuple[Fraction, Fraction]:
    """The segment's chart coordinates, in increasing order."""
    a, b = (seg.p.x, seg.q.x) if chart_axis(seg) == "x" else (seg.p.y, seg.q.y)
    return (a, b) if a <= b else (b, a)


def line_key(seg: Segment) -> tuple[Fraction, Fraction, Fraction]:
    """Canonical (A, B, C) with A*x + B*y = C describing the carrying line."""
    dx, dy = deltas(seg)
    a, b = dy, -dx
    c = a * seg.p.x + b * seg.p.y
    if a != 0:
        return (Fraction(1), b / a, c / a)
    return (Fraction(0), Fraction(1), c / b)


def point_at_chart(seg: Segment, t: Fraction) -> Point:
    dx, dy = deltas(seg)
    s = (t - seg.p.x) / dx if chart_axis(seg) == "x" else (t - seg.p.y) / dy
    return Point(seg.p.x + s * dx, seg.p.y + s * dy)


def contains_point(seg: Segment, pt: Point) -> bool:
    dx, dy = deltas(seg)
    if dx * (pt.y - seg.p.y) != dy * (pt.x - seg.p.x):
        return False
    t = dx * (pt.x - seg.p.x) + dy * (pt.y - seg.p.y)
    return 0 <= t <= dx * dx + dy * dy


def graph_contains(g: graphs.PlanarGraph, pt: Point) -> bool:
    """Whether the point lies on an edge of the graph."""
    return any(contains_point(seg, pt) for seg in g.all_segments())


def named_point(g: graphs.PlanarGraph, name: str) -> Point:
    """The graph's vertex or mark of that name."""
    return g.vertices[name] if name in g.vertices else g.marks[name][0]


def edge_segment(g: graphs.PlanarGraph, name: str) -> Segment:
    """The graph's edge of that name, from its first vertex to its second."""
    (e,) = (e for e in g.edges if e.name == name)
    return Segment(g.vertices[e.a], g.vertices[e.b])


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
    t0, t1 = chart_interval(seg)
    dx, dy = deltas(seg)
    if chart_axis(seg) == "x":
        vx = Fraction(1)
        vy = dy / dx
        x0 = Fraction(0)
        y0 = seg.p.y - vy * seg.p.x
    else:
        vy = Fraction(1)
        vx = dx / dy
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


def merged(m: PiecewiseAffine1D) -> PiecewiseAffine1D:
    """m with adjacent pieces of identical affine data merged, on Fractions."""
    pieces, bps = [m.pieces[0]], []
    for b, p in zip(m.breakpoints, m.pieces[1:]):
        if (p.slope, p.offset) != (pieces[-1].slope, pieces[-1].offset):
            bps.append(b)
            pieces.append(p)
    return PiecewiseAffine1D(m.lo, m.hi, bps, pieces)


def conjugate_affine(m: PiecewiseAffine1D, p: Fraction, q: Fraction) -> PiecewiseAffine1D:
    """Conjugate by h(x) = p*x + q: returns h o m o h^-1 on the image chart."""
    if p == 0:
        raise ValueError("conjugating map must be invertible")
    cuts = [p * c + q for c in (m.lo, *m.breakpoints, m.hi)]
    pieces = [Piece(pc.slope, p * Fraction(pc.offset) + q * (1 - pc.slope), pc.name) for pc in m.pieces]
    if p < 0:
        cuts.reverse()
        pieces.reverse()
    return PiecewiseAffine1D(cuts[0], cuts[-1], cuts[1:-1], pieces)


def restrict_iterate_to_segment(params: Params, seg: Segment, k: int) -> PiecewiseAffine1D:
    if k < 0:
        raise ValueError("k must be >= 0")
    pieces = iterate_segment_pieces(params, seg, k)
    A, B, C = line_key(seg)
    axis = chart_axis(seg)
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
    lo, hi = chart_interval(seg)
    return merged(PiecewiseAffine1D(lo, hi, breakpoints, out_pieces))


# ---------------------------------------------------------------------------
# Interval algebra on a line, from the elementary cells of the cut points
# ---------------------------------------------------------------------------


def _coverage(intervals) -> tuple[list, list[int], list[int]]:
    """The sorted distinct ends of the closed `intervals`, and how many of
    the intervals hold each end and each open cell between consecutive
    ends."""
    values = [v for iv in intervals for v in iv]
    cuts: list = []
    at = [0] * len(values)
    for k in sorted(range(len(values)), key=values.__getitem__):
        if not cuts or cuts[-1] != values[k]:
            cuts.append(values[k])
        at[k] = len(cuts) - 1
    points, cells = [0] * (len(cuts) + 1), [0] * len(cuts)
    for i, j in zip(at[::2], at[1::2]):
        points[i] += 1
        points[j + 1] -= 1
        cells[i] += 1
        cells[j] -= 1
    return cuts, list(itertools.accumulate(points))[:-1], list(itertools.accumulate(cells))[:-1]


def _components(cuts, points, cells) -> list[tuple]:
    """Closures of the connected components of a set on the line that
    changes only at the sorted distinct `cuts`: points[i] says whether it
    holds cuts[i], and cells[i] whether it holds the open cell (cuts[i],
    cuts[i + 1])."""
    items = [(c, c, held) for c, held in zip(cuts[:1], points)]
    for i in range(1, len(cuts)):
        items += [(cuts[i - 1], cuts[i], cells[i - 1]), (cuts[i], cuts[i], points[i])]
    runs = (list(run) for held, run in itertools.groupby(items, key=lambda item: item[2]) if held)
    return [(run[0][0], run[-1][1]) for run in runs]


def interval_union(intervals) -> list[tuple]:
    """The components of a union of closed intervals, as closed intervals
    in increasing order."""
    cuts, points, cells = _coverage(list(intervals))
    return _components(cuts, [n > 0 for n in points], [n > 0 for n in cells])


def interval_gaps(lo, hi, union) -> list[tuple]:
    """The closures of the components of positive length of [lo, hi] minus
    the closed intervals of `union`: what [lo, hi] alone holds."""
    clipped = [(max(a, lo), min(b, hi)) for a, b in union if a <= hi and lo <= b]
    cuts, points, cells = _coverage([(lo, hi), *clipped])
    parts = _components(cuts, [n == 1 for n in points], [n == 1 for n in cells])
    return [(s, t) for s, t in parts if s < t]


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
        lo, hi = chart_interval(seg)
        anchor, union = self.lines.get(key, (seg, []))
        self.lines[key] = (anchor, interval_union([*union, (lo, hi)]))
        return interval_gaps(lo, hi, union) != [(lo, hi)]

    def chart_gaps(self, key, lo, hi):
        entry = self.lines.get(key)
        return interval_gaps(lo, hi, entry[1] if entry else ())

    def gaps(self, seg: Segment) -> list[Segment]:
        return [
            Segment(point_at_chart(seg, lo), point_at_chart(seg, hi))
            for lo, hi in self.chart_gaps(line_key(seg), *chart_interval(seg))
        ]

    def overlaps(self, seg: Segment) -> bool:
        lo, hi = chart_interval(seg)
        return self.chart_gaps(line_key(seg), lo, hi) != [(lo, hi)]

    def segments(self) -> list[Segment]:
        return [
            Segment(point_at_chart(anchor, lo), point_at_chart(anchor, hi))
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
    """Sorted (lower, upper) successor lists, as `markov._cover_digraph_pair` sorts them."""
    targets: dict = {}
    for j, seg in enumerate(segments):
        targets.setdefault(line_key(seg), []).append((j, *chart_interval(seg)))
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
# The graph tables in Fractions
# ---------------------------------------------------------------------------


def eval_coords(coords, b: Fraction) -> Point:
    """The point c0 + c1*b; with b = n/d each coordinate is (c0*d + c1*n)/d."""
    n, d = b.numerator, b.denominator
    (c0x, c1x), (c0y, c1y) = coords
    return Point(Fraction(c0x * d + c1x * n, d), Fraction(c0y * d + c1y * n, d))


def named_points(regime: str, b: Fraction) -> dict[str, Point]:
    """Vertices and marks of the regime's readable coordinate tables at b."""
    named = {n: eval_coords(c, b) for n, c in graphs._VERTEX_COORDS[regime].items()}
    named.update((n, eval_coords(c, b)) for n, c, _ in graphs._MARK_COORDS[regime])
    return named


def orbit_marks(regime: str, b: Fraction) -> list[tuple[str, Point, str]]:
    """The documented relations F(src) = dst, checked with `apply_F` on Fraction points."""
    named = named_points(regime, b)
    params = Params.standard(b)
    out = []
    for src, dst in graphs._ORBIT_RELATIONS[regime]:
        if apply_F(params, named[src]) != named[dst]:
            raise AssertionError(f"orbit relation {src} -> {dst} fails at b = {b}")
        out.append((src, named[src], dst))
    return out


# ---------------------------------------------------------------------------
# The Markov partition and the radius comparison in Fractions
# ---------------------------------------------------------------------------


def markov_partition(m: PiecewiseAffine1D, seeds=()) -> list[tuple]:
    """`frame_partition`, closed, sorted and cut on Fractions."""
    for p in m.pieces:
        if p.slope.denominator != 1:
            raise ValueError(f"slope {p.slope} is not an integer: no finite orbit closure")
    lo, hi = m.lo, m.hi
    cuts = [m.lo, *m.breakpoints, m.hi]
    ends = set(cuts) | {Fraction(x) for x in seeds}
    todo = [x for x in ends if lo <= x <= hi]
    while todo:
        x = todo.pop()
        for i, piece in enumerate(m.pieces):
            if cuts[i] <= x <= cuts[i + 1]:
                y = piece.apply(x)
                if y not in ends:
                    ends.add(y)
                    if lo <= y <= hi:
                        todo.append(y)
    ends = sorted(x for x in ends if lo <= x <= hi)
    cells = []
    for a, b in zip(ends, ends[1:]):
        piece = m.pieces[bisect_right(cuts, a) - 1]
        cover = None
        if not piece.is_constant:
            fa, fb = sorted((piece.apply(a), piece.apply(b)))
            cover = range(bisect_left(ends, max(fa, lo)), bisect_left(ends, min(fb, hi)))
        cells.append((a, b, piece, cover))
    return cells


def _reduce(succ, comp, lam: Fraction):
    """Sparse Gauss-Jordan reduction of [lam*I - A_C | 1] over the rationals:
    (pivots, free), each pivot row scaled to pivot entry 1 (right-hand side
    under -1)."""
    pos = {v: k for k, v in enumerate(comp)}
    pending = []
    for v in comp:
        row = {pos[w]: Fraction(-1) for w in succ[v] if w in pos}
        diag = row.get(pos[v], 0) + lam
        if diag:
            row[pos[v]] = diag
        else:
            del row[pos[v]]
        row[-1] = Fraction(1)
        pending.append(row)
    pivots: dict = {}
    free = []
    for k in range(len(comp)):
        cands = [i for i, row in enumerate(pending) if k in row]
        if not cands:
            free.append(k)
            continue
        prow = pending.pop(min(cands, key=lambda i: len(pending[i])))
        inv = 1 / prow[k]
        prow = {c: x * inv for c, x in prow.items()}
        for row in itertools.chain(pending, pivots.values()):
            f = row.pop(k, 0)
            if not f:
                continue
            for c, x in prow.items():
                if c == k:
                    continue
                y = row.get(c, 0) - f * x
                if y:
                    row[c] = y
                else:
                    row.pop(c, None)
        pivots[k] = prow
    return pivots, free


def compare_radius_component(succ, comp, lam) -> int:
    """`markov._compare_radius` on the Fraction reduction."""
    pivots, free = _reduce(succ, comp, Fraction(lam))
    if not free and all(row.get(-1, 0) > 0 for row in pivots.values()):
        return -1
    if len(free) == 1 and all(row.get(free[0], 0) < 0 for row in pivots.values()):
        return 0
    return 1


def x_orbit_point(b, n: int) -> Fraction:
    """Closed form of the n-th return x_n = ((b-8)*4^(n+1) + 2 - b) / 3."""
    if n < 0:
        raise ValueError("n must be >= 0")
    b = Fraction(b)
    return ((b - 8) * 4 ** (n + 1) + 2 - b) / 3


def band48_partition(b) -> tuple[list[tuple[str, Segment]], band48.LevelClass]:
    """`lattice_band48_partition`, with every end a Fraction point read off
    the graph or the closed-form orbit points."""
    b = Fraction(b)
    g = graphs.build_gamma("band48", b)
    lc = band48.classify(b)
    n = lc.n

    def P(name: str) -> Point:
        return named_point(g, name)

    xs = [x_orbit_point(b, i) for i in range(n + 1)]
    bottom = [Point(x, Fraction(-1)) for x in xs]
    first_img = [Point(-x, x + b - 1) for x in xs]
    second_img = [Point(-2 * x - b, -2 * x + 1) for x in xs]
    part = [
        ("A", Segment(P("P18"), P("P9"))),
        ("B", Segment(P("P11"), P("P16"))),
        ("D", Segment(P("P17"), P("P12"))),
        ("E", Segment(P("P2"), P("P3"))),
        ("H", Segment(P("Y6"), P("P6"))),
        ("I", Segment(P("P7"), P("Y4"))),
        ("G", Segment(bottom[0], P("P4"))),
        ("F1", Segment(P("P3"), bottom[n])),
    ]
    if n == 0:
        part += [("C", Segment(P("P12"), P("P1"))), ("K", Segment(P("Y1"), P("Y2")))]
    else:
        part.append(("K", Segment(P("Y1"), first_img[0])))
        part.append(("C1", Segment(second_img[n - 1], P("P1"))))
        part += [(f"C{j}", Segment(second_img[n - j], second_img[n - j + 1])) for j in range(2, n + 1)]
        part.append((f"C{n + 1}", Segment(P("P12"), second_img[0])))
        part.append(("J2", Segment(first_img[n - 1], P("Y2"))))
        part += [(f"J{j}", Segment(first_img[n - j + 1], first_img[n - j + 2])) for j in range(3, n + 2)]
        part += [(f"F{j}", Segment(bottom[n - j + 2], bottom[n - j + 1])) for j in range(2, n + 2)]
    return part, lc


def cross_check_entropy(b, digits: int = 7) -> bool:
    """The earlier `band48.cross_check_entropy`: each digraph's radius
    enclosure against the class root enclosure of `entropy_or_bounds`."""
    res = band48.entropy_or_bounds(b, digits)
    lower, upper, _ = band48.cover_digraphs(b)
    r_lo = spectral_radius(lower, digits + 3)
    r_hi = spectral_radius(upper, digits + 3)
    for got, expected in ((r_lo, res.lo_root), (r_hi, res.hi_root)):
        if got.poly != expected.poly:
            return False
        if got.hi < expected.lo or expected.hi < got.lo:
            return False
    return True


def power_iteration_radius(adj, steps: int = 10_000) -> float:
    """`markov._power_iteration_radius` without its early exit: all `steps` run."""
    rows = [[j for j, e in enumerate(row) if e] for row in adj]
    best = 0.0
    for comp in _cyclic_components(rows):
        pos = {v: k for k, v in enumerate(comp)}
        succ = [sorted((pos[j], adj[i][j]) for j in rows[i] if j in pos) for i in comp]
        v = [1.0] * len(comp)
        growth = 1.0
        for _ in range(steps):
            w = [sum([a * v[k] for k, a in row]) + v[i] for i, row in enumerate(succ)]
            norm = sum(map(abs, w))
            growth = norm / sum(map(abs, v))
            v = [c / norm for c in w]
        best = max(best, growth - 1.0)
    return best


# ---------------------------------------------------------------------------
# Fraction views of the integer engines
# ---------------------------------------------------------------------------


def frame_partition(m: PiecewiseAffine1D, seeds=()) -> list[tuple]:
    """Sorted cells (a, b, piece, cover) of `IntegerFrame.partition` on the
    lattice of `m.integer_frame(seeds)`, with Fraction ends."""
    frame, xs = m.integer_frame(seeds)
    ends, cells = frame.partition(xs)
    fr = [Fraction(x, frame.q) for x in ends]
    return [(fr[k], fr[k + 1], m.pieces[i], cover) for k, (i, cover) in enumerate(cells)]


def orbit_digraph(m: PiecewiseAffine1D, orbit) -> CoverDigraph:
    """`certify._orbit_succ` at an exact periodic orbit of m, its nodes
    labelled I0..Ik; the periodicity check runs on the numerators too."""
    frame, xs = m.integer_frame(orbit)
    pts = set(xs)
    full, _ = frame.walk(xs[0], len(pts))
    if full[-1] != full[0] or set(full[:-1]) != pts:
        raise ValueError("orbit is not exactly periodic under the map")
    succ = certify._orbit_succ(frame, xs)
    return CoverDigraph(tuple(f"I{k}" for k in range(len(succ))), succ)


def lattice_band48_partition(b) -> tuple[list[tuple[str, Segment]], band48.LevelClass]:
    """`band48._partition`, the partition `cover_digraphs` uses, with
    Fraction ends."""
    b = Fraction(b)
    frame, named, _ = band48._graph_on_12d(b)
    part, lc = band48._partition(b, named)
    return [(label, Segment(*_off_lattice(((x1, y1), (x2, y2)), frame)))
            for label, (x1, y1, x2, y2) in part], lc


def return_map(regime: str, b, edge: str) -> PiecewiseAffine1D:
    """The return map of a regime's return edge on Fractions, by the piece
    tracker of `restrict_iterate_to_segment`, not by the lattice engine that
    `measure` calls: F^7 on the circle-regime graph's edge, G's map being
    E's conjugated by x -> -x + (7 - b), or F^return_power on a transition
    family's interval `segment(b)`."""
    b = Fraction(b)
    if regime == "negb":
        if edge == "G":
            return conjugate_affine(return_map("negb", b, "E"), Fraction(-1), 7 - b)
        return restrict_iterate_to_segment(Params.standard(b), edge_segment(graphs.build_gamma("negb", b), edge), 7)
    fam = certify.trapezoid_family(regime)
    return restrict_iterate_to_segment(Params.standard(b), fam.segment(b), fam.return_power)


# ---------------------------------------------------------------------------
# The capture recursion
# ---------------------------------------------------------------------------


def fraction_uncaptured_measures(m: PiecewiseAffine1D, depth: int) -> list[Fraction]:
    cells = markov_partition(m)
    u = [b - a for a, b, _, _ in cells]
    out = [sum(u, Fraction(0))]
    for _ in range(depth):
        u = [Fraction(0) if cov is None else sum(u[cov.start:cov.stop], Fraction(0)) / abs(p.slope)
             for _, _, p, cov in cells]
        out.append(sum(u, Fraction(0)))
    return out


def capture_vectors(m: PiecewiseAffine1D, depth: int) -> tuple[list[list[int]], int, int]:
    """([w_0, ..., w_depth], q, s): every per-cell numerator vector of the
    capture recursion over q*s^n, each step run, with no cut-off at a
    repeated vector."""
    if not any(p.is_constant for p in m.pieces):
        raise ValueError("map has no constancy piece")
    frame, _ = m.integer_frame()
    ends, cells = frame.partition()
    s = lcm(*(abs(frame.slopes[i]) for i, cov in cells if cov is not None))
    steps = [None if cov is None else (cov.start, cov.stop, s // abs(frame.slopes[i])) for i, cov in cells]
    w = [b - a for a, b in zip(ends, ends[1:])]
    out = [w]
    for _ in range(depth):
        w = [0 if st is None else sum(w[st[0]:st[1]]) * st[2] for st in steps]
        out.append(w)
    return out, frame.q, s


def full_uncaptured_numerators(m: PiecewiseAffine1D, depth: int) -> tuple[tuple[int, ...], int, int]:
    """`IntegerFrame.uncaptured` with every step of the recursion run."""
    vectors, q, s = capture_vectors(m, depth)
    return tuple(sum(w) for w in vectors), q, s


def uncaptured_intervals(m: PiecewiseAffine1D, depth: int) -> list[tuple[Fraction, Fraction]]:
    """Subset of the domain that avoids every constancy piece for `depth` steps.

    U_0 is the whole domain; U_{n+1} = (non-constancy pieces) intersect
    preimage of U_n.  All preimages are exact interval unions.
    """
    current = [(m.lo, m.hi)]
    cuts = [m.lo, *m.breakpoints, m.hi]
    for _ in range(depth):
        nxt: list[tuple[Fraction, Fraction]] = []
        for i, piece in enumerate(m.pieces):
            if piece.is_constant:
                continue
            a, b = cuts[i], cuts[i + 1]
            for lo, hi in current:
                # preimage of [lo, hi] under x -> slope*x+offset, inside [a, b]
                t0 = (lo - piece.offset) / piece.slope
                t1 = (hi - piece.offset) / piece.slope
                plo, phi = (t0, t1) if t0 <= t1 else (t1, t0)
                ilo, ihi = max(a, plo), min(b, phi)
                if ilo < ihi:
                    nxt.append((ilo, ihi))
        current = interval_union(nxt)
        if not current:
            break
    return current


# ---------------------------------------------------------------------------
# Parameter-affine map families and their closing windows
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ParamAffine:
    """Value c0 + c1*d for a map-family parameter d."""

    c0: Fraction
    c1: Fraction

    def at(self, d: Fraction) -> Fraction:
        return self.c0 + self.c1 * d

    def __add__(self, other):
        o = _as_param(other)
        return ParamAffine(self.c0 + o.c0, self.c1 + o.c1)

    def scaled(self, k: Fraction) -> "ParamAffine":
        return ParamAffine(self.c0 * k, self.c1 * k)


def _as_param(v) -> ParamAffine:
    if isinstance(v, ParamAffine):
        return v
    return ParamAffine(Fraction(v), Fraction(0))


def _concrete(v, d: Fraction) -> Fraction:
    return v.at(d) if isinstance(v, ParamAffine) else Fraction(v)


@dataclass(frozen=True)
class ParamFamily:
    """A 1-D map whose ends, breakpoints and offsets may be `ParamAffine` in d."""

    lo: object
    hi: object
    breakpoints: tuple
    pieces: tuple[Piece, ...]

    def at(self, d: Fraction) -> PiecewiseAffine1D:
        """Concrete map obtained by substituting the family parameter."""
        return PiecewiseAffine1D(
            _concrete(self.lo, d),
            _concrete(self.hi, d),
            [_concrete(b, d) for b in self.breakpoints],
            [Piece(p.slope, _concrete(p.offset, d), p.name) for p in self.pieces],
        )


def trapezoid_param_family(falling_slope: int, plateau_right: Fraction) -> ParamFamily:
    """16x+d | 1 | s*x-s on [0, 1] with s = `falling_slope`."""
    return ParamFamily(
        Fraction(0),
        Fraction(1),
        (ParamAffine(Fraction(1, 16), Fraction(-1, 16)), plateau_right),
        (
            Piece(Fraction(16), ParamAffine(Fraction(0), Fraction(1)), "L"),
            Piece(Fraction(0), Fraction(1), "C"),
            Piece(Fraction(falling_slope), Fraction(-falling_slope), "R"),
        ),
    )


def closing_window(
    family: ParamFamily,
    pattern: Itinerary,
    x0,
    d_range: tuple[Fraction, Fraction] = (Fraction(0), Fraction(1)),
) -> tuple[Fraction, Fraction] | None:
    """Admissible parameter interval for a periodic orbit with the given pattern.

    The orbit of x0 is driven through the pieces named by `pattern`
    symbolically in d (each iterate stays affine in d); requiring every
    iterate to lie in its piece's closed span yields linear inequalities in
    d whose intersection is returned, or None when empty.  The pattern must
    end at the constancy symbol, whose image closes the orbit at x0.
    """
    by_name = {p.name: i for i, p in enumerate(family.pieces)}
    plateaus = [p.name for p in family.pieces if p.is_constant]
    if len(plateaus) != 1:
        raise ValueError("family must have exactly one constancy piece")
    if pattern.symbols[-1] != plateaus[0]:
        raise ValueError("pattern must end at the constancy piece")
    lo_d, hi_d = d_range
    cuts = [family.lo, *family.breakpoints, family.hi]
    x = _as_param(Fraction(x0))
    for sym in pattern.symbols:
        if sym not in by_name:
            raise ValueError(f"symbol {sym!r} is not a piece name")
        i = by_name[sym]
        lo_b, hi_b = _as_param(cuts[i]), _as_param(cuts[i + 1])
        # lo_b <= x and x <= hi_b, all affine in d.
        for a, b in ((lo_b, x), (x, hi_b)):
            # a <= b  <=>  (a.c1-b.c1)*d <= b.c0-a.c0
            k = a.c1 - b.c1
            c = b.c0 - a.c0
            if k == 0:
                if c < 0:
                    return None
            elif k > 0:
                hi_d = min(hi_d, c / k)
            else:
                lo_d = max(lo_d, c / k)
            if lo_d > hi_d:
                return None
        piece = family.pieces[i]
        x = _as_param(piece.offset) + x.scaled(piece.slope)
    return lo_d, hi_d


# ---------------------------------------------------------------------------
# Dense integer polynomials
# ---------------------------------------------------------------------------


class DensePoly:
    """The earlier `IntPoly`: the dense coefficient tuple, ascending by
    degree, as its one field, with the arithmetic on that tuple."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = list(map(int, coeffs))
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __eq__(self, other: object) -> bool:
        return isinstance(other, DensePoly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __add__(self, other: "DensePoly") -> "DensePoly":
        return DensePoly([a + b for a, b in itertools.zip_longest(self.coeffs, other.coeffs, fillvalue=0)])

    def __neg__(self) -> "DensePoly":
        return DensePoly([-c for c in self.coeffs])

    def __sub__(self, other: "DensePoly") -> "DensePoly":
        return DensePoly([a - b for a, b in itertools.zip_longest(self.coeffs, other.coeffs, fillvalue=0)])

    def __mul__(self, other: "DensePoly") -> "DensePoly":
        if not self.coeffs or not other.coeffs:
            return DensePoly([])
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        terms = [(j, b) for j, b in enumerate(other.coeffs) if b]
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in terms:
                    out[i + j] += a * b
        return DensePoly(out)

    def derivative(self) -> "DensePoly":
        return DensePoly([p * c for p, c in enumerate(self.coeffs)][1:])

    def strip_power_factor(self) -> tuple["DensePoly", int]:
        if not self.coeffs or self.coeffs[0]:
            return self, 0
        k = next(p for p, c in enumerate(self.coeffs) if c)
        return DensePoly(self.coeffs[k:]), k

    def normalized_sign(self) -> "DensePoly":
        return -self if self.coeffs and self.coeffs[-1] < 0 else self

    def primitive(self) -> "DensePoly":
        g = gcd(*self.coeffs)
        return DensePoly([c // g for c in self.coeffs]) if g > 1 else self

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for p in range(self.degree, -1, -1):
            c = self.coeffs[p]
            if c == 0:
                continue
            mag = abs(c)
            if p == 0:
                term = str(mag)
            elif p == 1:
                term = "x" if mag == 1 else f"{mag}*x"
            else:
                term = f"x^{p}" if mag == 1 else f"{mag}*x^{p}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts)


# ---------------------------------------------------------------------------
# Root refinement with every probe evaluated exactly
# ---------------------------------------------------------------------------


def refined_exact(ri: RootInterval, digits: int) -> RootInterval:
    """The earlier `RootInterval.refined`: the same bisection grid and
    quadratic interval refinement, with each probe's value the exact
    integer `_homogeneous` builds and the secant read from those."""
    lo, hi = ri.lo, ri.hi
    if lo == hi:
        return ri
    q = lcm(lo.denominator, hi.denominator)
    a, b = lo.numerator * (q // lo.denominator), hi.numerator * (q // hi.denominator)
    terms, deg = ri.poly.terms, ri.poly.degree
    fa, fb = _homogeneous(terms, q, a, 0), _homogeneous(terms, q, b, 0)
    shi = _sign(fb)
    gap, k = b - a, 0
    depth = (gap * 10**digits // q).bit_length()
    qir = lo >= 0 and fa != 0 and descartes_positive_sign_changes(ri.poly) == 1

    def exact(m: int, depth_m: int) -> RootInterval:
        x = Fraction(m, q << depth_m)
        return RootInterval._proven(x, x, ri.poly)

    j = 1
    while k < depth:
        if qir:
            j = min(j, depth - k)
            n, s = 1 << j, abs(fa) + abs(fb)
            i = min(max((2 * n * abs(fa) + s) // (2 * s), 1), n - 1)
            p, kj = (a << j) + i * gap, k + j
            fp = _homogeneous(terms, q, p, kj)
            if fp == 0:
                return exact(p, kj)
            if _sign(fp) == shi:
                m = p - gap
                fm = fa << j * deg if i == 1 else _homogeneous(terms, q, m, kj)
                cell = (m, p, fm, fp)
            else:
                m = p + gap
                fm = fb << j * deg if i == n - 1 else _homogeneous(terms, q, m, kj)
                cell = (p, m, fp, fm)
            if fm == 0:
                return exact(m, kj)
            if _sign(fm) != _sign(fp):
                a, b, fa, fb = cell
                k, j = kj, 2 * j
                continue
            j = max(j // 2, 1)
        mid, k = a + b, k + 1
        fm = _homogeneous(terms, q, mid, k)
        if fm == 0:
            return exact(mid, k)
        if _sign(fm) == shi:
            a, b, fa, fb = 2 * a, mid, fa << deg, fm
        else:
            a, b, fa, fb = mid, 2 * b, fm, fb << deg
    return RootInterval._proven(Fraction(a, q << k), Fraction(b, q << k), ri.poly)


# ---------------------------------------------------------------------------
# ln brackets that sum every series both ways
# ---------------------------------------------------------------------------


def ln_bounds_both_ways(x: Fraction, err: Fraction) -> tuple[Fraction, Fraction]:
    """The earlier `rationals.ln_bounds(x, err)`, now `ln_enclosure(x, x,
    err)`: x = 2^k m, m in [1, 2), and each atanh series (of (m - 1)/(m + 1),
    and of 1/3 for ln 2) summed once rounded down and once rounded up, at
    the same precision."""
    if x == 1:
        return Fraction(0), Fraction(0)
    n, d = x.numerator, x.denominator
    k = n.bit_length() - d.bit_length()
    n, d = n << max(-k, 0), d << max(k, 0)
    if n < d:
        n, k = 2 * n, k - 1
    e = max(0, err.denominator.bit_length() - err.numerator.bit_length() + 1)
    prec = e + e.bit_length() + abs(k).bit_length() + 16
    lo, hi = _atanh_both_ways(n - d, n + d, prec)
    lo, hi = 2 * lo, 2 * hi
    if k:
        ln2_lo, ln2_hi = _atanh_both_ways(1, 3, prec)
        if k < 0:
            ln2_lo, ln2_hi = ln2_hi, ln2_lo
        lo, hi = lo + 2 * k * ln2_lo, hi + 2 * k * ln2_hi
    return Fraction(lo, 1 << prec), Fraction(hi, 1 << prec)


def _atanh_both_ways(a: int, b: int, prec: int) -> tuple[int, int]:
    """Integers lo <= 2^prec atanh(a/b) <= hi, 0 <= a/b <= 1/3: the series
    with every value floored, and with every value ceiled plus the tail
    bound 9t/8 + 1 at the first term t <= 1."""

    def div(n: int, d: int, up: bool) -> int:
        return -(-n // d) if up else n // d

    sums = []
    for up in (False, True):
        z = div(a << prec, b, up)
        z2 = div(z * z, 1 << prec, up)
        term, total, j = z, 0, 1
        while term > 1:
            total += div(term, j, up)
            term = div(term * z2, 1 << prec, up)
            j += 2
        sums.append(total)
    return sums[0], sums[1] + div(9 * term, 8, True) + 1


# ---------------------------------------------------------------------------
# Sturm chains, gcds and square-free parts by Fraction long division
# ---------------------------------------------------------------------------


def _frac_coeffs(p: IntPoly) -> list[Fraction]:
    return [Fraction(c) for c in p.coeffs]


def _poly_divmod(a: list[Fraction], b: list[Fraction]):
    """Quotient and remainder of a by b over the rationals (coefficients ascending)."""
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    r = a[:]
    db = len(b) - 1
    while len(r) - 1 >= db and any(r):
        while r and r[-1] == 0:
            r.pop()
        if len(r) - 1 < db:
            break
        f = r[-1] / b[-1]
        shift = len(r) - 1 - db
        q[shift] = f
        for i, c in enumerate(b):
            r[shift + i] -= f * c
        r.pop()
    while r and r[-1] == 0:
        r.pop()
    return q, r


def sturm_chain(p: IntPoly) -> list[IntPoly]:
    """Sturm chain of p.  Each remainder is scaled by a positive constant to
    a primitive integer polynomial, which keeps every sign of the chain."""
    chain = [p]
    nxt = p.derivative()
    while not nxt.is_zero():
        chain.append(nxt)
        _, rem = _poly_divmod(_frac_coeffs(chain[-2]), _frac_coeffs(nxt))
        nxt = _primitive([-c for c in rem])
    return chain


def _primitive(coeffs: Sequence[Fraction]) -> IntPoly:
    """The primitive integer polynomial that is a positive rational multiple
    of `coeffs`."""
    den = lcm(*(c.denominator for c in coeffs)) if coeffs else 1
    ints = [int(c * den) for c in coeffs]
    g = 0
    for c in ints:
        g = gcd(g, abs(c))
    return IntPoly([c // g for c in ints]) if g else IntPoly([])


def poly_gcd(p: IntPoly, q: IntPoly) -> IntPoly:
    """Greatest common divisor over Q, as a primitive integer polynomial
    with positive leading coefficient."""
    a, b = _frac_coeffs(p), _frac_coeffs(q)
    while b:
        a, b = b, _poly_divmod(a, b)[1]
    return _primitive(a).normalized_sign()


def squarefree_part(p: IntPoly) -> IntPoly:
    """Primitive square-free part p / gcd(p, p') over the integers."""
    g = poly_gcd(p, p.derivative())
    if g.degree <= 0:
        return p.normalized_sign()
    q, rem = _poly_divmod(_frac_coeffs(p), _frac_coeffs(g))
    assert not rem, "gcd division must be exact"
    return _primitive(q).normalized_sign()


# ---------------------------------------------------------------------------
# The rome determinant by cofactor expansion
# ---------------------------------------------------------------------------


def poly_det(matrix: Sequence[Sequence[IntPoly]]) -> IntPoly:
    """Exact determinant over the integer-polynomial ring, by cofactor expansion."""
    n = len(matrix)
    for row in matrix:
        if len(row) != n:
            raise ValueError("matrix must be square")
    if n == 0:
        return IntPoly([1])
    if n == 1:
        return matrix[0][0]
    total = IntPoly([])
    for j in range(n):
        entry = matrix[0][j]
        if entry.is_zero():
            continue
        minor = [[row[k] for k in range(n) if k != j] for row in matrix[1:]]
        cof = entry * poly_det(minor)
        total = total + cof if j % 2 == 0 else total - cof
    return total


# ---------------------------------------------------------------------------
# Small checks that only tests use
# ---------------------------------------------------------------------------


def itinerary_of(m: PiecewiseAffine1D, x0, k: int) -> Itinerary:
    """Symbols of x0..f^(k)(x0) by containing piece (k+1 symbols).

    Each symbol is read in the pass that maps its point; errors like
    `iterate_point` if an iterate escapes.
    """
    x = Fraction(x0)
    symbols = []
    for step in range(k + 1):
        if not m.lo <= x <= m.hi:
            raise ValueError(f"iterate {x} escaped domain [{m.lo}, {m.hi}]")
        i = m.piece_index_at(x)
        symbols.append(m.symbol(i))
        if step < k:
            x = m.pieces[i].apply(x)
    return Itinerary(tuple(symbols))


def uncaptured_measures(m: PiecewiseAffine1D, depth: int) -> list[Fraction]:
    """[U_0, ..., U_depth] of `IntegerFrame.uncaptured`, as Fractions."""
    w, q, s = m.integer_frame()[0].uncaptured(depth)
    out = []
    for wn in w:
        out.append(Fraction(wn, q))
        q *= s
    return out


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


def simple_cycle_lengths(dg: CoverDigraph) -> list[int]:
    """Lengths of all simple cycles (each cycle counted once)."""
    lengths: list[int] = []
    n = dg.n

    def dfs(start: int, v: int, visited: set[int], depth: int):
        for w in dg.succ[v]:
            if w == start:
                lengths.append(depth + 1)
            elif w > start and w not in visited:
                visited.add(w)
                dfs(start, w, visited, depth + 1)
                visited.remove(w)

    for s in range(n):
        dfs(s, s, {s}, 0)
    return sorted(lengths)


def acyclic_without(dg: CoverDigraph, removed: frozenset[int]) -> bool:
    """Whether no cycle avoids `removed`: a colour depth-first search that
    stops at the first edge back to an active node."""
    n = dg.n
    color = [0] * n  # 0 unvisited, 1 active, 2 done
    for start in range(n):
        if start in removed or color[start] != 0:
            continue
        stack = [(start, iter(dg.succ[start]))]
        color[start] = 1
        while stack:
            v, it = stack[-1]
            found = False
            for w in it:
                if w in removed:
                    continue
                if color[w] == 1:
                    return False
                if color[w] == 0:
                    color[w] = 1
                    stack.append((w, iter(dg.succ[w])))
                    found = True
                    break
            if not found:
                color[v] = 2
                stack.pop()
    return True


def simple_path_lengths(dg: CoverDigraph, rome_idx: frozenset[int], start: int) -> dict[int, dict[int, int]]:
    """For each rome node t: {path length: count} over simple paths start->t
    whose interior avoids the rome, found by pushing every path on a stack."""
    out: dict[int, dict[int, int]] = {t: {} for t in rome_idx}
    stack = [(start, 0)]
    while stack:
        v, length = stack.pop()
        for w in dg.succ[v]:
            if w in rome_idx:
                d = out[w]
                d[length + 1] = d.get(length + 1, 0) + 1
            else:
                stack.append((w, length + 1))
    return out


def normalized_plateau_width(m: PiecewiseAffine1D, extended: bool = False) -> Fraction:
    """Plateau length of the trapezoid after rescaling its domain to [0, 1].

    With `extended`, the map is first extended to the invariant interval
    between the rising branch's fixed point and that point's preimage under
    the falling branch (the shape parameter of the normalized trapezoid).
    """
    consts = [i for i, p in enumerate(m.pieces) if p.is_constant]
    if len(consts) != 1:
        raise ValueError("map must have exactly one constancy piece")
    i = consts[0]
    cuts = [m.lo, *m.breakpoints, m.hi]
    u1, u2 = cuts[i], cuts[i + 1]
    if extended:
        rise = m.pieces[0]
        fall = m.pieces[-1]
        x_fix = rise.offset / (1 - rise.slope)
        x_pre = (x_fix - fall.offset) / fall.slope
        lo, hi = x_fix, x_pre
    else:
        lo, hi = m.lo, m.hi
    return (u2 - u1) / (hi - lo)


def build_g2(b) -> PiecewiseAffine1D:
    """Semiconjugate core of the 6-step return map on the first window."""
    b = Fraction(b)
    certify._require_window(b, certify.phi_family(), "build_g2")
    top = (9 * b + 8) / (8 * (b + 1))
    u1 = (137 * b + 112) / (128 * (b + 1))
    u2 = 7 * (9 * b + 8) / (64 * (b + 1))
    return PiecewiseAffine1D(
        Fraction(0), top, [u1, u2],
        [
            Piece(Fraction(16), -(16 * b + 13) / (b + 1), "L"),
            Piece(Fraction(0), top, "C"),
            Piece(Fraction(-8), (9 * b + 8) / (b + 1), "R"),
        ],
    )


def build_g3(b) -> PiecewiseAffine1D:
    """Trapezoidal extension of build_g2 between the rising fixed point and its preimage."""
    b = Fraction(b)
    certify._require_window(b, certify.phi_family(), "build_g3")
    g2 = build_g2(b)
    x1 = (16 * b + 13) / (15 * (b + 1))
    x2 = (119 * b + 107) / (120 * (b + 1))
    return PiecewiseAffine1D(x1, x2, list(g2.breakpoints), list(g2.pieces))


def alpha_d_to_b(d) -> Fraction:
    """The earlier `certify.alpha_d_to_b`, now `phi_family().d_to_b`."""
    d = Fraction(d)
    den = 9 * d + 128
    if den == 0:
        raise ValueError("denominator vanishes")
    return Fraction(-8) * (d + 13) / den


def beta_d_to_b(d) -> Fraction:
    """The earlier `certify.beta_d_to_b`, now `psi_family().d_to_b`: the
    affine chart sending the first-return domain [300-435b, 29b-20] to
    [0, 1]."""
    d = Fraction(d)
    den = 2 * (29 * d + 408)
    if den == 0:
        raise ValueError("denominator vanishes")
    return (40 * d + 563) / den


def pi_segment(b) -> Segment:
    """The earlier `certify.pi_segment`, now `phi_family().segment`: the
    first window's invariant interval, on the line y = x+b+1."""
    b = Fraction(b)
    return Segment(Point(-9 * b - 8, -8 * b - 7), Point(-b, Fraction(1)))


def sigma_segment(b) -> Segment:
    """The earlier `certify.sigma_segment`, now `psi_family().segment`: the
    second window's invariant interval, on the line y = 2b-1."""
    b = Fraction(b)
    return Segment(Point(300 - 435 * b, 2 * b - 1), Point(29 * b - 20, 2 * b - 1))


def alpha_b_to_d(b) -> Fraction:
    """Inverse of `phi_family().d_to_b`."""
    b = Fraction(b)
    den = 9 * b + 8
    if den == 0:
        raise ValueError("denominator vanishes")
    return Fraction(-8) * (16 * b + 13) / den


def beta_b_to_d(b) -> Fraction:
    """Inverse of `psi_family().d_to_b`."""
    b = Fraction(b)
    den = 2 * (29 * b - 20)
    if den == 0:
        raise ValueError("denominator vanishes")
    return (563 - 816 * b) / den
