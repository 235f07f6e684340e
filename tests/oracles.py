"""Reference implementations that only the tests use.

Most are the earlier `fractions.Fraction` implementations of the integer
engines of `planemap`, `piecewise` and `markov`: the piece tracker that
pushed a segment through F in the chart coordinate, the line cover keyed
by rational line equations, the invariance check and covering relations
built on them, the Fraction evaluation of the graph tables and of their
orbit relations, the Fraction orbit-closure Markov partition, the Fraction
transfer recursion of `uncaptured_measures` and the interval preimages it
replaced, and the Gauss-Jordan radius comparison over the rationals.  The
float power iteration without its early exit is kept too.  The
parameter-affine map family and its closing window are the earlier
generic form of `certify.TrapezoidFamily`.
The rest are small checks of the map and of digraphs that back statements
in the tests (quadrant pieces, the rescaling identity, simple cycles, the
trapezoid shape and the inverse parameter changes).  No library code
imports this module.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction

from pwldyn import graphs
from pwldyn.markov import CoverDigraph, _cyclic_components
from pwldyn.piecewise import (
    Itinerary,
    Piece,
    PiecewiseAffine1D,
    interval_gaps,
    interval_union,
    merged,
)
from pwldyn.planemap import Params, Point, Segment, apply_F

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
    """`piecewise.markov_partition`, closed, sorted and cut on Fractions."""
    for p in m.pieces:
        if p.slope.denominator != 1:
            raise ValueError(f"slope {p.slope} is not an integer: no finite orbit closure")
    lo, hi = m.lo, m.hi
    cuts = m.cut_points()
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


def uncaptured_intervals(m: PiecewiseAffine1D, depth: int) -> list[tuple[Fraction, Fraction]]:
    """Subset of the domain that avoids every constancy piece for `depth` steps.

    U_0 is the whole domain; U_{n+1} = (non-constancy pieces) intersect
    preimage of U_n.  All preimages are exact interval unions.
    """
    current = [(m.lo, m.hi)]
    cuts = m.cut_points()
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
# Small checks that only tests use
# ---------------------------------------------------------------------------


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
    cuts = m.cut_points()
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


def alpha_b_to_d(b) -> Fraction:
    """Inverse of `certify.alpha_d_to_b`."""
    b = Fraction(b)
    den = 9 * b + 8
    if den == 0:
        raise ValueError("denominator vanishes")
    return Fraction(-8) * (16 * b + 13) / den


def beta_b_to_d(b) -> Fraction:
    """Inverse of `certify.beta_d_to_b`."""
    b = Fraction(b)
    den = 2 * (29 * b - 20)
    if den == 0:
        raise ValueError("denominator vanishes")
    return (563 - 816 * b) / den
