"""The four invariant planar graphs and their exact invariance check.

Each parameter regime of the slice a = -1 carries a compact graph that
absorbs every planar orbit.  Vertices are affine functions of b; edge lists
are fixed data tables per regime, and `verify_invariance` re-derives
F(graph) subset-of graph exactly, which is the arbiter for the tables.
Every named point is c0 + c1*b with c0, c1 in (1/4)Z, so the tables are
held as integers 4*c0, 4*c1 and evaluated at b = n/d on the lattice
(1/4d)Z^2: the mark checks and the orbit relations run on integers, and
the points returned get one Fraction per distinct coordinate.  The
invariance check reads the graph's current vertices, each put on a
lattice once, and runs on integers too.

Regimes (all for a = -1):
  negb    b <= -2          topological circle with one plateau
  alpha   -1 < b <= -3/4   cycle with four whiskers, two plateaus
  beta    2/3 < b <= 5/7   dense web near the origin, six plateaus
  band48  4 < b < 8        branched graph, two plateaus
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, repeat
from math import lcm
from typing import Iterable, NamedTuple

from pwldyn.planemap import (
    Params,
    Point,
    Segment,
    _lattice_segment_holds,
    _off_frame,
    _on_frame,
    image_gaps,
)
from pwldyn.rationals import _int_str, rational_str

F = Fraction

# regime -> (lo, hi, closed_at_hi): the interval lo < b < hi, with b = hi
# on its boundary when closed_at_hi; lo None is unbounded below
_REGIME_INTERVALS = {
    "negb": (None, F(-2), True),
    "alpha": (F(-1), F(-3, 4), True),
    "beta": (F(2, 3), F(5, 7), True),
    "band48": (F(4), F(8), False),
}
REGIMES = tuple(_REGIME_INTERVALS)


def regime_interval_contains(regime: str, b: Fraction) -> str:
    """"interior", "boundary", or "outside" for b against the regime's interval."""
    b = Fraction(b)
    if regime not in _REGIME_INTERVALS:
        raise ValueError(f"unknown regime {regime!r}")
    lo, hi, closed_at_hi = _REGIME_INTERVALS[regime]
    if (lo is None or lo < b) and b < hi:
        return "interior"
    return "boundary" if closed_at_hi and b == hi else "outside"


def _regime_where(regime: str, b: Fraction) -> str:
    """`regime_interval_contains`, refusing a b outside the regime."""
    where = regime_interval_contains(regime, b)
    if where == "outside":
        raise ValueError(f"b = {rational_str(b)} outside the {regime} regime")
    return where


# ---------------------------------------------------------------------------
# Data tables: coordinates are pairs ((c0x, c1x), (c0y, c1y)) -> c0 + c1*b
# ---------------------------------------------------------------------------

_VERTEX_COORDS = {
    "negb": {
        "P1": ((-2, -1), (-1, 0)),
        "P2": ((-2, -1), (-3, 0)),
        "P3": ((0, -1), (-5, 0)),
        "P4": ((4, -1), (-5, 0)),
        "P5": ((8, -1), (-1, 0)),
        "P6": ((8, -1), (7, 0)),
        "R1": ((8, -1), (0, 0)),
        "R2": ((7, -1), (8, 0)),
        "S": ((-1, -1), (0, 0)),
    },
    "alpha": {
        "P2": ((-2, -1), (-1, 0)),
        "T2": ((-1, -5), (0, -4)),
        "R2": ((0, 1), (-1, 0)),
        "P3": ((2, 1), (-3, 0)),
        "R3": ((0, -1), (-1, 2)),
        "P4": ((4, 1), (-1, 2)),
        "R4": ((0, -3), (-1, 2)),
        "P5": ((4, -1), (3, 4)),
        "R5": ((0, -5), (-1, 0)),
        "P6": ((0, -5), (7, 4)),
        "R6": ((0, -5), (-1, -4)),
    },
    "band48": {
        "P3": ((-2, -1), (-1, 0)),
        "P1": ((0, 0), (1, 1)),
        "P5": ((0, 1), (-1, 0)),
        "P8": ((0, 0), (-1, 1)),
        "P6": ((2, 1), (-3, 0)),
        "P10": ((0, 1), (-1, 2)),
        "P11": ((-2, 1), (-1, 2)),
        "P9": ((4, 1), (-1, 2)),
    },
    "beta": {
        "P1": ((-2, -1), (-1, 0)),
        "P2": ((2, 1), (-3, 0)),
        "P3": ((4, 1), (-1, 2)),
        "P4": ((4, -1), (5, 0)),
        "R2": ((0, -2), (1, -1)),
        "R3": ((-2, 3), (-1, 0)),
        "R4": ((-2, 3), (-3, 4)),
        "R5": ((0, -1), (-5, 8)),
        "R6": ((4, -7), (5, -8)),
        "X2": ((0, 0), (-1, 1)),
        "X3": ((0, -1), (-1, 2)),
        "X4": ((0, -1), (1, -2)),
        "X5": ((-2, 3), (1, -2)),
        "X6": ((-4, 5), (-1, 2)),
        "X7": ((4, -7), (-3, 4)),
        "Y2": ((-5, 7), (4, -6)),
        "Z2": ((4, -7), (-5, 8)),
        "Z3": ((0, -1), (9, -14)),
        "T2": ((-1, 1), (0, 0)),
        "V1": ((0, 1), (-1, 0)),
        "V2": ((0, 1), (-1, 2)),
        "V3": ((0, -1), (1, 0)),
        "V4": ((-2, 1), (-1, 0)),
    },
}

_EDGES = {
    "negb": [
        ("A", "P1", "P2"),
        ("B", "P2", "P3"),
        ("C", "P3", "P4"),
        ("D", "P4", "P5"),
        ("E", "P5", "R1"),
        ("feeder", "R1", "P6"),
        ("G", "P6", "R2"),
        ("plateau", "R2", "S"),
        ("H", "S", "P1"),
    ],
    "alpha": [
        ("A", "P2", "T2"),
        ("B", "P2", "R2"),
        ("C1", "R2", "R3"),
        ("C2", "R3", "P3"),
        ("E1", "R3", "R4"),
        ("E2", "R4", "P4"),
        ("F1", "R4", "R5"),
        ("F2", "R5", "P5"),
        ("G1", "R5", "R6"),
        ("G2", "R6", "P6"),
        ("H", "T2", "R6"),
    ],
    "band48": [
        ("L1", "P3", "P1"),
        ("L2", "P3", "P5"),
        ("L3A", "P8", "P5"),
        ("L3B", "P5", "P6"),
        ("L4A", "P11", "P10"),
        ("L4B", "P10", "P9"),
        ("L5", "P8", "P10"),
        ("L6", "P1", "P11"),
    ],
    "beta": [
        ("A1", "P1", "R2"),
        ("A2", "R2", "P4"),
        ("B1", "X3", "T2"),
        ("B2", "T2", "Y2"),
        ("B3", "Y2", "X2"),
        ("B4", "X2", "X5"),
        ("B5", "X5", "V1"),
        ("B6", "V1", "P2"),
        ("C1", "P1", "V4"),
        ("C2", "V4", "R3"),
        ("C3", "R3", "V1"),
        ("D1", "X3", "X6"),
        ("D2", "X6", "V2"),
        ("D3", "V2", "P3"),
        ("E", "X2", "V2"),
        ("VA", "X4", "X3"),
        ("VB", "X3", "R5"),
        ("VC", "R5", "V3"),
        ("G1", "V4", "T2"),
        ("G2", "T2", "X4"),
        ("I1", "R2", "X7"),
        ("I2", "X7", "X4"),
        ("J", "R3", "X5"),
        ("K", "X6", "R4"),
        ("L", "X7", "Z2"),
        ("M", "Z2", "R5"),
        ("N", "R6", "Z3"),
        ("O", "Z3", "Y2"),
    ],
}

# Marked points (name, coords, host edge): dynamically relevant points that
# are not graph vertices.
_MARK_COORDS = {
    "negb": [
        ("P7", ((0, -1), (1, 0)), "plateau"),
    ],
    "alpha": [
        ("P7", ((-8, -9), (-7, -8)), "A"),
        ("R1", ((-1, -1), (0, 0)), "A"),
        ("P1", ((0, 0), (1, 1)), "A"),
        ("R7", ((0, -1), (1, 0)), "A"),
        ("Q", ((0, 0), (-1, 1)), "C1"),
        ("T1", ((0, -5), (0, 0)), "G1"),
    ],
    "band48": [
        ("P2", ((-1, -1), (0, 0)), "L1"),
        ("P13", ((0, -1), (1, 0)), "L1"),
        ("P17", ((-1, F(-1, 2)), (0, F(1, 2))), "L1"),
        ("P12", ((4, -1), (5, 0)), "L1"),
        ("X6", ((F(1, 2), F(-5, 4)), (-1, 0)), "L2"),
        ("X5", ((0, -1), (-1, 0)), "L2"),
        ("X4", ((F(1, 2), -1), (-1, 0)), "L2"),
        ("X3", ((1, -1), (-1, 0)), "L2"),
        ("X2", ((0, F(-1, 2)), (-1, 0)), "L2"),
        ("X1", ((F(1, 2), F(-1, 4)), (-1, 0)), "L2"),
        ("P4", ((0, 0), (-1, 0)), "L2"),
        ("P14", ((-2, 1), (-1, 0)), "L2"),
        ("Y1", ((F(-1, 2), F(1, 4)), (F(-1, 2), F(3, 4))), "L3A"),
        ("Y2", ((0, F(1, 2)), (-1, F(1, 2))), "L3A"),
        ("P7", ((-1, 1), (0, 0)), "L3A"),
        ("Y4", ((F(-1, 2), 1), (F(-1, 2), 0)), "L3A"),
        ("Y6", ((F(-1, 2), F(5, 4)), (F(-1, 2), F(-1, 4))), "L3B"),
        ("P16", ((-1, 1), (-1, 2)), "L4A"),
        ("P18", ((-1, F(3, 2)), (-1, 2)), "L4B"),
        ("P15", ((-2, 1), (-3, 2)), "L5"),
    ],
    "beta": [
        ("S", ((0, 0), (1, 1)), "A2"),
        ("R7", ((-10, 15), (9, -14)), "B5"),
        ("X1", ((0, 0), (-1, 0)), "C2"),
        ("R1", ((0, 0), (-1, 2)), "D2"),
        ("T1", ((0, -1), (0, 0)), "VA"),
        ("W", ((1, -3), (0, 0)), "I1"),
        ("Z1", ((-5, 7), (0, 0)), "K"),
        ("Q", ((0, 0), (-5, 7)), "K"),
        ("Y1", ((4, -7), (0, 0)), "L"),
    ],
}

# Exact one-step relations among named points (documented orbit structure).
_ORBIT_RELATIONS = {
    "negb": [
        ("P1", "P2"), ("P2", "P3"), ("P3", "P4"), ("P4", "P5"), ("P5", "P6"),
        ("P6", "P7"), ("P7", "P1"), ("R1", "R2"), ("R2", "P1"), ("S", "P1"),
    ],
    "alpha": [
        ("P1", "P2"), ("P2", "P3"), ("P3", "P4"), ("P4", "P5"), ("P5", "P6"),
        ("P6", "P7"), ("R1", "R2"), ("R2", "R3"), ("R3", "R4"), ("R4", "R5"),
        ("R5", "R6"), ("R6", "R7"), ("R7", "P2"), ("T1", "T2"), ("T2", "P2"),
        ("Q", "R3"),
    ],
    "band48": [
        ("X1", "Y1"), ("Y1", "P17"), ("P17", "P4"), ("X2", "Y2"), ("Y2", "P1"),
        ("X3", "P7"), ("X4", "Y4"), ("Y4", "P16"), ("P16", "P2"), ("X5", "P5"),
        ("X6", "Y6"), ("Y6", "P18"), ("P18", "P17"), ("P1", "P3"), ("P2", "P5"),
        ("P3", "P6"), ("P4", "P8"), ("P5", "P10"), ("P6", "P9"), ("P7", "P11"),
        ("P8", "P13"), ("P9", "P12"), ("P10", "P13"), ("P11", "P3"),
        ("P13", "P14"), ("P14", "P15"), ("P15", "P13"),
    ],
    "beta": [
        ("R1", "R2"), ("R2", "R3"), ("R3", "R4"), ("R4", "R5"), ("R5", "R6"),
        ("R6", "R7"), ("X1", "X2"), ("X2", "X3"), ("X3", "X4"), ("X4", "X5"),
        ("X5", "X6"), ("X6", "X7"), ("X7", "X5"), ("P1", "P2"), ("P2", "P3"),
        ("P3", "P4"), ("P4", "P1"), ("S", "P1"), ("T1", "T2"), ("T2", "X3"),
        ("W", "X5"), ("Y1", "Y2"), ("Y2", "X3"), ("Z1", "Z2"), ("Z2", "Z3"),
        ("Z3", "R7"), ("Q", "Z2"),
    ],
}


def _quarters(coords) -> tuple[int, int, int, int]:
    """(4*c0x, 4*c1x, 4*c0y, 4*c1y) of a table entry, as integers."""
    out = tuple(4 * Fraction(c) for pair in coords for c in pair)
    if any(v.denominator != 1 for v in out):
        raise ValueError(f"table coordinates {coords} are not in (1/4)Z")
    return tuple(v.numerator for v in out)


# The tables as integers: with b = n/d a named point is the lattice pair
# (X, Y) = (4c0x*d + 4c1x*n, 4c0y*d + 4c1y*n) over D = 4d.
_VERTICES = {r: {name: _quarters(c) for name, c in t.items()} for r, t in _VERTEX_COORDS.items()}
_MARKS = {r: [(name, _quarters(c), host) for name, c, host in t] for r, t in _MARK_COORDS.items()}
# host edge -> its two vertex names
_EDGE_VERTICES = {r: {e: (a, b) for e, a, b in edges} for r, edges in _EDGES.items()}


def _off_lattice(points: Iterable[tuple[int, int]], frame: int) -> list[Point]:
    """The lattice points as `Point`s (x, y)/frame, with one Fraction for
    each distinct coordinate."""
    points = list(points)
    values = set(chain.from_iterable(points))
    coords = dict(zip(values, map(Fraction, values, repeat(frame))))
    return [Point(coords[x], coords[y]) for x, y in points]


# ---------------------------------------------------------------------------
# Planar graph object
# ---------------------------------------------------------------------------


class GraphEdge(NamedTuple):
    name: str
    a: str
    b: str


_GRAPH_EDGES = {r: tuple(GraphEdge(*e) for e in edges) for r, edges in _EDGES.items()}


class PlanarGraph(NamedTuple):
    """The regime's graph at b: named vertices, edges between them, and
    marked points (name -> (point, host edge)).  Equal to the tuple of its
    fields, and unhashable, since it holds dicts; nothing is cached, so
    every method reads the current vertices."""

    regime: str
    b: Fraction
    vertices: dict[str, Point]
    edges: list[GraphEdge]
    marks: dict[str, tuple[Point, str]]
    boundary: bool

    def all_segments(self) -> tuple[Segment, ...]:
        """Edge segments.  An edge whose ends coincide is skipped: at a
        regime boundary an edge can shrink to a point (beta's B3 at
        b = 5/7), which is a vertex the graph keeps."""
        return tuple(
            Segment(p, q)
            for e in self.edges
            if (p := self.vertices[e.a]) != (q := self.vertices[e.b])
        )

    def to_json(self) -> dict:
        return {
            "regime": self.regime,
            "b": f"{_int_str(self.b.numerator)}/{_int_str(self.b.denominator)}",
            "boundary": self.boundary,
            "vertices": {n: p.to_json() for n, p in sorted(self.vertices.items())},
            "edges": [[e.name, e.a, e.b] for e in self.edges],
            "marks": {n: [p.to_json(), host] for n, (p, host) in sorted(self.marks.items())},
        }

    def to_svg(self) -> str:
        size = 640
        pts = list(self.vertices.values()) + [p for p, _ in self.marks.values()]
        # Below 2^1020 in size, every float of the layout stays finite.
        if any(abs(v) > 2**1020 for p in pts for v in p):
            raise ValueError(f"b = {rational_str(self.b)}: coordinates beyond float range, no SVG export")
        xs = [float(p.x) for p in pts]
        ys = [float(p.y) for p in pts]
        x0, x1 = min(xs), max(xs)
        y0, y1 = min(ys), max(ys)
        span = max(x1 - x0, y1 - y0) or 1.0
        pad = 0.08 * span

        def sx(v: float) -> float:
            return (v - x0 + pad) / (span + 2 * pad) * size

        def sy(v: float) -> float:
            return size - (v - y0 + pad) / (span + 2 * pad) * size

        lines = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
            f'viewBox="0 0 {size} {size}">',
            f'<!-- regime {self.regime}, b = {rational_str(self.b)} -->',
        ]
        for e in self.edges:
            pa, pb = self.vertices[e.a], self.vertices[e.b]
            lines.append(
                f'<line x1="{sx(float(pa.x)):.2f}" y1="{sy(float(pa.y)):.2f}" '
                f'x2="{sx(float(pb.x)):.2f}" y2="{sy(float(pb.y)):.2f}" '
                'stroke="black" stroke-width="1.5"/>'
            )
        for name, p in sorted(self.vertices.items()):
            cx, cy = sx(float(p.x)), sy(float(p.y))
            lines.append(f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="3" fill="black"/>')
            lines.append(f'<text x="{cx + 4:.2f}" y="{cy - 4:.2f}" font-size="11">{name}</text>')
        for name, (p, _) in sorted(self.marks.items()):
            cx, cy = sx(float(p.x)), sy(float(p.y))
            lines.append(f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="2" fill="crimson"/>')
            lines.append(
                f'<text x="{cx + 3:.2f}" y="{cy + 10:.2f}" font-size="9" fill="crimson">{name}</text>'
            )
        lines.append("</svg>")
        return "\n".join(lines)


class _TableLattice(NamedTuple):
    """A regime's tables at b = n/d on the lattice (1/4d)Z^2: each named
    point is the integer pair 4d*(c0 + c1*b)."""

    regime: str
    where: str  # "interior" or "boundary", as `regime_interval_contains`
    frame: int  # 4d
    vertices: dict[str, tuple[int, int]]
    marks: dict[str, tuple[tuple[int, int], str]]  # name -> (point, host edge)

    def named(self) -> dict[str, tuple[int, int]]:
        """Vertices and marks by name."""
        return {**self.vertices, **{name: pt for name, (pt, _) in self.marks.items()}}

    def edge_ends(self) -> dict[str, tuple[int, int, int, int]]:
        """Edge name -> (x1, y1, x2, y2), skipping an edge whose ends
        coincide, as `PlanarGraph.all_segments` does."""
        v = self.vertices
        return {e: (*v[a], *v[b]) for e, a, b in _EDGES[self.regime] if v[a] != v[b]}


def _table_lattice(regime: str, b) -> _TableLattice:
    """The regime's tables evaluated at b on the lattice (1/4d)Z^2, for b in
    the regime.  Every mark is checked there to sit on its host edge, which
    catches transcription slips before any point is used."""
    b = Fraction(b)
    where = _regime_where(regime, b)
    n, d = b.numerator, b.denominator
    vertices = {name: (ax * d + bx * n, ay * d + by * n) for name, (ax, bx, ay, by) in _VERTICES[regime].items()}
    hosts = _EDGE_VERTICES[regime]
    marks = {}
    for name, (ax, bx, ay, by), host in _MARKS[regime]:
        pt = (ax * d + bx * n, ay * d + by * n)
        p, q = hosts[host]
        if not _lattice_segment_holds(vertices[p], vertices[q], pt):
            raise AssertionError(f"mark {name} fell off edge {host} at b = {b}")
        marks[name] = (pt, host)
    return _TableLattice(regime, where, 4 * d, vertices, marks)


def build_gamma(regime: str, b) -> PlanarGraph:
    """Instantiate the invariant graph of the regime at parameter b.

    Vertices, edges and marks come from the per-regime tables, evaluated on
    the lattice (1/4d)Z^2 by `_table_lattice`, mark checks included.
    """
    b = Fraction(b)
    t = _table_lattice(regime, b)
    named = t.named()
    points = dict(zip(named, _off_lattice(named.values(), t.frame)))
    vertices = {name: points[name] for name in t.vertices}
    marks = {name: (points[name], host) for name, (_, host) in t.marks.items()}
    return PlanarGraph(regime, b, vertices, list(_GRAPH_EDGES[regime]), marks, t.where == "boundary")


# ---------------------------------------------------------------------------
# Invariance
# ---------------------------------------------------------------------------


class InvarianceReport(NamedTuple):
    ok: bool
    uncovered_segments: tuple[Segment, ...]
    uncovered_points: tuple[Point, ...]


def verify_invariance(graph: PlanarGraph, params: Params) -> InvarianceReport:
    """Exact check that F maps the graph into itself.

    Each edge is split at the axes, every affine piece is pushed through F,
    and the image is subtracted from the union of collinear graph edges;
    whatever remains, and every point off the graph that a piece collapses
    to, is reported, not raised (`planemap.image_gaps`).  The graph's
    current vertices are read once each, on the lattice of the lcm d of
    their denominators and b's, where F has the offsets (-d, d*b); an edge
    whose ends coincide is skipped, as in `PlanarGraph.all_segments`.
    """
    if params.a != -1:
        raise ValueError("invariance tables assume a = -1")
    b = params.b
    if b != graph.b:
        raise ValueError(f"params b = {rational_str(b)} differs from the graph's b = {rational_str(graph.b)}")
    d = lcm(b.denominator, *(v.denominator for pt in graph.vertices.values() for v in pt))
    lattice = {name: _on_frame(pt, d) for name, pt in graph.vertices.items()}
    ends = [(*lattice[e.a], *lattice[e.b]) for e in graph.edges if lattice[e.a] != lattice[e.b]]
    gaps, points = image_gaps(d, -d, b.numerator * (d // b.denominator), ends)
    return InvarianceReport(not gaps and not points, tuple(gaps), tuple(points))


# ---------------------------------------------------------------------------
# Marked-point orbit relations
# ---------------------------------------------------------------------------


def orbit_marks(regime: str, b) -> list[tuple[str, Point, str]]:
    """Documented one-step relations F(named point) = named point, verified exactly.

    The named points are the vertices and marks of `_table_lattice` at
    b = n/d, on the lattice (1/4d)Z^2, where F(X, Y) is
    (|X| - Y - 4d, X - |Y| + 4n); the graph itself is not built.  A failing
    relation raises: it means the coordinate tables disagree with the map,
    i.e. a transcription bug.
    """
    b = Fraction(b)
    t = _table_lattice(regime, b)
    frame, bq, named = t.frame, 4 * b.numerator, t.named()
    relations = _ORBIT_RELATIONS[regime]
    for src, dst in relations:
        x, y = named[src]
        image = (abs(x) - y - frame, x - abs(y) + bq)
        if image != named[dst]:
            raise AssertionError(
                f"orbit relation {src} -> {dst} fails at b = {b}: "
                f"F({src}) = {_off_frame(*image, frame)}, expected {_off_frame(*named[dst], frame)}"
            )
    points = _off_lattice((named[src] for src, _ in relations), frame)
    return [(src, pt, dst) for (src, dst), pt in zip(relations, points)]
