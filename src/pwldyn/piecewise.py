"""One-dimensional piecewise-affine maps with rational breakpoints.

Supports exact iteration, itineraries, and the orbit-closure Markov
partition: the cut points and chosen seeds closed under the map.  Its cells
carry both the covering digraph of a periodic orbit (built in `certify`)
and the exact transfer recursion for the measure of points not yet captured
by a constancy piece.  A map here is concrete; the one family with a
parameter, the trapezoid maps, lives in `certify`.

A map with integer slopes sends (1/Q)Z into itself once Q clears its cuts
and offsets.  `IntegerFrame` is that form: cut and offset numerators over
one Q, and integer slopes.  Orbit walks and the partition closure run on
those numerators, and Fractions are built only for returned values.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Iterable, Sequence

from pwldyn.rationals import rational_str


@dataclass(frozen=True)
class Piece:
    slope: Fraction
    offset: Fraction
    name: str | None = None

    def apply(self, x: Fraction) -> Fraction:
        return self.slope * x + self.offset

    @property
    def is_constant(self) -> bool:
        return self.slope == 0


@dataclass(frozen=True)
class Itinerary:
    symbols: tuple[str, ...]

    def __str__(self) -> str:
        return "".join(self.symbols)

    def __len__(self) -> int:
        return len(self.symbols)

    @classmethod
    def parse(cls, text: str) -> "Itinerary":
        return cls(tuple(text))


class PiecewiseAffine1D:
    """Map of [lo, hi] given by `pieces[i]` on [breakpoints[i-1], breakpoints[i]].

    There is one more piece than breakpoints.
    """

    def __init__(self, lo, hi, breakpoints, pieces: Sequence[Piece], chart: str | None = None):
        if len(pieces) != len(breakpoints) + 1:
            raise ValueError("piece count must be breakpoint count + 1")
        self.lo = Fraction(lo)
        self.hi = Fraction(hi)
        self.breakpoints = [Fraction(b) for b in breakpoints]
        self.pieces = list(pieces)
        self.chart = chart
        self._cuts = (self.lo, *self.breakpoints, self.hi)
        self._constant = tuple(p.is_constant for p in self.pieces)

    def cut_points(self) -> list[Fraction]:
        return list(self._cuts)

    def piece_index_at(self, x: Fraction) -> int:
        """Index of the piece containing x.

        At a boundary a constancy piece wins; otherwise the left piece does.
        """
        cuts = self._cuts
        if not cuts[0] <= x <= cuts[-1]:
            raise ValueError(f"{x} outside domain [{self.lo}, {self.hi}]")
        return _piece_at(self._constant, _pieces_holding(cuts, x))

    def __call__(self, x: Fraction) -> Fraction:
        return self.pieces[self.piece_index_at(x)].apply(Fraction(x))

    def symbol(self, i: int) -> str:
        """Itinerary symbol of piece i: its name, else its index."""
        return self.pieces[i].name or str(i)

    @cached_property
    def _frame(self) -> "IntegerFrame":
        for p in self.pieces:
            if p.slope.denominator != 1:
                raise ValueError(f"slope {rational_str(p.slope)} is not an integer: no finite orbit closure")
        q = lcm(*(c.denominator for c in self._cuts), *(p.offset.denominator for p in self.pieces))
        return IntegerFrame(
            q,
            tuple(c.numerator * (q // c.denominator) for c in self._cuts),
            tuple(p.slope.numerator for p in self.pieces),
            tuple(p.offset.numerator * (q // p.offset.denominator) for p in self.pieces),
        )

    def integer_frame(self, points: Sequence = ()) -> tuple["IntegerFrame", list[int]]:
        """The map's `IntegerFrame`, its q also clearing `points`, and their
        numerators over that q.  Raises ValueError on a slope that is not an
        integer."""
        frame = self._frame
        points = [Fraction(x) for x in points]
        k = lcm(frame.q, *(x.denominator for x in points)) // frame.q
        if k != 1:
            frame = IntegerFrame(frame.q * k, tuple(c * k for c in frame.cuts), frame.slopes,
                                 tuple(o * k for o in frame.offsets))
        return frame, [x.numerator * (frame.q // x.denominator) for x in points]


def _pieces_holding(cuts: Sequence, x) -> range:
    """Indices i with cuts[i] <= x <= cuts[i+1], by bisection of the sorted cuts."""
    return range(max(bisect_left(cuts, x) - 1, 0), min(bisect_right(cuts, x), len(cuts) - 1))


def _piece_at(constant: Sequence[bool], hits: range) -> int:
    """Tie rule among the pieces holding a point: a constancy piece wins,
    otherwise the left one does."""
    return next((i for i in hits if constant[i]), hits[0])


@dataclass(frozen=True)
class IntegerFrame:
    """A map with integer slopes on the lattice (1/q)Z.

    A point x is held as its numerator X = q*x.  Piece i covers
    [cuts[i], cuts[i+1]] and sends X to slopes[i]*X + offsets[i], which is
    again a numerator over q: every orbit and the partition closure stay on
    the lattice.
    """

    q: int
    cuts: tuple[int, ...]
    slopes: tuple[int, ...]
    offsets: tuple[int, ...]

    def _escaped(self, x: int) -> ValueError:
        lo, hi = (Fraction(c, self.q) for c in (self.cuts[0], self.cuts[-1]))
        return ValueError(f"iterate {Fraction(x, self.q)} escaped domain [{lo}, {hi}]")

    def walk(self, x: int, k: int) -> tuple[list[int], list[int]]:
        """([x, f(x), ..., f^k(x)], the piece index of each of the first k),
        with the tie rule of `PiecewiseAffine1D.piece_index_at`; errors if
        an iterate escapes the domain."""
        cuts, slopes, offsets = self.cuts, self.slopes, self.offsets
        constant = tuple(s == 0 for s in slopes)
        lo, hi = cuts[0], cuts[-1]
        xs, idx = [x], []
        for _ in range(k):
            if not lo <= x <= hi:
                raise self._escaped(x)
            i = _piece_at(constant, _pieces_holding(cuts, x))
            x = slopes[i] * x + offsets[i]
            xs.append(x)
            idx.append(i)
        if not lo <= x <= hi:
            raise self._escaped(x)
        return xs, idx

    def partition(self, seeds: Iterable[int] = ()) -> tuple[list[int], list[tuple[int, range | None]]]:
        """(ends, cells): the numerators of `markov_partition`'s sorted cell
        ends, and per cell (piece index, cover), cover None on a constancy
        piece."""
        cuts, slopes, offsets = self.cuts, self.slopes, self.offsets
        lo, hi = cuts[0], cuts[-1]
        ends = {*cuts, *seeds}
        todo = [x for x in ends if lo <= x <= hi]
        while todo:
            x = todo.pop()
            for i in _pieces_holding(cuts, x):
                y = slopes[i] * x + offsets[i]
                if y not in ends:
                    ends.add(y)
                    if lo <= y <= hi:
                        todo.append(y)
        ends = sorted(x for x in ends if lo <= x <= hi)
        cells = []
        for a, b in zip(ends, ends[1:]):
            i = bisect_right(cuts, a) - 1
            s, o = slopes[i], offsets[i]
            cover = None
            if s:
                fa, fb = sorted((s * a + o, s * b + o))
                cover = range(bisect_left(ends, max(fa, lo)), bisect_left(ends, min(fb, hi)))
            cells.append((i, cover))
        return ends, cells


def _merge(pieces: list[Piece], bps: list[Fraction]) -> tuple[list[Piece], list[Fraction]]:
    """Merge adjacent pieces with identical affine data."""
    out_p = [pieces[0]]
    out_b: list[Fraction] = []
    for b, p in zip(bps, pieces[1:]):
        prev = out_p[-1]
        if p.slope == prev.slope and p.offset == prev.offset:
            continue
        out_b.append(b)
        out_p.append(p)
    return out_p, out_b


def merged(m: PiecewiseAffine1D) -> PiecewiseAffine1D:
    pieces, bps = _merge(m.pieces, list(m.breakpoints))
    return PiecewiseAffine1D(m.lo, m.hi, bps, pieces, chart=m.chart)


def conjugate_affine(m: PiecewiseAffine1D, p: Fraction, q: Fraction) -> PiecewiseAffine1D:
    """Conjugate by h(x) = p*x + q: returns h o m o h^-1 on the image chart."""
    if p == 0:
        raise ValueError("conjugating map must be invertible")
    cuts = [p * c + q for c in m.cut_points()]
    pieces = [Piece(pc.slope, p * Fraction(pc.offset) + q * (1 - pc.slope), pc.name) for pc in m.pieces]
    if p < 0:
        cuts.reverse()
        pieces.reverse()
    return PiecewiseAffine1D(cuts[0], cuts[-1], cuts[1:-1], pieces, chart=m.chart)


def iterate_point(m: PiecewiseAffine1D, x0, k: int) -> list[Fraction]:
    """Exact orbit [x0, f(x0), ..., f^k(x0)]; errors if an iterate escapes."""
    x = Fraction(x0)
    orbit = [x]
    for _ in range(k):
        if not m.lo <= x <= m.hi:
            raise ValueError(f"iterate {x} escaped domain [{m.lo}, {m.hi}]")
        x = m(x)
        orbit.append(x)
    if not m.lo <= orbit[-1] <= m.hi:
        raise ValueError(f"iterate {orbit[-1]} escaped domain [{m.lo}, {m.hi}]")
    return orbit


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


# ---------------------------------------------------------------------------
# Orbit-closure Markov partition
# ---------------------------------------------------------------------------


def markov_partition(m: PiecewiseAffine1D, seeds: Sequence[Fraction] = ()) -> list[tuple]:
    """Sorted cells (a, b, piece, cover) cut at the forward closure of the
    cut points and `seeds` under m.

    At a point where two pieces meet, the value of every piece whose closed
    span holds the point joins the closure, so a jump at a breakpoint still
    maps cell ends to cell ends.  Points mapped off [lo, hi] are not
    iterated.  So each non-constant cell maps onto the cells of index range
    `cover`, plus its part off the domain; `cover` is None on a constancy
    piece.  Integer slopes make the closure finite: it lies on the lattice
    of `m.integer_frame(seeds)`, where it is computed; the cell ends become
    Fractions only here.
    """
    frame, xs = m.integer_frame(seeds)
    ends, cells = frame.partition(xs)
    fr = [Fraction(x, frame.q) for x in ends]
    return [(fr[k], fr[k + 1], m.pieces[i], cover) for k, (i, cover) in enumerate(cells)]


# ---------------------------------------------------------------------------
# Interval unions and the measure of uncaptured points
# ---------------------------------------------------------------------------


def interval_union(intervals) -> list[tuple[Fraction, Fraction]]:
    """Sorted disjoint union of closed intervals; touching intervals merge."""
    out: list[tuple[Fraction, Fraction]] = []
    for lo, hi in sorted(intervals):
        if out and lo <= out[-1][1]:
            if hi > out[-1][1]:
                out[-1] = (out[-1][0], hi)
        else:
            out.append((lo, hi))
    return out


def interval_gaps(lo: Fraction, hi: Fraction, union) -> list[tuple[Fraction, Fraction]]:
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


def uncaptured_numerators(m: PiecewiseAffine1D, depth: int) -> tuple[list[int], int, int]:
    """(w, q, s) with U_n = w[n] / (q*s^n) for n = 0..depth, U_n the measure
    of the points that avoid every constancy piece for n steps; points
    mapped off the domain are captured.

    On the cells of `markov_partition(m)` this is the transfer recursion
    u_{n+1}[i] = sum(u_n[cover_i]) / |slope_i|, with u_0 the cell lengths
    and 0 on constancy cells.  It runs on integer numerators over q*s^n,
    where q is that of `m.integer_frame()` and s the lcm of the |slopes|;
    so w[0] = (hi - lo)*q.
    """
    if not any(p.is_constant for p in m.pieces):
        raise ValueError("map has no constancy piece")
    frame, _ = m.integer_frame()
    ends, cells = frame.partition()
    q = frame.q
    s = lcm(*(abs(frame.slopes[i]) for i, cov in cells if cov is not None))
    # (cover, s/|slope|) per cell; None on a constancy cell
    steps = [None if cov is None else (cov.start, cov.stop, s // abs(frame.slopes[i])) for i, cov in cells]
    w = [b - a for a, b in zip(ends, ends[1:])]
    out = [sum(w)]
    for _ in range(depth):
        w = [0 if st is None else sum(w[st[0]:st[1]]) * st[2] for st in steps]
        out.append(sum(w))
    return out, q, s


def uncaptured_measures(m: PiecewiseAffine1D, depth: int) -> list[Fraction]:
    """[U_0, ..., U_depth] of `uncaptured_numerators`, as Fractions."""
    w, q, s = uncaptured_numerators(m, depth)
    out = []
    for wn in w:
        out.append(Fraction(wn, q))
        q *= s
    return out
