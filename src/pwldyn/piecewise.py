"""One-dimensional piecewise-affine maps with rational breakpoints.

Supports exact iteration, itineraries, and the orbit-closure Markov
partition (`IntegerFrame.partition`): the cuts and chosen seeds closed
under the map.  Its cells carry both the covering digraph of a periodic
orbit (built in `certify`) and the exact transfer recursion for the measure
of points not yet captured by a constancy piece.  A map here is concrete;
the one family with a parameter, the trapezoid maps, lives in `certify`.

A map with integer slopes sends (1/Q)Z into itself once Q clears its cuts
and offsets.  `IntegerFrame` is that form: cut and offset numerators over
one Q, and integer slopes.  Orbit walks, the partition closure and the
capture recursion run on those numerators, and Fractions are built only
for returned values.

The capture recursion is the computable content of paper result 2 (almost
every point of an invariant graph is captured by a plateau).  Its state
after n steps is the vector w_n of per-cell numerators over q*s^n, and
w_(n+1) is a fixed function of w_n alone.  So once some w_m equals an
earlier w_k, w_(m+j) = w_(k+j) for every j: the recursion stops at the
first repeated vector and fills the rest of the sequence from that cycle,
exactly.  On the circle regime's return maps this happens at m = 2 (one
slope-16 cell maps onto itself, so w_2 = w_1).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import Iterable, NamedTuple, Sequence

from pwldyn.rationals import rational_str


class Piece(NamedTuple):
    slope: Fraction
    offset: Fraction
    name: str | None = None


class Itinerary(NamedTuple):
    symbols: tuple[str, ...]

    def __str__(self) -> str:
        return "".join(self.symbols)

    @classmethod
    def parse(cls, text: str) -> "Itinerary":
        return cls(tuple(text))


class PiecewiseAffine1D:
    """Map of [lo, hi] given by `pieces[i]` on [breakpoints[i-1], breakpoints[i]].

    There is one more piece than breakpoints.  The map is a record: its
    orbits, partition and capture run on `integer_frame()`.
    """

    def __init__(self, lo, hi, breakpoints, pieces: Sequence[Piece]):
        if len(pieces) != len(breakpoints) + 1:
            raise ValueError("piece count must be breakpoint count + 1")
        self.lo = Fraction(lo)
        self.hi = Fraction(hi)
        self.breakpoints = [Fraction(b) for b in breakpoints]
        self.pieces = list(pieces)

    def symbol(self, i: int) -> str:
        """Itinerary symbol of piece i: its name, else its index."""
        return self.pieces[i].name or str(i)

    @cached_property
    def _frame(self) -> "IntegerFrame":
        for p in self.pieces:
            if p.slope.denominator != 1:
                raise ValueError(f"slope {rational_str(p.slope)} is not an integer: no finite orbit closure")
        cuts = (self.lo, *self.breakpoints, self.hi)
        q = lcm(*(c.denominator for c in cuts), *(p.offset.denominator for p in self.pieces))
        return IntegerFrame(
            q,
            tuple(c.numerator * (q // c.denominator) for c in cuts),
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


class IntegerFrame(NamedTuple):
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
        """([x, f(x), ..., f^k(x)], the piece index of each of the first k);
        errors if an iterate escapes the domain.  The package's one tie rule:
        at a cut held by two pieces a constancy piece wins, otherwise the
        left one does."""
        cuts, slopes, offsets = self.cuts, self.slopes, self.offsets
        lo, hi = cuts[0], cuts[-1]
        xs, idx = [x], []
        for _ in range(k):
            if not lo <= x <= hi:
                raise self._escaped(x)
            hits = _pieces_holding(cuts, x)
            i = next((j for j in hits if not slopes[j]), hits[0])
            x = slopes[i] * x + offsets[i]
            xs.append(x)
            idx.append(i)
        if not lo <= x <= hi:
            raise self._escaped(x)
        return xs, idx

    def partition(self, seeds: Iterable[int] = ()) -> tuple[list[int], list[tuple[int, range | None]]]:
        """(ends, cells) of the orbit-closure Markov partition: the sorted
        numerators of the cuts and `seeds` closed under the map (at a cut,
        under every piece holding it, so a jump still maps ends to ends; a
        point off the domain is not iterated), and per cell (piece index,
        cover), `cover` the index range of the cells it maps onto, None on a
        constancy piece."""
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


    def to_map(self) -> PiecewiseAffine1D:
        """The same map on Fractions."""
        q = self.q
        return PiecewiseAffine1D(
            Fraction(self.cuts[0], q), Fraction(self.cuts[-1], q),
            [Fraction(c, q) for c in self.cuts[1:-1]],
            [Piece(Fraction(s), Fraction(o, q)) for s, o in zip(self.slopes, self.offsets)],
        )

    def conjugated(self, p: int, c: Fraction) -> "IntegerFrame":
        """h o f o h^-1 for h(x) = p*x + c, p a nonzero integer: the same
        slopes, on the lattice that also clears c, over the least q."""
        q = lcm(self.q, c.denominator)
        k, cq = q // self.q, c.numerator * (q // c.denominator)
        cuts = [p * k * x + cq for x in self.cuts]
        offsets = [p * k * o + cq * (1 - s) for s, o in zip(self.slopes, self.offsets)]
        slopes = list(self.slopes)
        if p < 0:
            cuts.reverse()
            slopes.reverse()
            offsets.reverse()
        return _lowest_frame(q, cuts, slopes, offsets)

    def uncaptured(self, depth: int) -> tuple[tuple[int, ...], int, int]:
        """(w, q, s) with U_n = w[n] / (q*s^n), n = 0..depth, the measure of
        the points that avoid every constancy piece for n steps (a point
        mapped off the domain is captured); s is the lcm of the nonzero
        |slopes|.  On the cells of `partition()` this is the recursion
        u_(n+1)[i] = sum(u_n[cover_i]) / |slope_i|, u_0 the cell lengths, 0
        on constancy cells, cut off at the first repeated vector of cell
        numerators (exact: see the module docstring)."""
        if 0 not in self.slopes:
            raise ValueError("map has no constancy piece")
        ends, cells = self.partition()
        slopes = self.slopes
        s = lcm(*(abs(slopes[i]) for i, cov in cells if cov is not None))
        # (cover, s/|slope|) per cell; None on a constancy cell
        steps = [None if cov is None else (cov.start, cov.stop, s // abs(slopes[i])) for i, cov in cells]
        w = [b - a for a, b in zip(ends, ends[1:])]
        totals = [sum(w)]
        seen = {tuple(w): 0}
        for n in range(1, depth + 1):
            w = _transfer(steps, w)
            k = seen.setdefault(tuple(w), n)
            if k != n:  # w_n = w_k: the totals from n on repeat those of k..n-1
                totals += [totals[k + (j - k) % (n - k)] for j in range(n, depth + 1)]
                break
            totals.append(sum(w))
        return tuple(totals), self.q, s


def _lowest_frame(q: int, cuts, slopes, offsets) -> IntegerFrame:
    """The `IntegerFrame` of these pieces (numerators over q), equal
    neighbours merged, over the least denominator: q / gcd(q, cuts, offsets),
    the lcm of the denominators of the Fraction cuts and offsets."""
    keep = [0] + [i for i in range(1, len(slopes)) if (slopes[i], offsets[i]) != (slopes[i - 1], offsets[i - 1])]
    cuts = [cuts[0], *(cuts[i] for i in keep[1:]), cuts[-1]]
    offsets = [offsets[i] for i in keep]
    g = gcd(q, *cuts, *offsets)
    return IntegerFrame(q // g, tuple(c // g for c in cuts), tuple(slopes[i] for i in keep),
                        tuple(o // g for o in offsets))


def _transfer(steps, w: list[int]) -> list[int]:
    """One step of the capture recursion on the cell numerators."""
    return [0 if st is None else sum(w[st[0]:st[1]]) * st[2] for st in steps]


def iterate_point(m: PiecewiseAffine1D, x0, k: int) -> list[Fraction]:
    """Exact orbit [x0, f(x0), ..., f^k(x0)], walked on the numerators of
    `m.integer_frame`; errors if an iterate escapes or a slope is not an
    integer."""
    frame, (x,) = m.integer_frame((x0,))
    return [Fraction(y, frame.q) for y in frame.walk(x, k)[0]]
