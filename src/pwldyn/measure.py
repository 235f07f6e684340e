"""Capture of orbits by plateau preimages, in exact measure.

On each regime's return-invariant intervals the first-return map is
piecewise affine with constancy pieces (the plateau preimages).  The
measure of the set still missing a constancy piece after n returns follows
an exact transfer recursion on the map's orbit-closure Markov partition
(`IntegerFrame.uncaptured`); its decrease to zero is the computable
content of the full-measure statements, paper result 2.  The return maps
stay on integers from the tables to the recursion: the return edges are
read as lattice ends off the integer tables, with no graph built; one walk
of F^7 restricts the circle regime's six edges A, B, C, D, E and H to
`IntegerFrame`s, and edge G's frame is E's conjugated on the lattice.

The recursion returns integer numerators w_n over q*s^n.  Its state is
the vector of per-cell numerators, and each step is a fixed function of
that vector, so it stops at the first vector it has seen before: from
w_m = w_k on, the sequence repeats with period m - k, exactly.  On the
circle regime every edge repeats after one step (w_2 = w_1: one slope-16
cell maps onto itself), so a report at depth 80 runs two steps per edge.
A profile keeps the numerators, and its entries are built as Fractions on
demand, when they are read or printed.  So does the report: its total at a
depth sums the edges' Fractions at that depth only when it is read.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from pwldyn.certify import trapezoid_family
from pwldyn.graphs import _regime_where, _table_lattice
from pwldyn.piecewise import IntegerFrame
from pwldyn.planemap import LatticeSegment, _restricted_frames
from pwldyn.rationals import rational_str


# Return-invariant edges of the circle regime, each returned by F^7.
_NEGB_EDGES = ("A", "B", "C", "D", "E", "G", "H")


class CaptureProfile(NamedTuple):
    edge: str
    length: Fraction
    # the uncaptured measure after n return steps is w[n] / (q*s^n)
    w: tuple[int, ...]
    q: int
    s: int

    @property
    def entries(self) -> tuple[tuple[Fraction, Fraction], ...]:
        """Entry n = (captured, uncaptured) after n return steps; sums to length."""
        lq, q, out = self.w[0], self.q, []
        for wn in self.w:
            out.append((Fraction(lq - wn, q), Fraction(wn, q)))
            lq *= self.s
            q *= self.s
        return tuple(out)

    def uncaptured(self, depth: int) -> Fraction:
        _check_depth(depth, len(self.w) - 1)
        return Fraction(self.w[depth], self.q * self.s**depth)

    def to_csv_rows(self) -> list[str]:
        return [
            f"{self.edge},{i},{cap},{unc}"
            for i, (cap, unc) in enumerate(self.entries)
        ]


def _check_depth(depth: int, top: int) -> None:
    """Refuse a depth outside 0..top, the depths a profile or report holds."""
    if not 0 <= depth <= top:
        raise ValueError(f"depth {depth} outside 0..{top}")


# The deepest capture `edge_capture_profile` and `full_measure_report` take.
# A report holds about depth^2 digits: `pwldyn measure --regime negb --b -3`
# took 0.3 s / 53 MB at depth 1000, 1.8 s / 166 MB at 2000 and 3.3 s /
# 251 MB at 2500 (Python 3.11, a shared 2-core machine), so about 1 GB
# near 5000.  Above it a request is refused before any return map is built.
_MAX_DEPTH = 5_000


def _require_depth(depth: int) -> None:
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    if depth > _MAX_DEPTH:
        raise ValueError(f"depth must be <= {_MAX_DEPTH}, got {depth}")


def _return_lattice(regime: str, b: Fraction) -> tuple[int, int, int, dict[str, LatticeSegment], int]:
    """(frame, a, b, ends, power): the regime's edges at b as lattice ends by
    name, in a frame where F has the offsets (a, b), and F's return power.
    negb reads its graph tables on (1/4d)Z^2, b = n/d, plateau and feeder
    included; alpha and beta read the family's interval on (1/d)Z^2, each
    coordinate c0 + c1*b as c0*d + c1*n, and refuse it where it is a point."""
    if regime == "negb":
        t = _table_lattice("negb", b)
        return t.frame, -t.frame, 4 * b.numerator, t.edge_ends(), 7
    fam = trapezoid_family(regime)
    _regime_where(regime, b)
    n, d = b.numerator, b.denominator
    ends = tuple(c0 * d + c1 * n for pt in fam.ends for c0, c1 in pt)
    if ends[:2] == ends[2:]:
        raise ValueError(f"regime {regime}, edge {fam.edge}: the edge is a single point "
                         f"at b = {rational_str(b)} (degenerate segment)")
    return d, -d, n, {fam.edge: ends}, fam.return_power


def _return_frames(regime: str, b: Fraction, lattice: tuple, edges: tuple[str, ...]) -> dict[str, IntegerFrame]:
    """Frames of F^power on the named `edges` of a `_return_lattice`, in
    their order, from one walk.  Each must expose capture: a constancy
    piece.  A wrong edge/power pairing fails earlier, when the image leaves
    the carrying line; points mapped off the edge along it sit on a plateau
    feeder, and the capture recursion counts them as captured.  G is not
    walked: F maps E onto G by (x, y) -> chart' = -y + (7 - b), so G's frame
    is E's conjugated by x -> -x + (7 - b)."""
    frame, a, bq, ends, power = lattice
    walked = dict.fromkeys("E" if e == "G" else e for e in edges)
    frames = _restricted_frames(frame, a, bq, [ends[e] for e in walked], power)
    out = {}
    for edge in walked:
        try:
            out[edge] = next(frames)
        except ValueError as exc:
            raise ValueError(f"regime {regime}, edge {edge}: F^{power} does not return the edge "
                             f"at b = {rational_str(b)} ({exc})") from None
        if 0 not in out[edge].slopes:
            raise ValueError(f"edge {edge!r} has no capture under the return power")
    if "G" in edges:
        out["G"] = out["E"].conjugated(-1, 7 - b)
    return {e: out[e] for e in edges}


def _profile(edge: str, frame: IntegerFrame, depth: int) -> CaptureProfile:
    return CaptureProfile(edge, Fraction(frame.cuts[-1] - frame.cuts[0], frame.q), *frame.uncaptured(depth))


def edge_capture_profile(regime: str, b, edge: str, depth: int) -> CaptureProfile:
    """(captured, uncaptured) exact measures per return depth on one edge."""
    _require_depth(depth)
    b = Fraction(b)
    if regime == "negb":
        if edge not in _NEGB_EDGES:
            raise ValueError(f"edge {edge!r} is not return-invariant in regime negb")
    elif regime in ("alpha", "beta"):
        if edge != (fam_edge := trapezoid_family(regime).edge):
            raise ValueError(f"regime {regime} supports the invariant interval {fam_edge!r}")
    else:
        raise ValueError(f"no return structure tabulated for regime {regime!r}")
    return _profile(edge, _return_frames(regime, b, _return_lattice(regime, b), (edge,))[edge], depth)


class FullMeasureReport(NamedTuple):
    regime: str
    b: Fraction
    depth: int
    profiles: tuple[CaptureProfile, ...]
    # edges whose whole length feeds a plateau within two steps
    immediate: tuple[tuple[str, Fraction], ...]
    total_length: Fraction

    def _uncaptured(self, n: int) -> Fraction:
        # the fully captured edges are uncaptured at depth 0 only
        start = sum((length for _, length in self.immediate), Fraction(0)) if n == 0 else Fraction(0)
        return sum((p.uncaptured(n) for p in self.profiles), start)

    @property
    def uncaptured_total(self) -> tuple[Fraction, ...]:
        """The uncaptured measure at each depth 0..depth."""
        return tuple(map(self._uncaptured, range(self.depth + 1)))

    def uncaptured_fraction(self, depth: int) -> Fraction:
        _check_depth(depth, self.depth)
        return self._uncaptured(depth) / self.total_length

    def to_csv(self) -> str:
        lines = ["edge,depth,captured,uncaptured"]
        for prof in self.profiles:
            lines.extend(prof.to_csv_rows())
        for name, length in self.immediate:
            lines.append(f"{name},0,0,{length}")
            if self.depth >= 1:
                lines.append(f"{name},1,{length},0")
        return "\n".join(lines) + "\n"


def full_measure_report(regime: str, b, depth: int) -> FullMeasureReport:
    """Aggregate capture over the regime's return structure.

    For the circle regime this is all seven return edges plus the plateau
    and its feeder (both fully captured after one return).  For the two
    transition windows the return-invariant interval carries all asymptotic
    dynamics and is reported alone.  The uncaptured totals are summed when
    read (`FullMeasureReport.uncaptured_total`).
    """
    b = Fraction(b)
    _require_depth(depth)
    if regime == "negb":
        edges, captured = _NEGB_EDGES, ("plateau", "feeder")
    elif regime in ("alpha", "beta"):
        edges, captured = (trapezoid_family(regime).edge,), ()
    else:
        raise ValueError(f"no full-measure structure for regime {regime!r}")
    frame, _, _, ends, _ = lattice = _return_lattice(regime, b)
    frames = _return_frames(regime, b, lattice, edges)
    # each fully captured edge's chart length, max(|dx|, |dy|)
    immediate = tuple((e, Fraction(max(abs(x2 - x1), abs(y2 - y1)), frame))
                      for e in captured for x1, y1, x2, y2 in [ends[e]])
    profiles = tuple(_profile(e, f, depth) for e, f in frames.items())
    total = sum((p.length for p in profiles), sum((length for _, length in immediate), Fraction(0)))
    return FullMeasureReport(regime, b, depth, profiles, immediate, total)
