"""Capture of orbits by plateau preimages, in exact measure.

On each regime's return-invariant intervals the first-return map is
piecewise affine with constancy pieces (the plateau preimages).  The
measure of the set still missing a constancy piece after n returns follows
an exact transfer recursion on the map's orbit-closure Markov partition
(`piecewise.uncaptured_numerators`); its decrease to zero is the computable
content of the full-measure statements.  The recursion returns integer
numerators w_n over q*s^n, and a profile keeps just those: its entries are
built as Fractions on demand, when they are read or printed.  The report
sums the edges' numerators per depth over the lcm of their denominators,
one Fraction per depth.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import NamedTuple

from pwldyn.certify import TrapezoidFamily, trapezoid_family
from pwldyn.graphs import PlanarGraph, _regime_where, build_gamma
from pwldyn.piecewise import PiecewiseAffine1D, conjugate_affine, uncaptured_numerators
from pwldyn.planemap import Params, Segment, restrict_iterate_to_segment
from pwldyn.rationals import rational_str

F = Fraction

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
        return Fraction(self.w[depth], self.q * self.s**depth)

    def to_csv_rows(self) -> list[str]:
        return [
            f"{self.edge},{i},{cap},{unc}"
            for i, (cap, unc) in enumerate(self.entries)
        ]


def return_map_for_edge(regime: str, b, edge: str) -> PiecewiseAffine1D:
    """Return map of the edge under the regime's return power.

    Pieces that exit the edge must do so entirely; on these graphs every
    exiting branch lands on a plateau or its feeder and is captured, so the
    exact capture computation treats it as such.  The one edge whose exiting
    branch leaves the carrying line (edge G of the circle regime) is handled
    by the exact affine conjugation with the preceding edge.  The two
    transition windows read their edge, segment and power from their
    trapezoid family.
    """
    b = Fraction(b)
    if regime == "negb":
        if edge not in _NEGB_EDGES:
            raise ValueError(f"edge {edge!r} is not return-invariant in regime negb")
        graph = build_gamma("negb", b)
        if edge == "G":
            return _e_to_g(_negb_return_map(graph, "E"), b)
        return _negb_return_map(graph, edge)
    if regime in ("alpha", "beta"):
        fam = trapezoid_family(regime)
        if edge != fam.edge:
            raise ValueError(f"regime {regime} supports the invariant interval {fam.edge!r}")
        return _return_map(regime, b, edge, _window_segment(regime, b, fam), fam.return_power)
    raise ValueError(f"no return structure tabulated for regime {regime!r}")


def _window_segment(regime: str, b: Fraction, fam: TrapezoidFamily) -> Segment:
    """The transition window's invariant interval `fam.segment(b)`, for b in
    the regime; at some b inside it the interval shrinks to a point."""
    _regime_where(regime, b)
    try:
        return fam.segment(b)
    except ValueError as exc:
        raise ValueError(
            f"regime {regime}, edge {fam.edge}: the edge is a single point "
            f"at b = {rational_str(b)} ({exc})"
        ) from None


def _negb_return_map(graph: PlanarGraph, edge: str) -> PiecewiseAffine1D:
    """F^7 return map of a circle-regime edge other than G, on the graph at its b."""
    return _return_map("negb", graph.b, edge, graph.edge_segment(edge), 7)


def _e_to_g(e_map: PiecewiseAffine1D, b: Fraction) -> PiecewiseAffine1D:
    """Edge G's return map from edge E's: F maps E onto G by (x, y) ->
    chart' = -y + (7 - b), which conjugates the two."""
    return conjugate_affine(e_map, F(-1), 7 - b)


def _return_map(regime: str, b: Fraction, edge: str, seg: Segment, power: int) -> PiecewiseAffine1D:
    try:
        m = restrict_iterate_to_segment(Params.standard(b), seg, power)
    except ValueError as exc:
        raise ValueError(
            f"regime {regime}, edge {edge}: F^{power} does not return the edge "
            f"at b = {rational_str(b)} ({exc})"
        ) from None
    _check_eventually_invariant(m, edge)
    return m


def _check_eventually_invariant(m: PiecewiseAffine1D, edge: str):
    """The return map must expose capture: at least one constancy piece.

    A wrong edge/power pairing fails earlier, when the iterated image leaves
    the carrying line.  Points mapped off the edge along the line are exact
    capture (they sit on a plateau feeder), which the capture recursion
    counts as captured.
    """
    if not any(p.is_constant for p in m.pieces):
        raise ValueError(f"edge {edge!r} has no capture under the return power")


def edge_capture_profile(regime: str, b, edge: str, depth: int) -> CaptureProfile:
    """(captured, uncaptured) exact measures per return depth on one edge."""
    m = return_map_for_edge(regime, b, edge)
    return CaptureProfile(edge, m.hi - m.lo, *uncaptured_numerators(m, depth))


class FullMeasureReport(NamedTuple):
    regime: str
    b: Fraction
    depth: int
    profiles: tuple[CaptureProfile, ...]
    # edges whose whole length feeds a plateau within two steps
    immediate: tuple[tuple[str, Fraction], ...]
    total_length: Fraction
    uncaptured_total: tuple[Fraction, ...]  # per depth

    def uncaptured_fraction(self, depth: int) -> Fraction:
        return self.uncaptured_total[depth] / self.total_length

    def to_csv(self) -> str:
        lines = ["edge,depth,captured,uncaptured"]
        for prof in self.profiles:
            lines.extend(prof.to_csv_rows())
        for name, length in self.immediate:
            lines.append(f"{name},0,0,{length}")
            lines.append(f"{name},1,{length},0")
        return "\n".join(lines) + "\n"


def full_measure_report(regime: str, b, depth: int) -> FullMeasureReport:
    """Aggregate capture over the regime's return structure.

    For the circle regime this is all seven return edges plus the plateau
    and its feeder (both fully captured after one return).  For the two
    transition windows the return-invariant interval carries all asymptotic
    dynamics and is reported alone.  The uncaptured total at each depth is
    the sum of the edges' numerators over the lcm of their denominators.
    """
    b = Fraction(b)
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    if regime == "negb":
        graph = build_gamma("negb", b)
        maps = {}
        for e in _NEGB_EDGES:  # E comes before G
            maps[e] = _e_to_g(maps["E"], b) if e == "G" else _negb_return_map(graph, e)
        immediate = tuple(
            (name, graph.edge_segment(name).chart_length()) for name in ("plateau", "feeder")
        )
    elif regime in ("alpha", "beta"):
        edge = trapezoid_family(regime).edge
        maps = {edge: return_map_for_edge(regime, b, edge)}
        immediate = ()
    else:
        raise ValueError(f"no full-measure structure for regime {regime!r}")
    profiles = tuple(CaptureProfile(e, m.hi - m.lo, *uncaptured_numerators(m, depth)) for e, m in maps.items())
    immediate_length = sum((length for _, length in immediate), Fraction(0))
    total = sum((p.length for p in profiles), immediate_length)
    uncaptured = []
    dens = [p.q for p in profiles]  # q*s^n per profile
    for n in range(depth + 1):
        den = lcm(*dens)
        uncaptured.append(Fraction(sum(p.w[n] * (den // dn) for p, dn in zip(profiles, dens)), den))
        dens = [dn * p.s for p, dn in zip(profiles, dens)]
    uncaptured[0] += immediate_length
    return FullMeasureReport(regime, b, depth, profiles, immediate, total, tuple(uncaptured))
