"""Capture of orbits by plateau preimages, in exact measure.

On each regime's return-invariant intervals the first-return map is
piecewise affine with constancy pieces (the plateau preimages).  The set
still missing a constancy piece after n returns is an exact union of
rational intervals; its measure decreasing to zero is the computable
content of the full-measure statements.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from pwldyn.certify import pi_segment, sigma_segment
from pwldyn.graphs import build_gamma
from pwldyn.piecewise import PiecewiseAffine1D, conjugate_affine, plateau_preimage_measure
from pwldyn.planemap import Params, Segment, restrict_iterate_to_segment

F = Fraction

# Return-invariant edges per regime, with the power of F that fixes them.
_NEGB_EDGES = ("A", "B", "C", "D", "E", "G", "H")


@dataclass(frozen=True)
class CaptureProfile:
    edge: str
    length: Fraction
    # entry i = (captured, uncaptured) after i return steps; sums to length
    entries: tuple[tuple[Fraction, Fraction], ...]

    def uncaptured(self, depth: int) -> Fraction:
        return self.entries[depth][1]

    def to_csv_rows(self) -> list[str]:
        return [
            f"{self.edge},{i},{cap},{unc}"
            for i, (cap, unc) in enumerate(self.entries)
        ]


def return_map_for_edge(regime: str, b, edge: str) -> tuple[PiecewiseAffine1D, int]:
    """Return map of the edge under the regime's return power.

    Pieces that exit the edge must do so entirely; on these graphs every
    exiting branch lands on a plateau or its feeder and is captured, so the
    exact capture computation treats it as such.  The one edge whose exiting
    branch leaves the carrying line (edge G of the circle regime) is handled
    by the exact affine conjugation with the preceding edge.
    """
    b = Fraction(b)
    if regime == "negb":
        if edge not in _NEGB_EDGES:
            raise ValueError(f"edge {edge!r} is not return-invariant in regime negb")
        if edge == "G":
            inner, power = return_map_for_edge(regime, b, "E")
            # F maps E onto G by (x, y) -> chart' = -y + (7 - b).
            return conjugate_affine(inner, F(-1), 7 - b), power
        seg = build_gamma("negb", b).edge_segment(edge)
        power = 7
    elif regime == "alpha":
        if edge != "PI":
            raise ValueError("regime alpha supports the invariant interval 'PI'")
        seg = pi_segment(b)
        power = 6
    elif regime == "beta":
        if edge != "SIGMA":
            raise ValueError("regime beta supports the invariant interval 'SIGMA'")
        seg = sigma_segment(b)
        power = 7
    else:
        raise ValueError(f"no return structure tabulated for regime {regime!r}")
    m = restrict_iterate_to_segment(Params.standard(b), seg, power)
    _check_eventually_invariant(m, edge)
    return m, power


def _check_eventually_invariant(m: PiecewiseAffine1D, edge: str):
    """The return map must expose capture: at least one constancy piece.

    A wrong edge/power pairing fails earlier, when the iterated image leaves
    the carrying line.  Points mapped off the edge along the line are exact
    capture (they sit on a plateau feeder), which the preimage measure
    accounts for automatically.
    """
    if not any(p.is_constant for p in m.pieces):
        raise ValueError(f"edge {edge!r} has no capture under the return power")


def edge_capture_profile(regime: str, b, edge: str, depth: int) -> CaptureProfile:
    """(captured, uncaptured) exact measures per return depth on one edge."""
    m, _ = return_map_for_edge(regime, b, edge)
    length = Fraction(m.hi) - Fraction(m.lo)
    entries = []
    for n in range(depth + 1):
        captured = plateau_preimage_measure(m, n)
        entries.append((captured, length - captured))
    return CaptureProfile(edge, length, tuple(entries))


@dataclass(frozen=True)
class FullMeasureReport:
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
    dynamics and is reported alone.
    """
    b = Fraction(b)
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    if regime == "negb":
        graph = build_gamma("negb", b)
        profiles = tuple(edge_capture_profile(regime, b, e, depth) for e in _NEGB_EDGES)
        immediate = tuple(
            (name, _chart_len(graph.edge_segment(name))) for name in ("plateau", "feeder")
        )
    elif regime in ("alpha", "beta"):
        edge = "PI" if regime == "alpha" else "SIGMA"
        profiles = (edge_capture_profile(regime, b, edge, depth),)
        immediate = ()
    else:
        raise ValueError(f"no full-measure structure for regime {regime!r}")
    total = sum((p.length for p in profiles), Fraction(0))
    total += sum((length for _, length in immediate), Fraction(0))
    uncaptured = []
    for n in range(depth + 1):
        u = sum((p.uncaptured(n) for p in profiles), Fraction(0))
        if n == 0:
            u += sum((length for _, length in immediate), Fraction(0))
        uncaptured.append(u)
    return FullMeasureReport(regime, b, depth, profiles, immediate, total, tuple(uncaptured))


def _chart_len(seg: Segment) -> Fraction:
    lo, hi = seg.chart_interval()
    return hi - lo
