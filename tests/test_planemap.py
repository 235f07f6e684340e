import itertools
import random
from fractions import Fraction as F
from math import gcd

import pytest

import oracles
from oracles import iterate_F, quadrant_affine, scale_conjugate_check
from pwldyn.graphs import build_gamma
from pwldyn.planemap import (
    Params,
    Segment,
    SegmentLattice,
    _chart_segment,
    _cover_contains,
    _lattice_frame,
    _lattice_segment_holds,
    _line_chart,
    _line_cover,
    _piece_chart,
    apply_F,
    detect_plateaus,
    interval_gaps,
    interval_union,
    iterate_segment_pieces,
    point,
    restrict_iterate_to_segment,
    segment,
)

RNG = random.Random(424242)


def rand_q(lo=-10, hi=10) -> F:
    return F(RNG.randint(lo * 100, hi * 100), RNG.randint(1, 100))


def test_apply_F_examples():
    assert apply_F(Params.standard(7), point(0, 0)) == point(-1, 7)
    assert apply_F(Params.standard(-3), point(3, -1)) == point(3, -1)
    assert apply_F(Params.standard(F(-4, 5)), point(0, F(1, 5))) == point(F(-6, 5), -1)


def test_apply_F_equals_quadrant_affine():
    params = Params.standard(F(11, 3))
    for _ in range(300):
        pt = point(rand_q(), rand_q())
        q = oracles.quadrant_of(pt)
        assert quadrant_affine(params, q).apply(pt) == apply_F(params, pt)


def test_quadrant_affines_agree_on_boundaries():
    params = Params.standard(F(-7, 5))
    for _ in range(100):
        y = rand_q()
        a = quadrant_affine(params, 1).apply(point(0, abs(y)))
        b = quadrant_affine(params, 2).apply(point(0, abs(y)))
        assert a == b
        x = rand_q()
        c = quadrant_affine(params, 1).apply(point(abs(x), 0))
        d = quadrant_affine(params, 4).apply(point(abs(x), 0))
        assert c == d


def test_scale_conjugation():
    assert scale_conjugate_check(Params(F(-1), F(5)), F(1), point(2, 3))
    assert scale_conjugate_check(Params(F(-1), F(5)), F(2), point(3, -7))
    assert scale_conjugate_check(Params(F(-1), F(-13, 16)), F(137), point(1, 1))
    for _ in range(100):
        params = Params(rand_q(), rand_q())
        lam = abs(rand_q()) + F(1, 7)
        assert scale_conjugate_check(params, lam, point(rand_q(), rand_q()))
    with pytest.raises(ValueError):
        scale_conjugate_check(Params.standard(1), F(0), point(1, 1))


def test_restrict_f3_bottom_edge():
    # Along y = -1 between -b/2 and 0 the third iterate is a single branch.
    m = restrict_iterate_to_segment(Params.standard(5), segment((F(-5, 2), -1), (0, -1)), 3)
    assert len(m.pieces) == 1
    assert (m.pieces[0].slope, m.pieces[0].offset) == (4, 3)


def test_restrict_identity_k0():
    m = restrict_iterate_to_segment(Params.standard(5), segment((1, 2), (3, 7)), 0)
    assert len(m.pieces) == 1
    assert (m.pieces[0].slope, m.pieces[0].offset) == (1, 0)


def test_restrict_edge_A_return_map():
    m = restrict_iterate_to_segment(Params.standard(-3), segment((1, -3), (1, -1)), 7)
    assert m.breakpoints == [F(-5, 4), F(-9, 8)]
    assert [(p.slope, p.offset) for p in m.pieces] == [(0, -3), (16, 17), (0, -1)]


def test_restrict_matches_pointwise_iteration():
    params = Params.standard(F(-163, 200))
    seg = segment((F(-9) * F(-163, 200) - 8, F(-8) * F(-163, 200) - 7), (F(163, 200), 1))
    m = restrict_iterate_to_segment(params, seg, 6)
    lo, hi = oracles.chart_interval(seg)
    for _ in range(1000):
        t = lo + (hi - lo) * F(RNG.randint(0, 10**6), 10**6)
        pt = oracles.point_at_chart(seg, t)
        img = iterate_F(params, pt, 6)
        assert oracles.apply(m, t) == img.x  # chart of the slope-one segment is x


def test_restrict_rejects_noncollinear_image():
    with pytest.raises(ValueError):
        restrict_iterate_to_segment(Params.standard(5), segment((1, -3), (1, -1)), 2)


def test_detect_plateaus_negb():
    g = build_gamma("negb", -3)
    plats = detect_plateaus(g)
    assert plats == [Segment(point(2, 0), point(10, 8))]


def test_detect_plateaus_square_in_q2_empty():
    square = [
        segment((-3, 1), (-1, 1)),
        segment((-1, 1), (-1, 3)),
        segment((-1, 3), (-3, 3)),
        segment((-3, 3), (-3, 1)),
    ]
    assert detect_plateaus(square) == []


def test_detect_plateaus_merges_through_a_bridging_piece():
    # B overlaps both A and C; given in the order A, C, B the three pieces
    # still form one plateau.
    a = segment((0, 0), (1, 1))
    c = segment((2, 2), (3, 3))
    b = segment((F(5, 2), F(5, 2)), (F(1, 2), F(1, 2)))
    assert detect_plateaus([a, c, b]) == [segment((0, 0), (3, 3))]


def test_detect_plateaus_when_another_segment_refines_the_frame():
    # The other segment crosses an axis between two lattice points of its
    # walk, so the step refines the frame; the plateau must come back in
    # the original units.
    other = segment((F(-1, 2), F(-3, 2)), (F(1, 2), F(1, 2)))
    assert detect_plateaus([segment((0, 0), (2, 2)), other]) == [segment((0, 0), (2, 2))]
    assert detect_plateaus([segment((-1, -1), (1, 2)), segment((0, 0), (2, 2))]) == [
        segment((0, 0), (2, 2))
    ]


def _cover_and_charts(covered, queried):
    """The line cover of `covered`, its frame, and the charts of `queried`, on one lattice."""
    lat = SegmentLattice(*_lattice_frame(Params(F(0), F(0)), [*covered, *queried]))
    charts = [_piece_chart(start) for start in lat.starts]
    return _line_cover(charts[:len(covered)]), lat.frame, charts[len(covered):]


def _gaps(cover, chart):
    key, lo, hi = chart
    return interval_gaps(lo, hi, cover.get(key, ()))


def _gap_segments(cover, frame, chart):
    return [_chart_segment(chart[0], g0, g1, frame) for g0, g1 in _gaps(cover, chart)]


def _cover_segments(cover, frame):
    return [_chart_segment(key, lo, hi, frame) for key, union in cover.items() for lo, hi in union]


def test_piece_chart_matches_the_chart_of_its_ends():
    # `_piece_chart` reads the image's line from its direction with one
    # gcd; it must give what `_line_chart` walks from the image's ends.
    rng = random.Random(1940)
    for _ in range(2000):
        s0 = rng.randint(-50, 50)
        s1 = s0 + rng.randint(1, 50)
        x0, y0 = rng.randint(-10**6, 10**6), rng.randint(-10**6, 10**6)
        vx, vy = rng.choice((0, rng.randint(-12, 12))), rng.randint(-12, 12)
        if not vx and not vy:
            continue
        piece = (0, s0, s1, x0, vx, y0, vy)
        ends = (x0 + vx * s0, y0 + vy * s0, x0 + vx * s1, y0 + vy * s1)
        assert _piece_chart(piece) == _line_chart(*ends), piece
        _assert_chart_of_segment(_piece_chart(piece), segment(ends[:2], ends[2:]), 1)
    # A walk start (k = 0) is read by the same rule: its chart is that of
    # its segment, at whatever frame the lattice chose.
    segs = []
    while len(segs) < 500:
        p, q = [(F(rng.randint(-1000, 1000), rng.randint(1, 100)), F(rng.randint(-1000, 1000), rng.randint(1, 100)))
                for _ in range(2)]
        if rng.random() < 0.2:  # axis-parallel and diagonal lines too
            q = rng.choice(((q[0], p[1]), (p[0], q[1]), (q[0], p[1] + q[0] - p[0])))
        if p != q:
            segs.append(segment(p, q))
    lat = SegmentLattice(*_lattice_frame(Params(F(0), F(0)), segs))
    for start, seg in zip(lat.starts, segs):
        _assert_chart_of_segment(_piece_chart(start), seg, lat.frame)


def _assert_chart_of_segment(chart, seg, frame):
    """The chart (key, lo, hi) names seg's carrying line by a primitive
    direction whose chart coordinate grows, and [lo, hi] is seg's chart
    interval in frame units, both against the Fraction oracles."""
    (ux, uy, c), lo, hi = chart
    assert gcd(ux, uy) == 1 and (ux if abs(ux) >= abs(uy) else uy) > 0, chart
    a, b = F(uy), F(-ux)
    want = (F(1), b / a, F(c, frame) / a) if a else (F(0), F(1), F(c, frame) / b)
    assert oracles.line_key(seg) == want, (chart, seg)
    assert oracles.chart_interval(seg) == (F(lo, frame), F(hi, frame)), (chart, seg)


def test_line_cover_merges_touching_segments():
    inner = segment((F(1, 2), F(1, 2)), (F(3, 2), F(3, 2)))
    cover, frame, (chart,) = _cover_and_charts([segment((0, 0), (1, 1)), segment((2, 2), (1, 1))], [inner])
    assert _cover_segments(cover, frame) == [segment((0, 0), (2, 2))]
    assert len(cover) == 1 and len(cover[chart[0]]) == 1
    assert _gaps(cover, chart) == []


def test_line_cover_point_contact_is_no_overlap():
    queried = [
        segment((2, 0), (3, 0)),
        segment((2, 0), (2, 1)),  # another line through the end
        segment((0, 1), (2, 1)),  # a parallel line
        segment((1, 0), (3, 0)),
        segment((2, 0), (0, 0)),
    ]
    cover, frame, charts = _cover_and_charts([segment((0, 0), (2, 0))], queried)
    for chart in charts[:3]:
        assert _gaps(cover, chart) == [chart[1:]]
    assert _gaps(cover, charts[3]) != [charts[3][1:]]
    assert _gap_segments(cover, frame, charts[3]) == [segment((2, 0), (3, 0))]
    assert _gaps(cover, charts[4]) == []
    assert _cover_contains(cover, 2 * frame, 0) and not _cover_contains(cover, 3 * frame, 0)


def test_line_cover_gaps_on_a_steep_line():
    assert _line_chart(0, 0, -1, 3)[1:] == (0, 3)  # slope -3: the chart is y
    covered = [segment((0, 0), (F(-1, 3), 1)), segment((-1, 3), (F(-2, 3), 2))]
    cover, frame, charts = _cover_and_charts(covered, [segment((1, -3), (-2, 6)), covered[0]])
    assert _gap_segments(cover, frame, charts[0]) == [
        segment((1, -3), (0, 0)),
        segment((F(-1, 3), 1), (F(-2, 3), 2)),
        segment((-1, 3), (-2, 6)),
    ]
    assert _gaps(cover, charts[1]) == []


def test_line_cover_collinear_segments_in_opposite_orientations():
    down = segment((0, 4), (2, 0))  # slope -2
    up = segment((3, -2), (2, 0))
    flat = segment((1, 1), (-1, 0))  # slope 1/2, a second line
    queried = [segment((0, 4), (3, -2)), segment((-1, 6), (4, -4)), segment((3, 2), (-3, -1))]
    cover, frame, charts = _cover_and_charts([down, flat, up], queried)
    assert _cover_segments(cover, frame) == [segment((3, -2), (0, 4)), segment((-1, 0), (1, 1))]
    assert _gaps(cover, charts[0]) == []
    assert _gap_segments(cover, frame, charts[1]) == [
        segment((4, -4), (3, -2)),
        segment((0, 4), (-1, 6)),
    ]
    assert _gap_segments(cover, frame, charts[2]) == [
        segment((-3, -1), (-1, 0)),
        segment((1, 1), (3, 2)),
    ]


def _brute_covered(covered, p, q, t2):
    """Whether the point of chart coordinate t2/2 on the line through p and q
    lies in a covered segment, by cross products and end coordinates alone."""
    (px, py), (qx, qy) = p, q
    axis = 0 if abs(qx - px) >= abs(qy - py) else 1
    for a, b in covered:
        if all((qx - px) * (y - py) == (qy - py) * (x - px) for x, y in (a, b)):
            lo, hi = sorted((a[axis], b[axis]))
            if 2 * lo <= t2 <= 2 * hi:
                return True
    return False


def test_line_cover_helpers_match_brute_force():
    rng = random.Random(2028)
    directions = [(1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (1, 2), (1, -3), (3, 1), (-2, 5), (4, -1)]
    seen = dict.fromkeys(("steep", "flat", "reversed", "touching", "point_contact"), 0)

    def at(line, t):
        (x, y), (ux, uy) = line
        return x + t * ux, y + t * uy

    for _ in range(300):
        d = rng.choice((1, 2, 3, 7))
        base = (rng.randint(-3, 3), rng.randint(-3, 3))
        lines = [(rng.choice((base, (rng.randint(-3, 3), rng.randint(-3, 3)))), rng.choice(directions))
                 for _ in range(rng.randint(1, 3))]
        covered = [tuple(at(line, t) for t in rng.sample(range(-3, 4), 2)) for line in lines for _ in range(3)]
        covered = covered[: rng.randint(1, len(covered))]
        charts = [_line_chart(*a, *b) for a, b in covered]
        cover = _line_cover(charts)
        assert list(cover) == list(dict.fromkeys(key for key, _, _ in charts))
        for union in cover.values():
            assert all(lo < hi for lo, hi in union)
            assert all(h < l2 for (_, h), (l2, _) in zip(union, union[1:]))
        for (a, b), (key, lo, hi) in zip(covered, charts):
            axis = 0 if abs(b[0] - a[0]) >= abs(b[1] - a[1]) else 1
            seen["steep" if axis else "flat"] += 1
            seen["reversed"] += a[axis] > b[axis]
            seen["touching"] += any(k == key and (l2 == hi or h2 == lo) for k, l2, h2 in charts)
            ends = sorted((a, b), key=lambda pt: pt[axis])
            assert _chart_segment(key, lo, hi, d) == segment(*((F(x, d), F(y, d)) for x, y in ends))

        queried = [(at(line, -6), at(line, 6))[:: rng.choice((1, -1))] for line in lines]
        queried += [tuple(at(line, t) for t in rng.sample(range(-5, 6), 2)) for line in lines]
        for a, _ in covered:  # through a covered end, along another direction
            queried.append((a, at((a, rng.choice(directions)), rng.choice((1, 2, -1)))))
        for p, q in queried:
            key, lo, hi = _line_chart(*p, *q)
            axis = 0 if abs(q[0] - p[0]) >= abs(q[1] - p[1]) else 1
            assert (lo, hi) == tuple(sorted((p[axis], q[axis])))
            gaps = interval_gaps(lo, hi, cover.get(key, ()))
            assert all(lo <= g0 < g1 <= hi for g0, g1 in gaps)
            assert all(g1 < g2 for (_, g1), (g2, _) in zip(gaps, gaps[1:]))
            hits = []
            for t2 in range(2 * lo, 2 * hi + 1):
                hit = _brute_covered(covered, p, q, t2)
                hits.append(hit)
                inside = any(2 * g0 < t2 < 2 * g1 for g0, g1 in gaps)
                on_gap = any(2 * g0 <= t2 <= 2 * g1 for g0, g1 in gaps)
                # gap ends are integers: a covered point is inside no gap; an
                # uncovered one lies on a gap, and inside it unless an integer
                assert not inside if hit else on_gap and (inside or t2 % 2 == 0), (p, q, t2)
            seen["point_contact"] += sum(hits) == 1

        points = {at(line, t) for line in lines for t in range(-6, 7)}
        points |= {(rng.randint(-12, 12), rng.randint(-12, 12)) for _ in range(20)}
        for pt in points:
            want = any(_lattice_segment_holds(a, b, pt) for a, b in covered)
            assert _cover_contains(cover, *pt) == want, (covered, pt)
    assert min(seen.values()) >= 50, seen


def test_interval_union_and_gaps_match_the_cell_oracle():
    # The engine's sweeps against the oracles' cell counts, and both against
    # the sets themselves, read at every end and between consecutive ends
    # (where neither set can change).
    rng = random.Random(4545)
    seen = dict.fromkeys(("fraction", "empty", "point", "touching", "nested", "no_gap", "split"), 0)
    for _ in range(2000):
        den = rng.choice((1, 1, 2, 3))
        end = (lambda: rng.randint(-8, 8)) if den == 1 else (lambda: F(rng.randint(-8, 8), den))
        intervals = []
        for _ in range(rng.choice((0, 1, 2, 3, 4, 6))):
            a = end()
            b = a if rng.random() < 0.15 else end()
            if intervals and rng.random() < 0.3:  # an end of an earlier interval
                a = rng.choice(rng.choice(intervals))
            intervals.append((min(a, b), max(a, b)))
        lo, hi = sorted((end(), end()))
        union = interval_union(intervals)
        assert union == oracles.interval_union(intervals), intervals
        gaps = interval_gaps(lo, hi, union)
        assert gaps == oracles.interval_gaps(lo, hi, union), (lo, hi, union)

        ends = sorted({v for iv in intervals for v in iv} | {lo, hi})
        samples = [*ends, *(F(u + v, 2) for u, v in zip(ends, ends[1:])), ends[0] - 1, ends[-1] + 1]
        for x in samples:
            held = any(a <= x <= b for a, b in intervals)
            assert held == any(a <= x <= b for a, b in union), (intervals, x)
            if lo < hi and lo <= x <= hi:
                assert (not held) <= any(g0 <= x <= g1 for g0, g1 in gaps), (lo, hi, intervals, x)
                assert not (held and any(g0 < x < g1 for g0, g1 in gaps)), (lo, hi, intervals, x)
        assert all(h < l2 for (_, h), (l2, _) in zip(union, union[1:]))
        assert all(g1 <= g2 for (_, g1), (g2, _) in zip(gaps, gaps[1:]))  # a point of the union splits
        assert all(lo <= g0 < g1 <= hi for g0, g1 in gaps)
        seen["fraction"] += den > 1
        seen["empty"] += not intervals
        seen["point"] += any(a == b for a, b in intervals) or lo == hi
        seen["touching"] += any(b1 == a2 for (_, b1), (a2, _) in itertools.permutations(intervals, 2))
        seen["nested"] += any(a1 <= a2 and b2 <= b1 for (a1, b1), (a2, b2) in itertools.permutations(intervals, 2))
        seen["no_gap"] += lo < hi and not gaps
        seen["split"] += len(gaps) > 1
    assert min(seen.values()) >= 100, seen


def test_detect_plateaus_band48_brute_force_oracle():
    b = F(5)
    g = build_gamma("band48", b)
    params = Params.standard(b)
    brute = []
    for seg in g.all_segments():
        for piece in oracles.iterate_segment_pieces(params, seg, 1):
            if piece.is_collapsed and piece.t0 != piece.t1:
                brute.append(
                    Segment(oracles.point_at_chart(seg, piece.t0), oracles.point_at_chart(seg, piece.t1))
                )

    def key(s: Segment):
        lo, hi = oracles.chart_interval(s)
        return (oracles.line_key(s), lo, hi)

    assert sorted(map(key, detect_plateaus(g))) == sorted(map(key, brute))


def test_negb_periodic_structure():
    for b in (F(-3), F(-5, 2), F(-71, 9)):
        params = Params.standard(b)
        fixed = point(-b, -1)
        assert apply_F(params, fixed) == fixed
        start = point(-b - F(16, 15), F(-1, 15))
        orbit = [start]
        for _ in range(7):
            orbit.append(apply_F(params, orbit[-1]))
        assert orbit[7] == orbit[0]
        assert len(set(orbit[:7])) == 7


def test_fifth_iterate_lands_on_graph():
    for b in (F(9, 2), F(5), F(31, 4)):
        g = build_gamma("band48", b)
        params = Params.standard(b)
        for _ in range(40):
            pt = point(rand_q(-40, 40), rand_q(-40, 40))
            assert oracles.graph_contains(g, iterate_F(params, pt, 5))


def test_segment_helpers():
    s = segment((0, 0), (4, 2))
    assert _line_chart(0, 0, 4, 2) == ((2, 1, 0), 0, 4)  # the chart is x
    assert oracles.point_at_chart(s, F(2)) == point(2, 1)
    assert _lattice_segment_holds((0, 0), (4, 2), (2, 1))
    assert not _lattice_segment_holds((0, 0), (4, 2), (2, 2))
    with pytest.raises(ValueError):
        Segment(point(1, 1), point(1, 1))


# ---------------------------------------------------------------------------
# The lattice engine against the Fraction piece tracker
# ---------------------------------------------------------------------------

DENS = (1, 1, 2, 3, 4, 6, 7, 12, 97, 1000, 999_983, 10**6 + 3)
SEGMENT_KINDS = ("generic", "on_axis", "ends_on_axis", "origin", "plateau", "unit_lattice")


def _coord(rng: random.Random) -> F:
    den = rng.choice(DENS)
    return F(rng.randint(-8 * den, 8 * den), den)


def _random_segment(rng: random.Random, kind: str) -> Segment:
    def c() -> F:
        return _coord(rng)

    while True:
        if kind == "generic":
            p, q = (c(), c()), (c(), c())
        elif kind == "on_axis":
            p, q = ((c(), 0), (c(), 0)) if rng.random() < 0.5 else ((0, c()), (0, c()))
        elif kind == "ends_on_axis":
            p, q = ((0, c()) if rng.random() < 0.5 else (c(), 0)), (c(), c())
        elif kind == "origin":  # the origin inside the segment
            q = (c(), c())
            lam = -F(rng.randint(1, 40), rng.choice(DENS[:9]))
            p = (lam * q[0], lam * q[1])
        elif kind == "plateau":  # slope +-1: F collapses its parts in Q1 (slope 1) or Q3 (slope -1)
            x0, y0, d = c(), c(), c()
            p, q = (x0, y0), (x0 + d, y0 + rng.choice((1, -1)) * d)
        else:  # integer ends of coprime span: crossings fall between lattice points
            p = (rng.randint(-6, 6), rng.randint(-6, 6))
            q = (p[0] + rng.randint(-9, 9), p[1] + rng.randint(-9, 9))
        if p != q:
            return segment(p, q)


def _engine_pieces(params: Params, seg: Segment, k: int):
    lat = SegmentLattice(*_lattice_frame(params, [seg]))
    frame = lat.frame
    pieces = iterate_segment_pieces(lat, k)
    _, _, _, px, ux, py, uy = lat.starts[0]
    tp, ut = (px, ux) if abs(ux) >= abs(uy) else (py, uy)
    d = lat.frame
    out = [
        (F(tp + ut * s0, d), F(tp + ut * s1, d),
         point(F(x0 + vx * s0, d), F(y0 + vy * s0, d)), point(F(x0 + vx * s1, d), F(y0 + vy * s1, d)))
        for _, s0, s1, x0, vx, y0, vy in pieces
    ]
    return out, lat.frame > frame


def _restricted(fn, params: Params, seg: Segment, k: int):
    try:
        m = fn(params, seg, k)
    except ValueError as exc:
        return str(exc)
    return (m.lo, m.hi, m.breakpoints, [(p.slope, p.offset) for p in m.pieces])


def test_engine_matches_fraction_tracker():
    rng = random.Random(20261018)
    seen = {"rescaled": 0, "collapsed": 0, "errors": 0, "maps": 0}
    for case in range(150):
        a = rng.choice((F(-1), F(-2), F(-3, 2)))
        params = Params(a, _coord(rng))
        seg = _random_segment(rng, SEGMENT_KINDS[case % len(SEGMENT_KINDS)])
        for k in range(8):
            tracked = oracles.iterate_segment_pieces(params, seg, k)
            got, rescaled = _engine_pieces(params, seg, k)
            assert got == [(p.t0, p.t1, p.at(p.t0), p.at(p.t1)) for p in tracked], (params, seg, k)
            want = _restricted(oracles.restrict_iterate_to_segment, params, seg, k)
            assert _restricted(restrict_iterate_to_segment, params, seg, k) == want, (params, seg, k)
            seen["rescaled"] += rescaled
            seen["collapsed"] += any(p.is_collapsed for p in tracked)
            seen["errors" if isinstance(want, str) else "maps"] += 1
    assert min(seen.values()) >= 50, seen


def test_engine_matches_tracker_on_return_maps():
    # Capture and certificate return maps: the images stay on the line.
    from pwldyn.certify import phi_family, psi_family

    rng = random.Random(77)
    cases = []
    for _ in range(8):
        b = -2 - 9 * F(rng.randint(1, 10**6 + 2), 10**6 + 3)
        edge = oracles.edge_segment(build_gamma("negb", b), rng.choice("ABCDEH"))
        cases.append((b, edge, 7))
        for fam in (phi_family(), psi_family()):
            lo, hi = fam.b_window
            b = lo + (hi - lo) * F(rng.randint(1, 10**6 + 2), 10**6 + 3)
            cases.append((b, fam.segment(b), fam.return_power))
    for b, seg, k in cases:
        params = Params.standard(b)
        for j in range(k + 1):
            want = _restricted(oracles.restrict_iterate_to_segment, params, seg, j)
            assert _restricted(restrict_iterate_to_segment, params, seg, j) == want, (b, seg, j)
        assert not isinstance(want, str)
