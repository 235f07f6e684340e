import math
import random
from fractions import Fraction as F

import pytest

import oracles
from pwldyn import graphs, planemap
from pwldyn.graphs import (
    REGIMES,
    InvarianceReport,
    build_gamma,
    orbit_marks,
    regime_interval_contains,
    verify_invariance,
)
from pwldyn.planemap import Params, Segment, detect_plateaus, point


def random_b(regime: str, rng: random.Random) -> F:
    u = F(rng.randint(1, 99999), 100001)
    return {
        "negb": -2 - 9 * u,
        "alpha": F(-1) + u * F(1, 4),
        "beta": F(2, 3) + u * F(1, 21),
        "band48": 4 + 4 * u,
    }[regime]


def test_vertex_examples():
    g = build_gamma("negb", -3)
    assert g.vertices["S"] == point(2, 0)
    assert g.vertices["R2"] == point(10, 8)
    assert g.vertices["P5"] == point(11, -1)
    assert g.vertices["P6"] == point(11, 7)

    g = build_gamma("band48", 5)
    assert g.marks["X2"][0] == point(F(-5, 2), -1)
    assert g.marks["Y2"][0] == point(F(5, 2), F(3, 2))
    assert g.vertices["P1"] == point(0, 6)

    g = build_gamma("alpha", F(-4, 5))
    assert g.marks["R1"][0] == point(F(-1, 5), 0)
    p7, host = g.marks["P7"]
    assert host == "A"
    assert oracles.contains_point(oracles.edge_segment(g, "A"), p7)


def test_regime_validation():
    assert regime_interval_contains("negb", F(-2)) == "boundary"
    assert regime_interval_contains("alpha", F(-3, 4)) == "boundary"
    assert regime_interval_contains("band48", F(9)) == "outside"
    with pytest.raises(ValueError):
        build_gamma("band48", 9)
    with pytest.raises(ValueError):
        build_gamma("nowhere", 5)
    assert build_gamma("negb", -2).boundary


def test_regime_interval_ends_and_neighbours():
    eps = F(1, 10**9)
    expected = {
        "negb": {F(-10**9): "interior", F(-2) - eps: "interior", F(-2): "boundary", F(-2) + eps: "outside"},
        "alpha": {
            F(-1) - eps: "outside", F(-1): "outside", F(-1) + eps: "interior",
            F(-3, 4) - eps: "interior", F(-3, 4): "boundary", F(-3, 4) + eps: "outside",
        },
        "beta": {
            F(2, 3) - eps: "outside", F(2, 3): "outside", F(2, 3) + eps: "interior",
            F(5, 7) - eps: "interior", F(5, 7): "boundary", F(5, 7) + eps: "outside",
        },
        "band48": {
            F(4) - eps: "outside", F(4): "outside", F(4) + eps: "interior",
            F(8) - eps: "interior", F(8): "outside", F(8) + eps: "outside",
        },
    }
    assert tuple(expected) == REGIMES
    for regime, cases in expected.items():
        for b, where in cases.items():
            assert regime_interval_contains(regime, b) == where, (regime, b)
            assert regime_interval_contains(regime, str(b)) == where, (regime, b)
    # b is parsed before the regime is looked up
    with pytest.raises(ValueError, match="Invalid literal for Fraction"):
        regime_interval_contains("nowhere", "x")
    with pytest.raises(ValueError, match="^unknown regime 'nowhere'$"):
        regime_interval_contains("nowhere", 5)


def test_invariance_all_regimes_random_b():
    rng = random.Random(90125)
    for regime in REGIMES:
        for _ in range(100):
            b = random_b(regime, rng)
            g = build_gamma(regime, b)
            report = verify_invariance(g, Params.standard(b))
            assert report.ok, (regime, b, report.uncovered_segments[:3])


def test_invariance_at_regime_boundaries():
    # at b = 5/7 beta's edge B3 shrinks to a point and is skipped
    for regime, b in (("negb", F(-2)), ("alpha", F(-3, 4)), ("beta", F(5, 7))):
        g = build_gamma(regime, b)
        assert g.boundary
        assert verify_invariance(g, Params.standard(b)).ok, regime
        assert len(g.all_segments()) == len(g.edges) - (regime == "beta")


def test_invariance_detects_corruption():
    g = build_gamma("negb", -3)
    g.vertices["S"] = point(3, 0)
    report = verify_invariance(g, Params.standard(-3))
    assert not report.ok
    assert report.uncovered_segments or report.uncovered_points


def test_invariance_reads_the_current_vertices():
    # Segments built before a vertex moves must not stand in for the moved graph.
    g = build_gamma("negb", -3)
    g.all_segments()
    g.vertices["S"] = point(3, 0)
    assert verify_invariance(g, Params.standard(-3)).ok is False
    assert Segment(point(3, 0), g.vertices["P1"]) in g.all_segments()


def _lattice_holds(g, pt) -> bool:
    """Whether pt lies on an edge of g, by the lattice test on one frame."""
    segs = g.all_segments()
    d = math.lcm(*(v.denominator for seg in segs for p in (seg.p, seg.q, pt) for v in p))
    on = planemap._on_frame
    return any(planemap._lattice_segment_holds(on(seg.p, d), on(seg.q, d), on(pt, d)) for seg in segs)


def _oracle_report(g, b) -> InvarianceReport:
    """`verify_invariance`'s report, checked against the Fraction oracle on `g.all_segments()`."""
    params = Params.standard(b)
    report = verify_invariance(g, params)
    gaps, points = oracles.image_gaps(params, g.all_segments())
    assert report == InvarianceReport(not gaps and not points, tuple(gaps), tuple(points)), (g.regime, b)
    return report


def test_invariance_matches_fraction_oracle():
    # Seeded corruptions (one vertex moved) of all four graphs, and the graphs themselves.
    rng = random.Random(1118)
    failed = off_points = 0
    for regime in REGIMES:
        for trial in range(15):
            b = random_b(regime, rng)
            g = build_gamma(regime, b)
            if trial:
                name = rng.choice(sorted(g.vertices))
                v = g.vertices[name]
                dx, dy = (F(rng.randint(-4, 4), rng.choice((1, 2, 3, 1000, 10**6 + 3))) for _ in "xy")
                g.vertices[name] = point(v.x + dx, v.y + dy)
            report = _oracle_report(g, b)
            failed += not report.ok
            off_points += bool(report.uncovered_points)
            for _ in range(20):
                seg = rng.choice(g.all_segments())
                pt = oracles.point_at_chart(seg, rng.choice(oracles.chart_interval(seg)) + F(rng.randint(-2, 2), 7))
                assert _lattice_holds(g, pt) == oracles.graph_contains(g, pt)
    assert failed >= 40 and off_points >= 5, (failed, off_points)
    # A vertex moved onto a neighbour shrinks their edge to a point, which
    # is skipped; and the regime boundaries, where beta's B3 is one point.
    skipped = failed = 0
    for regime in REGIMES:
        for trial, b in enumerate([*_BOUNDARIES[regime] * 3, *(random_b(regime, rng) for _ in range(6))]):
            g = build_gamma(regime, b)
            if trial % 3:
                e = rng.choice(g.edges)
                g.vertices[e.a] = g.vertices[e.b]
            skipped += len(g.all_segments()) < len(g.edges)
            failed += not _oracle_report(g, b).ok
    assert skipped >= 20 and failed >= 15, (skipped, failed)


def test_graph_op_converts_each_vertex_and_coordinate_once(monkeypatch):
    # Work counts on an intact graph of each regime: the invariance check
    # puts each vertex on the lattice once and builds no Segment, and
    # build_gamma and orbit_marks build one Fraction(x, 4d) per distinct
    # lattice coordinate of the points they return.
    on_frame, segments, fractions = [], [], []

    def counted_on_frame(pt, d, _f=planemap._on_frame):
        on_frame.append(pt)
        return _f(pt, d)

    def counted_init(self, p, q, _f=Segment.__init__):
        segments.append((p, q))
        _f(self, p, q)

    def counted_new(cls, *args, _f=F.__new__, **kwargs):
        if len(args) == 2:
            fractions.append(args)
        return _f(cls, *args, **kwargs)

    for module in (planemap, graphs):
        if hasattr(module, "_on_frame"):
            monkeypatch.setattr(module, "_on_frame", counted_on_frame)
    monkeypatch.setattr(Segment, "__init__", counted_init)
    monkeypatch.setattr(F, "__new__", counted_new)
    rng = random.Random(4040)
    for regime in REGIMES:
        b = random_b(regime, rng)
        params = Params.standard(b)
        named = graphs._table_lattice(regime, b).named()
        sources = [named[src] for src, _ in graphs._ORBIT_RELATIONS[regime]]
        fractions.clear()
        g = build_gamma(regime, b)
        assert len(fractions) == len({v for pt in named.values() for v in pt}), regime
        fractions.clear()
        orbit_marks(regime, b)
        assert len(fractions) == len({v for pt in sources for v in pt}), regime
        on_frame.clear()
        segments.clear()
        assert verify_invariance(g, params).ok
        assert len(on_frame) == len(g.vertices) and not segments, regime


def test_invariance_requires_standard_slice():
    g = build_gamma("negb", -3)
    with pytest.raises(ValueError):
        verify_invariance(g, Params(F(-2), F(-3)))


def test_invariance_refuses_params_at_another_b():
    g = build_gamma("negb", -3)
    with pytest.raises(ValueError, match="^params b = -4 differs from the graph's b = -3$"):
        verify_invariance(g, Params.standard(-4))
    with pytest.raises(ValueError, match="^invariance tables assume a = -1$"):
        verify_invariance(g, Params(F(-2), F(-4)))
    g = build_gamma("beta", F(34497, 50000))
    with pytest.raises(ValueError, match="^params b = 7/10 differs from the graph's b = 34497/50000$"):
        verify_invariance(g, Params.standard(F(7, 10)))


def test_orbit_marks_examples():
    rels = dict((src, dst) for src, _, dst in orbit_marks("band48", 5))
    assert rels["X2"] == "Y2" and rels["Y2"] == "P1"

    rels = dict((src, dst) for src, _, dst in orbit_marks("alpha", F(-4, 5)))
    assert rels["R7"] == "P2" and rels["T2"] == "P2"

    chain = {src: dst for src, _, dst in orbit_marks("negb", -3)}
    for i in range(1, 7):
        assert chain[f"P{i}"] == f"P{i + 1}"


def test_orbit_marks_many_b():
    rng = random.Random(5150)
    for regime in REGIMES:
        for _ in range(25):
            orbit_marks(regime, random_b(regime, rng))


def test_orbit_marks_points_match_the_graph():
    for regime, b in (("negb", F(-3)), ("alpha", F(-4, 5)), ("beta", F(34497, 50000)), ("band48", F(5))):
        g = build_gamma(regime, b)
        for src, pt, _ in orbit_marks(regime, b):
            assert pt == oracles.named_point(g, src), (regime, src)


def test_orbit_marks_names_a_failing_relation(monkeypatch):
    wrong = dict(graphs._ORBIT_RELATIONS, negb=[("P1", "P2"), ("P2", "P4")])
    monkeypatch.setattr(graphs, "_ORBIT_RELATIONS", wrong)
    with pytest.raises(AssertionError, match=r"orbit relation P2 -> P4 fails at b = -3: "):
        orbit_marks("negb", -3)
    with pytest.raises(ValueError, match=r"^b = -1 outside the negb regime$"):
        orbit_marks("negb", -1)


_WINDOWS = {"negb": (F(-11), F(-2)), "alpha": (F(-1), F(-3, 4)), "beta": (F(2, 3), F(5, 7)), "band48": (F(4), F(8))}
_BOUNDARIES = {"negb": [F(-2)], "alpha": [F(-3, 4)], "beta": [F(5, 7)], "band48": []}


def seeded_b(regime: str, rng: random.Random, count: int) -> list[F]:
    """Interior b = k/den, den up to 10^6 + 3 (every other one exactly that prime)."""
    lo, hi = _WINDOWS[regime]
    out = []
    while len(out) < count:
        den = 10**6 + 3 if len(out) % 2 else rng.randint(1, 10**6 + 3)
        k_lo, k_hi = math.floor(lo * den) + 1, math.ceil(hi * den) - 1
        if k_lo <= k_hi:
            out.append(F(rng.randint(k_lo, k_hi), den))
    return out


@pytest.mark.parametrize("regime", REGIMES)
def test_integer_tables_match_fraction_oracle(regime):
    rng = random.Random(f"tables {regime}")
    for b in seeded_b(regime, rng, 50) + _BOUNDARIES[regime]:
        g = build_gamma(regime, b)
        named = oracles.named_points(regime, b)
        assert g.vertices == {n: named[n] for n in graphs._VERTEX_COORDS[regime]}, b
        assert g.marks == {n: (named[n], host) for n, _, host in graphs._MARK_COORDS[regime]}, b
        for pt, host in g.marks.values():
            assert oracles.contains_point(oracles.edge_segment(g, host), pt), (b, host)
        assert orbit_marks(regime, b) == oracles.orbit_marks(regime, b), b


@pytest.mark.parametrize(
    "coords",
    [((0, -1), (2, 0)), ((-2, -1), (-1, 0))],
    ids=["off-the-line", "past-the-end"],
)
def test_mark_off_its_host_edge_raises(monkeypatch, coords):
    # negb's plateau runs from R2 = (7 - b, 8) to S = (-1 - b, 0), on y = x + 1 + b;
    # (-b, 2) is off that line, (-2 - b, -1) on it beyond S.
    marks = dict(graphs._MARKS, negb=[("P7", graphs._quarters(coords), "plateau")])
    monkeypatch.setattr(graphs, "_MARKS", marks)
    with pytest.raises(AssertionError, match=r"^mark P7 fell off edge plateau at b = -3$"):
        build_gamma("negb", -3)


def test_plateau_counts():
    rng = random.Random(2112)
    expected = {"negb": 1, "alpha": 2, "beta": 6, "band48": 2}
    for regime, count in expected.items():
        for _ in range(10):
            b = random_b(regime, rng)
            assert len(detect_plateaus(build_gamma(regime, b))) == count


def test_graph_serialization():
    g = build_gamma("negb", -3)
    js = g.to_json()
    assert js["vertices"]["S"] == ["2", "0"]
    assert ["plateau", "R2", "S"] in js["edges"]
    svg = g.to_svg()
    assert svg.startswith("<svg") and svg.endswith("</svg>")
