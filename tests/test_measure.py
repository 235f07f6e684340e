import random
from fractions import Fraction as F

import pytest

import oracles
from oracles import return_map

from pwldyn import graphs, measure
from pwldyn.certify import phi_family, psi_family, trapezoid_family
from pwldyn.measure import edge_capture_profile, full_measure_report
from pwldyn.planemap import Params, restrict_iterate_to_segment


def test_edge_A_profile_examples():
    prof = edge_capture_profile("negb", -3, "A", 2)
    assert prof.length == 2
    assert prof.entries[0] == (0, 2)
    assert prof.entries[1] == (F(15, 8), F(1, 8))
    assert prof.entries[2][1] == F(1, 128)


def test_edge_A_decay_formula():
    prof = edge_capture_profile("negb", -3, "A", 10)
    for n in range(11):
        assert prof.uncaptured(n) == F(2) ** (1 - 4 * n)


def test_all_circle_edges_decay():
    for e in ("A", "B", "C", "D", "E", "G", "H"):
        prof = edge_capture_profile("negb", -3, e, 4)
        for n in range(5):
            assert prof.uncaptured(n) == prof.length * F(16) ** (-n)


def test_capture_depths_outside_a_profile_are_refused(monkeypatch):
    def forbidden(*args):
        raise AssertionError("graph or window built for a negative depth")

    with monkeypatch.context() as m:
        m.setattr(measure, "_table_lattice", forbidden)
        m.setattr(measure, "trapezoid_family", forbidden)
        for regime, b, edge in (("negb", -3, "A"), ("alpha", F(-163, 200), "PI")):
            with pytest.raises(ValueError, match=r"^depth must be >= 0, got -2$"):
                edge_capture_profile(regime, b, edge, -2)
            with pytest.raises(ValueError, match=r"^depth must be >= 0, got -2$"):
                full_measure_report(regime, b, -2)
    rep = full_measure_report("negb", -3, 4)
    prof = edge_capture_profile("negb", -3, "A", 4)
    assert rep.uncaptured_fraction(4) == F(1, 131072) and prof.uncaptured(4) == F(1, 32768)
    for depth in (-1, 5):
        with pytest.raises(ValueError, match=rf"^depth {depth} outside 0\.\.4$"):
            rep.uncaptured_fraction(depth)
        with pytest.raises(ValueError, match=rf"^depth {depth} outside 0\.\.4$"):
            prof.uncaptured(depth)
        with pytest.raises(ValueError, match=rf"^depth {depth} outside 0\.\.4$"):
            rep.profiles[0].uncaptured(depth)


def test_unknown_edge_errors():
    with pytest.raises(ValueError):
        edge_capture_profile("negb", -3, "plateau", 2)
    with pytest.raises(ValueError):
        edge_capture_profile("alpha", F(-163, 200), "A", 2)
    with pytest.raises(ValueError):
        full_measure_report("band48", 5, 2)


def test_return_map_for_edge_refusals():
    with pytest.raises(ValueError, match="^edge 'PI' is not return-invariant in regime negb$"):
        edge_capture_profile("negb", -3, "PI", 0)
    with pytest.raises(ValueError, match="^regime alpha supports the invariant interval 'PI'$"):
        edge_capture_profile("alpha", F(-163, 200), "SIGMA", 0)
    with pytest.raises(ValueError, match="^regime beta supports the invariant interval 'SIGMA'$"):
        edge_capture_profile("beta", F(34497, 50000), "PI", 0)
    with pytest.raises(ValueError, match="^no return structure tabulated for regime 'band48'$"):
        edge_capture_profile("band48", 5, "A", 0)
    single = r"^regime beta, edge SIGMA: the edge is a single point at b = 20/29 \(degenerate segment\)$"
    with pytest.raises(ValueError, match=single):
        edge_capture_profile("beta", F(20, 29), "SIGMA", 0)
    with pytest.raises(ValueError, match=r"^regime alpha, edge PI: F\^6 does not return the edge at b = -3/4 "):
        edge_capture_profile("alpha", F(-3, 4), "PI", 0)


def test_transition_return_maps_read_their_family():
    # measure's frame against the Fraction piece tracker and the public wrapper
    for regime, b in (("alpha", F(-163, 200)), ("beta", F(34497, 50000))):
        fam = trapezoid_family(regime)
        m = measure._return_frames(regime, b, measure._return_lattice(regime, b), (fam.edge,))[fam.edge].to_map()
        for want in (return_map(regime, b, fam.edge),
                     restrict_iterate_to_segment(Params.standard(b), fam.segment(b), fam.return_power)):
            assert (m.lo, m.hi, m.breakpoints, m.pieces) == (want.lo, want.hi, want.breakpoints, want.pieces)
        assert [p.edge for p in full_measure_report(regime, b, 0).profiles] == [fam.edge]


def test_full_measure_report_negb():
    rep = full_measure_report("negb", -3, 10)
    assert rep.total_length == 30  # seven return edges + plateau + feeder
    assert rep.uncaptured_fraction(10) <= 7 * F(2) ** (1 - 40)
    for i in range(10):
        assert rep.uncaptured_total[i + 1] < rep.uncaptured_total[i]
    csv = rep.to_csv()
    assert csv.splitlines()[0] == "edge,depth,captured,uncaptured"
    assert any(line.startswith("plateau,1,") for line in csv.splitlines())


def test_full_measure_report_depth0():
    rep = full_measure_report("negb", -3, 0)
    assert rep.uncaptured_total[0] == rep.total_length
    # plateau and feeder are captured at depth 1, a row a depth-0 report leaves out
    rows0 = rep.to_csv().splitlines()
    assert [row.split(",")[1] for row in rows0[1:]] == ["0"] * 9
    assert rows0[-2:] == ["plateau,0,0,8", "feeder,0,0,7"]
    rows1 = full_measure_report("negb", -3, 1).to_csv().splitlines()
    assert rows1[-4:] == ["plateau,0,0,8", "plateau,1,8,0", "feeder,0,0,7", "feeder,1,7,0"]
    assert {row.split(",")[1] for row in rows1[1:]} == {"0", "1"}


def test_full_measure_alpha_window():
    rep = full_measure_report("alpha", F(-163, 200), 12)
    assert rep.uncaptured_fraction(12) < F(1, 10**6)
    for i in range(12):
        assert rep.uncaptured_total[i + 1] < rep.uncaptured_total[i]


def test_full_measure_beta_window():
    rep = full_measure_report("beta", F(34497, 50000), 8)
    assert rep.uncaptured_fraction(8) < F(1, 10**6)
    for i in range(8):
        assert rep.uncaptured_total[i + 1] < rep.uncaptured_total[i]


def test_uncaptured_nests_to_repelling_fixed_point():
    from oracles import uncaptured_intervals

    m = return_map("negb", -3, "A")
    prof = edge_capture_profile("negb", -3, "A", 8)
    fixed = F(-17, 15)
    assert oracles.apply(m, fixed) == fixed
    prev_width = None
    for n in range(1, 9):
        ivs = uncaptured_intervals(m, n)
        assert len(ivs) == 1
        lo, hi = ivs[0]
        assert lo < fixed < hi and hi - lo == prof.uncaptured(n)
        if prev_width is not None:
            assert hi - lo < prev_width
        prev_width = hi - lo


def test_return_map_respects_general_b():
    for b in (F(-5, 2), F(-31, 7)):
        prof = edge_capture_profile("negb", b, "A", 3)
        for n in range(4):
            assert prof.uncaptured(n) == prof.length * F(16) ** (-n)


def test_capture_recursion_matches_interval_oracle():
    from oracles import uncaptured_intervals, uncaptured_measures

    rng = random.Random(6)

    def draw(lo, hi):
        return lo + (hi - lo) * F(rng.randint(1, 9999), 10000)

    cases = [("negb", e, draw(F(-11), F(-2))) for _ in range(20) for e in ("A", "B", "C", "D", "E", "G", "H")]
    cases += [("alpha", "PI", draw(*phi_family().b_window)) for _ in range(20)]
    cases += [("beta", "SIGMA", draw(*psi_family().b_window)) for _ in range(20)]
    for regime, edge, b in cases:
        m = return_map(regime, b, edge)
        oracle = [sum((hi - lo for lo, hi in uncaptured_intervals(m, n)), F(0)) for n in range(13)]
        assert uncaptured_measures(m, 12) == oracle, (regime, edge, b)
        prof = edge_capture_profile(regime, b, edge, 12)
        assert [prof.uncaptured(n) for n in range(13)] == oracle, (regime, edge, b)


def test_uncaptured_measures_match_fraction_recursion():
    rng = random.Random(2026)
    cases = [("negb", F(-3), e) for e in ("A", "B", "C", "D", "E", "G", "H")]
    for _ in range(4):
        cases.append(("negb", -2 - 9 * F(rng.randint(1, 10**6 + 2), 10**6 + 3), rng.choice("ABCDEGH")))
        for regime, edge, fam in (("alpha", "PI", phi_family()), ("beta", "SIGMA", psi_family())):
            lo, hi = fam.b_window
            cases.append((regime, lo + (hi - lo) * F(rng.randint(1, 999), 1000), edge))
    for regime, b, edge in cases:
        m = return_map(regime, b, edge)
        want = oracles.fraction_uncaptured_measures(m, 200)
        assert oracles.uncaptured_measures(m, 200) == want, (regime, b, edge)
        prof = edge_capture_profile(regime, b, edge, 200)
        assert [prof.uncaptured(n) for n in range(201)] == want, (regime, b, edge)


def test_full_measure_report_builds_fewer_fractions_than_entries(monkeypatch):
    made = 0
    new = F.__new__

    def counting(cls, *args, **kwargs):
        nonlocal made
        made += 1
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(F, "__new__", counting)
    rep = full_measure_report("negb", -3, 60)
    monkeypatch.undo()
    # one Fraction per (captured, uncaptured) row would be 7 * 61
    assert [len(prof.entries) for prof in rep.profiles] == [61] * 7
    assert made < 7 * 61, made


def test_full_measure_report_builds_its_totals_when_read(monkeypatch):
    # the report stores no per-depth total: building it makes 85 Fractions
    # with all 61 totals and 23 without, and one total is built alone
    made = 0
    new = F.__new__

    def counting(cls, *args, **kwargs):
        nonlocal made
        made += 1
        return new(cls, *args, **kwargs)

    want = full_measure_report("negb", -3, 60)
    monkeypatch.setattr(F, "__new__", counting)
    rep = full_measure_report("negb", -3, 60)
    built, made = made, 0
    fraction = rep.uncaptured_fraction(60)
    monkeypatch.undo()
    assert built <= 30, built
    assert made <= 30, made
    assert rep == want and fraction == want.uncaptured_total[60] / want.total_length


def test_full_measure_report_matches_fraction_oracle():
    rng = random.Random(1313)
    cases = [("negb", -2 - 9 * F(rng.randint(1, 10**6 + 2), 10**6 + 3), 80) for _ in range(2)]
    for regime, (lo, hi) in (("alpha", phi_family().b_window), ("beta", psi_family().b_window)):
        cases += [(regime, lo + (hi - lo) * F(rng.randint(1, 999), 1000), 40) for _ in range(2)]
    for regime, b, depth in cases:
        rep = full_measure_report(regime, b, depth)
        assert len(rep.profiles) == (7 if regime == "negb" else 1)
        totals = [F(0)] * (depth + 1)
        for prof in rep.profiles:
            m = return_map(regime, b, prof.edge)
            length = m.hi - m.lo
            us = oracles.fraction_uncaptured_measures(m, depth)
            assert prof.length == length
            assert prof.entries == tuple((length - u, u) for u in us), (regime, b, prof.edge)
            totals = [t + u for t, u in zip(totals, us)]
        if regime == "negb":
            g = graphs.build_gamma("negb", b)
            charts = {e: oracles.chart_interval(oracles.edge_segment(g, e)) for e in ("plateau", "feeder")}
            assert rep.immediate == tuple((e, hi - lo) for e, (lo, hi) in charts.items())
        immediate = sum((length for _, length in rep.immediate), F(0))
        totals[0] += immediate
        assert rep.uncaptured_total == tuple(totals), (regime, b)
        assert rep.total_length == sum((p.length for p in rep.profiles), immediate)


def test_negb_report_reads_its_table_once_and_builds_no_graph(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return graphs._table_lattice(*args)

    def forbidden(*args):
        raise AssertionError("graph built for a capture")

    monkeypatch.setattr(measure, "_table_lattice", counted)
    monkeypatch.setattr(graphs, "build_gamma", forbidden)
    full_measure_report("negb", -3, 4)
    assert calls == [("negb", F(-3))]
    calls.clear()
    edge_capture_profile("negb", F(-7, 2), "G", 4)
    assert calls == [("negb", F(-7, 2))]


def test_negb_report_walks_once_and_cuts_the_recursion(monkeypatch):
    # A count of work, not a timing: one lattice walk of F^7 over the six
    # walked edges (G's return map is conjugated from E's), and at most two
    # steps of the capture recursion per edge at depth 80, since every
    # edge's numerator vector repeats after one step.
    from pwldyn import piecewise, planemap

    walks, frames_of, steps = [], [], []
    walk, frames, transfer, profile = (planemap.iterate_segment_pieces, measure._restricted_frames,
                                       piecewise._transfer, measure._profile)

    def counted_walk(lat, k):
        walks.append((len(lat.starts), k))
        return walk(lat, k)

    def counted_frames(frame, a, b, segments, k):
        frames_of.append(list(segments))
        return frames(frame, a, b, segments, k)

    def counted_transfer(cells, w):
        steps[-1] += 1
        return transfer(cells, w)

    def counted_profile(edge, frame, depth):
        steps.append(0)
        return profile(edge, frame, depth)

    monkeypatch.setattr(planemap, "iterate_segment_pieces", counted_walk)
    monkeypatch.setattr(measure, "_restricted_frames", counted_frames)
    monkeypatch.setattr(piecewise, "_transfer", counted_transfer)
    monkeypatch.setattr(measure, "_profile", counted_profile)
    rng = random.Random(32)
    for b in (F(-3), -2 - 9 * F(rng.randint(1, 10**6 + 2), 10**6 + 3)):
        walks.clear(), frames_of.clear(), steps.clear()
        rep = full_measure_report("negb", b, 80)
        ends = graphs._table_lattice("negb", b).edge_ends()
        assert walks == [(6, 7)], walks
        assert frames_of == [[ends[e] for e in ("A", "B", "C", "D", "E", "H")]]
        assert len(steps) == 7 and max(steps) <= 2, steps
        assert [p.edge for p in rep.profiles] == ["A", "B", "C", "D", "E", "G", "H"]
        assert rep.profiles[5] == edge_capture_profile("negb", b, "G", 80)


def test_reports_match_the_full_recursion():
    # every profile of a report equals every step of the recursion run on
    # its edge's Fraction return map, and each edge's own profile
    rng = random.Random(3207)
    cases = [("negb", -2 - 9 * F(rng.randint(1, 10**6 + 2), 10**6 + 3), rng.randint(60, 100)) for _ in range(4)]
    for regime, fam in (("alpha", phi_family()), ("beta", psi_family())):
        lo, hi = fam.b_window
        cases += [(regime, lo + (hi - lo) * F(rng.randint(1, 999), 1000), rng.randint(12, 24)) for _ in range(3)]
    # the closed end of the circle regime and the four window ends
    assert (phi_family().b_window, psi_family().b_window) == ((F(-112, 137), F(-13, 16)), (F(603, 874), F(563, 816)))
    cases.append(("negb", F(-2), rng.randint(60, 100)))
    cases += [(regime, b, rng.randint(12, 24)) for regime, b in
              (("alpha", F(-112, 137)), ("alpha", F(-13, 16)), ("beta", F(603, 874)), ("beta", F(563, 816)))]
    for regime, b, depth in cases:
        for prof in full_measure_report(regime, b, depth).profiles:
            m = return_map(regime, b, prof.edge)
            assert prof[2:] == oracles.full_uncaptured_numerators(m, depth), (regime, b, prof.edge)
            assert prof == edge_capture_profile(regime, b, prof.edge, depth)
