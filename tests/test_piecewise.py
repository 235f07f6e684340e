import random
from fractions import Fraction as F

import pytest

import oracles
from oracles import uncaptured_intervals
from pwldyn.certify import (
    ALPHA_WINDOW,
    BETA_WINDOW,
    certify,
    orbit_digraph,
    phi_family,
    psi_family,
    trapezoid_family,
)
from pwldyn.markov import spectral_radius
from pwldyn.measure import return_map_for_edge
from pwldyn.piecewise import (
    Itinerary,
    Piece,
    PiecewiseAffine1D,
    interval_gaps,
    interval_union,
    conjugate_affine,
    iterate_point,
    itinerary_of,
    markov_partition,
    uncaptured_measures,
)
from pwldyn.planemap import Params, restrict_iterate_to_segment, segment


def edge_A_map() -> PiecewiseAffine1D:
    return PiecewiseAffine1D(
        F(-3), F(-1), [F(-5, 4), F(-9, 8)],
        [Piece(F(0), F(-3), "lo"), Piece(F(16), F(17), "mid"), Piece(F(0), F(-1), "hi")],
    )


def test_iterate_point_examples():
    m = phi_family().at(F(7295, 8191))
    orbit = iterate_point(m, 1, 6)
    assert orbit == [1, 0, F(7295, 8191), F(7168, 8191), F(8184, 8191), F(56, 8191), 1]

    ident = PiecewiseAffine1D(F(0), F(1), [], [Piece(F(1), F(0), "I")])
    assert iterate_point(ident, F(1, 3), 5) == [F(1, 3)] * 6

    fA = edge_A_map()
    assert iterate_point(fA, F(-6, 5), 1) == [F(-6, 5), F(-11, 5)]


def test_iterate_point_escape_errors():
    shift = PiecewiseAffine1D(F(0), F(1), [], [Piece(F(1), F(2))])
    with pytest.raises(ValueError):
        iterate_point(shift, F(1, 2), 2)


def test_itinerary_examples():
    m = phi_family().at(F(7295, 8191))
    assert str(itinerary_of(m, 1, 5)) == "RLRRRC"  # last point on the plateau edge

    const = PiecewiseAffine1D(F(0), F(1), [], [Piece(F(0), F(1, 2), "C")])
    assert str(itinerary_of(const, F(1, 4), 3)) == "CCCC"

    m4 = phi_family().at(F(57, 64))
    assert str(itinerary_of(m4, 1, 3)) == "RLRC"


def test_itinerary_tie_breaks():
    m = phi_family().at(F(7295, 8191))
    # (1-d)/16 sits on the L|C boundary
    boundary = F(56, 8191)
    assert m.pieces[m.piece_index_at(boundary)].name == "C"
    assert m.pieces[m.piece_index_at(F(7, 8))].name == "C"


def test_closing_window_examples():
    fam = phi_family()
    assert fam.window(Itinerary.parse("RLC")) == (F(1, 17), F(7, 8))
    assert fam.window(Itinerary.parse("RLRC")) == (F(57, 64), F(1))
    w8 = fam.window(Itinerary.parse("RLRRRLRC"))
    assert w8[0] == F(933761, 1048449)
    # infeasible pattern: L first needs x0=1 in [0, (1-d)/16]
    assert fam.window(Itinerary.parse("LC")) is None


def test_closing_window_endpoints_give_patterned_orbits():
    fam = phi_family()
    for pattern in ("RLC", "RLRC", "RLRRRLRC"):
        it = Itinerary.parse(pattern)
        lo, hi = fam.window(it)
        for d in (lo, (lo + hi) / 2, hi):
            m = fam.at(d)
            orbit = iterate_point(m, 1, len(it))
            assert orbit[len(it)] == 1
            got = itinerary_of(m, 1, len(it) - 1)
            # at window endpoints the pattern may degenerate to a shorter period
            if len(set(orbit[: len(it)])) == len(it):
                assert got.symbols == it.symbols


def test_markov_radius_examples():
    fam = phi_family()
    m8 = fam.at(F(933761, 1048449))
    orbit = iterate_point(m8, 1, 7)
    r = spectral_radius(orbit_digraph(m8, orbit))
    assert r.lo == r.hi == 1

    m6 = fam.at(F(7295, 8191))
    orbit6 = iterate_point(m6, 1, 5)
    r6 = spectral_radius(orbit_digraph(m6, orbit6))
    assert r6.lo ** 6 > 2  # strictly above the sixth root of two

    # 2-cycle at the d = 1 end: the only node is the falling branch cell,
    # whose 0/1 matrix is the 1x1 identity-like loop
    m2 = fam.at(F(1))
    r2 = spectral_radius(orbit_digraph(m2, [F(1), F(0)]))
    assert r2.lo == r2.hi == 1

    with pytest.raises(ValueError):
        orbit_digraph(m6, [F(1), F(1, 2)])


def test_plateau_measure_examples():
    fA = edge_A_map()
    u = uncaptured_measures(fA, 2)
    assert u[0] - u[1] == F(15, 8)  # captured within one step
    assert u[2] == F(1, 128)

    const = PiecewiseAffine1D(F(0), F(1), [], [Piece(F(0), F(1, 2), "C")])
    u = uncaptured_measures(const, 1)
    assert u[0] - u[1] == 1

    ident = PiecewiseAffine1D(F(0), F(1), [], [Piece(F(1), F(0))])
    with pytest.raises(ValueError):
        uncaptured_measures(ident, 1)


def jump_map() -> PiecewiseAffine1D:
    # B(1/2) = 1/2 but C(1/2) = 3/4: the jump value 3/4 is a cell end that
    # m(1/2) (the left piece) never reaches.
    return PiecewiseAffine1D(
        F(0), F(1), [F(1, 4), F(1, 2)],
        [Piece(F(0), F(0), "A"), Piece(F(2), F(-1, 2), "B"), Piece(F(-2), F(7, 4), "C")],
    )


def test_markov_partition_closes_jumps():
    m = jump_map()
    cells = markov_partition(m)
    assert [c[:2] for c in cells] == [(0, F(1, 4)), (F(1, 4), F(1, 2)), (F(1, 2), F(3, 4)), (F(3, 4), 1)]
    assert [c[3] for c in cells] == [None, range(0, 2), range(1, 3), range(0, 1)]
    assert uncaptured_measures(m, 8) == [
        sum((hi - lo for lo, hi in uncaptured_intervals(m, n)), F(0)) for n in range(9)
    ]


def test_markov_partition_needs_integer_slopes():
    half = PiecewiseAffine1D(F(0), F(1), [F(1, 2)], [Piece(F(1, 2), F(0)), Piece(F(0), F(1))])
    with pytest.raises(ValueError, match="slope 1/2 "):
        markov_partition(half)
    with pytest.raises(ValueError, match="slope 1/2 "):
        uncaptured_measures(half, 1)


def test_markov_partition_of_certified_orbits_adds_no_points():
    fam = trapezoid_family("alpha")
    ci = certify("alpha", 24, 32)
    for cert in (ci.lo_certificate, ci.hi_certificate):
        m = fam.at(cert.d)
        ends = sorted(set(cert.orbit) | set(m.cut_points()))
        assert [c[:2] for c in markov_partition(m, cert.orbit)] == list(zip(ends, ends[1:]))


def test_uncaptured_geometric_decay():
    fA = edge_A_map()
    for n in range(11):
        left = sum((hi - lo for lo, hi in uncaptured_intervals(fA, n)), F(0))
        assert left == F(2) ** (1 - 4 * n)


def test_interval_union_and_gaps():
    union = interval_union([(F(2), F(3)), (F(0), F(1)), (F(5), F(6)), (F(1), F(2)), (F(5), F(11, 2))])
    assert union == [(0, 3), (5, 6)]  # touching intervals merge
    assert interval_gaps(F(-1), F(7), union) == [(-1, 0), (3, 5), (6, 7)]
    assert interval_gaps(F(3), F(5), union) == [(3, 5)]  # end contact covers nothing
    assert interval_gaps(F(1), F(2), union) == []
    assert interval_gaps(F(1), F(2), []) == [(1, 2)]


def test_conjugate_affine():
    fA = edge_A_map()
    g = conjugate_affine(fA, F(-1), F(4))  # h(x) = -x + 4 maps [-3,-1] to [5,7]
    rng = random.Random(9)
    for _ in range(200):
        x = F(-3) + 2 * F(rng.randint(0, 10**6), 10**6)
        assert g(-x + 4) == -fA(x) + 4


def test_family_affinity_in_d():
    # for a fixed pattern the closing value is affine in the parameter
    fam = phi_family()
    pattern = Itinerary.parse("RLRRRLRC")

    def closing_value(d: F) -> F:
        m = fam.at(d)
        x = F(1)
        for sym in pattern.symbols:
            piece = {p.name: p for p in m.pieces}[sym]
            x = piece.apply(x)
        return x

    d1, d2, d3 = F(93, 100), F(94, 100), F(95, 100)
    v1, v2, v3 = closing_value(d1), closing_value(d2), closing_value(d3)
    slope = (v2 - v1) / (d2 - d1)
    assert v3 == v1 + slope * (d3 - d1)  # three points on one line


def test_restrict_then_measure_roundtrip():
    # the exact return map of the circle regime's vertical edge again,
    # this time consumed through the piecewise module
    m = restrict_iterate_to_segment(Params.standard(-3), segment((1, -3), (1, -1)), 7)
    u = uncaptured_measures(m, 1)
    assert u[0] - u[1] == F(15, 8)


def test_markov_partition_matches_fraction_oracle():
    # trapezoid maps at seeded d, seeded by lattice points or by a certified
    # orbit, and the return maps of the capture report at seeded b
    rng = random.Random(1604)
    cases = []
    for fam in (phi_family(), psi_family()):
        for _ in range(30):
            d = F(rng.randint(0, 4096), 4096) if rng.random() < 0.5 else F(rng.randint(0, 997), 997)
            seeds = [F(rng.randint(0, 64), 64) for _ in range(rng.randint(0, 3))]
            cases.append((fam.at(d), seeds))
    for tag in ("alpha", "beta"):
        for upper, lower in ((3, 4), (12, 16), (48, 64)):
            ci = certify(tag, upper, lower)
            fam = trapezoid_family(tag)
            cases += [(fam.at(c.d), c.orbit) for c in (ci.lo_certificate, ci.hi_certificate)]

    def draw(lo, hi):
        return lo + (hi - lo) * F(rng.randint(1, 9999), 10000)

    for _ in range(5):
        cases += [(return_map_for_edge("negb", draw(F(-11), F(-2)), e)[0], ()) for e in "ABCDEGH"]
        cases.append((return_map_for_edge("alpha", draw(*ALPHA_WINDOW), "PI")[0], ()))
        cases.append((return_map_for_edge("beta", draw(*BETA_WINDOW), "SIGMA")[0], ()))
    for m, seeds in cases:
        assert markov_partition(m, seeds) == oracles.markov_partition(m, seeds)
