import random
from fractions import Fraction as F

import pytest

import oracles
from oracles import frame_partition, itinerary_of, orbit_digraph, return_map, uncaptured_intervals, uncaptured_measures
from pwldyn.certify import (
    certify,
    phi_family,
    psi_family,
    trapezoid_family,
)
from pwldyn.markov import spectral_radius
from pwldyn.piecewise import (
    IntegerFrame,
    Itinerary,
    Piece,
    PiecewiseAffine1D,
    iterate_point,
)
from pwldyn.planemap import Params, interval_gaps, interval_union, restrict_iterate_to_segment, segment


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


def _random_integer_slope_map(rng) -> PiecewiseAffine1D:
    """1-5 pieces of integer slope (some constant) on a seeded rational
    interval, each image placed near the domain, so that some orbits
    escape and some cuts join a constancy piece."""
    lo = F(rng.randint(-20, 20), rng.randint(1, 12))
    length = F(rng.randint(1, 40), rng.randint(1, 6))
    inner = {lo + length * F(rng.randint(1, 99), 100) for _ in range(rng.randint(0, 4))}
    cuts = [lo, *sorted(inner), lo + length]
    pieces = []
    for a, b in zip(cuts, cuts[1:]):
        s = rng.choice((0, 0, 1, -1, 2, -2, 3, -4))
        low = lo + length * F(rng.randint(-5, 100), 100)
        pieces.append(Piece(F(s), low - min(s * a, s * b), rng.choice(("L", "C", "R", None))))
    return PiecewiseAffine1D(cuts[0], cuts[-1], cuts[1:-1], pieces)


def _orbit_or_error(walk, *args):
    try:
        return walk(*args)
    except ValueError as exc:
        return str(exc)


def test_iterate_point_matches_the_fraction_orbit():
    # orbits and piece indices of the integer walk against the oracle's
    # Fraction scan, on 100 trapezoid maps and 300 random integer-slope
    # maps, from cuts, domain ends and interior points, escapes included
    rng = random.Random(4949)
    maps = [fam.at(F(rng.randint(0, 4096), 4096)) for fam in (phi_family(), psi_family()) for _ in range(50)]
    maps += [_random_integer_slope_map(rng) for _ in range(300)]
    seen = {"orbits": 0, "escapes": 0, "ties": 0}
    for m in maps:
        cuts = [m.lo, *m.breakpoints, m.hi]
        starts = [*cuts, F(1), *(m.lo + (m.hi - m.lo) * F(rng.randint(1, 999), 1000) for _ in range(3))]
        for x0 in starts:
            for k in (0, 1, 5, 30):
                want = _orbit_or_error(oracles.fraction_orbit, m, x0, k)
                assert _orbit_or_error(iterate_point, m, x0, k) == (want if isinstance(want, str) else want[0])
                if isinstance(want, str):
                    assert want.startswith("iterate ") and " escaped domain " in want
                    seen["escapes"] += 1
                    continue
                frame, (x,) = m.integer_frame((x0,))
                assert frame.walk(x, k)[1] == want[1], (m.pieces, x0, k)
                seen["orbits"] += 1
                seen["ties"] += sum(y in cuts[1:-1] for y in want[0][:-1])
    assert min(seen.values()) >= 300, seen


def test_the_fraction_orbit_uses_no_engine_code(monkeypatch):
    # the oracle's evaluation answers with the lattice walk, the frame and
    # the engine's cut bisection all disabled
    from pwldyn import piecewise

    m = phi_family().at(F(7295, 8191))
    want = (iterate_point(m, 1, 6), str(itinerary_of(m, 1, 5)), [oracles.apply(m, x) for x in (F(0), F(56, 8191), 1)])

    def disabled(*args, **kwargs):
        raise AssertionError("engine code reached")

    for target, name in ((IntegerFrame, "walk"), (PiecewiseAffine1D, "integer_frame"), (piecewise, "_pieces_holding")):
        monkeypatch.setattr(target, name, disabled)
    with pytest.raises(AssertionError, match="engine code reached"):
        iterate_point(m, 1, 6)
    orbit, idx = oracles.fraction_orbit(m, 1, 6)
    assert (orbit, str(itinerary_of(m, 1, 5))) == want[:2]
    assert [m.symbol(i) for i in idx] == list("RLRRRC")
    assert [oracles.apply(m, x) for x in (F(0), F(56, 8191), 1)] == want[2] == [F(7295, 8191), 1, 0]
    assert oracles.piece_index(m, F(56, 8191)) == 1


def test_itinerary_examples():
    m = phi_family().at(F(7295, 8191))
    assert str(itinerary_of(m, 1, 5)) == "RLRRRC"  # last point on the plateau edge

    const = PiecewiseAffine1D(F(0), F(1), [], [Piece(F(0), F(1, 2), "C")])
    assert str(itinerary_of(const, F(1, 4), 3)) == "CCCC"

    m4 = phi_family().at(F(57, 64))
    assert str(itinerary_of(m4, 1, 3)) == "RLRC"


def test_itinerary_tie_breaks():
    # At a cut a constancy piece wins, else the left piece does, in the
    # engine's walk and in the oracle's scan: (1-d)/16 sits on the L|C
    # boundary and 7/8 on C|R; jump_map's 1/2 has no constancy piece, and
    # two plateaus meet at 1/2 of `plateaus`.
    plateaus = PiecewiseAffine1D(F(0), F(1), [F(1, 2)], [Piece(F(0), F(0), "P"), Piece(F(0), F(1), "Q")])
    cases = [(phi_family().at(F(7295, 8191)), F(56, 8191), "C"), (phi_family().at(F(7295, 8191)), F(7, 8), "C"),
             (jump_map(), F(1, 4), "A"), (jump_map(), F(1, 2), "B"), (plateaus, F(1, 2), "P")]
    for m, x, name in cases:
        frame, (numerator,) = m.integer_frame((x,))
        assert m.pieces[frame.walk(numerator, 1)[1][0]].name == name, (x, name)
        assert m.pieces[oracles.piece_index(m, x)].name == name, (x, name)


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
            period = len(it.symbols)
            orbit = iterate_point(m, 1, period)
            assert orbit[period] == 1
            got = itinerary_of(m, 1, period - 1)
            # at window endpoints the pattern may degenerate to a shorter period
            if len(set(orbit[:period])) == period:
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
    cells = frame_partition(m)
    assert [c[:2] for c in cells] == [(0, F(1, 4)), (F(1, 4), F(1, 2)), (F(1, 2), F(3, 4)), (F(3, 4), 1)]
    assert [c[3] for c in cells] == [None, range(0, 2), range(1, 3), range(0, 1)]
    assert uncaptured_measures(m, 8) == [
        sum((hi - lo for lo, hi in uncaptured_intervals(m, n)), F(0)) for n in range(9)
    ]


def test_markov_partition_needs_integer_slopes():
    half = PiecewiseAffine1D(F(0), F(1), [F(1, 2)], [Piece(F(1, 2), F(0)), Piece(F(0), F(1))])
    with pytest.raises(ValueError, match="slope 1/2 "):
        frame_partition(half)
    with pytest.raises(ValueError, match="slope 1/2 "):
        uncaptured_measures(half, 1)


def test_markov_partition_of_certified_orbits_adds_no_points():
    fam = trapezoid_family("alpha")
    ci = certify("alpha", 24, 32)
    for cert in (ci.lo_certificate, ci.hi_certificate):
        m = fam.at(cert.d)
        ends = sorted(set(cert.orbit) | {m.lo, *m.breakpoints, m.hi})
        assert [c[:2] for c in frame_partition(m, cert.orbit)] == list(zip(ends, ends[1:]))


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
    frame, _ = fA.integer_frame()
    g = frame.conjugated(-1, F(4)).to_map()  # h(x) = -x + 4 maps [-3,-1] to [5,7]
    rng = random.Random(9)
    for _ in range(200):
        x = F(-3) + 2 * F(rng.randint(0, 10**6), 10**6)
        assert oracles.apply(g, -x + 4) == -oracles.apply(fA, x) + 4
    # the lattice conjugation against the Fraction one, frame for frame
    cases = [(fA, -1, F(4)), (fA, 3, F(-2, 7)), (fA, -2, F(5, 6)), (fA, 1, F(0))]
    for _ in range(40):
        cases.append((return_map("negb", -2 - 9 * F(rng.randint(1, 10**4), 10**4 + 1), "E"),
                      rng.choice((-3, -1, 1, 2)), F(rng.randint(-50, 50), rng.randint(1, 12))))
    for m, p, c in cases:
        want = oracles.conjugate_affine(m, F(p), c)
        assert m.integer_frame()[0].conjugated(p, c) == want.integer_frame()[0], (m, p, c)


def test_family_affinity_in_d():
    # for a fixed pattern the closing value is affine in the parameter
    fam = phi_family()
    pattern = Itinerary.parse("RLRRRLRC")

    def closing_value(d: F) -> F:
        m = fam.at(d)
        x = F(1)
        for sym in pattern.symbols:
            piece = {p.name: p for p in m.pieces}[sym]
            x = oracles.value(piece, x)
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
        cases += [(return_map("negb", draw(F(-11), F(-2)), e), ()) for e in "ABCDEGH"]
        cases.append((return_map("alpha", draw(*phi_family().b_window), "PI"), ()))
        cases.append((return_map("beta", draw(*psi_family().b_window), "SIGMA"), ()))
    for m, seeds in cases:
        assert frame_partition(m, seeds) == oracles.markov_partition(m, seeds)


def _random_capture_frame(rng) -> IntegerFrame:
    """2-6 pieces of integer slope on [0, L], one at least constant, images
    near the domain (parts off it are captured)."""
    k = rng.randint(2, 6)
    length = rng.randint(k + 1, 16)
    cuts = [0, *sorted(rng.sample(range(1, length), k - 1)), length]
    slopes = [rng.choice((0, 1, -1, 2, -2, 3, -3, 4)) for _ in range(k)]
    if 0 not in slopes:
        slopes[rng.randrange(k)] = 0
    offsets = [rng.randint(-2, length - 1) - min(s * a, s * b) for s, a, b in zip(slopes, cuts, cuts[1:])]
    return IntegerFrame(1, tuple(cuts), tuple(slopes), tuple(offsets))


def _cycle_frame(rng, period: int) -> IntegerFrame:
    """Cells X_0..X_(p-1) of distinct lengths, each mapped with slope +-2
    onto X_(i+1) and a constancy cell K_i beside it, and each K_i sent to a
    cut point: from step 1 on the vector of cell numerators rotates, with
    exactly this period."""
    unit = rng.randint(1, 3)
    lengths = [unit * v for v in rng.sample((3, 4, 5), period)]
    # block j holds X_j and K_(j-1), of total length 2*L_(j-1)
    blocks = []
    for j in range(period):
        x, kept = ("X", j, lengths[j]), ("K", j - 1, 2 * lengths[j - 1] - lengths[j])
        blocks.append([x, kept] if rng.random() < 0.5 else [kept, x])
    cuts, cells, starts = [0], [], []
    for block in blocks:
        starts.append(cuts[-1])
        for cell in block:
            cells.append(cell)
            cuts.append(cuts[-1] + cell[2])
    slopes, offsets = [], []
    for (kind, i, _), a, b in zip(cells, cuts, cuts[1:]):
        if kind == "K":
            slopes.append(0)
            offsets.append(rng.choice(cuts))
        else:  # onto block i+1, which has length 2*L_i = 2*(b - a), in either
            # orientation, but not as its neighbour does: equal pieces merge
            lo = starts[(i + 1) % period]
            options = [(2, lo - 2 * a), (-2, lo + 2 * b)]
            if slopes and (slopes[-1], offsets[-1]) in options:
                options.remove((slopes[-1], offsets[-1]))
            slope, offset = rng.choice(options)
            slopes.append(slope)
            offsets.append(offset)
    return IntegerFrame(1, tuple(cuts), tuple(slopes), tuple(offsets))


def _first_repeat_period(vectors) -> int | None:
    seen = {}
    for n, w in enumerate(vectors):
        k = seen.setdefault(tuple(w), n)
        if k != n:
            return n - k
    return None


def test_capture_recursion_cut_off_matches_the_full_loop():
    # (w, q, s) to depth 100 against every step of the recursion run, on
    # seeded integer-slope maps with constancy pieces: random ones (which
    # repeat after one step or never) and maps whose numerator vector cycles
    # with period 2 or 3, each moved to a finer lattice by a seeded
    # conjugation x -> +-x + c
    rng = random.Random(3232)
    frames = [_random_capture_frame(rng) for _ in range(160)]
    frames += [_cycle_frame(rng, period) for period in (2, 3) for _ in range(80)]
    periods = {}
    for frame in frames:
        m = frame.conjugated(rng.choice((1, -1)), F(rng.randint(-30, 30), rng.randint(1, 12))).to_map()
        vectors, q, s = oracles.capture_vectors(m, 100)
        engine = m.integer_frame()[0]
        assert engine.uncaptured(100) == oracles.full_uncaptured_numerators(m, 100), frame
        for depth in (0, 1, 2, 3, 7):
            assert engine.uncaptured(depth) == oracles.full_uncaptured_numerators(m, depth), (frame, depth)
        period = _first_repeat_period(vectors)
        periods[period] = periods.get(period, 0) + 1
    assert periods[2] >= 80 and periods[3] >= 80 and periods[1] >= 30 and periods[None] >= 30, periods
