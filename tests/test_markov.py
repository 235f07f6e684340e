import random
import time
from fractions import Fraction as F
from types import SimpleNamespace

import pytest

import oracles
from oracles import simple_cycle_lengths
from pwldyn import band48, certify, markov
from pwldyn.cli import main
from pwldyn.graphs import build_gamma, verify_invariance
from pwldyn.band48 import cover_digraphs
from pwldyn.markov import (
    CoverDigraph,
    Rome,
    compare_radius,
    digraph_from_edges,
    direct_char_poly,
    find_rome,
    rome_char_poly_full,
    spectral_radius,
    _compare_radius,
    _encloses_radius,
    _power_iteration_radius,
    _simple_path_lengths,
    _topological_order,
)
from pwldyn.planemap import Params, Segment, _lattice_frame, point
from pwldyn.polys import IntPoly
from pwldyn.rationals import format_decimal, ln_enclosure


def poly(**terms) -> IntPoly:
    return IntPoly.from_terms({int(k[1:]): v for k, v in terms.items()})


def encloses(succ, lo, hi) -> bool:
    return _encloses_radius(succ, markov._cyclic_components(succ), lo, hi)


def seven_cycle():
    labels = list("ABCDEGH")
    return digraph_from_edges(labels, list(zip(labels, labels[1:] + labels[:1])))


def test_build_cover_digraph_band48_cases():
    lower, upper, lc = cover_digraphs(F(9, 2))
    assert str(lc) == "S0"
    assert lower.n == 10
    assert simple_cycle_lengths(lower) == [3, 7]
    assert simple_cycle_lengths(upper) == [3, 4, 7, 7]
    extra = set(upper.edges()) - set(lower.edges())
    assert extra == {("F1", "H"), ("G", "H")}

    lower5, upper5, lc5 = cover_digraphs(F(5))
    assert str(lc5) == "T0"
    assert lower5.succ == upper5.succ
    assert simple_cycle_lengths(lower5) == [3, 7, 7]


def test_cover_digraphs_successor_lists():
    # class midpoints of levels 0-3, then seeded b across (4, 8)
    bs = []
    for n in range(4):
        for letter in "STUV":
            lo, hi, _, _ = band48.LevelClass(n, letter).interval()
            bs.append((lo + hi) / 2)
    rng = random.Random(2024)
    bs += [F(4) + F(rng.randrange(1, 4000), 1000) for _ in range(100)]
    for b in bs:
        for dg in cover_digraphs(b)[:2]:
            assert all(list(row) == sorted(set(row)) for row in dg.succ)
            dense = [[0] * dg.n for _ in range(dg.n)]
            for a, c in dg.edges():
                dense[dg.index(a)][dg.index(c)] = 1
            assert dg.adjacency == tuple(map(tuple, dense))


def test_cover_digraphs_match_fraction_oracle():
    # class midpoints of levels 0-3, the closed class ends (T and V) of
    # levels 0-5, then seeded b across (4, 8) with large denominators: the
    # lattice partition against its Fraction form, and the lattice digraphs
    # against the Fraction covering relations of that partition
    bs = []
    for n in range(6):
        for letter in "STUV":
            lo, hi, lo_closed, hi_closed = band48.LevelClass(n, letter).interval()
            bs += [(lo + hi) / 2] if n < 4 else []
            bs += [end for end, closed in ((lo, lo_closed), (hi, hi_closed)) if closed]
    rng = random.Random(1018)
    bs += [F(4) + 4 * F(rng.randrange(1, 10**6 + 3), 10**6 + 3) for _ in range(300)]
    for b in bs:
        lower, upper, lc = cover_digraphs(b)
        part = oracles.band48_partition(b)
        assert oracles.lattice_band48_partition(b) == part, b
        assert lc == part[1] and lower.labels == upper.labels == tuple(label for label, _ in part[0])
        want = oracles.image_cover_relations(Params.standard(b), [seg for _, seg in part[0]])
        assert ([list(r) for r in lower.succ], [list(r) for r in upper.succ]) == want, b


def p3_p9_chord(g):
    return ("X", Segment(oracles.named_point(g, "P3"), oracles.named_point(g, "P9")))


def cover_pair(graph, partition):
    """The covering digraphs of a partition of Fraction segments on the
    graph: the intervals and the graph's edges put on one lattice, where
    `markov._cover_digraph_pair` runs."""
    segments = [seg for _, seg in partition]
    frame, a, b, ends = _lattice_frame(Params.standard(graph.b), [*segments, *graph.all_segments()])
    labelled = [(label, e) for (label, _), e in zip(partition, ends)]
    return markov._cover_digraph_pair(frame, a, b, labelled, ends[len(segments):])


def test_segment_engine_does_no_fraction_arithmetic(monkeypatch):
    graphs = [build_gamma(regime, b) for regime, b in
              (("negb", -3), ("alpha", F(-163, 200)), ("beta", F(34497, 50000)), ("band48", 5))]
    params = [Params.standard(g.b) for g in graphs]
    part, _ = oracles.lattice_band48_partition(5)
    overlapping = [("a", Segment(point(0, 0), point(2, 0))), ("b", Segment(point(1, 0), point(3, 0)))]

    def forbidden(self, other):
        raise AssertionError("Fraction arithmetic in the segment engine")

    for op in ("__add__", "__sub__", "__mul__", "__truediv__"):
        monkeypatch.setattr(F, op, forbidden)
    for g, p in zip(graphs, params):
        assert verify_invariance(g, p).ok
    lower, upper = cover_pair(graphs[-1], part)
    assert lower.succ == upper.succ and lower.n == 10
    # Neither rejection path does Fraction arithmetic either.
    with pytest.raises(ValueError, match="partition intervals a and b overlap"):
        cover_pair(graphs[-1], overlapping)
    with pytest.raises(ValueError, match="partition interval X is not on the graph"):
        cover_pair(graphs[-1], [*part, p3_p9_chord(graphs[-1])])


def test_digraph_from_edges_collapses_repeats():
    dg = digraph_from_edges(["a", "b"], [("a", "b"), ("b", "a"), ("a", "b"), ("b", "b")])
    assert dg.succ == ((1,), (0, 1))
    assert dg.edges() == [("a", "b"), ("b", "a"), ("b", "b")]


def test_digraph_from_edges_rejects_a_repeated_label():
    with pytest.raises(ValueError, match="^repeated node label 'a'$"):
        digraph_from_edges(["a", "a", "b"], [("a", "b"), ("b", "a")])


def test_digraph_from_edges_rejects_an_unknown_label():
    with pytest.raises(ValueError, match="^unknown node label 'c'$"):
        digraph_from_edges(["a", "b"], [("a", "c")])
    with pytest.raises(ValueError, match="^unknown node label 'c'$"):
        digraph_from_edges(["a", "b"], [("a", "b"), ("c", "a")])


def test_rome_with_an_unknown_label_is_refused():
    dg = digraph_from_edges(["a", "b"], [("a", "b"), ("b", "a")])
    with pytest.raises(ValueError, match="^unknown node label 'z'$"):
        rome_char_poly_full(dg, Rome(("z",)))
    with pytest.raises(ValueError, match="^unknown node label 'z'$"):
        rome_char_poly_full(dg, Rome(("a", "z")))


def test_build_cover_digraph_rejects_overlap():
    seg1 = Segment(point(0, 0), point(2, 0))
    seg2 = Segment(point(1, 0), point(3, 0))
    with pytest.raises(ValueError, match="partition intervals a and b overlap"):
        cover_pair(build_gamma("band48", 5), [("a", seg1), ("b", seg2)])
    # Contact at a point is allowed; the message names the interval overlapped.
    seg3 = Segment(point(5, 0), point(3, 0))
    seg4 = Segment(point(4, 0), point(6, 0))
    part = [("a", seg1), ("c", seg3), ("e", Segment(point(2, 0), point(3, 0))), ("d", seg4)]
    with pytest.raises(ValueError, match="partition intervals c and d overlap"):
        cover_pair(build_gamma("band48", 5), part)


def test_build_cover_digraph_rejects_an_interval_off_the_graph():
    # At b = 5 the chord from P3 = (-7, -1) to P9 = (9, 9) has both ends on
    # the graph, but no edge carries it.
    g = build_gamma("band48", 5)
    part, _ = oracles.lattice_band48_partition(5)
    label, chord = p3_p9_chord(g)
    assert (chord.p, chord.q) == (point(-7, -1), point(9, 9))
    assert oracles.graph_contains(g, chord.p) and oracles.graph_contains(g, chord.q)
    with pytest.raises(ValueError, match="partition interval X is not on the graph"):
        cover_pair(g, [*part, (label, chord)])


def test_build_cover_digraph_pair_refusals_keep_their_order():
    g = build_gamma("band48", 5)
    part, _ = oracles.lattice_band48_partition(5)
    with pytest.raises(ValueError, match="^repeated node label 'A'$"):
        cover_pair(g, [*part, part[0]])
    # Overlapping intervals off the graph: the overlap is named first.
    off = [("a", Segment(point(0, 0), point(2, 0))), ("b", Segment(point(1, 0), point(3, 0)))]
    assert not oracles.graph_contains(g, point(1, 0))
    with pytest.raises(ValueError, match="^partition intervals a and b overlap$"):
        cover_pair(g, off)
    with pytest.raises(ValueError, match="^partition interval a is not on the graph$"):
        cover_pair(g, off[:1])
    with pytest.raises(ValueError, match="^partition interval X is not on the graph$"):
        cover_pair(g, [*part, p3_p9_chord(g)])
    lower, upper = cover_pair(g, part)
    assert (lower, upper) == cover_digraphs(5)[:2]


def test_find_rome_examples():
    lower, _, _ = cover_digraphs(F(9, 2))
    assert len(find_rome(lower).labels) == 1

    assert len(find_rome(seven_cycle()).labels) == 1

    dag = digraph_from_edges(["a", "b", "c"], [("a", "b"), ("b", "c")])
    assert find_rome(dag) == Rome(())
    assert _topological_order(dag.succ, frozenset()) is not None


def test_rome_char_poly_examples():
    lower, upper, _ = cover_digraphs(F(9, 2))
    assert rome_char_poly_full(lower, find_rome(lower)).strip_power_factor()[0] == poly(p7=1, p4=-1, p0=-1)

    _, upper_u0, _ = cover_digraphs(F(21, 4) + F(1, 50))
    assert rome_char_poly_full(upper_u0, find_rome(upper_u0)).strip_power_factor()[0] == (
        poly(p10=1, p7=-1, p3=-2, p0=-1)
    )

    sc = seven_cycle()
    assert rome_char_poly_full(sc, find_rome(sc)).strip_power_factor()[0] == poly(p7=1, p0=-1)
    assert rome_char_poly_full(sc, find_rome(sc)) == poly(p7=1, p0=-1)

    with pytest.raises(ValueError):
        rome_char_poly_full(sc, Rome(()))  # empty set misses the 7-cycle


def test_rome_full_matches_direct_on_tabulated_digraphs():
    for b in (F(9, 2), F(5), F(43, 8), F(6)):
        lower, upper, _ = cover_digraphs(b)
        for dg in (lower, upper):
            rome = find_rome(dg)
            assert rome_char_poly_full(dg, rome) == direct_char_poly(dg)


def test_rome_full_matches_direct_random():
    rng = random.Random(777)
    for _ in range(100):
        n = rng.randint(1, 8)
        labels = [f"v{i}" for i in range(n)]
        edges = [(labels[i], labels[j]) for i in range(n) for j in range(n) if rng.random() < 0.3]
        dg = digraph_from_edges(labels, edges)
        assert rome_char_poly_full(dg, find_rome(dg)) == direct_char_poly(dg)


def _random_digraphs(seed: int, count: int, max_nodes: int):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, max_nodes)
        labels = [f"v{i}" for i in range(n)]
        p = rng.choice([0.1, 0.2, 0.3, 0.45])
        edges = [(labels[i], labels[j]) for i in range(n) for j in range(n) if rng.random() < p]
        yield rng, digraph_from_edges(labels, edges)


def test_topological_order_matches_the_colour_search():
    cyclic = 0
    for rng, dg in _random_digraphs(34, 1200, 12):
        removed = frozenset(v for v in range(dg.n) if rng.random() < 0.3)
        order = _topological_order(dg.succ, removed)
        assert (order is None) == (not oracles.acyclic_without(dg, removed))
        if order is None:
            cyclic += 1
            continue
        assert sorted(order) == [v for v in range(dg.n) if v not in removed]
        pos = {v: k for k, v in enumerate(order)}
        assert all(pos[v] < pos[w] for v in order for w in dg.succ[v] if w not in removed)
    assert 200 < cyclic < 1000  # both answers are tested often


def test_path_counts_match_the_path_enumeration():
    for _, dg in _random_digraphs(35, 1200, 12):
        rome_idx = frozenset(map(dg.index, find_rome(dg).labels))
        order = _topological_order(dg.succ, rome_idx)
        for start in rome_idx:
            assert _simple_path_lengths(dg.succ, rome_idx, start, order) == (
                oracles.simple_path_lengths(dg, rome_idx, start)
            )


def layered_digraph(layers: int) -> CoverDigraph:
    """Rome r, then `layers` layers of two nodes, each complete to the next,
    the last back to r: 2^layers paths from r to r, each of length layers + 1."""
    names = [[f"l{k}{side}" for side in "ab"] for k in range(layers)]
    edges = [("r", v) for v in names[0]] + [(v, "r") for v in names[-1]]
    edges += [(v, w) for here, there in zip(names, names[1:]) for v in here for w in there]
    return digraph_from_edges(["r", *(v for layer in names for v in layer)], edges)


def test_rome_paths_are_counted_not_enumerated():
    dg = layered_digraph(40)  # 2^40 rome-to-rome paths
    assert find_rome(dg) == Rome(("r",))
    assert rome_char_poly_full(dg, Rome(("r",))) == poly(p81=1, p40=-(2**40))
    assert spectral_radius(dg, 10).poly == poly(p41=1, p0=-(2**40))


def test_checked_radius_finds_components_once_and_repeats_no_kahn_pass(monkeypatch):
    # A work count, not a timing: a checked `spectral_radius` finds the
    # cyclic components once and proves its enclosure on them, and in each
    # component makes one Kahn pass per rome candidate it tries: never the
    # empty set, no set twice, and only the last pass accepts.  Candidates of
    # high in-degree x out-degree go first, so over the 32 band48 digraphs
    # at most 7 of 39 passes fail.
    cyclic_components, topological_order = markov._cyclic_components, markov._topological_order
    component_passes, kahn = [], []

    def counted_components(succ):
        component_passes.append(succ)
        return cyclic_components(succ)

    def counted_order(succ, removed):
        order = topological_order(succ, removed)
        kahn.append((succ, removed, order is not None))  # holding succ keeps its id unique
        return order

    monkeypatch.setattr(markov, "_cyclic_components", counted_components)
    monkeypatch.setattr(markov, "_topological_order", counted_order)
    digraphs = [layered_digraph(20)]
    for n in range(4):
        for letter in "STUV":
            lo, hi, _, _ = band48.LevelClass(n, letter).interval()
            digraphs += cover_digraphs((lo + hi) / 2)[:2]
    band48_passes = []
    for dg in digraphs:
        component_passes.clear()
        kahn.clear()
        spectral_radius(dg, 12, check=True)
        if dg is not digraphs[0]:
            band48_passes += [ok for _, _, ok in kahn]
        assert len(component_passes) == 1
        assert all(removed for _, removed, _ in kahn)
        assert len({(id(succ), removed) for succ, removed, _ in kahn}) == len(kahn)
        accepted: dict[int, list[bool]] = {}
        for succ, _, ok in kahn:
            accepted.setdefault(id(succ), []).append(ok)
        assert len(accepted) == len(cyclic_components(dg.succ))
        assert all(oks[-1] and not any(oks[:-1]) for oks in accepted.values())
    assert len(band48_passes) <= 39 and band48_passes.count(False) <= 7, band48_passes


def test_spectral_radius_examples():
    lower5, _, _ = cover_digraphs(F(5))
    r = spectral_radius(lower5, 7)
    assert format_decimal(r.lo, 5) == format_decimal(r.hi, 5) == "1.23175"

    assert spectral_radius(seven_cycle(), 7).lo == 1
    assert spectral_radius(seven_cycle(), 7).hi == 1

    lower6, _, _ = cover_digraphs(F(6))
    r = spectral_radius(lower6, 7)
    assert format_decimal(r.lo, 5) == format_decimal(r.hi, 5) == "1.20443"

    dag = digraph_from_edges(["a", "b"], [("a", "b")])
    r = spectral_radius(dag, 7)
    assert r.lo == r.hi == 0


def test_spectral_radius_of_a_large_rome():
    # The complete digraph with loops on n nodes has radius n and its whole
    # node set as rome, so the rome determinant is n x n: a cofactor
    # expansion grew about 7x per node (0.58 s at n = 8), elimination does not.
    for n in (8, 10):
        labels = [f"n{i}" for i in range(n)]
        dg = digraph_from_edges(labels, [(a, b) for a in labels for b in labels])
        assert markov.find_rome(dg).labels == tuple(labels)
        start = time.perf_counter()
        r = spectral_radius(dg, 12)
        assert time.perf_counter() - start < 1.0
        assert r.lo <= n <= r.hi and r.hi - r.lo < F(1, 10**12)


def test_spectral_radius_at_least_one_with_cycle():
    rng = random.Random(31337)
    for _ in range(60):
        n = rng.randint(1, 7)
        labels = [f"v{i}" for i in range(n)]
        edges = [(labels[i], labels[j]) for i in range(n) for j in range(n) if rng.random() < 0.35]
        dg = digraph_from_edges(labels, edges)
        r = spectral_radius(dg, 10)
        if simple_cycle_lengths(dg):
            assert r.hi >= r.lo >= 1
        else:
            assert r.lo == r.hi == 0


def test_power_iteration_agrees():
    rng = random.Random(99)
    for _ in range(40):
        n = rng.randint(2, 8)
        labels = [f"v{i}" for i in range(n)]
        edges = [(labels[i], labels[j]) for i in range(n) for j in range(n) if rng.random() < 0.3]
        dg = digraph_from_edges(labels, edges)
        r = spectral_radius(dg, 12, check=False)
        est = _power_iteration_radius(dg.adjacency)
        assert abs(est - float((r.lo + r.hi) / 2)) <= 1e-9 + float(r.hi - r.lo)


def digraph_from_matrix(rows):
    labels = [f"v{i}" for i in range(len(rows))]
    edges = [(labels[i], labels[j]) for i, row in enumerate(rows) for j, e in enumerate(row) if e]
    return digraph_from_edges(labels, edges)


def test_spectral_radius_equal_component_radii():
    # The golden-mean graph beside a component with char poly
    # (x+1)(x^2-x-1): two components of radius (1+sqrt 5)/2.
    golden = [[1, 1], [1, 0]]
    other = [[0, 0, 1], [1, 0, 1], [1, 1, 0]]
    for first, second in ((golden, other), (other, golden)):
        n1, n2 = len(first), len(second)
        rows = [row + [0] * n2 for row in first] + [[0] * n1 + row for row in second]
        r = spectral_radius(digraph_from_matrix(rows), 12, check=True)
        # On x > 0, x^2 - x - 1 <= 0 exactly when x <= (1+sqrt 5)/2.
        assert 0 < r.lo and r.lo**2 - r.lo - 1 <= 0 <= r.hi**2 - r.hi - 1
        assert r.width < F(1, 10**12)


def test_exact_check_rejects_wrong_enclosures():
    lower, _, lc = cover_digraphs(F(5))
    assert str(lc) == "T0"
    r = spectral_radius(lower, 12)
    assert encloses(lower.succ, r.lo, r.hi)
    shift = F(1, 10**6)
    assert not encloses(lower.succ, r.lo - shift, r.hi - shift)  # hi below rho
    assert not encloses(lower.succ, r.lo + shift, r.hi + shift)  # lo above rho
    assert not encloses(lower.succ, F(1), F(1))  # rho > 1 is not exactly 1
    # the radius of the neighbouring class S0 (about 1.158) is no enclosure at T0
    s0_lower, _, lc_s0 = cover_digraphs(F(9, 2))
    assert str(lc_s0) == "S0"
    r_s0 = spectral_radius(s0_lower, 12)
    assert not encloses(lower.succ, r_s0.lo, r_s0.hi)
    # a wrong exact radius on a cycle, and a radius above 0 on a DAG
    assert encloses(seven_cycle().succ, F(1), F(1))
    assert not encloses(seven_cycle().succ, F(2), F(2))
    assert not encloses(seven_cycle().succ, F(1, 2), F(1, 2))
    # 1 is an eigenvalue here (char poly x^5 - x^4 - 2x^3 + 2, rho ~ 1.899)
    # with a one-dimensional kernel, but no positive eigenvector
    non_perron = [[1, 3], [1, 4], [0], [0, 2, 4], [1, 2]]
    assert not encloses(non_perron, F(1), F(1))
    dag = digraph_from_edges(["a", "b"], [("a", "b")]).succ
    assert encloses(dag, F(0), F(0))
    assert not encloses(dag, F(1), F(1))


def test_spectral_radius_raises_on_wrong_enclosure(monkeypatch):
    lower, _, _ = cover_digraphs(F(5))  # one cyclic component
    true_enclosure = markov.largest_positive_root
    for shift in (F(1, 10**6), F(-1, 10**6)):

        def shifted(poly, digits, shift=shift):
            r = true_enclosure(poly, digits)
            return SimpleNamespace(lo=r.lo + shift, hi=r.hi + shift, poly=r.poly)

        monkeypatch.setattr(markov, "largest_positive_root", shifted)
        with pytest.raises(AssertionError, match="exact radius check failed"):
            spectral_radius(lower, 12)
        spectral_radius(lower, 12, check=False)


def test_exact_check_accepts_certificates():
    # each certificate's class agrees with the radius enclosure of its digraph
    seen = set()
    for tag in ("alpha", "beta"):
        ci = certify.certify(tag, 24, 32)
        assert certify.verify_certificate(ci)
        fam = certify.trapezoid_family(tag)
        for cert in (ci.lo_certificate, ci.hi_certificate):
            r = spectral_radius(oracles.orbit_digraph(fam.at(cert.d), cert.orbit))
            if r.is_exact and r.lo == 1:
                want = "radius_one"
            else:
                assert r.lo > 1
                want = "radius_above_one"
            assert cert.kind == want
            seen.add(want)
    assert seen == {"radius_one", "radius_above_one"}


def test_compare_radius_trichotomy():
    rng = random.Random(4242)
    for _ in range(300):
        n = rng.randint(1, 8)
        labels = [f"v{i}" for i in range(n)]
        edges = [(labels[i], labels[j]) for i in range(n) for j in range(n) if rng.random() < 0.3]
        dg = digraph_from_edges(labels, edges)
        succ = dg.succ
        r = spectral_radius(dg, 12, check=False)
        if r.hi == 0:
            assert compare_radius(succ, 1) == -1
            continue
        # a 0/1 matrix with a cycle has radius at least 1
        assert compare_radius(succ, 1) == (0 if r.is_exact and r.lo == 1 else 1)
        if r.is_exact:
            assert compare_radius(succ, r.lo) == 0
        else:  # the radius lies in (lo, hi]
            assert compare_radius(succ, r.lo) == 1
            assert compare_radius(succ, r.hi) == (0 if r.poly(r.hi) == 0 else -1)
    # the complete digraph with loops on k nodes has radius k
    eps = F(1, 10**9)
    for k in range(1, 7):
        succ = [list(range(k))] * k
        assert compare_radius(succ, k) == 0
        assert compare_radius(succ, k - eps) == 1
        assert compare_radius(succ, k + eps) == -1
    # two components of radius 2, the first feeding the second: each
    # component reads 0 at 2, while on the whole node set, which is not
    # strongly connected, the second leading minor of 2I - A is already 0
    succ = [[0, 1], [0, 1, 2], [2, 3], [2, 3]]
    assert compare_radius(succ, 2) == 0
    assert _compare_radius(succ, range(4), F(2)) == 1
    assert compare_radius(succ, 2 - eps) == 1 and compare_radius(succ, 2 + eps) == -1
    with pytest.raises(ValueError, match="got 0"):
        compare_radius(succ, 0)


def test_certificates_compute_no_enclosure(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("radius enclosure computed for a certificate")

    monkeypatch.setattr(markov, "largest_positive_root", forbidden)
    monkeypatch.setattr(markov, "_rome_order", forbidden)
    for tag in ("alpha", "beta"):
        ci = certify.certify(tag, 6, 8)
        assert certify.verify_certificate(ci)


def test_exact_check_accepts_random_digraphs():
    # the 100 random digraphs of acceptance criterion 7
    rng = random.Random(1234)
    for _ in range(100):
        size = rng.randint(1, 8)
        labs = [f"v{i}" for i in range(size)]
        edges = [(labs[i], labs[j]) for i in range(size) for j in range(size) if rng.random() < 0.3]
        dg = digraph_from_edges(labs, edges)
        r = spectral_radius(dg, 12, check=False)
        assert encloses(dg.succ, r.lo, r.hi)


def test_default_paths_use_no_float(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("float power iteration on a default path")

    monkeypatch.setattr(markov, "_power_iteration_radius", forbidden)
    ci = certify.certify("alpha", 6, 8)
    assert certify.verify_certificate(ci)
    assert band48.cross_check_entropy(5)
    r = spectral_radius(cover_digraphs(F(6))[0])
    assert format_decimal(r.lo, 5) == "1.20443"


def test_default_paths_use_no_dense_matrix(monkeypatch, capsys):
    def forbidden(self):
        raise AssertionError("dense adjacency read on a default path")

    monkeypatch.setattr(CoverDigraph, "adjacency", property(forbidden))
    ci = certify.certify("alpha", 6, 8)
    assert certify.verify_certificate(ci)
    assert band48.cross_check_entropy(5)
    r = spectral_radius(cover_digraphs(F(6))[0])
    assert format_decimal(r.lo, 5) == "1.20443"
    assert main(["graph", "--regime", "band48", "--b", "5", "--format", "dot"]) == 0
    assert capsys.readouterr().out.startswith("digraph cover {")


def test_entropy_bounds_examples():
    def ln_radius(dg):
        r = spectral_radius(dg, 9)
        return r.poly, ln_enclosure(r.lo, r.hi, F(1, 10**9))

    lower, upper, _ = cover_digraphs(F(9, 2))
    assert format_decimal(ln_radius(lower)[1][0], 5) == "0.14717"
    assert format_decimal(ln_radius(upper)[1][0], 5) == "0.28888"

    lower5, upper5, _ = cover_digraphs(F(5))
    (p_lo, ln_lo), (p_hi, ln_hi) = ln_radius(lower5), ln_radius(upper5)
    assert p_lo == p_hi
    assert format_decimal(ln_lo[0], 5) == format_decimal(ln_hi[1], 5) == "0.20844"

    lower31, upper31, lc = cover_digraphs(F(31, 4))
    assert str(lc) == "T2"
    (p_lo, ln_lo), (p_hi, _) = ln_radius(lower31), ln_radius(upper31)
    assert p_lo == p_hi
    assert format_decimal(ln_lo[0], 5) == "0.13699"


def test_dot_export():
    sc = seven_cycle()
    dot = sc.to_dot()
    assert '"A" -> "B";' in dot
    assert dot.count(" -> ") == 7


def test_power_iteration_early_exit_matches_full_loop():
    rng = random.Random(7007)
    for _ in range(1000):
        n = rng.randint(1, 8)
        density = rng.choice((0.2, 0.3, 0.5))
        adj = [[int(rng.random() < density) for _ in range(n)] for _ in range(n)]
        steps = rng.randint(1, 300)
        assert _power_iteration_radius(adj, steps) == oracles.power_iteration_radius(adj, steps), (adj, steps)


def _radius_comparison_cases():
    """(succ, lam) pairs: exact radii and their 1e-9 neighbours on complete
    digraphs, cycles and the feeding-components example, then seeded random
    digraphs at 1, its neighbours and 10-digit rationals."""
    eps = F(1, 10**9)
    cases = []
    for k in range(1, 7):
        cases += [([list(range(k))] * k, lam) for lam in (F(k), k - eps, k + eps)]
    for n in range(1, 9):
        cycle = [[(i + 1) % n] for i in range(n)]
        cases += [(cycle, lam) for lam in (F(1), 1 - eps, 1 + eps)]
    feeding = [[0, 1], [0, 1, 2], [2, 3], [2, 3]]
    cases += [(feeding, lam) for lam in (F(2), 2 - eps, 2 + eps)]
    rng = random.Random(1016)
    while len(cases) < 1200:
        n = rng.randint(1, 8)
        density = rng.choice((0.2, 0.3, 0.5))
        succ = [[j for j in range(n) if rng.random() < density] for _ in range(n)]
        den = rng.randrange(10**9, 10**10)
        lam = rng.choice((F(1), 1 - eps, 1 + eps, F(rng.randrange(den // 4, 4 * den), den)))
        cases.append((succ, lam))
    return cases


def test_compare_radius_matches_fraction_oracle():
    sides = set()
    for succ, lam in _radius_comparison_cases():
        for comp in markov._cyclic_components(succ):
            got = _compare_radius(succ, comp, lam)
            assert got == oracles.compare_radius_component(succ, comp, lam), (succ, comp, lam)
            sides.add(got)
        # the whole node set need not be strongly connected: all leading
        # minors positive still means rho < lam, and a singular last pivot
        # after positive ones still means rho == lam
        whole = range(len(succ))
        got = _compare_radius(succ, whole, lam)
        assert (got == -1) == (oracles.compare_radius_component(succ, whole, lam) == -1), (succ, lam)
        assert got != 0 or compare_radius(succ, lam) == 0, (succ, lam)
    assert sides == {-1, 0, 1}
