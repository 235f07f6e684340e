import random
from fractions import Fraction as F
from types import SimpleNamespace

import pytest

from pwldyn import band48, certify, markov
from pwldyn.band48 import cover_digraphs
from pwldyn.graphs import build_gamma
from pwldyn.markov import (
    Rome,
    build_cover_digraph,
    digraph_from_edges,
    direct_char_poly,
    entropy_bounds,
    find_rome,
    is_rome,
    rome_char_poly,
    rome_char_poly_full,
    simple_cycle_lengths,
    spectral_radius,
    _encloses_radius,
    _power_iteration_radius,
)
from pwldyn.planemap import Params, Segment, point
from pwldyn.polys import IntPoly
from pwldyn.rationals import format_decimal


def poly(**terms) -> IntPoly:
    return IntPoly.from_terms({int(k[1:]): v for k, v in terms.items()})


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
    assert lower5.adjacency == upper5.adjacency
    assert simple_cycle_lengths(lower5) == [3, 7, 7]


def test_build_cover_digraph_markov_mode():
    from pwldyn.band48 import band48_partition

    part, _ = band48_partition(F(5))
    g = build_gamma("band48", 5)
    dg = build_cover_digraph(g, part, Params.standard(5), "markov")
    assert dg.mode == "markov"
    part, _ = band48_partition(F(9, 2))
    with pytest.raises(ValueError):
        build_cover_digraph(build_gamma("band48", F(9, 2)), part, Params.standard(F(9, 2)), "markov")


def test_build_cover_digraph_rejects_overlap():
    seg1 = Segment(point(0, 0), point(2, 0))
    seg2 = Segment(point(1, 0), point(3, 0))
    with pytest.raises(ValueError):
        build_cover_digraph(None, [("a", seg1), ("b", seg2)], Params.standard(5), "lower")


def test_find_rome_examples():
    lower, _, _ = cover_digraphs(F(9, 2))
    assert len(find_rome(lower)) == 1

    assert len(find_rome(seven_cycle())) == 1

    dag = digraph_from_edges(["a", "b", "c"], [("a", "b"), ("b", "c")])
    assert find_rome(dag) == Rome(())
    assert is_rome(dag, Rome(()))


def test_rome_char_poly_examples():
    lower, upper, _ = cover_digraphs(F(9, 2))
    assert rome_char_poly(lower, find_rome(lower)) == poly(p7=1, p4=-1, p0=-1)

    _, upper_u0, _ = cover_digraphs(F(21, 4) + F(1, 50))
    assert rome_char_poly(upper_u0, find_rome(upper_u0)) == poly(p10=1, p7=-1, p3=-2, p0=-1)

    sc = seven_cycle()
    assert rome_char_poly(sc, find_rome(sc)) == poly(p7=1, p0=-1)
    assert rome_char_poly_full(sc, find_rome(sc)) == poly(p7=1, p0=-1)

    with pytest.raises(ValueError):
        rome_char_poly(sc, Rome(()))  # empty set misses the 7-cycle


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
    assert _encloses_radius(lower.adjacency, r.lo, r.hi)
    shift = F(1, 10**6)
    assert not _encloses_radius(lower.adjacency, r.lo - shift, r.hi - shift)  # hi below rho
    assert not _encloses_radius(lower.adjacency, r.lo + shift, r.hi + shift)  # lo above rho
    assert not _encloses_radius(lower.adjacency, F(1), F(1))  # rho > 1 is not exactly 1
    # the radius of the neighbouring class S0 (about 1.158) is no enclosure at T0
    s0_lower, _, lc_s0 = cover_digraphs(F(9, 2))
    assert str(lc_s0) == "S0"
    r_s0 = spectral_radius(s0_lower, 12)
    assert not _encloses_radius(lower.adjacency, r_s0.lo, r_s0.hi)
    # a wrong exact radius on a cycle, and a radius above 0 on a DAG
    assert _encloses_radius(seven_cycle().adjacency, F(1), F(1))
    assert not _encloses_radius(seven_cycle().adjacency, F(2), F(2))
    assert not _encloses_radius(seven_cycle().adjacency, F(1, 2), F(1, 2))
    # 1 is an eigenvalue here (char poly x^5 - x^4 - 2x^3 + 2, rho ~ 1.899)
    # with a one-dimensional kernel, but no positive eigenvector
    non_perron = [[0, 1, 0, 1, 0], [0, 1, 0, 0, 1], [1, 0, 0, 0, 0], [1, 0, 1, 0, 1], [0, 1, 1, 0, 0]]
    assert not _encloses_radius(non_perron, F(1), F(1))
    dag = digraph_from_edges(["a", "b"], [("a", "b")]).adjacency
    assert _encloses_radius(dag, F(0), F(0))
    assert not _encloses_radius(dag, F(1), F(1))


def test_spectral_radius_raises_on_wrong_enclosure(monkeypatch):
    lower, _, _ = cover_digraphs(F(5))  # one cyclic component
    true_enclosure = markov._largest_root_enclosure
    for shift in (F(1, 10**6), F(-1, 10**6)):

        def shifted(poly, digits, shift=shift):
            r = true_enclosure(poly, digits)
            return SimpleNamespace(lo=r.lo + shift, hi=r.hi + shift, poly=r.poly)

        monkeypatch.setattr(markov, "_largest_root_enclosure", shifted)
        with pytest.raises(AssertionError, match="exact radius check failed"):
            spectral_radius(lower, 12)
        spectral_radius(lower, 12, check=False)


def test_exact_check_accepts_certificates(monkeypatch):
    seen = []
    original = markov.spectral_radius

    def spy(dg, digits=12, check=True):
        r = original(dg, digits, check=False)
        seen.append((dg.adjacency, r))
        return r

    monkeypatch.setattr(markov, "spectral_radius", spy)
    for tag in ("alpha", "beta"):
        ci = certify.certify(tag, 24, 32)
        assert certify.verify_certificate(ci)
    kinds = {"one" if r.is_exact and r.lo == 1 else "above" for _, r in seen}
    assert kinds == {"one", "above"} and len(seen) >= 8
    for adj, r in seen:
        assert _encloses_radius(adj, r.lo, r.hi)


def test_exact_check_accepts_random_digraphs():
    # the 100 random digraphs of acceptance criterion 7
    rng = random.Random(1234)
    for _ in range(100):
        size = rng.randint(1, 8)
        labs = [f"v{i}" for i in range(size)]
        edges = [(labs[i], labs[j]) for i in range(size) for j in range(size) if rng.random() < 0.3]
        dg = digraph_from_edges(labs, edges)
        r = spectral_radius(dg, 12, check=False)
        assert _encloses_radius(dg.adjacency, r.lo, r.hi)


def test_default_paths_use_no_float(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("float power iteration on a default path")

    monkeypatch.setattr(markov, "_power_iteration_radius", forbidden)
    ci = certify.certify("alpha", 6, 8)
    assert certify.verify_certificate(ci)
    assert band48.cross_check_entropy(5)
    r = spectral_radius(cover_digraphs(F(6))[0])
    assert format_decimal(r.lo, 5) == "1.20443"


def test_entropy_bounds_examples():
    lower, upper, _ = cover_digraphs(F(9, 2))
    eb = entropy_bounds(lower, upper, 7)
    assert format_decimal(eb.ln_lower[0], 5) == "0.14717"
    assert format_decimal(eb.ln_upper[0], 5) == "0.28888"

    lower5, upper5, _ = cover_digraphs(F(5))
    eb = entropy_bounds(lower5, upper5, 7)
    assert eb.exact
    assert format_decimal(eb.ln_lower[0], 5) == format_decimal(eb.ln_upper[1], 5) == "0.20844"

    lower31, upper31, lc = cover_digraphs(F(31, 4))
    assert str(lc) == "T2"
    eb = entropy_bounds(lower31, upper31, 7)
    assert eb.exact
    assert format_decimal(eb.ln_lower[0], 5) == "0.13699"


def test_dot_and_json_export():
    sc = seven_cycle()
    dot = sc.to_dot()
    assert '"A" -> "B";' in dot
    js = sc.to_json()
    assert js["labels"][0] == "A"
    assert sum(sum(row) for row in js["adjacency"]) == 7
