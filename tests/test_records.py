"""The result records as callers see them: NamedTuples where they only hold
fields, plain classes where they validate."""

from fractions import Fraction as F

import pytest

from pwldyn.band48 import LevelClass, entropy_or_bounds
from pwldyn.certify import certify
from pwldyn.graphs import build_gamma
from pwldyn.markov import CoverDigraph, Rome, digraph_from_edges
from pwldyn.piecewise import Itinerary, Piece
from pwldyn.planemap import Params, Segment, point
from pwldyn.polys import IntPoly, RootInterval


def test_repr_names_each_field():
    assert repr(LevelClass(0, "T")) == "LevelClass(n=0, letter='T')"
    assert repr(Params(F(-1), F(5))) == "Params(a=Fraction(-1, 1), b=Fraction(5, 1))"
    seg = Segment(point(0, 0), point(1, 0))
    assert repr(seg) == (
        "Segment(p=Point(x=Fraction(0, 1), y=Fraction(0, 1)), q=Point(x=Fraction(1, 1), y=Fraction(0, 1)))"
    )
    ri = RootInterval(F(1), F(2), IntPoly([-2, 0, 1]))
    assert repr(ri) == "RootInterval(lo=Fraction(1, 1), hi=Fraction(2, 1), poly=x^2 - 2)"


def test_itinerary_and_rome_replace_and_count_fields():
    # len() counts fields, as on every NamedTuple, so _replace works on both
    rome, it = Rome(("a", "b", "c")), Itinerary.parse("LLRC")
    assert len(rome) == len(it) == 1
    assert len(rome.labels) == 3 and len(it.symbols) == 4
    assert rome._replace(labels=("x", "y")) == Rome(("x", "y"))
    assert it._replace(symbols=("R", "C")) == Itinerary.parse("RC")
    assert str(Itinerary.parse("LLRC")) == "LLRC"


def test_cover_digraph_index_is_the_label_position():
    dg = digraph_from_edges(["x", "y", "z"], [("x", "y"), ("y", "z"), ("z", "x")])
    assert [dg.index(lab) for lab in ("x", "y", "z")] == [0, 1, 2]
    with pytest.raises(ValueError):
        dg.index("w")
    assert dg == CoverDigraph(("x", "y", "z"), ((1,), (2,), (0,)))


def test_defaults_and_replace():
    assert Piece(F(1), F(0)).name is None
    ci = certify("alpha", 3, 4)
    wider = ci._replace(lo=ci.lo - 1)
    assert (wider.lo, wider.hi, wider.tag) == (ci.lo - 1, ci.hi, ci.tag)
    assert ci == tuple(ci)  # a NamedTuple equals the plain tuple of its fields


def test_segment_validates_and_hashes_its_ends():
    p, q = point(0, 0), point(1, 2)
    with pytest.raises(ValueError, match="degenerate segment"):
        Segment(p, p)
    seg = Segment(p, q)
    assert hash(seg) == hash((seg.p, seg.q))
    assert seg == Segment(point(0, 0), point(1, 2)) and seg != Segment(q, p)
    assert seg != (p, q)


def test_root_interval_validates_every_form():
    p = IntPoly([-2, 0, 1])  # x^2 - 2
    with pytest.raises(ValueError, match="lo > hi"):
        RootInterval(F(2), F(1), p)
    with pytest.raises(ValueError, match="degenerate interval"):
        RootInterval(F(1), F(1), p)
    with pytest.raises(ValueError, match="hi is a root"):
        RootInterval(F(0), F(1), IntPoly([-1, 1]))
    with pytest.raises(ValueError, match="does not change sign"):
        RootInterval(F(2), F(3), p)
    ri = RootInterval(F(1), F(2), p)
    assert hash(ri) == hash((ri.lo, ri.hi, ri.poly))
    assert ri == RootInterval(F(1), F(2), p) and ri != RootInterval(F(1), F(3, 2), p)


def test_records_holding_root_intervals_hash():
    res = entropy_or_bounds(5)
    assert hash(res) == hash((res.kind, res.level, res.lo_root, res.hi_root, res.ln_lo, res.ln_hi))
    assert res in {res}


def test_planar_graph_compares_fields_and_stays_unhashable():
    g = build_gamma("negb", -3)
    assert g._fields == ("regime", "b", "vertices", "edges", "marks", "boundary")
    assert g == build_gamma("negb", -3) and g != build_gamma("negb", -4)
    assert g == tuple(g)  # a NamedTuple equals the plain tuple of its fields
    assert repr(g) == (
        f"PlanarGraph(regime='negb', b=Fraction(-3, 1), vertices={g.vertices!r}, "
        f"edges={g.edges!r}, marks={g.marks!r}, boundary=False)"
    )
    assert repr(g).endswith("marks={'P7': (Point(x=Fraction(3, 1), y=Fraction(1, 1)), 'plateau')}, boundary=False)")
    with pytest.raises(TypeError):
        hash(g)
