"""Exact dynamics of the planar family (x,y) -> (|x|-y+a, x-|y|+b).

The package computes, in exact rational arithmetic, the dynamics of this
piecewise-linear family restricted to its one-dimensional invariant graphs,
the topological entropy of those restrictions (via covering digraphs and
their characteristic polynomials), and certified rational brackets for the
two parameter values where the entropy switches between zero and positive.

Everything that ends up in a certificate is a `fractions.Fraction` or an
integer polynomial; floating point is used only for advisory cross-checks.
"""

from pwldyn.rationals import parse_rational
from pwldyn.planemap import Params, Point, Segment, apply_F

__all__ = [
    "parse_rational",
    "Params",
    "Point",
    "Segment",
    "apply_F",
]
