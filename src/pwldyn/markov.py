"""Covering digraphs, romes, characteristic polynomials, spectral radii.

A covering digraph records which partition intervals cover which under the
map; it is stored as successor lists, and every algorithm here reads them.
Entropy comes from the spectral radius of its 0/1 adjacency matrix A, computed
exactly.  The cyclic strongly connected components are found once, each
renumbered as successor lists; in each, a rome (a node set meeting every
cycle) turns the characteristic polynomial into a small determinant over
path-generating polynomials in 1/lambda, whose relevant factor is then run
through certified root isolation.  The rome search returns the topological
order of the nodes off the rome (Kahn's algorithm) that proved it a rome,
and the path counts by length are carried along that order: paths are
counted, never enumerated.  `compare_radius` decides rho <, = or > lam from
the successor lists alone, in exact arithmetic: per component, the signs of
the leading principal minors of the Z-matrix lam*I - A decide (all positive:
rho < lam; all but the last positive and det 0: rho = lam), read off the
pivots of one fraction-free forward elimination of p*I - q*A for lam = p/q.
It proves each enclosure again at both ends on the same components, and
decides the transition certificates at lam = 1.  Only the oracles
`direct_char_poly` and `_power_iteration_radius` (a float estimate that runs
on no default path) work on the dense matrix.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from math import gcd
from typing import Iterable, NamedTuple, Sequence

from pwldyn.planemap import LatticeSegment, image_cover_relations
from pwldyn.polys import (
    IntPoly,
    RootInterval,
    compare_roots,
    largest_positive_root,
    poly_det,
)


class CoverDigraph(NamedTuple):
    """0/1 digraph on named nodes: succ[i] is the sorted tuple of i's successors."""

    labels: tuple[str, ...]
    succ: tuple[tuple[int, ...], ...]

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Dense 0/1 matrix derived from `succ`, for export and the test oracles."""
        return tuple(tuple(int(j in row) for j in range(self.n)) for row in self.succ)

    def index(self, label: str) -> int:
        if label not in self.labels:
            raise ValueError(f"unknown node label {label!r}")
        return self.labels.index(label)

    def edges(self) -> list[tuple[str, str]]:
        return [(self.labels[i], self.labels[j]) for i, row in enumerate(self.succ) for j in row]

    def to_dot(self) -> str:
        lines = ["digraph cover {"]
        for lab in self.labels:
            lines.append(f'  "{lab}";')
        for a, b in self.edges():
            lines.append(f'  "{a}" -> "{b}";')
        lines.append("}")
        return "\n".join(lines)


def _label_index(labels: Sequence[str]) -> dict[str, int]:
    """{label: position}, refusing the first label that is repeated."""
    idx = {lab: i for i, lab in enumerate(labels)}
    if len(idx) < len(labels):
        repeated = next(lab for i, lab in enumerate(labels) if idx[lab] != i)
        raise ValueError(f"repeated node label {repeated!r}")
    return idx


def digraph_from_edges(labels: Sequence[str], edges: Iterable[tuple[str, str]]) -> CoverDigraph:
    idx = _label_index(labels)
    succ: list[set[int]] = [set() for _ in labels]
    for a, b in edges:
        if a not in idx or b not in idx:
            raise ValueError(f"unknown node label {(b if a in idx else a)!r}")
        succ[idx[a]].add(idx[b])
    return CoverDigraph(tuple(labels), tuple(tuple(sorted(row)) for row in succ))


# ---------------------------------------------------------------------------
# Cycle structure
# ---------------------------------------------------------------------------


def _cyclic_components(succ: Sequence[Sequence[int]]) -> list[list[int]]:
    """The strongly connected components that carry a cycle: Tarjan's
    algorithm, iterative, on successor lists."""
    n = len(succ)
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    out: list[list[int]] = []
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            row = succ[v]
            while pi < len(row):
                w = row[pi]
                pi += 1
                if index[w] == -1:
                    work[-1] = (v, pi)
                    work.append((w, 0))
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                pv = work[-1][0]
                low[pv] = min(low[pv], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                if len(comp) > 1 or v in succ[v]:
                    out.append(comp)
    return out


def _topological_order(succ: Sequence[Sequence[int]], removed: frozenset[int]) -> list[int] | None:
    """Kahn's algorithm: the nodes outside `removed` in topological order, or None on a cycle."""
    indegree = [0] * len(succ)
    for v, row in enumerate(succ):
        if v not in removed:
            for w in row:
                indegree[w] += 1
    order = [v for v in range(len(succ)) if v not in removed and not indegree[v]]
    for v in order:  # grows while it is read
        for w in succ[v]:
            if w not in removed:
                indegree[w] -= 1
                if not indegree[w]:
                    order.append(w)
    return order if len(order) + len(removed) == len(succ) else None


class Rome(NamedTuple):
    """Node set meeting every cycle: removing it leaves the digraph acyclic."""

    labels: tuple[str, ...]


def _rome_order(succ: Sequence[Sequence[int]], candidates: Sequence[int]) -> tuple[frozenset[int], list[int]]:
    """Least rome drawn from the sorted `candidates` by brute force over size,
    with the Kahn order (`_topological_order`) of the nodes off it that proved
    it one.  `candidates` holds every node on a cycle: the empty set is tried
    only when there is none."""
    for size in range(bool(candidates), len(candidates) + 1):
        for combo in itertools.combinations(candidates, size):
            rome = frozenset(combo)
            order = _topological_order(succ, rome)
            if order is not None:
                return rome, order
    raise AssertionError("unreachable: full candidate set is always a rome")


def find_rome(dg: CoverDigraph) -> Rome:
    """Minimum-cardinality rome over the nodes on cycles (`_rome_order`);
    the empty set is tried only on an acyclic digraph."""
    rome, _ = _rome_order(dg.succ, sorted(v for comp in _cyclic_components(dg.succ) for v in comp))
    return Rome(tuple(dg.labels[i] for i in sorted(rome)))


# ---------------------------------------------------------------------------
# Characteristic polynomials
# ---------------------------------------------------------------------------


def _simple_path_lengths(succ: Sequence[Sequence[int]], rome_idx: frozenset[int], start: int,
                         order: Sequence[int]) -> dict[int, dict[int, int]]:
    """For each rome node t: {path length: count} over simple paths start->t.

    The interior of a path avoids the rome, where the digraph is acyclic and
    `order` is topological, so each node's counts are complete before it
    passes them on, one longer: paths are counted, not enumerated.
    """
    out: dict[int, dict[int, int]] = {t: {} for t in rome_idx}
    reach: dict[int, dict[int, int]] = {start: {0: 1}}
    for v in itertools.chain((start,), order):
        paths = reach.pop(v, None)
        if paths is None:
            continue
        for w in succ[v]:
            d = out[w] if w in rome_idx else reach.setdefault(w, {})
            for length, count in paths.items():
                d[length + 1] = d.get(length + 1, 0) + count
    return out


def _char_poly(succ: Sequence[Sequence[int]], rome: frozenset[int], order: Sequence[int]) -> IntPoly:
    """Exact characteristic polynomial of the adjacency matrix via the rome,
    given `order`, a topological order of the nodes off it.

    With y = 1/lambda, A_R(y) collects sum y^length over simple paths between
    rome nodes, and (+/-) lambda^n det(A_R(1/lambda) - E) is the determinant
    with each power y^p taken to lambda^(n - p); normalized to a positive
    leading coefficient so it matches det(lambda*I - M).  An acyclic digraph
    has the empty rome, det 1 and so lambda^n.
    """
    n = len(succ)
    rome_order = sorted(rome)
    paths = {i: _simple_path_lengths(succ, rome, i, order) for i in rome_order}
    det = poly_det([[IntPoly.from_terms(paths[i][j]) - IntPoly([int(i == j)]) for j in rome_order]
                    for i in rome_order])
    return IntPoly.from_terms({n - p: c for p, c in det.terms}).normalized_sign()


def rome_char_poly_full(dg: CoverDigraph, rome: Rome) -> IntPoly:
    """Exact characteristic polynomial of the adjacency matrix via the rome
    (`_char_poly`), after one Kahn pass proves the given labels a rome."""
    rome_idx = frozenset(map(dg.index, rome.labels))
    order = _topological_order(dg.succ, rome_idx)
    if order is None:
        raise ValueError("given node set is not a rome")
    return _char_poly(dg.succ, rome_idx, order)


def _det_int(matrix: list[list[int]]) -> int:
    """Fraction-free Bareiss determinant of an integer matrix."""
    m = [row[:] for row in matrix]
    n = len(m)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k] != 0:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def direct_char_poly(dg: CoverDigraph) -> IntPoly:
    """det(lambda*I - M) computed independently of the rome machinery.

    Evaluates the determinant at n+1 integers and interpolates; monic of
    degree n by construction.
    """
    n = dg.n
    adj = dg.adjacency
    xs = list(range(n + 1))
    ys = []
    for x in xs:
        m = [[(x if i == j else 0) - adj[i][j] for j in range(n)] for i in range(n)]
        ys.append(_det_int(m))
    # Lagrange interpolation over the rationals; the result must be integral.
    coeffs = [Fraction(0)] * (n + 1)
    for i, xi in enumerate(xs):
        basis = [Fraction(1)]
        denom = Fraction(1)
        for j, xj in enumerate(xs):
            if i == j:
                continue
            new = [Fraction(0)] * (len(basis) + 1)
            for p, c in enumerate(basis):
                new[p] -= c * xj
                new[p + 1] += c
            basis = new
            denom *= xi - xj
        scale = Fraction(ys[i]) / denom
        for p, c in enumerate(basis):
            coeffs[p] += c * scale
    assert all(c.denominator == 1 for c in coeffs)
    return IntPoly([c.numerator for c in coeffs])


# ---------------------------------------------------------------------------
# Spectral radius
# ---------------------------------------------------------------------------


def _power_iteration_radius(adj: Sequence[Sequence[int]], steps: int = 10_000) -> float:
    """Float growth-rate estimate of the spectral radius (advisory only).

    Runs on A+I per strongly connected component, where the iteration is
    primitive and converges geometrically; the +1 shift is removed at the end.
    The state is a deterministic function of the one before, so once it
    repeats bit for bit the run is periodic: the loop stops there and reads
    the growth of the last of `steps` steps off that period.
    """
    rows = [[j for j, e in enumerate(row) if e] for row in adj]
    best = 0.0
    for comp in _cyclic_components(rows):
        pos = {v: k for k, v in enumerate(comp)}
        # Rows in component order: skipping zero entries leaves every float sum unchanged.
        succ = [sorted((pos[j], adj[i][j]) for j in rows[i] if j in pos) for i in comp]
        v = [1.0] * len(comp)
        # growths[t] comes from the state after t-1 steps; every entry stays
        # positive, so equal tuples are equal bit for bit
        seen, growths = {tuple(v): 0}, [1.0]
        for t in range(1, steps + 1):
            w = [sum([a * v[k] for k, a in row]) + v[i] for i, row in enumerate(succ)]
            norm = sum(map(abs, w))
            growths.append(norm / sum(map(abs, v)))
            v = [c / norm for c in w]
            first = seen.setdefault(tuple(v), t)
            if first != t:
                growths.append(growths[first + (steps - 1 - first) % (t - first) + 1])
                break
        best = max(best, growths[-1] - 1.0)
    return best


def spectral_radius(dg: CoverDigraph, digits: int = 12, check: bool = True) -> RootInterval:
    """Certified enclosure of the adjacency spectral radius.

    Per cyclic strongly connected component, renumbered as successor lists,
    the rome characteristic polynomial is isolated exactly; the global
    radius is the componentwise maximum.  With `check` the enclosure is
    proven again on the same components by exact leading-minor tests at its
    ends (`_encloses_radius`); a failed proof means a bug and raises.
    """
    comps = _cyclic_components(dg.succ)
    if not comps:
        return RootInterval(Fraction(0), Fraction(0), IntPoly([0, 1]))
    enclosures = []
    for comp in comps:
        pos = {v: k for k, v in enumerate(sorted(comp))}
        sub = [[pos[w] for w in dg.succ[v] if w in pos] for v in pos]
        # a factor x^k adds only zero eigenvalues; the rest carries the radius
        poly, _ = _char_poly(sub, *_rome_order(sub, range(len(sub)))).strip_power_factor()
        root = largest_positive_root(poly, digits)
        if root is None:
            raise AssertionError("cyclic component without positive root")
        enclosures.append(root)
    result = max(enclosures, key=functools.cmp_to_key(compare_roots))
    if check and not _encloses_radius(dg.succ, comps, result.lo, result.hi):
        raise AssertionError(
            f"exact radius check failed for [{result.lo}, {result.hi}] ({result.poly})"
        )
    return result


# ---------------------------------------------------------------------------
# Exact radius proof
# ---------------------------------------------------------------------------
#
# Let A_C >= 0 be irreducible (a cyclic strongly connected component) and
# lam = p/q > 0.  M = p*I - q*A_C is a Z-matrix (off-diagonal entries <= 0),
# and a Z-matrix has all leading principal minors positive exactly when it is
# a nonsingular M-matrix, that is when rho(A_C) < lam (Berman-Plemmons,
# "Nonnegative Matrices in the Mathematical Sciences", ch. 6).  If a proper
# leading minor is <= 0 while the ones before it are positive, the leading
# principal submatrix of that size has radius >= lam; for an irreducible A_C
# that radius lies strictly below rho(A_C), so rho(A_C) > lam.  If the first
# n-1 minors are positive and det M = 0, the leading block is a nonsingular
# M-matrix and its Schur complement s in M is 0; for eps > 0 the complement
# in M + eps*I exceeds s, since the block's inverse is >= 0 and falls as eps
# grows, so every leading minor of M + eps*I is positive: rho(A_C) < lam +
# eps for all eps, and lam is an eigenvalue, so rho(A_C) = lam.  Otherwise
# det M < 0 and rho(A_C) > lam.  The k-th pivot of an elimination without
# row exchanges is the ratio of the k-th leading minor to the one before, so
# the minors' signs are read off the pivots in order.  The elimination is
# fraction-free: a row is cross-multiplied by the positive pivot, never
# divided by it, and kept primitive by dividing out its content, so each
# integer row is a positive multiple of its rational Schur-complement row.


def _compare_radius(succ: Sequence[Sequence[int]], comp: Sequence[int], lam: Fraction) -> int:
    """-1, 0 or 1 as rho(A_C) <, = or > lam, for a strongly connected comp C.

    One forward elimination of p*I - q*A_C (lam = p/q), in the order of
    `comp`, pivoting on the diagonal: it stops at the first pivot <= 0, which
    gives 1 when it is not the last, and the last pivot's sign decides
    between -1, 0 and 1.  Rows are dicts column -> integer, each holding its
    diagonal; only the rows below a pivot that hold its column are updated,
    found through a column index.  An off-diagonal entry is negative and
    stays so, since each update subtracts from it a product of two negative
    entries, so no entry leaves a row.  Requires lam > 0.
    """
    p, q = lam.numerator, lam.denominator
    pos = {v: k for k, v in enumerate(comp)}
    rows = []
    for v in comp:
        row = {pos[w]: -q for w in succ[v] if w in pos}
        row[pos[v]] = row.get(pos[v], 0) + p
        rows.append(row)
    below: list[set[int]] = [set() for _ in comp]  # column -> rows below it with an entry there
    for i, row in enumerate(rows):
        for c in row:
            if c < i:
                below[c].add(i)
    last = len(rows) - 1
    for k in range(last):
        prow = rows[k]
        a = prow[k]
        if a <= 0:
            return 1
        for i in below[k]:
            row = rows[i]
            f = row.pop(k)
            new = {c: a * x for c, x in row.items()}
            for c, x in prow.items():
                if c != k:
                    new[c] = new.get(c, 0) - f * x
                    if c < i:
                        below[c].add(i)
            g = gcd(*new.values())
            rows[i] = {c: x // g for c, x in new.items()} if g > 1 else new
    a = rows[last][last]
    return (a < 0) - (a > 0)


def _radius_sign(succ: Sequence[Sequence[int]], comps: Iterable[Sequence[int]], lam: Fraction) -> int:
    """-1, 0 or 1 as the largest radius of the components `comps` is <, = or > lam."""
    return max((_compare_radius(succ, c, lam) for c in comps), default=-1)


def compare_radius(succ: Sequence[Sequence[int]], lam) -> int:
    """-1, 0 or 1 as the spectral radius of the digraph `succ` is <, = or > lam > 0:
    the largest answer over its cyclic components, and -1 without a cycle."""
    lam = Fraction(lam)
    if lam.numerator <= 0:
        raise ValueError(f"lam must be > 0, got {lam}")
    return _radius_sign(succ, _cyclic_components(succ), lam)


def _encloses_radius(succ: Sequence[Sequence[int]], comps: list[list[int]], lo: Fraction, hi: Fraction) -> bool:
    """Whether exact arithmetic proves lo <= rho <= hi for the digraph `succ`
    whose cyclic components are `comps`.

    lo < hi is proven by rho < hi and, for lo > 0, not rho < lo; lo == hi by
    rho == hi; each is a leading-minor test per component.  A radius of 0
    holds only for an acyclic digraph.
    """
    if hi <= 0:
        return lo <= hi == 0 and not comps
    signs = (_radius_sign(succ, comps, lam) for lam in (hi, lo))  # each computed when asked
    if lo < hi:
        return next(signs) < 0 and (lo <= 0 or next(signs) >= 0)
    return lo == hi and next(signs) == 0


# ---------------------------------------------------------------------------
# Covering digraph of a partition under F
# ---------------------------------------------------------------------------


def _cover_digraph_pair(frame: int, a: int, b: int, partition: Sequence[tuple[str, LatticeSegment]],
                        hosts: Sequence[LatticeSegment]) -> tuple[CoverDigraph, CoverDigraph]:
    """(lower, upper) 0/1 covering digraphs under F of the named partition
    intervals, on host edges, all as lattice ends in `frame`, where F has
    the offsets (a, b).  Labels must be distinct; the relations and the
    other refusals are `image_cover_relations`'s.  The partition is Markov
    where the two digraphs agree."""
    labels = tuple(lab for lab, _ in partition)
    _label_index(labels)
    lower, upper = image_cover_relations(frame, a, b, partition, hosts)
    return tuple(CoverDigraph(labels, tuple(tuple(sorted(row)) for row in rows)) for rows in (lower, upper))
