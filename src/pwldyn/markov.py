"""Covering digraphs, romes, characteristic polynomials, spectral radii.

A covering digraph records which partition intervals cover which under the
map; it is stored as successor lists, and every algorithm here reads them.
Entropy comes from the spectral radius of its 0/1 adjacency matrix A,
computed exactly: a rome (a node set meeting every cycle) turns the
characteristic polynomial into a small determinant over path-generating
Laurent polynomials, whose relevant factor is then run through certified
root isolation.  `compare_radius` decides rho <, = or > lam from the
successor lists alone, in exact arithmetic: a positive solution of
(lam*I - A) v = 1 shows rho < lam, a positive kernel vector of
lam*I - A shows rho = lam.  With lam = p/q the elimination is
fraction-free on the integer system [p*I - q*A | q].  It proves each
enclosure again at both ends, and decides the transition certificates at
lam = 1.  Only the oracles
`direct_char_poly` and `_power_iteration_radius` (a float estimate that
runs on no default path) work on the dense matrix.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence

from pwldyn.planemap import LineCover, Params, Segment, image_cover_relations
from pwldyn.polys import (
    IntPoly,
    LaurentPoly,
    RootInterval,
    count_roots_in,
    laurent_poly_det,
    largest_positive_root,
    poly_gcd,
)


@dataclass(frozen=True)
class CoverDigraph:
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

    def to_json(self) -> dict:
        return {"labels": list(self.labels), "adjacency": [list(row) for row in self.adjacency]}


def digraph_from_edges(labels: Sequence[str], edges: Iterable[tuple[str, str]]) -> CoverDigraph:
    idx = {lab: i for i, lab in enumerate(labels)}
    succ: list[set[int]] = [set() for _ in labels]
    for a, b in edges:
        succ[idx[a]].add(idx[b])
    return CoverDigraph(tuple(labels), tuple(tuple(sorted(row)) for row in succ))


# ---------------------------------------------------------------------------
# Cycle structure
# ---------------------------------------------------------------------------


def strongly_connected_components(succ: Sequence[Sequence[int]]) -> list[list[int]]:
    """Tarjan's algorithm, iterative, on successor lists."""
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
                out.append(comp)
    return out


def _cyclic_components(succ: Sequence[Sequence[int]]) -> list[list[int]]:
    """Strongly connected components that carry a cycle."""
    return [
        comp
        for comp in strongly_connected_components(succ)
        if len(comp) > 1 or comp[0] in succ[comp[0]]
    ]


def _acyclic_without(dg: CoverDigraph, removed: frozenset[int]) -> bool:
    n = dg.n
    color = [0] * n  # 0 unvisited, 1 active, 2 done
    for start in range(n):
        if start in removed or color[start] != 0:
            continue
        stack = [(start, iter(dg.succ[start]))]
        color[start] = 1
        while stack:
            v, it = stack[-1]
            found = False
            for w in it:
                if w in removed:
                    continue
                if color[w] == 1:
                    return False
                if color[w] == 0:
                    color[w] = 1
                    stack.append((w, iter(dg.succ[w])))
                    found = True
                    break
            if not found:
                color[v] = 2
                stack.pop()
    return True


@dataclass(frozen=True)
class Rome:
    """Node set meeting every cycle: removing it leaves the digraph acyclic."""

    labels: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.labels)


def is_rome(dg: CoverDigraph, rome: Rome) -> bool:
    idx = frozenset(dg.index(lab) for lab in rome.labels)
    return _acyclic_without(dg, idx)


def find_rome(dg: CoverDigraph) -> Rome:
    """Minimum-cardinality rome, brute force over cycle nodes by size.

    The candidate pool is restricted to nodes lying on cycles, which keeps
    the search tiny for the graphs arising here.
    """
    candidates = sorted(v for comp in _cyclic_components(dg.succ) for v in comp)
    if not candidates:
        return Rome(())
    for size in range(1, len(candidates) + 1):
        for combo in itertools.combinations(candidates, size):
            if _acyclic_without(dg, frozenset(combo)):
                return Rome(tuple(dg.labels[i] for i in combo))
    raise AssertionError("unreachable: full candidate set is always a rome")


# ---------------------------------------------------------------------------
# Characteristic polynomials
# ---------------------------------------------------------------------------


def _simple_path_lengths(dg: CoverDigraph, rome_idx: frozenset[int], start: int) -> dict[int, dict[int, int]]:
    """For each rome node t: {path length: count} over simple paths start->t.

    Paths leave `start`, keep their interior disjoint from the rome, and stop
    on first return to a rome node.  Interior nodes are acyclic outside the
    rome, so a depth-first count over (node, length) terminates.
    """
    out: dict[int, dict[int, int]] = {t: {} for t in rome_idx}
    stack = [(start, 0)]
    while stack:
        v, length = stack.pop()
        for w in dg.succ[v]:
            if w in rome_idx:
                d = out[w]
                d[length + 1] = d.get(length + 1, 0) + 1
            else:
                stack.append((w, length + 1))
    return out


def rome_char_poly_full(dg: CoverDigraph, rome: Rome) -> IntPoly:
    """Exact characteristic polynomial of the adjacency matrix via the rome.

    Equals (+/-) lambda^n det(A_R(lambda) - E) where A_R collects
    sum lambda^(-length) over simple paths between rome nodes; normalized to
    a positive leading coefficient so it matches det(lambda*I - M).
    """
    if not is_rome(dg, rome):
        raise ValueError("given node set is not a rome")
    rome_idx = frozenset(dg.index(lab) for lab in rome.labels)
    order = sorted(rome_idx)
    k = len(order)
    if k == 0:
        return IntPoly.monomial(1, dg.n)  # acyclic: char poly is lambda^n
    matrix = []
    for i in order:
        paths = _simple_path_lengths(dg, rome_idx, i)
        row = []
        for j in order:
            entry = LaurentPoly({-length: count for length, count in paths[j].items()})
            if i == j:
                entry = entry - LaurentPoly.constant(1)
            row.append(entry)
        matrix.append(row)
    det = laurent_poly_det(matrix)
    char = det.shifted(dg.n)
    if char.min_exponent() < 0:
        raise ValueError("negative powers survived clearing; input was not a rome")
    return char.to_int_poly().normalized_sign()


def rome_char_poly(dg: CoverDigraph, rome: Rome) -> IntPoly:
    """Relevant factor of the characteristic polynomial: lambda^k stripped.

    The stripped power factor only records transient nodes; the remaining
    factor carries the spectral radius.
    """
    core, _ = rome_char_poly_full(dg, rome).strip_power_factor()
    return core.normalized_sign()


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


def _sub_digraph(dg: CoverDigraph, nodes: list[int]) -> CoverDigraph:
    """Induced subdigraph on the sorted node list `nodes`, renumbered 0..k-1."""
    pos = {v: k for k, v in enumerate(nodes)}
    succ = tuple(tuple(pos[w] for w in dg.succ[v] if w in pos) for v in nodes)
    return CoverDigraph(tuple(dg.labels[v] for v in nodes), succ)


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

    Per strongly connected component the rome characteristic polynomial is
    isolated exactly; the global radius is the componentwise maximum.  With
    `check` the enclosure is proven again from the adjacency matrix alone by
    exact resolvent solves (`_encloses_radius`); a failed proof means a bug
    and raises.
    """
    comps = _cyclic_components(dg.succ)
    if not comps:
        return RootInterval(Fraction(0), Fraction(0), IntPoly([0, 1]))
    enclosures = []
    for comp in comps:
        sub = _sub_digraph(dg, sorted(comp))
        poly = rome_char_poly(sub, find_rome(sub))
        root = largest_positive_root(poly, digits)
        if root is None:
            raise AssertionError("cyclic component without positive root")
        enclosures.append(root)
    result = enclosures[0]
    for cand in enclosures[1:]:
        result = _max_enclosure(result, cand, digits)
    if check and not _encloses_radius(dg.succ, result.lo, result.hi):
        raise AssertionError(
            f"exact radius check failed for [{result.lo}, {result.hi}] ({result.poly})"
        )
    return result


def _max_enclosure(a: RootInterval, b: RootInterval, digits: int) -> RootInterval:
    """Enclosure of max(root(a), root(b)), refining until one side dominates.

    Equal roots are decided exactly first, so the refinement below only runs
    on distinct roots and always ends.
    """
    if a.hi > b.lo and b.hi > a.lo and _same_root(a, b):
        return a
    while True:
        if a.hi <= b.lo:
            return b
        if b.hi <= a.lo:
            return a
        digits += 10
        a, b = a.refined(digits), b.refined(digits)


def _same_root(a: RootInterval, b: RootInterval) -> bool:
    """Whether two enclosures hold the same root.

    An exact enclosure holds lo; any other holds the one root of its
    polynomial in (lo, hi].  The roots agree iff gcd(a.poly, b.poly) has a
    root where those two root sets meet.
    """
    lo, hi = max(a.lo, b.lo), min(a.hi, b.hi)
    if lo > hi:
        return False
    g = poly_gcd(a.poly, b.poly)
    if g.degree <= 0:
        return False
    if lo == hi:
        return g(lo) == 0 and all(r.is_exact or r.lo < lo for r in (a, b))
    return count_roots_in(g, lo, hi) > 0


# ---------------------------------------------------------------------------
# Exact radius proof
# ---------------------------------------------------------------------------
#
# For a nonnegative matrix A and a rational lam > 0, (lam*I - A) v = 1 has a
# solution v > 0 exactly when lam > rho(A).  If rho < lam, v = sum_k A^k 1 /
# lam^(k+1) > 0.  If a positive v exists, A v = lam*v - 1 < lam*v, and the
# Collatz-Wielandt bound rho <= max_i (A v)_i / v_i gives rho < lam.  A
# positive v with A v = lam*v gives rho = lam by the same bound; an
# irreducible A has one when rho = lam (Perron-Frobenius).  The radius of A
# is the largest radius of its cyclic strongly connected components, so
# each fact is tested per component.  Scaling the system by q > 0, for
# lam = p/q, changes neither solution, so the elimination runs on integers
# in the manner of Bareiss: rows are cross-multiplied, never divided by a
# pivot, and each is kept primitive by dividing out its content.  Every
# integer row is a nonzero multiple of the rational row it stands for, so
# each sign is read as a product with the row's pivot entry.

_RHS = -1  # key of the right-hand side in a sparse row


def _reduce(succ: Sequence[Sequence[int]], comp: Sequence[int], lam: Fraction):
    """Fraction-free sparse Gauss-Jordan reduction of [lam*I - A_C | 1].

    With lam = p/q the rows are those of [p*I - q*A_C | q], dicts column ->
    nonzero integer (right-hand side under `_RHS`).  Eliminating column k
    from a row by the pivot row P cross-multiplies, row := P[k]*row -
    row[k]*P, and divides the row by its content, so every row stays an
    integer multiple of the matching row of the rational reduction.
    Returns (pivots, free): pivots maps each pivot column k to its reduced
    row, whose entries over its pivot entry row[k] are those of the reduced
    rational row; free lists the columns without a pivot.  The pivot row
    is the shortest pending row holding k, found through a column index of
    the rows.  The digraphs here have about 1.5 edges per node, so rows
    stay short.
    """
    p, q = lam.numerator, lam.denominator
    pos = {v: k for k, v in enumerate(comp)}
    rows = []
    for v in comp:
        row = {pos[w]: -q for w in succ[v] if w in pos}
        diag = row.get(pos[v], 0) + p
        if diag:
            row[pos[v]] = diag
        else:
            del row[pos[v]]
        row[_RHS] = q
        rows.append(row)
    holding: list[set[int]] = [set() for _ in comp]  # column -> rows with an entry there
    for i, row in enumerate(rows):
        for c in row:
            if c != _RHS:
                holding[c].add(i)
    pending = set(range(len(rows)))
    pivots: dict[int, int] = {}  # pivot column -> row index
    free = []
    for k in range(len(comp)):
        cands = holding[k] & pending
        if not cands:
            free.append(k)
            continue
        r = min(cands, key=lambda i: (len(rows[i]), i))
        pending.discard(r)
        prow = rows[r]
        a = prow[k]
        for i in holding[k] - {r}:
            row = rows[i]
            f = row.pop(k)
            new = {c: a * x for c, x in row.items()}
            for c, x in prow.items():
                if c == k:
                    continue
                y = new.get(c, 0) - f * x
                if y:
                    if c not in new and c != _RHS:
                        holding[c].add(i)
                    new[c] = y
                elif c in new:
                    del new[c]
                    if c != _RHS:
                        holding[c].discard(i)
            g = gcd(*new.values())
            if g > 1:
                new = {c: x // g for c, x in new.items()}
            rows[i] = new
        holding[k] = {r}
        pivots[k] = r
    return {k: rows[r] for k, r in pivots.items()}, free


def _compare_radius(succ: Sequence[Sequence[int]], comp: Sequence[int], lam: Fraction) -> int:
    """-1, 0 or 1 as rho(A_C) <, = or > lam, for a strongly connected comp C.

    -1 needs a positive solution of (lam*I - A_C) v = 1; 0 needs the kernel
    of lam*I - A_C to be one-dimensional and spanned by a positive vector.
    Perron-Frobenius gives A_C exactly that kernel when rho(A_C) == lam, so
    neither means rho(A_C) > lam (a singular matrix counts as having no
    solution).  A reduced row's sign is read as a product with its pivot
    entry.  Requires lam > 0.
    """
    pivots, free = _reduce(succ, comp, lam)
    if not free and all(row.get(_RHS, 0) * row[k] > 0 for k, row in pivots.items()):
        return -1
    if len(free) == 1 and all(row.get(free[0], 0) * row[k] < 0 for k, row in pivots.items()):
        return 0
    return 1


def compare_radius(succ: Sequence[Sequence[int]], lam) -> int:
    """-1, 0 or 1 as the spectral radius of the digraph `succ` is <, = or > lam > 0.

    The answer is the largest over the cyclic strongly connected components;
    a digraph without a cycle has radius 0 and gives -1.
    """
    lam = Fraction(lam)
    if lam.numerator <= 0:
        raise ValueError(f"lam must be > 0, got {lam}")
    return max((_compare_radius(succ, c, lam) for c in _cyclic_components(succ)), default=-1)


def _encloses_radius(succ: Sequence[Sequence[int]], lo: Fraction, hi: Fraction) -> bool:
    """Whether exact arithmetic proves lo <= rho <= hi for the digraph `succ`.

    lo < hi is proven by rho < hi and, for lo > 0, not rho < lo; lo == hi by
    rho == hi.  A radius of 0 holds only for a digraph without a cycle.
    """
    if hi <= 0:
        return lo <= hi == 0 and not _cyclic_components(succ)
    if lo < hi:
        return compare_radius(succ, hi) < 0 and (lo <= 0 or compare_radius(succ, lo) >= 0)
    return lo == hi and compare_radius(succ, hi) == 0


# ---------------------------------------------------------------------------
# Covering digraph of a partition under F
# ---------------------------------------------------------------------------


def build_cover_digraph_pair(
    graph,
    partition: Sequence[tuple[str, Segment]],
    params: Params,
) -> tuple[CoverDigraph, CoverDigraph]:
    """(lower, upper) 0/1 covering digraphs of the named partition intervals under F.

    lower:  edge i -> j iff interval j is contained in F(interval i);
    upper:  edge iff the images overlap interval j with positive length
            (the "dashed" super-covering used for upper entropy bounds).

    Both come from one set of checks and one pass over the partition's
    images.  All containment tests are exact interval comparisons on the
    carrying lines.  `graph` supplies context only: when given, partition
    intervals must lie on it.  The partition is Markov where the two agree.
    """
    labels = [lab for lab, _ in partition]
    if len(set(labels)) != len(labels):
        raise ValueError("duplicate partition labels")
    _check_disjoint(partition)
    if graph is not None:
        for lab, seg in partition:
            if not (graph.contains_point(seg.p) and graph.contains_point(seg.q)):
                raise ValueError(f"partition interval {lab} is not on the graph")
    lower, upper = image_cover_relations(params, [seg for _, seg in partition])
    names = tuple(labels)
    return tuple(CoverDigraph(names, tuple(tuple(sorted(row)) for row in rows)) for rows in (lower, upper))


def _check_disjoint(partition: Sequence[tuple[str, Segment]]):
    cover = LineCover()
    for k, (lab, seg) in enumerate(partition):
        if cover.add(seg):
            other = next(o for o, oseg in partition[:k] if LineCover([oseg]).overlaps(seg))
            raise ValueError(f"partition intervals {other} and {lab} overlap")
