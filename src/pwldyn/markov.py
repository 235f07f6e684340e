"""Covering digraphs, romes, characteristic polynomials, spectral radii.

A covering digraph records which partition intervals cover which under the
map.  Entropy comes from the spectral radius of its 0/1 adjacency matrix,
computed exactly: a rome (a node set meeting every cycle) turns the
characteristic polynomial into a small determinant over path-generating
Laurent polynomials, whose relevant factor is then run through certified
root isolation.  Each enclosure is then proven again from the adjacency
matrix alone, in exact rational arithmetic: a positive solution of the
resolvent system (lam*I - A) v = 1 shows rho < lam, its absence shows
rho >= lam, and a positive kernel vector of r*I - A shows rho = r.  The
float power iteration `_power_iteration_radius` is kept as a test oracle
and runs on no default path.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from pwldyn.planemap import Params, Segment, iterate_segment_pieces
from pwldyn.polys import (
    IntPoly,
    LaurentPoly,
    RootInterval,
    coefficient_bound,
    count_roots_in,
    descartes_positive_sign_changes,
    isolate_unique_positive_root,
    laurent_poly_det,
    largest_positive_root,
    poly_gcd,
)
from pwldyn.rationals import ln_enclosure


@dataclass(frozen=True)
class CoverDigraph:
    labels: tuple[str, ...]
    adjacency: tuple[tuple[int, ...], ...]
    mode: str = "abstract"
    node_segments: tuple[Segment, ...] | None = None

    @property
    def n(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        return self.labels.index(label)

    def successors(self, i: int) -> list[int]:
        return [j for j, v in enumerate(self.adjacency[i]) if v]

    def edges(self) -> list[tuple[str, str]]:
        return [
            (self.labels[i], self.labels[j])
            for i in range(self.n)
            for j in self.successors(i)
        ]

    def to_dot(self) -> str:
        lines = ["digraph cover {"]
        for lab in self.labels:
            lines.append(f'  "{lab}";')
        for a, b in self.edges():
            lines.append(f'  "{a}" -> "{b}";')
        lines.append("}")
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "mode": self.mode,
            "labels": list(self.labels),
            "adjacency": [list(row) for row in self.adjacency],
        }


def digraph_from_edges(labels: Sequence[str], edges: Iterable[tuple[str, str]], mode: str = "abstract") -> CoverDigraph:
    idx = {lab: i for i, lab in enumerate(labels)}
    adj = [[0] * len(labels) for _ in labels]
    for a, b in edges:
        adj[idx[a]][idx[b]] = 1
    return CoverDigraph(tuple(labels), tuple(tuple(r) for r in adj), mode)


# ---------------------------------------------------------------------------
# Cycle structure
# ---------------------------------------------------------------------------


def strongly_connected_components(adj: Sequence[Sequence[int]]) -> list[list[int]]:
    """Tarjan's algorithm, iterative."""
    n = len(adj)
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
            succ = [j for j, e in enumerate(adj[v]) if e]
            while pi < len(succ):
                w = succ[pi]
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


def _cycle_nodes(dg: CoverDigraph) -> list[int]:
    nodes = []
    for comp in strongly_connected_components(dg.adjacency):
        if len(comp) > 1:
            nodes.extend(comp)
        elif dg.adjacency[comp[0]][comp[0]]:
            nodes.append(comp[0])
    return sorted(nodes)


def _acyclic_without(dg: CoverDigraph, removed: frozenset[int]) -> bool:
    n = dg.n
    color = [0] * n  # 0 unvisited, 1 active, 2 done
    for start in range(n):
        if start in removed or color[start] != 0:
            continue
        stack = [(start, iter(dg.successors(start)))]
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
                    stack.append((w, iter(dg.successors(w))))
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
    candidates = _cycle_nodes(dg)
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
        for w in dg.successors(v):
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
    xs = list(range(n + 1))
    ys = []
    for x in xs:
        m = [[(x if i == j else 0) - dg.adjacency[i][j] for j in range(n)] for i in range(n)]
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
    labels = tuple(dg.labels[i] for i in nodes)
    adj = tuple(tuple(dg.adjacency[i][j] for j in nodes) for i in nodes)
    return CoverDigraph(labels, adj, dg.mode)


def _power_iteration_radius(adj: Sequence[Sequence[int]], steps: int = 10_000) -> float:
    """Float growth-rate estimate of the spectral radius (advisory only).

    Runs on A+I per strongly connected component, where the iteration is
    primitive and converges geometrically; the +1 shift is removed at the end.
    """
    best = 0.0
    for comp in strongly_connected_components(adj):
        if len(comp) == 1 and not adj[comp[0]][comp[0]]:
            continue
        sub = [[adj[i][j] for j in comp] for i in comp]
        n = len(sub)
        v = [1.0] * n
        growth = 1.0
        for _ in range(steps):
            w = [sum(sub[i][j] * v[j] for j in range(n)) + v[i] for i in range(n)]
            norm = sum(abs(c) for c in w)
            growth = norm / sum(abs(c) for c in v)
            v = [c / norm for c in w]
        best = max(best, growth - 1.0)
    return best


def spectral_radius(dg: CoverDigraph, digits: int = 12, check: bool = True) -> RootInterval:
    """Certified enclosure of the adjacency spectral radius.

    Per strongly connected component the rome characteristic polynomial is
    isolated exactly; the global radius is the componentwise maximum.  With
    `check` the enclosure is proven again from the adjacency matrix alone by
    exact resolvent solves (`_encloses_radius`); a failed proof means a bug
    and raises.
    """
    comps = _cyclic_components(dg.adjacency)
    if not comps:
        return RootInterval(Fraction(0), Fraction(0), IntPoly([0, 1]))
    enclosures = []
    for comp in comps:
        sub = _sub_digraph(dg, sorted(comp))
        poly = rome_char_poly(sub, find_rome(sub))
        enclosures.append(_largest_root_enclosure(poly, digits))
    result = enclosures[0]
    for cand in enclosures[1:]:
        result = _max_enclosure(result, cand, digits)
    if check and not _encloses_radius(dg.adjacency, result.lo, result.hi):
        raise AssertionError(
            f"exact radius check failed for [{result.lo}, {result.hi}] ({result.poly})"
        )
    return result


def _cyclic_components(adj: Sequence[Sequence[int]]) -> list[list[int]]:
    """Strongly connected components that carry a cycle."""
    return [
        comp
        for comp in strongly_connected_components(adj)
        if len(comp) > 1 or adj[comp[0]][comp[0]]
    ]


def _largest_root_enclosure(poly: IntPoly, digits: int) -> RootInterval:
    """Enclosure of the largest positive root of a cyclic component's factor."""
    # Radius exactly 1 is common (pure cycles); detect it exactly.
    if poly(Fraction(1)) == 0 and count_roots_in(poly, Fraction(1), Fraction(coefficient_bound(poly))) == 0:
        return RootInterval(Fraction(1), Fraction(1), poly)
    if descartes_positive_sign_changes(poly) == 1:
        return isolate_unique_positive_root(poly, digits)
    root = largest_positive_root(poly, digits)
    if root is None:
        raise AssertionError("cyclic component without positive root")
    return root


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
# positive v with A v = lam*v gives rho = lam by the same bound.  The radius
# of A is the largest radius of its cyclic strongly connected components, so
# each fact is tested per component.

_RHS = -1  # key of the right-hand side in a sparse row


def _reduce(adj: Sequence[Sequence[int]], comp: Sequence[int], lam: Fraction):
    """Sparse Gauss-Jordan reduction of [lam*I - A_C | 1] over the rationals.

    Rows are dicts column -> nonzero entry.  Returns (pivots, free): pivots
    maps each pivot column to its reduced row (pivot entry 1, right-hand
    side under `_RHS`); free lists the columns without a pivot.  The
    digraphs here have about 1.5 edges per node, so rows stay short.
    """
    pos = {v: k for k, v in enumerate(comp)}
    pending = []
    for v in comp:
        row = {pos[w]: Fraction(-1) for w in comp if adj[v][w]}
        diag = row.get(pos[v], 0) + lam
        if diag:
            row[pos[v]] = diag
        else:
            del row[pos[v]]
        row[_RHS] = Fraction(1)
        pending.append(row)
    pivots: dict[int, dict[int, Fraction]] = {}
    free = []
    for k in range(len(comp)):
        cands = [i for i, row in enumerate(pending) if k in row]
        if not cands:
            free.append(k)
            continue
        prow = pending.pop(min(cands, key=lambda i: len(pending[i])))
        inv = 1 / prow[k]
        prow = {c: x * inv for c, x in prow.items()}
        for row in itertools.chain(pending, pivots.values()):
            f = row.pop(k, 0)
            if not f:
                continue
            for c, x in prow.items():
                if c == k:
                    continue
                y = row.get(c, 0) - f * x
                if y:
                    row[c] = y
                else:
                    row.pop(c, None)
        pivots[k] = prow
    return pivots, free


def _compare_radius(adj: Sequence[Sequence[int]], comp: Sequence[int], lam: Fraction) -> int:
    """-1 if rho(A_C) < lam, 0 if rho(A_C) == lam, 1 if only rho(A_C) >= lam is proven.

    -1 needs a positive solution of (lam*I - A_C) v = 1; 0 needs the kernel
    of lam*I - A_C to be one-dimensional and spanned by a positive vector.
    Without a positive solution rho(A_C) >= lam holds (a singular matrix
    counts as having none).  Requires lam > 0.
    """
    pivots, free = _reduce(adj, comp, lam)
    if not free and all(row.get(_RHS, 0) > 0 for row in pivots.values()):
        return -1
    if len(free) == 1 and all(row.get(free[0], 0) < 0 for row in pivots.values()):
        return 0
    return 1


def _encloses_radius(adj: Sequence[Sequence[int]], lo: Fraction, hi: Fraction) -> bool:
    """Whether exact arithmetic proves lo <= rho(adj) <= hi.

    lo < hi is proven by a positive resolvent solution at hi in every cyclic
    component and none at lo in some component.  lo == hi == r is proven by
    each cyclic component sitting below r or having a positive Perron vector
    at r, with at least one of the latter.
    """
    comps = _cyclic_components(adj)
    if not comps:
        return lo <= 0 <= hi
    if hi <= 0:
        return False
    if lo < hi:
        return all(_compare_radius(adj, c, hi) < 0 for c in comps) and (
            lo <= 0 or any(_compare_radius(adj, c, lo) >= 0 for c in comps)
        )
    return max(_compare_radius(adj, c, hi) for c in comps) == 0


@dataclass(frozen=True)
class EntropyBounds:
    lower_radius: RootInterval
    upper_radius: RootInterval
    ln_lower: tuple[Fraction, Fraction]
    ln_upper: tuple[Fraction, Fraction]

    @property
    def exact(self) -> bool:
        return self.lower_radius.poly == self.upper_radius.poly


def entropy_bounds(dg_lower: CoverDigraph, dg_upper: CoverDigraph, digits: int = 7) -> EntropyBounds:
    """[ln r(lower), ln r(upper)] as certified rational brackets."""
    err = Fraction(1, 10 ** (digits + 2))
    r_lo = spectral_radius(dg_lower, digits + 2)
    r_hi = spectral_radius(dg_upper, digits + 2)
    return EntropyBounds(
        r_lo,
        r_hi,
        ln_enclosure(r_lo.lo, r_lo.hi, err),
        ln_enclosure(r_hi.lo, r_hi.hi, err),
    )


def simple_cycle_lengths(dg: CoverDigraph) -> list[int]:
    """Lengths of all simple cycles (each cycle counted once)."""
    lengths: list[int] = []
    n = dg.n

    def dfs(start: int, v: int, visited: set[int], depth: int):
        for w in dg.successors(v):
            if w == start:
                lengths.append(depth + 1)
            elif w > start and w not in visited:
                visited.add(w)
                dfs(start, w, visited, depth + 1)
                visited.remove(w)

    for s in range(n):
        dfs(s, s, {s}, 0)
    return sorted(lengths)


# ---------------------------------------------------------------------------
# Covering digraph of a partition under F
# ---------------------------------------------------------------------------


def build_cover_digraph(
    graph,
    partition: Sequence[tuple[str, Segment]],
    params: Params,
    mode: str,
) -> CoverDigraph:
    """0/1 covering digraph of the named partition intervals under F.

    lower:  edge i -> j iff interval j is contained in F(interval i);
    upper:  edge iff the images overlap interval j with positive length
            (the "dashed" super-covering used for upper entropy bounds);
    markov: both constructions must coincide, else this raises.

    All containment tests are exact interval comparisons on the carrying
    lines.  `graph` supplies context only: when given, partition intervals
    must lie on it.
    """
    if mode not in ("lower", "upper", "markov"):
        raise ValueError(f"unknown mode {mode!r}")
    labels = [lab for lab, _ in partition]
    if len(set(labels)) != len(labels):
        raise ValueError("duplicate partition labels")
    _check_disjoint(partition)
    if graph is not None:
        for lab, seg in partition:
            if not (graph.contains_point(seg.p) and graph.contains_point(seg.q)):
                raise ValueError(f"partition interval {lab} is not on the graph")
    node_keys = []
    for _, seg in partition:
        key = seg.line_key()
        lo = _line_value(key, seg.p)
        hi = _line_value(key, seg.q)
        node_keys.append((key, min(lo, hi), max(lo, hi)))

    def adjacency(require_containment: bool) -> list[list[int]]:
        adj = [[0] * len(partition) for _ in partition]
        for i, (_, seg) in enumerate(partition):
            images = []
            for piece in iterate_segment_pieces(params, seg, 1):
                if piece.is_collapsed:
                    continue
                a, b = piece.at(piece.t0), piece.at(piece.t1)
                img = Segment(a, b)
                key = img.line_key()
                lo = _line_value(key, a)
                hi = _line_value(key, b)
                images.append((key, min(lo, hi), max(lo, hi)))
            for j, (jkey, jlo, jhi) in enumerate(node_keys):
                spans = [(lo, hi) for key, lo, hi in images if key == jkey]
                if require_containment:
                    if not _subtract_cover(jlo, jhi, spans):
                        adj[i][j] = 1
                else:
                    if any(min(jhi, hi) > max(jlo, lo) for lo, hi in spans):
                        adj[i][j] = 1
        return adj

    if mode == "lower":
        adj = adjacency(True)
    elif mode == "upper":
        adj = adjacency(False)
    else:
        low = adjacency(True)
        up = adjacency(False)
        if low != up:
            raise ValueError("partition is not Markov: lower and upper digraphs differ")
        adj = low
    return CoverDigraph(
        tuple(labels),
        tuple(tuple(r) for r in adj),
        mode,
        tuple(seg for _, seg in partition),
    )


def _line_value(key, pt) -> Fraction:
    a, b, _ = key
    return pt.y if (a, b) == (1, 0) else pt.x


def _subtract_cover(lo: Fraction, hi: Fraction, cover: list[tuple[Fraction, Fraction]]):
    gaps = [(lo, hi)]
    for clo, chi in sorted(cover):
        nxt = []
        for glo, ghi in gaps:
            if chi <= glo or ghi <= clo:
                nxt.append((glo, ghi))
                continue
            if glo < clo:
                nxt.append((glo, clo))
            if chi < ghi:
                nxt.append((chi, ghi))
        gaps = nxt
    return [(a, b) for a, b in gaps if a < b]


def _check_disjoint(partition: Sequence[tuple[str, Segment]]):
    seen: list[tuple[str, tuple, Fraction, Fraction]] = []
    for lab, seg in partition:
        key = seg.line_key()
        lo = _line_value(key, seg.p)
        hi = _line_value(key, seg.q)
        lo, hi = min(lo, hi), max(lo, hi)
        for olab, okey, olo, ohi in seen:
            if okey == key and min(hi, ohi) > max(lo, olo):
                raise ValueError(f"partition intervals {olab} and {lab} overlap")
        seen.append((lab, key, lo, hi))
