"""Seeded op lists, op execution and output checks for the three workloads.

An op is a tuple of strings and ints, so an op list serializes byte for byte
and its digest identifies the inputs.  Rationals travel as str(Fraction).

The checks use references that do not call the code under test: class
intervals and class polynomials are recomputed here from their closed forms,
and entropies come from an mpmath root at twice the requested digits.
"""

from __future__ import annotations

import functools
import hashlib
import json
import random
from fractions import Fraction as F
from pathlib import Path

import mpmath

from pwldyn import band48, certify, graphs, measure
from pwldyn.planemap import Params

WORKLOADS = ("entropy", "certify", "dynamics")

# Ops per measured second, calibrated so that an op list takes about the
# requested seconds at the commit that introduced the benchmark (2-core
# x86_64 container, Python 3.11).  A faster program finishes the same list
# sooner; wall_s shows by how much.
OPS_PER_SECOND = {"entropy": 5.34, "certify": 0.8, "dynamics": 9.34}

# Per-op deadline in seconds: an op that runs longer is stopped and counted
# as failed, so a blow-up cannot stall the run.
DEADLINE_S = {"entropy": 20.0, "certify": 40.0, "dynamics": 10.0}

CERT_DEPTHS = ((3, 4), (6, 8), (12, 16), (24, 32))
# Rationals pinned by acceptance criteria 3-5: (tag, upper, lower) -> (lo, hi).
PINNED_CERTS = {
    ("alpha", 3, 4): (F(-7112, 8705), F(-888, 1087)),
    ("alpha", 6, 8): (F(-116508784, 142605321), F(-910224, 1114103)),
    ("alpha", 24, 32): (
        F(-140850476140085945702816746162288, 172399253286857828660669132569609),
        F(-1049417824596806956103568, 1284474531463219438945271),
    ),
    ("beta", 24, 32): (
        F(798396920638883099973166531706985228123, 1157210312199077596904301690272087447914),
        F(945506314303393205598153, 1370433212950874384162254),
    ),
}

# Capture profiles whose CSV digest was recorded when the benchmark was added.
PINNED_CAPTURES = (("negb", "-3", 64), ("alpha", "-163/200", 16), ("beta", "34497/50000", 16))


@functools.cache
def pinned_csv_sha256() -> dict[str, str]:
    return json.loads(Path(__file__).with_name("pinned.json").read_text())["capture_csv_sha256"]


# Tested parameter windows of the two transitions (open intervals).
ALPHA_WINDOW = (F(-112, 137), F(-13, 16))
BETA_WINDOW = (F(603, 874), F(563, 816))
GRAPH_SPANS = {  # regime -> (lo, hi) of the open interval b is drawn from
    "negb": (F(-11), F(-2)),
    "alpha": (F(-1), F(-3, 4)),
    "beta": (F(2, 3), F(5, 7)),
    "band48": (F(4), F(8)),
}
_GRID = 1_000_003  # prime: a drawn b never lands on a class boundary or midpoint


def _at(span: tuple[F, F], u: float) -> F:
    """The grid point at share u in [0, 1) of the open interval `span`."""
    lo, hi = span
    return lo + (hi - lo) * F(1 + int(u * (_GRID - 1)), _GRID)


def _strata(rng: random.Random, n: int, jitter: float = 1.0) -> list[float]:
    """n draws from [0, 1), one per stratum of width 1/n, in random order.

    Each draw falls in the central `jitter` share of its stratum.
    """
    out = [(i + (1 - jitter) / 2 + jitter * rng.random()) / n for i in range(n)]
    rng.shuffle(out)
    return out


# ---------------------------------------------------------------------------
# Independent closed forms for band48 classes (reference side of the checks)
# ---------------------------------------------------------------------------


def _breaks(n: int) -> tuple[F, F, F, F]:
    pw = 4 ** (n + 1)
    return (F(4 * (4 * pw - 1), 2 * pw + 1), F(8 * pw + 1, pw + 2),
            F(16 * pw - 1, 2 * pw + 4), F(2 * (16 * pw - 1), 4 * pw + 11))


def class_interval(n: int, letter: str) -> tuple[F, F]:
    p, qq, r, s = _breaks(n)
    prev = F(4) if n == 0 else _breaks(n - 1)[0]
    return {"S": (prev, s), "T": (s, r), "U": (r, qq), "V": (qq, p)}[letter]


def class_of(b: F) -> tuple[int, str]:
    n = 0
    while b > _breaks(n)[0]:
        n += 1
    p, qq, r, s = _breaks(n)
    return n, "S" if b < s else "T" if b <= r else "U" if b < qq else "V"


def class_polys(n: int, letter: str) -> list[dict[int, int]]:
    """Class polynomials as {power: coeff}: [exact] for T, V; [lower, upper] for S, U."""
    k = 3 * n
    lower = {7 + k: 1, 4 + k: -1, 0: -1}
    return {
        "S": [lower, {7 + k: 1, 4 + k: -1, 3: -1, 0: -2}],
        "T": [{7 + k: 1, 4 + k: -1, 0: -2}],
        "U": [lower, {10 + k: 1, 7 + k: -1, 3: -2, 0: -1}],
        "V": [{10 + k: 1, 7 + k: -1, 3: -1, 0: -1}],
    }[letter]


def oracle_ln_root(terms: dict[int, int], digits: int) -> mpmath.mpf:
    """ln of the unique root in (1, 2), to about 2*digits + 10 digits."""
    with mpmath.workdps(2 * digits + 20):
        f = lambda x: sum(c * x**e for e, c in terms.items())
        df = lambda x: sum(c * e * x ** (e - 1) for e, c in terms.items() if e)
        lo, hi = mpmath.mpf(1), mpmath.mpf(2)
        with mpmath.workdps(40):
            for _ in range(70):
                mid = (lo + hi) / 2
                lo, hi = (mid, hi) if f(mid) < 0 else (lo, mid)
        x = (lo + hi) / 2
        tol = mpmath.mpf(10) ** (-(2 * digits + 12))
        for _ in range(100):
            step = f(x) / df(x)
            x -= step
            if abs(step) < tol:
                break
        return mpmath.log(x)


def oracle_round(value: mpmath.mpf, places: int) -> str:
    """Round half away from zero (positive value), as the CLI prints."""
    with mpmath.workdps(2 * places + 20):
        n = int(mpmath.floor(value * mpmath.mpf(10) ** places + mpmath.mpf(1) / 2))
    whole, frac = divmod(n, 10**places)
    return f"{whole}.{str(frac).zfill(places)}"


def _contains(bracket: tuple[F, F], value: mpmath.mpf, digits: int) -> bool:
    with mpmath.workdps(2 * digits + 20):
        lo = mpmath.mpf(bracket[0].numerator) / bracket[0].denominator
        hi = mpmath.mpf(bracket[1].numerator) / bracket[1].denominator
        return lo <= value <= hi


# ---------------------------------------------------------------------------
# Op lists
# ---------------------------------------------------------------------------


def make_ops(workload: str, seed: int, seconds: int) -> list[tuple]:
    rng = random.Random(f"{workload}:{seed}")
    count = max(1, round(seconds * OPS_PER_SECOND[workload]))
    return {"entropy": _entropy_ops, "certify": _certify_ops, "dynamics": _dynamics_ops}[workload](rng, count)


def _entropy_ops(rng: random.Random, count: int) -> list[tuple]:
    """Distinct (level, class, digits): 4/5 at 5-30 digits, 1/5 at 100-150 digits.

    Entropy depends on b only through its class, so a repeated triple would
    time a memo that a one-shot CLI call never has.  Low-digit ops spread
    levels up to 2000 // digits (level 400 at 5 digits, polynomial degree
    about 1200), where root isolation takes most of the time.  High-digit ops
    stay at levels 0-4 (degree 7-22), where the ln bracket does.
    """
    n_high = count // 5
    plans = [("low", count - n_high, 5, 30), ("high", n_high, 100, 150)]
    seen: set[tuple[int, str, int]] = set()
    ops = []
    for band, n, dmin, dmax in plans:
        letters = ["S", "T", "U", "V"]
        rng.shuffle(letters)  # which classes get the n % 4 extra ops
        for c, letter in enumerate(letters):
            n_c = n // 4 + (c < n % 4)
            # Stratify digits and levels within each class and pair their
            # strata by a seed-independent permutation: every seed then draws
            # the same mix of costs, and the seed moves each op within its cell.
            pairing = list(range(n_c))
            random.Random(f"pairing:{band}:{n_c}").shuffle(pairing)
            u_ls = [(k + rng.random()) / n_c for k in pairing]
            u_ds = [(k + rng.random()) / n_c for k in range(n_c)]
            for u_d, u_l in zip(u_ds, u_ls):
                while True:
                    digits = dmin + int(u_d * (dmax - dmin + 1))
                    max_level = 2000 // digits if band == "low" else 4
                    level = int(u_l * (max_level + 1))
                    if (level, letter, digits) not in seen:
                        break
                    u_d, u_l = rng.random(), rng.random()
                seen.add((level, letter, digits))
                b = _at(class_interval(level, letter), rng.random())
                ops.append(("entropy", band, level, letter, digits, str(b)))
    rng.shuffle(ops)
    return ops


def _certify_ops(rng: random.Random, count: int) -> list[tuple]:
    """Seeded permutations of: both certificates at every doubling depth up to
    (24, 32), and the digraph cross-check at a seeded b in each level 0-3 class."""
    ops: list[tuple] = []
    while len(ops) < count:
        catalog = [("certify", tag, up, lo) for tag in ("alpha", "beta") for up, lo in CERT_DEPTHS]
        for n in range(4):
            for letter in "STUV":
                catalog.append(("cross", n, letter, str(_at(class_interval(n, letter), rng.random()))))
        rng.shuffle(catalog)
        ops.extend(catalog)
    return ops[:count]


def _dynamics_ops(rng: random.Random, count: int) -> list[tuple]:
    """4/5 graph ops over all four regimes, 1/5 capture profiles.

    Capture depth stays near 16 for alpha/beta: their capture cost grows
    about 8x per 4 depth levels (0.37 s at 16, 3 s at 20, 23 s at 24 for
    alpha at -163/200), a known limit of the measure path.
    """
    n_capture = max(len(PINNED_CAPTURES), count // 5)
    n_graph = count - n_capture
    ops: list[tuple] = []
    for i, (regime, span) in enumerate(GRAPH_SPANS.items()):
        for u in _strata(rng, n_graph // 4 + (i < n_graph % 4)):
            ops.append(("graph", regime, str(_at(span, u))))
    ops.extend(("capture",) + p for p in PINNED_CAPTURES)
    n_seeded = n_capture - len(PINNED_CAPTURES)
    n_alpha = n_beta = n_seeded // 4
    n_negb = n_seeded - n_alpha - n_beta
    for depth_u, b_u in zip(_strata(rng, n_negb), _strata(rng, n_negb)):
        ops.append(("capture", "negb", str(_at(GRAPH_SPANS["negb"], b_u)), 60 + int(depth_u * 21)))
    # Capture near the right end of either window needs about 8x the
    # intervals (and 4x the time) of the middle: draw b from the central half
    # of each of n equal cells, so that every seed has the same share of
    # such ops.
    for regime, window, n in (("alpha", ALPHA_WINDOW, n_alpha), ("beta", BETA_WINDOW, n_beta)):
        for u in _strata(rng, n, jitter=0.5):
            ops.append(("capture", regime, str(_at(window, u)), 16))
    rng.shuffle(ops)
    return ops


def warmup_ops(workload: str) -> list[tuple]:
    """Inputs outside every measured op list, run before timing starts."""
    return {
        "entropy": [("entropy", "low", 0, "T", 4, "5"), ("entropy", "high", 0, "V", 99, "6")],
        "certify": [("cross", 0, "T", "5")],
        "dynamics": [("graph", "band48", "5"), ("capture", "negb", "-3", 40), ("capture", "alpha", "-163/200", 12)],
    }[workload]


def digest(items) -> str:
    h = hashlib.sha256()
    for item in items:
        h.update(json.dumps(item, separators=(",", ":")).encode())
        h.update(b"\n")
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Execution (timed) and checks (untimed)
# ---------------------------------------------------------------------------


def run_op(op: tuple):
    """The timed part of an op: public pwldyn calls only."""
    kind = op[0]
    if kind == "entropy":
        _, _, _, _, digits, b = op
        res = band48.entropy_or_bounds(F(b), digits)
        try:
            return res, res.decimal(digits), 0
        except ValueError:
            # The bracket straddles a rounding boundary and decimal() refuses
            # (`pwldyn entropy` exits with a traceback here).  Refine like a
            # library client would; the refusal is counted, not hidden.
            res = band48.entropy_or_bounds(F(b), digits + 3)
            return res, res.decimal(digits), 1
    if kind == "certify":
        _, tag, up, lo = op
        ci = certify.certify(tag, up, lo)
        return ci, certify.verify_certificate(ci), ci.to_json_str()
    if kind == "cross":
        return band48.cross_check_entropy(F(op[3]))
    if kind == "graph":
        _, regime, b = op
        b = F(b)
        g = graphs.build_gamma(regime, b)
        rep = graphs.verify_invariance(g, Params.standard(b))
        marks = graphs.orbit_marks(regime, b)
        digraphs = band48.cover_digraphs(b) if regime == "band48" else None
        return rep, marks, digraphs
    if kind == "capture":
        _, regime, b, depth = op
        return measure.full_measure_report(regime, F(b), depth)
    raise ValueError(f"unknown op kind {kind!r}")


def check_op(op: tuple, out) -> tuple[list[str], str, int]:
    """(problems, output fingerprint, refusals) for one op's result."""
    kind = op[0]
    problems: list[str] = []
    if kind == "entropy":
        _, _, level, letter, digits, _ = op
        res, text, refusals = out
        if (res.level.n, res.level.letter) != (level, letter):
            problems.append(f"class {res.level} != {letter}{level}")
        brackets = [res.ln_lo] if letter in "TV" else [res.ln_lo, res.ln_hi]
        if res.kind != ("exact" if letter in "TV" else "bounds"):
            problems.append(f"kind {res.kind}")
        expected = []
        for bracket, terms in zip(brackets, class_polys(level, letter)):
            value = oracle_ln_root(terms, digits)
            if not _contains(bracket, value, digits):
                problems.append("ln bracket misses the reference root")
            expected.append(oracle_round(value, digits))
        want = expected[0] if len(expected) == 1 else f"[{expected[0]}, {expected[1]}]"
        if text != want:
            problems.append(f"decimal {text} != reference {want}")
        return problems, text, refusals
    if kind == "certify":
        _, tag, up, lo = op
        ci, verified, text = out
        if not verified:
            problems.append("verify_certificate failed")
        pinned = PINNED_CERTS.get((tag, up, lo))
        if pinned is not None and (ci.lo, ci.hi) != pinned:
            problems.append("bracket differs from the pinned rationals")
        doc = json.loads(text)
        if (doc["tag"], doc["lo"], doc["hi"]) != (tag, str(ci.lo), str(ci.hi)):
            problems.append("certificate JSON disagrees with the bracket")
        if not ci.lo < ci.hi:
            problems.append("empty bracket")
        return problems, text, 0
    if kind == "cross":
        if out is not True:
            problems.append("cross_check_entropy returned False")
        return problems, str(out), 0
    if kind == "graph":
        _, regime, b = op
        rep, marks, digraphs = out
        if not rep.ok:
            problems.append("graph is not invariant")
        if not marks:
            problems.append("no orbit relations")
        fingerprint = f"{rep.ok} {len(marks)}"
        if digraphs is not None:
            lower, upper, lc = digraphs
            n, letter = class_of(F(b))
            if (lc.n, lc.letter) != (n, letter):
                problems.append(f"class {lc} != {letter}{n}")
            nodes = 10 if n == 0 else 3 * n + 10
            if lower.n != nodes or upper.n != nodes:
                problems.append(f"digraph sizes {lower.n}, {upper.n} != {nodes}")
            fingerprint += f" {lower.adjacency} {upper.adjacency}"
        return problems, fingerprint, 0
    if kind == "capture":
        _, regime, b, depth = op
        rep = out
        for prof in rep.profiles:
            if len(prof.entries) != depth + 1:
                problems.append(f"{prof.edge}: {len(prof.entries)} rows")
            if any(c + u != prof.length for c, u in prof.entries):
                problems.append(f"{prof.edge}: captured + uncaptured != length")
            unc = [u for _, u in prof.entries]
            if any(b2 > a2 for a2, b2 in zip(unc, unc[1:])):
                problems.append(f"{prof.edge}: uncaptured increases")
        csv = rep.to_csv()
        sha = hashlib.sha256(csv.encode()).hexdigest()
        pinned = pinned_csv_sha256().get(f"{regime} {b} {depth}")
        if pinned is not None and sha != pinned:
            problems.append("capture CSV differs from the recorded digest")
        return problems, sha, 0
    raise ValueError(f"unknown op kind {kind!r}")
