"""Span recorder for the traced benchmark run.

The recorder wraps pwldyn's public functions from the outside: the package
itself is not edited.  Each wrapped call appends one span (name, start, end,
parent) to an in-memory list; the spans are written out after the run.  A
name is patched in its defining module and in every pwldyn module that
imported it by name (``from pwldyn.polys import isolate_unique_positive_root``
binds a second reference that patching ``polys`` alone would miss).

Self time of a span is its duration minus the durations of its direct child
spans; calls are single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from contextlib import contextmanager

# The computational layers, in dependency order.  The CLI layer is measured
# by its import time in a fresh interpreter (run.py), not by spans.
LAYERS = ("rationals", "polys", "planemap", "graphs", "markov", "piecewise", "certify", "band48", "measure")

# Private functions and methods traced in addition to every public function.
EXTRA_FUNCTIONS = {"markov": ("_power_iteration_radius",)}
METHODS = {
    "polys": (("RootInterval", "refined"),),
    "certify": (("CertifiedInterval", "to_json_str"),),
    "band48": (("EntropyResult", "decimal"),),
}

# Reported function groups: metric prefix -> span names summed into it.
GROUPS = {
    "rationals.ln_enclosure": ("rationals.ln_enclosure", "rationals.ln_bounds"),
    "polys.isolate": (
        "polys.isolate_unique_positive_root",
        "polys.largest_positive_root",
        "polys.RootInterval.refined",
    ),
    "polys.count_roots_in": ("polys.count_roots_in",),
    "markov.spectral_radius": ("markov.spectral_radius",),
    "markov.power_iteration": ("markov._power_iteration_radius",),
    "markov.rome_char_poly": ("markov.rome_char_poly", "markov.rome_char_poly_full"),
    "markov.build_cover_digraph": ("markov.build_cover_digraph",),
    "piecewise.markov_radius_from_orbit": ("piecewise.markov_radius_from_orbit",),
    "piecewise.uncaptured_intervals": ("piecewise.uncaptured_intervals",),
    "certify.certify": ("certify.certify",),
    "certify.verify_certificate": ("certify.verify_certificate",),
    "band48.cross_check_entropy": ("band48.cross_check_entropy",),
    "band48.entropy_or_bounds": ("band48.entropy_or_bounds",),
    "graphs.build_gamma": ("graphs.build_gamma",),
    "graphs.verify_invariance": ("graphs.verify_invariance",),
    "graphs.orbit_marks": ("graphs.orbit_marks",),
    "planemap.iterate_segment_pieces": ("planemap.iterate_segment_pieces",),
    "planemap.restrict_iterate_to_segment": ("planemap.restrict_iterate_to_segment",),
    "measure.edge_capture_profile": ("measure.edge_capture_profile",),
}


def _den_bits(bracket) -> int:
    return max(q.denominator.bit_length() for q in bracket)


def _degree(root) -> int:
    return root.poly.degree if root is not None else 0


def _edge_count(dg) -> int:
    return sum(map(sum, dg.adjacency))


# Size counts taken from return values: metric -> (span names, reduce, size of one result).
SIZES = {
    "rationals.ln_enclosure.den_bits_max": (("rationals.ln_enclosure",), max, _den_bits),
    "polys.degree_max": (GROUPS["polys.isolate"], max, _degree),
    "planemap.iterate_segment_pieces.pieces": (("planemap.iterate_segment_pieces",), sum, len),
    "markov.build_cover_digraph.nodes": (("markov.build_cover_digraph",), sum, lambda dg: dg.n),
    "markov.build_cover_digraph.edges": (("markov.build_cover_digraph",), sum, _edge_count),
    "piecewise.uncaptured_intervals.intervals_max": (("piecewise.uncaptured_intervals",), max, len),
}
_SIZERS: dict[str, dict] = {}  # span name -> {size metric: size of one result}
for _metric, (_names, _, _size) in SIZES.items():
    for _name in _names:
        _SIZERS.setdefault(_name, {})[_metric] = _size


class Recorder:
    """In-memory spans: [name, start, end, parent index, {size metric: value} or None]."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []  # indices of the open spans, innermost last

    def span(self, name: str, fn, sizers=None):
        """Return `fn` wrapped so that each call records one span named `name`."""
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            spans.append(record)
            stack.append(idx)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if sizers:
                record[4] = {metric: size(result) for metric, size in sizers.items()}
            return result

        return traced

    @contextmanager
    def installed(self):
        """Patch every traced pwldyn name for the duration of the block."""
        wrappers = {}
        undo = []
        try:
            for owner, attr, original, name in _patch_targets():
                wrapper = wrappers.get(id(original))
                if wrapper is None:
                    wrapper = self.span(name, original, _SIZERS.get(name))
                    wrappers[id(original)] = wrapper
                setattr(owner, attr, wrapper)
                undo.append((owner, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    def self_times(self) -> list[float]:
        out = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                out[parent] -= end - start
        return out

    def roots(self) -> list[int]:
        """Index of the outermost span above each span (spans start in order)."""
        out = []
        for i, (_, _, _, parent, _) in enumerate(self.spans):
            out.append(i if parent < 0 else out[parent])
        return out

    def write(self, path):
        with open(path, "w") as fh:
            for i, (name, start, end, parent, size) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "size": size}) + "\n")


def _patch_targets():
    """(owner, attribute, original, span name) for every traced reference."""
    modules = {name: sys.modules[f"pwldyn.{name}"] for name in LAYERS}
    originals = {}  # id(function) -> (function, span name)
    for layer, mod in modules.items():
        for attr, obj in vars(mod).items():
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and (
                not attr.startswith("_") or attr in EXTRA_FUNCTIONS.get(layer, ())
            ):
                originals[id(obj)] = (obj, f"{layer}.{attr}")
    targets = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "pwldyn" or mod_name.startswith("pwldyn.")):
            continue
        for attr, obj in list(vars(mod).items()):
            hit = originals.get(id(obj))
            if hit is not None and hit[0] is obj:
                targets.append((mod, attr, obj, hit[1]))
    for layer, methods in METHODS.items():
        for cls_name, meth in methods:
            cls = getattr(modules[layer], cls_name)
            targets.append((cls, meth, vars(cls)[meth], f"{layer}.{cls_name}.{meth}"))
    return targets


def layer_metrics(rec: Recorder) -> dict[str, float | int]:
    """Self time and calls per layer and per group, and size counts (op root spans excluded)."""
    self_s = rec.self_times()
    by_name: dict[str, list[float]] = {}
    sizes: dict[str, list] = {}
    for (name, _, _, _, size), st in zip(rec.spans, self_s):
        by_name.setdefault(name, []).append(st)
        for metric, value in (size or {}).items():
            sizes.setdefault(metric, []).append(value)
    out: dict[str, float | int] = {}
    for layer in LAYERS:
        names = [n for n in by_name if n.startswith(layer + ".")]
        out[f"{layer}.self_s"] = sum(sum(by_name[n]) for n in names)
        out[f"{layer}.calls"] = sum(len(by_name[n]) for n in names)
    for group, names in GROUPS.items():
        members = [by_name.get(n, []) for n in names]
        out[f"{group}.self_s"] = sum(sum(m) for m in members)
        out[f"{group}.calls"] = sum(len(m) for m in members)
    for metric, (_, reduce, _) in SIZES.items():
        values = sizes.get(metric, [])
        out[metric] = reduce(values) if values else 0
    return out


def attribution(rec: Recorder, top: int = 3) -> dict[str, list[tuple[str, float]]]:
    """Per op kind: the `top` span names by self time, with their share of the ops' time."""
    self_s = rec.self_times()
    roots = rec.roots()
    totals: dict[str, float] = {}
    parts: dict[str, dict[str, float]] = {}
    for i, (name, start, end, parent, _) in enumerate(rec.spans):
        kind = rec.spans[roots[i]][0]
        if parent < 0:
            totals[kind] = totals.get(kind, 0.0) + (end - start)
        else:
            bucket = parts.setdefault(kind, {})
            bucket[name] = bucket.get(name, 0.0) + self_s[i]
    out = {}
    for kind, total in sorted(totals.items()):
        ranked = sorted(parts.get(kind, {}).items(), key=lambda kv: -kv[1])[:top]
        out[kind] = [(name, secs / total if total else 0.0) for name, secs in ranked]
    return out
