"""Checks on the benchmark itself.

    python3 perfbench/selftest.py

- the same seed gives a byte-identical op list, and entropy triples are distinct;
- every count reported by the traced run repeats exactly across two traced
  runs of the same seed, and both runs pass their output checks;
- each workload leaves the layers it is not meant to reach untouched.

The traced runs use short op lists, so the whole file runs in a few minutes.
"""

from __future__ import annotations

import json
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

COUNT_SUFFIXES = (".calls", ".pieces", ".nodes", ".edges", ".degree_max", ".den_bits_max",
                  ".intervals_max", ".refusals")
SHORT_SECONDS = {"entropy": 4, "certify": 4, "dynamics": 3}
BENCH_SECONDS = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]


def traced_metrics(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(SHORT_SECONDS[workload]), "--trace", "1"],
        capture_output=True, text=True, timeout=600, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, proc.stdout
    return {name: m["value"] for name, m in result["metrics"].items()}


class OpLists(unittest.TestCase):
    def test_same_seed_same_bytes(self):
        for w in workloads.WORKLOADS:
            a = workloads.make_ops(w, 5, BENCH_SECONDS)
            self.assertEqual(workloads.digest(a), workloads.digest(workloads.make_ops(w, 5, BENCH_SECONDS)))
            self.assertNotEqual(workloads.digest(a), workloads.digest(workloads.make_ops(w, 6, BENCH_SECONDS)))

    def test_entropy_triples_distinct(self):
        for seed in range(5):
            ops = workloads.make_ops("entropy", seed, BENCH_SECONDS)
            triples = [(level, letter, digits) for _, _, level, letter, digits, _ in ops]
            self.assertEqual(len(triples), len(set(triples)))
            warm = {(op[2], op[3], op[4]) for op in workloads.warmup_ops("entropy")}
            self.assertFalse(warm & set(triples))

    def test_percentile_samples(self):
        for w in ("entropy", "dynamics"):
            self.assertGreaterEqual(len(workloads.make_ops(w, 1, BENCH_SECONDS)), 100)


class TracedRuns(unittest.TestCase):
    runs: dict[str, tuple[dict, dict]] = {}

    @classmethod
    def setUpClass(cls):
        for w in workloads.WORKLOADS:
            cls.runs[w] = (traced_metrics(w, 3), traced_metrics(w, 3))

    def test_counts_repeat_exactly(self):
        for w, (first, second) in self.runs.items():
            counts = [k for k in first if k.endswith(COUNT_SUFFIXES)]
            self.assertTrue(counts)
            for k in counts:
                self.assertEqual(first[k], second[k], f"{w} {k}")

    def test_untouched_layers(self):
        dyn, _ = self.runs["dynamics"]
        self.assertEqual(dyn["polys.calls"], 0)
        self.assertEqual(dyn["rationals.ln_enclosure.calls"], 0)
        self.assertEqual(dyn["markov.spectral_radius.calls"], 0)
        ent, _ = self.runs["entropy"]
        for layer in ("planemap", "graphs", "markov", "piecewise"):
            self.assertEqual(ent[f"{layer}.calls"], 0, layer)


if __name__ == "__main__":
    unittest.main()
