"""pwldyn benchmark driver.

    python3 perfbench/run.py --workload entropy|certify|dynamics --seed N --seconds S --trace 0|1

Runs the workload's seeded op list in one single-threaded, closed-loop client
(the next op starts when the previous one returns), checks every output, and
prints a report followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (BENCHMARK.json
"end_to_end").  With --trace 1 each op runs twice in a row, untraced and
with every pwldyn public function wrapped in a span recorder (in alternating
order), and the metrics are the per-layer ones.  Spans and the run record
are written to .perfbench_out/.

pwldyn is imported from ../src relative to this file; without it the driver
exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

SETUP_SAMPLES = 15
# A run that has used this many seconds starts no further op: the rest of
# its list counts as failed, and the process stays inside its time limit.
RUN_CAP_S = 150.0
# Tracing slows every call, so a traced op gets this much more time.
TRACE_DEADLINE_FACTOR = 4.0

_CHILD = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "import pwldyn.cli\n"
    "print(time.perf_counter() - t)\n"
)


class DeadlineExceeded(Exception):
    pass


def _on_alarm(signum, frame):
    raise DeadlineExceeded()


@dataclass
class Pass:
    """Outcomes of one pass over an op list."""

    latencies: list[float] = field(default_factory=list)
    fingerprints: list[str] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    wrong: int = 0  # ops whose output failed a check
    refusals: int = 0
    busy_s: float = 0.0  # time inside ops, checks excluded


def measure_setup() -> tuple[list[float], list[float]]:
    """Wall time of fresh interpreters that import pwldyn.cli, and the import time inside each."""
    walls, imports = [], []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-I", "-c", _CHILD, str(SRC)],
                              capture_output=True, text=True, timeout=60, cwd=ROOT)
        walls.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"importing pwldyn.cli failed:\n{proc.stderr}")
        imports.append(float(proc.stdout))
    return walls, imports


def timed_op(i: int, op: tuple, call, check, deadline_s: float, into: Pass):
    """Time `call(op)` from outside, then `check(op, output)`; record both in `into`."""
    into.attempted += 1
    gc.collect()  # each op starts from a clean heap, as a one-shot CLI call does
    signal.setitimer(signal.ITIMER_REAL, deadline_s)
    t0 = time.perf_counter()
    try:
        out = call(op)
    except DeadlineExceeded:
        into.failed += 1
        into.problems.append(f"op {i} {op}: missed its {deadline_s:.0f} s deadline")
        return
    except Exception as exc:  # an op that raises is a failed op, not a failed run
        into.failed += 1
        into.problems.append(f"op {i} {op}: {type(exc).__name__}: {exc}")
        return
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        into.busy_s += time.perf_counter() - t0
    into.latencies.append(time.perf_counter() - t0)
    bad, fingerprint, refused = check(op, out)
    into.fingerprints.append(fingerprint)
    into.refusals += refused
    if bad:
        into.failed += 1
        into.wrong += 1
        into.problems.extend(f"op {i} {op}: {msg}" for msg in bad)


def percentile_ms(latencies: list[float], k: int) -> float:
    """k-th decile in ms (inclusive method); a single sample is its own decile."""
    if len(latencies) < 2:
        return latencies[0] * 1e3
    return statistics.quantiles(latencies, n=10, method="inclusive")[k - 1] * 1e3


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("entropy", "certify", "dynamics"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    if not (SRC / "pwldyn" / "__init__.py").is_file():
        print(f"perfbench: no pwldyn sources under {SRC}", file=sys.stderr)
        return 2
    started = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import pwldyn

    if Path(pwldyn.__file__).resolve().parent != SRC / "pwldyn":
        print(f"perfbench: pwldyn imported from {pwldyn.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import spans
    import workloads

    setup_walls, import_times = measure_setup()
    ops = workloads.make_ops(args.workload, args.seed, args.seconds)
    oplist_sha = workloads.digest(ops)
    signal.signal(signal.SIGALRM, _on_alarm)
    deadline = workloads.DEADLINE_S[args.workload]

    warm, plain = Pass(), Pass()
    for i, op in enumerate(workloads.warmup_ops(args.workload)):
        timed_op(i, op, workloads.run_op, workloads.check_op, deadline, warm)
    traced = Pass() if args.trace else None
    recorder = spans.Recorder()
    for i, op in enumerate(ops):
        if time.perf_counter() - started > RUN_CAP_S:
            for p in (plain, traced):
                if p is not None:
                    p.attempted += len(ops) - i
                    p.failed += len(ops) - i
                    p.problems.append(f"run cap reached: {len(ops) - i} ops not started")
            break
        if traced is None:
            timed_op(i, op, workloads.run_op, workloads.check_op, deadline, plain)
            continue
        # The traced copy runs next to the untraced one, so both see the same
        # machine speed; alternating which goes first cancels the speed-up a
        # repeated op gets from memory the first run already mapped.
        name = f"op.{op[0]}" + (f".{op[1]}" if op[0] == "entropy" else "")
        for tracing in ((False, True) if i % 2 == 0 else (True, False)):
            if not tracing:
                timed_op(i, op, workloads.run_op, workloads.check_op, deadline, plain)
                continue
            recorder.stack.clear()  # a deadline can fire between a span's end and its pop
            with recorder.installed():
                timed_op(i, op, recorder.span(name, workloads.run_op), workloads.check_op,
                         deadline * TRACE_DEADLINE_FACTOR, traced)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    passes = [p for p in (warm, plain, traced) if p is not None]
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    correct = not any(p.wrong for p in passes)
    outputs_sha = workloads.digest(plain.fingerprints)
    if traced is not None and workloads.digest(traced.fingerprints) != outputs_sha:
        correct = False
        failed += 1
        traced.problems.append("traced outputs differ from untraced outputs")

    lat = plain.latencies or [0.0]  # no op completed: failed == attempted says so
    e2e = {
        "setup_s": (statistics.median(setup_walls), "s", len(setup_walls)),
        "wall_s": (plain.busy_s, "s", 1),
        "op_p50_ms": (statistics.median(lat) * 1e3, "ms", len(lat)),
        "op_p90_ms": (percentile_ms(lat, 9), "ms", len(lat)),
        "peak_rss_mb": (peak_rss_mb, "MB", 1),
        "error_rate": (plain.failed / len(ops), "ratio", len(ops)),
    }
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} ops={len(ops)} oplist_sha256={oplist_sha} outputs_sha256={outputs_sha}")
    for name, (value, unit, n) in e2e.items():
        print(f"  {name:<12} {value:14.6f} {unit:<6} samples={n}")
    print(f"  refusals     {plain.refusals:14d} count  (decimal() refused; op refined at digits+3)")
    for p in passes:
        for line in p.problems:
            print(f"  FAILED {line}")

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "oplist_sha256": oplist_sha, "ops": ops, "latencies_s": plain.latencies,
              "outputs_sha256": outputs_sha, "setup_walls_s": setup_walls,
              "cli_import_s": import_times}
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    if traced is not None:
        layer = spans.layer_metrics(recorder)
        layer["band48.decimal.refusals"] = traced.refusals
        layer["cli.import_s"] = statistics.median(import_times)
        layer["trace.wall_s"] = traced.busy_s
        layer["trace.overhead"] = traced.busy_s / plain.busy_s
        print(f"  traced {traced.busy_s:.3f} s over untraced {plain.busy_s:.3f} s inside ops "
              f"= overhead {layer['trace.overhead']:.3f}; {len(recorder.spans)} spans")
        for kind, top in spans.attribution(recorder).items():
            shares = ", ".join(f"{name} {share:.1%}" for name, share in top)
            print(f"  self time in {kind}: {shares}")
        recorder.write(OUT_DIR / f"{stem}-spans.jsonl")
        record["per_layer"] = layer
        values, kind = layer, "per_layer"
    else:
        values, kind = {name: value for name, (value, _, _) in e2e.items()}, "end_to_end"
    wanted = json.loads((ROOT / "BENCHMARK.json").read_text())[kind]  # names and units to report
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record) + "\n")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
