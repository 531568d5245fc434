"""headwaylab benchmark: seeded workloads run against the library in one
process, with no threads, and checked against ground truth.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the workloads in workloads.py, or ``all`` to run those listed
in BENCHMARK.json in turn (peak_rss_mb is then the process peak so far).
With --trace 0 the run repeats the workload's work until S seconds have
passed and reports the end-to-end metrics: wall_s is the median repetition.  With
--trace 1 it runs the work once untraced and once traced, writes the spans
to perfbench/out/, and reports the per-layer metrics.  The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics.  Headwaylab is imported from src/ next to this directory, and
the run stops with an error when it is not there.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 60


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny runs every stage on small inputs, for the benchmark's own tests")
    return ap.parse_args(argv)


def measure_setup(wl, inputs, seed: int, size: str) -> float:
    """Seconds from starting an interpreter to the program objects being ready."""
    stdin = inputs if wl.reads_stdin else ""
    t0 = time.time()
    done = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), wl.name, size, str(seed)],
                          input=stdin, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"setup probe failed:\n{done.stderr}")
    return float(done.stdout.split()[-1]) - t0


def run_untraced(wl, program, size: str, seconds: float):
    outcomes, walls = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        outcomes.append(wl.run(program, size))
        walls.append(time.perf_counter() - t0)
        if time.perf_counter() - start >= seconds:
            return outcomes, walls


# Output-quality metrics reported in the traced run; 0 on workloads that do
# not produce the output.
QUALITY = ("route.len_err", "patches.break_err_max", "fitting.patch_mean_err_max",
           "fitting.patch_mean_err_true_breaks", "properties.decided_frac",
           "properties.ewt_hw_max_s")


def run_traced(wl, inputs, program, size: str):
    from layers import instrument, layer_metrics
    from tracing import Tracer

    t0 = time.perf_counter()
    plain = wl.run(program, size)
    wall_plain = time.perf_counter() - t0
    tr = Tracer()
    instrument(tr)
    try:
        traced_program = wl.program(inputs, size)
        t0 = time.perf_counter()
        traced = wl.run(traced_program, size)
        wall_traced = time.perf_counter() - t0
    finally:
        tr.restore()
    metrics = dict.fromkeys(QUALITY, 0.0)
    metrics.update(layer_metrics(tr))
    metrics.update(traced.quality)
    if hasattr(wl, "isolate"):
        metrics.update(wl.isolate(traced_program, size, traced))
    metrics["trace.overhead_frac"] = (wall_traced - wall_plain) / wall_plain
    return [plain, traced], metrics, tr


def run_workload(wl, args, declared: dict[str, dict]) -> dict:
    seed, size = args.seed, args.size
    inputs = wl.make_inputs(seed, size)
    setup = [] if args.trace else [measure_setup(wl, inputs, seed, size) for _ in range(SETUP_PROBES)]
    program = wl.program(inputs, size)
    problems = []
    if args.trace:
        outcomes, metrics, tr = run_traced(wl, inputs, program, size)
        OUT.mkdir(exist_ok=True)
        span_file = OUT / f"spans-{wl.name}-seed{seed}.json"
        tr.write(span_file)
        print(f"spans: {span_file.relative_to(ROOT)} ({len(tr.spans)} spans)")
        from layers import counter_sanity
        for what, ok in counter_sanity(wl.name, metrics):
            print(f"counter sanity: {what}: {'as expected' if ok else 'DIFFERS'}")
    else:
        outcomes, walls = run_untraced(wl, program, size, args.seconds)
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(walls),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_frac": 1.0 - sum(o.failed for o in outcomes) / sum(o.attempted for o in outcomes),
        }
        print(f"repetitions: {len(walls)}; wall_s each: {', '.join(f'{w:.3f}' for w in walls)}; "
              f"setup_s each: {', '.join(f'{s:.3f}' for s in setup)}")
    for o in outcomes:
        problems += o.problems + [f"operation failed: {e}" for e in o.errors]
    digests = [hashlib.sha256(repr(o.fingerprint).encode()).hexdigest()[:16] for o in outcomes]
    print(f"outputs fingerprint: {digests[0]}")
    if len(set(digests)) > 1:
        problems.append(f"same seed, different outputs: fingerprints {sorted(set(digests))}")
    undeclared = set(declared) ^ set(metrics)
    if undeclared:
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(undeclared)}")
    for name, value in metrics.items():
        if not math.isfinite(value):
            problems.append(f"{name} is not finite; reported as -1")
            metrics[name] = -1.0
    for name in declared:
        print(f"  {name:38s} {metrics[name]:14.6g} {declared[name]['unit']}")
    for p in dict.fromkeys(problems):
        print(f"check failed: {p}")
    return {
        "correct": not problems,
        "attempted": sum(o.attempted for o in outcomes),
        "failed": sum(o.failed for o in outcomes),
        "metrics": {name: {"value": float(metrics[name]), "unit": declared[name]["unit"]}
                    for name in declared},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    spec_file = ROOT / "BENCHMARK.json"
    if not (SRC / "headwaylab" / "__init__.py").is_file() or not spec_file.is_file():
        print(f"perfbench: needs {SRC / 'headwaylab'} and {spec_file}", file=sys.stderr)
        return 2
    spec = json.loads(spec_file.read_text())
    sys.path[:0] = [str(SRC), str(HERE)]
    from workloads import WORKLOADS

    names = [w["name"] for w in spec["workloads"]] if args.workload == "all" else [args.workload]
    if any(n not in WORKLOADS for n in names):
        print(f"perfbench: unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)} or all",
              file=sys.stderr)
        return 2
    declared = {m["name"]: m for m in spec["per_layer" if args.trace else "end_to_end"]}
    for name in names:
        print(f"workload {name} (seed {args.seed}, size {args.size}, trace {args.trace})", flush=True)
        result = run_workload(WORKLOADS[name], args, declared)
        print(json.dumps(result if len(names) == 1 else {"workload": name, **result}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
