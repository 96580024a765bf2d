"""Benchmark for ergolab: one workload, measured for a fixed time.

    python3 perfbench/run.py --workload tail-scan --seed 1 --seconds 30 --trace 0

Run from the repository root. The library is imported from ./src, the
brute-force oracles from ./tests. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}. With --trace 0
the metrics are the end-to-end ones (wall_s, case_p50_ms, setup_s,
peak_rss_mb); with --trace 1 the layers are wrapped and the metrics are the
per-layer ones. See README.md for what each workload runs and checks.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "_out")
WORKLOAD_NAMES = ("tail-scan", "long-orbit", "scenario-batch")
SETUP_SAMPLES = 7


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float,
                    help="timed seconds to fill with whole rounds of the workload")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="only import and generate the inputs, print 'ready' and exit")
    return ap.parse_args(argv)


def build_cases(workload: str, seed: int, workdir: str):
    """Import the library and the workload module, then generate inputs."""
    sys.path[:0] = [HERE, os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]
    import workloads

    return workloads.WORKLOADS[workload](seed, workdir)


def measure_setup(args) -> list[float]:
    """Seconds from spawning a fresh interpreter on this script until its
    inputs are ready, once per sample."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
            line = proc.stdout.readline()
            samples.append(time.perf_counter() - start)
            proc.stdout.read()
            status = proc.wait()
        if line.strip() != "ready" or status != 0:
            raise RuntimeError(f"set-up probe failed (status {status}, said {line!r})")
    return samples


def run_rounds(cases, seconds: float, tracer):
    """Whole rounds of every case until `seconds` of timed work are done.

    Returns (round walls, {case: times}, failed, problems). The first
    round's outputs are checked in full; later rounds must reproduce the
    first round's fingerprints. A case that raises is counted as failed; a
    check that rejects an output is a problem, and makes the run incorrect.
    """
    from checks import CheckError

    walls, problems = [], []
    times = {case.name: [] for case in cases}
    failed = 0
    expected = {}
    while not walls or sum(walls) < seconds:
        gc.collect()
        if tracer is not None:
            tracer.start_round()
        wall = 0.0
        for case in cases:
            if tracer is not None:
                tracer.active = True
            start = time.perf_counter()
            try:
                out = case.run()
            except Exception as exc:  # a failed case is counted, not fatal
                failed += 1
                print(f"failed: {case.name}: {type(exc).__name__}: {exc}", file=sys.stderr)
                continue
            finally:
                elapsed = time.perf_counter() - start
                if tracer is not None:
                    tracer.active = False
            wall += elapsed
            times[case.name].append(elapsed)
            try:
                if case.name not in expected:
                    case.check(out)
                    expected[case.name] = case.fingerprint(out)
                elif case.fingerprint(out) != expected[case.name]:
                    problems.append(f"{case.name}: round {len(walls) + 1} differs from round 1")
            except CheckError as exc:
                problems.append(f"{case.name}: {exc}")
                expected[case.name] = None
            del out
        walls.append(wall)
    return walls, times, failed, problems


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "ergolab", "__init__.py")) \
            or not os.path.isfile(os.path.join(ROOT, "tests", "oracles.py")):
        print(f"error: {ROOT} holds no ergolab sources (src/ergolab, tests/oracles.py); "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    workdir = os.path.join(OUT, f"run-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        if args.setup_probe:
            build_cases(args.workload, args.seed, workdir)
            print("ready", flush=True)
            return 0
        return measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workdir: str) -> int:
    setup = measure_setup(args) if not args.trace else []
    cases = build_cases(args.workload, args.seed, workdir)
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    walls, times, failed, problems = run_rounds(cases, args.seconds, tracer)
    for line in problems:
        print(f"check failed: {line}", file=sys.stderr)
    correct = not problems
    print(f"{args.workload} seed {args.seed}: {len(walls)} rounds, wall_s per round "
          f"{[round(w, 3) for w in walls]}", file=sys.stderr)
    for name, samples in times.items():
        if samples:
            print(f"  {name:24s} median {1e3 * statistics.median(samples):9.1f} ms  "
                  f"all {[round(1e3 * t, 1) for t in samples]}", file=sys.stderr)

    if tracer is None:
        metrics = {
            "wall_s": (statistics.median(walls), "s"),
            # median over the cases of each case's median time across rounds
            "case_p50_ms": (1e3 * statistics.median(
                statistics.median(ts) for ts in times.values() if ts), "ms"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    else:
        per_round = [tracer.metrics(r) for r in range(len(walls))]
        metrics = {}
        for name, unit in tracing.UNITS.items():
            values = [m[name] for m in per_round]
            if unit == "ms":
                metrics[name] = (statistics.median(values), unit)
                continue
            if len(set(values)) != 1:
                correct = False
                print(f"check failed: {name} differs between rounds: {values}", file=sys.stderr)
            metrics[name] = (values[0], unit)
        os.makedirs(OUT, exist_ok=True)
        trace_path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json")
        tracer.write(trace_path)
        print(f"traced wall_s {statistics.median(walls):.4f}; spans of round 1 in {trace_path}",
              file=sys.stderr)

    print(json.dumps({
        "correct": correct,
        "attempted": len(walls) * len(cases),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
