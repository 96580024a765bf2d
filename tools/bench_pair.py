"""Benchmark two checkouts against each other and write the result as a BENCH file.

    python3 tools/bench_pair.py PARENT CHANGE --workload tail-scan --runs 10 --out BENCH_16.json

PARENT and CHANGE are checkouts of the repository (for example two `git archive`
copies). For each workload, pair k (k = 0 .. runs - 1) runs `perfbench/run.py
--workload W --seed F+k --seconds S` once in each checkout, from its root; F is
--first-seed (default 1), so the seeds a change was developed on can be kept out
of its BENCH file. The side that goes first alternates from pair to pair, so a
drift of the machine hits both alike. S, the end-to-end metrics, their directions
and their bounds come from CHANGE's BENCHMARK.json (`run_seconds`, `end_to_end`).

The output holds, per workload and side, every run's metrics with their median
and quartiles, the runs that were not `correct` and the failed operations; per
metric it holds how many pairs the change won, the change of the medians, the
parent's interquartile range, and two verdicts: `clear_gain` (the change wins at
least 9 of 10 pairs and its median beats the parent's by more than the parent's
interquartile range) and `worse_than_bound` (the change's median is worse than
the parent's by more than the metric's bound). At the end it prints one stderr
line per workload and metric with the two medians, the pairs won and both
verdicts. Exit status 1 when some run was not correct or failed an operation.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(root: str, workload: str, seed: int, seconds: float) -> dict:
    """One `perfbench/run.py` run in checkout `root`; its last output line, parsed."""
    proc = subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds)],
                          cwd=root, capture_output=True, text=True, check=False)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        print(f"{root}: run.py --workload {workload} --seed {seed} exited {proc.returncode}:\n{proc.stderr}",
              file=sys.stderr)
        return {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    return json.loads(lines[-1])


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "values": values}


def compare(runs: dict[str, list[dict]], metrics: dict[str, dict]) -> dict:
    """Per-side summaries and per-metric verdicts of one workload's paired runs."""
    out = {side: {"incorrect_runs": sum(not r["correct"] for r in rs),
                  "failed": sum(r["failed"] for r in rs),
                  "attempted": sum(r["attempted"] for r in rs),
                  "metrics": {}} for side, rs in runs.items()}
    verdicts = {}
    for name, spec in metrics.items():
        pairs = [(a["metrics"][name]["value"], b["metrics"][name]["value"])
                 for a, b in zip(runs["parent"], runs["change"])
                 if name in a["metrics"] and name in b["metrics"]]
        if not pairs:
            continue
        parent, change = summary([a for a, _ in pairs]), summary([b for _, b in pairs])
        out["parent"]["metrics"][name], out["change"]["metrics"][name] = parent, change
        sign = 1.0 if spec.get("better", "lower") == "lower" else -1.0
        gain = sign * (parent["median"] - change["median"])  # > 0: the change is better
        wins = sum(sign * (a - b) > 0 for a, b in pairs)
        verdicts[name] = {
            "unit": spec.get("unit"),
            "pairs_won": wins,
            "pairs": len(pairs),
            "median_change": (change["median"] - parent["median"]) / parent["median"] if parent["median"] else None,
            "parent_iqr": parent["q3"] - parent["q1"],
            "clear_gain": wins >= 0.9 * len(pairs) and gain > parent["q3"] - parent["q1"],
            "worse_than_bound": "bound" in spec and -gain > spec["bound"] * abs(parent["median"]),
        }
    out["verdicts"] = verdicts
    return out


def verdict_lines(result: dict) -> list[str]:
    """One line per workload and metric: parent -> change median, pairs won, both verdicts."""
    return [f"{workload} {name}: {res['parent']['metrics'][name]['median']:.4g} -> "
            f"{res['change']['metrics'][name]['median']:.4g} {v['unit']}, won {v['pairs_won']}/{v['pairs']}, "
            f"clear_gain {v['clear_gain']}, worse_than_bound {v['worse_than_bound']}"
            for workload, res in result["workloads"].items() for name, v in res["verdicts"].items()]


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", help="checkout of the parent commit")
    ap.add_argument("change", help="checkout of the change")
    ap.add_argument("--workload", action="append", required=True, help="a workload; repeat for more")
    ap.add_argument("--runs", type=int, default=10, help="pairs of runs per workload")
    ap.add_argument("--first-seed", type=int, default=1, help="seed of the first pair; pair k runs seed first + k")
    ap.add_argument("--labels", nargs=2, metavar=("PARENT", "CHANGE"),
                    help="names recorded for the two checkouts (default: their directory names)")
    ap.add_argument("--out", required=True, help="the BENCH_<n>.json file to write")
    args = ap.parse_args(argv)
    roots = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    labels = dict(zip(roots, args.labels or [os.path.basename(r) for r in roots.values()]))
    with open(os.path.join(roots["change"], "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    metrics, seconds = {m["name"]: m for m in bench["end_to_end"]}, bench["run_seconds"]

    result = {"checkouts": labels, "runs": args.runs, "seconds": seconds,
              "seeds": list(range(args.first_seed, args.first_seed + args.runs)), "workloads": {}}
    bad = False
    for workload in args.workload:
        runs = {"parent": [], "change": []}
        for seed in result["seeds"]:
            order = ("parent", "change") if seed % 2 else ("change", "parent")
            for side in order:
                runs[side].append(run_once(roots[side], workload, seed, seconds))
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{side} wall_s {runs[side][-1]['metrics'].get('wall_s', {}).get('value')}" for side in runs),
                file=sys.stderr)
        result["workloads"][workload] = compare(runs, metrics)
        bad |= any(result["workloads"][workload][side][key] for side in runs for key in ("incorrect_runs", "failed"))
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    print(f"wrote {args.out}", file=sys.stderr)
    print("\n".join(verdict_lines(result)), file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
