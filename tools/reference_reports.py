"""Write the reference reports of this checkout, or compare two sets of them.

    python3 tools/reference_reports.py OUT
    python3 tools/reference_reports.py --compare A B

The reports are the `verify-all` corpus at the default seed and at seeds 2 and
11, and the nine `perfbench/workloads.scenario_configs` configs drawn at seeds
1 and 2, each in JSON and CSV: 72 files under OUT. Next to them,
OUT/traced-counts.json holds the count metrics (unit `count` or `B`) of one
traced round of each benchmark workload at seed 1, from
`perfbench/run.py --workload W --seed 1 --seconds 0 --trace 1`; writing exits 1
when such a run is not `correct`. The library, the configs and the benchmark
come from the checkout this script sits in. Two checkouts give the same answers
when --compare, which ignores each report's `timestamp` line, lists no file. For
each report that differs it prints the first differing line from each side, and
for traced-counts.json every count that differs, as `workload metric: A -> B`;
it exits 1 when some file differs or exists on one side only.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
VERIFY_SEEDS = (None, 2, 11)
CONFIG_SEEDS = (1, 2)
WORKLOADS = ("tail-scan", "long-orbit", "scenario-batch")


def traced_counts() -> dict[str, dict[str, int]] | None:
    """Each workload's count metrics from one traced round at seed 1; None when a run
    is not correct."""
    counts = {}
    for workload in WORKLOADS:
        run = subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
                              "--seed", "1", "--seconds", "0", "--trace", "1"],
                             cwd=ROOT, capture_output=True, text=True, check=False)
        lines = run.stdout.splitlines()
        result = json.loads(lines[-1]) if run.returncode == 0 and lines else {"correct": False}
        if not result["correct"]:
            print(f"perfbench/run.py --workload {workload} is not correct:\n{run.stderr}", file=sys.stderr)
            return None
        counts[workload] = {name: metric["value"] for name, metric in result["metrics"].items()
                            if metric["unit"] in ("count", "B")}
    return counts


def write(out: str) -> int:
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]
    from ergolab.scenarios import builtin_corpus, load_scenario, run_scenario, write_report
    from workloads import scenario_configs

    runs = [(f"verify-all-{'default' if seed is None else f'seed{seed}'}", builtin_corpus(seed))
            for seed in VERIFY_SEEDS]
    with tempfile.TemporaryDirectory() as tmp:
        for seed in CONFIG_SEEDS:
            scenarios = []
            for config in scenario_configs(seed):  # through a config file, as `ergolab run` reads it
                path = os.path.join(tmp, f"{seed}-{config['name']}.json")
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump(config, fh)
                scenarios.append(load_scenario(path))
            runs.append((f"configs-seed{seed}", scenarios))
    count = 0
    for folder, scenarios in runs:
        for scenario in scenarios:
            report = run_scenario(scenario)
            for fmt in ("json", "csv"):
                write_report(report, os.path.join(out, folder), fmt)
                count += 1
    print(f"{count} reports written under {out}")
    counts = traced_counts()
    if counts is None:
        return 1
    with open(os.path.join(out, "traced-counts.json"), "w", encoding="utf-8") as fh:
        json.dump(counts, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"traced counts of {', '.join(WORKLOADS)} written to {os.path.join(out, 'traced-counts.json')}")
    return 0


def _files(root: str) -> set[str]:
    return {os.path.relpath(os.path.join(where, name), root)
            for where, _, names in os.walk(root) for name in names}


def _body(path: str) -> list[str] | None:
    """The file's lines, each `timestamp` line blanked; None when there is no such file."""
    if not os.path.isfile(path):
        return None
    with open(path, encoding="utf-8", newline="") as fh:
        return ["" if '"timestamp":' in line else line for line in fh]


def compare(a: str, b: str) -> int:
    names = sorted(_files(a) | _files(b))
    differ = 0
    for name in names:
        sides = [_body(os.path.join(root, name)) for root in (a, b)]
        if sides[0] == sides[1]:
            continue
        differ += 1
        if None in sides:
            print(f"{name}: only under {b if sides[0] is None else a}")
            continue
        if name == "traced-counts.json":
            print(f"{name}:")
            x, y = (json.loads("".join(lines)) for lines in sides)
            for workload in sorted(x.keys() | y.keys()):
                xw, yw = x.get(workload, {}), y.get(workload, {})
                for metric in sorted(xw.keys() | yw.keys()):
                    if xw.get(metric) != yw.get(metric):
                        print(f"  {workload} {metric}: {xw.get(metric, '(none)')} -> {yw.get(metric, '(none)')}")
            continue
        k = next((k for k, (x, y) in enumerate(zip(*sides)) if x != y), min(map(len, sides)))
        print(f"{name}, line {k + 1}:")
        for root, lines in zip((a, b), sides):
            print(f"  {root}: {lines[k].rstrip() if k < len(lines) else '(end of file)'}")
    print(f"{differ} of {len(names)} files differ")
    return 1 if differ else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", nargs="?", help="directory to write the reports under")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"), help="compare two report directories")
    args = parser.parse_args(argv)
    if (args.out is None) == (args.compare is None):
        parser.error("give either OUT or --compare A B")
    return compare(*args.compare) if args.compare else write(args.out)


if __name__ == "__main__":
    sys.exit(main())
