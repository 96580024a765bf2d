#!/usr/bin/env python3
"""Drive the scenario runner end to end from Python.

Writes a small JSON config, runs it through the same code path as
`ergolab run`, and prints where the report landed plus a row digest.
The same config works from the shell:

    ergolab run demo-scenario.json --out reports --format csv
"""

import json
import tempfile

from ergolab.scenarios import load_scenario, run_scenario, write_report

CONFIG = {
    "name": "demo-metastability",
    "kind": "metastability",
    "seed": 12,
    "dims": [2, 3],
    "horizon": 2048,
    "eps_grid": [0.5, 0.25],
    "g": "double",
    "cases": 4,
}


def main():
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path = f"{tmp}/demo.json"
        with open(cfg_path, "w", encoding="utf-8") as fh:
            json.dump(CONFIG, fh, indent=2)

        scenario = load_scenario(cfg_path)
        report = run_scenario(scenario)
        path = write_report(report, tmp, "json")

        print(f"report written to {path}")
        print(f"rows: {len(report.rows)}, all passed: {report.all_passed}")
        print(f"{'case':>4} {'dim':>4} {'eps':>6} {'rate':>6} {'bound':>6} {'ok':>3}")
        for row in report.rows:
            print(f"{row['case']:4d} {row['dim']:4d} {row['eps']:6.2f} "
                  f"{row['rate']:6d} {row['conversion_bound']:6d} "
                  f"{'yes' if row['passed'] else 'NO'}")


if __name__ == "__main__":
    main()
