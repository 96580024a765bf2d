"""Self-test: every output check accepts the program's output and rejects a
corrupted copy of it.

    python3 perfbench/selftest.py

Run from the repository root. Uses the workloads' own cases at reduced
sizes (tail-scan trajectories of 4096 points, long-orbit horizons of 4096)
and one full scenario batch. Exits 1 if any check accepts a corruption or
rejects a correct output.
"""

from __future__ import annotations

import dataclasses
import os
import re
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

import checks  # noqa: E402
import ergolab  # noqa: E402
import workloads  # noqa: E402
from ergolab.scenarios import Report, emit_report  # noqa: E402

SMALL = 4096
results: list[tuple[str, bool]] = []


def expect(label: str, case, out, accept: bool) -> None:
    try:
        case.check(out)
        ok = accept
        detail = "accepted"
    except checks.CheckError as exc:
        ok = not accept
        detail = f"rejected: {str(exc)[:90]}"
    results.append((label, ok))
    print(f"{'ok ' if ok else 'BAD'} {label:58s} {detail}")


def perturbed(traj, row: int, delta: float = 1e-8):
    pts = traj.points.copy()
    pts[row] += delta
    return ergolab.AverageTrajectory(pts, traj.p, traj.operator, traj.x)


def shifted(report, k: int, which: int, by: int):
    wit = [list(w) for w in report.witnesses]
    wit[k][which] += by
    return dataclasses.replace(report, witnesses=tuple(tuple(w) for w in wit))


def tail_scan() -> None:
    workloads.TAIL_N = SMALL
    cases = {c.name: c for c in workloads.tail_scan(7, "")}
    case = cases["rotation-4"]
    traj, report, rate = out = case.run()
    expect("tail-scan: program output", case, out, True)
    expect("tail-scan: trajectory row 101 moved by 1e-8", case,
           (perturbed(traj, 100), report, rate), False)
    for k in (0, report.count // 2, report.count - 1):
        for which, by in ((0, -1), (0, 1), (1, -1), (1, 1)):
            label = f"tail-scan: witness {k + 1} {'ij'[which]} shifted by {by:+d}"
            expect(label, case, (traj, shifted(report, k, which, by), rate), False)
    fewer = dataclasses.replace(report, count=report.count - 1, witnesses=report.witnesses[:-1])
    expect("tail-scan: last witness dropped", case, (traj, fewer, rate), False)
    expect("tail-scan: count one above its witnesses", case,
           (traj, dataclasses.replace(report, count=report.count + 1), rate), False)
    for by in (-1, 1):
        expect(f"tail-scan: convergence rate {by:+d}", case,
               (traj, report, dataclasses.replace(rate, n=rate.n + by)), False)
    expect("tail-scan: convergence rate not found", case,
           (traj, report, dataclasses.replace(rate, found=False, n=None)), False)

    family = cases["rotation-family-p4"]
    res = family.run()
    expect("rotation family: program output", family, res, True)
    expect("rotation family: count 2^p - 1", family,
           dataclasses.replace(res, fluctuation_count=15), False)
    expect("rotation family: rate 2^p - 1", family,
           dataclasses.replace(res, rate_lower_bound=15), False)


def long_orbit() -> None:
    rotations, x64, matrix, x4 = workloads.orbit_family()
    cases = [
        workloads._rotation_case("rotation", *rotations[0], SMALL),
        workloads._cyclic_case("cyclic-64", x64, SMALL),
        workloads._dense_case("dense-orthogonal-4", matrix, x4, SMALL),
    ]
    for case in cases:
        traj, drift, report = out = case.run()
        expect(f"long-orbit {case.name}: program output", case, out, True)
        for row in (0, 499, SMALL - 1):
            expect(f"long-orbit {case.name}: row {row + 1} moved by 1e-8", case,
                   (perturbed(traj, row), drift, report), False)
        expect(f"long-orbit {case.name}: drift excess raised by 1e-9", case,
               (traj, dataclasses.replace(drift, max_excess=drift.max_excess + 1e-9), report),
               False)
        a, b = drift.worst_pair
        expect(f"long-orbit {case.name}: drift worst pair shifted", case,
               (traj, dataclasses.replace(drift, worst_pair=(a, b + 1)), report), False)
        expect(f"long-orbit {case.name}: witness j shifted by +1", case,
               (traj, drift, shifted(report, 0, 1, 1)), False)


def _cut_digits(text: str) -> str | None:
    """The report with its first float printed with 12 significant digits
    where that text is not the 17-digit form of the double it parses to (as
    an emitter that dropped digits would print it), or None."""
    for m in re.finditer(r"-?\d+\.\d+(?:e-?\d+)?", text):
        short = f"{float(m.group()):.12g}"
        if short != m.group() and ("." in short or "e" in short) \
                and f"{float(short):.17g}" != short:
            return text[:m.start()] + short + text[m.end():]
    return None


def _corrupt_row(text: str, edit) -> str:
    import json

    doc = json.loads(text)
    edit(doc["rows"])
    return emit_report(Report(doc["scenario"], doc["rows"], doc["environment"]), "json")


def scenario_batch() -> None:
    workdir = os.path.join(HERE, "_out", "selftest")
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        configs = {c["name"]: c for c in workloads.scenario_configs(7)}
        for case in workloads.scenario_batch(7, workdir):
            out = case.run()
            expect(f"scenario {case.name}: program output", case, out, True)
            expect(f"scenario {case.name}: exit status 1", case, (1, out[1]), False)
            path = os.path.join(workdir, "reports", f"{case.name}.json")
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
            config = configs[case.name]
            variants = {
                "pass flag flipped": _corrupt_row(
                    text, lambda rows: rows[0].update(passed=False)),
                "seed echo changed": text.replace(f'"seed": {config["seed"]}',
                                                  f'"seed": {config["seed"] + 1}', 1),
                "report truncated": text[: len(text) // 2],
            }
            if _cut_digits(text) is not None:
                variants["a float printed with 12 digits"] = _cut_digits(text)
            if "horizon" in config:
                variants["echoed horizon changed"] = text.replace('"horizon": ', '"horizon": 1', 1)
            kind = config["kind"]
            if kind == "metastability":
                variants["rate above the conversion bound"] = _corrupt_row(
                    text, lambda rows: rows[0].update(rate=rows[0]["conversion_bound"] + 1))
            if kind == "dyadic-constants":
                variants["martingale ratio 1 + 1e-6"] = _corrupt_row(
                    text, lambda rows: rows[0].update(ratio=1.000001))
            if kind == "variation-sweep":
                variants["witness value off by 1e-6"] = _corrupt_row(
                    text, lambda rows: rows[0].update(
                        witness_value=rows[0]["witness_value"] + 1e-6))
            for label, bad_text in variants.items():
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(bad_text)
                expect(f"scenario {case.name}: {label}", case, out, False)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main() -> int:
    tail_scan()
    long_orbit()
    scenario_batch()
    bad = [label for label, ok in results if not ok]
    print(f"{len(results) - len(bad)}/{len(results)} expectations met")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
