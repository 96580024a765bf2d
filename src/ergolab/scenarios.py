"""Declarative experiment scenarios and machine-readable reports.

A scenario is a single JSON document: a name, an experiment kind, a seed,
and kind-specific parameters. Unknown keys are errors, not warnings, so a
config file stays a faithful record of what ran. Execution is deterministic
given (config, seed): randomness comes from numpy's PCG64, seeded per case
by spawning one SeedSequence child per declared case, so report rows are
identical across runs.

Reports carry one row per case with the measured values, the theoretical
or configured bounds, and a pass flag recomputable from the row's own
columns. A horizon exhaustion inside an experiment flags the row as failed
(exit status 1) rather than aborting the run; the one exception is the
counterexample suite, where running out of horizon is the expected outcome
and the verified lower bound is the measurement itself.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Any, Callable, Mapping

import numpy as np

from . import __version__
from .averages import ergodic_averages
from .bounds import fluctuation_bound_nonexpansive
from .counterexamples import verify_metastability_lower_bound
from .dyadic import SeqFunction, verify_decomposition_inequalities
from .errors import ErgolabError, HorizonExhaustedError, InvalidInputError
from .operators import RotationProduct
from .spaces import SpaceDescriptor, Vector, descriptor_preset, check_uniform_convexity
from .variation import (
    MetastabilityQuery,
    count_fluctuations,
    g_double,
    g_next_power_of_two,
    g_successor,
    max_p_variation,
    metastability_from_fluctuations,
    metastability_rate,
    p_variation_along,
)

__all__ = [
    "ConfigError",
    "Scenario",
    "Report",
    "SCENARIO_KINDS",
    "G_SELECTORS",
    "load_scenario",
    "scenario_from_mapping",
    "run_scenario",
    "emit_report",
    "write_report",
    "builtin_corpus",
]


class ConfigError(ErgolabError):
    """A scenario config failed to parse or validate."""


SCENARIO_KINDS = (
    "variation-sweep",
    "fluctuation-vs-bound",
    "metastability",
    "dyadic-constants",
    "counterexample-suite",
    "convexity-audit",
)

G_SELECTORS: dict[str, Callable[[int], int]] = {
    "successor": g_successor,
    "double": g_double,
    "next-power-of-two": g_next_power_of_two,
}

_RATIO_SLACK = 1e-9  # slack on the p=2 martingale ratio bound
_WITNESS_TOL = 1e-9  # witness must reproduce the DP value this closely
_MONOTONE_TOL = 1e-12  # sub-sequence variation vs maximum


@dataclass(frozen=True)
class Scenario:
    """A validated experiment description."""

    name: str
    kind: str
    seed: int
    params: Mapping[str, Any]
    out: str | None = None


@dataclass
class Report:
    """Scenario echo, per-case rows, and the environment stamp."""

    scenario: dict[str, Any]
    rows: list[dict[str, Any]]
    environment: dict[str, Any]

    @property
    def all_passed(self) -> bool:
        return all(row["passed"] for row in self.rows)


# ---------------------------------------------------------------------------
# config validation


def _want(doc: Mapping[str, Any], key: str, kinds: tuple[type, ...], default: Any) -> Any:
    if key not in doc:
        if default is _REQUIRED:
            raise ConfigError(f"missing required key {key!r}")
        return default
    val = doc[key]
    if kinds == _INT_KINDS and isinstance(val, bool):
        raise ConfigError(f"key {key!r}: expected an integer, got a boolean")
    if not isinstance(val, kinds):
        raise ConfigError(f"key {key!r}: expected {'/'.join(k.__name__ for k in kinds)}, "
                          f"got {type(val).__name__}")
    if isinstance(val, float) and not math.isfinite(val):
        raise ConfigError(f"key {key!r}: non-finite number {val}")
    return val


_REQUIRED = object()
_INT_KINDS = (int,)
_NUM_KINDS = (int, float)
# Cap on horizon * max(dims): a trajectory of 2^24 complex slots is 256 MiB,
# and building one holds about three arrays of that size.
MAX_TRAJECTORY_SLOTS = 1 << 24


def _positive_int(doc: Mapping[str, Any], key: str, default: Any) -> int:
    val = _want(doc, key, _INT_KINDS, default)
    if val < 1:
        raise ConfigError(f"key {key!r}: must be >= 1, got {val}")
    return int(val)


def _num_list(doc: Mapping[str, Any], key: str, default: list, positive: bool = True) -> list[float]:
    val = _want(doc, key, (list,), default)
    if not val:
        raise ConfigError(f"key {key!r}: must be a nonempty list")
    out = []
    for item in val:
        if isinstance(item, bool) or not isinstance(item, _NUM_KINDS):
            raise ConfigError(f"key {key!r}: entries must be numbers, got {item!r}")
        if not math.isfinite(item):
            raise ConfigError(f"key {key!r}: non-finite number {item}")
        if positive and item <= 0:
            raise ConfigError(f"key {key!r}: entries must be > 0, got {item}")
        out.append(float(item))
    return out


def _int_list(doc: Mapping[str, Any], key: str, default: list) -> list[int]:
    val = _want(doc, key, (list,), default)
    if not val:
        raise ConfigError(f"key {key!r}: must be a nonempty list")
    out = []
    for item in val:
        if isinstance(item, bool) or not isinstance(item, int):
            raise ConfigError(f"key {key!r}: entries must be integers, got {item!r}")
        if item < 1:
            raise ConfigError(f"key {key!r}: entries must be >= 1, got {item}")
        out.append(int(item))
    return out


def _trajectory_shape(doc: Mapping[str, Any], default_dims: list,
                      default_horizon: int) -> tuple[list[int], int]:
    """The 'dims' and 'horizon' keys, with horizon * max(dims) capped."""
    dims = _int_list(doc, "dims", default_dims)
    horizon = _positive_int(doc, "horizon", default_horizon)
    if horizon * max(dims) > MAX_TRAJECTORY_SLOTS:
        raise ConfigError(f"key 'horizon': horizon * max(dims) = {horizon * max(dims)} "
                          f"exceeds the cap of {MAX_TRAJECTORY_SLOTS} trajectory slots")
    return dims, horizon


def _check_keys(doc: Mapping[str, Any], allowed: set[str], where: str) -> None:
    unknown = sorted(set(doc) - allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(unknown)}; "
                          f"allowed: {', '.join(sorted(allowed))}")


_COMMON_KEYS = {"name", "kind", "seed", "out"}


def scenario_from_mapping(doc: Mapping[str, Any], seed_override: int | None = None) -> Scenario:
    """Validate a parsed config document into a Scenario."""
    if not isinstance(doc, Mapping):
        raise ConfigError(f"config must be a JSON object, got {type(doc).__name__}")
    name = _want(doc, "name", (str,), _REQUIRED)
    kind = _want(doc, "kind", (str,), _REQUIRED)
    if kind not in SCENARIO_KINDS:
        raise ConfigError(f"unknown kind {kind!r}; known: {', '.join(SCENARIO_KINDS)}")
    seed = _want(doc, "seed", _INT_KINDS, 0)
    if seed < 0:
        raise ConfigError(f"key 'seed': must be >= 0, got {seed}")
    if seed_override is not None:
        seed = int(seed_override)
    out = _want(doc, "out", (str,), None)

    params: dict[str, Any] = {}
    if kind == "variation-sweep":
        _check_keys(doc, _COMMON_KEYS | {"dims", "horizon", "q_grid", "cases"}, "variation-sweep config")
        params["dims"], params["horizon"] = _trajectory_shape(doc, [4], 256)
        params["q_grid"] = _num_list(doc, "q_grid", [2.0])
        if any(q < 1.0 for q in params["q_grid"]):
            raise ConfigError("key 'q_grid': variation exponents must be >= 1")
        params["cases"] = _positive_int(doc, "cases", 8)
    elif kind == "fluctuation-vs-bound":
        _check_keys(doc, _COMMON_KEYS | {"preset", "p", "dims", "horizon", "eps_grid",
                                         "cases", "include_constant"}, "fluctuation-vs-bound config")
        preset = _want(doc, "preset", (str,), "hilbert")
        p = _want(doc, "p", _NUM_KINDS, None)
        try:
            desc = descriptor_preset(preset, None if p is None else float(p))
        except InvalidInputError as exc:
            raise ConfigError(str(exc)) from exc
        params["preset"] = preset
        params["descriptor"] = desc
        params["dims"], params["horizon"] = _trajectory_shape(doc, [4], 512)
        params["eps_grid"] = _num_list(doc, "eps_grid", [0.5, 0.25])
        if any(not e < 2.0 for e in params["eps_grid"]):
            raise ConfigError("key 'eps_grid': points are normalized to ||x|| = 1, "
                              "so the bound needs eps < 2")
        params["cases"] = _positive_int(doc, "cases", 8)
        params["include_constant"] = bool(_want(doc, "include_constant", (bool,), False))
    elif kind == "metastability":
        _check_keys(doc, _COMMON_KEYS | {"dims", "horizon", "eps_grid", "g", "cases"},
                    "metastability config")
        params["dims"], params["horizon"] = _trajectory_shape(doc, [3], 512)
        params["eps_grid"] = _num_list(doc, "eps_grid", [0.25])
        gname = _want(doc, "g", (str,), "double")
        if gname not in G_SELECTORS:
            raise ConfigError(f"key 'g': unknown selector {gname!r}; "
                              f"known: {', '.join(G_SELECTORS)}")
        params["g"] = gname
        params["cases"] = _positive_int(doc, "cases", 4)
    elif kind == "dyadic-constants":
        _check_keys(doc, _COMMON_KEYS | {"p", "support", "levels", "cases", "ratio_cap"},
                    "dyadic-constants config")
        p = float(_want(doc, "p", _NUM_KINDS, 2.0))
        if p < 1.0:
            raise ConfigError(f"key 'p': must be >= 1, got {p}")
        params["p"] = p
        params["support"] = _positive_int(doc, "support", 64)
        params["levels"] = _positive_int(doc, "levels", 6)
        params["cases"] = _positive_int(doc, "cases", 16)
        cap = float(_want(doc, "ratio_cap", _NUM_KINDS, 64.0))
        if cap <= 0:
            raise ConfigError(f"key 'ratio_cap': must be > 0, got {cap}")
        params["ratio_cap"] = cap
    elif kind == "counterexample-suite":
        _check_keys(doc, _COMMON_KEYS | {"p_grid"}, "counterexample-suite config")
        p_grid = _int_list(doc, "p_grid", [2, 3])
        if any(p < 2 for p in p_grid):
            raise ConfigError("key 'p_grid': entries must be integers >= 2")
        params["p_grid"] = p_grid
    elif kind == "convexity-audit":
        _check_keys(doc, _COMMON_KEYS | {"audits"}, "convexity-audit config")
        default_audits = [
            {"p": 2.0, "K": 0.125, "dim": 2},
            {"p": 3.0, "K": 1.0 / 24.0, "dim": 2},
            {"p": 2.0, "K": 1.0, "dim": 2},
        ]
        raw = _want(doc, "audits", (list,), default_audits)
        if not raw:
            raise ConfigError("key 'audits': must be a nonempty list")
        audits = []
        for idx, entry in enumerate(raw):
            if not isinstance(entry, Mapping):
                raise ConfigError(f"audits[{idx}]: expected an object")
            _check_keys(entry, {"p", "K", "dim", "trials"}, f"audits[{idx}]")
            p = float(_want(entry, "p", _NUM_KINDS, _REQUIRED))
            k_val = float(_want(entry, "K", _NUM_KINDS, _REQUIRED))
            dim = _positive_int(entry, "dim", 2)
            trials = _positive_int(entry, "trials", 2000)
            try:
                desc = SpaceDescriptor(p, k_val)
            except InvalidInputError as exc:
                raise ConfigError(f"audits[{idx}]: {exc}") from exc
            audits.append({"descriptor": desc, "dim": dim, "trials": trials})
        params["audits"] = audits
    return Scenario(name=name, kind=kind, seed=int(seed), params=params, out=out)


def _finite_number(text: str) -> float:
    """JSON number hook: NaN, +-Infinity and overflowing literals are config errors."""
    val = float(text)
    if not math.isfinite(val):
        raise ConfigError(f"non-finite number {text} in config")
    return val


def load_scenario(path: str, seed_override: int | None = None) -> Scenario:
    """Parse and validate a JSON scenario config file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh, parse_float=_finite_number, parse_constant=_finite_number)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path!r} is not valid JSON: {exc}") from exc
    return scenario_from_mapping(doc, seed_override)


# ---------------------------------------------------------------------------
# case construction and execution


def _case_rngs(seed: int, count: int) -> list[np.random.Generator]:
    children = np.random.SeedSequence(seed).spawn(count)
    return [np.random.Generator(np.random.PCG64(child)) for child in children]


def _random_rotation(rng: np.random.Generator, dim: int, p: float) -> tuple[RotationProduct, Vector]:
    """A random rotation product with angles bounded away from 0, and a
    random p-normalized start point. The angle floor keeps every average
    trajectory settling well inside desk-scale horizons."""
    magnitudes = rng.uniform(0.25, math.pi, dim)
    signs = np.where(rng.uniform(size=dim) < 0.5, -1.0, 1.0)
    z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    x = Vector(z, p=p)
    x = Vector(z / x.norm(), p=p)
    return RotationProduct(magnitudes * signs), x


def _dyadic_indices(horizon: int) -> list[int]:
    out, t = [], 1
    while t <= horizon:
        out.append(t)
        t *= 2
    return out


def _run_case_guard(fn: Callable[[], list[dict[str, Any]]],
                    keys: tuple[str, ...]) -> list[dict[str, Any]]:
    """Run one case; on a library error, emit a single flagged row."""
    try:
        return fn()
    except ErgolabError as exc:
        row = {key: 0 for key in keys}
        row["passed"] = False
        row["note"] = f"{type(exc).__name__}: {exc}"
        return [row]


_KEYS: dict[str, tuple[str, ...]] = {
    "variation-sweep": ("case", "dim", "horizon", "q", "variation_max",
                        "witness_value", "variation_dyadic", "passed", "note"),
    "fluctuation-vs-bound": ("case", "dim", "p", "K", "horizon", "eps", "norm_x",
                             "measured_count", "bound", "passed", "note"),
    "metastability": ("case", "dim", "horizon", "eps", "g", "rate", "exhausted",
                      "fluctuation_count", "conversion_bound", "passed", "note"),
    "dyadic-constants": ("case", "p", "support", "levels", "kind", "ratio",
                         "bound", "passed", "note"),
    "counterexample-suite": ("p", "u", "horizon", "eps", "rate_lower_bound",
                             "rate_exhausted", "fluctuation_count", "required",
                             "passed", "note"),
    "convexity-audit": ("case", "p", "K", "dim", "trials", "admissible",
                        "violations", "passed", "note"),
}


def _finish_row(kind: str, row: dict[str, Any]) -> dict[str, Any]:
    keys = _KEYS[kind]
    row.setdefault("note", "")
    missing = [k for k in keys if k not in row]
    if missing:
        raise RuntimeError(f"row for {kind} missing columns {missing}")
    return {key: row[key] for key in keys}


def _variation_case(idx: int, rng: np.random.Generator, scenario: Scenario) -> list[dict[str, Any]]:
    par = scenario.params
    dim = par["dims"][idx % len(par["dims"])]
    horizon = par["horizon"]
    op, x = _random_rotation(rng, dim, 2.0)
    traj = ergodic_averages(op, x, horizon)
    sub = _dyadic_indices(horizon)
    rows = []
    for q in par["q_grid"]:
        value, witness = max_p_variation(traj, q)
        realized = p_variation_along(traj, list(witness), q)
        along_dyadic = p_variation_along(traj, sub, q)
        passed = (abs(realized - value) <= _WITNESS_TOL * max(1.0, value)
                  and along_dyadic <= value + _MONOTONE_TOL)
        rows.append(_finish_row("variation-sweep", {
            "case": idx, "dim": dim, "horizon": horizon, "q": q,
            "variation_max": float(value), "witness_value": float(realized),
            "variation_dyadic": float(along_dyadic), "passed": bool(passed),
        }))
    return rows


def _fluctuation_case(idx: int, rng: np.random.Generator, scenario: Scenario) -> list[dict[str, Any]]:
    par = scenario.params
    desc: SpaceDescriptor = par["descriptor"]
    dim = par["dims"][idx % len(par["dims"])]
    horizon = par["horizon"]
    if par["include_constant"] and idx == 0:
        op = RotationProduct(np.zeros(dim))
        x = Vector(np.full(dim, dim ** (-1.0 / desc.p), dtype=np.complex128), p=desc.p)
    else:
        op, x = _random_rotation(rng, dim, desc.p)
    traj = ergodic_averages(op, x, horizon)
    norm_x = x.norm()
    rows = []
    for eps in par["eps_grid"]:
        measured = count_fluctuations(traj, eps).count
        bound = fluctuation_bound_nonexpansive(norm_x, eps, desc)
        rows.append(_finish_row("fluctuation-vs-bound", {
            "case": idx, "dim": dim, "p": desc.p, "K": desc.K, "horizon": horizon,
            "eps": float(eps), "norm_x": float(norm_x),
            "measured_count": int(measured), "bound": int(bound),
            "passed": bool(measured <= bound),
        }))
    return rows


def _metastability_case(idx: int, rng: np.random.Generator, scenario: Scenario) -> list[dict[str, Any]]:
    par = scenario.params
    dim = par["dims"][idx % len(par["dims"])]
    horizon = par["horizon"]
    gname = par["g"]
    g = G_SELECTORS[gname]
    op, x = _random_rotation(rng, dim, 2.0)
    traj = ergodic_averages(op, x, horizon)
    rows = []
    for eps in par["eps_grid"]:
        count = count_fluctuations(traj, eps).count
        conversion = metastability_from_fluctuations(count, g)
        note = ""
        try:
            rate = metastability_rate(traj, MetastabilityQuery(eps, g))
            exhausted = False
        except HorizonExhaustedError as exc:
            rate = exc.verified_lower_bound
            exhausted = True
            note = "horizon-exhausted"
        passed = (not exhausted) and rate <= conversion
        rows.append(_finish_row("metastability", {
            "case": idx, "dim": dim, "horizon": horizon, "eps": float(eps),
            "g": gname, "rate": int(rate), "exhausted": bool(exhausted),
            "fluctuation_count": int(count), "conversion_bound": int(conversion),
            "passed": bool(passed), "note": note,
        }))
    return rows


def _dyadic_case(idx: int, rng: np.random.Generator, scenario: Scenario) -> list[dict[str, Any]]:
    par = scenario.params
    p, support, levels = par["p"], par["support"], par["levels"]
    lo = int(rng.integers(-16, 17))
    values = rng.standard_normal(support) + 1j * rng.standard_normal(support)
    f = SeqFunction(lo, values, p=p)
    level_list = list(range(0, levels + 1))
    ts = [2**k - 1 for k in range(1, levels + 1)]
    rows = []
    for kind_name, kwargs in (
        ("martingale", {"levels": level_list}),
        ("average_vs_expectation", {"ts": ts}),
        ("short_increments", {"ts": ts}),
    ):
        rep = verify_decomposition_inequalities(f, kind_name, **kwargs)
        if kind_name == "martingale" and p == 2.0:
            bound = 1.0 + _RATIO_SLACK
        else:
            bound = par["ratio_cap"]
        rows.append(_finish_row("dyadic-constants", {
            "case": idx, "p": p, "support": support, "levels": levels,
            "kind": kind_name, "ratio": float(rep.ratio), "bound": float(bound),
            "passed": bool(rep.ratio <= bound),
        }))
    return rows


def _counterexample_case(idx: int, rng: np.random.Generator, scenario: Scenario) -> list[dict[str, Any]]:
    p = scenario.params["p_grid"][idx]
    res = verify_metastability_lower_bound(p)
    passed = res.rate_lower_bound >= res.required and res.fluctuation_count >= res.required
    return [_finish_row("counterexample-suite", {
        "p": res.p, "u": res.u, "horizon": res.horizon, "eps": res.eps,
        "rate_lower_bound": int(res.rate_lower_bound),
        "rate_exhausted": bool(res.rate_exhausted),
        "fluctuation_count": int(res.fluctuation_count),
        "required": int(res.required), "passed": bool(passed),
    })]


def _convexity_case(idx: int, rng: np.random.Generator, scenario: Scenario) -> list[dict[str, Any]]:
    audit = scenario.params["audits"][idx]
    desc: SpaceDescriptor = audit["descriptor"]
    seed = int(rng.integers(0, 2**31 - 1))
    violations = check_uniform_convexity(desc, audit["dim"], trials=audit["trials"], seed=seed)
    admissible = desc.admissible
    passed = violations == 0 if admissible else violations > 0
    return [_finish_row("convexity-audit", {
        "case": idx, "p": desc.p, "K": desc.K, "dim": audit["dim"],
        "trials": audit["trials"], "admissible": bool(admissible),
        "violations": int(violations), "passed": bool(passed),
    })]


_RUNNERS: dict[str, Callable[[int, np.random.Generator, Scenario], list[dict[str, Any]]]] = {
    "variation-sweep": _variation_case,
    "fluctuation-vs-bound": _fluctuation_case,
    "metastability": _metastability_case,
    "dyadic-constants": _dyadic_case,
    "counterexample-suite": _counterexample_case,
    "convexity-audit": _convexity_case,
}


def _case_count(scenario: Scenario) -> int:
    if scenario.kind == "counterexample-suite":
        return len(scenario.params["p_grid"])
    if scenario.kind == "convexity-audit":
        return len(scenario.params["audits"])
    return scenario.params["cases"]


def _scenario_echo(scenario: Scenario) -> dict[str, Any]:
    params: dict[str, Any] = {}
    for key, val in scenario.params.items():
        if key == "descriptor":
            params["p"], params["K"] = val.p, val.K
        elif key == "audits":
            params["audits"] = [
                {"p": a["descriptor"].p, "K": a["descriptor"].K,
                 "dim": a["dim"], "trials": a["trials"]}
                for a in val
            ]
        else:
            params[key] = val
    return {"name": scenario.name, "kind": scenario.kind,
            "seed": scenario.seed, "params": params}


def run_scenario(scenario: Scenario) -> Report:
    """Execute every case of the scenario in declared order."""
    runner = _RUNNERS[scenario.kind]
    count = _case_count(scenario)
    rngs = _case_rngs(scenario.seed, count)
    keys = _KEYS[scenario.kind]
    rows = [row for idx in range(count)
            for row in _run_case_guard(lambda: runner(idx, rngs[idx], scenario), keys)]
    environment = {
        "version": __version__,
        "numpy": np.__version__,
        "seed": scenario.seed,
        "generator": "PCG64 (one SeedSequence child per case)",
        "float_format": ".17g",
        "tolerances": {
            "ratio_slack": _RATIO_SLACK,
            "witness_match": _WITNESS_TOL,
            "variation_monotonicity": _MONOTONE_TOL,
        },
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    return Report(scenario=_scenario_echo(scenario), rows=rows, environment=environment)


# ---------------------------------------------------------------------------
# emission


def _json_scalar(val: Any) -> str:
    if isinstance(val, bool):
        return "true" if val else "false"
    if isinstance(val, (int, np.integer)):
        return str(int(val))
    if isinstance(val, (float, np.floating)):
        val = float(val)
        if not math.isfinite(val):
            raise InvalidInputError(f"cannot serialize non-finite number {val}")
        return f"{val:.17g}"
    if isinstance(val, str):
        return json.dumps(val)
    if val is None:
        return "null"
    raise InvalidInputError(f"cannot serialize {type(val).__name__} into a report")


def _json_value(val: Any, indent: int) -> str:
    pad, inner = "  " * indent, "  " * (indent + 1)
    if isinstance(val, Mapping):
        if not val:
            return "{}"
        parts = [f"{inner}{json.dumps(str(k))}: {_json_value(v, indent + 1)}"
                 for k, v in val.items()]
        return "{\n" + ",\n".join(parts) + f"\n{pad}}}"
    if isinstance(val, (list, tuple)):
        if not len(val):
            return "[]"
        parts = [f"{inner}{_json_value(v, indent + 1)}" for v in val]
        return "[\n" + ",\n".join(parts) + f"\n{pad}]"
    return _json_scalar(val)


def emit_report(report: Report, fmt: str) -> str:
    """Render a report as a JSON document or an RFC-4180 CSV table.

    Every float is printed with 17 significant digits, which round-trips
    double precision exactly; this is why the JSON body is assembled here
    instead of through json.dumps (whose float formatting is not
    configurable). Parsing the output back with json.loads is covered by
    the test suite.
    """
    if fmt == "json":
        doc = {"scenario": report.scenario, "rows": report.rows,
               "environment": report.environment}
        return _json_value(doc, 0) + "\n"
    if fmt == "csv":
        import csv
        import io

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\r\n")
        kind = report.scenario.get("kind")
        if kind in _KEYS:
            header = list(_KEYS[kind])
        elif report.rows:
            header = list(report.rows[0].keys())
        else:
            raise InvalidInputError("cannot emit CSV: no rows and no known scenario kind "
                                    "to take the column set from")
        writer.writerow(header)
        for row in report.rows:
            if list(row.keys()) != header:
                raise InvalidInputError("rows disagree on columns; cannot emit CSV")
            cells = []
            for val in row.values():
                if isinstance(val, bool):
                    cells.append("true" if val else "false")
                elif isinstance(val, (int, np.integer)):
                    cells.append(str(int(val)))
                elif isinstance(val, (float, np.floating)):
                    cells.append(f"{float(val):.17g}")
                else:
                    cells.append(str(val))
            writer.writerow(cells)
        return buf.getvalue()
    raise InvalidInputError(f"unknown report format {fmt!r}; known: json, csv")


def _safe_name(name: str) -> str:
    return "".join(ch if (ch.isalnum() or ch in "-_.") else "-" for ch in name) or "report"


def write_report(report: Report, out_dir: str, fmt: str) -> str:
    """Write the rendered report under out_dir as <name>.<fmt>, atomically:
    the content lands in a temp file first and is renamed into place, so a
    failed run never leaves a partial report."""
    body = emit_report(report, fmt)
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{_safe_name(report.scenario['name'])}.{fmt}")
    fd, tmp = tempfile.mkstemp(dir=out_dir, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(body)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return path


# ---------------------------------------------------------------------------
# built-in corpus


def builtin_corpus(seed: int | None = None) -> list[Scenario]:
    """One small deterministic scenario per kind, used by `verify-all`."""
    docs: list[dict[str, Any]] = [
        {"name": "builtin-variation-sweep", "kind": "variation-sweep",
         "dims": [2, 4], "horizon": 128, "q_grid": [2.0, 3.0], "cases": 4},
        {"name": "builtin-fluctuation-vs-bound", "kind": "fluctuation-vs-bound",
         "preset": "hilbert", "dims": [3], "horizon": 256,
         "eps_grid": [0.75, 0.5], "cases": 6, "include_constant": True},
        {"name": "builtin-metastability", "kind": "metastability",
         "dims": [3], "horizon": 512, "eps_grid": [0.5], "g": "double", "cases": 4},
        {"name": "builtin-dyadic-constants", "kind": "dyadic-constants",
         "p": 2.0, "support": 48, "levels": 5, "cases": 6, "ratio_cap": 64.0},
        {"name": "builtin-counterexample-suite", "kind": "counterexample-suite",
         "p_grid": [2, 3]},
        {"name": "builtin-convexity-audit", "kind": "convexity-audit",
         "audits": [
             {"p": 2.0, "K": 0.125, "dim": 2, "trials": 1500},
             {"p": 3.0, "K": 1.0 / 24.0, "dim": 2, "trials": 1500},
             {"p": 2.0, "K": 1.0, "dim": 2, "trials": 1500},
         ]},
    ]
    return [scenario_from_mapping(doc, seed) for doc in docs]
