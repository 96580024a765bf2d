"""Declarative experiment scenarios and machine-readable reports.

A scenario is a single JSON document: a name, an experiment kind, a seed,
and kind-specific parameters. Unknown keys are errors, not warnings, so a
config file stays a faithful record of what ran. Execution is deterministic
given (config, seed): randomness comes from numpy's PCG64, seeded per case
by spawning one SeedSequence child per declared case, so report rows are
identical across runs.

Each kind is one entry of `_KINDS`: its config keys (parser, default,
checks), report columns, case runner, case count and `verify-all` member.

Reports carry one row per case with the measured values, the theoretical
or configured bounds, and a pass flag recomputable from the row's own
columns. A horizon exhaustion inside an experiment flags the row as failed
(exit status 1) rather than aborting the run; the one exception is the
counterexample suite, where running out of horizon is the expected outcome
and the verified lower bound is the measurement itself. A library error in
a case, or a non-finite value in any of its rows, turns the case into one
failed row that carries the case index and names the cause in `note`.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import tempfile
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Any, Callable, Iterable, Mapping, NamedTuple

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


G_SELECTORS: dict[str, Callable[[int], int]] = {
    "successor": g_successor,
    "double": g_double,
    "next-power-of-two": g_next_power_of_two,
}

_RATIO_SLACK = 1e-9  # slack on the p=2 martingale ratio bound
_WITNESS_TOL = 1e-9  # witness must reproduce the DP value this closely
_MONOTONE_TOL = 1e-12  # sub-sequence variation vs maximum

# Cap on horizon * max(dims): a trajectory of 2^24 complex slots is 256 MiB,
# and building one holds about three arrays of that size. The same cap bounds
# the dyadic levels, the counterexample exponents and the audit samples.
MAX_TRAJECTORY_SLOTS = 1 << 24
# verify_metastability_lower_bound(p) builds u = 2^p slots over 2^u rows
_MAX_SUITE_P = max(p for p in range(2, 6) if 2**p << 2**p <= MAX_TRAJECTORY_SLOTS)


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
# config values: a parser takes (key, raw value) and returns the value; a
# check takes (key, value, params validated so far) and returns the value
# to store. Both raise ConfigError.


def _of(*types: type) -> Callable[[str, Any], Any]:
    """Parser for a value of one of `types`; a boolean is not an integer."""
    def parse(key: str, val: Any) -> Any:
        if types == (int,) and isinstance(val, bool):
            raise ConfigError(f"key {key!r}: expected an integer, got a boolean")
        if not isinstance(val, types):
            raise ConfigError(f"key {key!r}: expected {'/'.join(t.__name__ for t in types)}, "
                              f"got {type(val).__name__}")
        return val
    return parse


def _num(key: str, val: Any) -> float:
    """A finite float from an int or a float: booleans, NaN, infinities and
    integers past the float range are errors."""
    if isinstance(val, bool):
        raise ConfigError(f"key {key!r}: expected a number, got a boolean")
    val = _of(int, float)(key, val)
    if isinstance(val, float) and not math.isfinite(val):
        raise ConfigError(f"key {key!r}: non-finite number {val}")
    try:
        return float(val)
    except OverflowError:
        raise ConfigError(f"key {key!r}: integer too large for a float "
                          f"({val.bit_length()} bits)") from None


def _count(key: str, val: Any) -> int:
    val = int(_of(int)(key, val))
    if val < 1:
        raise ConfigError(f"key {key!r}: must be >= 1, got {val}")
    return val


def _list(key: str, val: Any) -> list:
    if not _of(list)(key, val):
        raise ConfigError(f"key {key!r}: must be a nonempty list")
    return val


def _nums(key: str, val: Any) -> list[float]:
    out = []
    for item in _list(key, val):
        if isinstance(item, bool) or not isinstance(item, (int, float)):
            raise ConfigError(f"key {key!r}: entries must be numbers, got {item!r}")
        out.append(_num(key, item))
        if out[-1] <= 0:
            raise ConfigError(f"key {key!r}: entries must be > 0, got {item}")
    return out


def _counts(key: str, val: Any) -> list[int]:
    for item in _list(key, val):
        if isinstance(item, bool) or not isinstance(item, int):
            raise ConfigError(f"key {key!r}: entries must be integers, got {item!r}")
        if item < 1:
            raise ConfigError(f"key {key!r}: entries must be >= 1, got {item}")
    return [int(item) for item in val]


def _audits(key: str, val: Any) -> list[dict[str, Any]]:
    out = []
    for idx, entry in enumerate(_list(key, val)):
        where = f"{key}[{idx}]"
        if not isinstance(entry, Mapping):
            raise ConfigError(f"{where}: expected an object")
        audit = _fields(entry, _AUDIT_KEYS, where)
        try:
            out.append({"descriptor": SpaceDescriptor(audit.pop("p"), audit.pop("K")), **audit})
        except InvalidInputError as exc:
            raise ConfigError(f"{where}: {exc}") from exc
    return out


def _rule(ok: Callable[[Any, Mapping[str, Any]], bool], message: str) -> Callable:
    """A check that raises "key 'k': <message>" (with {val} filled in) unless ok(value, params)."""
    def check(key: str, val: Any, par: Mapping[str, Any]) -> Any:
        if not ok(val, par):
            raise ConfigError(f"key {key!r}: " + message.format(val=val))
        return val
    return check


def _known_kind(key: str, kind: str, par: Mapping[str, Any]) -> str:
    if kind not in _KINDS:
        raise ConfigError(f"unknown kind {kind!r}; known: {', '.join(_KINDS)}")
    return kind


def _preset_descriptor(key: str, p: float | None, par: Mapping[str, Any]) -> SpaceDescriptor:
    try:
        return descriptor_preset(par["preset"], p)
    except InvalidInputError as exc:
        raise ConfigError(str(exc)) from exc


def _slot_cap(key: str, horizon: int, par: Mapping[str, Any]) -> int:
    slots = horizon * max(par["dims"])
    if slots > MAX_TRAJECTORY_SLOTS:
        raise ConfigError(f"key 'horizon': horizon * max(dims) = {slots} "
                          f"exceeds the cap of {MAX_TRAJECTORY_SLOTS} trajectory slots")
    return horizon


class _Key(NamedTuple):
    """A config key: parser, default, checks, and the params name if not the key."""

    parse: Callable[[str, Any], Any]
    default: Any = ...  # required
    checks: tuple[Callable, ...] = ()
    store: str | None = None


def _fields(doc: Mapping[str, Any], keys: Mapping[str, _Key], where: str | None = None,
            also: Iterable[str] = ()) -> dict[str, Any]:
    """Validate doc's keys in table order. With `where`, keys outside `keys`
    and `also` are rejected first, naming `where` in the message."""
    if where is not None:
        unknown = sorted(set(doc) - set(keys) - set(also))
        if unknown:
            raise ConfigError(f"unknown key(s) in {where}: {', '.join(unknown)}; "
                              f"allowed: {', '.join(sorted({*keys, *also}))}")
    params: dict[str, Any] = {}
    for key, spec in keys.items():
        if key not in doc and spec.default is ...:
            raise ConfigError(f"missing required key {key!r}")
        val = doc.get(key, spec.default)
        if key in doc or val is not None:
            val = spec.parse(key, val)
        for check in spec.checks:
            val = check(key, val, params)
        params[spec.store or key] = val
    return params


# ---------------------------------------------------------------------------
# case runners: (case index, case rng, params) -> rows


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


def _variation_case(idx: int, rng: np.random.Generator, par: Mapping[str, Any]) -> list[dict[str, Any]]:
    dim = par["dims"][idx % len(par["dims"])]
    horizon = par["horizon"]
    op, x = _random_rotation(rng, dim, 2.0)
    traj = ergodic_averages(op, x, horizon)
    sub = [2**k for k in range(horizon.bit_length())]  # dyadic times 1, 2, 4, ... <= horizon
    rows = []
    for q in par["q_grid"]:
        value, witness = max_p_variation(traj, q)
        realized = p_variation_along(traj, list(witness), q)
        along_dyadic = p_variation_along(traj, sub, q)
        passed = (abs(realized - value) <= _WITNESS_TOL * max(1.0, value)
                  and along_dyadic <= value + _MONOTONE_TOL)
        rows.append({
            "case": idx, "dim": dim, "horizon": horizon, "q": q,
            "variation_max": float(value), "witness_value": float(realized),
            "variation_dyadic": float(along_dyadic), "passed": bool(passed),
        })
    return rows


def _fluctuation_case(idx: int, rng: np.random.Generator, par: Mapping[str, Any]) -> list[dict[str, Any]]:
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
        rows.append({
            "case": idx, "dim": dim, "p": desc.p, "K": desc.K, "horizon": horizon,
            "eps": float(eps), "norm_x": float(norm_x),
            "measured_count": int(measured), "bound": int(bound),
            "passed": bool(measured <= bound),
        })
    return rows


def _metastability_case(idx: int, rng: np.random.Generator, par: Mapping[str, Any]) -> list[dict[str, Any]]:
    dim = par["dims"][idx % len(par["dims"])]
    horizon = par["horizon"]
    g = G_SELECTORS[par["g"]]
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
        rows.append({
            "case": idx, "dim": dim, "horizon": horizon, "eps": float(eps),
            "g": par["g"], "rate": int(rate), "exhausted": bool(exhausted),
            "fluctuation_count": int(count), "conversion_bound": int(conversion),
            "passed": bool(passed), "note": note,
        })
    return rows


def _dyadic_case(idx: int, rng: np.random.Generator, par: Mapping[str, Any]) -> list[dict[str, Any]]:
    p, support, levels = par["p"], par["support"], par["levels"]
    lo = int(rng.integers(-16, 17))
    values = rng.standard_normal(support) + 1j * rng.standard_normal(support)
    f = SeqFunction(lo, values, p=p)
    ts = [2**k - 1 for k in range(1, levels + 1)]
    rows = []
    for kind_name, kwargs in (
        ("martingale", {"levels": list(range(levels + 1))}),
        ("average_vs_expectation", {"ts": ts}),
        ("short_increments", {"ts": ts}),
    ):
        rep = verify_decomposition_inequalities(f, kind_name, **kwargs)
        bound = 1.0 + _RATIO_SLACK if kind_name == "martingale" and p == 2.0 else par["ratio_cap"]
        rows.append({
            "case": idx, "p": p, "support": support, "levels": levels,
            "kind": kind_name, "ratio": float(rep.ratio), "bound": float(bound),
            "passed": bool(rep.ratio <= bound),
        })
    return rows


def _counterexample_case(idx: int, rng: np.random.Generator, par: Mapping[str, Any]) -> list[dict[str, Any]]:
    res = verify_metastability_lower_bound(par["p_grid"][idx])
    passed = res.rate_lower_bound >= res.required and res.fluctuation_count >= res.required
    return [{
        "p": res.p, "u": res.u, "horizon": res.horizon, "eps": res.eps,
        "rate_lower_bound": int(res.rate_lower_bound),
        "rate_exhausted": bool(res.rate_exhausted),
        "fluctuation_count": int(res.fluctuation_count),
        "required": int(res.required), "passed": bool(passed),
    }]


def _convexity_case(idx: int, rng: np.random.Generator, par: Mapping[str, Any]) -> list[dict[str, Any]]:
    audit = par["audits"][idx]
    desc: SpaceDescriptor = audit["descriptor"]
    seed = int(rng.integers(0, 2**31 - 1))
    violations = check_uniform_convexity(desc, audit["dim"], trials=audit["trials"], seed=seed)
    admissible = desc.admissible
    passed = violations == 0 if admissible else violations > 0
    return [{
        "case": idx, "p": desc.p, "K": desc.K, "dim": audit["dim"],
        "trials": audit["trials"], "admissible": bool(admissible),
        "violations": int(violations), "passed": bool(passed),
    }]


# ---------------------------------------------------------------------------
# the kinds, and config validation against them


class _Kind(NamedTuple):
    keys: dict[str, _Key]  # in validation (and echo) order; a check sees the keys before it
    columns: list[str]  # of every report row
    run: Callable[[int, np.random.Generator, Mapping[str, Any]], list[dict[str, Any]]]
    count: Callable[[Mapping[str, Any]], int]  # cases, from the validated params
    builtin: dict[str, Any]  # the kind's `verify-all` member, over the defaults


_COMMON = {
    "name": _Key(_of(str)),
    "kind": _Key(_of(str), checks=(_known_kind,)),
    "seed": _Key(_of(int), 0, (_rule(lambda seed, par: seed >= 0, "must be >= 0, got {val}"),)),
    "out": _Key(_of(str), None),
}

_AUDIT_KEYS = {
    "p": _Key(_num),
    "K": _Key(_num),
    "dim": _Key(_count, 2),
    "trials": _Key(_count, 2000, (_rule(
        lambda trials, par: trials * par["dim"] <= MAX_TRAJECTORY_SLOTS,
        f"dim * trials exceeds the cap of {MAX_TRAJECTORY_SLOTS} sample slots"),)),
}

_KINDS: dict[str, _Kind] = {
    "variation-sweep": _Kind(
        {"dims": _Key(_counts, [4]),
         "horizon": _Key(_count, 256, (_slot_cap,)),
         "q_grid": _Key(_nums, [2.0], (_rule(lambda qs, par: min(qs) >= 1.0,
                                             "variation exponents must be >= 1"),)),
         "cases": _Key(_count, 8)},
        "case dim horizon q variation_max witness_value variation_dyadic passed note".split(),
        _variation_case, lambda par: par["cases"],
        {"dims": [2, 4], "horizon": 128, "q_grid": [2.0, 3.0], "cases": 4}),
    "fluctuation-vs-bound": _Kind(
        {"preset": _Key(_of(str), "hilbert"),
         "p": _Key(_num, None, (_preset_descriptor,), store="descriptor"),
         "dims": _Key(_counts, [4]),
         "horizon": _Key(_count, 512, (_slot_cap,)),
         "eps_grid": _Key(_nums, [0.5, 0.25], (_rule(
             lambda grid, par: max(grid) < 2.0,
             "points are normalized to ||x|| = 1, so the bound needs eps < 2"),)),
         "cases": _Key(_count, 8),
         "include_constant": _Key(_of(bool), False)},
        "case dim p K horizon eps norm_x measured_count bound passed note".split(),
        _fluctuation_case, lambda par: par["cases"],
        {"preset": "hilbert", "dims": [3], "horizon": 256, "eps_grid": [0.75, 0.5], "cases": 6,
         "include_constant": True}),
    "metastability": _Kind(
        {"dims": _Key(_counts, [3]),
         "horizon": _Key(_count, 512, (_slot_cap,)),
         "eps_grid": _Key(_nums, [0.25]),
         "g": _Key(_of(str), "double", (_rule(lambda g, par: g in G_SELECTORS, "unknown selector "
                                              "{val!r}; known: " + ", ".join(G_SELECTORS)),)),
         "cases": _Key(_count, 4)},
        "case dim horizon eps g rate exhausted fluctuation_count conversion_bound passed note".split(),
        _metastability_case, lambda par: par["cases"],
        {"dims": [3], "horizon": 512, "eps_grid": [0.5], "g": "double", "cases": 4}),
    "dyadic-constants": _Kind(
        {"p": _Key(_num, 2.0, (_rule(lambda p, par: p >= 1, "must be >= 1, got {val}"),)),
         "support": _Key(_count, 64),
         # the conditional expectation at level L spans at least 2^L rows
         "levels": _Key(_count, 6, (_rule(
             lambda levels, par: par["support"] + 2 ** min(levels + 1, 25) <= MAX_TRAJECTORY_SLOTS,
             f"support + 2^(levels + 1) > {MAX_TRAJECTORY_SLOTS} slots"),)),
         "cases": _Key(_count, 16),
         "ratio_cap": _Key(_num, 64.0, (_rule(lambda cap, par: cap > 0, "must be > 0, got {val}"),))},
        "case p support levels kind ratio bound passed note".split(),
        _dyadic_case, lambda par: par["cases"],
        {"p": 2.0, "support": 48, "levels": 5, "cases": 6, "ratio_cap": 64.0}),
    "counterexample-suite": _Kind(
        {"p_grid": _Key(_counts, [2, 3], (
            _rule(lambda grid, par: min(grid) >= 2, "entries must be integers >= 2"),
            _rule(lambda grid, par: max(grid) <= _MAX_SUITE_P,
                  f"entries must be <= {_MAX_SUITE_P}: p = {_MAX_SUITE_P + 1} needs u = 2^p slots "
                  f"over 2^u rows, above the cap of {MAX_TRAJECTORY_SLOTS} trajectory slots")))},
        "p u horizon eps rate_lower_bound rate_exhausted fluctuation_count required passed note".split(),
        _counterexample_case, lambda par: len(par["p_grid"]),
        {"p_grid": [2, 3]}),
    "convexity-audit": _Kind(
        {"audits": _Key(_audits, [{"p": 2.0, "K": 0.125, "dim": 2},
                                  {"p": 3.0, "K": 1.0 / 24.0, "dim": 2},
                                  {"p": 2.0, "K": 1.0, "dim": 2}])},
        "case p K dim trials admissible violations passed note".split(),
        _convexity_case, lambda par: len(par["audits"]),
        {"audits": [{"p": 2.0, "K": 0.125, "dim": 2, "trials": 1500},
                    {"p": 3.0, "K": 1.0 / 24.0, "dim": 2, "trials": 1500},
                    {"p": 2.0, "K": 1.0, "dim": 2, "trials": 1500}]}),
}

SCENARIO_KINDS = tuple(_KINDS)


def scenario_from_mapping(doc: Mapping[str, Any], seed_override: int | None = None) -> Scenario:
    """Validate a parsed config document into a Scenario."""
    if not isinstance(doc, Mapping):
        raise ConfigError(f"config must be a JSON object, got {type(doc).__name__}")
    head = _fields(doc, _COMMON)
    params = _fields(doc, _KINDS[head["kind"]].keys, f"{head['kind']} config", also=_COMMON)
    seed = head["seed"] if seed_override is None else int(seed_override)
    return Scenario(name=head["name"], kind=head["kind"], seed=seed, params=params, out=head["out"])


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
    except ValueError as exc:  # JSONDecodeError, or an integer literal past int's digit limit
        raise ConfigError(f"config {path!r} is not valid JSON: {exc}") from exc
    return scenario_from_mapping(doc, seed_override)


# ---------------------------------------------------------------------------
# execution


def _case_rows(kind: _Kind, idx: int, rng: np.random.Generator,
               par: Mapping[str, Any]) -> list[dict[str, Any]]:
    """Run one case and order its rows by the kind's columns. A library
    error, or a non-finite value in any row, turns the case into one flagged
    row that carries the case index and the cause."""
    try:
        rows = [{"note": "", **row} for row in kind.run(idx, rng, par)]
        for row in rows:
            missing = [col for col in kind.columns if col not in row]
            if missing:
                raise RuntimeError(f"row missing columns {missing}")
            for col, val in row.items():
                if isinstance(val, float) and not math.isfinite(val):
                    raise InvalidInputError(f"non-finite {col} = {val}")
        return [{col: row[col] for col in kind.columns} for row in rows]
    except ErgolabError as exc:
        flagged = {"case": idx, "passed": False, "note": f"{type(exc).__name__}: {exc}"}
        return [{col: flagged.get(col, 0) for col in kind.columns}]


def _echo(params: Mapping[str, Any]) -> dict[str, Any]:
    """Params as a report shows them: a SpaceDescriptor becomes its p and K."""
    out: dict[str, Any] = {}
    for key, val in params.items():
        if isinstance(val, SpaceDescriptor):
            out["p"], out["K"] = val.p, val.K
        elif isinstance(val, list):
            out[key] = [_echo(item) if isinstance(item, Mapping) else item for item in val]
        else:
            out[key] = val
    return out


def run_scenario(scenario: Scenario) -> Report:
    """Execute every case of the scenario in declared order."""
    kind = _KINDS[scenario.kind]
    seeds = np.random.SeedSequence(scenario.seed)
    rows = []
    for idx in range(kind.count(scenario.params)):
        rng = np.random.Generator(np.random.PCG64(seeds.spawn(1)[0]))  # spawned as the case runs
        rows += _case_rows(kind, idx, rng, scenario.params)
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
    echo = {"name": scenario.name, "kind": scenario.kind, "seed": scenario.seed,
            "params": _echo(scenario.params)}
    return Report(scenario=echo, rows=rows, environment=environment)


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
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\r\n")
        kind = report.scenario.get("kind")
        if kind in _KINDS:
            header = list(_KINDS[kind].columns)
        elif report.rows:
            header = list(report.rows[0].keys())
        else:
            raise InvalidInputError("cannot emit CSV: no rows and no known scenario kind "
                                    "to take the column set from")
        writer.writerow(header)
        for row in report.rows:
            if list(row.keys()) != header:
                raise InvalidInputError("rows disagree on columns; cannot emit CSV")
            # strings go in bare: quoting them is the CSV writer's job
            writer.writerow([val if isinstance(val, str) else _json_scalar(val)
                             for val in row.values()])
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
    return [scenario_from_mapping({"name": f"builtin-{name}", "kind": name, **kind.builtin}, seed)
            for name, kind in _KINDS.items()]
