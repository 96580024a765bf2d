"""Pinned config validation: the exact ConfigError text of every validator
branch (including which fault wins when a document has two) and the exact
scenario echo of valid documents. None of these depends on the platform."""

import json

import pytest

from ergolab.scenarios import (
    SCENARIO_KINDS,
    ConfigError,
    builtin_corpus,
    run_scenario,
    scenario_from_mapping,
)

MESSAGES = [
    pytest.param(["variation-sweep"],
                 'config must be a JSON object, got list',
                 id='not-an-object'),
    pytest.param({"kind": "variation-sweep"},
                 "missing required key 'name'",
                 id='name-missing'),
    pytest.param({"name": 1, "kind": "variation-sweep"},
                 "key 'name': expected str, got int",
                 id='name-type'),
    pytest.param({"name": "n"},
                 "missing required key 'kind'",
                 id='kind-missing'),
    pytest.param({"name": "n", "kind": 3},
                 "key 'kind': expected str, got int",
                 id='kind-type'),
    pytest.param({"name": "n", "kind": "bogus"},
                 "unknown kind 'bogus'; known: variation-sweep, fluctuation-vs-bound, metastability, dyadic-constants, counterexample-suite, convexity-audit",
                 id='kind-unknown'),
    pytest.param({"name": "n", "kind": "variation-sweep", "seed": True},
                 "key 'seed': expected an integer, got a boolean",
                 id='seed-bool'),
    pytest.param({"name": "n", "kind": "variation-sweep", "seed": 1.5},
                 "key 'seed': expected int, got float",
                 id='seed-float'),
    pytest.param({"name": "n", "kind": "variation-sweep", "seed": -1},
                 "key 'seed': must be >= 0, got -1",
                 id='seed-negative'),
    pytest.param({"name": "n", "kind": "variation-sweep", "out": 5},
                 "key 'out': expected str, got int",
                 id='out-type'),
    pytest.param({"name": "n", "kind": "variation-sweep", "out": None},
                 "key 'out': expected str, got NoneType",
                 id='out-null'),
    pytest.param({"name": "n", "kind": "variation-sweep", "zeta": 1, "horizont": 4},
                 'unknown key(s) in variation-sweep config: horizont, zeta; allowed: cases, dims, horizon, kind, name, out, q_grid, seed',
                 id='unknown-keys-sorted'),
    pytest.param({"name": "n", "kind": "variation-sweep", "dims": 4},
                 "key 'dims': expected list, got int",
                 id='dims-type'),
    pytest.param({"name": "n", "kind": "variation-sweep", "dims": []},
                 "key 'dims': must be a nonempty list",
                 id='dims-empty'),
    pytest.param({"name": "n", "kind": "variation-sweep", "dims": [2.0]},
                 "key 'dims': entries must be integers, got 2.0",
                 id='dims-float-entry'),
    pytest.param({"name": "n", "kind": "variation-sweep", "dims": [True]},
                 "key 'dims': entries must be integers, got True",
                 id='dims-bool-entry'),
    pytest.param({"name": "n", "kind": "variation-sweep", "dims": [3, 0]},
                 "key 'dims': entries must be >= 1, got 0",
                 id='dims-zero-entry'),
    pytest.param({"name": "n", "kind": "variation-sweep", "horizon": "64"},
                 "key 'horizon': expected int, got str",
                 id='horizon-type'),
    pytest.param({"name": "n", "kind": "variation-sweep", "horizon": True},
                 "key 'horizon': expected an integer, got a boolean",
                 id='horizon-bool'),
    pytest.param({"name": "n", "kind": "variation-sweep", "horizon": 0},
                 "key 'horizon': must be >= 1, got 0",
                 id='horizon-zero'),
    pytest.param({"name": "n", "kind": "variation-sweep", "dims": [2, 5], "horizon": 4000000},
                 "key 'horizon': horizon * max(dims) = 20000000 exceeds the cap of 16777216 trajectory slots",
                 id='horizon-slot-cap'),
    pytest.param({"name": "n", "kind": "variation-sweep", "q_grid": 2.0},
                 "key 'q_grid': expected list, got float",
                 id='q-grid-type'),
    pytest.param({"name": "n", "kind": "variation-sweep", "q_grid": []},
                 "key 'q_grid': must be a nonempty list",
                 id='q-grid-empty'),
    pytest.param({"name": "n", "kind": "variation-sweep", "q_grid": ["2"]},
                 "key 'q_grid': entries must be numbers, got '2'",
                 id='q-grid-str-entry'),
    pytest.param({"name": "n", "kind": "variation-sweep", "q_grid": [False]},
                 "key 'q_grid': entries must be numbers, got False",
                 id='q-grid-bool-entry'),
    pytest.param({"name": "n", "kind": "variation-sweep", "q_grid": [float("nan")]},
                 "key 'q_grid': non-finite number nan",
                 id='q-grid-nan'),
    pytest.param({"name": "n", "kind": "variation-sweep", "q_grid": [2, 0]},
                 "key 'q_grid': entries must be > 0, got 0",
                 id='q-grid-zero'),
    pytest.param({"name": "n", "kind": "variation-sweep", "q_grid": [-1.5]},
                 "key 'q_grid': entries must be > 0, got -1.5",
                 id='q-grid-negative'),
    pytest.param({"name": "n", "kind": "variation-sweep", "q_grid": [2.0, 0.5]},
                 "key 'q_grid': variation exponents must be >= 1",
                 id='q-grid-below-one'),
    pytest.param({"name": "n", "kind": "variation-sweep", "cases": 0},
                 "key 'cases': must be >= 1, got 0",
                 id='cases-zero'),
    pytest.param({"name": "n", "kind": "variation-sweep", "cases": 2.0},
                 "key 'cases': expected int, got float",
                 id='cases-float'),
    pytest.param({"name": "n", "kind": "fluctuation-vs-bound", "preset": 2},
                 "key 'preset': expected str, got int",
                 id='preset-type'),
    pytest.param({"name": "n", "kind": "fluctuation-vs-bound", "preset": "banach"},
                 "unknown preset 'banach'; known: ['clarkson', 'hilbert']",
                 id='preset-unknown'),
    pytest.param({"name": "n", "kind": "fluctuation-vs-bound", "p": "3"},
                 "key 'p': expected int/float, got str",
                 id='preset-p-type'),
    pytest.param({"name": "n", "kind": "fluctuation-vs-bound", "p": float("inf")},
                 "key 'p': non-finite number inf",
                 id='preset-p-inf'),
    pytest.param({"name": "n", "kind": "fluctuation-vs-bound", "preset": "clarkson", "p": 1.5},
                 'descriptor exponent must satisfy p >= 2, got 1.5',
                 id='clarkson-p-below-two'),
    pytest.param({"name": "n", "kind": "fluctuation-vs-bound", "preset": "clarkson"},
                 "preset 'clarkson' needs an exponent p",
                 id='clarkson-p-missing'),
    pytest.param({"name": "n", "kind": "fluctuation-vs-bound", "eps_grid": [0.5, 2.0]},
                 "key 'eps_grid': points are normalized to ||x|| = 1, so the bound needs eps < 2",
                 id='eps-grid-two'),
    pytest.param({"name": "n", "kind": "fluctuation-vs-bound", "eps_grid": [0]},
                 "key 'eps_grid': entries must be > 0, got 0",
                 id='eps-grid-zero'),
    pytest.param({"name": "n", "kind": "fluctuation-vs-bound", "include_constant": 1},
                 "key 'include_constant': expected bool, got int",
                 id='include-constant-type'),
    pytest.param({"name": "n", "kind": "fluctuation-vs-bound", "dims": [4], "horizon": 4194305},
                 "key 'horizon': horizon * max(dims) = 16777220 exceeds the cap of 16777216 trajectory slots",
                 id='fb-horizon-slot-cap'),
    pytest.param({"name": "n", "kind": "metastability", "g": 2},
                 "key 'g': expected str, got int",
                 id='g-type'),
    pytest.param({"name": "n", "kind": "metastability", "g": "triple"},
                 "key 'g': unknown selector 'triple'; known: successor, double, next-power-of-two",
                 id='g-unknown'),
    pytest.param({"name": "n", "kind": "metastability", "eps_grid": [-0.25]},
                 "key 'eps_grid': entries must be > 0, got -0.25",
                 id='meta-eps-grid-negative'),
    pytest.param({"name": "n", "kind": "metastability", "dims": [1, 8], "horizon": 2097153},
                 "key 'horizon': horizon * max(dims) = 16777224 exceeds the cap of 16777216 trajectory slots",
                 id='meta-horizon-slot-cap'),
    pytest.param({"name": "n", "kind": "dyadic-constants", "p": "2"},
                 "key 'p': expected int/float, got str",
                 id='dyadic-p-type'),
    pytest.param({"name": "n", "kind": "dyadic-constants", "p": 0.5},
                 "key 'p': must be >= 1, got 0.5",
                 id='dyadic-p-below-one'),
    pytest.param({"name": "n", "kind": "dyadic-constants", "p": 0},
                 "key 'p': must be >= 1, got 0.0",
                 id='dyadic-p-zero-int'),
    pytest.param({"name": "n", "kind": "dyadic-constants", "support": 0},
                 "key 'support': must be >= 1, got 0",
                 id='dyadic-support-zero'),
    pytest.param({"name": "n", "kind": "dyadic-constants", "levels": 0},
                 "key 'levels': must be >= 1, got 0",
                 id='dyadic-levels-zero'),
    pytest.param({"name": "n", "kind": "dyadic-constants", "levels": 23},
                 "key 'levels': support + 2^(levels + 1) > 16777216 slots",
                 id='dyadic-levels-cap'),
    pytest.param({"name": "n", "kind": "dyadic-constants", "support": 16000000, "levels": 20},
                 "key 'levels': support + 2^(levels + 1) > 16777216 slots",
                 id='dyadic-support-cap'),
    pytest.param({"name": "n", "kind": "dyadic-constants", "cases": 0},
                 "key 'cases': must be >= 1, got 0",
                 id='dyadic-cases-zero'),
    pytest.param({"name": "n", "kind": "dyadic-constants", "ratio_cap": 0},
                 "key 'ratio_cap': must be > 0, got 0.0",
                 id='ratio-cap-zero'),
    pytest.param({"name": "n", "kind": "dyadic-constants", "ratio_cap": -1},
                 "key 'ratio_cap': must be > 0, got -1.0",
                 id='ratio-cap-negative'),
    pytest.param({"name": "n", "kind": "dyadic-constants", "ratio_cap": [64]},
                 "key 'ratio_cap': expected int/float, got list",
                 id='ratio-cap-type'),
    pytest.param({"name": "n", "kind": "dyadic-constants", "ratio_cap": float("nan")},
                 "key 'ratio_cap': non-finite number nan",
                 id='ratio-cap-nan'),
    pytest.param({"name": "n", "kind": "counterexample-suite", "p_grid": 2},
                 "key 'p_grid': expected list, got int",
                 id='p-grid-type'),
    pytest.param({"name": "n", "kind": "counterexample-suite", "p_grid": []},
                 "key 'p_grid': must be a nonempty list",
                 id='p-grid-empty'),
    pytest.param({"name": "n", "kind": "counterexample-suite", "p_grid": [0]},
                 "key 'p_grid': entries must be >= 1, got 0",
                 id='p-grid-zero'),
    pytest.param({"name": "n", "kind": "counterexample-suite", "p_grid": [2, 1]},
                 "key 'p_grid': entries must be integers >= 2",
                 id='p-grid-one'),
    pytest.param({"name": "n", "kind": "counterexample-suite", "p_grid": [2.5]},
                 "key 'p_grid': entries must be integers, got 2.5",
                 id='p-grid-float'),
    pytest.param({"name": "n", "kind": "convexity-audit", "audits": {"p": 2.0}},
                 "key 'audits': expected list, got dict",
                 id='audits-type'),
    pytest.param({"name": "n", "kind": "convexity-audit", "audits": []},
                 "key 'audits': must be a nonempty list",
                 id='audits-empty'),
    pytest.param({"name": "n", "kind": "convexity-audit", "audits": [[2.0, 0.125]]},
                 'audits[0]: expected an object',
                 id='audit-not-object'),
    pytest.param({"name": "n", "kind": "convexity-audit", "audits": [{"p": 2.0, "K": 0.125, "dims": 2}]},
                 'unknown key(s) in audits[0]: dims; allowed: K, dim, p, trials',
                 id='audit-unknown-key'),
    pytest.param({"name": "n", "kind": "convexity-audit", "audits": [{"K": 0.125}]},
                 "missing required key 'p'",
                 id='audit-p-missing'),
    pytest.param({"name": "n", "kind": "convexity-audit", "audits": [{"p": 2.0}]},
                 "missing required key 'K'",
                 id='audit-k-missing'),
    pytest.param({"name": "n", "kind": "convexity-audit", "audits": [{"p": "2", "K": 0.125}]},
                 "key 'p': expected int/float, got str",
                 id='audit-p-type'),
    pytest.param({"name": "n", "kind": "convexity-audit", "audits": [{"p": 2.0, "K": float("nan")}]},
                 "key 'K': non-finite number nan",
                 id='audit-k-nan'),
    pytest.param({"name": "n", "kind": "convexity-audit", "audits": [{"p": 2.0, "K": 0.125, "dim": 0}]},
                 "key 'dim': must be >= 1, got 0",
                 id='audit-dim-zero'),
    pytest.param({"name": "n", "kind": "convexity-audit", "audits": [{"p": 2.0, "K": 0.125, "trials": False}]},
                 "key 'trials': expected an integer, got a boolean",
                 id='audit-trials-bool'),
    pytest.param({"name": "n", "kind": "convexity-audit", "audits": [{"p": 2.0, "K": -0.5}]},
                 'audits[0]: modulus coefficient must be positive, got -0.5',
                 id='audit-k-negative'),
    pytest.param({"name": "n", "kind": "convexity-audit", "audits": [{"p": 0.5, "K": 0.5}]},
                 'audits[0]: descriptor exponent must satisfy p >= 2, got 0.5',
                 id='audit-p-below-one'),
    pytest.param({"name": "n", "kind": "convexity-audit", "audits": [{"p": 2.0, "K": 0.125}, {"p": 2.0, "K": 0.0}]},
                 'audits[1]: modulus coefficient must be positive, got 0.0',
                 id='audit-second-entry'),
    pytest.param({"name": "n", "kind": "bogus", "seed": -1},
                 "unknown kind 'bogus'; known: variation-sweep, fluctuation-vs-bound, metastability, dyadic-constants, counterexample-suite, convexity-audit",
                 id='two:kind-before-seed'),
    pytest.param({"name": "n", "kind": "variation-sweep", "seed": -1, "horizont": 4},
                 "key 'seed': must be >= 0, got -1",
                 id='two:seed-before-unknown-key'),
    pytest.param({"name": "n", "kind": "variation-sweep", "out": 1, "horizont": 4},
                 "key 'out': expected str, got int",
                 id='two:out-before-unknown-key'),
    pytest.param({"name": "n", "kind": "variation-sweep", "dims": [], "horizont": 4},
                 'unknown key(s) in variation-sweep config: horizont; allowed: cases, dims, horizon, kind, name, out, q_grid, seed',
                 id='two:unknown-key-before-dims'),
    pytest.param({"name": "n", "kind": "variation-sweep", "dims": [0], "horizon": 0},
                 "key 'dims': entries must be >= 1, got 0",
                 id='two:dims-before-horizon'),
    pytest.param({"name": "n", "kind": "variation-sweep", "dims": [4], "horizon": 4194305, "q_grid": [0.5]},
                 "key 'horizon': horizon * max(dims) = 16777220 exceeds the cap of 16777216 trajectory slots",
                 id='two:slot-cap-before-q-grid'),
    pytest.param({"name": "n", "kind": "variation-sweep", "q_grid": [0.5], "cases": 0},
                 "key 'q_grid': variation exponents must be >= 1",
                 id='two:q-grid-before-cases'),
    pytest.param({"name": "n", "kind": "fluctuation-vs-bound", "preset": 1, "p": "x"},
                 "key 'preset': expected str, got int",
                 id='two:preset-before-p-type'),
    pytest.param({"name": "n", "kind": "fluctuation-vs-bound", "preset": "banach", "dims": [0]},
                 "unknown preset 'banach'; known: ['clarkson', 'hilbert']",
                 id='two:descriptor-before-dims'),
    pytest.param({"name": "n", "kind": "fluctuation-vs-bound", "preset": "clarkson", "horizon": 10**11},
                 "preset 'clarkson' needs an exponent p",
                 id='two:descriptor-before-slot-cap'),
    pytest.param({"name": "n", "kind": "fluctuation-vs-bound", "eps_grid": [2.5], "cases": 0},
                 "key 'eps_grid': points are normalized to ||x|| = 1, so the bound needs eps < 2",
                 id='two:eps-before-cases'),
    pytest.param({"name": "n", "kind": "fluctuation-vs-bound", "cases": 0, "include_constant": 0},
                 "key 'cases': must be >= 1, got 0",
                 id='two:cases-before-include-constant'),
    pytest.param({"name": "n", "kind": "metastability", "eps_grid": [0], "g": "triple"},
                 "key 'eps_grid': entries must be > 0, got 0",
                 id='two:eps-grid-before-g'),
    pytest.param({"name": "n", "kind": "metastability", "g": "triple", "cases": 0},
                 "key 'g': unknown selector 'triple'; known: successor, double, next-power-of-two",
                 id='two:g-before-cases'),
    pytest.param({"name": "n", "kind": "dyadic-constants", "p": 0.5, "support": 0},
                 "key 'p': must be >= 1, got 0.5",
                 id='two:dyadic-p-before-support'),
    pytest.param({"name": "n", "kind": "dyadic-constants", "levels": 40, "cases": 0},
                 "key 'levels': support + 2^(levels + 1) > 16777216 slots",
                 id='two:levels-cap-before-cases'),
    pytest.param({"name": "n", "kind": "dyadic-constants", "cases": 0, "ratio_cap": 0},
                 "key 'cases': must be >= 1, got 0",
                 id='two:cases-before-ratio-cap'),
    pytest.param({"name": "n", "kind": "counterexample-suite", "p_grid": [1, 0]},
                 "key 'p_grid': entries must be >= 1, got 0",
                 id='two:p-grid-type-entry-first'),
    pytest.param({"name": "n", "kind": "convexity-audit", "audits": [{"p": 2.0, "K": -0.5, "bogus": 1}]},
                 'unknown key(s) in audits[0]: bogus; allowed: K, dim, p, trials',
                 id='two:audit-unknown-key-before-k'),
    pytest.param({"name": "n", "kind": "convexity-audit", "audits": [{"p": 2.0, "K": -0.5, "dim": 0}]},
                 "key 'dim': must be >= 1, got 0",
                 id='two:audit-dim-before-descriptor'),
    pytest.param({"name": "n", "kind": "convexity-audit", "audits": [{"p": 2.0, "K": -0.5, "trials": 0}]},
                 "key 'trials': must be >= 1, got 0",
                 id='two:audit-trials-before-descriptor'),
    pytest.param({"name": "n", "kind": "convexity-audit", "audits": [{"p": 2.0, "K": 0.125, "dim": 0}, {"K": 1.0}]},
                 "key 'dim': must be >= 1, got 0",
                 id='two:first-audit-wins'),
]


@pytest.mark.parametrize("doc, message", MESSAGES)
def test_config_error_text(doc, message):
    with pytest.raises(ConfigError) as info:
        scenario_from_mapping(doc)
    assert str(info.value) == message


DEFAULT_ECHOES = {
    "variation-sweep":
        '{"name": "d", "kind": "variation-sweep", "seed": 0, "params": {"dims": [4], "horizon": 256, '
        '"q_grid": [2.0], "cases": 8}}',
    "fluctuation-vs-bound":
        '{"name": "d", "kind": "fluctuation-vs-bound", "seed": 0, "params": {"preset": "hilbert", '
        '"p": 2.0, "K": 0.125, "dims": [4], "horizon": 512, "eps_grid": [0.5, 0.25], "cases": 8, '
        '"include_constant": false}}',
    "metastability":
        '{"name": "d", "kind": "metastability", "seed": 0, "params": {"dims": [3], "horizon": 512, '
        '"eps_grid": [0.25], "g": "double", "cases": 4}}',
    "dyadic-constants":
        '{"name": "d", "kind": "dyadic-constants", "seed": 0, "params": {"p": 2.0, "support": 64, '
        '"levels": 6, "cases": 16, "ratio_cap": 64.0}}',
    "counterexample-suite":
        '{"name": "d", "kind": "counterexample-suite", "seed": 0, "params": {"p_grid": [2, 3]}}',
    "convexity-audit":
        '{"name": "d", "kind": "convexity-audit", "seed": 0, "params": {"audits": ['
        '{"p": 2.0, "K": 0.125, "dim": 2, "trials": 2000}, '
        '{"p": 3.0, "K": 0.041666666666666664, "dim": 2, "trials": 2000}, '
        '{"p": 2.0, "K": 1.0, "dim": 2, "trials": 2000}]}}',
}


def _echo(scenario) -> str:
    return json.dumps(run_scenario(scenario).scenario)


def test_default_echo_of_every_kind():
    assert sorted(DEFAULT_ECHOES) == sorted(SCENARIO_KINDS)
    for kind, echo in DEFAULT_ECHOES.items():
        assert _echo(scenario_from_mapping({"name": "d", "kind": kind})) == echo


CORPUS_ECHOES = [
    '{"name": "builtin-variation-sweep", "kind": "variation-sweep", "seed": 5, "params": '
    '{"dims": [2, 4], "horizon": 128, "q_grid": [2.0, 3.0], "cases": 4}}',
    '{"name": "builtin-fluctuation-vs-bound", "kind": "fluctuation-vs-bound", "seed": 5, "params": '
    '{"preset": "hilbert", "p": 2.0, "K": 0.125, "dims": [3], "horizon": 256, "eps_grid": [0.75, 0.5], '
    '"cases": 6, "include_constant": true}}',
    '{"name": "builtin-metastability", "kind": "metastability", "seed": 5, "params": '
    '{"dims": [3], "horizon": 512, "eps_grid": [0.5], "g": "double", "cases": 4}}',
    '{"name": "builtin-dyadic-constants", "kind": "dyadic-constants", "seed": 5, "params": '
    '{"p": 2.0, "support": 48, "levels": 5, "cases": 6, "ratio_cap": 64.0}}',
    '{"name": "builtin-counterexample-suite", "kind": "counterexample-suite", "seed": 5, "params": '
    '{"p_grid": [2, 3]}}',
    '{"name": "builtin-convexity-audit", "kind": "convexity-audit", "seed": 5, "params": {"audits": ['
    '{"p": 2.0, "K": 0.125, "dim": 2, "trials": 1500}, '
    '{"p": 3.0, "K": 0.041666666666666664, "dim": 2, "trials": 1500}, '
    '{"p": 2.0, "K": 1.0, "dim": 2, "trials": 1500}]}}',
]


def test_builtin_corpus_echo():
    assert [_echo(sc) for sc in builtin_corpus(5)] == CORPUS_ECHOES


@pytest.mark.parametrize("doc, echo", [
    # integers become floats where the key is a number; hilbert ignores p
    ({"name": "c", "kind": "fluctuation-vs-bound", "preset": "clarkson", "p": 3, "cases": 1},
     '{"name": "c", "kind": "fluctuation-vs-bound", "seed": 0, "params": {"preset": "clarkson", '
     '"p": 3.0, "K": 0.041666666666666664, "dims": [4], "horizon": 512, "eps_grid": [0.5, 0.25], '
     '"cases": 1, "include_constant": false}}'),
    ({"name": "h", "kind": "fluctuation-vs-bound", "preset": "hilbert", "p": 3.5, "cases": 1},
     '{"name": "h", "kind": "fluctuation-vs-bound", "seed": 0, "params": {"preset": "hilbert", '
     '"p": 2.0, "K": 0.125, "dims": [4], "horizon": 512, "eps_grid": [0.5, 0.25], "cases": 1, '
     '"include_constant": false}}'),
    ({"name": "q", "kind": "variation-sweep", "dims": [1, 2], "horizon": 16, "q_grid": [2, 3], "cases": 1},
     '{"name": "q", "kind": "variation-sweep", "seed": 0, "params": {"dims": [1, 2], "horizon": 16, '
     '"q_grid": [2.0, 3.0], "cases": 1}}'),
    ({"name": "r", "kind": "dyadic-constants", "p": 3, "support": 8, "levels": 2, "cases": 1, "ratio_cap": 8},
     '{"name": "r", "kind": "dyadic-constants", "seed": 0, "params": {"p": 3.0, "support": 8, '
     '"levels": 2, "cases": 1, "ratio_cap": 8.0}}'),
    ({"name": "a", "kind": "convexity-audit", "audits": [{"p": 2, "K": 1, "dim": 3, "trials": 10}]},
     '{"name": "a", "kind": "convexity-audit", "seed": 0, "params": {"audits": '
     '[{"p": 2.0, "K": 1.0, "dim": 3, "trials": 10}]}}'),
])
def test_echo_of_valid_documents(doc, echo):
    assert _echo(scenario_from_mapping(doc)) == echo
