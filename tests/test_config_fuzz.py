"""Fuzzing the config boundary: whatever JSON-like value sits at whatever key of a
valid document, `scenario_from_mapping` and `load_scenario` either return a
Scenario or raise ConfigError. The scenarios built here are never run."""

import copy
import json
import os
import tempfile

from hypothesis import example, given, settings, strategies as st

from ergolab.scenarios import (
    _AUDIT_KEYS,
    _COMMON,
    _KINDS,
    ConfigError,
    Scenario,
    load_scenario,
    scenario_from_mapping,
)

_HUGE = 10**5000  # past str()'s 4300-digit limit, so json.dumps refuses it too

# the strategies' reprs would print the bounds, so the large integers are built by map
integers = (st.integers(-2**70, 2**70)
            | st.tuples(st.sampled_from([1, -1]), st.integers(0, _HUGE.bit_length())).map(lambda t: t[0] << t[1])
            | st.sampled_from([1, -1]).map(lambda sign: sign * _HUGE))

json_like = st.recursive(
    st.none() | st.booleans() | integers | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4) | st.integers(-3, 3), inner, max_size=3),
    max_leaves=6,
)


@st.composite
def documents(draw):
    """A kind's built-in `verify-all` document with one value put at a known or
    an unknown key: of the document, or of its first audit entry."""
    kind = draw(st.sampled_from(sorted(_KINDS)))
    doc = {"name": f"builtin-{kind}", "kind": kind, **copy.deepcopy(_KINDS[kind].builtin)}
    target, keys = doc, [*_COMMON, *_KINDS[kind].keys]
    if kind == "convexity-audit" and draw(st.booleans()):
        target, keys = doc["audits"][0], list(_AUDIT_KEYS)
    target[draw(st.sampled_from([*keys, "zz", 7]))] = draw(json_like)
    return doc


def _scenario_or_config_error(build):
    try:
        assert isinstance(build(), Scenario)
    except ConfigError:
        pass


@settings(max_examples=120, deadline=None)
@given(documents())
@example({"name": "n", "kind": "variation-sweep", 1: 2, "z": 3})
@example({"name": "n", "kind": "variation-sweep", 1: 2})
@example({"name": "n", "kind": "convexity-audit", "audits": [{"p": 2.0, "K": 0.1, 5: 1, "x": 2}]})
@example({"name": "n", "kind": "variation-sweep", "dims": [_HUGE]})
@example({"name": "n", "kind": "variation-sweep", "cases": _HUGE})
@example({"name": "n", "kind": "variation-sweep", "seed": -_HUGE})
@example({"name": "n", "kind": "variation-sweep", "horizon": -_HUGE})
def test_a_config_gives_a_scenario_or_a_config_error(doc):
    _scenario_or_config_error(lambda: scenario_from_mapping(doc))
    try:
        text = json.dumps(doc)
    except ValueError:  # an integer past the digit limit has no JSON text
        return
    fd, path = tempfile.mkstemp(suffix=".json")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        _scenario_or_config_error(lambda: load_scenario(path))
    finally:
        os.unlink(path)
