import dataclasses
import json

import pytest

from heconet.config import DEFAULT_TOLERANCES, Tolerances


def test_defaults():
    t = DEFAULT_TOLERANCES
    assert t.productive_margin == 1e-9
    assert t.inverse_residual == 1e-9
    assert t.lp_pivot == 1e-11
    assert t.lp_feasibility == 1e-7
    assert t.lp_complementarity == 1e-6
    assert t.lp_duality_gap == 1e-6
    assert t.lp_refactor_every == 50
    assert t.demand_slack == 1e-6


def test_replace_returns_new_instance():
    t = DEFAULT_TOLERANCES.replace(lp_max_iter=7)
    assert t.lp_max_iter == 7
    assert DEFAULT_TOLERANCES.lp_max_iter != 7
    assert isinstance(t, Tolerances)


def test_frozen():
    with pytest.raises(dataclasses.FrozenInstanceError):
        DEFAULT_TOLERANCES.productive_margin = 1.0


def test_from_json_roundtrip():
    text = json.dumps({"lp_pivot": 1e-9, "lp_max_iter": 123})
    t = Tolerances.from_json(text)
    assert t.lp_pivot == 1e-9
    assert t.lp_max_iter == 123
    assert t.productive_margin == DEFAULT_TOLERANCES.productive_margin


def test_from_json_rejects_unknown_key():
    with pytest.raises(ValueError, match="unknown"):
        Tolerances.from_json('{"no_such_knob": 1}')


def test_from_json_rejects_non_numeric():
    with pytest.raises(ValueError):
        Tolerances.from_json('{"lp_pivot": "tight"}')
    with pytest.raises(ValueError):
        Tolerances.from_json('["lp_pivot"]')


@pytest.mark.parametrize("changes", [
    {"lp_pivot": float("nan")},
    {"lp_feasibility": float("inf")},
    {"lp_ratio_tie": 0.0},
    {"demand_slack": -1e-6},
    {"lp_max_iter": -5},
    {"lp_refactor_every": 0},
    {"lp_refactor_every": 2.5},
    {"lp_pivot": True},
    {"lp_max_iter": True},
    {"lp_max_iter": 2**63},
    {"lp_pivot": None},
])
def test_out_of_range_values_rejected(changes):
    with pytest.raises(ValueError, match=next(iter(changes))):
        DEFAULT_TOLERANCES.replace(**changes)


@pytest.mark.parametrize("text", [
    '{"lp_pivot": NaN}', '{"lp_pivot": Infinity}', '{"lp_max_iter": -5}',
    '{"lp_max_iter": 1.5}', '{"lp_feasibility": false}',
])
def test_from_json_rejects_out_of_range(text):
    with pytest.raises(ValueError):
        Tolerances.from_json(text)


def test_integral_float_caps_read_as_counts():
    t = Tolerances.from_json('{"lp_max_iter": 3.0}')
    assert t.lp_max_iter == 3 and type(t.lp_max_iter) is int


def test_integer_valued_float_fields_accepted():
    t = Tolerances.from_json('{"lp_pivot": 1, "lp_max_iter": 3}')
    assert t.lp_pivot == 1
    assert t.lp_max_iter == 3
