import copy
import math
import pickle
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heconet.core import (BUFFER_KINDS, Capability, Flow, ModelError, Operand,
                          Process, ProcessKind, Resource, ResourceKind,
                          SystemModel, buffer_set, capability_label,
                          require_valid, validate)

from conftest import make_economy_model


def tiny_model(**overrides):
    """One operand, one transformation buffer, one capability."""
    parts = dict(
        operands=(Operand("w", "water", "kgal"),),
        resources=(Resource("plant", "Plant", ResourceKind.TRANSFORMATION),),
        processes=(Process("make", "makes water", ProcessKind.TRANSFORMATION,
                           (Flow("w", 0.5),), (Flow("w", 1.0),)),),
        capabilities=(Capability("c1", "plant", "make",
                                 {"w": "plant"}, {"w": "plant"}),),
    )
    parts.update(overrides)
    return SystemModel(**parts)


def test_valid_models_have_no_violations(economy_model):
    assert validate(economy_model) == []
    assert validate(tiny_model()) == []
    require_valid(tiny_model())


def test_resource_kinds_and_buffer_membership():
    assert ResourceKind.TRANSFORMATION in BUFFER_KINDS
    assert ResourceKind.INDEPENDENT_BUFFER in BUFFER_KINDS
    assert ResourceKind.TRANSPORTATION not in BUFFER_KINDS
    assert Resource("x", "", ResourceKind.TRANSPORTATION).is_buffer is False
    assert Resource("x", "", ResourceKind.INDEPENDENT_BUFFER).is_buffer is True


def test_duplicate_ids_reported_per_kind():
    model = tiny_model(operands=(Operand("w", "", "u"), Operand("w", "", "u")))
    messages = [str(v) for v in validate(model)]
    assert any("operand[w]" in m and "duplicate id" in m for m in messages)


def test_empty_id_and_missing_unit():
    model = tiny_model(operands=(Operand("", "x", ""),),
                       capabilities=())
    messages = [str(v) for v in validate(model)]
    assert any("id must be non-empty" in m for m in messages)
    assert any("unit" in m for m in messages)


def test_process_must_output():
    bad = Process("noop", "", ProcessKind.TRANSFORMATION, (), ())
    model = tiny_model(processes=(tiny_model().processes[0], bad))
    assert any("output" in v.message for v in validate(model))


def test_flow_references_unknown_operand():
    proc = Process("make", "", ProcessKind.TRANSFORMATION,
                   (Flow("ghost", 1.0),), (Flow("w", 1.0),))
    model = tiny_model(processes=(proc,), capabilities=(
        Capability("c1", "plant", "make", {"ghost": "plant"}, {"w": "plant"}),))
    assert any("ghost" in str(v) for v in validate(model))


def test_flow_coefficients_must_be_finite_nonnegative():
    for coeff in (-1.0, math.nan, math.inf):
        proc = Process("make", "", ProcessKind.TRANSFORMATION,
                       (Flow("w", coeff),), (Flow("w", 1.0),))
        model = tiny_model(processes=(proc,))
        assert validate(model), f"coeff {coeff} accepted"


@pytest.mark.parametrize("coeff", ["1.5", None, True, 1j])
def test_a_flow_coefficient_must_be_a_real_number(coeff):
    # a process holds its coefficients as floats: nothing else is read as one
    with pytest.raises(ValueError, match=re.escape(
            f"process[make].inputs[1]: coefficient must be a real number, got {coeff!r}")):
        Process("make", "", ProcessKind.TRANSFORMATION, (Flow("w", 1.0), Flow("w", coeff)))


def test_a_process_holds_its_flows_as_columns():
    proc = Process("make", "", ProcessKind.TRANSFORMATION,
                   (Flow("w", 0.5), Flow("v", 2)), (Flow("w", 1.0),))
    (in_ops, in_coeffs), (out_ops, out_coeffs) = proc.sides
    assert (in_ops, in_coeffs.tolist(), out_ops, out_coeffs.tolist()) == \
        (("w", "v"), [0.5, 2.0], ("w",), [1.0])
    assert not in_coeffs.flags.writeable
    assert proc.inputs == (Flow("w", 0.5), Flow("v", 2.0))
    assert Process.from_columns("make", "", ProcessKind.TRANSFORMATION, proc.sides) == proc
    assert proc != Process("make", "", ProcessKind.TRANSFORMATION, proc.inputs, ())
    assert hash(proc) == hash(Process("make", "", "transformation", proc.inputs, proc.outputs))
    for copied in (pickle.loads(pickle.dumps(proc)), copy.deepcopy(proc), copy.copy(proc)):
        assert copied == proc and not copied.sides[0][1].flags.writeable


def test_model_needs_a_capability():
    model = tiny_model(capabilities=())
    assert any("capability" in str(v) for v in validate(model))


def test_capability_dangling_references():
    cap = Capability("c1", "nowhere", "nothing", {}, {})
    model = tiny_model(capabilities=(cap,))
    messages = [str(v) for v in validate(model)]
    assert any("nowhere" in m for m in messages)
    assert any("nothing" in m for m in messages)


def test_capability_duration_validation():
    good = tiny_model().capabilities[0]
    model = tiny_model(capabilities=(
        Capability("c1", good.resource, good.process, good.pull, good.push, -2),))
    assert any("duration" in str(v) for v in validate(model))


@pytest.mark.parametrize("duration, valid", [
    (2 ** 63, False), (True, False), (1.5, False), ("3", False),
    (0, True), (2 ** 63 - 1, True),
])
def test_capability_duration_is_a_count(duration, valid):
    # the model layer and every net read a duration by one rule: an int64 >= 0
    good = tiny_model().capabilities[0]
    model = tiny_model(capabilities=(
        Capability("c1", good.resource, good.process, good.pull, good.push, duration),))
    bad = [str(v) for v in validate(model) if v.path == "capability[c1].duration"]
    assert bad == ([] if valid else [
        f"capability[c1].duration: duration must be an integer >= 0 and < 2**63, "
        f"got {duration!r}"])


def test_pull_push_completeness():
    # missing pull for the input operand
    model = tiny_model(capabilities=(
        Capability("c1", "plant", "make", {}, {"w": "plant"}),))
    assert any("missing buffer" in v.message for v in validate(model))
    # extra routing for an operand the process does not touch
    model = tiny_model(capabilities=(
        Capability("c1", "plant", "make",
                   {"w": "plant", "x": "plant"}, {"w": "plant"}),))
    assert any("not an input" in v.message or "not an output" in v.message
               for v in validate(model))


def test_pull_must_point_at_buffer():
    model = tiny_model(
        resources=(Resource("plant", "", ResourceKind.TRANSFORMATION),
                   Resource("pipe", "", ResourceKind.TRANSPORTATION)),
        capabilities=(Capability("c1", "plant", "make",
                                 {"w": "pipe"}, {"w": "plant"}),))
    assert any("not a buffer" in v.message for v in validate(model))


def test_violations_sorted_and_deterministic():
    model = tiny_model(
        operands=(Operand("w", "", ""), Operand("a", "", "")),
        capabilities=())
    first = validate(model)
    second = validate(model)
    assert [(v.path, v.message) for v in first] \
        == [(v.path, v.message) for v in second]
    assert first == sorted(first, key=lambda v: (v.path, v.message))


def test_require_valid_raises_with_all_violations():
    model = tiny_model(capabilities=())
    with pytest.raises(ModelError) as err:
        require_valid(model)
    assert err.value.violations
    assert "capability" in str(err.value)


def test_buffer_set_order(economy_model):
    assert buffer_set(economy_model) == ["economy"]
    model = tiny_model(resources=(
        Resource("tank", "", ResourceKind.INDEPENDENT_BUFFER),
        Resource("plant", "", ResourceKind.TRANSFORMATION),
        Resource("pipe", "", ResourceKind.TRANSPORTATION),
        Resource("plant2", "", ResourceKind.TRANSFORMATION),
    ))
    # transformations in declaration order, then independent buffers
    assert buffer_set(model) == ["plant", "plant2", "tank"]


def test_capability_label(economy_model):
    labels = [capability_label(economy_model, c)
              for c in economy_model.capabilities]
    assert labels[0] == "Economy produces manufactured products"
    assert labels[-1] == "Economy produces agricultural products with automated technology"


def test_lookups(economy_model):
    assert economy_model.operand("water").unit == "Mgal"
    assert economy_model.resource("economy").name == "Economy"
    assert economy_model.process("p3").name.endswith("modern technology")
    assert economy_model.capability("c2").process == "p2"
    with pytest.raises(KeyError):
        economy_model.operand("nope")


def test_lookups_find_the_first_declared_item():
    model = tiny_model(
        operands=(Operand("w", "first", "kgal"), Operand("w", "second", "kgal")),
        resources=(Resource("plant", "first"), Resource("plant", "second")),
        processes=(Process("make", "first", outputs=(Flow("w", 1.0),)),
                   Process("make", "second", outputs=(Flow("w", 2.0),))),
        capabilities=(Capability("c1", "plant", "make", duration=1),
                      Capability("c1", "plant", "make", duration=2)))
    assert model.operand("w").name == model.resource("plant").name == "first"
    assert model.process("make").name == "first"
    assert model.capability("c1").duration == 1
    for lookup, kind in ((model.operand, "operand"), (model.resource, "resource"),
                         (model.process, "process"), (model.capability, "capability")):
        with pytest.raises(KeyError) as info:
            lookup("nope")
        assert info.value.args == (f"no {kind} with id 'nope'",)


def test_routing_maps_are_read_only_copies():
    pull = {"w": "plant"}
    cap = Capability("c1", "plant", "make", pull, {"w": "plant"})
    pull["w"] = "elsewhere"
    assert cap.pull == {"w": "plant"}
    with pytest.raises(TypeError):
        cap.pull["w"] = "elsewhere"
    with pytest.raises(TypeError):
        cap.push["x"] = "plant"
    model = tiny_model()
    assert validate(model) == []
    with pytest.raises(TypeError):
        model.capabilities[0].pull["w"] = "nowhere"
    assert validate(model) == []


def test_validate_returns_a_fresh_list_each_call(monkeypatch):
    import heconet.core
    calls = []
    checker = heconet.core._violations
    monkeypatch.setattr(heconet.core, "_violations",
                        lambda model: calls.append(model) or checker(model))
    model = tiny_model(operands=(Operand("w", "", ""), Operand("w", "", "kgal")))
    first = validate(model)
    assert [str(v) for v in first] == ["operand[w]: duplicate id",
                                       "operand[w].unit: unit must be non-empty"]
    first.clear()
    second = validate(model)
    assert second == validate(model) and len(second) == 2
    assert second is not validate(model)
    with pytest.raises(ModelError):
        require_valid(model)
    assert calls == [model]


def test_flow_normalization():
    proc = Process("p", "", "transformation", [Flow("w", 1)], [Flow("w", 2)])
    assert isinstance(proc.inputs, tuple)
    assert proc.kind is ProcessKind.TRANSFORMATION
    res = Resource("r", "", "independent-buffer")
    assert res.kind is ResourceKind.INDEPENDENT_BUFFER


def test_economy_model_structure():
    model = make_economy_model()
    assert len(model.operands) == 5
    assert len(model.capabilities) == 6
    assert model.capabilities[0].pull == {
        "man": "economy", "cons": "economy", "ag": "economy",
        "capital": "economy", "water": "economy"}
    assert model.capabilities[0].push == {"man": "economy"}


@given(st.lists(st.sampled_from(["w", "v", ""]), min_size=1, max_size=4))
@settings(max_examples=30, deadline=None)
def test_validate_is_idempotent_under_repetition(ids):
    operands = tuple(Operand(i, "", "u" if i else "") for i in ids)
    model = tiny_model(operands=operands + (Operand("w", "", "kgal"),))
    assert validate(model) == validate(model)
