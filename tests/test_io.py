import csv
import dataclasses
import gc
import json
import re
import tracemalloc
from importlib import resources
from io import StringIO
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heconet import io
from heconet.core import (Capability, Flow, ModelError, Operand, Process,
                          ProcessKind, Resource, ResourceKind, SystemModel,
                          validate)
from heconet.incidence import IncidenceMatrices, build_incidence
from heconet.io import (JsonFormatError, Scenario, ScenarioError,
                        XmlFormatError, emit_chord_csv, emit_full_json,
                        emit_results_csv, emit_results_json,
                        emit_trajectory_csv, load_scenario, load_schedule,
                        parse_system_xml, read_incidence_json, to_dot,
                        vectors_from_scenario, write_incidence_json,
                        write_json, write_system_xml, write_trajectory_csv)
from heconet.leontief import SquareEio
from heconet.lp import LpStatus
from heconet.rcot import RcotSolution

from conftest import (ECONOMY_M_MINUS, ECONOMY_M_PLUS, ECONOMY_X, ECONOMY_Z)

DATA = resources.files("heconet") / "data"

MINIMAL = """<?xml version='1.0'?>
<system name="demo">
  <operand id="a" unit="kg"/>
  <operand id="b" unit="kg"/>
  <resource id="r" kind="transformation"/>
  <process id="make" kind="transformation">
    <input operand="a" coeff="2.0"/>
    <output operand="b" coeff="1.0"/>
  </process>
  <capability resource="r" process="make"/>
</system>
"""


def fabricate_solution(**overrides):
    base = dict(x_star=np.array([1.0, 3.0]), z=7.5, phi=np.array([2.0]),
                status=LpStatus.OPTIMAL, binding=np.array([0.0, 0.5]),
                tech_labels=("alpha", "beta"), row_labels=("demand:a", "cap:f"),
                factor_labels=("fuel",), iterations=3)
    base.update(overrides)
    return RcotSolution(**base)


# --------------------------------------------------------------------------
# XML parsing


def test_parse_minimal_system_with_implicit_routing():
    model = parse_system_xml(MINIMAL)
    assert [op.id for op in model.operands] == ["a", "b"]
    assert model.operands[0].unit == "kg"
    assert model.resources[0].kind is ResourceKind.TRANSFORMATION
    proc = model.processes[0]
    assert proc.kind is ProcessKind.TRANSFORMATION
    assert proc.inputs[0].coeff == 2.0
    cap = model.capabilities[0]
    # id defaults to resource:process; routing falls back to the
    # capability's own resource
    assert cap.id == "r:make"
    assert cap.pull == {"a": "r"}
    assert cap.push == {"b": "r"}
    assert cap.duration == 0


def test_parse_accepts_bytes_and_str():
    assert parse_system_xml(MINIMAL.encode("utf-8")).operands == \
        parse_system_xml(MINIMAL).operands


def test_a_str_is_read_as_the_text_it_is():
    # the declared encoding applies to bytes; a str is already text
    text = MINIMAL.replace("<?xml version='1.0'?>",
                           '<?xml version="1.0" encoding="iso-8859-1"?>').replace('"a"', '"café"')
    assert parse_system_xml(text).operands[0].id == "café"
    assert parse_system_xml(text.encode("iso-8859-1")).operands[0].id == "café"


def test_parse_bundled_economy_reproduces_reference_matrices(economy_incidence):
    data = (DATA / "three_sector_economy.xml").read_bytes()
    model = parse_system_xml(data)
    inc = build_incidence(model)
    assert np.array_equal(inc.m_plus, ECONOMY_M_PLUS)
    assert np.array_equal(inc.m_minus, ECONOMY_M_MINUS)
    assert inc.equals(economy_incidence)


def test_parse_bundled_chain_routing_and_duration():
    model = parse_system_xml((DATA / "two_node_chain.xml").read_bytes())
    caps = {c.id: c for c in model.capabilities}
    assert caps["cap-ship"].duration == 2
    assert caps["cap-ship"].pull == {"clean": "plant"}
    assert caps["cap-ship"].push == {"clean": "tank"}
    # implicit routing on the treatment capability
    assert caps["cap-treat"].pull == {"raw": "plant"}
    assert caps["cap-treat"].push == {"clean": "plant"}


def xml_error(text):
    with pytest.raises(XmlFormatError) as info:
        parse_system_xml(text)
    return info.value


def test_unknown_element_reports_position():
    err = xml_error("<?xml version='1.0'?>\n<system>\n  <frob/>\n</system>\n")
    assert "unknown element <frob>" in str(err)
    assert err.line == 3
    assert err.column == 3


def test_malformed_xml_reports_position():
    err = xml_error("<system>\n  <operand id='a'>\n")
    assert err.line >= 1 and err.column >= 1


def test_xml_schema_violations():
    assert "root element must be <system>" in str(xml_error("<operand id='a'/>"))
    assert "not allowed inside <system>" in str(xml_error(
        "<system><input operand='a' coeff='1'/></system>"))
    assert "unknown attribute 'weird'" in str(xml_error(
        "<system><operand id='a' weird='1'/></system>"))
    assert "missing required attribute 'id'" in str(xml_error(
        "<system><operand/></system>"))
    assert "'coeff' is not a number" in str(xml_error(
        "<system><process id='p'><output operand='a' coeff='much'/></process></system>"))
    assert "unknown resource kind 'magic'" in str(xml_error(
        "<system><resource id='r' kind='magic'/></system>"))
    assert "unknown process kind" in str(xml_error(
        "<system><process id='p' kind='wizardry'/></system>"))
    assert "duration is not an integer" in str(xml_error(
        "<system><capability resource='r' process='p' duration='2.5'/></system>"))
    assert "unexpected text content" in str(xml_error(
        "<system>stray words</system>"))


def test_xml_numbers_take_no_digit_separators():
    # float("0_5") is 5.0 and int("1_0") is 10; neither is an XML number
    err = xml_error(MINIMAL.replace('coeff="2.0"', 'coeff="0_5"'))
    assert "<input> attribute 'coeff' is not a number: '0_5'" in str(err)
    assert (err.line, err.column) == (7, 5)
    err = xml_error(MINIMAL.replace('process="make"/>', 'process="make" duration="1_0"/>'))
    assert "<capability> duration is not an integer: '1_0'" in str(err)
    assert (err.line, err.column) == (10, 3)


# Arabic-Indic, fullwidth and Devanagari 12, and 1 before a no-break space
@pytest.mark.parametrize("digits", ["\u0661\u0662", "\uff11\uff12", "\u0967\u0968", "1\u00a0"])
def test_xml_numbers_are_ascii(digits):
    # float and int read any Unicode decimal digits (and Unicode
    # spaces): float("١٢") is 12.0 and int("٣") is 3
    err = xml_error(MINIMAL.replace('coeff="2.0"', f'coeff="{digits}"'))
    assert f"<input> attribute 'coeff' is not a number: {digits!r}" in str(err)
    assert (err.line, err.column) == (7, 5)
    err = xml_error(MINIMAL.replace('process="make"/>', f'process="make" duration="{digits}"/>'))
    assert f"<capability> duration is not an integer: {digits!r}" in str(err)
    assert (err.line, err.column) == (10, 3)


def test_parsing_leaves_no_cyclic_garbage():
    # a loader kept alive by a reference cycle holds a whole model's
    # elements until the cyclic collector runs
    data = (DATA / "three_sector_economy.xml").read_bytes()
    gc.collect()
    gc.disable()
    try:
        parse_system_xml(data)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_capability_id_defaults_only_when_missing():
    assert parse_system_xml(MINIMAL).capabilities[0].id == "r:make"
    with pytest.raises(ModelError, match=re.escape("capability[]: id must be non-empty")):
        parse_system_xml(MINIMAL.replace("<capability ", '<capability id="" '))


def sector_document(sectors=60, techs=3, factors=3, seed=0) -> list:
    """Lines of a generated economy: one process and one capability per
    technology, about 40 % dense, routed implicitly through one buffer."""
    rng = np.random.default_rng(seed)
    lines = ["<?xml version='1.0' encoding='utf-8'?>", '<system name="generated">']
    lines += [f'  <operand id="s{i:03d}" unit="M$"/>' for i in range(sectors)]
    lines += [f'  <operand id="f{i}" unit="u"/>' for i in range(factors)]
    lines.append('  <resource id="economy" kind="transformation"/>')
    for j in range(sectors * techs):
        lines.append(f'  <process id="p{j:03d}" name="technology {j}">')
        lines += [f'    <input operand="s{i:03d}" coeff="{rng.uniform(0.01, 0.1)!r}"/>'
                  for i in range(sectors) if rng.random() < 0.4]
        lines += [f'    <input operand="f{i}" coeff="{rng.uniform(0.5, 3.0)!r}"/>'
                  for i in range(factors)]
        lines += [f'    <output operand="s{j // techs:03d}" coeff="1.0"/>', "  </process>"]
    lines += [f'  <capability id="c{j:03d}" resource="economy" process="p{j:03d}"/>'
              for j in range(sectors * techs)]
    return lines + ["</system>", ""]


def nth_line(lines, prefix, n):
    return [i for i, line in enumerate(lines) if line.lstrip().startswith(prefix)][n]


def test_error_positions_deep_in_a_generated_economy():
    lines = sector_document()
    assert len(parse_system_xml("\n".join(lines)).capabilities) == 180

    def fails(edit, prefix, n):
        doc = list(lines)
        i = nth_line(doc, prefix, n)
        doc[i] = edit(doc[i])
        return i, doc[i], xml_error("\n".join(doc))

    i, line, err = fails(lambda t: re.sub(r'coeff="[^"]*"', 'coeff="0.3x"', t), "<input", 3000)
    assert "<input> attribute 'coeff' is not a number: '0.3x'" in str(err)
    assert (err.line, err.column) == (i + 1, line.index("<") + 1)
    i, line, err = fails(lambda t: re.sub(r'operand="[^"]*" ', "", t), "<output", 150)
    assert "<output> is missing required attribute 'operand'" in str(err)
    assert (err.line, err.column) == (i + 1, line.index("<") + 1)
    i, line, err = fails(lambda t: t.replace("<input ", '<input weight="2" '), "<input", 2500)
    assert "<input> has unknown attribute 'weight'" in str(err)
    assert (err.line, err.column) == (i + 1, line.index("<") + 1)
    i, line, err = fails(lambda t: t + " stray text", "<process", 170)
    assert "unexpected text content: 'stray text'" in str(err)
    assert (err.line, err.column) == (i + 1, line.index(">") + 2)


def test_well_formed_but_invalid_model_raises_model_error():
    text = MINIMAL.replace('operand="a" coeff="2.0"', 'operand="ghost" coeff="2.0"')
    with pytest.raises(ModelError, match="ghost"):
        parse_system_xml(text)


# --------------------------------------------------------------------------
# XML writing


@pytest.mark.parametrize("filename", ["three_sector_economy.xml",
                                      "two_node_chain.xml"])
def test_xml_round_trip_is_lossless(filename):
    model = parse_system_xml((DATA / filename).read_bytes())
    again = parse_system_xml(write_system_xml(model))
    assert again.operands == model.operands
    assert again.resources == model.resources
    assert again.processes == model.processes
    assert again.capabilities == model.capabilities
    assert build_incidence(again).equals(build_incidence(model))


def test_xml_round_trip_preserves_awkward_coefficients():
    text = MINIMAL.replace('coeff="2.0"', f'coeff="{0.1 + 0.2!r}"')
    model = parse_system_xml(text)
    assert model.processes[0].inputs[0].coeff == 0.1 + 0.2
    again = parse_system_xml(write_system_xml(model))
    assert again.processes[0].inputs[0].coeff == 0.1 + 0.2


NAMES = st.text(alphabet="ab &<>\"'", max_size=6)
COEFFS = st.one_of(st.sampled_from([5e-324, 0.1, 1e16, 0.0, 1.0]),
                   st.floats(0.0, 1e16, allow_nan=False))


@st.composite
def system_models(draw):
    """Valid models with several processes, repeated flows of one
    operand, explicit routing over several buffers and any durations."""
    operands = tuple(Operand(f"o{i}", draw(NAMES), draw(st.sampled_from(["kg", "M$"])))
                     for i in range(draw(st.integers(1, 4))))
    kinds = draw(st.lists(st.sampled_from(list(ResourceKind)), min_size=1, max_size=3))
    resources = tuple(Resource(f"r{i}", draw(NAMES), kind) for i, kind in enumerate(kinds)) \
        + (Resource("tank", "", ResourceKind.INDEPENDENT_BUFFER),)
    buffers = st.sampled_from([r.id for r in resources if r.is_buffer])
    flows = st.builds(Flow, st.sampled_from([o.id for o in operands]), COEFFS)
    processes = tuple(
        Process(f"p{j}", draw(NAMES), draw(st.sampled_from(list(ProcessKind))),
                draw(st.lists(flows, max_size=4)), draw(st.lists(flows, min_size=1, max_size=3)))
        for j in range(draw(st.integers(1, 4))))
    caps = []
    for k in range(draw(st.integers(1, 5))):
        proc = draw(st.sampled_from(processes))
        caps.append(Capability(
            f"c{k}", draw(st.sampled_from([r.id for r in resources])), proc.id,
            {fl.operand: draw(buffers) for fl in proc.inputs},
            {fl.operand: draw(buffers) for fl in proc.outputs}, draw(st.integers(0, 3))))
    return SystemModel(operands, resources, processes, tuple(caps))


@given(system_models())
@settings(max_examples=80, deadline=None)
def test_generated_models_round_trip_and_build_as_a_plain_loop(model):
    assert validate(model) == []
    again = parse_system_xml(write_system_xml(model))
    assert again == model
    inc = build_incidence(again)
    kinds = (ResourceKind.TRANSFORMATION, ResourceKind.INDEPENDENT_BUFFER)
    buffers = [r.id for kind in kinds for r in model.resources if r.kind is kind]
    operands = [o.id for o in model.operands]
    assert (inc.operands, inc.buffers) == (tuple(operands), tuple(buffers))
    m_plus = np.zeros((len(operands) * len(buffers), len(model.capabilities)))
    m_minus = np.zeros_like(m_plus)
    for col, cap in enumerate(model.capabilities):
        proc = [p for p in model.processes if p.id == cap.process][0]
        for m, flows, routing in ((m_minus, proc.inputs, cap.pull),
                                  (m_plus, proc.outputs, cap.push)):
            for fl in flows:
                row = operands.index(fl.operand) * len(buffers) \
                    + buffers.index(routing[fl.operand])
                m[row, col] += fl.coeff
    assert np.array_equal(inc.m_minus, m_minus)
    assert np.array_equal(inc.m_plus, m_plus)


def test_xml_writer_writes_a_duration_as_a_count():
    # the model check reads 2.0 as the count 2, and so does the writer
    model = parse_system_xml(MINIMAL)
    cap = model.capabilities[0]
    model = dataclasses.replace(model, capabilities=(dataclasses.replace(cap, duration=2.0),))
    assert validate(model) == []
    text = write_system_xml(model).decode()
    assert 'duration="2"' in text
    assert parse_system_xml(text).capabilities[0].duration == 2


def test_xml_writer_escapes_attribute_values():
    text = MINIMAL.replace('<operand id="a" unit="kg"/>',
                           '<operand id="a" unit="kg" name="a &amp; b &lt;raw&gt;"/>')
    model = parse_system_xml(text)
    again = parse_system_xml(write_system_xml(model))
    assert again.operands[0].name == "a & b <raw>"


@pytest.mark.parametrize("name, written", [
    ('say "hi"', """name='say "hi"'"""),
    ("it's", '''name="it's"'''),
    ('both " and \'', 'name="both &quot; and \'"'),
    ("a<b & c>d", 'name="a&lt;b &amp; c&gt;d"'),
    ("one\ntwo\tthree\rfour", 'name="one&#10;two&#9;three&#13;four"'),
])
def test_xml_writer_pins_attribute_bytes(name, written):
    model = parse_system_xml(MINIMAL)
    named = dataclasses.replace(model.operands[0], name=name)
    model = dataclasses.replace(model, operands=(named,) + model.operands[1:])
    text = write_system_xml(model).decode()
    assert f'  <operand id="a" {written} unit="kg"/>' in text.splitlines()
    assert parse_system_xml(text).operands[0].name == name


@pytest.mark.parametrize("where, text, message", [
    ("operand", "a\x01", "<operand> 'a\\x01' attribute 'id' holds '\\x01'"),
    ("operand", "a\ud800", "<operand> 'a\\ud800' attribute 'id' holds '\\ud800'"),
    ("name", "\ufffe", "<operand> 'a' attribute 'name' holds '\\ufffe'"),
    ("buffer", "r\x0b", "<pull> of capability 'r:make' attribute 'buffer' holds '\\x0b'"),
])
def test_xml_writer_refuses_text_xml_cannot_carry(where, text, message):
    # a written document must re-read: XML 1.0 has no escape for these
    model = parse_system_xml(MINIMAL)
    op, cap = model.operands[0], model.capabilities[0]
    if where == "operand":
        op = dataclasses.replace(op, id=text)
    elif where == "name":
        op = dataclasses.replace(op, name=text)
    else:
        cap = dataclasses.replace(cap, pull={"a": text})
    model = dataclasses.replace(model, operands=(op,) + model.operands[1:], capabilities=(cap,))
    with pytest.raises(ValueError) as info:
        write_system_xml(model)
    assert str(info.value) == f"{message}, which XML 1.0 cannot carry"


@given(st.text(st.characters(blacklist_categories=())))
def test_a_written_name_re_reads_or_is_refused(name):
    model = parse_system_xml(MINIMAL)
    named = dataclasses.replace(model.operands[0], name=name)
    model = dataclasses.replace(model, operands=(named,) + model.operands[1:])
    try:
        text = write_system_xml(model)
    except ValueError:
        assert re.search("[^\t\n\r\x20-\ud7ff\ue000-\ufffd\U00010000-\U0010ffff]", name)
    else:
        assert parse_system_xml(text).operands[0].name == name


@given(st.text(st.sampled_from("a&<>\"'\n\r\t") | st.characters()))
def test_xml_writer_quotes_attributes_as_the_standard_library(value):
    from xml.sax.saxutils import quoteattr
    assert io._attr("name", value) == f" name={quoteattr(value)}"


# --------------------------------------------------------------------------
# Incidence JSON


def test_incidence_json_round_trip(economy_incidence):
    blob = write_incidence_json(economy_incidence)
    again = read_incidence_json(blob)
    assert again.equals(economy_incidence)
    doc = json.loads(blob)
    assert doc["schema"] == io.INCIDENCE_SCHEMA
    assert doc["shape"] == [5, 6]


def test_incidence_json_write_refuses_degenerate():
    empty = IncidenceMatrices(np.zeros((1, 0)), np.zeros((1, 0)), operands=("a",),
                              buffers=("x",), capabilities=())
    with pytest.raises(ValueError, match="degenerate"):
        write_incidence_json(empty)


def incidence_doc(**overrides):
    doc = {
        "schema": io.INCIDENCE_SCHEMA,
        "operands": ["a"], "buffers": ["x"], "capabilities": ["c1"],
        "shape": [1, 1], "m_plus": [[1.0]], "m_minus": [[0.5]],
    }
    doc.update(overrides)
    return json.dumps(doc)


@pytest.mark.parametrize("field, ids", [("operands", ["a", "b", "a"]),
                                        ("buffers", ["x", "x"]),
                                        ("capabilities", ["c1", "c1"])])
def test_incidence_json_refuses_repeated_ids(field, ids):
    # A repeated id would collapse row_index and col_index.
    doc = {"operands": ["a"], "buffers": ["x"], "capabilities": ["c1"], field: ids}
    rows, cols = len(doc["operands"]) * len(doc["buffers"]), len(doc["capabilities"])
    blob = incidence_doc(**doc, shape=[rows, cols], m_plus=[[1.0] * cols] * rows,
                         m_minus=[[0.0] * cols] * rows)
    with pytest.raises(ValueError, match=f"{field} must be distinct; '{ids[-1]}' is repeated"):
        read_incidence_json(blob)


def test_incidence_json_errors():
    with pytest.raises(JsonFormatError, match="schema mismatch"):
        read_incidence_json(incidence_doc(schema="nope/9"))
    with pytest.raises(JsonFormatError, match="must be a list of strings"):
        read_incidence_json(incidence_doc(operands=[1]))
    with pytest.raises(JsonFormatError,
                       match=r"^incidence 'shape'\[0\] must be an integer >= 0"):
        read_incidence_json(incidence_doc(shape=[1.5, 1]))
    with pytest.raises(JsonFormatError, match="degenerate incidence shape"):
        read_incidence_json(incidence_doc(shape=[0, 0], operands=[],
                                          capabilities=[], m_plus=[], m_minus=[]))
    with pytest.raises(JsonFormatError, match="disagrees with 1 operands"):
        read_incidence_json(incidence_doc(shape=[2, 1]))
    with pytest.raises(JsonFormatError, match="disagrees with 1 capabilities"):
        read_incidence_json(incidence_doc(shape=[1, 2]))
    with pytest.raises(JsonFormatError, match="row 0 must be a list of 1 numbers"):
        read_incidence_json(incidence_doc(m_plus=[[1.0, 2.0]]))
    with pytest.raises(JsonFormatError, match="is not a number"):
        read_incidence_json(incidence_doc(m_minus=[[True]]))
    with pytest.raises(JsonFormatError, match="invalid incidence JSON"):
        read_incidence_json(b"{not json")
    with pytest.raises(JsonFormatError, match="must be a JSON object"):
        read_incidence_json(b"[1, 2]")
    with pytest.raises(JsonFormatError, match="^incidence has unknown keys: extra"):
        read_incidence_json(incidence_doc(extra=[]))


# --------------------------------------------------------------------------
# Scenario JSON


def test_load_bundled_scenario():
    sc = load_scenario((DATA / "three_sector_scenario.json").read_bytes())
    assert sc.demand == {"man": 20.0, "cons": 25.0, "ag": 22.0}
    assert sc.availability == {"capital": 540.0, "water": 342.0}
    assert sc.prices == {"capital": 1.0, "water": 0.9}
    assert sc.horizon == 1 and sc.dt == 1.0


def test_vectors_follow_declaration_order(economy_model):
    sc = load_scenario((DATA / "three_sector_scenario.json").read_bytes())
    y, f, pi, products, factors = vectors_from_scenario(economy_model, sc)
    assert np.array_equal(y, [20.0, 25.0, 22.0])
    assert np.array_equal(f, [540.0, 342.0])
    assert np.array_equal(pi, [1.0, 0.9])
    assert products == ("man", "cons", "ag")
    assert factors == ("capital", "water")


def scenario_doc(**overrides):
    doc = {
        "schema": io.SCENARIO_SCHEMA,
        "demand": {"a": 1.0},
        "availability": {"f": 2.0},
        "prices": {"f": 0.5},
    }
    doc.update(overrides)
    return json.dumps(doc)


def test_scenario_errors():
    missing = json.loads(scenario_doc())
    del missing["demand"]
    with pytest.raises(ScenarioError, match="^scenario is missing required field 'demand'"):
        load_scenario(json.dumps(missing))
    with pytest.raises(ScenarioError, match="^scenario 'demand' must be an object"):
        load_scenario(scenario_doc(demand=None))
    with pytest.raises(ScenarioError, match="must name the same factors"):
        load_scenario(scenario_doc(prices={"g": 0.5}))
    with pytest.raises(ScenarioError, match="both products and factors"):
        load_scenario(scenario_doc(availability={"a": 2.0}, prices={"a": 0.5}))
    with pytest.raises(ScenarioError, match="'horizon' must be an integer >= 1"):
        load_scenario(scenario_doc(horizon=0))
    with pytest.raises(ScenarioError, match="'horizon' must be an integer >= 1"):
        load_scenario(scenario_doc(horizon=True))
    with pytest.raises(ScenarioError, match="'dt' must be a positive number"):
        load_scenario(scenario_doc(dt=-1.0))
    with pytest.raises(ScenarioError, match="is not a number"):
        load_scenario(scenario_doc(demand={"a": "lots"}))
    with pytest.raises(ScenarioError, match="must be >= 0"):
        load_scenario(scenario_doc(demand={"a": -3}))
    with pytest.raises(JsonFormatError, match="schema mismatch"):
        load_scenario(scenario_doc(schema="other/1"))
    with pytest.raises(ScenarioError, match="'boundary' must be an object"):
        load_scenario(scenario_doc(boundary=[]))
    with pytest.raises(ScenarioError, match="'boundary' has unknown keys: q_x"):
        load_scenario(scenario_doc(boundary={"q_x": [1.0]}))
    with pytest.raises(ScenarioError, match="holds a number too large for a float"):
        load_scenario(scenario_doc(demand={"a": 10 ** 400}))


def test_scenario_horizon_is_a_count():
    scenario = load_scenario(scenario_doc(horizon=4.0))
    assert scenario.horizon == 4 and type(scenario.horizon) is int
    with pytest.raises(ScenarioError,
                       match=r"^scenario 'horizon' must be an integer >= 1 and < 2\*\*63"):
        load_scenario(scenario_doc(horizon=2**63))


def test_records_holding_arrays_compare_by_identity():
    # a generated __eq__ would compare the arrays inside and raise
    for make in (lambda: SquareEio(a=np.zeros((2, 2)), f=np.ones((1, 2))),
                 lambda: Scenario(demand={}, availability={}, prices={},
                                  pins={"u_minus": np.zeros((1, 2))})):
        first, second = make(), make()
        assert first == first and first != second
        assert hash(first) != hash(second)


def test_scenario_operand_coverage_errors(economy_model):
    sc = Scenario(demand={"man": 1.0, "cons": 1.0, "ag": 1.0, "bogus": 1.0},
                  availability={"capital": 1.0, "water": 1.0},
                  prices={"capital": 1.0, "water": 1.0})
    with pytest.raises(ScenarioError, match="unknown operands.*bogus"):
        vectors_from_scenario(economy_model, sc)
    sc = Scenario(demand={"man": 1.0, "cons": 1.0},
                  availability={"capital": 1.0, "water": 1.0},
                  prices={"capital": 1.0, "water": 1.0})
    with pytest.raises(ScenarioError, match="neither demand nor availability.*ag"):
        vectors_from_scenario(economy_model, sc)


def test_scenario_requires_products_declared_first():
    model = parse_system_xml(MINIMAL)
    # operand a is declared first but used as the factor here
    sc = Scenario(demand={"b": 1.0}, availability={"a": 5.0}, prices={"a": 1.0})
    with pytest.raises(ScenarioError, match="products first, then factors"):
        vectors_from_scenario(model, sc)


# --------------------------------------------------------------------------
# Schedule JSON


def test_load_bundled_schedule():
    u, q_b0, q_e0, dt = load_schedule((DATA / "two_node_schedule.json").read_bytes())
    assert u.shape == (4, 2)
    assert q_b0 is not None and q_b0.shape == (4,)
    assert q_e0 is not None and q_e0.shape == (2,)


def schedule_doc(**overrides):
    doc = {"schema": io.SCHEDULE_SCHEMA, "u_minus": [[1.0, 2.0], [0.0, 0.5]]}
    doc.update(overrides)
    return json.dumps(doc)


def test_schedule_defaults_and_errors():
    u, q_b0, q_e0, dt = load_schedule(schedule_doc())
    assert u.shape == (2, 2)
    assert q_b0 is None and q_e0 is None and dt is None
    u, q_b0, q_e0, dt = load_schedule(schedule_doc(q_b=[1, 2], dt=0.5))
    assert np.array_equal(q_b0, [1.0, 2.0]) and dt == 0.5

    with pytest.raises(JsonFormatError, match="non-empty list of rows"):
        load_schedule(schedule_doc(u_minus=[]))
    with pytest.raises(JsonFormatError, match="row 1 must be a list of 2 numbers"):
        load_schedule(schedule_doc(u_minus=[[1.0, 2.0], [3.0]]))
    with pytest.raises(JsonFormatError, match="is not a number"):
        load_schedule(schedule_doc(u_minus=[[1.0, None]]))
    with pytest.raises(JsonFormatError, match="'dt' must be a positive number"):
        load_schedule(schedule_doc(dt=0))
    with pytest.raises(JsonFormatError, match="'q_e' must be a non-empty list of numbers"):
        load_schedule(schedule_doc(q_e=7))
    with pytest.raises(JsonFormatError, match="holds a number too large for a float"):
        load_schedule(schedule_doc(u_minus=[[10 ** 400, 1.0]]))
    with pytest.raises(JsonFormatError, match="schema mismatch"):
        load_schedule(json.dumps({"schema": "x", "u_minus": [[1.0]]}))


# --------------------------------------------------------------------------
# Result tables


def test_results_csv_layout():
    blob = emit_results_csv(fabricate_solution())
    lines = blob.decode().splitlines()
    assert lines[0] == "capability,value,percent"
    assert lines[1] == "alpha,1.0000,25.0%"
    assert lines[2] == "beta,3.0000,75.0%"
    assert lines[3] == "objective,7.5000,"
    assert lines[4] == "use:fuel,2.0000,"
    assert len(lines) == 5


def test_results_csv_reference_shares(economy_instance):
    from heconet.rcot import solve_rcot
    sol = solve_rcot(economy_instance)
    lines = emit_results_csv(sol).decode().splitlines()
    # the largest activity takes just under 35% of total activity
    assert lines[1].endswith("34.9%")
    assert f"objective,{ECONOMY_Z:.4f}," in lines


def test_results_csv_zero_total_warns():
    sol = fabricate_solution(x_star=np.zeros(2), z=0.0)
    with pytest.warns(RuntimeWarning, match="percent column is 0.0%"):
        lines = emit_results_csv(sol).decode().splitlines()
    assert lines[1] == "alpha,0.0000,0.0%"


def test_results_csv_single_capability_is_all_of_it():
    sol = fabricate_solution(x_star=np.array([4.0]), tech_labels=("only",),
                             binding=np.array([0.0]), row_labels=("demand:a",))
    lines = emit_results_csv(sol).decode().splitlines()
    assert lines[1] == "only,4.0000,100.0%"


def test_results_csv_rejects_non_optimal():
    sol = fabricate_solution(status=LpStatus.INFEASIBLE)
    with pytest.raises(ValueError, match="cannot tabulate a infeasible"):
        emit_results_csv(sol)


def test_results_json_optimal_and_failed():
    doc = json.loads(emit_results_json(fabricate_solution()))
    assert doc["status"] == "optimal"
    assert doc["objective"] == 7.5
    assert doc["x"] == {"alpha": 1.0, "beta": 3.0}
    assert doc["factor_use"] == {"fuel": 2.0}
    assert doc["binding"]["cap:f"] == 0.5
    assert doc["iterations"] == 3

    failed = fabricate_solution(status=LpStatus.UNBOUNDED, z=np.nan,
                                x_star=np.full(2, np.nan))
    doc = json.loads(emit_results_json(failed))
    assert doc["status"] == "unbounded"
    assert doc["objective"] is None
    assert doc["x"] == {} and doc["factor_use"] == {} and doc["binding"] == {}


# --------------------------------------------------------------------------
# Chord and trajectory tables


def test_chord_csv_full_and_nonzero():
    a = np.array([[0.5, 0.0, 1.25], [0.0, 2.0, 0.0]])
    lines = emit_chord_csv(a).decode().splitlines()
    assert lines[0] == "source,target,coefficient"
    assert len(lines) == 1 + 6
    assert lines[1] == "s1,t1,0.5"
    assert lines[3] == "s1,t3,1.25"
    sparse = emit_chord_csv(a, sector_labels=("x", "y"),
                            tech_labels=("p", "q", "r"),
                            nonzero_only=True).decode().splitlines()
    assert sparse[1:] == ["x,p,0.5", "x,r,1.25", "y,q,2.0"]


def test_chord_csv_errors():
    with pytest.raises(ValueError, match=r"a_star must have shape \(\*, \*\)"):
        emit_chord_csv(np.zeros(3))
    with pytest.raises(ValueError, match="must be finite"):
        emit_chord_csv(np.array([[np.inf]]))
    with pytest.raises(ValueError, match="label lengths"):
        emit_chord_csv(np.zeros((2, 2)), sector_labels=("a",))


def test_trajectory_csv_round_trippable_values():
    q_b = np.array([[0.1, 10.0], [0.2, 9.5]])
    q_e = np.array([[0.0], [0.30000000000000004]])
    lines = emit_trajectory_csv(q_b, q_e, ("a@x", "b@x"), ("t1",)).decode().splitlines()
    assert lines[0] == "step,qB:a@x,qB:b@x,qE:t1"
    assert lines[1] == "0,0.1,10.0,0.0"
    assert lines[2] == "1,0.2,9.5,0.30000000000000004"


def trajectory_csv_by_writer(q_b, q_e, place_labels, transition_labels) -> bytes:
    """Every row through csv.writer, one repr(float(v)) per cell: the
    reference for emit_trajectory_csv."""
    buf = StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["step"] + [f"qB:{p}" for p in place_labels]
                    + [f"qE:{t}" for t in transition_labels])
    for k in range(q_b.shape[0]):
        writer.writerow([str(k)] + [repr(float(v)) for v in q_b[k]]
                        + [repr(float(v)) for v in q_e[k]])
    return buf.getvalue().encode("utf-8")


AWKWARD = [-0.0, 5e-324, 0.1 + 0.2, 1e16, 3.0, 2.0 ** 53, -1e-300, 123456789.0]


@pytest.mark.parametrize("steps, places, transitions", [
    (4, 2, 3), (1, 1, 0), (3, 0, 2), (0, 2, 1), (2, 0, 0)])
def test_trajectory_csv_matches_csv_writer(steps, places, transitions):
    q_b = np.resize(AWKWARD, (steps, places))  # (4, 2) holds each value once
    q_e = np.resize(AWKWARD[::-1], (steps, transitions))
    place_labels = [f"p{i},x@\"b\"" for i in range(places)]  # quoted in the header
    transition_labels = [f"t{j}" for j in range(transitions)]
    assert emit_trajectory_csv(q_b, q_e, place_labels, transition_labels) \
        == trajectory_csv_by_writer(q_b, q_e, place_labels, transition_labels)


BLOCK = io._BLOCK_ROWS


@pytest.mark.parametrize("places, transitions", [(3, 2), (0, 2), (3, 0), (0, 0)])
@pytest.mark.parametrize("rows", [1, BLOCK - 1, BLOCK, BLOCK + 1])
def test_written_trajectory_matches_emit_and_csv_writer(rows, places, transitions):
    q_b = np.resize(AWKWARD, (rows, places))
    q_e = np.resize(AWKWARD[::-1], (rows, transitions))
    place_labels = [f"p{i},x@\"b\"" for i in range(places)]  # quoted in the header
    transition_labels = [f"Wärme→{j}" for j in range(transitions)]
    writes = []
    write_trajectory_csv(SimpleNamespace(write=writes.append), q_b, q_e,
                         place_labels, transition_labels)
    expected = trajectory_csv_by_writer(q_b, q_e, place_labels, transition_labels)
    assert "".join(writes).encode("utf-8") == expected
    assert emit_trajectory_csv(q_b, q_e, place_labels, transition_labels) == expected
    # the header, then one write of whole rows per block
    assert len(writes) == 1 + -(-rows // BLOCK)
    assert all(text.endswith("\n") for text in writes)


def test_written_trajectory_refuses_unequal_step_counts():
    writes = []
    with pytest.raises(ValueError, match=r"one row per step, got shapes \(3, 1\) and \(2, 1\)"):
        write_trajectory_csv(SimpleNamespace(write=writes.append), np.zeros((3, 1)),
                             np.zeros((2, 1)), ["p"], ["t"])
    assert writes == []


def test_trajectory_write_memory_does_not_grow_with_the_horizon():
    # 23 places and 60 transitions, the simulate benchmark's width; ten
    # times the steps may not raise the peak by a megabyte
    sink = SimpleNamespace(write=len)
    labels = ([f"p{i}" for i in range(23)], [f"t{j}" for j in range(60)])

    def peak(steps: int) -> int:
        rng = np.random.default_rng(steps)
        q_b, q_e = rng.uniform(0.0, 100.0, (steps + 1, 23)), rng.uniform(0.0, 1.0, (steps + 1, 60))
        gc.collect()
        tracemalloc.start()
        try:
            write_trajectory_csv(sink, q_b, q_e, *labels)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak(500), peak(5000)
    assert large - small < 1_000_000, (small, large)


def test_written_json_matches_dumps():
    doc = {"q_b": [[-0.0, 5e-324, float("nan")], [0.1 + 0.2, 1e16, 2.0 ** 53]],
           "Wärme→": {"ünits": [1.0, -float("inf")]}, "empty": [], "none": None,
           "long": np.resize(AWKWARD, 3 * io._BLOCK_CHUNKS).tolist()}
    writes = []
    write_json(SimpleNamespace(write=writes.append), doc)
    assert "".join(writes) == json.dumps(doc, indent=2) + "\n"
    assert len(writes) > 3  # the long list spans blocks


def test_full_json_keys(economy_incidence):
    from heconet.hfnmcf import embed_static, solve_full
    problem = embed_static(economy_incidence, [20.0, 25.0, 22.0], [540.0, 342.0],
                           [1.0, 0.9])
    sol = solve_full(problem)
    doc = json.loads(emit_full_json(sol))
    assert doc["status"] == "optimal"
    assert doc["objective"] == pytest.approx(ECONOMY_Z, abs=1e-8)
    assert np.allclose(doc["u_minus"][0], ECONOMY_X, atol=1e-8)
    assert "q_sl" not in doc  # empty families are omitted


# --------------------------------------------------------------------------
# DOT export


def test_dot_export_structure(economy_incidence):
    text = to_dot(economy_incidence, name="economy").decode()
    assert text.startswith('digraph "economy" {')
    assert 'label="man@economy"' in text
    assert 'label="c1"' in text
    assert "p0 -> t0" in text or "t0 -> p0" in text
    # one color per operand, used consistently on places and their edges
    assert text.count("#4c78a8") >= 2
    assert text.rstrip().endswith("}")


QUOTED_XML = """<?xml version='1.0' encoding='utf-8'?>
<system>
  <operand id="a&quot;x" unit="t"/>
  <resource id="ré" kind="transformation"/>
  <process id="p"><input operand="a&quot;x" coeff="1.0"/>
    <output operand="a&quot;x" coeff="2.0"/></process>
  <capability id="c&quot;1" resource="ré" process="p"/>
</system>
"""


def dot_labels(text: str) -> dict:
    """Node id -> label of a DOT document, read by DOT's rule that the
    only escape inside a quoted string is a backslash before a quote."""
    return {node: label.replace('\\"', '"') for node, label in
            re.findall(r'^  ([pt]\d+) \[.*?label="((?:\\"|[^"])*)"', text, re.M)}


def test_dot_export_quotes_ids():
    inc = build_incidence(parse_system_xml(QUOTED_XML))
    text = to_dot(inc).decode()
    assert dot_labels(text) == {"p0": 'a"x@ré', "t0": 'c"1'}
    # every line closes the strings it opens
    assert all(line.replace('\\"', "").count('"') % 2 == 0 for line in text.splitlines())
