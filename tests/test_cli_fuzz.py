"""Fuzz test of the command line's exit-code contract.

Each example takes one bundled input document (model XML, scenario,
schedule or tolerance file), breaks one field of it (a wrong type, a
null, a non-finite or overflowing number, a ragged row, a missing key)
and runs a command on it.  Whatever the input, the command must exit
0, 2, 3 or 4 through ``sys.exit``: never with a traceback, and never
with 1, which means a failed golden-case comparison.  A key added to or
repeated in any object of a JSON document must exit 2.
"""

import copy
import json
import re
from importlib import resources
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from heconet.cli import main

from conftest import SQUARE_SCENARIO, SQUARE_XML

DATA = resources.files("heconet") / "data"
ECONOMY = str(DATA / "three_sector_economy.xml")
SCENARIO = str(DATA / "three_sector_scenario.json")
CHAIN = str(DATA / "two_node_chain.xml")
SCHEDULE = str(DATA / "two_node_schedule.json")

SCENARIO_DOC = json.loads((DATA / "three_sector_scenario.json").read_text())
TIMED_SCENARIO_DOC = dict(
    SCENARIO_DOC, horizon=2,
    boundary={"q_b_initial": [-20.0, -25.0, -22.0, 540.0, 342.0],
              "q_e_initial": [0, 0, 0, 0, 0, 0],
              "q_b_final": [0.0, 0.0, 0.0, None, None]},
    pins={"u_minus": [[None] * 6, [0, 0, 0, 0, 0, 0]]})
SCHEDULE_DOC = json.loads((DATA / "two_node_schedule.json").read_text())
TOLERANCE_DOC = {"lp_pivot": 1e-11, "lp_max_iter": 50_000, "lp_refactor_every": 50}
SQUARE_SCENARIO_DOC = json.loads(SQUARE_SCENARIO)


def beside(path, name, text) -> str:
    """Write ``text`` to the file ``name`` next to ``path``; its path."""
    other = Path(path).with_name(name)
    other.write_text(text, encoding="utf-8")
    return str(other)


DELETE = object()
# "@@...@@" strings are written as the bare literal between the markers:
# json.dumps has no form for an overflowing number.
BAD_JSON = [DELETE, None, True, "x", [], {}, [1.0, [2.0]], [[1.0], [1.0, 2.0]],
            -1, 0, 1e300, "@@NaN@@", "@@Infinity@@", "@@-Infinity@@", "@@1e999@@"]
BAD_XML = ["", "nan", "inf", "-1", "1e999", "abc", "0.5", "2", "99999999999999999999999"]

JSON_CASES = [
    (SCENARIO_DOC, lambda path: ["rcot", ECONOMY, path]),
    (SCENARIO_DOC, lambda path: ["hfnmcf-static", ECONOMY, path]),
    (SCENARIO_DOC, lambda path: ["hfnmcf-full", ECONOMY, path]),
    # leontief needs one technology per product, which the bundled
    # economy does not have
    (SQUARE_SCENARIO_DOC,
     lambda path: ["leontief", beside(path, "square.xml", SQUARE_XML), path]),
    (TIMED_SCENARIO_DOC, lambda path: ["hfnmcf-full", ECONOMY, path]),
    (SCHEDULE_DOC, lambda path: ["simulate", CHAIN, path]),
    (TOLERANCE_DOC, lambda path: ["--tolerance-config", path, "rcot", ECONOMY, SCENARIO]),
]
ECONOMY_XML = (DATA / "three_sector_economy.xml").read_text(encoding="utf-8")
XML_CASES = [
    (ECONOMY_XML, lambda path: ["rcot", path, SCENARIO]),
    ((DATA / "two_node_chain.xml").read_text(encoding="utf-8"),
     lambda path: ["simulate", path, SCHEDULE]),
    # a stated zero duration, so that mutations reach the durations
    (ECONOMY_XML.replace('process="p1"', 'process="p1" duration="0"'),
     lambda path: ["hfnmcf-full", path, SCENARIO]),
    (SQUARE_XML,
     lambda path: ["leontief", path, beside(path, "square.json", SQUARE_SCENARIO)]),
]


def paths(node, prefix=()):
    """Every key path into a parsed JSON document, the root included."""
    yield prefix
    items = node.items() if isinstance(node, dict) \
        else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from paths(child, prefix + (key,))


def mutated(doc, path, value) -> str:
    """``doc`` as JSON text, with the entry at ``path`` set to ``value``
    or deleted."""
    doc = copy.deepcopy(doc)
    if path:
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if value is DELETE:
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
    elif value is not DELETE:
        doc = value
    return re.sub(r'"@@(.*?)@@"', r"\1", json.dumps(doc))


@pytest.mark.parametrize("text, args", [
    *(pytest.param(json.dumps(doc), args, id=f"json{i}") for i, (doc, args) in enumerate(JSON_CASES)),
    *(pytest.param(text, args, id=f"xml{i}") for i, (text, args) in enumerate(XML_CASES))])
def test_unbroken_inputs_exit_zero(tmp_path, text, args):
    # a base case that fails unmutated would let no mutation reach the
    # command it names
    path = tmp_path / "input"
    path.write_text(text, encoding="utf-8")
    result = CliRunner().invoke(main, args(str(path)))
    assert result.exit_code == 0, f"{args(str(path))}\n{result.output}"


def entry(doc, path):
    """The entry of ``doc`` at the key path ``path``."""
    for key in path:
        doc = doc[key]
    return doc


def repeated(doc, path) -> str:
    """``doc`` as JSON text in which the object at ``path`` gives its first
    key twice, which json.dumps cannot write."""
    first = next(iter(entry(doc, path)))
    text = mutated(doc, (*path, "%%again%%"), entry(doc, path)[first])
    assert text.count('"%%again%%"') == 1
    return text.replace('"%%again%%"', json.dumps(first))


@pytest.mark.parametrize("doc, args, path", [
    pytest.param(doc, args, path, id=f"json{i}-{'.'.join(map(str, path)) or 'root'}")
    for i, (doc, args) in enumerate(JSON_CASES) for path in paths(doc)
    if isinstance(entry(doc, path), dict)])
@pytest.mark.parametrize("mutation", ["unknown", "repeated"])
def test_unknown_and_repeated_keys_exit_two(tmp_path, doc, args, path, mutation):
    text = mutated(doc, (*path, "zz_unknown"), 1.0) if mutation == "unknown" \
        else repeated(doc, path)
    input_path = tmp_path / "input"
    input_path.write_text(text, encoding="utf-8")
    result = CliRunner().invoke(main, args(str(input_path)))
    assert result.exit_code == 2, f"{args(str(input_path))}\n{text}\n{result.output}"


@st.composite
def broken_inputs(draw):
    """(file text, function of the file's path giving the CLI arguments)."""
    if draw(st.integers(0, 3)) == 0:
        text, args = draw(st.sampled_from(XML_CASES))
        if draw(st.booleans()):
            lines = text.splitlines()
            del lines[draw(st.integers(0, len(lines) - 1))]
            return "\n".join(lines), args
        spans = [m.span(1) for m in re.finditer(r'\w+="([^"]*)"', text)]
        start, end = draw(st.sampled_from(spans))
        return text[:start] + draw(st.sampled_from(BAD_XML)) + text[end:], args
    doc, args = draw(st.sampled_from(JSON_CASES))
    path = draw(st.sampled_from(list(paths(doc))))
    return mutated(doc, path, draw(st.sampled_from(BAD_JSON))), args


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=broken_inputs())
def test_broken_inputs_keep_the_exit_code_contract(tmp_path, case):
    text, args = case
    path = tmp_path / "input"
    path.write_text(text, encoding="utf-8")
    result = CliRunner().invoke(main, args(str(path)))
    report = f"{args(str(path))}\n{text}\n{result.output}"
    assert result.exception is None or isinstance(result.exception, SystemExit), \
        f"{result.exception!r}\n{report}"
    assert result.exit_code in (0, 2, 3, 4), report
