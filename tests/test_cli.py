import json
import os
import re
import subprocess
import sys
from importlib import resources

import numpy as np
import pytest
from click.testing import CliRunner

import heconet
from heconet.cli import main
from heconet.io import read_incidence_json

from conftest import ECONOMY_Z, SQUARE_SCENARIO, SQUARE_XML

DATA = resources.files("heconet") / "data"
ECONOMY = str(DATA / "three_sector_economy.xml")
SCENARIO = str(DATA / "three_sector_scenario.json")
CHAIN = str(DATA / "two_node_chain.xml")
SCHEDULE = str(DATA / "two_node_schedule.json")


@pytest.fixture()
def runner():
    return CliRunner()


def test_rcot_checks_each_model_once(runner, monkeypatch):
    import heconet.core
    checked = []
    checker = heconet.core._violations
    monkeypatch.setattr(heconet.core, "_violations",
                        lambda model: checked.append(model) or checker(model))
    result = runner.invoke(main, ["rcot", ECONOMY, SCENARIO])
    assert result.exit_code == 0, result.output
    assert len(checked) == 1


@pytest.fixture()
def square_files(tmp_path):
    model = tmp_path / "square.xml"
    model.write_text(SQUARE_XML)
    scenario = tmp_path / "square.json"
    scenario.write_text(SQUARE_SCENARIO)
    return str(model), str(scenario)


def test_rcot_reference_csv(runner):
    result = runner.invoke(main, ["rcot", ECONOMY, SCENARIO])
    assert result.exit_code == 0, result.output
    lines = result.stdout.splitlines()
    assert lines[0] == "capability,value,percent"
    assert f"objective,{ECONOMY_Z:.4f}," in lines
    assert "use:water,342.0000," in lines


def test_rcot_json_uses_sentence_labels(runner):
    result = runner.invoke(main, ["--format", "json", "rcot", ECONOMY, SCENARIO])
    assert result.exit_code == 0, result.output
    doc = json.loads(result.stdout)
    assert doc["objective"] == pytest.approx(ECONOMY_Z, abs=1e-6)
    assert doc["x"]["Economy produces manufactured products"] == \
        pytest.approx(99.7883, abs=1e-3)
    assert doc["binding"]["cap:water"] == pytest.approx(0.0, abs=1e-9)


def test_hfnmcf_static_matches_rcot(runner):
    result = runner.invoke(main, ["--format", "json", "hfnmcf-static",
                                  ECONOMY, SCENARIO])
    assert result.exit_code == 0, result.output
    doc = json.loads(result.stdout)
    assert doc["objective"] == pytest.approx(ECONOMY_Z, abs=1e-6)
    assert doc["x"]["Economy produces construction products with modern technology"] \
        == pytest.approx(87.5364, abs=1e-3)


def test_hfnmcf_static_equality_mode_is_infeasible(runner):
    result = runner.invoke(main, ["hfnmcf-static", ECONOMY, SCENARIO,
                                  "--relaxation", "="])
    assert result.exit_code == 3
    assert "program is infeasible" in result.stderr


def test_hfnmcf_full_trajectory_csv(runner):
    result = runner.invoke(main, ["hfnmcf-full", ECONOMY, SCENARIO])
    assert result.exit_code == 0, result.output
    lines = result.stdout.splitlines()
    assert lines[0].startswith("step,qB:man@economy,")
    assert len(lines) == 3  # header + steps 0 and 1


def test_hfnmcf_full_json_objective(runner):
    result = runner.invoke(main, ["--format", "json", "hfnmcf-full",
                                  ECONOMY, SCENARIO])
    assert result.exit_code == 0, result.output
    doc = json.loads(result.stdout)
    assert doc["status"] == "optimal"
    assert doc["objective"] == pytest.approx(ECONOMY_Z, abs=1e-6)
    # final factor balances: capital keeps slack, water is exhausted
    assert doc["q_b"][1][3] == pytest.approx(42.0759, abs=1e-3)
    assert doc["q_b"][1][4] == pytest.approx(0.0, abs=1e-6)


@pytest.mark.parametrize("horizon, dt", [(8, 1.0), (1, 0.5), (8, 0.5)])
def test_hfnmcf_full_carries_the_economy_over_the_horizon(runner, tmp_path, horizon, dt):
    # Without a boundary block the deficit [-y; f] starts the horizon and
    # the demand must be met by its end, at the static optimum whatever
    # the step length: a start firing u- moves, and is charged for,
    # u- dt tokens.
    path = changed_copy(tmp_path, SCENARIO,
                        lambda doc: doc.update({"horizon": horizon, "dt": dt}))
    result = runner.invoke(main, ["--format", "json", "hfnmcf-full", ECONOMY, path])
    assert result.exit_code == 0, result.output
    doc = json.loads(result.stdout)
    assert doc["objective"] == pytest.approx(ECONOMY_Z, rel=1e-9)
    assert len(doc["q_b"]) == horizon + 1
    assert doc["q_b"][0] == pytest.approx([-20.0, -25.0, -22.0, 540.0, 342.0])
    assert min(doc["q_b"][horizon]) >= -1e-9


def test_hfnmcf_full_over_the_horizon_without_water_is_infeasible(runner, tmp_path):
    # This once exited 0 with objective 0: demand and availability did
    # not enter the program at horizon > 1.
    path = changed_copy(tmp_path, SCENARIO, lambda doc: doc.update(
        {"horizon": 8, "availability": {"capital": 540.0, "water": 1.0}}))
    result = runner.invoke(main, ["hfnmcf-full", ECONOMY, path])
    assert result.exit_code == 3, result.output
    assert "conflicting rows: " in result.stderr
    assert "water@economy" in result.stderr


# stderr of hfnmcf-full on the water-cut program at horizon 8, as the
# deletion filter on the full program reports it: 84 rows.
WATER_CUT_STDERR = (
    "conflicting rows: "
    "esn-place[0]:man@economy, esn-place[0]:cons@economy, esn-place[0]:ag@economy, "
    "esn-place[0]:water@economy, esn-place[1]:man@economy, "
    "esn-place[1]:cons@economy, esn-place[1]:ag@economy, esn-place[1]:water@economy, "
    "esn-place[2]:man@economy, esn-place[2]:cons@economy, esn-place[2]:ag@economy, "
    "esn-place[2]:water@economy, esn-place[3]:man@economy, "
    "esn-place[3]:cons@economy, esn-place[3]:ag@economy, esn-place[3]:water@economy, "
    "esn-place[4]:man@economy, esn-place[4]:cons@economy, esn-place[4]:ag@economy, "
    "esn-place[4]:water@economy, esn-place[5]:man@economy, "
    "esn-place[5]:cons@economy, esn-place[5]:ag@economy, esn-place[5]:water@economy, "
    "esn-place[6]:man@economy, esn-place[6]:cons@economy, esn-place[6]:ag@economy, "
    "esn-place[6]:water@economy, esn-place[7]:man@economy, "
    "esn-place[7]:cons@economy, esn-place[7]:ag@economy, esn-place[7]:water@economy, "
    "duration[0]:c1, duration[1]:c1, duration[2]:c1, duration[3]:c1, duration[4]:c1, "
    "duration[5]:c1, duration-causality[0]:c1, duration-causality[1]:c1, "
    "duration[0]:c2, duration[1]:c2, duration[2]:c2, duration[3]:c2, duration[4]:c2, "
    "duration[5]:c2, duration[6]:c2, duration-causality[0]:c2, duration[0]:c3, "
    "duration[1]:c3, duration[2]:c3, duration[3]:c3, duration[4]:c3, duration[5]:c3, "
    "duration[6]:c3, duration-causality[0]:c3, duration[0]:c4, duration[1]:c4, "
    "duration[2]:c4, duration[3]:c4, duration[4]:c4, duration[5]:c4, "
    "duration-causality[0]:c4, duration-causality[1]:c4, duration[0]:c5, "
    "duration[1]:c5, duration[2]:c5, duration[3]:c5, duration[4]:c5, duration[5]:c5, "
    "duration[6]:c5, duration-causality[0]:c5, duration[0]:c6, duration[1]:c6, "
    "duration[2]:c6, duration[3]:c6, duration[4]:c6, duration[5]:c6, duration[6]:c6, "
    "duration-causality[0]:c6, boundary-initial:q_b:man@economy, "
    "boundary-initial:q_b:cons@economy, boundary-initial:q_b:ag@economy, "
    "boundary-initial:q_b:water@economy"
    "\nprogram is infeasible\n")


def test_hfnmcf_full_names_the_water_cut_rows_of_the_filter(runner, tmp_path):
    # conftest.water_cut at horizon 8: durations 2,1,1,2,1,1 and water
    # cut to 307.8.  The witness is lifted from the static economy and
    # must read as the filter's, byte for byte.
    model = tmp_path / "timed.xml"
    text = open(ECONOMY).read()
    for j, duration in enumerate((2, 1, 1, 2, 1, 1), start=1):
        text = text.replace(f'process="p{j}"/>', f'process="p{j}" duration="{duration}"/>')
    model.write_text(text)
    path = changed_copy(tmp_path, SCENARIO, lambda doc: (
        doc.update({"horizon": 8}), doc["availability"].update({"water": 307.8})))
    result = runner.invoke(main, ["hfnmcf-full", str(model), path])
    assert result.exit_code == 3
    assert result.stdout == ""
    assert result.stderr == WATER_CUT_STDERR


def test_hfnmcf_full_needs_a_horizon_longer_than_the_durations(runner, tmp_path):
    # A one-step capability cannot complete within one step, so the
    # demand cannot be met at horizon 1; at horizon 2 it can.
    model = tmp_path / "timed.xml"
    model.write_text(open(ECONOMY).read().replace(
        'process="p1"/>', 'process="p1" duration="1"/>'))
    result = runner.invoke(main, ["hfnmcf-full", str(model), SCENARIO])
    assert result.exit_code == 3, result.output
    assert "conflicting rows: " in result.stderr
    path = changed_copy(tmp_path, SCENARIO, lambda doc: doc.update({"horizon": 2}))
    result = runner.invoke(main, ["--format", "json", "hfnmcf-full", str(model), path])
    assert result.exit_code == 0, result.output
    assert json.loads(result.stdout)["objective"] == pytest.approx(ECONOMY_Z, rel=1e-9)


def test_hfnmcf_full_scenario_with_boundary_and_pins(runner, tmp_path):
    scenario = {
        "schema": "heconet-scenario/1",
        "demand": {"man": 20.0, "cons": 25.0, "ag": 22.0},
        "availability": {"capital": 540.0, "water": 342.0},
        "prices": {"capital": 1.0, "water": 0.9},
        "horizon": 2,
        "boundary": {
            "q_b_initial": [-20.0, -25.0, -22.0, 540.0, 342.0],
            "q_e_initial": [0, 0, 0, 0, 0, 0],
            "q_b_final": [0.0, 0.0, 0.0, None, None],
        },
        "pins": {"u_minus": [[None] * 6, [0, 0, 0, 0, 0, 0]]},
    }
    path = tmp_path / "timed.json"
    path.write_text(json.dumps(scenario))
    result = runner.invoke(main, ["--format", "json", "hfnmcf-full",
                                  ECONOMY, str(path)])
    assert result.exit_code == 0, result.output
    doc = json.loads(result.stdout)
    assert doc["status"] == "optimal"
    # nothing may fire in the second step
    assert np.allclose(doc["u_minus"][1], 0.0, atol=1e-9)
    assert np.allclose(doc["q_b"][2][:3], 0.0, atol=1e-8)

    # reference value: cheapest technology mix meeting demand exactly,
    # with no factor ceilings (the final factor marking is free)
    from heconet.hfnmcf import StaticEioReduction, solve_static
    from heconet.incidence import build_incidence
    from heconet.io import parse_system_xml
    inc = build_incidence(parse_system_xml(open(ECONOMY, "rb").read()))
    red = StaticEioReduction(m=inc.m[:3], c=[20.0, 25.0, 22.0],
                             cost=np.array([1.0, 0.9]) @ inc.m_minus[3:])
    unconstrained = solve_static(red, relaxation="=")
    assert doc["objective"] == pytest.approx(unconstrained.z, abs=1e-6)


def test_leontief_square_model(runner, square_files):
    model, scenario = square_files
    result = runner.invoke(main, ["leontief", model, scenario])
    assert result.exit_code == 0, result.output
    lines = result.stdout.splitlines()
    # x = (I - A)^-1 y with A = [[0, .3], [.2, 0]], y = [10, 20]
    assert "p1,17.0213," in lines[1]
    assert "p2,23.4043," in lines[2]
    assert "use:fac,44.2553," in lines
    assert "objective,44.2553," in lines


def test_leontief_and_rcot_report_the_same_binding_rows(runner, square_files):
    # both commands take the row labels from one rule in rcot
    keys = []
    for command in ("leontief", "rcot"):
        result = runner.invoke(main, ["--format", "json", command, *square_files])
        assert result.exit_code == 0, result.output
        keys.append(list(json.loads(result.stdout)["binding"]))
    assert keys[0] == keys[1] == ["demand:p1", "demand:p2", "cap:fac"]


def test_leontief_rejects_non_square(runner):
    result = runner.invoke(main, ["leontief", ECONOMY, SCENARIO])
    assert result.exit_code == 2
    assert "square analysis needs exactly one technology" in result.stderr


def test_leontief_rejects_a_block_economy_beyond_one(runner, tmp_path):
    # 30 sectors that use 0.999 / 30 of each other's output, beside one
    # sector that uses 1.000001 of its own: rho = 1.000001
    a = np.zeros((31, 31))
    a[:30, :30] = 0.999 / 30
    a[30, 30] = 1.000001
    processes = "".join(
        f'<process id="t{j}"><output operand="p{j}" coeff="1.0"/>'
        + "".join(f'<input operand="p{i}" coeff="{float(a[i, j])!r}"/>' for i in np.flatnonzero(a[:, j]))
        + '<input operand="fac" coeff="1.0"/></process>\n' for j in range(31))
    model = tmp_path / "block.xml"
    model.write_text(
        "<system>\n" + "".join(f'<operand id="p{j}" unit="M$"/>\n' for j in range(31))
        + '<operand id="fac" unit="M$"/>\n<resource id="mill" kind="transformation"/>\n' + processes
        + "".join(f'<capability resource="mill" process="t{j}"/>\n' for j in range(31))
        + "</system>\n")
    scenario = tmp_path / "block.json"
    scenario.write_text(json.dumps({
        "schema": "heconet-scenario/1", "demand": {f"p{j}": 1.0 for j in range(31)},
        "availability": {"fac": 1e9}, "prices": {"fac": 1.0}}))
    result = runner.invoke(main, ["leontief", str(model), str(scenario)])
    assert result.exit_code == 2, result.output
    assert "economy is not productive: spectral radius 1.000001 >=" in result.stderr


def test_convert_incidence_round_trips(runner, economy_incidence):
    result = runner.invoke(main, ["convert", ECONOMY])
    assert result.exit_code == 0, result.output
    assert read_incidence_json(result.stdout).equals(economy_incidence)


def test_convert_dot(runner):
    result = runner.invoke(main, ["convert", CHAIN, "--emit", "dot"])
    assert result.exit_code == 0, result.output
    assert result.stdout.startswith('digraph "system" {')
    assert 'label="raw@plant"' in result.stdout


def test_simulate_reports_dropped_firings(runner):
    result = runner.invoke(main, ["--format", "json", "simulate",
                                  CHAIN, SCHEDULE])
    assert result.exit_code == 0, result.output
    assert "warning:" in result.stderr and "dropped" in result.stderr
    doc = json.loads(result.stdout)
    assert len(doc["q_b"]) == 5
    assert doc["dropped"][0]["completes_at"] == 4
    assert doc["dropped"][0]["transition"] == "cap-ship"


def test_simulate_json_matches_float_lists(runner):
    # the document as it was once built, one float() per entry
    from heconet import petri
    from heconet.incidence import build_incidence
    from heconet.io import load_schedule, parse_system_xml
    model = parse_system_xml(open(CHAIN, "rb").read())
    u_minus, q_b0, q_e0, dt = load_schedule(open(SCHEDULE, "rb").read())
    net = petri.EngineeringSystemNet(
        incidence=build_incidence(model), dt=dt,
        durations=[cap.duration for cap in model.capabilities])
    with pytest.warns(RuntimeWarning, match="dropped"):
        run = petri.simulate(net, petri.Marking(q_b0, q_e0), u_minus)
    doc = {"q_b": [[float(v) for v in row] for row in run.q_b],
           "q_e": [[float(v) for v in row] for row in run.q_e],
           "dropped": [{"step": d.step, "transition": d.transition,
                        "amount": d.amount, "completes_at": d.completes_at}
                       for d in run.dropped]}
    result = runner.invoke(main, ["--format", "json", "simulate", CHAIN, SCHEDULE])
    assert result.exit_code == 0, result.output
    assert result.stdout == json.dumps(doc, indent=2) + "\n"


def test_simulate_csv_header(runner):
    result = runner.invoke(main, ["simulate", CHAIN, SCHEDULE])
    assert result.exit_code == 0, result.output
    header = result.stdout.splitlines()[0]
    assert header.startswith("step,qB:raw@plant,qB:raw@tank,")
    assert header.endswith("qE:cap-treat,qE:cap-ship")


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("command", ["simulate", "hfnmcf-full"])
def test_stdout_and_output_file_hold_the_same_bytes(runner, tmp_path, command, fmt):
    # 600 steps: the written trajectory spans several row blocks
    if command == "simulate":
        schedule = changed_copy(tmp_path, SCHEDULE, lambda doc: doc.update(
            u_minus=[[float(k % 7), float(k % 3)] for k in range(600)]))
        args = ["simulate", CHAIN, schedule]
    else:
        args = ["hfnmcf-full", ECONOMY,
                changed_copy(tmp_path, SCENARIO, lambda doc: doc.update(horizon=600))]
    to_stdout = runner.invoke(main, ["--format", fmt, *args])
    out = tmp_path / "out"
    to_file = runner.invoke(main, ["--format", fmt, "--output", str(out), *args])
    assert to_stdout.exit_code == to_file.exit_code == 0, to_stdout.output
    assert to_file.stdout_bytes == b""
    assert to_stdout.stdout_bytes == out.read_bytes()
    assert to_stdout.stderr_bytes == to_file.stderr_bytes
    if command == "simulate":
        assert "dropped" in to_stdout.stderr
    if fmt == "csv":
        assert to_stdout.stdout.splitlines()[-1].startswith("600,")
    else:
        doc = json.loads(to_stdout.stdout)
        assert len(doc["q_b"]) == 601
        assert to_stdout.stdout == json.dumps(doc, indent=2) + "\n"


def test_one_place_name_format_everywhere(runner, tmp_path):
    from heconet import hfnmcf, io
    from heconet.incidence import build_incidence
    model = io.parse_system_xml(DATA.joinpath("three_sector_economy.xml").read_bytes())
    inc = build_incidence(model)
    names = list(inc.place_names)
    assert names == [f"{o}@{b}" for o, b in inc.place_labels]
    schedule = tmp_path / "schedule.json"
    schedule.write_text(json.dumps({"schema": "heconet-schedule/1", "u_minus": [[0.0] * 6]}))
    for args in (["hfnmcf-full", ECONOMY, SCENARIO], ["simulate", ECONOMY, str(schedule)]):
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output
        header = result.stdout.splitlines()[0].split(",")
        assert [h.removeprefix("qB:") for h in header if h.startswith("qB:")] == names
    y, f, pi, _, _ = io.vectors_from_scenario(
        model, io.load_scenario(DATA.joinpath("three_sector_scenario.json").read_bytes()))
    assert list(hfnmcf.build_static(inc, y, f, pi).row_labels) == names
    program = hfnmcf.build_full(hfnmcf.embed_static(inc, y, f, pi, horizon=2))
    for labels, head, steps in ((program.var_labels, "qB", 3),
                                (program.row_labels, "esn-place", 2)):
        for k in range(steps):
            prefix = f"{head}[{k}]:"
            assert [v.removeprefix(prefix) for v in labels if v.startswith(prefix)] == names
    dot = io.to_dot(inc).decode()
    assert re.findall(r'p\d+ \[shape=ellipse, label="([^"]*)"', dot) == names


def test_chord_edge_list(runner):
    result = runner.invoke(main, ["chord", ECONOMY, SCENARIO])
    assert result.exit_code == 0, result.output
    lines = result.stdout.splitlines()
    assert lines[0] == "source,target,coefficient"
    assert len(lines) == 1 + 18
    assert lines[1] == "man,c1,0.35"
    assert lines[18] == "ag,c6,0.3"
    # every requirement coefficient is nonzero, so the filter drops nothing
    sparse = runner.invoke(main, ["chord", ECONOMY, SCENARIO, "--nonzero"])
    assert sparse.stdout == result.stdout


def test_golden_bundled_passes(runner):
    result = runner.invoke(main, ["golden"])
    assert result.exit_code == 0, result.output
    assert "PASS" in result.stdout
    assert "agreement:objective" in result.stdout


def test_golden_tampered_case_exits_one(runner, tmp_path):
    doc = json.loads((DATA / "three_sector_golden.json").read_text())
    doc["expected"]["objective"]["value"] = 1.0
    doc["model"] = ECONOMY
    doc["scenario"] = SCENARIO
    path = tmp_path / "case.json"
    path.write_text(json.dumps(doc))
    result = runner.invoke(main, ["golden", str(path)])
    assert result.exit_code == 1
    assert "FAIL" in result.stdout


def _set(path, value):
    """An edit of a JSON document: set the entry at ``path`` (a key list)."""
    def edit(doc):
        for key in path[:-1]:
            doc = doc[key]
        doc[path[-1]] = value
    return edit


@pytest.mark.parametrize("path, value, field", [
    (["expected", "objective"], 5, "golden case 'expected'['objective'] must be an object"),
    (["expected", "objective", "value"], True,
     "golden case 'expected'['objective']['value'] is not a number"),
    (["expected", "objective", "tolerance"], "0.1",
     "golden case 'expected'['objective']['tolerance'] is not a number"),
    (["expected", "x", "values"], 5,
     "golden case 'expected'['x']['values'] must be a non-empty list"),
    (["expected", "x", "values", 1], None,
     "golden case 'expected'['x']['values'][1] is not a number"),
    (["expected", "x", "values"], [1.0] * 7,
     "golden case 'expected'['x']['values'] has 7 entries for 6 capabilities"),
    (["expected", "x", "tolerance"], [0.1],
     "golden case 'expected'['x']['tolerance'] is not a number"),
    (["expected", "factor_use", "water"], 342.0,
     "golden case 'expected'['factor_use']['water'] must be an object"),
    (["expected", "factor_use", "capital", "value"], True,
     "golden case 'expected'['factor_use']['capital']['value'] is not a number"),
    (["model"], 5, "golden case 'model' must be a string"),
    (["expected", "objective", "tolerance"], -1,
     "golden case 'expected'['objective']['tolerance'] must be >= 0"),
    (["expected", "factor_use", "steel"], {"value": 1.0, "tolerance": 0.1},
     "golden case 'expected'['factor_use']['steel'] is not a factor of the scenario "
     "(capital, water)"),
    (["nmae"], "three-sector-economy", "golden case has unknown keys: nmae"),
    (["name"], 7, "golden case 'name' must be a string"),
    (["expected", "x", "sourse"], "table", "golden case 'expected'['x'] has unknown keys: sourse"),
], ids=["objective-int", "objective-bool", "objective-tol-str", "x-int", "x-null-entry",
        "x-too-long", "x-tol-list", "factor-number", "factor-bool",
        "model-int", "objective-tol-negative", "factor-unknown", "misspelt-key", "name-int",
        "misspelt-block-key"])
def test_golden_mistyped_case_exits_two(runner, tmp_path, path, value, field):
    # a malformed case is an input error (2), never a failed comparison (1)
    def edit(doc):
        doc.update(model=ECONOMY, scenario=SCENARIO)
        _set(path, value)(doc)
    case = changed_copy(tmp_path, str(DATA / "three_sector_golden.json"), edit)
    result = runner.invoke(main, ["golden", case])
    assert result.exit_code == 2, result.output
    assert field in result.stderr


def test_golden_single_pipeline(runner):
    result = runner.invoke(main, ["golden", "--pipeline", "rcot"])
    assert result.exit_code == 0, result.output
    assert "[rcot]" in result.stdout


def test_output_flag_writes_file(runner, tmp_path):
    target = tmp_path / "out.csv"
    result = runner.invoke(main, ["--output", str(target), "rcot",
                                  ECONOMY, SCENARIO])
    assert result.exit_code == 0, result.output
    assert result.stdout == ""
    assert target.read_text().startswith("capability,value,percent")


def test_tolerance_config_is_honored(runner, tmp_path):
    cfg = tmp_path / "tol.json"
    cfg.write_text(json.dumps({"lp_max_iter": 1}))
    # rcot starts from the Leontief basis and needs 1 pivot on the bundled
    # economy; the full program, after its presolve, still takes 7 phase-1
    # pivots, past the cap
    result = runner.invoke(main, ["--tolerance-config", str(cfg), "hfnmcf-full",
                                  ECONOMY, SCENARIO])
    assert result.exit_code == 4
    assert "numeric failure" in result.stderr


def test_bad_tolerance_config(runner, tmp_path):
    cfg = tmp_path / "tol.json"
    cfg.write_text(json.dumps({"unknown_knob": 1}))
    result = runner.invoke(main, ["--tolerance-config", str(cfg), "golden"])
    assert result.exit_code == 2
    assert "bad tolerance config" in result.stderr


@pytest.mark.parametrize("key", ["spectral_tol", "spectral_max_iter"])
def test_removed_tolerance_keys_exit_two(runner, tmp_path, key):
    # a file that still names a removed knob is refused, not ignored
    cfg = tmp_path / "old.json"
    cfg.write_text(json.dumps({key: 1e-10}))
    result = runner.invoke(main, ["--tolerance-config", str(cfg), "golden"])
    assert result.exit_code == 2
    assert f"tolerance has unknown keys: {key}" in result.stderr


@pytest.mark.parametrize("text", ['{"lp_pivot": NaN}', '{"lp_max_iter": -5}'])
def test_out_of_range_tolerance_config_exits_two(runner, tmp_path, text):
    cfg = tmp_path / "tol.json"
    cfg.write_text(text)
    result = runner.invoke(main, ["--tolerance-config", str(cfg), "rcot",
                                  ECONOMY, SCENARIO])
    assert result.exit_code == 2
    assert "bad tolerance config" in result.stderr


def test_malformed_xml_exits_two(runner, tmp_path):
    bad = tmp_path / "bad.xml"
    bad.write_text("<system><operand id='a'>")
    result = runner.invoke(main, ["convert", str(bad)])
    assert result.exit_code == 2
    assert "error:" in result.stderr


def changed_copy(tmp_path, source, edit) -> str:
    """Path of a copy of the JSON document ``source`` after ``edit(doc)``;
    "@@...@@" strings are written as the bare literal between the markers."""
    doc = json.loads(open(source).read())
    edit(doc)
    path = tmp_path / "changed.json"
    path.write_text(re.sub(r'"@@(.*?)@@"', r"\1", json.dumps(doc)))
    return str(path)


@pytest.mark.parametrize("command", ["hfnmcf-full", "rcot", "leontief"])
def test_nan_demand_exits_two(runner, tmp_path, square_files, command):
    # hfnmcf-full once read a NaN demand as a free boundary entry and
    # solved the program without that product's demand
    model, scenario = square_files if command == "leontief" else (ECONOMY, SCENARIO)
    product = "p1" if command == "leontief" else "man"
    path = changed_copy(tmp_path, scenario,
                        lambda doc: doc["demand"].update({product: float("nan")}))
    result = runner.invoke(main, [command, model, path])
    assert result.exit_code == 2, result.output
    assert f"'demand'['{product}'] is not a finite number" in result.stderr


@pytest.mark.parametrize("literal", ["Infinity", "1e999"])
def test_infinite_availability_exits_two(runner, tmp_path, literal):
    path = changed_copy(tmp_path, SCENARIO,
                        lambda doc: doc["availability"].update({"water": f"@@{literal}@@"}))
    result = runner.invoke(main, ["rcot", ECONOMY, path])
    assert result.exit_code == 2, result.output
    assert "'availability'['water']" in result.stderr


@pytest.mark.parametrize("command, model, source, changes, field", [
    ("simulate", CHAIN, SCHEDULE, {"q_b": [None, 0, 0, 0]}, "schedule 'q_b'[0]"),
    ("simulate", CHAIN, SCHEDULE, {"q_b": [[1]]}, "schedule 'q_b'[0]"),
    ("simulate", CHAIN, SCHEDULE, {"q_b": [True, False, False, False]}, "schedule 'q_b'[0]"),
    ("hfnmcf-full", ECONOMY, SCENARIO, {"horizon": 2, "boundary": {"q_b_initial": 5}},
     "'boundary'['q_b_initial']"),
    ("hfnmcf-full", ECONOMY, SCENARIO, {"horizon": 2, "pins": {"u_minus": 3}},
     "'pins'['u_minus']"),
    # unknown keys and null dt were once read as absent: one step, or dt = 1
    ("hfnmcf-full", ECONOMY, SCENARIO, {"horizn": 8}, "scenario has unknown keys: horizn"),
    ("simulate", CHAIN, SCHEDULE, {"DT": 0.5}, "schedule has unknown keys: DT"),
    ("simulate", CHAIN, SCHEDULE, {"dt": None}, "schedule 'dt' must be a positive number"),
], ids=["q_b-null", "q_b-nested", "q_b-bool", "boundary-scalar", "pins-scalar",
        "horizon-misspelt", "dt-capitalised", "dt-null"])
def test_malformed_documents_exit_two(runner, tmp_path, command, model, source, changes,
                                      field):
    path = changed_copy(tmp_path, source, lambda doc: doc.update(changes))
    result = runner.invoke(main, [command, model, path])
    assert result.exit_code == 2, result.output
    assert field in result.stderr


@pytest.mark.parametrize("command, model, source, key", [
    ("hfnmcf-full", ECONOMY, SCENARIO, "horizon"),
    ("simulate", CHAIN, SCHEDULE, "dt"),
], ids=["scenario", "schedule"])
def test_repeated_key_exits_two(runner, tmp_path, command, model, source, key):
    # the last of two entries was once taken silently
    text = open(source, encoding="utf-8").read()
    assert text.count(f'"{key}": 1') == 1
    path = tmp_path / "repeated.json"
    path.write_text(text.replace(f'"{key}": 1', f'"{key}": 8, "{key}": 1'), encoding="utf-8")
    result = runner.invoke(main, [command, model, str(path)])
    assert result.exit_code == 2, result.output
    assert f"{key!r} is repeated" in result.stderr


HUGE = "99999999999999999999999"


@pytest.mark.parametrize("command, model, cap, old, new, data", [
    ("simulate", CHAIN, "cap-ship", 'duration="2"', f'duration="{HUGE}"', (SCHEDULE,)),
    ("convert", CHAIN, "cap-ship", 'duration="2"', f'duration="{HUGE}"', ()),
    ("hfnmcf-full", ECONOMY, "c1", 'id="c1" resource="economy" process="p1"',
     f'id="c1" resource="economy" process="p1" duration="{HUGE}"', (SCENARIO,)),
], ids=["simulate", "convert", "hfnmcf-full"])
def test_out_of_range_duration_exits_two(runner, tmp_path, command, model, cap, old, new,
                                         data):
    # a duration beyond int64 once escaped as an OverflowError (exit 1);
    # the model check refuses it before any net is built
    text = open(model, encoding="utf-8").read()
    assert old in text
    path = tmp_path / "model.xml"
    path.write_text(text.replace(old, new), encoding="utf-8")
    result = runner.invoke(main, [command, str(path), *data])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert f"invalid system model: capability[{cap}].duration: duration must be an " \
        f"integer >= 0 and < 2**63, got {HUGE}" in result.stderr
    assert "Traceback" not in result.output


def test_infeasible_program_exits_three(runner, tmp_path):
    scenario = json.loads((DATA / "three_sector_scenario.json").read_text())
    scenario["availability"]["water"] = 1.0  # far too little to meet demand
    path = tmp_path / "dry.json"
    path.write_text(json.dumps(scenario))
    result = runner.invoke(main, ["rcot", ECONOMY, str(path)])
    assert result.exit_code == 3
    assert "program is infeasible" in result.stderr


def run_cli(*args):
    """The CLI run as a process, so that stderr is what a user sees:
    in-process, pytest records any warning that escapes the CLI."""
    package_root = os.path.dirname(os.path.dirname(heconet.__file__))
    return subprocess.run([sys.executable, "-m", "heconet.cli", *args],
                          env={"PATH": "/usr/bin:/bin", "PYTHONPATH": package_root},
                          capture_output=True, text=True)


@pytest.mark.parametrize("command", ["rcot", "hfnmcf-static"])
def test_warnings_print_as_one_line_each(tmp_path, command):
    # Zero demand: every capability value is zero, so the CSV's percent
    # column warns.  It once printed as Python's raw RuntimeWarning, with
    # the source line of the CLI after it.
    path = changed_copy(tmp_path, SCENARIO, lambda doc: doc.update(
        {"demand": dict.fromkeys(doc["demand"], 0.0)}))
    out = run_cli(command, ECONOMY, path)
    assert out.returncode == 0, out.stderr
    assert out.stderr == "warning: all capability values are zero; percent column is 0.0%\n"


def test_hfnmcf_full_prints_conflicting_rows_once(tmp_path):
    path = changed_copy(tmp_path, SCENARIO,
                        lambda doc: doc["availability"].update({"water": 1.0}))
    out = run_cli("hfnmcf-full", ECONOMY, path)
    assert out.returncode == 3, out.stderr
    assert out.stderr.count("conflicting rows") == 1
    assert out.stderr.startswith("conflicting rows: ")
    assert "water@economy" in out.stderr


def test_cli_import_does_not_pull_in_xml_sax_or_urllib():
    # xml.sax.saxutils would pull in urllib.request, http.client, ssl and
    # email at every process start; the XML writer escapes on its own
    package_root = os.path.dirname(os.path.dirname(heconet.__file__))
    out = subprocess.run([sys.executable, "-c",
                          "import sys, heconet.cli; "
                          "print(*(m in sys.modules for m in ('xml.sax', 'urllib.request')))"],
                         env={"PATH": "/usr/bin:/bin", "PYTHONPATH": package_root},
                         capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["False", "False"]


def test_cli_import_does_not_pull_in_scipy():
    # scipy is a test-only reference solver; the runtime stays numpy-only.
    package_root = os.path.dirname(os.path.dirname(heconet.__file__))
    out = subprocess.run([sys.executable, "-c",
                          "import sys, heconet.cli; print('scipy' in sys.modules)"],
                         env={"PATH": "/usr/bin:/bin", "PYTHONPATH": package_root},
                         capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["False"]
