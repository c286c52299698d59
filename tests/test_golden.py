import json

import pytest

from heconet.golden import (GoldenValue, bundled_case, load_case, run_golden)
from heconet.io import JsonFormatError

from conftest import ECONOMY_Z


def test_bundled_case_loads_and_passes():
    case = bundled_case()
    assert case.model_path.exists()
    assert case.scenario_path.exists()
    report = run_golden(case)
    assert report.passed, str(report)
    assert report.pipeline == "both"
    by_name = {v.name: v for v in report.values}
    assert by_name["objective"].actual == pytest.approx(ECONOMY_Z, abs=1e-9)
    # both pipelines solve the same program, so agreement is exact
    assert by_name["agreement:objective"].delta == pytest.approx(0.0, abs=1e-9)
    assert "agreement:x[5]" in by_name


@pytest.mark.parametrize("pipeline", ["rcot", "static"])
def test_single_pipeline_runs(pipeline):
    report = run_golden(bundled_case(), pipeline=pipeline)
    assert report.passed, str(report)
    assert report.pipeline == pipeline
    assert not any(v.name.startswith("agreement") for v in report.values)


def test_unknown_pipeline_rejected():
    with pytest.raises(ValueError, match="pipeline must be"):
        run_golden(bundled_case(), pipeline="quantum")


def test_tampered_expectation_fails_with_delta(tmp_path):
    case = bundled_case()
    doc = json.loads(case.model_path.parent.joinpath(
        "three_sector_golden.json").read_text())
    doc["expected"]["objective"]["value"] = 999.0
    doc["model"] = str(case.model_path)
    doc["scenario"] = str(case.scenario_path)
    tampered = tmp_path / "case.json"
    tampered.write_text(json.dumps(doc))
    report = run_golden(load_case(tampered))
    assert not report.passed
    bad = report.failures()
    assert [v.name for v in bad] == ["objective"]
    assert bad[0].delta == pytest.approx(ECONOMY_Z - 999.0, abs=1e-6)
    assert "FAIL" in str(report)
    assert "[FAIL]" in str(bad[0])


def test_case_file_validation(tmp_path):
    bad_schema = tmp_path / "bad.json"
    bad_schema.write_text(json.dumps({"schema": "nope/1"}))
    with pytest.raises(JsonFormatError, match="schema mismatch"):
        load_case(bad_schema)

    no_expected = tmp_path / "no_expected.json"
    no_expected.write_text(json.dumps(
        {"schema": "heconet-golden/1", "model": "m.xml", "scenario": "s.json"}))
    with pytest.raises(JsonFormatError, match="is missing required field 'expected'"):
        load_case(no_expected)

    missing_key = tmp_path / "missing.json"
    missing_key.write_text(json.dumps(
        {"schema": "heconet-golden/1", "model": "m.xml", "scenario": "s.json",
         "expected": {"objective": {}, "x": {}}}))
    with pytest.raises(JsonFormatError,
                       match=r"'expected' is missing required field 'factor_use'"):
        load_case(missing_key)

    uses_not_an_object = tmp_path / "uses.json"
    uses_not_an_object.write_text(json.dumps(
        {"schema": "heconet-golden/1", "model": "m.xml", "scenario": "s.json",
         "expected": {"objective": {"value": 1.0, "tolerance": 0.0},
                      "x": {"values": [1.0], "tolerance": 0.0}, "factor_use": []}}))
    with pytest.raises(JsonFormatError,
                       match=r"^golden case 'expected'\['factor_use'\] must be an object"):
        load_case(uses_not_an_object)


def test_relative_paths_resolve_against_case_dir(tmp_path):
    case_dir = tmp_path / "cases"
    case_dir.mkdir()
    src = bundled_case()
    (case_dir / "model.xml").write_bytes(src.model_path.read_bytes())
    (case_dir / "scenario.json").write_bytes(src.scenario_path.read_bytes())
    doc = json.loads(src.model_path.parent.joinpath(
        "three_sector_golden.json").read_text())
    doc["model"] = "model.xml"
    doc["scenario"] = "scenario.json"
    (case_dir / "case.json").write_text(json.dumps(doc))
    case = load_case(case_dir / "case.json")
    assert case.model_path == case_dir / "model.xml"
    report = run_golden(case)
    assert report.passed, str(report)


def test_golden_value_formatting():
    ok = GoldenValue("objective", 1.0, 1.0005, 1e-3)
    assert ok.passed and "[ok]" in str(ok)
    bad = GoldenValue("objective", 1.0, 1.1, 1e-3)
    assert not bad.passed
    assert bad.delta == pytest.approx(0.1)
