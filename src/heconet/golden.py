"""Reference-case runner: load a case file, execute the full pipeline
(XML model -> incidence -> solve), and compare against expected values
with per-value deltas.

A case runs through two independent pipelines, the technology-choice
LP and the static network-flow reduction, and the report additionally
checks that both produce the same activity vector.
"""

from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from heconet import hfnmcf, rcot
from heconet.checks import json_numbers
from heconet.config import DEFAULT_TOLERANCES, Tolerances
from heconet.core import SystemModel, capability_label
from heconet.incidence import build_incidence
from heconet.io import (JsonFormatError, Scenario, _expect_schema, _load_json,
                        load_scenario, parse_system_xml, vectors_from_scenario)

GOLDEN_SCHEMA = "heconet-golden/1"
PIPELINE_AGREEMENT = 1e-6


@dataclass(frozen=True)
class GoldenCase:
    name: str
    model_path: Path
    scenario_path: Path
    expected: dict

    def load_model(self) -> SystemModel:
        return parse_system_xml(self.model_path.read_bytes())

    def load_scenario(self) -> Scenario:
        return load_scenario(self.scenario_path.read_bytes())


@dataclass(frozen=True)
class GoldenValue:
    name: str
    expected: float
    actual: float
    tolerance: float

    @property
    def delta(self) -> float:
        return self.actual - self.expected

    @property
    def passed(self) -> bool:
        return abs(self.delta) <= self.tolerance

    def __str__(self):
        mark = "ok" if self.passed else "FAIL"
        return (f"{self.name}: expected {self.expected:.6g}, actual {self.actual:.6g}, "
                f"delta {self.delta:+.3g}, tolerance {self.tolerance:.3g} [{mark}]")


@dataclass
class GoldenReport:
    case: str
    pipeline: str
    values: list

    @property
    def passed(self) -> bool:
        return all(v.passed for v in self.values)

    def failures(self) -> list:
        return [v for v in self.values if not v.passed]

    def __str__(self):
        head = f"case {self.case} [{self.pipeline}]: " \
            + ("PASS" if self.passed else "FAIL")
        return "\n".join([head] + [f"  {v}" for v in self.values])


def _numbers(block, name: str, shapes: dict) -> dict:
    """The entries of the object ``block`` named in ``shapes``, read as
    JSON numbers: a float for shape (), a list of floats for (None,).
    Every block has a ``tolerance``, which must be >= 0."""
    if not isinstance(block, dict):
        raise JsonFormatError(f"{name} must be an object")
    out = {key: json_numbers(block.get(key), f"{name} {key!r}", shape,
                             JsonFormatError).tolist()
           for key, shape in shapes.items()}
    if out["tolerance"] < 0:
        raise JsonFormatError(f"{name} 'tolerance' must be >= 0")
    return out


def _expected_block(doc: dict, case_name: str) -> dict:
    """The expected values with every number checked: a mistyped entry is
    a malformed case, never a failed comparison."""
    exp = doc.get("expected")
    if not isinstance(exp, dict):
        raise JsonFormatError(f"case {case_name!r} has no 'expected' object")
    for key in ("objective", "x", "factor_use"):
        if key not in exp:
            raise JsonFormatError(f"case {case_name!r} expected block lacks {key!r}")
    uses = exp["factor_use"]
    if not isinstance(uses, dict):
        raise JsonFormatError("expected 'factor_use' must be an object")
    pair = {"value": (), "tolerance": ()}
    return {"objective": _numbers(exp["objective"], "expected 'objective'", pair),
            "x": _numbers(exp["x"], "expected 'x'", {"values": (None,), "tolerance": ()}),
            "factor_use": {name: _numbers(block, f"expected 'factor_use' {name!r}", pair)
                           for name, block in uses.items()}}


def load_case(path) -> GoldenCase:
    """Read a case document; relative model/scenario paths resolve
    against the case file's directory."""
    path = Path(path)
    doc = _load_json(path.read_bytes(), "golden case")
    _expect_schema(doc, GOLDEN_SCHEMA, "golden case")
    for key in ("model", "scenario"):
        if not isinstance(doc.get(key), str):
            raise JsonFormatError(f"golden case {key!r} must be a file path")
    name = doc.get("name", path.stem)
    base = path.parent
    return GoldenCase(name=name, model_path=base / doc["model"],
                      scenario_path=base / doc["scenario"],
                      expected=_expected_block(doc, name))


def bundled_case(name: str = "three_sector_golden.json") -> GoldenCase:
    root = resources.files("heconet.data")
    return load_case(Path(str(root / name)))


def _solve_both(model, scenario, tol: Tolerances):
    y, f, pi, products, factors = vectors_from_scenario(model, scenario)
    inc = build_incidence(model)
    labels = tuple(capability_label(model, c) for c in model.capabilities)
    inst = rcot.instance_from_incidence(inc, len(products), y, f, pi,
                                        tech_labels=labels)
    rcot_sol = rcot.solve_rcot(inst, tol)
    static_sol = hfnmcf.solve_static(hfnmcf.build_static(inc, y, f, pi), tol=tol)
    return rcot_sol, static_sol, factors


def run_golden(case: GoldenCase, pipeline: str = "both",
               tol: Tolerances = DEFAULT_TOLERANCES) -> GoldenReport:
    """Execute the case and compare every expected value.

    ``pipeline`` selects which solve feeds the comparison: "rcot",
    "static", or "both" (compare the static solve and additionally
    require the two activity vectors to agree entry-wise).
    """
    if pipeline not in ("rcot", "static", "both"):
        raise ValueError("pipeline must be 'rcot', 'static', or 'both'")
    model = case.load_model()
    scenario = case.load_scenario()
    rcot_sol, static_sol, factors = _solve_both(model, scenario, tol)
    primary = rcot_sol if pipeline == "rcot" else static_sol

    values = []
    exp = case.expected
    obj = exp["objective"]
    values.append(GoldenValue("objective", obj["value"], primary.z, obj["tolerance"]))
    ex_x = exp["x"]
    if len(ex_x["values"]) != len(primary.x_star):
        raise JsonFormatError(
            f"expected 'x' 'values' has {len(ex_x['values'])} entries for "
            f"{len(primary.x_star)} capabilities")
    for j, expected in enumerate(ex_x["values"]):
        values.append(GoldenValue(f"x[{j}]", expected, float(primary.x_star[j]),
                                  ex_x["tolerance"]))
    for fname, block in exp["factor_use"].items():
        if fname not in factors:
            raise JsonFormatError(f"expected 'factor_use' {fname!r} is not a factor "
                                  f"of the scenario ({', '.join(factors)})")
        values.append(GoldenValue(f"use:{fname}", block["value"],
                                  float(primary.phi[factors.index(fname)]),
                                  block["tolerance"]))
    if pipeline == "both":
        for j in range(len(rcot_sol.x_star)):
            values.append(GoldenValue(f"agreement:x[{j}]", float(rcot_sol.x_star[j]),
                                      float(static_sol.x_star[j]), PIPELINE_AGREEMENT))
        values.append(GoldenValue("agreement:objective", rcot_sol.z, static_sol.z,
                                  PIPELINE_AGREEMENT))
    return GoldenReport(case=case.name, pipeline=pipeline, values=values)
