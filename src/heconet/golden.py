"""Reference-case runner: load a case file, execute the full pipeline
(XML model -> incidence -> solve), and compare against expected values
with per-value deltas.

A case runs through two independent pipelines, the technology-choice
LP and the static network-flow reduction, and the report additionally
checks that both produce the same activity vector.
"""

from dataclasses import dataclass
from functools import partial
from importlib import resources
from pathlib import Path

from heconet import hfnmcf, rcot
from heconet.checks import (REQUIRED, JsonFormatError, json_document, json_map, json_numbers,
                            json_object, json_string)
from heconet.config import DEFAULT_TOLERANCES, Tolerances
from heconet.core import SystemModel, capability_label
from heconet.incidence import build_incidence
from heconet.io import Scenario, load_scenario, parse_system_xml, vectors_from_scenario

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


# Every number of the expected values is checked on reading: a mistyped
# entry is a malformed case, never a failed comparison.
_TOLERANCE = (partial(json_numbers, shape=(), nonneg=True), REQUIRED)
_SOURCE = (json_string, None)          # where an expected value comes from
_POINT = partial(json_object, fields={"value": (partial(json_numbers, shape=()), REQUIRED),
                                      "tolerance": _TOLERANCE, "source": _SOURCE})
_SERIES = partial(json_object, fields={
    "values": (lambda value, name, error: json_numbers(value, name, (None,), error).tolist(),
               REQUIRED), "tolerance": _TOLERANCE, "source": _SOURCE})
_EXPECTED = {"objective": (_POINT, REQUIRED), "x": (_SERIES, REQUIRED),
             "factor_use": (partial(json_map, read=_POINT), REQUIRED)}
_CASE = {"name": (json_string, None), "model": (json_string, REQUIRED),
         "scenario": (json_string, REQUIRED),
         "expected": (partial(json_object, fields=_EXPECTED), REQUIRED)}


def load_case(path) -> GoldenCase:
    """Read a case document; relative model/scenario paths resolve
    against the case file's directory, and the name defaults to the
    file's stem."""
    path = Path(path)
    doc = json_document(path.read_bytes(), "golden case", _CASE, JsonFormatError,
                        GOLDEN_SCHEMA)
    return GoldenCase(name=doc.get("name", path.stem),
                      model_path=path.parent / doc["model"],
                      scenario_path=path.parent / doc["scenario"], expected=doc["expected"])


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
            f"golden case 'expected'['x']['values'] has {len(ex_x['values'])} entries for "
            f"{len(primary.x_star)} capabilities")
    for j, expected in enumerate(ex_x["values"]):
        values.append(GoldenValue(f"x[{j}]", expected, float(primary.x_star[j]),
                                  ex_x["tolerance"]))
    for fname, block in exp["factor_use"].items():
        if fname not in factors:
            raise JsonFormatError(f"golden case 'expected'['factor_use'][{fname!r}] is not "
                                  f"a factor of the scenario ({', '.join(factors)})")
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
