import json

import numpy as np
import pytest

from heconet.core import (Capability, Flow, Operand, Process, ProcessKind,
                          Resource, ResourceKind, SystemModel)

# Reference six-technology economy, built programmatically so core and
# incidence tests do not depend on the io layer.

ECONOMY_M_MINUS = np.array([
    [0.35, 0.15, 0.23, 0.26, 0.28, 0.24],
    [0.25, 0.22, 0.16, 0.22, 0.21, 0.25],
    [0.20, 0.26, 0.30, 0.31, 0.33, 0.30],
    [2.1, 3.2, 1.9, 1.2, 0.8, 1.4],
    [1.2, 2.2, 1.3, 1.3, 1.1, 1.1],
])
ECONOMY_M_PLUS = np.zeros((5, 6))
ECONOMY_M_PLUS[0, 0] = 1.0
ECONOMY_M_PLUS[1, 1] = ECONOMY_M_PLUS[1, 2] = 1.0
ECONOMY_M_PLUS[2, 3] = ECONOMY_M_PLUS[2, 4] = ECONOMY_M_PLUS[2, 5] = 1.0

ECONOMY_OPERANDS = ("man", "cons", "ag", "capital", "water")
ECONOMY_Y = np.array([20.0, 25.0, 22.0])
ECONOMY_F = np.array([540.0, 342.0])
ECONOMY_PI = np.array([1.0, 0.9])

# Solver ground truth for the reference economy, computed to full
# precision and pinned here so regressions surface as exact-value
# diffs rather than tolerance creep.
ECONOMY_Z = 805.7240840438226
ECONOMY_X = np.array([99.78831932773108, 0.0, 87.53639733674777,
                      0.0, 26.643903045734388, 71.95309718137257])
ECONOMY_PHI_CAPITAL = 497.92408404382263
ECONOMY_PHI_WATER = 342.0

# A square two-product economy (one technology per product) for the
# leontief command, with A = [[0, .3], [.2, 0]] and one factor.
SQUARE_XML = """<?xml version='1.0'?>
<system>
  <operand id="p1" unit="M$"/>
  <operand id="p2" unit="M$"/>
  <operand id="fac" unit="M$"/>
  <resource id="mill" kind="transformation"/>
  <process id="t1"><output operand="p1" coeff="1.0"/>
    <input operand="p2" coeff="0.2"/><input operand="fac" coeff="1.5"/></process>
  <process id="t2"><output operand="p2" coeff="1.0"/>
    <input operand="p1" coeff="0.3"/><input operand="fac" coeff="0.8"/></process>
  <capability resource="mill" process="t1"/>
  <capability resource="mill" process="t2"/>
</system>
"""

SQUARE_SCENARIO = json.dumps({
    "schema": "heconet-scenario/1",
    "demand": {"p1": 10.0, "p2": 20.0},
    "availability": {"fac": 100.0},
    "prices": {"fac": 1.0},
})

PROCESS_NAMES = (
    "produces manufactured products",
    "produces construction products with conventional technology",
    "produces construction products with modern technology",
    "produces agricultural products with labor-based technology",
    "produces agricultural products with hybrid technology",
    "produces agricultural products with automated technology",
)


def make_economy_model() -> SystemModel:
    operands = (
        Operand("man", "manufactured products", "M$"),
        Operand("cons", "construction products", "M$"),
        Operand("ag", "agricultural products", "M$"),
        Operand("capital", "capital", "M$"),
        Operand("water", "water", "Mgal"),
    )
    economy = Resource("economy", "Economy", ResourceKind.TRANSFORMATION)
    processes = []
    caps = []
    for j in range(6):
        inputs = tuple(Flow(ECONOMY_OPERANDS[i], ECONOMY_M_MINUS[i, j])
                       for i in range(5) if ECONOMY_M_MINUS[i, j] > 0)
        outputs = tuple(Flow(ECONOMY_OPERANDS[i], ECONOMY_M_PLUS[i, j])
                        for i in range(5) if ECONOMY_M_PLUS[i, j] > 0)
        processes.append(Process(f"p{j + 1}", PROCESS_NAMES[j],
                                 ProcessKind.TRANSFORMATION, inputs, outputs))
        caps.append(Capability(
            f"c{j + 1}", "economy", f"p{j + 1}",
            {fl.operand: "economy" for fl in inputs},
            {fl.operand: "economy" for fl in outputs}))
    return SystemModel(operands, (economy,), tuple(processes), tuple(caps))


@pytest.fixture(scope="session")
def economy_model() -> SystemModel:
    return make_economy_model()


@pytest.fixture(scope="session")
def economy_incidence(economy_model):
    from heconet.incidence import build_incidence
    return build_incidence(economy_model)


@pytest.fixture(scope="session")
def economy_instance(economy_incidence):
    from heconet.rcot import instance_from_incidence
    return instance_from_incidence(economy_incidence, 3, ECONOMY_Y,
                                   ECONOMY_F, ECONOMY_PI)


def time_expanded(inc, durations, horizon, f=ECONOMY_F):
    """The reference economy over ``horizon`` steps (``hfnmcf.embed_static``
    with unit steps, F* taken from the factor rows of ``inc.m_minus``).
    Its optimum is the static one for any horizon longer than the
    largest duration."""
    from heconet import hfnmcf
    return hfnmcf.embed_static(inc, ECONOMY_Y, f, ECONOMY_PI, horizon,
                               np.asarray(durations))


def row_subset(program, keep):
    """The rows ``keep`` of ``program``, with its bounds and no cost."""
    from heconet.lp import LinearProgram
    keep = list(keep)
    return LinearProgram(cost=np.zeros(program.n_vars),
                         rows=program.rows[keep].reshape(len(keep), program.n_vars),
                         senses=tuple(program.senses[i] for i in keep),
                         rhs=program.rhs[keep], lower=program.lower, upper=program.upper)


def water_cut_supply(inc):
    """Factor supply of the reference economy with water availability
    cut in 10 % steps until the static economy (rcot) is infeasible."""
    from heconet import rcot
    from heconet.lp import LpStatus
    f = ECONOMY_F.copy()
    while rcot.solve_rcot(rcot.instance_from_incidence(
            inc, ECONOMY_Y.size, ECONOMY_Y, f, ECONOMY_PI)).status is LpStatus.OPTIMAL:
        f[-1] *= 0.9
    return f


def water_cut(inc, horizon):
    """The reference economy as a full program over ``horizon`` steps
    with :func:`water_cut_supply`; the full program is infeasible too."""
    durations = np.random.default_rng(8).integers(1, 3, size=inc.m_plus.shape[1])
    return time_expanded(inc, durations, horizon, water_cut_supply(inc))


MAX_DEMAND = 50.0


def rectangular_economy(rng):
    """A technology-choice instance of 2-8 sectors with 1-3 technologies
    each, 1-3 factors and demand in [1, MAX_DEMAND).

    Every column of A* sums to at most 0.9, so every square of one
    technology per sector is productive and its output has
    1'x <= 1'y / (1 - 0.9).  Each factor covers that much output of the
    technology that uses it most, for any demand up to MAX_DEMAND, so no
    factor binds.
    """
    from heconet.rcot import RcotInstance
    n = int(rng.integers(2, 9))
    sector = np.repeat(np.arange(n), rng.integers(1, 4, size=n))
    t = sector.size
    i_star = np.zeros((n, t))
    i_star[sector, np.arange(t)] = 1.0
    a_star = rng.random((n, t))
    a_star *= rng.uniform(0.1, 0.9, size=t) / a_star.sum(axis=0)
    f_star = rng.uniform(0.1, 3.0, size=(int(rng.integers(1, 4)), t))
    f = f_star.max(axis=1) * (n * MAX_DEMAND / (1.0 - 0.9))
    return RcotInstance(i_star=i_star, a_star=a_star, f_star=f_star,
                        y=rng.uniform(1.0, MAX_DEMAND, size=n), f=f,
                        pi=rng.uniform(0.5, 2.0, size=f_star.shape[0]))


@pytest.fixture(scope="session")
def water_cut_problem(economy_incidence):
    """:func:`water_cut` at K=8."""
    return water_cut(economy_incidence, 8)


@pytest.fixture(scope="session")
def warm_kernels():
    """Run the solver and kernels once so timed assertions measure
    solves, not first calls."""
    from heconet import kernels, leontief, lp
    from heconet.lp import LinearProgram, solve_lp
    program = LinearProgram(cost=[1.0], rows=[[1.0]], senses=(lp.GREATER_EQUAL,),
                            rhs=[1.0])
    solve_lp(program)
    kernels.esn_trajectory(np.ones((1, 1)), np.ones((1, 1)), np.zeros(1),
                           np.zeros(1), np.zeros((1, 1)), np.zeros((1, 1)), 1.0)
    leontief.leontief_inverse(np.array([[0.5]]))


# ---------------------------------------------------------------------------
# Acceptance reporting: one visible line per criterion at the end of the run.

_ACCEPTANCE_LINES = {}


def record_criterion(key: str, title: str, passed: bool, note: str = ""):
    status = "PASS" if passed else "FAIL"
    suffix = f" ({note})" if note else ""
    _ACCEPTANCE_LINES[key] = f"[acceptance] {key} {title}: {status}{suffix}"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_LINES:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for key in sorted(_ACCEPTANCE_LINES):
        terminalreporter.write_line(_ACCEPTANCE_LINES[key])
