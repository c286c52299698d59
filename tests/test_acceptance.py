"""End-to-end acceptance checks for the reference economy and the
randomized equivalence properties.

Each test records one PASS/FAIL line (printed at the end of the run)
keyed by criterion number.  Reference figures quoted from the bundled
example's result tables are frozen here verbatim; two of them are
internally inconsistent with the rest of the published data and the
corresponding checks are expected failures (see the notes recorded by
those tests) rather than silently loosened tolerances.
"""

import json
import time
import warnings
from importlib import resources

import numpy as np
import pytest
from click.testing import CliRunner

from heconet import kernels, leontief, lp
from heconet.cli import main as cli_main
from heconet.hfnmcf import (BoundaryConditions, FiringPins, HfnmcfProblem,
                            build_static, embed_static, solve_full,
                            solve_static, variable_layout)
from heconet.incidence import IncidenceMatrices, build_incidence
from heconet.io import (parse_system_xml, read_incidence_json,
                        write_incidence_json, write_system_xml)
from heconet.leontief import SquareEio
from heconet.lp import LinearProgram, LpStatus, certify, solve_lp
from heconet.petri import EngineeringSystemNet, Marking, OperandNet, simulate
from heconet.rcot import rcot_from_square, solve_rcot

from conftest import ECONOMY_F, ECONOMY_PI, ECONOMY_Y, record_criterion
from oracles import eig_radius, vertex_minimum

DATA = resources.files("heconet") / "data"
ECONOMY = str(DATA / "three_sector_economy.xml")
SCENARIO = str(DATA / "three_sector_scenario.json")

# Reference values as stated in the bundled example's result tables.
REPORTED_Z = 805.7241
REPORTED_X = np.array([99.7883, 0.0, 87.5364, 0.0, 26.6439, 71.9531])
REPORTED_PHI = np.array([498.92, 342.00])
REPORTED_CAPITAL_SLACK = 41.08

REPORTED_M_PLUS = np.array([
    [1, 0, 0, 0, 0, 0],
    [0, 1, 1, 0, 0, 0],
    [0, 0, 0, 1, 1, 1],
    [0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0],
], dtype=float)
REPORTED_M_MINUS = np.array([
    [0.35, 0.15, 0.23, 0.26, 0.28, 0.24],
    [0.25, 0.22, 0.16, 0.22, 0.21, 0.25],
    [0.20, 0.26, 0.30, 0.31, 0.33, 0.30],
    [2.1, 3.2, 1.9, 1.2, 0.8, 1.4],
    [1.2, 2.2, 1.3, 1.3, 1.1, 1.1],
])
REPORTED_M = np.array([
    [0.65, -0.15, -0.23, -0.26, -0.28, -0.24],
    [-0.25, 0.78, 0.84, -0.16, -0.22, -0.25],
    [-0.20, -0.26, -0.30, 0.69, 0.67, 0.70],
    [-2.1, -3.2, -1.9, -1.2, -0.8, -1.4],
    [-1.2, -2.2, -1.3, -1.3, -1.1, -1.1],
])


def run_cli(args):
    return CliRunner().invoke(cli_main, args)


def solve_reference_json(command):
    result = run_cli(["--format", "json", command, ECONOMY, SCENARIO])
    assert result.exit_code == 0, result.output
    return json.loads(result.stdout)


def test_criterion_1_technology_choice_reproduction(warm_kernels):
    start = time.perf_counter()
    doc = solve_reference_json("rcot")
    elapsed = time.perf_counter() - start
    x = np.array(list(doc["x"].values()))
    dz = abs(doc["objective"] - REPORTED_Z)
    dx = np.max(np.abs(x - REPORTED_X))
    ok = dz <= 1e-3 and dx <= 5e-3 and elapsed < 1.0
    record_criterion("1", "rcot reproduces the reference optimum", ok,
                     f"dZ={dz:.2e}, max dx={dx:.2e}, {elapsed:.3f} s")
    assert dz <= 1e-3
    assert dx <= 5e-3
    assert elapsed < 1.0


def test_criterion_2_static_reduction_equivalence(warm_kernels):
    rcot_doc = solve_reference_json("rcot")
    static_doc = solve_reference_json("hfnmcf-static")
    dz = abs(rcot_doc["objective"] - static_doc["objective"])
    dx = max(abs(rcot_doc["x"][k] - static_doc["x"][k]) for k in rcot_doc["x"])
    dphi = max(abs(rcot_doc["factor_use"][k] - static_doc["factor_use"][k])
               for k in rcot_doc["factor_use"])
    ok = max(dz, dx, dphi) <= 1e-6
    record_criterion("2", "hfnmcf-static agrees with rcot", ok,
                     f"max deviation {max(dz, dx, dphi):.2e} (tol 1e-6)")
    assert dz <= 1e-6
    assert dx <= 1e-6
    assert dphi <= 1e-6


def test_criterion_3a_water_constraint_binds(economy_instance):
    sol = solve_rcot(economy_instance)
    assert sol.status is LpStatus.OPTIMAL
    water_slack = abs(sol.binding[4])
    dwater = abs(sol.phi[1] - REPORTED_PHI[1])
    ok = water_slack <= 1e-6 and dwater <= 0.01
    record_criterion("3a", "water use hits its cap", ok,
                     f"slack {water_slack:.2e}, use delta {dwater:.2e}")
    assert water_slack <= 1e-6
    assert dwater <= 0.01


@pytest.mark.xfail(strict=True, reason=(
    "the stated capital figures (use 498.92, slack 41.08) are inconsistent "
    "with the stated objective and activity vector, which imply use 497.9241 "
    "and slack 42.0759; solving reproduces the implied values, not the "
    "stated ones"))
def test_criterion_3b_reported_capital_figures(economy_instance):
    sol = solve_rcot(economy_instance)
    dcap = abs(sol.phi[0] - REPORTED_PHI[0])
    dslack = abs(sol.binding[3] - REPORTED_CAPITAL_SLACK)
    record_criterion("3b", "stated capital use and slack", False,
                     f"actual use {sol.phi[0]:.4f} vs stated 498.92, "
                     f"actual slack {sol.binding[3]:.4f} vs stated 41.08")
    assert dcap <= 0.01
    assert dslack <= 0.01


def test_criterion_4a_incidence_blocks_bit_for_bit(economy_incidence):
    plus_equal = np.array_equal(economy_incidence.m_plus, REPORTED_M_PLUS)
    minus_equal = np.array_equal(economy_incidence.m_minus, REPORTED_M_MINUS)
    net_consistent = np.array_equal(
        economy_incidence.m, economy_incidence.m_plus - economy_incidence.m_minus)
    ok = plus_equal and minus_equal and net_consistent
    record_criterion("4a", "incidence blocks match the reference", ok,
                     "every entry equal after shortest round-trip parsing")
    assert plus_equal
    assert minus_equal
    assert net_consistent


@pytest.mark.xfail(strict=True, reason=(
    "three cells of the stated net matrix do not equal the stated blocks' "
    "difference: row 2 columns 4-5 carry transposed coefficients (-0.16, "
    "-0.22 where the blocks give -0.22, -0.21) and row 3 column 5 is the "
    "decimal 0.67 where the float difference 1 - 0.33 is one ulp below it"))
def test_criterion_4b_reported_net_matrix_bit_for_bit(economy_incidence):
    mism = np.argwhere(economy_incidence.m != REPORTED_M)
    cells = ", ".join(f"({i},{j})" for i, j in mism)
    record_criterion("4b", "stated net matrix bit-for-bit", len(mism) == 0,
                     f"{len(mism)} cells differ: {cells}")
    assert len(mism) == 0


def test_criterion_5_square_economies_match_leontief(warm_kernels):
    rng = np.random.default_rng(20260814)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 6))
        raw = rng.random((n, n)) + 0.01
        a = raw * (rng.uniform(0.2, 0.9) / eig_radius(raw))
        k = int(rng.integers(1, 3))
        fmat = rng.random((k, n)) + 0.05
        y = rng.random(n) * 10 + 0.1
        pi = rng.random(k) + 0.1
        eio = SquareEio(a=a, f=fmat)
        x_leo, phi = leontief.solve(eio, y)
        caps = 2.0 * phi + 1.0
        sol = solve_rcot(rcot_from_square(eio, y, caps, pi))
        assert sol.status is LpStatus.OPTIMAL
        worst = max(worst, float(np.max(np.abs(sol.x_star - x_leo))))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and elapsed < 10.0
    record_criterion("5", "100 square economies: LP equals matrix inverse", ok,
                     f"max |x_lp - x_inv| = {worst:.2e}, {elapsed:.2f} s")
    assert worst <= 1e-6
    assert elapsed < 10.0


def test_criterion_6_lp_matches_vertex_enumeration(warm_kernels):
    rng = np.random.default_rng(6)
    start = time.perf_counter()
    worst = 0.0
    outcomes = {"optimal": 0, "infeasible": 0}
    for _ in range(100):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 5))
        rows = np.round(rng.standard_normal((m, n)), 2)
        senses = list(rng.choice([">=", "<=", "="], size=m))
        while senses.count("=") > n:
            senses[senses.index("=")] = "<="
        rhs = np.round(rng.standard_normal(m) * 2, 2)
        lower = np.round(-rng.random(n) * 5, 2)
        upper = lower + np.round(rng.random(n) * 8 + 0.5, 2)
        cost = np.round(rng.standard_normal(n), 2)
        program = LinearProgram(cost=cost, rows=rows, senses=tuple(senses),
                                rhs=rhs, lower=lower, upper=upper)
        result = solve_lp(program)
        status, objective, _ = vertex_minimum(cost, rows, senses, rhs,
                                              lower, upper)
        assert result.status.value == status, \
            f"solver {result.status.value}, oracle {status}"
        outcomes[status] += 1
        if status == "optimal":
            worst = max(worst, abs(result.objective - objective))
        assert certify(program, result).passed
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-7 and elapsed < 10.0
    record_criterion(
        "6", "100 random LPs match vertex enumeration and certify", ok,
        f"max objective gap {worst:.2e}, "
        f"{outcomes['optimal']} optimal / {outcomes['infeasible']} infeasible, "
        f"{elapsed:.2f} s")
    assert worst <= 1e-7
    assert outcomes["optimal"] >= 10  # the comparison must actually bite
    assert elapsed < 10.0


def test_criterion_7_conservation_and_replay(warm_kernels):
    rng = np.random.default_rng(77)
    worst_cons = 0.0
    worst_replay = 0.0
    for _ in range(50):
        n_p = int(rng.integers(1, 4))
        n_t = int(rng.integers(1, 3))
        m_plus = np.round(rng.random((n_p, n_t)) * 2, 2)
        m_minus = np.round(rng.random((n_p, n_t)) * 2, 2)
        inc = IncidenceMatrices(
            m_plus, m_minus,
            operands=tuple(f"o{i}" for i in range(n_p)), buffers=("x",),
            capabilities=tuple(f"t{j}" for j in range(n_t)))
        durations = rng.integers(0, 4, n_t)
        dt = float(rng.choice([0.5, 1.0]))
        net = EngineeringSystemNet(incidence=inc, durations=durations, dt=dt)
        horizon = int(rng.integers(3, 21))
        schedule = np.round(rng.random((horizon, n_t)), 2)
        q_b0 = np.round(rng.random(n_p) * 5, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            run = simulate(net, Marking(q_b0, np.zeros(n_t)), schedule)
        # tokens in flight change exactly by starts minus completions
        flux = dt * (schedule - run.u_plus)
        worst_cons = max(worst_cons, float(np.max(np.abs(
            np.diff(run.q_e, axis=0) - flux))))

        size = variable_layout(net, horizon=horizon).size
        problem = HfnmcfProblem(
            net=net, horizon=horizon, linear_cost=np.zeros(size),
            pins=FiringPins(u_minus=schedule),
            boundary=BoundaryConditions(q_b_initial=q_b0,
                                        q_e_initial=np.zeros(n_t)))
        sol = solve_full(problem)
        assert sol.status is LpStatus.OPTIMAL
        worst_replay = max(
            worst_replay,
            float(np.max(np.abs(sol.q_b - run.q_b))),
            float(np.max(np.abs(sol.q_e - run.q_e))),
            float(np.max(np.abs(sol.u_plus - run.u_plus))))
    ok = worst_cons <= 1e-8 and worst_replay <= 1e-8
    record_criterion(
        "7", "50 random nets: conservation and optimizer replay", ok,
        f"max conservation residual {worst_cons:.2e}, "
        f"max replay deviation {worst_replay:.2e}")
    assert worst_cons <= 1e-8
    assert worst_replay <= 1e-8


def test_criterion_7b_operand_nets_replay(warm_kernels):
    # Each operand transition follows one capability (a 0/1 selection S,
    # sync+ = sync- = S) and takes its duration; under a pinned system
    # schedule the optimizer must roll the operand nets as the kernel does.
    rng = np.random.default_rng(78)
    worst = 0.0
    for _ in range(50):
        n_p = int(rng.integers(1, 4))
        n_t = int(rng.integers(1, 4))
        inc = IncidenceMatrices(
            np.round(rng.random((n_p, n_t)) * 2, 2), np.round(rng.random((n_p, n_t)) * 2, 2),
            operands=tuple(f"o{i}" for i in range(n_p)), buffers=("x",),
            capabilities=tuple(f"t{j}" for j in range(n_t)))
        durations = rng.integers(0, 4, n_t)
        net = EngineeringSystemNet(incidence=inc, durations=durations,
                                   dt=float(rng.choice([0.5, 1.0])))
        horizon = int(rng.integers(3, 13))
        onets, follows = [], []
        for i in range(int(rng.integers(1, 3))):
            n_s, n_l = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            follow = rng.integers(0, n_t, n_l)
            onets.append(OperandNet(
                operand=f"op{i}", places=tuple(f"s{p}" for p in range(n_s)),
                transitions=tuple(f"w{t}" for t in range(n_l)),
                m_plus=np.round(rng.random((n_s, n_l)) * 2, 2),
                m_minus=np.round(rng.random((n_s, n_l)) * 2, 2), durations=durations[follow]))
            follows.append(follow)
        layout = variable_layout(net, onets, horizon)
        select = np.eye(n_t)[np.concatenate(follows)]
        l_plus, l_minus = (np.zeros((layout.sum_places, layout.sum_transitions)) for _ in "+-")
        for i, onet in enumerate(onets):
            s, e = layout.operand_offset(i)
            l_plus[s:s + onet.n_places, e:e + onet.n_transitions] = onet.m_plus
            l_minus[s:s + onet.n_places, e:e + onet.n_transitions] = onet.m_minus
        schedule = np.round(rng.random((horizon, n_t)), 2)
        q_b0 = np.round(rng.random(n_p) * 5, 2)
        q_sl0 = np.round(rng.random(layout.sum_places) * 5 - 2, 2)
        q_el0 = np.round(rng.random(layout.sum_transitions), 2)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            run = simulate(net, Marking(q_b0, np.zeros(n_t)), schedule)
        ul_plus, ul_minus = run.u_plus @ select.T, schedule @ select.T
        q_sl, q_el = kernels.esn_trajectory(l_plus, l_minus, q_sl0, q_el0,
                                            ul_plus, ul_minus, net.dt)

        problem = HfnmcfProblem(
            net=net, horizon=horizon, linear_cost=np.zeros(layout.size),
            operand_nets=onets, sync_plus=select, sync_minus=select,
            pins=FiringPins(u_minus=schedule),
            boundary=BoundaryConditions(q_b_initial=q_b0, q_e_initial=np.zeros(n_t),
                                        q_sl_initial=q_sl0, q_el_initial=q_el0))
        sol = solve_full(problem)
        assert sol.status is LpStatus.OPTIMAL
        worst = max(worst, *(float(np.max(np.abs(got - want), initial=0.0)) for got, want in (
            (sol.q_sl, q_sl), (sol.q_el, q_el), (sol.ul_plus, ul_plus),
            (sol.ul_minus, ul_minus), (sol.q_b, run.q_b), (sol.u_plus, run.u_plus))))
    record_criterion("7b", "50 random operand nets: optimizer replay", worst <= 1e-8,
                     f"max replay deviation {worst:.2e}")
    assert worst <= 1e-8


def test_criterion_8_surplus_identity(economy_incidence, warm_kernels):
    red = build_static(economy_incidence, ECONOMY_Y, ECONOMY_F, ECONOMY_PI)
    static = solve_static(red)
    full = solve_full(embed_static(economy_incidence, ECONOMY_Y, ECONOMY_F, ECONOMY_PI))
    assert static.status is LpStatus.OPTIMAL
    assert full.status is LpStatus.OPTIMAL
    deviation = float(np.max(np.abs(full.q_b[1] - static.binding)))
    ok = deviation <= 1e-8
    record_criterion("8", "one-step embedding: final marking is the slack", ok,
                     f"max |marking - slack| = {deviation:.2e} over all rows")
    assert deviation <= 1e-8


def test_criterion_9_round_trips():
    checked = []
    for name in ("three_sector_economy.xml", "two_node_chain.xml"):
        blob = (DATA / name).read_bytes()
        model = parse_system_xml(blob)
        again = parse_system_xml(write_system_xml(model))
        assert again == model, name
        inc = build_incidence(model)
        inc_again = read_incidence_json(write_incidence_json(inc))
        assert inc_again.equals(inc), name
        checked.append(name)
    record_criterion("9", "XML and incidence JSON round-trips", True,
                     "lossless on " + ", ".join(checked))
