import dataclasses

import numpy as np
import pytest

from heconet import lp
from heconet.hfnmcf import StaticEioReduction, build_static, solve_static, static_lp
from heconet.incidence import build_incidence
from heconet.leontief import SquareEio, solve as leontief_solve
from heconet.lp import LpStatus, certify
from heconet.rcot import (RcotInstance, build_rcot_lp, instance_from_incidence,
                          leontief_start, rcot_from_square, solve_rcot)

from conftest import (ECONOMY_F, ECONOMY_M_MINUS, ECONOMY_M_PLUS, ECONOMY_PI,
                      ECONOMY_PHI_CAPITAL, ECONOMY_X, ECONOMY_Y, ECONOMY_Z, MAX_DEMAND,
                      rectangular_economy, water_cut_supply)
from test_incidence import two_buffer_model


def reference_instance() -> RcotInstance:
    return RcotInstance(
        i_star=ECONOMY_M_PLUS[:3], a_star=ECONOMY_M_MINUS[:3],
        f_star=ECONOMY_M_MINUS[3:], y=ECONOMY_Y, f=ECONOMY_F, pi=ECONOMY_PI)


def test_reference_solution():
    sol = solve_rcot(reference_instance())
    assert sol.status is LpStatus.OPTIMAL
    assert sol.z == pytest.approx(ECONOMY_Z, abs=1e-9)
    assert np.allclose(sol.x_star, ECONOMY_X, atol=1e-9)
    assert sol.phi[0] == pytest.approx(ECONOMY_PHI_CAPITAL, abs=1e-9)
    assert sol.phi[1] == pytest.approx(342.0, abs=1e-9)


def test_reference_binding():
    sol = solve_rcot(reference_instance())
    assert np.allclose(sol.binding[:3], 0.0, atol=1e-9)       # demand met exactly
    assert sol.binding[3] == pytest.approx(42.0759159561774, abs=1e-7)
    assert sol.binding[4] == pytest.approx(0.0, abs=1e-9)     # water cap binds


def test_cost_vector():
    program = build_rcot_lp(reference_instance())
    assert np.allclose(program.cost, [3.18, 5.18, 3.07, 2.37, 1.79, 2.39],
                       atol=1e-12)
    assert program.row_labels[0] == "demand:s1"
    assert program.row_labels[3] == "cap:f1"


def test_instance_validation():
    good = reference_instance()
    with pytest.raises(ValueError, match="exactly one"):
        RcotInstance(i_star=np.array([[1.0, 0.0], [1.0, 1.0]]),
                     a_star=np.zeros((2, 2)), f_star=np.ones((1, 2)),
                     y=[1, 1], f=[9], pi=[1])
    with pytest.raises(ValueError):       # a sector with no technology
        RcotInstance(i_star=np.array([[1.0, 1.0], [0.0, 0.0]]),
                     a_star=np.zeros((2, 2)), f_star=np.ones((1, 2)),
                     y=[1, 1], f=[9], pi=[1])
    with pytest.raises(ValueError, match="i_star entries must be 0 or 1"):
        RcotInstance(i_star=np.array([[0.5, 1.0], [0.5, 0.0]]),
                     a_star=np.zeros((2, 2)), f_star=np.ones((1, 2)),
                     y=[1, 1], f=[9], pi=[1])
    with pytest.raises(ValueError):       # t < n
        RcotInstance(i_star=np.array([[1.0], [0.0]]),
                     a_star=np.zeros((2, 1)), f_star=np.ones((1, 1)),
                     y=[1, 1], f=[9], pi=[1])
    with pytest.raises(ValueError):       # negative data
        RcotInstance(i_star=good.i_star, a_star=-good.a_star,
                     f_star=good.f_star, y=good.y, f=good.f, pi=good.pi)


def test_label_defaults():
    inst = reference_instance()
    assert inst.tech_labels == ("t1", "t2", "t3", "t4", "t5", "t6")
    assert inst.sector_labels == ("s1", "s2", "s3")
    assert inst.factor_labels == ("f1", "f2")


def test_one_sector_embedding():
    eio = SquareEio(a=np.array([[0.5]]), f=np.array([[1.0]]))
    inst = rcot_from_square(eio, y=[3.0], f=[100.0], pi=[1.0])
    assert np.array_equal(inst.i_star, [[1.0]])
    assert np.array_equal(inst.a_star, [[0.5]])
    sol = solve_rcot(inst)
    assert sol.x_star[0] == pytest.approx(6.0, abs=1e-9)


def test_three_sector_collapse_matches_leontief():
    cols = [0, 1, 3]
    a = ECONOMY_M_MINUS[:3][:, cols]
    f = ECONOMY_M_MINUS[3:][:, cols]
    eio = SquareEio(a=a, f=f)
    x_leontief, phi = leontief_solve(eio, ECONOMY_Y)
    caps = phi * 2 + 10.0                      # deliberately slack
    sol = solve_rcot(rcot_from_square(eio, ECONOMY_Y, caps, ECONOMY_PI))
    assert sol.status is LpStatus.OPTIMAL
    assert np.allclose(sol.x_star, x_leontief, atol=1e-6)


def test_infeasible_caps():
    inst = RcotInstance(
        i_star=ECONOMY_M_PLUS[:3], a_star=ECONOMY_M_MINUS[:3],
        f_star=ECONOMY_M_MINUS[3:], y=ECONOMY_Y, f=[1.0, 1.0], pi=ECONOMY_PI)
    sol = solve_rcot(inst)
    assert sol.status is LpStatus.INFEASIBLE
    assert np.all(np.isnan(sol.x_star))
    assert np.isnan(sol.z)


def test_zero_demand():
    inst = RcotInstance(
        i_star=ECONOMY_M_PLUS[:3], a_star=ECONOMY_M_MINUS[:3],
        f_star=ECONOMY_M_MINUS[3:], y=[0.0, 0.0, 0.0], f=ECONOMY_F, pi=ECONOMY_PI)
    sol = solve_rcot(inst)
    assert sol.z == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(sol.x_star, 0.0, atol=1e-12)


def test_instance_from_incidence(economy_incidence):
    inst = instance_from_incidence(economy_incidence, 3, ECONOMY_Y, ECONOMY_F,
                                   ECONOMY_PI)
    assert np.array_equal(inst.i_star, ECONOMY_M_PLUS[:3])
    assert np.array_equal(inst.a_star, ECONOMY_M_MINUS[:3])
    assert np.array_equal(inst.f_star, ECONOMY_M_MINUS[3:])
    assert inst.tech_labels == ("c1", "c2", "c3", "c4", "c5", "c6")
    assert inst.sector_labels == ("man", "cons", "ag")
    assert inst.factor_labels == ("capital", "water")


def test_instance_from_incidence_needs_single_buffer():
    inc = build_incidence(two_buffer_model())
    with pytest.raises(ValueError, match="single buffer"):
        instance_from_incidence(inc, 1, [1.0], [5.0], [1.0])


def test_instance_from_incidence_rejects_produced_factor(economy_incidence):
    # treating too few rows as products leaves a produced row in the
    # factor block, which must be rejected
    with pytest.raises(ValueError, match="factor rows"):
        instance_from_incidence(economy_incidence, 2, ECONOMY_Y[:2],
                                np.ones(3), np.ones(3))


def test_leontief_start_takes_each_sectors_cheapest_technology():
    inst = reference_instance()
    program = build_rcot_lp(inst)
    # unit costs 3.18 | 5.18, 3.07 | 2.37, 1.79, 2.39 by sector
    assert leontief_start(inst.i_star - inst.a_star, program.cost, 5).tolist() == \
        [0, 2, 4, -1, -1]
    # ties go to the lowest index; a row where nothing has a positive net
    # output gets -1, and t3, which uses more than it makes, is passed over
    m = np.array([[1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 0.0, -0.1]])
    assert leontief_start(m, np.array([2.0, 2.0, 1.0, 0.5]), 3).tolist() == [0, -1, -1]


def test_a_nearly_singular_square_is_not_a_start():
    # The cheapest square, t0 and t2, has rho(A_S) = 1 - 5e-13: its
    # outputs (I - A_S)^-1 y are about 2e13 and within x >= 0, so the LP
    # alone takes that start.  The Hawkins-Simon pivots refuse it, and
    # the solve starts from the crash.
    inst = RcotInstance(i_star=np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
                        a_star=np.array([[0.0, 0.0, 1.0], [1.0 - 1e-12, 0.5, 0.0]]),
                        f_star=np.array([[1.0, 2.0, 1.0]]), y=np.array([10.0, 10.0]),
                        f=np.array([1e15]), pi=np.array([1.0]))
    program = build_rcot_lp(inst)
    assert lp._start(program, [0, 2, -1]).basis[:2].tolist() == [0, 2]
    assert leontief_start(inst.i_star - inst.a_star, program.cost, 3) is None
    sol, crashed = solve_rcot(inst), lp.solve_lp(program)
    assert sol.status is crashed.status is LpStatus.OPTIMAL
    assert sol.z == pytest.approx(crashed.objective, rel=1e-9)
    assert np.allclose(sol.x_star, crashed.x, atol=1e-9) and sol.x_star[0] == 0.0


@pytest.mark.parametrize("cost", [[1.0, 2.0, 2.0], [1.0, 2.0, 0.5]],
                         ids=["repeated-column", "produces-on-another-row"])
def test_a_joint_production_square_is_not_a_start(cost):
    # c0 produces both products and is the cheapest on the first row:
    # chosen on both rows it repeats a column, and beside c2 it puts a
    # positive entry off the diagonal, so A_S >= 0 fails either way.
    red = StaticEioReduction(m=np.array([[1.0, 1.0, 0.0], [0.5, 0.0, 1.0],
                                         [-1.0, -1.0, -1.0]]),
                             c=np.array([10.0, 10.0, -1000.0]), cost=np.array(cost),
                             f_star=np.array([[1.0, 1.0, 1.0]]))
    program = static_lp(red)
    assert leontief_start(red.m, red.cost, program.n_rows) is None
    sol, crashed = solve_static(red), lp.solve_lp(program)
    assert sol.status is crashed.status is LpStatus.OPTIMAL
    assert sol.z == pytest.approx(crashed.objective, rel=1e-9)
    assert np.allclose(sol.x_star, crashed.x, atol=1e-9)


def test_productive_economies_start_without_phase_1(monkeypatch):
    # solve_rcot and solve_static (both relaxations) from the Leontief
    # start: no phase-1 pivot, the crash-started optimum, and every
    # result certified.  The "=" relaxation keeps only the demand rows:
    # its factor rows would be equalities that the start leaves on
    # artificials.
    run_kernel, solve = lp._run_kernel, lp.solve_lp
    pivots, solved = [], []

    def counted(sx, c, tol, phase):
        status, iters, y = run_kernel(sx, c, tol, phase)
        if phase == "phase 1":
            pivots.append(iters)
        return status, iters, y

    def recorded(program, tol=lp.DEFAULT_TOLERANCES, start=None):
        solved.append((program, solve(program, tol, start)))
        return solved[-1][1]
    monkeypatch.setattr(lp, "_run_kernel", counted)
    monkeypatch.setattr(lp, "solve_lp", recorded)
    rng = np.random.default_rng(23)
    for _ in range(50):
        inst = rectangular_economy(rng)
        cost = inst.pi @ inst.f_star
        full = StaticEioReduction(m=np.vstack([inst.i_star - inst.a_star, -inst.f_star]),
                                  c=np.concatenate([inst.y, -inst.f]), cost=cost,
                                  f_star=inst.f_star)
        exact = StaticEioReduction(m=inst.i_star - inst.a_star, c=inst.y, cost=cost)
        started = ((solve_rcot(inst).z, build_rcot_lp(inst)),
                   (solve_static(full).z, static_lp(full)),
                   (solve_static(exact, "=").z, static_lp(exact, "=")))
        assert pivots == [0, 0, 0]
        for z, program in started:
            crashed = solve(program)
            assert abs(z - crashed.objective) <= 1e-9 * abs(crashed.objective)
        pivots.clear()
    assert len(solved) == 150
    for program, result in solved:
        assert result.status is LpStatus.OPTIMAL
        assert certify(program, result).passed


def test_technology_choice_does_not_depend_on_demand():
    # The non-substitution theorem (Samuelson 1951): with prices fixed and
    # no factor binding, one technology per sector is optimal for every
    # positive demand.
    rng = np.random.default_rng(1951)
    for _ in range(50):
        inst = rectangular_economy(rng)
        chosen = set()
        for _ in range(5):
            sol = solve_rcot(dataclasses.replace(
                inst, y=rng.uniform(0.01, MAX_DEMAND, size=inst.n_sectors)))
            assert sol.status is LpStatus.OPTIMAL
            assert np.all(sol.binding[inst.n_sectors:] > 0.0)
            support = sol.x_star > 1e-9
            assert np.array_equal(inst.i_star[:, support].sum(axis=1), np.ones(inst.n_sectors))
            chosen.add(tuple(np.flatnonzero(support)))
        assert len(chosen) == 1, chosen


def both_views(inc, f):
    """rcot and the static reduction of the reference economy with
    factor supply f, each solved by its one path."""
    return (solve_rcot(instance_from_incidence(inc, 3, ECONOMY_Y, f, ECONOMY_PI)),
            solve_static(build_static(inc, ECONOMY_Y, f, ECONOMY_PI)))


def assert_nan_solution(sol, status, t, k, n_rows):
    assert sol.status is status
    assert sol.x_star.shape == (t,) and np.all(np.isnan(sol.x_star))
    assert np.shape(sol.z) == () and np.isnan(sol.z)
    assert sol.phi.shape == (k,) and np.all(np.isnan(sol.phi))
    assert sol.binding.shape == (n_rows,) and np.all(np.isnan(sol.binding))


def test_an_infeasible_solve_is_nan_in_the_optimal_shapes(economy_incidence):
    for sol in both_views(economy_incidence, water_cut_supply(economy_incidence)):
        assert_nan_solution(sol, LpStatus.INFEASIBLE, 6, 2, 5)


def test_an_unbounded_static_solve_is_nan_in_the_optimal_shapes():
    # min -u - v with u - v >= 1: v pays for any u
    red = StaticEioReduction(m=np.array([[1.0, -1.0]]), c=np.array([1.0]),
                             cost=np.array([-1.0, -1.0]), f_star=np.array([[1.0, 2.0]]))
    assert_nan_solution(solve_static(red), LpStatus.UNBOUNDED, 2, 1, 1)


def test_a_reduction_without_factor_rows_solves_to_an_empty_phi():
    red = StaticEioReduction(m=np.eye(2), c=np.array([1.0, 2.0]), cost=np.array([1.0, 3.0]))
    assert red.f_star.shape == (0, 2) and red.factor_labels == ()
    sol = solve_static(red)
    assert sol.status is LpStatus.OPTIMAL
    assert sol.phi.shape == (0,)
    assert sol.z == pytest.approx(7.0, rel=1e-12)


def test_an_optimal_solve_reports_the_certified_objective(economy_incidence, monkeypatch):
    certified, check = [], lp.certify

    def recorded(program, result, tol=lp.DEFAULT_TOLERANCES):
        certificate = check(program, result, tol)
        certified.append((result.objective, certificate))
        return certificate
    monkeypatch.setattr(lp, "certify", recorded)
    for sol in both_views(economy_incidence, ECONOMY_F):
        objective, certificate = certified.pop()
        assert sol.status is LpStatus.OPTIMAL and certificate.passed
        assert sol.z == objective
        consistency, = (c for c in certificate.checks if c.name == "objective consistency")
        assert consistency.value <= 1e-12 * abs(sol.z)
        assert abs(sol.z - ECONOMY_PI @ sol.phi) <= 1e-12 * abs(sol.z)
    assert certified == []
