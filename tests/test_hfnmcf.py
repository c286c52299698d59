import contextlib
import dataclasses
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heconet import kernels
from heconet import lp as lp_mod
from heconet.hfnmcf import (BoundaryConditions, FiringPins, HfnmcfProblem,
                            StaticEioReduction, VariableLayout, build_full,
                            build_static, default_bounds, embed_static,
                            solve_full, solve_static, static_lp,
                            variable_layout)
from heconet.incidence import IncidenceMatrices, build_incidence
from heconet.lp import (EQUAL, LinearProgram, LpStatus, certify, feasible,
                        irreducible_infeasible_rows)
from heconet.petri import EngineeringSystemNet, Marking, OperandNet

from conftest import (ECONOMY_M_MINUS, ECONOMY_F, ECONOMY_PHI_CAPITAL,
                      ECONOMY_PHI_WATER, ECONOMY_PI, ECONOMY_X, ECONOMY_Y,
                      ECONOMY_Z, row_subset, time_expanded, water_cut)
from test_incidence import two_buffer_model

REFERENCE_UNIT_COST = np.array([3.18, 5.18, 3.07, 2.37, 1.79, 2.39])


def small_net(durations=None, dt=1.0):
    m_plus = np.array([[1.0, 0.0], [0.0, 2.0]])
    m_minus = np.array([[0.0, 1.0], [1.0, 0.0]])
    inc = IncidenceMatrices(m_plus, m_minus,
                            operands=("a", "b"), buffers=("x",),
                            capabilities=("t1", "t2"))
    return EngineeringSystemNet(incidence=inc, durations=durations, dt=dt)


def small_operand_net():
    m_plus = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    m_minus = np.array([[0.0, 1.0], [1.0, 0.0], [0.0, 0.0]])
    return OperandNet(operand="a", places=("s0", "s1", "s2"),
                      transitions=("w1", "w2"), m_plus=m_plus, m_minus=m_minus)


# --------------------------------------------------------------------------
# Variable layout


def test_layout_families_partition_the_stacked_vector():
    layout = VariableLayout(horizon=2, n_places=3, n_transitions=2,
                            operand_shapes=((2, 1),))
    assert layout.sum_places == 2
    assert layout.sum_transitions == 1
    off = layout.offsets
    # markings 0..K (3 points), firings 0..K-1 (2 points)
    assert off["q_b"] == 0
    assert off["q_e"] == 3 * 3
    assert off["q_sl"] == off["q_e"] + 2 * 3
    assert off["q_el"] == off["q_sl"] + 2 * 3
    assert off["u_plus"] == off["q_el"] + 1 * 3
    assert off["u_minus"] == off["u_plus"] + 2 * 2
    assert off["ul_plus"] == off["u_minus"] + 2 * 2
    assert off["ul_minus"] == off["ul_plus"] + 1 * 2
    assert layout.size == off["ul_minus"] + 1 * 2
    # family slices are contiguous and time-major
    assert layout.q_b(0) == slice(0, 3)
    assert layout.q_b(2) == slice(6, 9)
    assert layout.q_e(1) == slice(off["q_e"] + 2, off["q_e"] + 4)
    assert layout.u_minus(1) == slice(off["u_minus"] + 2, off["u_minus"] + 4)
    assert layout.ul_plus(0) == slice(off["ul_plus"], off["ul_plus"] + 1)


def test_layout_step_range_errors():
    layout = VariableLayout(horizon=2, n_places=1, n_transitions=1,
                            operand_shapes=())
    with pytest.raises(IndexError, match="marking step must be in 0..2"):
        layout.q_b(3)
    with pytest.raises(IndexError, match="marking step"):
        layout.q_e(-1)
    with pytest.raises(IndexError, match="firing step must be in 0..1"):
        layout.u_plus(2)
    with pytest.raises(IndexError, match="firing step"):
        layout.ul_minus(-1)


@pytest.mark.parametrize("changes, field", [
    ({"horizon": -1}, "horizon"), ({"horizon": 0}, "horizon"), ({"horizon": 2.5}, "horizon"),
    ({"horizon": True}, "horizon"), ({"n_places": -1}, "n_places"),
    ({"n_transitions": 2 ** 63}, "n_transitions"),
    ({"operand_shapes": ((1, 1), (1, 0.5))}, "operand_shapes[1][1]"),
])
def test_layout_rejects_a_bad_count(changes, field):
    fields = dict(horizon=2, n_places=2, n_transitions=1, operand_shapes=())
    with pytest.raises(ValueError, match=re.escape(f"{field} must be an integer")):
        VariableLayout(**{**fields, **changes})


def test_layout_operand_offsets_accumulate():
    layout = VariableLayout(horizon=1, n_places=2, n_transitions=2,
                            operand_shapes=((3, 2), (1, 4)))
    assert layout.operand_offset(0) == (0, 0)
    assert layout.operand_offset(1) == (3, 2)
    assert layout.sum_places == 4
    assert layout.sum_transitions == 6


def test_layout_names_label_every_variable():
    net = small_net()
    onet = small_operand_net()
    layout = variable_layout(net, (onet,), horizon=2)
    names = layout.names(net, (onet,))
    assert len(names) == layout.size
    assert all(names)
    assert names[layout.q_b(0).start] == "qB[0]:a@x"
    assert names[layout.q_b(0).start + 1] == "qB[0]:b@x"
    assert names[layout.u_minus(1).start] == "uMinus[1]:t1"
    assert names[layout.q_sl(0).start] == "qSL[0]:a:s0"
    assert names[layout.ul_plus(0).start + 1] == "ulPlus[0]:a:w2"


def test_default_bounds_free_markings_nonnegative_firings():
    layout = variable_layout(small_net(), horizon=3)
    lower, upper = default_bounds(layout)
    assert np.all(np.isinf(upper))
    marking_part = lower[:layout.offsets["u_plus"]]
    firing_part = lower[layout.offsets["u_plus"]:]
    assert np.all(np.isneginf(marking_part))
    assert np.all(firing_part == 0.0)


# --------------------------------------------------------------------------
# Static reduction


def test_static_reduction_validation():
    m = np.eye(2)
    with pytest.raises(ValueError, match=r"c must have shape \(2,\)"):
        StaticEioReduction(m=m, c=np.zeros(3), cost=np.zeros(2))
    with pytest.raises(ValueError, match=r"cost must have shape \(2,\)"):
        StaticEioReduction(m=m, c=np.zeros(2), cost=np.zeros(1))
    with pytest.raises(ValueError, match=r"f_star must have shape \(\*, 2\)"):
        StaticEioReduction(m=m, c=np.zeros(2), cost=np.zeros(2),
                           f_star=np.zeros((1, 3)))
    with pytest.raises(ValueError, match="label lengths"):
        StaticEioReduction(m=m, c=np.zeros(2), cost=np.zeros(2),
                           capability_labels=("only-one",))
    with pytest.raises(ValueError, match="label lengths"):
        StaticEioReduction(m=m, c=np.zeros(2), cost=np.zeros(2), factor_labels=("water",))
    with pytest.raises(ValueError, match=r"m must have shape \(\*, \*\)"):
        StaticEioReduction(m=np.zeros(4), c=np.zeros(2), cost=np.zeros(2))


def test_factor_labels_match_the_factor_rows(economy_incidence):
    red = build_static(economy_incidence, ECONOMY_Y, ECONOMY_F, ECONOMY_PI)
    with pytest.raises(ValueError, match="label lengths"):
        dataclasses.replace(red, factor_labels=("capital",))
    unnamed = dataclasses.replace(red, factor_labels=())
    assert unnamed.factor_labels == ("f1", "f2")
    assert len(solve_static(unnamed).phi) == 2


def test_static_reduction_arrays_are_read_only():
    red = StaticEioReduction(m=np.eye(2), c=np.zeros(2), cost=np.ones(2),
                             f_star=np.ones((1, 2)))
    for arr in (red.m, red.c, red.cost, red.f_star):
        with pytest.raises(ValueError):
            arr[0] = 9.0
    assert red.capability_labels == ("u1", "u2")
    assert red.row_labels == ("c1", "c2")


def test_build_static_reproduces_reference_data(economy_incidence):
    red = build_static(economy_incidence, ECONOMY_Y, ECONOMY_F, ECONOMY_PI)
    assert np.allclose(red.cost, REFERENCE_UNIT_COST, atol=1e-12)
    assert np.array_equal(red.c, np.concatenate([ECONOMY_Y, -ECONOMY_F]))
    assert red.row_labels == ("man@economy", "cons@economy", "ag@economy",
                              "capital@economy", "water@economy")
    assert red.factor_labels == ("capital", "water")
    assert red.capability_labels == ("c1", "c2", "c3", "c4", "c5", "c6")
    assert np.array_equal(red.f_star, ECONOMY_M_MINUS[3:])


def test_build_static_needs_a_single_buffer():
    # Places are not operands in a two-buffer model, so there are no
    # factor rows to price.
    inc = build_incidence(two_buffer_model())
    with pytest.raises(ValueError, match="single buffer"):
        build_static(inc, [1.0, 1.0], [1.0, 1.0], [1.0, 1.0])


def test_build_static_validation(economy_incidence):
    with pytest.raises(ValueError, match=r"f must have shape \(3,\), got \(2,\)"):
        build_static(economy_incidence, ECONOMY_Y[:2], ECONOMY_F, ECONOMY_PI)
    with pytest.raises(ValueError, match=r"pi must have shape \(2,\)"):
        build_static(economy_incidence, ECONOMY_Y, ECONOMY_F, [1.0])
    with pytest.raises(ValueError, match=r"y must have shape \(\*,\)"):
        build_static(economy_incidence, np.zeros((3, 1)), ECONOMY_F, ECONOMY_PI)


def test_static_lp_relaxation_argument():
    red = StaticEioReduction(m=np.eye(2), c=np.zeros(2), cost=np.ones(2))
    with pytest.raises(ValueError, match="relaxation must be"):
        static_lp(red, "<=")
    program = static_lp(red, "=")
    assert all(s == EQUAL for s in program.senses)


def test_static_solution_matches_reference(economy_incidence):
    red = build_static(economy_incidence, ECONOMY_Y, ECONOMY_F, ECONOMY_PI)
    sol = solve_static(red)
    assert sol.status is LpStatus.OPTIMAL
    assert sol.z == pytest.approx(ECONOMY_Z, abs=1e-9)
    assert np.allclose(sol.x_star, ECONOMY_X, atol=1e-9)
    assert np.allclose(sol.phi, [ECONOMY_PHI_CAPITAL, ECONOMY_PHI_WATER],
                       atol=1e-9)
    # water supply binds, capital does not
    assert sol.binding[4] == pytest.approx(0.0, abs=1e-9)
    assert sol.binding[3] == pytest.approx(ECONOMY_F[0] - ECONOMY_PHI_CAPITAL,
                                           abs=1e-9)


def test_equality_relaxation_is_infeasible_on_the_reference(economy_incidence):
    red = build_static(economy_incidence, ECONOMY_Y, ECONOMY_F, ECONOMY_PI)
    sol = solve_static(red, relaxation="=")
    assert sol.status is LpStatus.INFEASIBLE
    assert np.all(np.isnan(sol.x_star))
    assert np.isnan(sol.z)


def test_equality_relaxation_feasible_when_supply_matches_usage(economy_incidence):
    # shrink factor supply to the quantity actually used at the optimum;
    # then zero slack is achievable and the equality form has solutions
    f_exact = np.array([ECONOMY_PHI_CAPITAL, ECONOMY_PHI_WATER])
    red = build_static(economy_incidence, ECONOMY_Y, f_exact, ECONOMY_PI)
    sol = solve_static(red, relaxation="=")
    assert sol.status is LpStatus.OPTIMAL
    assert np.allclose(red.m @ sol.x_star, red.c, atol=1e-8)
    assert sol.z <= ECONOMY_Z + 1e-6


# --------------------------------------------------------------------------
# Full program: problem validation


def test_problem_rejects_bad_horizon():
    net = small_net()
    with pytest.raises(ValueError, match="horizon must be an integer >= 1"):
        HfnmcfProblem(net=net, horizon=0, linear_cost=np.zeros(1))


@pytest.mark.parametrize("horizon", [2.7, True, np.bool_(True), "2", np.float64(1.5)])
def test_a_horizon_that_is_no_step_count_is_rejected(economy_incidence, horizon):
    net = small_net()
    with pytest.raises(ValueError, match="horizon"):
        HfnmcfProblem(net=net, horizon=horizon, linear_cost=np.zeros(1))
    with pytest.raises(ValueError, match="horizon"):
        embed_static(economy_incidence, ECONOMY_Y, ECONOMY_F, ECONOMY_PI, horizon)


def test_numpy_integer_horizons_are_step_counts(economy_incidence):
    problem = embed_static(economy_incidence, ECONOMY_Y, ECONOMY_F, ECONOMY_PI, np.int64(2))
    assert problem.horizon == 2 and type(problem.horizon) is int
    assert problem.layout == variable_layout(problem.net, horizon=2)


def test_problem_rejects_bad_cost():
    net = small_net()
    layout = variable_layout(net, horizon=1)
    with pytest.raises(ValueError, match=rf"linear_cost must have shape \({layout.size},\)"):
        HfnmcfProblem(net=net, horizon=1, linear_cost=np.zeros(3))
    bad = np.zeros(layout.size)
    bad[0] = np.inf
    with pytest.raises(ValueError, match="linear_cost must be finite"):
        HfnmcfProblem(net=net, horizon=1, linear_cost=bad)


def test_problem_operand_nets_require_sync():
    net = small_net()
    onet = small_operand_net()
    layout = variable_layout(net, (onet,), horizon=1)
    cost = np.zeros(layout.size)
    with pytest.raises(ValueError, match="require sync_plus and sync_minus"):
        HfnmcfProblem(net=net, horizon=1, linear_cost=cost,
                      operand_nets=(onet,))
    with pytest.raises(ValueError, match="must both be given"):
        HfnmcfProblem(net=net, horizon=1, linear_cost=cost,
                      operand_nets=(onet,), sync_plus=np.ones((2, 2)))
    with pytest.raises(ValueError, match="sync_minus must have shape"):
        HfnmcfProblem(net=net, horizon=1, linear_cost=cost,
                      operand_nets=(onet,), sync_plus=np.ones((2, 2)),
                      sync_minus=np.ones((3, 2)))


def test_problem_rejects_repeated_operands():
    # Two nets of one operand would give their entries the same labels.
    net = small_net()
    onets = (small_operand_net(), small_operand_net())
    cost = np.zeros(variable_layout(net, onets, horizon=1).size)
    with pytest.raises(ValueError,
                       match="^operands of the operand nets must be distinct; 'a' is repeated$"):
        HfnmcfProblem(net=net, horizon=1, linear_cost=cost, operand_nets=onets,
                      sync_plus=np.ones((4, 2)), sync_minus=np.ones((4, 2)))


@pytest.mark.parametrize("axis", ["places", "transitions"])
def test_problem_rejects_colliding_operand_entry_names(axis):
    # operand "a:b" with entry "c" and operand "a" with entry "b:c" both
    # compose the name "a:b:c", which would label two variables alike
    def onet(operand, name):
        names = {"places": ("p",), "transitions": ("t",), axis: (name,)}
        return OperandNet(operand=operand, m_plus=np.zeros((1, 1)),
                          m_minus=np.zeros((1, 1)), **names)
    net = small_net()
    onets = (onet("a:b", "c"), onet("a", "b:c"))
    cost = np.zeros(variable_layout(net, onets, horizon=1).size)
    with pytest.raises(ValueError,
                       match=f"^operand {axis} must be distinct; 'a:b:c' is repeated$"):
        HfnmcfProblem(net=net, horizon=1, linear_cost=cost, operand_nets=onets,
                      sync_plus=np.ones((2, 2)), sync_minus=np.ones((2, 2)))


def test_problem_rejects_bad_bounds_and_boundary():
    net = small_net()
    layout = variable_layout(net, horizon=1)
    cost = np.zeros(layout.size)
    with pytest.raises(ValueError, match="lower must have shape"):
        HfnmcfProblem(net=net, horizon=1, linear_cost=cost, lower=np.zeros(2))
    with pytest.raises(ValueError, match="q_b_initial must have shape"):
        HfnmcfProblem(net=net, horizon=1, linear_cost=cost,
                      boundary=BoundaryConditions(q_b_initial=np.zeros(5)))
    with pytest.raises(ValueError, match="finite or NaN"):
        HfnmcfProblem(net=net, horizon=1, linear_cost=cost,
                      boundary=BoundaryConditions(q_e_final=np.array([np.inf, 0.0])))
    with pytest.raises(ValueError, match="pin u_minus must have shape"):
        HfnmcfProblem(net=net, horizon=1, linear_cost=cost,
                      pins=FiringPins(u_minus=np.zeros((2, 2))))


# --------------------------------------------------------------------------
# Full program: assembly


def test_build_full_rows_are_all_equalities():
    net = small_net(durations=[0, 2])
    layout = variable_layout(net, horizon=3)
    problem = HfnmcfProblem(net=net, horizon=3, linear_cost=np.zeros(layout.size))
    program = build_full(problem)
    assert all(s == EQUAL for s in program.senses)
    labels = program.row_labels
    # STF rows for every step and place / transition
    assert "esn-place[0]:a@x" in labels
    assert "esn-place[2]:b@x" in labels
    assert "esn-flight[1]:t2" in labels
    # duration d=0: coupling at every step, no causality pins
    assert "duration[0]:t1" in labels and "duration[2]:t1" in labels
    assert not any(lab.startswith("duration-causality") and lab.endswith("t1")
                   for lab in labels)
    # duration d=2 over K=3: coupling only where the completion lands
    # inside the horizon, causality pins for the first two steps
    assert "duration[0]:t2" in labels
    assert "duration[1]:t2" not in labels
    assert "duration-causality[0]:t2" in labels
    assert "duration-causality[1]:t2" in labels
    assert "duration-causality[2]:t2" not in labels


def test_build_full_duration_row_couples_start_to_completion():
    net = small_net(durations=[0, 2])
    layout = variable_layout(net, horizon=3)
    problem = HfnmcfProblem(net=net, horizon=3, linear_cost=np.zeros(layout.size))
    program = build_full(problem)
    i = program.row_labels.index("duration[0]:t2")
    row = program.rows[i]
    expect = np.zeros(layout.size)
    expect[layout.u_minus(0).start + 1] = 1.0
    expect[layout.u_plus(2).start + 1] = -1.0
    assert np.array_equal(row, expect)
    assert program.rhs[i] == 0.0


def test_boundary_rows_pin_only_non_nan_entries():
    net = small_net()
    layout = variable_layout(net, horizon=1)
    boundary = BoundaryConditions(q_b_initial=np.array([5.0, np.nan]),
                                  q_b_final=np.array([np.nan, 2.0]))
    problem = HfnmcfProblem(net=net, horizon=1,
                            linear_cost=np.zeros(layout.size), boundary=boundary)
    program = build_full(problem)
    labels = program.row_labels
    assert "boundary-initial:q_b:a@x" in labels
    assert "boundary-initial:q_b:b@x" not in labels
    assert "boundary-final:q_b:b@x" in labels
    i = labels.index("boundary-initial:q_b:a@x")
    assert program.rhs[i] == 5.0


def test_firing_pins_become_rows():
    net = small_net()
    layout = variable_layout(net, horizon=2)
    pins = FiringPins(u_minus=np.array([[1.5, np.nan], [np.nan, 0.25]]))
    problem = HfnmcfProblem(net=net, horizon=2,
                            linear_cost=np.zeros(layout.size), pins=pins)
    program = build_full(problem)
    labels = program.row_labels
    assert "pin-u_minus[0]:t1" in labels
    assert "pin-u_minus[0]:t2" not in labels
    i = labels.index("pin-u_minus[1]:t2")
    assert program.rhs[i] == 0.25
    assert program.rows[i][layout.u_minus(1).start + 1] == 1.0


def test_extra_rows_extend_the_program():
    net = small_net()
    layout = variable_layout(net, horizon=1)
    problem = HfnmcfProblem(net=net, horizon=1, linear_cost=np.zeros(layout.size))
    extra = np.zeros((1, layout.size))
    extra[0, layout.u_minus(0)] = 1.0
    program = build_full(problem, extra_rows=(extra, ("<=",), (7.0,), ("budget",)))
    assert program.row_labels[-1] == "budget"
    assert program.senses[-1] == "<="
    assert program.rhs[-1] == 7.0
    with pytest.raises(ValueError, match="extra rows must have"):
        build_full(problem, extra_rows=(np.zeros((1, 3)), ("<=",), (0.0,), ("bad",)))


# --------------------------------------------------------------------------
# Full program: solving


def test_embed_static_reproduces_the_static_optimum(economy_incidence):
    problem = embed_static(economy_incidence, ECONOMY_Y, ECONOMY_F, ECONOMY_PI)
    sol = solve_full(problem)
    assert sol.status is LpStatus.OPTIMAL
    assert sol.objective == pytest.approx(ECONOMY_Z, abs=1e-8)
    assert np.allclose(sol.u_minus[0], ECONOMY_X, atol=1e-8)
    # instantaneous capabilities: completions equal starts
    assert np.allclose(sol.u_plus[0], sol.u_minus[0], atol=1e-9)
    assert np.allclose(sol.q_e[1], 0.0, atol=1e-9)
    # initial marking is the deficit, final marking the surplus
    c = np.concatenate([ECONOMY_Y, -ECONOMY_F])
    assert np.allclose(sol.q_b[0], -c, atol=1e-12)
    red = build_static(economy_incidence, ECONOMY_Y, ECONOMY_F, ECONOMY_PI)
    assert np.allclose(sol.q_b[1], red.m @ sol.u_minus[0] - c, atol=1e-8)
    assert sol.q_b[1][3] == pytest.approx(ECONOMY_F[0] - ECONOMY_PHI_CAPITAL,
                                          abs=1e-6)


def test_full_solution_family_shapes(economy_incidence):
    problem = embed_static(economy_incidence, ECONOMY_Y, ECONOMY_F, ECONOMY_PI)
    sol = solve_full(problem)
    assert sol.q_b.shape == (2, 5)
    assert sol.q_e.shape == (2, 6)
    assert sol.q_sl.shape == (2, 0)
    assert sol.u_plus.shape == (1, 6)
    assert sol.ul_minus.shape == (1, 0)
    assert sol.x.shape == (sol.layout.size,)


def test_pinned_schedule_replays_simulation():
    net = small_net(durations=[0, 1])
    horizon = 4
    layout = variable_layout(net, horizon=horizon)
    schedule = np.array([[2.0, 1.0], [0.5, 0.0], [0.0, 3.0], [1.0, 0.0]])
    q_b0 = np.array([10.0, 8.0])
    problem = HfnmcfProblem(
        net=net, horizon=horizon, linear_cost=np.zeros(layout.size),
        pins=FiringPins(u_minus=schedule),
        boundary=BoundaryConditions(q_b_initial=q_b0, q_e_initial=np.zeros(2)))
    sol = solve_full(problem)
    assert sol.status is LpStatus.OPTIMAL

    from heconet.petri import simulate
    import warnings as _w
    with _w.catch_warnings():
        _w.simplefilter("ignore", RuntimeWarning)
        replay = simulate(net, Marking(q_b0, np.zeros(2)), schedule)
    assert np.allclose(sol.u_minus, schedule, atol=1e-9)
    assert np.allclose(sol.u_plus, replay.u_plus, atol=1e-9)
    assert np.allclose(sol.q_b, replay.q_b, atol=1e-9)
    assert np.allclose(sol.q_e, replay.q_e, atol=1e-9)


def test_operand_net_follows_system_firings_under_identity_sync():
    net = small_net()
    onet = OperandNet(operand="a", places=("s0", "s1"), transitions=("w1", "w2"),
                      m_plus=np.array([[1.0, 0.0], [0.0, 1.0]]),
                      m_minus=np.array([[0.0, 1.0], [1.0, 0.0]]))
    horizon = 3
    layout = variable_layout(net, (onet,), horizon=horizon)
    schedule = np.array([[1.0, 0.0], [0.5, 2.0], [0.0, 1.0]])
    problem = HfnmcfProblem(
        net=net, horizon=horizon, linear_cost=np.zeros(layout.size),
        operand_nets=(onet,), sync_plus=np.eye(2), sync_minus=np.eye(2),
        pins=FiringPins(u_minus=schedule),
        boundary=BoundaryConditions(
            q_b_initial=np.full(2, 10.0), q_e_initial=np.zeros(2),
            q_sl_initial=np.zeros(2), q_el_initial=np.zeros(2)))
    sol = solve_full(problem)
    assert sol.status is LpStatus.OPTIMAL
    assert np.allclose(sol.ul_minus, sol.u_minus, atol=1e-9)
    assert np.allclose(sol.ul_plus, sol.u_plus, atol=1e-9)
    for k in range(horizon):
        step = onet.m_plus @ sol.ul_plus[k] - onet.m_minus @ sol.ul_minus[k]
        assert np.allclose(sol.q_sl[k + 1] - sol.q_sl[k], step, atol=1e-9)
        drift = sol.ul_minus[k] - sol.ul_plus[k]
        assert np.allclose(sol.q_el[k + 1] - sol.q_el[k], drift, atol=1e-9)


def test_infeasible_program_reports_a_row_witness():
    net = small_net()
    layout = variable_layout(net, horizon=1)
    # tokens in flight start and end apart, but no firing may move them
    problem = HfnmcfProblem(
        net=net, horizon=1, linear_cost=np.zeros(layout.size),
        pins=FiringPins(u_minus=np.zeros((1, 2)), u_plus=np.zeros((1, 2))),
        boundary=BoundaryConditions(q_e_initial=np.zeros(2),
                                    q_e_final=np.array([5.0, np.nan])))
    with diagnosis_spy() as (diagnosed, _, _):
        sol = solve_full(problem)
    assert sol.status is LpStatus.INFEASIBLE
    assert sol.infeasible_rows
    # pinned firings and no initial place marking: the filter runs on
    # the full program
    assert [p.row_labels for p, _ in diagnosed] == [build_full(problem).row_labels]
    assert np.all(np.isnan(sol.q_b))
    assert np.isnan(sol.objective)


def test_build_full_holds_its_rows_once(economy_incidence):
    # The triplets become the program's sparse columns and no dense array
    # is built: the peak is a few times the held matrix (labels and the
    # triplets before sorting), where the 697 x 931 dense rows are 5.2 MB.
    problem = time_expanded(economy_incidence, np.full(6, 2), 40)
    tracemalloc.start()
    try:
        program = build_full(problem)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not program.matrix.data.flags.writeable
    assert peak < 10 * program.matrix.nbytes


def test_water_cut_witness_is_irreducible(water_cut_problem):
    sol = solve_full(water_cut_problem)
    assert sol.status is LpStatus.INFEASIBLE
    assert sol.infeasible_rows
    program = build_full(water_cut_problem)
    assert certify(program, sol.lp_result).passed
    witness = [program.row_labels.index(label) for label in sol.infeasible_rows]
    assert 0 < len(witness) < program.n_rows
    assert_irreducible(program, witness)


def assert_irreducible(program, rows):
    """The rows ``rows`` of ``program`` are infeasible, and feasible
    without any one of them."""
    assert not feasible(row_subset(program, rows))
    for i in rows:
        assert feasible(row_subset(program, [k for k in rows if k != i]))


# --------------------------------------------------------------------------
# Infeasibility diagnosis through the static economy


@contextlib.contextmanager
def diagnosis_spy():
    """Yields (diagnosed, certified, solved): (program, witness labels)
    of every call of lp.irreducible_infeasible_rows, (program, ray,
    passed) of every infeasible result lp.certify checks, and the
    program of every call of lp.solve_lp."""
    diagnosed, certified, solved = [], [], []
    diagnose, check, solve = (lp_mod.irreducible_infeasible_rows, lp_mod.certify,
                              lp_mod.solve_lp)

    def record_diagnosis(program, *args):
        witness = diagnose(program, *args)
        diagnosed.append((program, list(witness)))
        return witness

    def record_certificate(program, result, *args):
        cert = check(program, result, *args)
        if result.status is LpStatus.INFEASIBLE:
            certified.append((program, result.duals, cert.passed))
        return cert

    def record_solve(program, *args, **kwargs):
        solved.append(program)
        return solve(program, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lp_mod, "irreducible_infeasible_rows", record_diagnosis)
        patch.setattr(lp_mod, "certify", record_certificate)
        patch.setattr(lp_mod, "solve_lp", record_solve)
        yield diagnosed, certified, solved


def assert_lifted(problem, sol, diagnosed, certified, solved):
    """The witness of ``sol`` is the support of a ray that passed
    certify on the full program, after the filter ran on the static
    program only and the full program was solved once: the lift takes
    the filter's multipliers and solves nothing again.  The witness is
    irreducible."""
    program = build_full(problem)
    assert [p.row_labels for p, _ in diagnosed] == [problem.net.incidence.place_names]
    assert [p.row_labels for p in solved] == [program.row_labels]
    full, ray, passed = certified[-1]
    assert full.row_labels == program.row_labels and passed
    row = {label: i for i, label in enumerate(program.row_labels)}
    witness = [row[label] for label in sol.infeasible_rows]
    assert witness == np.flatnonzero(ray).tolist()
    assert_irreducible(program, witness)


@st.composite
def embedded_economies(draw):
    """embed_static on a random economy: 2-5 sectors of 1-3 technologies
    each, 1-2 factors, durations 0-3, K 1-8 and dt 0.5, 1 or 2."""
    sectors, techs = draw(st.integers(2, 5)), draw(st.integers(1, 3))
    factors = draw(st.integers(1, 2))
    n = sectors * techs
    m_plus = np.zeros((sectors + factors, n))
    m_plus[np.repeat(np.arange(sectors), techs), np.arange(n)] = 1.0

    def matrix(rows, entries):
        cells = draw(st.lists(entries, min_size=rows * n, max_size=rows * n))
        return np.array(cells).reshape(rows, n)
    m_minus = np.vstack([matrix(sectors, st.sampled_from([0.0, 0.0, 0.1, 0.2, 0.4])),
                         matrix(factors, st.sampled_from([0.5, 1.0, 2.0]))])
    inc = IncidenceMatrices(m_plus, m_minus,
                            operands=tuple(f"s{i}" for i in range(sectors))
                            + tuple(f"f{i}" for i in range(factors)),
                            buffers=("e",), capabilities=tuple(f"t{j}" for j in range(n)))
    y = draw(st.lists(st.sampled_from([1.0, 2.0, 5.0, 10.0]), min_size=sectors, max_size=sectors))
    f = draw(st.lists(st.sampled_from([1.0, 5.0, 20.0, 50.0]), min_size=factors, max_size=factors))
    durations = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    return embed_static(inc, y, f, np.ones(factors), draw(st.integers(1, 8)), durations,
                        draw(st.sampled_from([0.5, 1.0, 2.0])))


@given(embedded_economies())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_lifted_witness_is_certified_and_irreducible(problem):
    with diagnosis_spy() as (diagnosed, certified, solved):
        sol = solve_full(problem)
    if sol.status is not LpStatus.INFEASIBLE:
        return
    if np.all(problem.net.durations >= problem.horizon):
        # no transition completes: the static program has no columns
        assert [p.n_vars for p, _ in diagnosed] == [0]
    assert_lifted(problem, sol, diagnosed, certified, solved)


def ledger(net):
    """An accounting-only operand net: each capability moves one token
    from busy to done, with the capability's duration."""
    n = net.n_transitions
    return OperandNet(operand="ledger", places=("done", "busy"),
                      transitions=net.transition_labels,
                      m_plus=np.vstack([np.ones(n), np.zeros(n)]), m_minus=np.zeros((2, n)),
                      durations=net.durations)


def test_operand_rows_are_read_by_name():
    # The ledger's done count cannot fall (its completions are >= 0), so a
    # final count below the initial one conflicts with its place rows.
    net = small_net(durations=[0, 1])
    onet = ledger(net)
    horizon = 2
    layout = variable_layout(net, (onet,), horizon)
    pin = np.full((horizon, 2), np.nan)
    pin[1, 0] = 0.0
    idle = np.zeros(2)
    problem = HfnmcfProblem(
        net=net, horizon=horizon, linear_cost=np.zeros(layout.size), operand_nets=(onet,),
        sync_plus=np.eye(2), sync_minus=np.eye(2),
        pins=FiringPins(ul_plus=pin, ul_minus=pin),
        boundary=BoundaryConditions(q_sl_initial=[5.0, np.nan], q_sl_final=[1.0, np.nan],
                                    q_el_initial=idle, q_el_final=idle))
    program = build_full(problem)
    assert not [label for label in program.var_labels + program.row_labels
                if re.search(r":\d+$", label)]
    assert {"pin-ul_plus[1]:ledger:t1", "pin-ul_minus[1]:ledger:t1",
            "boundary-initial:q_el:ledger:t2", "boundary-final:q_el:ledger:t2"
            } <= set(program.row_labels)
    sol = solve_full(problem)
    assert sol.status is LpStatus.INFEASIBLE
    assert list(sol.infeasible_rows) == [
        "operand-place[0]:ledger:done", "operand-place[1]:ledger:done",
        "boundary-initial:q_sl:ledger:done", "boundary-final:q_sl:ledger:done"]


def off_shape(problem, change):
    """(problem, extra rows) of ``problem`` changed one way that leaves
    the shape embed_static builds."""
    layout, n_t = problem.layout, problem.net.n_transitions
    if change == "pin":
        pin = np.full((problem.horizon, n_t), np.nan)
        pin[0, 0] = 0.0
        return dataclasses.replace(problem, pins=FiringPins(u_minus=pin)), None
    if change == "operand net":
        onet = ledger(problem.net)
        wide = variable_layout(problem.net, (onet,), problem.horizon)
        cost = np.zeros(wide.size)
        wide.family(cost, "u_minus")[:] = layout.family(problem.linear_cost, "u_minus")
        lower, upper = default_bounds(wide)
        lower[wide.q_b(problem.horizon)] = 0.0
        return dataclasses.replace(problem, operand_nets=(onet,), linear_cost=cost,
                                   lower=lower, upper=upper,
                                   sync_plus=np.eye(n_t), sync_minus=np.eye(n_t)), None
    if change == "extra rows":
        return problem, (np.zeros((1, layout.size)), ("<=",), (0.0,), ("nothing",))
    if change == "bound":
        upper = problem.upper.copy()
        upper[layout.u_minus(0)] = 1e6
        return dataclasses.replace(problem, upper=upper), None
    flights = np.zeros(n_t)
    flights[0] = 1.0
    return dataclasses.replace(problem, boundary=dataclasses.replace(
        problem.boundary, q_e_final=flights)), None


@pytest.mark.parametrize("change", ["pin", "operand net", "extra rows", "bound", "flight"])
def test_a_program_off_the_shape_runs_the_filter_on_itself(water_cut_problem, change):
    problem, extra = off_shape(water_cut_problem, change)
    with diagnosis_spy() as (diagnosed, _, _):
        sol = solve_full(problem, extra)
    assert sol.status is LpStatus.INFEASIBLE
    program = build_full(problem, extra)
    assert [p.row_labels for p, _ in diagnosed] == [program.row_labels]
    assert list(sol.infeasible_rows) == diagnosed[0][1]


def test_a_lift_that_fails_its_certificate_runs_the_filter(water_cut_problem, monkeypatch):
    program = build_full(water_cut_problem)
    diagnosed = []
    diagnose, check = lp_mod.irreducible_infeasible_rows, lp_mod.certify

    def record_diagnosis(lp, *args):
        diagnosed.append(lp.row_labels)
        return diagnose(lp, *args)

    def refuse_the_lift(lp, result, *args):
        # the full program's certificates after the static diagnosis
        # are the lift's
        cert = check(lp, result, *args)
        if diagnosed and lp.row_labels == program.row_labels:
            refused = lp_mod.CheckResult("refused", False, 1.0, 0.0)
            return lp_mod.Certificate(cert.checks + (refused,))
        return cert
    monkeypatch.setattr(lp_mod, "irreducible_infeasible_rows", record_diagnosis)
    monkeypatch.setattr(lp_mod, "certify", refuse_the_lift)
    sol = solve_full(water_cut_problem)
    assert diagnosed == [water_cut_problem.net.incidence.place_names, program.row_labels]
    assert list(sol.infeasible_rows) == list(diagnose(program))


@pytest.mark.parametrize("horizon", [1, 2])
def test_a_horizon_within_the_durations(economy_incidence, horizon):
    # Durations 1 and 2: at K=2 only the one-step transitions complete
    # and the lift covers the others by their causality rows; at K=1 none
    # completes, so the static program has no columns and the lift covers
    # every transition by its causality rows.
    problem = water_cut(economy_incidence, horizon)
    with diagnosis_spy() as (diagnosed, certified, solved):
        sol = solve_full(problem)
    assert sol.status is LpStatus.INFEASIBLE
    if horizon == 1:
        assert [p.n_vars for p, _ in diagnosed] == [0]
    assert_lifted(problem, sol, diagnosed, certified, solved)


@pytest.mark.parametrize("horizon", [8, 20])
def test_water_cut_is_diagnosed_on_its_static_economy(economy_incidence, horizon):
    problem = water_cut(economy_incidence, horizon)
    with diagnosis_spy() as (diagnosed, _, _):
        sol = solve_full(problem)
    assert [(p.row_labels, w) for p, w in diagnosed] == [(
        economy_incidence.place_names,
        ["man@economy", "cons@economy", "ag@economy", "water@economy"])]
    assert len(sol.infeasible_rows) == {8: 84, 20: 204}[horizon]
    assert list(sol.infeasible_rows) == list(irreducible_infeasible_rows(build_full(problem)))


# --------------------------------------------------------------------------
# Full program: the row-at-a-time reference builder


class _RowBuilder:
    def __init__(self, size: int):
        self.size = size
        self.rows = []
        self.rhs = []
        self.labels = []

    def add(self, label: str) -> np.ndarray:
        row = np.zeros(self.size)
        self.rows.append(row)
        self.rhs.append(0.0)
        self.labels.append(label)
        return row

    def add_pin(self, label: str, index: int, value: float):
        row = self.add(label)
        row[index] = 1.0
        self.rhs[-1] = float(value)


def names_by_loop(layout, net, operand_nets=()):
    """One label per stacked variable, written entry by entry: the
    reference for VariableLayout.names."""
    places = [f"{o}@{b}" for o, b in net.place_labels]
    trans = list(net.transition_labels)
    out = [""] * layout.size
    for k in range(layout.horizon + 1):
        for p, label in enumerate(places):
            out[layout.offsets["q_b"] + k * layout.n_places + p] = f"qB[{k}]:{label}"
        for t, label in enumerate(trans):
            out[layout.offsets["q_e"] + k * layout.n_transitions + t] = f"qE[{k}]:{label}"
        for i, onet in enumerate(operand_nets):
            s_off, e_off = layout.operand_offset(i)
            for p, label in enumerate(onet.places):
                out[layout.offsets["q_sl"] + k * layout.sum_places + s_off + p] = \
                    f"qSL[{k}]:{onet.operand}:{label}"
            for t, label in enumerate(onet.transitions):
                out[layout.offsets["q_el"] + k * layout.sum_transitions + e_off + t] = \
                    f"qEL[{k}]:{onet.operand}:{label}"
    for k in range(layout.horizon):
        for t, label in enumerate(trans):
            out[layout.offsets["u_plus"] + k * layout.n_transitions + t] = f"uPlus[{k}]:{label}"
            out[layout.offsets["u_minus"] + k * layout.n_transitions + t] = f"uMinus[{k}]:{label}"
        for i, onet in enumerate(operand_nets):
            s_off, e_off = layout.operand_offset(i)
            for t, label in enumerate(onet.transitions):
                out[layout.offsets["ul_plus"] + k * layout.sum_transitions + e_off + t] = \
                    f"ulPlus[{k}]:{onet.operand}:{label}"
                out[layout.offsets["ul_minus"] + k * layout.sum_transitions + e_off + t] = \
                    f"ulMinus[{k}]:{onet.operand}:{label}"
    return tuple(out)


def build_full_by_rows(problem, extra_rows=None):
    """The full program written one dense row at a time: the reference
    for build_full."""
    net = problem.net
    layout = problem.layout
    horizon = problem.horizon
    dt = net.dt
    rb = _RowBuilder(layout.size)

    place_names = [f"{o}@{b}" for o, b in net.place_labels]
    trans_names = list(net.transition_labels)

    for k in range(horizon):
        for p in range(net.n_places):
            row = rb.add(f"esn-place[{k}]:{place_names[p]}")
            row[layout.q_b(k + 1).start + p] = -1.0
            row[layout.q_b(k).start + p] = 1.0
            row[layout.u_plus(k)] += dt * net.incidence.m_plus[p]
            row[layout.u_minus(k)] -= dt * net.incidence.m_minus[p]
        for t in range(net.n_transitions):
            row = rb.add(f"esn-flight[{k}]:{trans_names[t]}")
            row[layout.q_e(k + 1).start + t] = -1.0
            row[layout.q_e(k).start + t] = 1.0
            row[layout.u_minus(k).start + t] += dt
            row[layout.u_plus(k).start + t] -= dt

    for t in range(net.n_transitions):
        d = int(net.durations[t])
        for k in range(horizon):
            if k + d < horizon:
                row = rb.add(f"duration[{k}]:{trans_names[t]}")
                row[layout.u_minus(k).start + t] = 1.0
                row[layout.u_plus(k + d).start + t] = -1.0
        for k in range(min(d, horizon)):
            rb.add_pin(f"duration-causality[{k}]:{trans_names[t]}",
                       layout.u_plus(k).start + t, 0.0)

    for i, onet in enumerate(problem.operand_nets):
        s_off, e_off = layout.operand_offset(i)
        for k in range(horizon):
            for p in range(onet.n_places):
                row = rb.add(f"operand-place[{k}]:{onet.operand}:{onet.places[p]}")
                row[layout.q_sl(k + 1).start + s_off + p] = -1.0
                row[layout.q_sl(k).start + s_off + p] = 1.0
                base_p = layout.ul_plus(k).start + e_off
                base_m = layout.ul_minus(k).start + e_off
                row[base_p:base_p + onet.n_transitions] += dt * onet.m_plus[p]
                row[base_m:base_m + onet.n_transitions] -= dt * onet.m_minus[p]
            for t in range(onet.n_transitions):
                row = rb.add(f"operand-flight[{k}]:{onet.operand}:{onet.transitions[t]}")
                row[layout.q_el(k + 1).start + e_off + t] = -1.0
                row[layout.q_el(k).start + e_off + t] = 1.0
                row[layout.ul_minus(k).start + e_off + t] += dt
                row[layout.ul_plus(k).start + e_off + t] -= dt
        for t in range(onet.n_transitions):
            d = int(onet.durations[t])
            for k in range(horizon):
                if k + d < horizon:
                    row = rb.add(f"operand-duration[{k}]:{onet.operand}:{onet.transitions[t]}")
                    row[layout.ul_minus(k).start + e_off + t] = 1.0
                    row[layout.ul_plus(k + d).start + e_off + t] = -1.0
            for k in range(min(d, horizon)):
                rb.add_pin(f"operand-duration-causality[{k}]:{onet.operand}:{onet.transitions[t]}",
                           layout.ul_plus(k).start + e_off + t, 0.0)

    sl_names = [f"{onet.operand}:{p}" for onet in problem.operand_nets for p in onet.places]
    ul_names = [f"{onet.operand}:{t}" for onet in problem.operand_nets for t in onet.transitions]
    if problem.sync_plus is not None:
        for k in range(horizon):
            for r in range(layout.sum_transitions):
                row = rb.add(f"sync-plus[{k}]:{ul_names[r]}")
                row[layout.ul_plus(k).start + r] = 1.0
                row[layout.u_plus(k)] -= problem.sync_plus[r]
                row2 = rb.add(f"sync-minus[{k}]:{ul_names[r]}")
                row2[layout.ul_minus(k).start + r] = 1.0
                row2[layout.u_minus(k)] -= problem.sync_minus[r]

    for name, slicer, width, labels in (
            ("u_plus", layout.u_plus, layout.n_transitions, trans_names),
            ("u_minus", layout.u_minus, layout.n_transitions, trans_names),
            ("ul_plus", layout.ul_plus, layout.sum_transitions, ul_names),
            ("ul_minus", layout.ul_minus, layout.sum_transitions, ul_names)):
        pins = getattr(problem.pins, name)
        if pins is None:
            continue
        for k in range(horizon):
            for j in range(width):
                if not np.isnan(pins[k, j]):
                    rb.add_pin(f"pin-{name}[{k}]:{labels[j]}", slicer(k).start + j, pins[k, j])

    for fam, slicer, names in (
            ("q_b", layout.q_b, place_names),
            ("q_e", layout.q_e, trans_names),
            ("q_sl", layout.q_sl, sl_names),
            ("q_el", layout.q_el, ul_names)):
        for tag, k in (("initial", 0), ("final", horizon)):
            vec = getattr(problem.boundary, f"{fam}_{tag}")
            if vec is None:
                continue
            for j, value in enumerate(vec):
                if not np.isnan(value):
                    rb.add_pin(f"boundary-{tag}:{fam}:{names[j]}", slicer(k).start + j, value)

    lower, upper = default_bounds(layout)
    if problem.lower is not None:
        lower = problem.lower
    if problem.upper is not None:
        upper = problem.upper

    rows = np.array(rb.rows) if rb.rows else np.zeros((0, layout.size))
    rhs = np.array(rb.rhs)
    senses = [EQUAL] * len(rb.rows)
    labels = list(rb.labels)
    if extra_rows is not None:
        xr_rows, xr_senses, xr_rhs, xr_labels = extra_rows
        xr_rows = np.asarray(xr_rows, dtype=float)
        if xr_rows.ndim != 2 or xr_rows.shape[1] != layout.size:
            raise ValueError(f"extra rows must have {layout.size} columns")
        rows = np.vstack([rows, xr_rows])
        rhs = np.concatenate([rhs, np.asarray(xr_rhs, dtype=float)])
        senses.extend(xr_senses)
        labels.extend(xr_labels)
    return LinearProgram(cost=problem.linear_cost, rows=rows, senses=tuple(senses), rhs=rhs,
                         lower=lower, upper=upper,
                         var_labels=names_by_loop(layout, net, problem.operand_nets),
                         row_labels=tuple(labels))


def assert_same_program(program, reference):
    for name in ("cost", "rhs", "lower", "upper"):
        got, want = getattr(program, name), getattr(reference, name)
        assert (got.dtype, got.shape) == (want.dtype, want.shape), name
        assert got.tobytes() == want.tobytes(), name  # signed zeros included
    # The matrix is held as sparse columns, entry for entry in from_dense's
    # order; a signed zero in the dense rows is no entry.
    want = kernels.SparseColumns.from_dense(reference.rows)
    assert program.matrix.shape == want.shape
    for name in ("cols", "indices", "data", "indptr"):
        got, expected = getattr(program.matrix, name), getattr(want, name)
        assert (got.dtype, got.shape) == (expected.dtype, expected.shape), name
        assert got.tobytes() == expected.tobytes(), name
    for name in ("senses", "var_labels", "row_labels"):
        assert getattr(program, name) == getattr(reference, name), name


# Coefficients: signed zeros, a subnormal that dt can round to zero, and
# a large value.
COEFFICIENTS = st.sampled_from([0.0, -0.0, 1.0, 2.0, 0.5, 0.3, 5e-324, 1e300])
SIGNED = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -2.5])
PINNED = st.sampled_from([np.nan, np.nan, 0.0, -0.0, 1.5, -3.0])


def _matrix(data, shape, entries, label):
    cells = data.draw(st.lists(entries, min_size=shape[0] * shape[1],
                               max_size=shape[0] * shape[1]), label=label)
    return np.array(cells, dtype=float).reshape(shape)


@given(st.data())
@settings(max_examples=250, deadline=None, derandomize=True)
def test_build_full_matches_row_reference(data):
    horizon = data.draw(st.integers(1, 6), label="K")
    lengths = st.sampled_from([0, 1, horizon, horizon + 1])
    dt = data.draw(st.sampled_from([1.0, 0.5, 0.3, 2.0]), label="dt")
    n_ops, n_bufs, n_caps = (data.draw(st.integers(1, hi), label=what) for hi, what in
                             ((2, "operands"), (2, "buffers"), (3, "capabilities")))
    shape = (n_ops * n_bufs, n_caps)
    m_plus = _matrix(data, shape, COEFFICIENTS, "M+")
    m_minus = _matrix(data, shape, COEFFICIENTS, "M-")
    inc = IncidenceMatrices(m_plus, m_minus,
                            operands=tuple(f"o{i}" for i in range(n_ops)),
                            buffers=tuple(f"b{i}" for i in range(n_bufs)),
                            capabilities=tuple(f"c{j}" for j in range(n_caps)))
    net = EngineeringSystemNet(
        incidence=inc, dt=dt,
        durations=data.draw(st.lists(lengths, min_size=n_caps, max_size=n_caps)))
    onets = []
    for i in range(data.draw(st.integers(0, 2), label="operand nets")):
        n_p, n_t = data.draw(st.integers(0, 3)), data.draw(st.integers(0, 3))
        onets.append(OperandNet(
            operand=f"o{i}", places=tuple(f"s{p}" for p in range(n_p)),
            transitions=tuple(f"w{t}" for t in range(n_t)),
            m_plus=_matrix(data, (n_p, n_t), COEFFICIENTS, "L+"),
            m_minus=_matrix(data, (n_p, n_t), COEFFICIENTS, "L-"),
            durations=data.draw(st.lists(lengths, min_size=n_t, max_size=n_t))))
    layout = variable_layout(net, onets, horizon)
    sync = {}
    if onets or data.draw(st.booleans(), label="sync without operand nets"):
        sync = {name: _matrix(data, (layout.sum_transitions, n_caps), SIGNED, name)
                for name in ("sync_plus", "sync_minus")}
    pins = {name: _matrix(data, (horizon, layout.widths[name]), PINNED, f"pin {name}")
            for name in ("u_plus", "u_minus", "ul_plus", "ul_minus")
            if data.draw(st.booleans(), label=f"pin {name}?")}
    boundary = {f"{name}_{end}": _matrix(data, (1, layout.widths[name]), PINNED, name)[0]
                for name in ("q_b", "q_e", "q_sl", "q_el") for end in ("initial", "final")
                if data.draw(st.booleans(), label=f"{name}_{end}?")}
    extra = None
    if data.draw(st.booleans(), label="extra rows?"):
        n_extra = data.draw(st.integers(0, 2), label="extra rows")
        extra = (_matrix(data, (n_extra, layout.size), SIGNED, "extra"),
                 data.draw(st.lists(st.sampled_from(["<=", "=", ">="]),
                                    min_size=n_extra, max_size=n_extra)),
                 [float(r) for r in range(n_extra)], [f"x{r}" for r in range(n_extra)])
    lower, upper = default_bounds(layout)
    problem = HfnmcfProblem(
        net=net, horizon=horizon, operand_nets=onets,
        linear_cost=np.arange(layout.size, dtype=float),
        lower=lower if data.draw(st.booleans(), label="lower?") else None,
        upper=upper if data.draw(st.booleans(), label="upper?") else None,
        boundary=BoundaryConditions(**boundary), pins=FiringPins(**pins), **sync)

    assert_same_program(build_full(problem, extra), build_full_by_rows(problem, extra))
    assert layout.names(net, onets) == names_by_loop(layout, net, onets)


def test_build_full_matches_row_reference_on_the_economy(economy_incidence, water_cut_problem):
    durations = np.random.default_rng(1).integers(1, 3, size=6)
    for problem in (time_expanded(economy_incidence, durations, 40), water_cut_problem):
        assert_same_program(build_full(problem), build_full_by_rows(problem))
