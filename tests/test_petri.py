import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heconet import kernels
from heconet.incidence import IncidenceMatrices
from heconet.petri import (EngineeringSystemNet, Marking, OperandNet,
                           SimulationResult, derive_completions, simulate)


def chain_incidence():
    """p1 --t1--> p2 --t2--> p3 with unit weights."""
    m_minus = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    m_plus = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    return IncidenceMatrices(
        m_plus=m_plus, m_minus=m_minus, operands=("tok",), buffers=("b1", "b2", "b3"),
        capabilities=("t1", "t2"))


def test_marking_validation():
    Marking(np.zeros(2), np.zeros(1))
    Marking(np.array([-5.0, 1.0]), np.array([0.0]))          # q_b may go negative
    Marking(np.zeros(1), np.array([-1e-10]))                 # inside the floor
    with pytest.raises(ValueError):
        Marking(np.zeros(1), np.array([-1e-8]))              # below the floor
    with pytest.raises(ValueError):
        Marking(np.array([np.nan]), np.zeros(1))
    m = Marking(np.zeros(2), np.zeros(1))
    with pytest.raises(ValueError):
        m.q_b[0] = 1.0


def test_net_validation():
    inc = chain_incidence()
    net = EngineeringSystemNet(incidence=inc)
    assert net.n_places == 3 and net.n_transitions == 2
    assert list(net.durations) == [0, 0]
    assert net.transition_labels == ("t1", "t2")
    with pytest.raises(ValueError):
        EngineeringSystemNet(incidence=inc, durations=[1])
    with pytest.raises(ValueError):
        EngineeringSystemNet(incidence=inc, durations=[0.5, 0.0])
    with pytest.raises(ValueError):
        EngineeringSystemNet(incidence=inc, durations=[-1, 0])
    with pytest.raises(ValueError):
        EngineeringSystemNet(incidence=inc, dt=0.0)
    net2 = EngineeringSystemNet(incidence=inc, durations=np.array([2.0, 1.0]))
    assert list(net2.durations) == [2, 1]


@pytest.mark.parametrize("durations", [[True, False], [2**63, 0]])
def test_nets_refuse_durations_that_are_no_counts(durations):
    message = r"^durations\[0\] must be an integer >= 0 and < 2\*\*63, got "
    with pytest.raises(ValueError, match=message):
        EngineeringSystemNet(incidence=chain_incidence(), durations=durations)
    with pytest.raises(ValueError, match=message):
        OperandNet(operand="tok", places=("s1",), transitions=("go", "stop"),
                   m_plus=np.zeros((1, 2)), m_minus=np.zeros((1, 2)), durations=durations)


@pytest.mark.parametrize("dt", [True, "2", None])
def test_net_refuses_a_dt_that_is_no_number(dt):
    with pytest.raises(ValueError, match=r"^dt must be a positive number \(finite and > 0\)"):
        EngineeringSystemNet(incidence=chain_incidence(), dt=dt)


def test_esn_trajectory_three_state_hand_trace():
    net = EngineeringSystemNet(incidence=chain_incidence())
    inc = net.incidence
    # step 0: t1 starts and completes 4 units
    # step 1: t1 starts 3 that stay in flight, t2 moves 2 onward
    # step 2: the in-flight units complete
    # t1 completes within its step at k=0 but a step later at k=1, so no
    # fixed durations give these completions: they are given directly
    u_minus = np.array([[4.0, 0.0], [3.0, 2.0], [0.0, 0.0]])
    u_plus = np.array([[4.0, 0.0], [0.0, 2.0], [3.0, 0.0]])
    q_b, q_e = kernels.esn_trajectory(inc.m_plus, inc.m_minus, np.array([10.0, 0.0, 0.0]),
                                      np.zeros(2), u_plus, u_minus, net.dt)
    assert np.allclose(q_b[1], [6.0, 4.0, 0.0])
    assert np.allclose(q_e[1], [0.0, 0.0])
    assert np.allclose(q_b[2], [3.0, 2.0, 2.0])
    assert np.allclose(q_e[2], [3.0, 0.0])
    assert np.allclose(q_b[3], [3.0, 5.0, 2.0])
    assert np.allclose(q_e[3], [0.0, 0.0])


def test_simulate_leaves_input_untouched():
    net = EngineeringSystemNet(incidence=chain_incidence())
    start = Marking(np.array([1.0, 0.0, 0.0]), np.zeros(2))
    schedule = np.array([[1.0, 0.0]])
    simulate(net, start, schedule)
    assert np.allclose(start.q_b, [1.0, 0.0, 0.0])
    assert np.allclose(schedule, [[1.0, 0.0]])


def test_simulate_respects_dt():
    net = EngineeringSystemNet(incidence=chain_incidence(), dt=0.5)
    marking = Marking(np.array([10.0, 0.0, 0.0]), np.zeros(2))
    out = simulate(net, marking, np.array([[4.0, 0.0]]))
    assert np.allclose(out.q_b[1], [8.0, 2.0, 0.0])


def test_operand_net_step():
    onet = OperandNet(
        operand="tok", places=("s1", "s2"), transitions=("go",),
        m_plus=np.array([[0.0], [1.0]]), m_minus=np.array([[1.0], [0.0]]))
    q_b, q_e = kernels.esn_trajectory(onet.m_plus, onet.m_minus, np.array([2.0, 0.0]),
                                      np.zeros(1), np.array([[1.0]]), np.array([[1.0]]), 1.0)
    assert np.allclose(q_b, [[2.0, 0.0], [1.0, 1.0]])
    assert np.allclose(q_e, [[0.0], [0.0]])


def test_operand_net_validation():
    with pytest.raises(ValueError):
        OperandNet(operand="tok", places=("s1",), transitions=("go",),
                   m_plus=np.zeros((2, 1)), m_minus=np.zeros((1, 1)))


@pytest.mark.parametrize("axis, names, message", [
    ("places", ("s1", "s2", "s1"),
     "places of operand net 'tok' must be distinct; 's1' is repeated"),
    ("transitions", ("go", "go"),
     "transitions of operand net 'tok' must be distinct; 'go' is repeated")])
def test_operand_net_rejects_a_repeated_name(axis, names, message):
    entries = {"places": ("s1",), "transitions": ("go",), axis: names}
    shape = (len(entries["places"]), len(entries["transitions"]))
    with pytest.raises(ValueError, match=f"^{message}$"):
        OperandNet(operand="tok", m_plus=np.zeros(shape), m_minus=np.zeros(shape), **entries)


def test_derive_completions_durations_and_drops():
    durations = np.array([0, 2])
    schedule = np.array([[5.0, 3.0],
                         [0.0, 2.0],
                         [1.0, 4.0],
                         [0.0, 0.0]])
    u_plus, dropped = derive_completions(durations, schedule)
    expected = np.array([[5.0, 0.0],
                         [0.0, 0.0],
                         [1.0, 3.0],
                         [0.0, 2.0]])
    assert np.allclose(u_plus, expected)
    assert len(dropped) == 1
    step, transition, amount, completes = dropped[0]
    assert (step, transition, amount, completes) == (2, 1, 4.0, 4)


def completions_by_loop(durations, schedule):
    """The duration rule one schedule entry at a time: the reference for
    derive_completions."""
    horizon, n = schedule.shape
    u_plus = np.zeros_like(schedule)
    dropped = []
    for k in range(horizon):
        for j in range(n):
            amount = schedule[k, j]
            if amount == 0.0:
                continue
            completes = k + int(durations[j])
            if completes < horizon:
                u_plus[completes, j] += amount
            else:
                dropped.append((k, j, float(amount), completes))
    return u_plus, dropped


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_derive_completions_matches_entry_loop(data):
    horizon = data.draw(st.integers(0, 7), label="K")
    n = data.draw(st.integers(0, 4), label="transitions")
    durations = data.draw(st.lists(
        st.sampled_from(sorted({0, 1, max(horizon - 1, 0), horizon, horizon + 1})),
        min_size=n, max_size=n), label="durations")
    entry = st.one_of(st.just(0.0), st.just(-0.0),
                      st.floats(0.0, 1e6, allow_subnormal=True))
    rows = data.draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                              min_size=horizon, max_size=horizon), label="schedule")
    schedule = np.array(rows, dtype=float).reshape(horizon, n)
    idle = data.draw(st.sets(st.integers(0, max(n - 1, 0)), max_size=n), label="zero columns")
    schedule[:, sorted(idle)] = 0.0

    u_plus, dropped = derive_completions(np.array(durations, dtype=np.int64), schedule)
    ref_u_plus, ref_dropped = completions_by_loop(durations, schedule)
    assert u_plus.tobytes() == ref_u_plus.tobytes()  # signed zeros included
    assert dropped == ref_dropped
    assert [tuple(map(type, d)) for d in dropped] == [(int, int, float, int)] * len(dropped)


def test_simulation_result_checks_the_trajectory():
    fine = dict(q_b=np.zeros((3, 2)), q_e=np.zeros((3, 1)),
                u_plus=np.zeros((2, 1)), dropped=())
    result = SimulationResult(**fine)
    assert not result.q_b.flags.writeable and not result.q_e.flags.writeable
    q_e = np.zeros((3, 1))
    q_e[2, 0] = -1e-8  # just below QE_FLOOR
    with pytest.raises(ValueError,
                       match=r"tokens in flight must be nonnegative, got min -1e-08$"):
        SimulationResult(**dict(fine, q_e=q_e))
    for name, bad in (("q_b", np.nan), ("q_e", np.inf)):
        arr = np.zeros(fine[name].shape)
        arr[2, 0] = bad
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            SimulationResult(**dict(fine, **{name: arr}))
    with pytest.raises(ValueError, match="q_e must have shape"):
        SimulationResult(**dict(fine, q_e=np.zeros((4, 1))))
    # a trajectory that overflows is caught the same way
    net = EngineeringSystemNet(incidence=chain_incidence())
    with pytest.raises(ValueError, match="q_b must be finite"), np.errstate(over="ignore"):
        simulate(net, Marking(np.zeros(3), np.zeros(2)), np.full((2, 2), 1e308))


def test_simulate_hand_trace_and_reporting():
    net = EngineeringSystemNet(incidence=chain_incidence(), durations=[0, 2])
    initial = Marking(np.array([10.0, 0.0, 0.0]), np.zeros(2))
    schedule = np.array([[4.0, 2.0], [0.0, 3.0], [0.0, 2.0]])
    with pytest.warns(RuntimeWarning, match="dropped"):
        result = simulate(net, initial, schedule)
    assert len(result) == 4
    # t2's start at k=0 completes at k=2; its starts at k=1 and k=2
    # would complete at k=3 and k=4, beyond the 3-step horizon
    assert np.allclose(result.q_b[0], [10.0, 0.0, 0.0])
    assert np.allclose(result.q_b[1], [6.0, 2.0, 0.0])
    assert np.allclose(result.q_b[2], [6.0, -1.0, 0.0])
    assert np.allclose(result.q_b[3], [6.0, -3.0, 2.0])
    assert np.allclose(result.q_e[:, 1], [0.0, 2.0, 5.0, 5.0])
    assert len(result.dropped) == 2
    assert result.dropped[0].transition == "t2"
    assert result.dropped[0].step == 1
    assert result.dropped[0].amount == 3.0
    assert result.dropped[0].completes_at == 3
    assert result.dropped[1].completes_at == 4
    # u_plus exposed for replaying the run
    assert np.allclose(result.u_plus[:, 0], schedule[:, 0])
    assert np.allclose(result.u_plus[:, 1], [0.0, 0.0, 2.0])


def test_simulate_no_warning_when_clean():
    net = EngineeringSystemNet(incidence=chain_incidence())
    initial = Marking(np.array([5.0, 0.0, 0.0]), np.zeros(2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = simulate(net, initial, np.array([[1.0, 0.0]]))
    assert not result.dropped


def test_simulate_validates_schedule():
    net = EngineeringSystemNet(incidence=chain_incidence())
    initial = Marking(np.zeros(3), np.zeros(2))
    with pytest.raises(ValueError):
        simulate(net, initial, np.array([[1.0]]))
    with pytest.raises(ValueError):
        simulate(net, initial, np.array([[1.0, -1.0]]))
    with pytest.raises(ValueError):
        simulate(net, initial, np.array([[np.nan, 0.0]]))
    with pytest.raises(ValueError, match="initial marking shapes do not match the net"):
        simulate(net, Marking(np.zeros(2), np.zeros(2)), np.array([[1.0, 0.0]]))
    with pytest.raises(ValueError, match="schedule must be a K x n_transitions matrix"):
        derive_completions(net.durations, np.array([1.0, 0.0]))


def test_simulation_result_sequence_protocol():
    net = EngineeringSystemNet(incidence=chain_incidence())
    initial = Marking(np.array([3.0, 0.0, 0.0]), np.zeros(2))
    result = simulate(net, initial, np.array([[1.0, 0.0], [1.0, 0.0]]))
    assert isinstance(result, SimulationResult)
    assert isinstance(result[1], Marking)
    assert [m.q_b[0] for m in result] == [3.0, 2.0, 1.0]


def test_flight_conservation_identity():
    rng = np.random.default_rng(3)
    m_plus = np.round(rng.random((4, 3)) * rng.integers(0, 2, (4, 3)), 2)
    m_minus = np.round(rng.random((4, 3)) * rng.integers(0, 2, (4, 3)), 2)
    inc = IncidenceMatrices(m_plus, m_minus,
                            operands=("a", "b", "c", "d"), buffers=("x",),
                            capabilities=("u", "v", "w"))
    net = EngineeringSystemNet(incidence=inc, durations=[1, 0, 3])
    schedule = np.round(rng.random((12, 3)) * 2, 2) + 0.01
    with pytest.warns(RuntimeWarning):  # late starts inevitably overrun
        result = simulate(net, Marking(np.zeros(4), np.zeros(3)), schedule)
    for k in range(12):
        lhs = result.q_e[k + 1] - result.q_e[k]
        rhs = schedule[k] - result.u_plus[k]
        assert np.allclose(lhs, rhs, atol=1e-12)
    # tokens in flight never go negative when completions derive from starts
    assert np.all(result.q_e >= -1e-9)


@given(st.integers(0, 2 ** 31 - 1), st.floats(0.1, 3.0))
@settings(max_examples=25, deadline=None)
def test_simulate_is_linear_in_the_schedule(seed, alpha):
    rng = np.random.default_rng(seed)
    m_plus = np.round(rng.random((2, 2)), 2)
    m_minus = np.round(rng.random((2, 2)), 2)
    inc = IncidenceMatrices(m_plus, m_minus,
                            operands=("a", "b"), buffers=("x",),
                            capabilities=("u", "v"))
    net = EngineeringSystemNet(incidence=inc, durations=[0, 1])
    schedule = np.round(rng.random((5, 2)), 3)
    zero = Marking(np.zeros(2), np.zeros(2))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        base = simulate(net, zero, schedule)
        scaled = simulate(net, zero, alpha * schedule)
    assert np.allclose(scaled.q_b, alpha * base.q_b, atol=1e-9)
    assert np.allclose(scaled.q_e, alpha * base.q_e, atol=1e-9)
