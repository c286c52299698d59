"""The presolve inside ``solve_lp``: its reductions one by one, and the
time-expanded programs it reduces against HiGHS and the simulator.

Every answer is certified on the original program, so these tests pin
what the reductions leave and that the postsolve maps the reduced
answer back: x, the duals or the Farkas ray.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heconet import hfnmcf, kernels, lp, rcot
from heconet.hfnmcf import (BoundaryConditions, FiringPins, HfnmcfProblem, build_full,
                            variable_layout)
from heconet.incidence import IncidenceMatrices
from heconet.lp import LinearProgram, LpStatus, certify, solve_lp
from heconet.petri import EngineeringSystemNet, Marking, OperandNet, simulate

from conftest import ECONOMY_Z, time_expanded, water_cut
from test_hfnmcf import embedded_economies

optimize = pytest.importorskip("scipy.optimize")

from test_lp_oracle import OBJECTIVE_RTOL, highs  # noqa: E402


def reduced(program: LinearProgram) -> LinearProgram:
    presolved = lp._presolve(program)
    assert presolved is not None
    return presolved.program


def assert_matches_highs(program: LinearProgram):
    """The status and objective of ``program`` are HiGHS's, and the
    answer passes ``certify`` on ``program``; returns the result."""
    status, objective = highs(program)
    result = solve_lp(program)
    assert result.status is status
    if status is LpStatus.OPTIMAL:
        assert abs(result.objective - objective) <= OBJECTIVE_RTOL * max(1.0, abs(objective))
    assert certify(program, result).passed
    return result


# --------------------------------------------------------------------------
# One case per reduction


def test_a_singleton_outside_its_bounds_stays_and_is_certified_infeasible():
    # x0 = 3 folds; x1 = -2 breaks x1 >= 0, so its row stays for the
    # solve, whose ray is mapped back over both rows.
    program = LinearProgram(cost=[1.0, 1.0, 1.0], rows=[[1, 0, 0], [0, 1, 0], [1, 1, 1]],
                            senses=(lp.EQUAL,) * 3, rhs=[3.0, -2.0, 4.0],
                            row_labels=("fold", "break", "sum"))
    assert reduced(program).row_labels == ("break", "sum")
    result = assert_matches_highs(program)
    assert result.status is LpStatus.INFEASIBLE
    assert result.duals[1] != 0.0


def test_a_cycle_of_free_chain_columns_keeps_one_column():
    # z01, z12 and z20 are free, cost nothing and join the three rows in
    # a cycle: two of them merge the rows into one, and the third stays
    # with the sum of its weighed entries, which the 2 keeps nonzero.
    z01, z12, z20 = 3, 4, 5
    rows = np.zeros((3, 6))
    rows[[0, 1, 2], [0, 1, 2]] = 1.0
    rows[[0, 1], z01] = [1.0, -1.0]
    rows[[1, 2], z12] = [1.0, -1.0]
    rows[[2, 0], z20] = [2.0, -1.0]
    program = LinearProgram(cost=[1.0, 2.0, 3.0, 0.0, 0.0, 0.0], rows=rows,
                            senses=(lp.EQUAL,) * 3, rhs=[1.0, 2.0, 3.0],
                            lower=[0.0, 0.0, 0.0, -np.inf, -np.inf, -np.inf],
                            var_labels=("x0", "x1", "x2", "z01", "z12", "z20"))
    small = reduced(program)
    assert small.n_rows == 1 and small.var_labels[:3] == ("x0", "x1", "x2")
    assert small.var_labels[3:] in (("z01",), ("z12",), ("z20",))
    assert np.count_nonzero(small.rows) == 4
    result = assert_matches_highs(program)
    assert result.objective == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(program.rows @ result.x, program.rhs, atol=1e-12)


def test_merged_rows_share_the_multiplier_by_their_weights():
    # z joins x0 + z = 1 and x1 - 2 z = 2 into x0 + x1 / 2 = 2 (weights 1
    # and 1/2).  The merged row prices x0 at 1, so the second row's
    # multiplier is 1/2: any other leaves z a nonzero reduced cost.
    program = LinearProgram(cost=[1.0, 1.0, 0.0], rows=[[1, 0, 1], [0, 1, -2]],
                            senses=(lp.EQUAL,) * 2, rhs=[1.0, 2.0],
                            lower=[0.0, 0.0, -np.inf])
    small = reduced(program)
    assert small.rows.tolist() == [[1.0, 0.5]] and small.rhs.tolist() == [2.0]
    result = assert_matches_highs(program)
    assert result.x.tolist() == pytest.approx([2.0, 0.0, -1.0])
    assert result.duals.tolist() == pytest.approx([1.0, 0.5])


def test_a_cycle_of_doubleton_rows_keeps_one_row():
    # x0 = x1, x1 = x2 and x2 = x0: two rows substitute x1 and x2 out,
    # the third is left empty with a zero rhs and is dropped.
    rows = [[1, -1, 0, 0], [0, 1, -1, 0], [-1, 0, 1, 0], [1, 0, 0, 1]]
    program = LinearProgram(cost=[1.0, 1.0, 1.0, 5.0], rows=rows, senses=(lp.EQUAL,) * 4,
                            rhs=[0.0, 0.0, 0.0, 6.0])
    small = reduced(program)
    assert (small.n_rows, small.n_vars) == (1, 2)
    result = assert_matches_highs(program)
    assert np.allclose(result.x, [6.0, 6.0, 6.0, 0.0])


def test_a_free_column_with_a_cost_stays():
    program = LinearProgram(cost=[1.0, 1.0, 1.0, 2.0], rows=[[1, 0, 0, 1], [0, 1, 0, -1],
                                                             [0, 0, 1, 0]],
                            senses=(lp.EQUAL,) * 3, rhs=[1.0, 2.0, 1.0],
                            lower=[0.0, 0.0, 0.0, -np.inf],
                            var_labels=("x0", "x1", "x2", "z"))
    small = reduced(program)
    assert small.var_labels == ("x0", "x1", "z") and small.n_rows == 2
    assert_matches_highs(program)


def test_doubleton_bounds_that_neither_column_implies_keep_the_row():
    # x0 = x1 with x0 in [0, 2] and x1 in [1, 3]: neither range holds
    # the other, so the row stays; x2 = 1 still folds.
    program = LinearProgram(cost=[1.0, 1.0, 1.0], rows=[[1, -1, 0], [0, 0, 1]],
                            senses=(lp.EQUAL,) * 2, rhs=[0.0, 1.0],
                            lower=[0.0, 1.0, 0.0], upper=[2.0, 3.0, np.inf])
    assert reduced(program).n_rows == 1
    result = assert_matches_highs(program)
    assert result.x.tolist() == pytest.approx([1.0, 1.0, 1.0])


def test_a_program_reduced_to_no_rows():
    # A pin and a coupling: x1 is left with the cost of both coupled
    # columns and no row, and the duals make the other reduced costs zero.
    program = LinearProgram(cost=[2.0, 3.0, 5.0], rows=[[1, 0, 0], [0, 1, -1]],
                            senses=(lp.EQUAL,) * 2, rhs=[1.5, 0.0], lower=[0.0, 1.0, 0.0])
    small = reduced(program)
    assert (small.n_rows, small.var_labels, small.cost.tolist()) == (0, ("x2",), [8.0])
    result = assert_matches_highs(program)
    assert result.x.tolist() == [1.5, 1.0, 1.0]
    assert np.allclose(program.cost - program.rows.T @ result.duals, [0.0, 8.0, 0.0])


def recorded_starts(monkeypatch):
    """(program, start) of every call of lp._start."""
    calls = []
    start = lp._start

    def record(program, given=None):
        calls.append((program, given))
        return start(program, given)
    monkeypatch.setattr(lp, "_start", record)
    return calls


def test_a_start_is_dropped_when_the_program_is_reduced(monkeypatch):
    program = LinearProgram(cost=[1.0, 1.0, 1.0], rows=[[1, 0, 0], [0, 1, 1]],
                            senses=(lp.EQUAL, lp.GREATER_EQUAL), rhs=[2.0, 1.0])
    calls = recorded_starts(monkeypatch)
    result = solve_lp(program, start=[0, 1])
    [(solved, start)] = calls
    assert start is None and solved.n_rows == 1
    assert result.objective == pytest.approx(3.0, abs=1e-12)


def test_an_rcot_program_passes_through_with_its_start(economy_instance, monkeypatch):
    program = rcot.build_rcot_lp(economy_instance)
    assert lp._presolve(program) is None
    start = np.array([0, 2, 4, -1, -1])
    calls = recorded_starts(monkeypatch)
    result = solve_lp(program, start=start)
    [(solved, given)] = calls
    assert solved is program and given is start
    assert result.objective == pytest.approx(ECONOMY_Z, rel=1e-9)


def test_the_static_reduction_passes_through(economy_incidence):
    red = hfnmcf.build_static(economy_incidence, [20.0, 25.0, 22.0], [540.0, 342.0],
                              [1.0, 0.9])
    for relaxation in (">=", "="):
        assert lp._presolve(hfnmcf.static_lp(red, relaxation)) is None


# --------------------------------------------------------------------------
# Time-expanded programs


def test_the_horizon_program_reduces_to_one_row_per_place_and_transition(economy_incidence):
    # The markings chain each place's and each transition's rows over
    # the steps, and the duration rows couple each completion to its
    # start: what is left is the static economy's shape.
    durations = np.array([1, 2, 1, 2, 1, 2])
    for horizon in (8, 40):
        program = build_full(time_expanded(economy_incidence, durations, horizon))
        small = reduced(program)
        assert small.n_rows == 11
        assert small.n_vars == 6 * horizon + 5
        result = solve_lp(program)
        assert result.objective == pytest.approx(ECONOMY_Z, rel=1e-9)


@pytest.mark.parametrize("horizon", [1, 2, 8])
def test_water_cuts_stay_infeasible_with_a_certified_ray(economy_incidence, horizon):
    program = build_full(water_cut(economy_incidence, horizon))
    result = assert_matches_highs(program)
    assert result.status is LpStatus.INFEASIBLE


def random_net(rng, dt):
    n_p, n_t = int(rng.integers(1, 4)), int(rng.integers(1, 4))
    inc = IncidenceMatrices(
        np.round(rng.random((n_p, n_t)) * 2, 2), np.round(rng.random((n_p, n_t)) * 2, 2),
        operands=tuple(f"o{i}" for i in range(n_p)), buffers=("x",),
        capabilities=tuple(f"t{j}" for j in range(n_t)))
    return EngineeringSystemNet(incidence=inc, durations=rng.integers(0, 4, n_t), dt=dt)


def random_operand_nets(rng, net):
    """Up to two operand nets whose transitions each follow one
    capability (a 0/1 sync row, and its duration) or none (a zero row)."""
    onets, select = [], []
    for i in range(int(rng.integers(0, 3))):
        n_s, n_l = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        follow = rng.integers(-1, net.n_transitions, n_l)
        onets.append(OperandNet(
            operand=f"op{i}", places=tuple(f"s{p}" for p in range(n_s)),
            transitions=tuple(f"w{t}" for t in range(n_l)),
            m_plus=np.round(rng.random((n_s, n_l)) * 2, 2),
            m_minus=np.round(rng.random((n_s, n_l)) * 2, 2),
            durations=np.where(follow >= 0, net.durations[follow], rng.integers(0, 4, n_l))))
        select.append(np.where(follow[:, None] >= 0,
                               np.eye(net.n_transitions)[np.maximum(follow, 0)], 0.0))
    if not onets:
        return (), None
    return tuple(onets), np.vstack(select)


def maybe(rng, values, share):
    """``values`` with each entry NaN (free) with probability 1 - share."""
    return np.where(rng.random(np.shape(values)) < share, values, np.nan)


@st.composite
def time_expanded_problems(draw):
    """Programs of build_full's shape: a random net with durations 0-3,
    dt 0.5, 1 or 2 and K 1-12, operand nets with 0/1 sync, boundary
    values on some markings, firing pins on some starts, costs >= 0 on
    the firings and, sometimes, a final place marking >= 0."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    net = random_net(rng, draw(st.sampled_from([0.5, 1.0, 2.0])))
    horizon = draw(st.integers(1, 12))
    onets, select = random_operand_nets(rng, net)
    layout = variable_layout(net, onets, horizon)
    cost = np.zeros(layout.size)
    cost[layout.offsets["u_plus"]:] = np.round(rng.random(layout.size - layout.offsets["u_plus"]),
                                                2)
    lower, upper = hfnmcf.default_bounds(layout)
    if rng.random() < 0.5:
        lower[layout.q_b(horizon)] = 0.0
    n_t, n_ul = net.n_transitions, layout.sum_transitions
    boundary = BoundaryConditions(
        q_b_initial=maybe(rng, np.round(rng.random(net.n_places) * 5, 2), 0.8),
        q_e_initial=np.zeros(n_t),
        q_sl_initial=np.round(rng.random(layout.sum_places) * 4 - 1, 2) if onets else None,
        q_el_initial=np.zeros(n_ul) if onets else None,
        q_b_final=maybe(rng, np.round(rng.random(net.n_places) * 5, 2), 0.2),
        q_e_final=maybe(rng, np.zeros(n_t), 0.3))
    pins = FiringPins(u_minus=maybe(rng, np.round(rng.random((horizon, n_t)), 2), 0.6))
    return HfnmcfProblem(net=net, horizon=horizon, linear_cost=cost, operand_nets=onets,
                         sync_plus=select, sync_minus=select, boundary=boundary, pins=pins,
                         lower=lower, upper=upper)


def assert_replays(problem: HfnmcfProblem, sol):
    """The optimum's markings and completions are the simulator's under
    its own starts, and its operand nets roll as the kernel rolls them."""
    net = problem.net
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        run = simulate(net, Marking(sol.q_b[0], sol.q_e[0]), np.maximum(sol.u_minus, 0.0))
    for got, want in ((sol.q_b, run.q_b), (sol.q_e, run.q_e), (sol.u_plus, run.u_plus)):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-8)
    if problem.operand_nets:
        layout = sol.layout
        l_plus, l_minus = (np.zeros((layout.sum_places, layout.sum_transitions)) for _ in "+-")
        for i, onet in enumerate(problem.operand_nets):
            s, e = layout.operand_offset(i)
            l_plus[s:s + onet.n_places, e:e + onet.n_transitions] = onet.m_plus
            l_minus[s:s + onet.n_places, e:e + onet.n_transitions] = onet.m_minus
        ul_plus, ul_minus = sol.u_plus @ problem.sync_plus.T, sol.u_minus @ problem.sync_minus.T
        q_sl, q_el = kernels.esn_trajectory(l_plus, l_minus, sol.q_sl[0], sol.q_el[0],
                                            ul_plus, ul_minus, net.dt)
        for got, want in ((sol.ul_plus, ul_plus), (sol.ul_minus, ul_minus),
                          (sol.q_sl, q_sl), (sol.q_el, q_el)):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-8)


@given(time_expanded_problems())
@settings(max_examples=120, deadline=None, derandomize=True)
def test_time_expanded_programs_agree_with_highs_and_replay(problem):
    program = build_full(problem)
    assert lp._presolve(program) is not None
    result = assert_matches_highs(program)
    if result.status is LpStatus.OPTIMAL:
        assert_replays(problem, hfnmcf.solve_full(problem))


@given(embedded_economies())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_embedded_economies_agree_with_highs(problem):
    # About half of these are infeasible: the ray is mapped back
    # through the merged place and flight rows.
    assert_matches_highs(build_full(problem))


def roots_by_search(n, ends, key):
    """Per node the least (key, index) node of its component, by a
    breadth-first search from each such node in turn."""
    adjacent = [[] for _ in range(n)]
    for a, b in zip(*ends):
        adjacent[a].append(b)
        adjacent[b].append(a)
    root = [-1] * n
    for start in sorted(range(n), key=lambda i: (key[i], i)):
        if root[start] < 0:
            root[start], queue = start, [start]
            for node in queue:
                for other in adjacent[node]:
                    if root[other] < 0:
                        root[other] = start
                        queue.append(other)
    return root


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=100, deadline=None, derandomize=True)
def test_forest_matches_a_search_by_loops(seed):
    # Random multigraphs with cycles, parallel edges and lines no edge
    # joins.  The roots are the search's, the forest spans each
    # component, and per node the scale and the subtree sums are the
    # products and sums taken by loops along the forest's own edges.
    rng = np.random.default_rng(seed)
    lines = int(rng.integers(2, 30))
    m = int(rng.integers(1, 40))
    u = rng.integers(0, lines, m)
    v = (u + rng.integers(1, lines, m)) % lines
    values = (rng.choice([-2.0, -1.0, 0.5, 1.0, 3.0], m), rng.choice([-1.0, 1.0, 2.0], m))
    key = rng.integers(0, 3, lines)
    forest = lp._Forest(lines, (u, v), values, key=key)
    nodes = forest.nodes
    assert nodes.tolist() == sorted(set(u.tolist()) | set(v.tolist()))
    slot = {line: i for i, line in enumerate(nodes.tolist())}
    ends = ([slot[a] for a in u.tolist()], [slot[b] for b in v.tolist()])
    root = roots_by_search(nodes.size, ends, key[nodes])
    assert forest.root.tolist() == root
    assert np.count_nonzero(forest.up >= 0) == nodes.size - len(set(root))
    parent = np.arange(nodes.size)
    for node, e in enumerate(forest.up.tolist()):
        if e >= 0:
            parent[node] = ends[1][e] if ends[0][e] == node else ends[0][e]
    values_at = rng.normal(size=nodes.size)
    sums = forest.subtree_sums(values_at)
    for node in range(nodes.size):
        scale, at = 1.0, node
        for _ in range(nodes.size):             # a path up has fewer edges than nodes
            e = forest.up[at]
            if e < 0:
                break
            own, other = (values[0][e], values[1][e]) if ends[0][e] == at else \
                (values[1][e], values[0][e])
            assert forest.own[at] == own
            scale *= -other / own
            at = parent[at]
        assert at == forest.root[node]
        assert forest.scale[node] == pytest.approx(scale, rel=1e-12)
        below = [k for k in range(nodes.size) if _ancestor(parent, node, k)]
        expected = sum(values_at[k] for k in below) if forest.up[node] >= 0 else 0.0
        assert sums[node] == pytest.approx(expected, rel=1e-12, abs=1e-12)


def _ancestor(parent, node, k):
    """Whether ``node`` lies on the path from ``k`` up to its root."""
    for _ in range(len(parent)):
        if k == node:
            return True
        k = parent[k]
    return False
