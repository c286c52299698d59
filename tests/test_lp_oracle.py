"""The simplex against an independent solver: HiGHS through scipy.

scipy is a test-only dependency; the package itself never imports it.
Random LPs mix every kind of variable bound and row sense, including
duplicate and redundant rows, and the status must agree, the
objective must agree to 1e-9 relative, and every optimum must pass
``certify``.  The time-expanded program of the reference economy is
checked against HiGHS and against the static (rcot) optimum, and so are
generated technology-choice programs solved from their Leontief start.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

optimize = pytest.importorskip("scipy.optimize")

from heconet import hfnmcf, lp, rcot
from heconet.lp import (LinearProgram, LpStatus, certify, irreducible_infeasible_rows,
                        solve_lp)

from conftest import (ECONOMY_F, ECONOMY_PI, ECONOMY_Y, ECONOMY_Z, rectangular_economy,
                      row_subset, time_expanded)

OBJECTIVE_RTOL = 1e-9
HIGHS_STATUS = {0: LpStatus.OPTIMAL, 2: LpStatus.INFEASIBLE, 3: LpStatus.UNBOUNDED}
VARIABLE_KINDS = ("nonnegative", "free", "fixed", "boxed", "upper-only", "shifted")
SENSES = (lp.LESS_EQUAL, lp.EQUAL, lp.GREATER_EQUAL)


def highs(program: LinearProgram):
    """(status, objective) of ``program`` by HiGHS, or (None, nan) when
    HiGHS reports anything but optimal, infeasible or unbounded."""
    senses = np.array(program.senses, dtype=object)
    ub = senses != lp.EQUAL
    flip = np.where(senses[ub] == lp.GREATER_EQUAL, -1.0, 1.0)
    kwargs = {}
    if ub.any():
        kwargs.update(A_ub=program.rows[ub] * flip[:, None], b_ub=program.rhs[ub] * flip)
    if (~ub).any():
        kwargs.update(A_eq=program.rows[~ub], b_eq=program.rhs[~ub])
    bounds = [(lo if np.isfinite(lo) else None, hi if np.isfinite(hi) else None)
              for lo, hi in zip(program.lower, program.upper)]
    res = optimize.linprog(program.cost, bounds=bounds, method="highs",
                           options={"presolve": False,
                                    "primal_feasibility_tolerance": 1e-10,
                                    "dual_feasibility_tolerance": 1e-10},
                           **kwargs)
    return HIGHS_STATUS.get(res.status), res.fun


def assert_agrees(program: LinearProgram, expected_status, expected_objective):
    result = solve_lp(program)
    assert result.status is expected_status
    if expected_status is LpStatus.OPTIMAL:
        assert abs(result.objective - expected_objective) \
            <= OBJECTIVE_RTOL * max(1.0, abs(expected_objective))
    if expected_status is not LpStatus.UNBOUNDED:
        assert certify(program, result).passed


@st.composite
def mixed_lp(draw):
    n = draw(st.integers(1, 7))
    m = draw(st.integers(0, 7))
    kinds = draw(st.lists(st.sampled_from(VARIABLE_KINDS), min_size=n, max_size=n))
    senses = list(draw(st.lists(st.sampled_from(SENSES), min_size=m, max_size=m)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    rows = np.round(rng.normal(size=(m, n)), 2)
    rows[rng.random((m, n)) < 0.4] = 0.0
    cost = np.round(rng.normal(size=n) * 2, 2)

    lower, upper = np.zeros(n), np.full(n, np.inf)
    for j, kind in enumerate(kinds):
        a, b = np.round(rng.normal(size=2) * 2, 2)
        if kind == "free":
            lower[j] = -np.inf
        elif kind == "fixed":
            lower[j] = upper[j] = a
        elif kind == "boxed":
            lower[j], upper[j] = a, a + abs(b) + 0.1
        elif kind == "upper-only":
            lower[j], upper[j] = -np.inf, a
        elif kind == "shifted":
            lower[j] = a

    # Mostly right-hand sides met by a point within the bounds, so that
    # optimal answers are common; otherwise random ones.
    if draw(st.booleans()) or draw(st.booleans()):
        point = np.clip(np.round(rng.normal(size=n) * 2, 2), lower, upper)
        gap = np.round(rng.uniform(0.0, 1.0, size=m), 2) * (rng.random(m) < 0.5)
        direction = np.array([{lp.LESS_EQUAL: 1.0, lp.EQUAL: 0.0,
                               lp.GREATER_EQUAL: -1.0}[s] for s in senses])
        rhs = rows @ point + direction * gap
    else:
        rhs = np.round(rng.normal(size=m) * 3, 2)

    # Duplicate, scaled and summed rows: redundant when consistent.
    for copy in draw(st.lists(st.sampled_from(("same", "scaled", "negated", "sum")),
                              max_size=3 if m else 0)):
        i, k = rng.integers(0, len(senses), size=2)
        if copy == "sum":
            if senses[i] != lp.EQUAL or senses[k] != lp.EQUAL:
                continue
            new_row, new_rhs, new_sense = rows[i] + rows[k], rhs[i] + rhs[k], lp.EQUAL
        else:
            factor = {"same": 1.0, "scaled": 2.5, "negated": -1.0}[copy]
            new_row, new_rhs = factor * rows[i], factor * rhs[i]
            new_sense = senses[i]
            if factor < 0 and senses[i] != lp.EQUAL:
                new_sense = lp.GREATER_EQUAL if senses[i] == lp.LESS_EQUAL else lp.LESS_EQUAL
        rows = np.vstack([rows, new_row])
        rhs = np.append(rhs, new_rhs)
        senses.append(new_sense)
    return LinearProgram(cost=cost, rows=rows.reshape(len(senses), n),
                         senses=tuple(senses), rhs=rhs, lower=lower, upper=upper)


@given(mixed_lp())
@settings(max_examples=300, deadline=None)
def test_status_and_objective_agree_with_highs(program):
    status, objective = highs(program)
    assume(status is not None)
    assert_agrees(program, status, objective)


@st.composite
def infeasible_lp(draw):
    """Random rows of every sense over free, boxed and one-sided columns,
    with right-hand sides drawn apart from any point, so that most are
    infeasible; the test keeps those that HiGHS calls infeasible."""
    n = draw(st.integers(1, 5))
    m = draw(st.integers(2, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    rows = np.round(rng.normal(size=(m, n)), 2)
    rows[rng.random((m, n)) < 0.35] = 0.0
    senses = tuple(rng.choice(SENSES, size=m))
    lower, upper = np.zeros(n), np.full(n, np.inf)
    for j, kind in enumerate(rng.choice(("free", "boxed", "lower", "upper"), size=n)):
        a, b = np.round(rng.normal(size=2) * 2, 2)
        if kind == "free":
            lower[j] = -np.inf
        elif kind == "boxed":
            lower[j], upper[j] = a, a + abs(b) + 0.1
        elif kind == "lower":
            lower[j] = a
        else:
            lower[j], upper[j] = -np.inf, a
    return LinearProgram(cost=np.zeros(n), rows=rows, senses=senses,
                         rhs=np.round(rng.normal(size=m) * 3, 2), lower=lower, upper=upper)


@given(infeasible_lp())
@settings(max_examples=150, deadline=None)
def test_infeasibility_witness_is_irreducible_by_highs(program):
    assume(highs(program)[0] is LpStatus.INFEASIBLE)
    assert_agrees(program, LpStatus.INFEASIBLE, np.nan)
    multipliers = irreducible_infeasible_rows(program)
    witness = [program.row_labels.index(label) for label in multipliers]
    # the multipliers, on their rows, are a certified ray of the program
    # and nonzero on every witness row
    ray = np.zeros(program.n_rows)
    ray[witness] = list(multipliers.values())
    assert certify(program, lp.LpResult(LpStatus.INFEASIBLE, None, np.nan, ray, None, 0)).passed
    assert np.all(ray[witness] != 0.0)
    assert highs(row_subset(program, witness))[0] is LpStatus.INFEASIBLE
    for i in witness:
        assert highs(row_subset(program, [k for k in witness if k != i]))[0] is LpStatus.OPTIMAL


def test_phase_one_infeasibility_is_not_reported_unbounded():
    # Infeasible rows alongside a free column with a negative cost: the
    # phase-1 objective is bounded below, so the answer must be
    # INFEASIBLE, never UNBOUNDED.
    program = LinearProgram(cost=[0.0, -1.0], rows=[[1.0, 0.0], [1.0, 0.0]],
                            senses=(lp.GREATER_EQUAL, lp.LESS_EQUAL), rhs=[2.0, 1.0],
                            lower=[0.0, -np.inf])
    assert highs(program)[0] is LpStatus.INFEASIBLE
    assert_agrees(program, LpStatus.INFEASIBLE, np.nan)


@pytest.mark.parametrize("horizon", [8, 40])
def test_time_expanded_program_agrees_with_highs_and_rcot(economy_incidence, horizon):
    durations = np.random.default_rng(horizon).integers(1, 3, size=economy_incidence.m_plus.shape[1])
    program = hfnmcf.build_full(time_expanded(economy_incidence, durations, horizon))
    status, objective = highs(program)
    assert status is LpStatus.OPTIMAL
    assert_agrees(program, LpStatus.OPTIMAL, objective)
    static = rcot.solve_rcot(rcot.instance_from_incidence(
        economy_incidence, ECONOMY_Y.size, ECONOMY_Y, ECONOMY_F, ECONOMY_PI))
    assert static.z == pytest.approx(ECONOMY_Z, abs=1e-9)
    assert_agrees(program, LpStatus.OPTIMAL, static.z)


def test_rcot_from_the_leontief_start_agrees_with_highs():
    # Availabilities drawn around what the start's square uses, so the
    # start often overdraws a factor: the program is then infeasible, or
    # phase 1 substitutes technologies on that factor's row.
    rng = np.random.default_rng(2011)
    statuses, overdrawn = set(), 0
    for _ in range(60):
        inst = rectangular_economy(rng)
        n = inst.n_sectors
        start = rcot.leontief_start(inst.i_star - inst.a_star, inst.pi @ inst.f_star,
                                    n + inst.n_factors)
        square = start[:n]
        use = inst.f_star[:, square] @ np.linalg.solve(np.eye(n) - inst.a_star[:, square], inst.y)
        inst = dataclasses.replace(inst, f=use * rng.uniform(0.7, 1.3, size=use.size))
        program = rcot.build_rcot_lp(inst)
        status, objective = highs(program)
        result, sol = solve_lp(program, start=start), rcot.solve_rcot(inst)
        assert result.status is sol.status is status
        assert certify(program, result).passed
        statuses.add(status)
        if status is LpStatus.OPTIMAL:
            overdrawn += bool(np.any(inst.f < use))
            for z in (result.objective, sol.z):
                assert abs(z - objective) <= OBJECTIVE_RTOL * max(1.0, abs(objective))
    assert statuses == {LpStatus.OPTIMAL, LpStatus.INFEASIBLE} and overdrawn >= 5
