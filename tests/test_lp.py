import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heconet import hfnmcf, kernels, lp
from heconet.checks import read_only
from heconet.config import DEFAULT_TOLERANCES
from heconet.lp import (CertificationError, IterationLimitError,
                        LinearProgram, LpResult, LpStatus, certify,
                        feasible, irreducible_infeasible_rows, solve_lp)

from conftest import (ECONOMY_F, ECONOMY_M_MINUS, ECONOMY_M_PLUS, ECONOMY_PI,
                      ECONOMY_X, ECONOMY_Y, ECONOMY_Z, time_expanded, water_cut)


def economy_lp() -> LinearProgram:
    rows = np.vstack([ECONOMY_M_PLUS[:3] - ECONOMY_M_MINUS[:3],
                      ECONOMY_M_MINUS[3:]])
    senses = (lp.GREATER_EQUAL,) * 3 + (lp.LESS_EQUAL,) * 2
    return LinearProgram(cost=ECONOMY_PI @ ECONOMY_M_MINUS[3:], rows=rows,
                         senses=senses, rhs=np.concatenate([ECONOMY_Y, ECONOMY_F]))


def test_reference_problem_solution():
    result = solve_lp(economy_lp())
    assert result.status is LpStatus.OPTIMAL
    assert result.objective == pytest.approx(ECONOMY_Z, abs=1e-9)
    assert np.allclose(result.x, ECONOMY_X, atol=1e-9)
    assert result.iterations > 0


def test_reference_problem_duals_and_slacks():
    result = solve_lp(economy_lp())
    # KKT sign conventions for a minimization: >= rows carry
    # nonnegative multipliers, <= rows nonpositive ones.
    assert np.all(result.duals[:3] >= -1e-9)
    assert np.all(result.duals[3:] <= 1e-9)
    # strong duality
    rhs = np.concatenate([ECONOMY_Y, ECONOMY_F])
    assert result.duals @ rhs == pytest.approx(result.objective, abs=1e-6)
    # water cap binds, capital does not
    assert result.slacks[4] == pytest.approx(0.0, abs=1e-9)
    assert result.slacks[3] == pytest.approx(42.0759159561774, abs=1e-7)
    # complementary slackness: slack(capital) > 0 forces its dual to zero
    assert result.duals[3] == pytest.approx(0.0, abs=1e-9)


def test_certificate_passes_and_is_reported():
    program = economy_lp()
    result = solve_lp(program)
    cert = certify(program, result)
    assert cert.passed
    assert not cert.failures()
    names = {c.name for c in cert.checks}
    assert any("primal" in n for n in names)
    assert any("dual" in n for n in names)
    assert any("complementar" in n for n in names)
    assert any("gap" in n for n in names)


def test_certificate_rejects_tampered_solution():
    program = economy_lp()
    result = solve_lp(program)
    tampered = LpResult(status=result.status, x=result.x + 0.5,
                        objective=result.objective, duals=result.duals,
                        slacks=result.slacks, iterations=result.iterations)
    cert = certify(program, tampered)
    assert not cert.passed
    assert cert.failures()


def boxed_lp() -> LinearProgram:
    return LinearProgram(cost=[1.0, -2.0, 0.5],
                         rows=[[1.0, 1.0, 0.0], [0.0, 1.0, -1.0], [1.0, 0.0, 1.0]],
                         senses=(lp.GREATER_EQUAL, lp.LESS_EQUAL, lp.EQUAL),
                         rhs=[1.0, 2.0, 3.0], lower=[-1.0, -np.inf, 0.5],
                         upper=[4.0, 3.0, np.inf])


# Check values of two tampered results, as computed by a plain loop
# over the rows and variables of each check.
TAMPERED_ECONOMY = (
    ("primal row feasibility", False, 4.099999999999909, 1e-07),
    ("bound feasibility", True, 0.0, 1e-07),
    ("dual sign conditions", True, 0.0, 1e-07),
    ("dual feasibility (reduced costs)", False, 1.876254268177747, 1e-07),
    ("complementary slackness", True, 2.354181677022557e-13, 1e-06),
    ("duality gap", False, 8.989999999999668, 0.0008157140840438233),
    ("objective consistency", False, 8.989999999999895, 0.0008157140840438233),
)
TAMPERED_BOXED = (
    ("primal row feasibility", False, 0.125, 1e-07),
    ("bound feasibility", False, 0.5, 1e-07),
    ("dual sign conditions", False, 0.3, 1e-07),
    ("dual feasibility (reduced costs)", False, 0.2, 1e-07),
    ("complementary slackness", False, 0.6400000000000001, 1e-06),
    ("duality gap", False, 1.3875000000000002, 7.187499999999999e-06),
    ("objective consistency", False, 1.2874999999999996, 7.187499999999999e-06),
)


@pytest.mark.parametrize("program, shift, expected", [
    (economy_lp, lambda r: dict(x=r.x + 0.5), TAMPERED_ECONOMY),
    (boxed_lp, lambda r: dict(x=r.x + np.array([-0.25, 0.5, 0.125]),
                              objective=r.objective + 0.1,
                              duals=r.duals + np.array([-0.3, 0.2, 0.0]),
                              slacks=r.slacks + 0.2), TAMPERED_BOXED),
], ids=["economy", "boxed"])
def test_certificate_values_on_tampered_results(program, shift, expected):
    program = program()
    result = solve_lp(program)
    fields = dict(status=result.status, x=result.x, objective=result.objective,
                  duals=result.duals, slacks=result.slacks, iterations=result.iterations)
    fields.update(shift(result))
    cert = certify(program, LpResult(**fields))
    assert len(cert.checks) == len(expected)
    for check, (name, passed, value, bound) in zip(cert.checks, expected):
        assert (check.name, check.passed, check.bound) == (name, passed, bound)
        assert check.value == pytest.approx(value, rel=1e-9, abs=1e-12)


def test_unbounded():
    program = LinearProgram(cost=[-1.0], rows=[[1.0]],
                            senses=(lp.GREATER_EQUAL,), rhs=[0.0])
    assert solve_lp(program).status is LpStatus.UNBOUNDED


def test_infeasible():
    program = LinearProgram(cost=[1.0], rows=[[1.0], [1.0]],
                            senses=(lp.GREATER_EQUAL, lp.LESS_EQUAL),
                            rhs=[2.0, 1.0])
    result = solve_lp(program)
    assert result.status is LpStatus.INFEASIBLE
    assert np.all(np.isnan(result.x))
    # The Farkas ray has the duals' signs: >= 0 on ">=", <= 0 on "<=".
    assert result.duals[0] > 0 > result.duals[1]
    assert certify(program, result).passed


def infeasible_lp() -> LinearProgram:
    # x1 + x2 >= 4 cannot hold with x1 <= 1 and x2 <= 2; every row is
    # needed, so every ray entry is in its support.
    return LinearProgram(cost=[1.0, 1.0], rows=[[1.0, 1.0], [1.0, 0.0], [0.0, 1.0]],
                         senses=(lp.GREATER_EQUAL, lp.LESS_EQUAL, lp.LESS_EQUAL),
                         rhs=[4.0, 1.0, 2.0], lower=[-np.inf, 0.0])


@pytest.mark.parametrize("tamper", [
    lambda y: -y,
    lambda y: np.where(np.arange(y.size) == 0, 0.0, y),
    lambda y: np.where(np.arange(y.size) == 2, 0.0, y),
    lambda y: np.zeros_like(y),
    lambda y: np.full_like(y, np.nan),
], ids=["sign-flipped", "first-entry-zeroed", "last-entry-zeroed", "zero", "nan"])
def test_certificate_rejects_tampered_ray(tamper):
    program = infeasible_lp()
    result = solve_lp(program)
    assert result.status is LpStatus.INFEASIBLE
    assert np.all(result.duals != 0)
    assert certify(program, result).passed
    result.duals = tamper(result.duals)
    assert not certify(program, result).passed


def test_infeasible_result_failing_its_ray_raises(monkeypatch):
    phase1 = lp._phase1

    def zero_ray(sx, tol):
        iters, infeasible, ray = phase1(sx, tol)
        return iters, infeasible, np.zeros_like(ray)
    monkeypatch.setattr(lp, "_phase1", zero_ray)
    with pytest.raises(CertificationError, match="infeasible result failed certification"):
        solve_lp(infeasible_lp())


def test_unbounded_results_are_not_certified():
    program = LinearProgram(cost=[-1.0], rows=[[1.0]], senses=(lp.GREATER_EQUAL,), rhs=[0.0])
    with pytest.raises(ValueError, match="optimal or infeasible"):
        certify(program, solve_lp(program))


def test_free_variable_via_negative_lower_bound():
    program = LinearProgram(cost=[1.0], rows=[[1.0]],
                            senses=(lp.GREATER_EQUAL,), rhs=[-5.0],
                            lower=[-np.inf])
    result = solve_lp(program)
    assert result.status is LpStatus.OPTIMAL
    assert result.x[0] == pytest.approx(-5.0, abs=1e-12)


def test_upper_bound_binds():
    program = LinearProgram(cost=[-1.0], rows=[[1.0]],
                            senses=(lp.LESS_EQUAL,), rhs=[10.0],
                            upper=[3.0])
    result = solve_lp(program)
    assert result.x[0] == pytest.approx(3.0, abs=1e-12)


def test_shifted_lower_bound():
    program = LinearProgram(cost=[1.0, 1.0], rows=[[1.0, 1.0]],
                            senses=(lp.GREATER_EQUAL,), rhs=[1.0],
                            lower=[2.0, 3.0])
    result = solve_lp(program)
    assert result.objective == pytest.approx(5.0, abs=1e-12)
    assert np.allclose(result.x, [2.0, 3.0])


def test_fixed_variable():
    program = LinearProgram(cost=[1.0, 0.0], rows=[[1.0, 1.0]],
                            senses=(lp.GREATER_EQUAL,), rhs=[1.0],
                            lower=[4.0, 0.0], upper=[4.0, np.inf])
    result = solve_lp(program)
    assert result.x[0] == pytest.approx(4.0)
    assert result.status is LpStatus.OPTIMAL


def test_upper_only_variable():
    # no finite lower bound: substituted from its upper end
    program = LinearProgram(cost=[1.0], rows=[[1.0]],
                            senses=(lp.LESS_EQUAL,), rhs=[9.0],
                            lower=[-np.inf], upper=[2.0])
    result = solve_lp(program)
    assert result.status is LpStatus.UNBOUNDED


def test_equality_rows():
    program = LinearProgram(cost=[0.0, 0.0], rows=[[1.0, 1.0], [1.0, -1.0]],
                            senses=(lp.EQUAL, lp.EQUAL), rhs=[4.0, 2.0])
    result = solve_lp(program)
    assert np.allclose(result.x, [3.0, 1.0], atol=1e-10)


def test_sense_masks_are_derived_once_and_read_only():
    program = LinearProgram(cost=[1.0], rows=[[1.0], [2.0], [1.0]],
                            senses=(lp.EQUAL, lp.LESS_EQUAL, lp.GREATER_EQUAL),
                            rhs=[3.0, 6.0, 1.0])
    equal, ge, le = program.sense_masks
    assert equal.tolist() == [True, False, False]
    assert ge.tolist() == [False, False, True]
    assert le.tolist() == [False, True, False]
    assert program.sense_masks is program.sense_masks
    with pytest.raises(ValueError, match="read-only"):
        equal[0] = False


def test_redundant_rows_are_survived():
    program = LinearProgram(cost=[1.0], rows=[[1.0], [2.0], [1.0]],
                            senses=(lp.EQUAL, lp.EQUAL, lp.GREATER_EQUAL),
                            rhs=[3.0, 6.0, 1.0])
    result = solve_lp(program)
    assert result.status is LpStatus.OPTIMAL
    assert result.x[0] == pytest.approx(3.0, abs=1e-12)
    assert result.duals.shape == (3,)


def test_inconsistent_duplicate_equalities_infeasible():
    program = LinearProgram(cost=[1.0], rows=[[1.0], [1.0]],
                            senses=(lp.EQUAL, lp.EQUAL), rhs=[3.0, 4.0])
    assert solve_lp(program).status is LpStatus.INFEASIBLE


def test_zero_row_compatibility():
    ok = LinearProgram(cost=[1.0], rows=[[0.0]], senses=(lp.LESS_EQUAL,),
                       rhs=[1.0])
    assert solve_lp(ok).status is LpStatus.OPTIMAL
    bad = LinearProgram(cost=[1.0], rows=[[0.0]], senses=(lp.GREATER_EQUAL,),
                        rhs=[1.0])
    assert solve_lp(bad).status is LpStatus.INFEASIBLE


def test_crossing_bounds_rejected_at_construction():
    with pytest.raises(ValueError, match="exceeds upper"):
        LinearProgram(cost=[1.0], rows=[[1.0]], senses=(lp.LESS_EQUAL,),
                      rhs=[10.0], lower=[5.0], upper=[4.0])


def test_iteration_limit():
    tight = DEFAULT_TOLERANCES.replace(lp_max_iter=1)
    with pytest.raises(IterationLimitError):
        solve_lp(economy_lp(), tight)


def test_refactor_every_pivot_gives_same_answer():
    eager = DEFAULT_TOLERANCES.replace(lp_refactor_every=1)
    result = solve_lp(economy_lp(), eager)
    assert result.objective == pytest.approx(ECONOMY_Z, abs=1e-9)


def test_validation_errors():
    with pytest.raises(ValueError):
        LinearProgram(cost=[1.0], rows=[[1.0, 2.0]],
                      senses=(lp.LESS_EQUAL,), rhs=[1.0])
    with pytest.raises(ValueError):
        LinearProgram(cost=[1.0], rows=[[1.0]], senses=("?",), rhs=[1.0])
    with pytest.raises(ValueError):
        LinearProgram(cost=[np.nan], rows=[[1.0]],
                      senses=(lp.LESS_EQUAL,), rhs=[1.0])
    with pytest.raises(ValueError):
        LinearProgram(cost=[1.0], rows=[[1.0]], senses=(lp.LESS_EQUAL,),
                      rhs=[1.0], var_labels=("a", "b"))
    with pytest.raises(ValueError):
        LinearProgram(cost=[1.0], rows=[[np.inf]],
                      senses=(lp.LESS_EQUAL,), rhs=[1.0])
    with pytest.raises(ValueError, match="senses must have length 1"):
        LinearProgram(cost=[1.0], rows=[[1.0]], senses=(lp.LESS_EQUAL, lp.EQUAL), rhs=[1.0])
    with pytest.raises(ValueError, match=r"lower bounds must be < \+inf"):
        LinearProgram(cost=[1.0], rows=[[1.0]], senses=(lp.LESS_EQUAL,), rhs=[1.0],
                      lower=[np.inf])
    with pytest.raises(ValueError, match="cost must be an array of numbers"):
        LinearProgram(cost="abc", rows=[[1.0]], senses=(lp.LESS_EQUAL,), rhs=[1.0])
    with pytest.raises(ValueError, match="row_labels must be distinct; 'cap' is repeated"):
        LinearProgram(cost=[1.0], rows=[[1.0], [1.0]], senses=(lp.LESS_EQUAL,) * 2,
                      rhs=[1.0, 2.0], row_labels=("cap", "cap"))


def test_caller_writes_do_not_reach_the_program():
    # A writable array, and a read-only view of one, are copied: writes
    # through the caller's array after construction leave the LP as it was.
    for frozen_view in (False, True):
        rows = np.array([[1.0, 2.0], [3.0, 4.0]])
        rhs = np.array([1.0, 2.0])
        given = rows.view() if frozen_view else rows
        given.setflags(write=not frozen_view)
        program = LinearProgram(cost=np.ones(2), rows=given,
                                senses=(lp.LESS_EQUAL,) * 2, rhs=rhs)
        rows[:] = -7.0
        rhs[:] = -7.0
        assert program.rows.tolist() == [[1.0, 2.0], [3.0, 4.0]]
        assert program.rhs.tolist() == [1.0, 2.0]
        assert not program.rows.flags.writeable


def test_read_only_rows_are_handed_over_and_still_checked():
    # Sparse columns are held without a copy, their arrays made read-only.
    matrix = kernels.SparseColumns((1, 2), [0, 1], [0, 0], [1.0, 2.0])
    program = LinearProgram(cost=np.ones(2), rows=matrix, senses=(lp.LESS_EQUAL,), rhs=[1.0])
    assert program.matrix is matrix
    assert not any(a.flags.writeable for a in (matrix.cols, matrix.indices, matrix.data))
    # rows is a dense view, built afresh on every read
    assert program.rows.tolist() == [[1.0, 2.0]]
    assert program.rows is not program.rows and not program.rows.flags.writeable
    rows = read_only(np.array([[1.0, 2.0]]))
    with pytest.raises(ValueError, match="rows must be finite"):
        LinearProgram(cost=np.ones(2), rows=read_only(np.array([[1.0, np.nan]])),
                      senses=(lp.LESS_EQUAL,), rhs=[1.0])
    with pytest.raises(ValueError, match="rows must have shape"):
        LinearProgram(cost=np.ones(3), rows=rows, senses=(lp.LESS_EQUAL,), rhs=[1.0])
    with pytest.raises(ValueError, match="rows must have shape"):
        LinearProgram(cost=np.ones(3), rows=kernels.SparseColumns((1, 2), [0], [0], [1.0]),
                      senses=(lp.LESS_EQUAL,), rhs=[1.0])
    for message, cols, indices, data in (
            ("rows must be finite", [0, 1], [0, 0], [1.0, np.inf]),
            ("rows must be finite", [0, 1], [0, 0], [np.nan, 2.0]),
            ("no zero entries", [0, 1], [0, 0], [1.0, 0.0]),
            ("no zero entries", [0, 1], [0, 0], [-0.0, 2.0]),
            ("lie in the", [0, 1], [0, 1], [1.0, 2.0]),           # row out of range
            ("lie in the", [0, 1], [-1, 0], [1.0, 2.0]),
            ("lie in the", [0, 2], [0, 0], [1.0, 2.0]),           # column out of range
            ("sorted by column", [1, 0], [0, 0], [2.0, 1.0]),
            ("sorted by column", [0, 0], [0, 0], [1.0, 2.0]),     # one pair twice
            ("lie in the", [0, 1], [0, 0], [1.0])):                # a value missing
        with pytest.raises(ValueError, match=message):
            LinearProgram(cost=np.ones(2), rows=kernels.SparseColumns((1, 2), cols, indices, data),
                          senses=(lp.LESS_EQUAL,), rhs=[1.0])


def test_feasible_helper():
    assert feasible(economy_lp())
    bad = LinearProgram(cost=[1.0], rows=[[1.0], [1.0]],
                        senses=(lp.GREATER_EQUAL, lp.LESS_EQUAL), rhs=[2.0, 1.0])
    assert not feasible(bad)


def test_irreducible_infeasible_rows():
    program = LinearProgram(
        cost=[1.0, 1.0],
        rows=[[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
        senses=(lp.GREATER_EQUAL, lp.LESS_EQUAL, lp.LESS_EQUAL),
        rhs=[2.0, 1.0, 5.0],
        row_labels=("needs-two", "caps-one", "irrelevant"))
    witness = irreducible_infeasible_rows(program)
    assert set(witness) == {"needs-two", "caps-one"}
    # the multipliers carry the signs of their rows' senses
    assert witness["needs-two"] > 0.0 > witness["caps-one"]


def test_a_witness_ray_that_fails_its_checks_raises(monkeypatch):
    program = LinearProgram(cost=[1.0], rows=[[1.0], [1.0]],
                            senses=(lp.GREATER_EQUAL, lp.LESS_EQUAL), rhs=[2.0, 1.0])
    failed = (lp.CheckResult("refused", False, 1.0, 0.0),)
    monkeypatch.setattr(lp, "_farkas_checks", lambda *args: failed)
    with pytest.raises(CertificationError, match="infeasible result failed certification: "
                                                 "refused"):
        irreducible_infeasible_rows(program)


def test_irreducible_infeasible_rows_of_a_feasible_program_is_empty():
    assert irreducible_infeasible_rows(economy_lp()) == {}


@pytest.mark.parametrize("refactor_every", [1, DEFAULT_TOLERANCES.lp_refactor_every])
def test_irreducible_infeasible_rows_keeps_each_needed_row_of_a_chain(refactor_every):
    # x1 >= 3, x2 >= x1, x3 = x2 and x3 <= 2: every row is needed, but
    # only one of the two equal caps, and the unrelated row is not.
    program = LinearProgram(
        cost=np.zeros(4),
        rows=[[1, 0, 0, 0], [-1, 1, 0, 0], [0, -1, 1, 0], [0, 0, 1, 0],
              [0, 0, 1, 0], [0, 0, 0, 1]],
        senses=(lp.GREATER_EQUAL, lp.GREATER_EQUAL, lp.EQUAL, lp.LESS_EQUAL,
                lp.LESS_EQUAL, lp.EQUAL),
        rhs=[3.0, 0.0, 0.0, 2.0, 2.0, 7.0], lower=[-np.inf] * 4,
        row_labels=("start", "step", "link", "cap", "cap-again", "other"))
    tol = DEFAULT_TOLERANCES.replace(lp_refactor_every=refactor_every)
    witness = list(irreducible_infeasible_rows(program, tol))
    assert witness[:3] == ["start", "step", "link"]
    assert witness[3:] in (["cap"], ["cap-again"])


def irreducible_rows_by_restore(program, tol=DEFAULT_TOLERANCES) -> list:
    """The deletion filter by save and restore: the reference for
    irreducible_infeasible_rows.

    Every row r gets one relaxation column e_r, fixed at [0, 0], and
    deleting r frees it.  A trial that turns feasible restores the
    basis, point, inverse and eta count saved before it, so the next
    trial drains the artificial load again from there.
    """
    m = program.n_rows
    sx = lp._start(program)
    k = sx.a.shape[1]
    sx.append_units(np.arange(m), np.ones(m), 0.0, 0.0, 0.0)
    _, infeasible, _ = lp._phase1(sx, tol)
    if not infeasible:
        return []
    active = np.ones(m, dtype=bool)

    def drop(rows):
        active[rows] = False
        sx.lower[k + rows] = -np.inf
        sx.upper[k + rows] = np.inf

    def drop_outside_support():
        # The phase-1 duals c1_B B^-1, read off the inverse.
        ray = np.sum(sx.binv[sx.c1[sx.basis] > 0.0], axis=0)
        ray[~active] = 0.0
        support = np.abs(ray) > tol.lp_feasibility * np.max(np.abs(ray))
        ray[~support] = 0.0
        outside = np.flatnonzero(active & ~support)
        if outside.size and all(c.passed for c in lp._farkas_checks(program, ray, tol)):
            drop(outside)

    drop_outside_support()
    for r in range(m):
        if not active[r]:
            continue
        saved = sx.w.copy(), sx.basis.copy(), sx.binv.copy(), sx.etas
        drop(r)
        _, infeasible, _ = lp._phase1(sx, tol)
        if infeasible:
            drop_outside_support()
        else:
            sx.w, sx.basis, sx.binv, sx.etas = saved
            active[r] = True
            sx.lower[k + r] = sx.upper[k + r] = 0.0
    return [program.row_labels[i] for i in np.flatnonzero(active)]


@pytest.fixture(scope="module")
def water_cut_witness(economy_incidence):
    """horizon -> (program, reference witness) of the water-cut program."""
    cache = {}

    def witness(horizon):
        if horizon not in cache:
            program = hfnmcf.build_full(water_cut(economy_incidence, horizon))
            cache[horizon] = program, irreducible_rows_by_restore(program)
        return cache[horizon]
    return witness


@pytest.mark.parametrize("horizon", [8, 20])
@pytest.mark.parametrize("refactor_every", [1, 3, 50])
def test_elastic_filter_matches_the_restore_reference(water_cut_witness, horizon,
                                                       refactor_every):
    # The reference runs once per horizon, at the default
    # lp_refactor_every: at K=20 it takes 14,000 pivots, which at 1 or 3
    # would take minutes.  Its witness is the same list at 1, 3 and 50
    # wherever that was run (K=8; K=20 at 3 and 50).
    program, expected = water_cut_witness(horizon)
    tol = DEFAULT_TOLERANCES.replace(lp_refactor_every=refactor_every)
    assert len(expected) == {8: 84, 20: 204}[horizon]
    assert list(irreducible_infeasible_rows(program, tol)) == expected


def test_water_cut_diagnosis_pivots(water_cut_problem, monkeypatch):
    # The restore filter takes 1,922 pivots here: each trial that turns
    # feasible drains the artificial load again.  The elastic filter
    # goes on from where the last trial ended.
    pivots = []
    iterate = kernels.simplex_iterate

    def counted(*args):
        result = iterate(*args)
        pivots.append(result[1])
        return result
    monkeypatch.setattr(kernels, "simplex_iterate", counted)
    witness = irreducible_infeasible_rows(hfnmcf.build_full(water_cut_problem))
    assert len(witness) == 84
    assert sum(pivots) <= 400


def crash_by_arrays(a, free, has_slack):
    """The crash by numpy operations on each column: the reference for
    lp._crash."""
    owner = np.full(a.shape[0], -1, dtype=np.int64)
    touched = np.zeros(a.shape[0], dtype=bool)
    for j in np.flatnonzero(free):
        rows, vals = a.column(j)
        pick = ~touched[rows]
        if not pick.any():
            continue
        if (pick & ~has_slack[rows]).any():
            pick &= ~has_slack[rows]
        owner[rows[pick][np.argmax(np.abs(vals[pick]))]] = j
        touched[rows] = True
    return owner


def crash_inverse_by_lu(program):
    """Crash owners and the unsigned crash basis inverse by a dense LU of
    the crash block: the reference for the inverse lp._start substitutes.

    In row blocks (covered R, uncovered S) the basis is
    [[F_R, 0], [F_S, I]], so its inverse is [[F_R^-1, 0], [-F_S F_R^-1, I]].
    """
    m = program.n_rows
    structural = kernels.SparseColumns.from_dense(program.rows)
    free = np.isinf(program.lower) & np.isinf(program.upper)
    owner = crash_by_arrays(structural, free, np.array(program.senses) != lp.EQUAL)
    covered = owner >= 0
    owned, uncovered = np.flatnonzero(covered), np.flatnonzero(~covered)
    f = program.rows[:, owner[owned]]
    f_r_inv = np.linalg.inv(f[owned]) if owned.size else np.zeros((0, 0))
    binv = np.zeros((m, m))
    binv[np.ix_(owned, owned)] = f_r_inv
    binv[np.ix_(uncovered, owned)] = -f[uncovered] @ f_r_inv
    binv[uncovered, uncovered] = 1.0
    return owner, binv


@pytest.mark.parametrize("horizon", [None, 2, 8, 40], ids=["water-cut", "K2", "K8", "K40"])
def test_crash_and_its_inverse_match_the_lu_reference(economy_incidence, water_cut_problem,
                                                      horizon):
    # the water-cut program's durations, with water left as it is
    durations = np.random.default_rng(8).integers(1, 3, size=6)
    problem = water_cut_problem if horizon is None else time_expanded(
        economy_incidence, durations, horizon)
    program = hfnmcf.build_full(problem)
    owner, expected = crash_inverse_by_lu(program)
    structural = kernels.SparseColumns.from_dense(program.rows)
    free = np.isinf(program.lower) & np.isinf(program.upper)
    assert np.array_equal(lp._crash(structural, free, np.array(program.senses) != lp.EQUAL),
                          owner)
    sx = lp._start(program)
    assert np.array_equal(sx.basis[owner >= 0], owner[owner >= 0])
    # _start signs the rows of the artificials' inverse by their columns.
    artificial = (sx.basis >= sx.artificial.start) & (sx.basis < sx.artificial.stop)
    sign = np.where(artificial, sx.a.data[sx.a.indptr[sx.basis]], 1.0)
    np.testing.assert_allclose(sx.binv * sign[:, None], expected, rtol=1e-12, atol=0)


def test_time_expanded_solve_inverts_no_dense_matrix(economy_incidence, monkeypatch):
    # The presolve leaves 11 rows, which start on artificials (a unit
    # basis), and 14 pivots stay below one refactorization, so no dense
    # inverse runs.
    program = hfnmcf.build_full(time_expanded(economy_incidence, np.ones(6, dtype=int), 40))

    def refuse(matrix):
        raise AssertionError(f"dense inverse of a {matrix.shape} matrix")
    monkeypatch.setattr(np.linalg, "inv", refuse)
    result = solve_lp(program)
    assert result.status is LpStatus.OPTIMAL
    assert result.iterations == 14
    assert result.objective == pytest.approx(ECONOMY_Z, rel=1e-9)


def test_the_eta_count_runs_on_from_phase_1_into_phase_2(economy_instance, monkeypatch):
    # 4 phase-1 pivots and 2 phase-2 pivots make 6 eta updates, so at
    # lp_refactor_every=5 the basis is inverted once after the crash,
    # although neither phase alone reaches 5.
    from heconet import rcot
    inverses, iterations = [], []
    inverse, iterate = kernels.basis_inverse, kernels.simplex_iterate

    def counted_inverse(a, basis):
        inverses.append(len(basis))
        return inverse(a, basis)

    def counted_iterate(*args):
        result = iterate(*args)
        iterations.append(result[1])
        return result
    monkeypatch.setattr(kernels, "basis_inverse", counted_inverse)
    monkeypatch.setattr(kernels, "simplex_iterate", counted_iterate)
    tol = DEFAULT_TOLERANCES.replace(lp_refactor_every=5)
    result = solve_lp(rcot.build_rcot_lp(economy_instance), tol)
    assert result.status is LpStatus.OPTIMAL
    assert iterations == [4, 2]
    assert len(inverses) == 2
    assert result.objective == pytest.approx(ECONOMY_Z, rel=1e-9)


def test_the_solve_path_reads_no_dense_rows(economy_incidence, economy_instance,
                                           water_cut_problem, monkeypatch):
    from heconet import rcot

    def refuse(program):
        raise AssertionError("dense rows read on the solve path")
    monkeypatch.setattr(LinearProgram, "rows", property(refuse))
    z = rcot.solve_rcot(economy_instance).z
    sol = hfnmcf.solve_full(time_expanded(economy_incidence, np.ones(6, dtype=int), 40))
    assert sol.lp_result.iterations == 14
    assert sol.objective == pytest.approx(z, abs=1e-9)
    cut = hfnmcf.solve_full(water_cut_problem)
    assert cut.status is LpStatus.INFEASIBLE
    assert len(cut.infeasible_rows) == 84
    red = hfnmcf.build_static(economy_incidence, ECONOMY_Y, ECONOMY_F, ECONOMY_PI)
    assert hfnmcf.solve_static(red).z == pytest.approx(z, abs=1e-9)
    assert feasible(economy_lp())


@pytest.mark.parametrize("durations", [(1, 1, 1, 1, 1, 1), (1, 2, 1, 2, 1, 2)],
                         ids=["unit", "alternating"])
def test_pivots_do_not_grow_with_the_horizon(economy_incidence, durations):
    # K=160 has four times the rows of K=40 and the same optimum, the
    # static one; it must not take more pivots either.
    pivots = []
    for horizon in (40, 160):
        result = solve_lp(hfnmcf.build_full(time_expanded(economy_incidence, durations,
                                                          horizon)))
        assert result.status is LpStatus.OPTIMAL
        assert result.objective == pytest.approx(ECONOMY_Z, abs=1e-9)
        pivots.append(result.iterations)
    assert pivots[0] == pivots[1]


def build_and_solve_peak(economy_incidence, horizon) -> float:
    """Peak traced memory of building and solving the unit-duration
    horizon construction, whose solve must take 14 pivots to the static
    optimum."""
    problem = time_expanded(economy_incidence, np.ones(6, dtype=int), horizon)
    tracemalloc.start()
    try:
        result = solve_lp(hfnmcf.build_full(problem))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.iterations == 14
    assert result.objective == pytest.approx(ECONOMY_Z, rel=1e-9)
    return peak


def test_build_and_solve_memory_at_k160(economy_incidence):
    # The presolve leaves 11 rows, so no 2,737 x 2,737 inverse (60 MB)
    # is built: the peak is the program and its reductions, 2.8 MB.
    assert build_and_solve_peak(economy_incidence, 160) <= 4e6


def test_build_and_solve_memory_at_k640(economy_incidence):
    # As at K=160, with no 10,897 x 10,897 inverse (950 MB): 10.9 MB.
    assert build_and_solve_peak(economy_incidence, 640) <= 300e6


def test_start_memory_at_k160(economy_incidence):
    # The m x m inverse (60 MB here) and little else: the dense block
    # algebra it replaces peaked at about 151 MB.
    program = hfnmcf.build_full(time_expanded(economy_incidence, np.ones(6, dtype=int), 160))
    tracemalloc.start()
    try:
        lp._start(program)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert program.n_rows == 2737
    assert peak <= 100e6


def two_sector_lp(y=(10.0, 10.0)) -> LinearProgram:
    """Sector 0 has technologies t0 and t1, sector 1 has t2, and one
    factor row is slack.  t0 is the cheapest, but its net output is
    -0.2 per unit, so no square with it is productive."""
    rows = [[-0.2, 0.9, -0.3], [-0.1, -0.2, 0.9], [1.0, 2.0, 1.0]]
    return LinearProgram(cost=[0.5, 1.0, 1.0], rows=rows,
                         senses=(lp.GREATER_EQUAL,) * 2 + (lp.LESS_EQUAL,), rhs=[*y, 1000.0])


def test_a_productive_start_is_taken_without_artificials():
    sx = lp._start(two_sector_lp(), [1, 2, -1])
    assert sx.basis[:2].tolist() == [1, 2]
    assert sx.artificial.start == sx.artificial.stop
    x = np.linalg.solve([[0.9, -0.3], [-0.2, 0.9]], [10.0, 10.0])
    assert np.allclose(sx.w[[1, 2]], x, rtol=1e-12)
    with pytest.raises(ValueError, match="start must hold"):
        lp._start(two_sector_lp(), [1, 3, -1])
    with pytest.raises(ValueError, match="start must hold"):
        solve_lp(two_sector_lp(), start=[1, 2])


@pytest.mark.parametrize("start, y", [([1, 1, -1], (10.0, 10.0)),
                                      ([0, 2, -1], (10.0, 10.0)),
                                      ([1, 2, -1], (10.0, -5.0))],
                         ids=["repeated-column", "not-productive", "negative-demand"])
def test_an_unusable_start_falls_back_to_the_crash(start, y):
    program = two_sector_lp(y)
    crashed, sx = lp._start(program), lp._start(program, start)
    for field in ("basis", "binv", "w", "c1"):
        assert np.array_equal(getattr(sx, field), getattr(crashed, field)), field
    result, reference = solve_lp(program, start=start), solve_lp(program)
    assert result.status is LpStatus.OPTIMAL
    assert result.objective == pytest.approx(reference.objective, rel=1e-9)
    assert np.allclose(result.x, reference.x, atol=1e-9)
    assert certify(program, result).passed


def test_a_repeated_column_is_refused_before_inversion():
    # This basis repeats column 4, so it is exactly singular.  The check
    # on repeated columns refuses it before any inversion, and
    # kernels.basis_inverse would refuse it too, by its bump's
    # conditioning.
    rows = np.vstack([ECONOMY_M_PLUS[:3] - ECONOMY_M_MINUS[:3], ECONOMY_M_MINUS[3:]])
    program = LinearProgram(cost=ECONOMY_PI @ ECONOMY_M_MINUS[3:], rows=rows,
                            senses=(lp.GREATER_EQUAL,) * 3 + (lp.LESS_EQUAL,) * 2,
                            rhs=np.concatenate([ECONOMY_Y, ECONOMY_F]), lower=np.full(6, -np.inf))
    crashed, sx = lp._start(program), lp._start(program, [0, 4, 4, -1, -1])
    for field in ("basis", "binv", "w", "c1"):
        assert np.array_equal(getattr(sx, field), getattr(crashed, field)), field


def test_a_factor_row_the_start_overdraws_keeps_its_artificial():
    # The cheapest technologies of the reference economy need 355.2 of
    # the 342 units of water: the start is kept, and only the water row
    # starts on an artificial, so phase 1 runs on that row alone.
    from heconet import rcot
    program = economy_lp()
    start = rcot.leontief_start(ECONOMY_M_PLUS[:3] - ECONOMY_M_MINUS[:3], program.cost,
                               program.n_rows)
    assert start.tolist() == [0, 2, 4, -1, -1]
    sx = lp._start(program, start)
    assert sx.basis[:3].tolist() == [0, 2, 4]
    assert sx.artificial.stop - sx.artificial.start == 1
    assert sx.a.column(sx.artificial.start)[0].tolist() == [4]
    assert sx.w[sx.artificial.start] == pytest.approx(355.1700256416402 - ECONOMY_F[1], rel=1e-9)
    result = solve_lp(program, start=start)
    assert result.objective == pytest.approx(ECONOMY_Z, rel=1e-9)
    assert np.allclose(result.x, ECONOMY_X, atol=1e-9)
    assert certify(program, result).passed


def test_duals_flip_with_row_sign():
    # multiplying a >= row by -1 yields a <= row with mirrored dual
    base = LinearProgram(cost=[1.0, 2.0], rows=[[1.0, 1.0]],
                         senses=(lp.GREATER_EQUAL,), rhs=[3.0])
    flipped = LinearProgram(cost=[1.0, 2.0], rows=[[-1.0, -1.0]],
                            senses=(lp.LESS_EQUAL,), rhs=[-3.0])
    rb = solve_lp(base)
    rf = solve_lp(flipped)
    assert rb.objective == pytest.approx(rf.objective, abs=1e-10)
    assert rb.duals[0] == pytest.approx(-rf.duals[0], abs=1e-10)


def test_degenerate_zero_size():
    program = LinearProgram(cost=np.zeros(0), rows=np.zeros((0, 0)),
                            senses=(), rhs=np.zeros(0))
    result = solve_lp(program)
    assert result.status is LpStatus.OPTIMAL
    assert result.objective == 0.0


def test_rows_without_columns():
    # 0 >= 1 fails on its own, 0 >= 0 holds: the m x 0 matrix keeps its
    # rows, and the ray is certified on the first row alone.
    program = LinearProgram(cost=np.zeros(0), rows=np.zeros((3, 0)),
                            senses=(lp.GREATER_EQUAL,) * 3, rhs=[1.0, 0.0, 0.0])
    assert program.n_rows == 3
    result = solve_lp(program)
    assert result.status is LpStatus.INFEASIBLE
    assert certify(program, result).passed
    assert np.flatnonzero(result.duals).tolist() == [0]
    assert list(irreducible_infeasible_rows(program)) == ["r1"]


@st.composite
def random_box_lp(draw):
    n = draw(st.integers(1, 3))
    m = draw(st.integers(1, 4))
    seed = draw(st.integers(0, 2 ** 31 - 1))
    rng = np.random.default_rng(seed)
    rows = np.round(rng.normal(size=(m, n)), 3)
    rhs = np.round(rng.normal(size=m) * 2, 3)
    senses = tuple(rng.choice([lp.LESS_EQUAL, lp.GREATER_EQUAL]) for _ in range(m))
    cost = np.round(rng.normal(size=n) * 3, 3)
    upper = np.round(rng.uniform(0.5, 4.0, size=n), 3)
    return LinearProgram(cost=cost, rows=rows, senses=senses, rhs=rhs,
                         lower=np.zeros(n), upper=upper)


@given(random_box_lp())
@settings(max_examples=60, deadline=None)
def test_optimal_results_always_certify(program):
    # Infeasible results carry a Farkas ray that must certify too.
    result = solve_lp(program)
    assert result.status in (LpStatus.OPTIMAL, LpStatus.INFEASIBLE)
    assert certify(program, result).passed
    if result.status is LpStatus.OPTIMAL:
        assert np.all(result.x >= program.lower - 1e-9)
        assert np.all(result.x <= program.upper + 1e-9)
