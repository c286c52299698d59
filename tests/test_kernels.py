import numpy as np
import pytest

from heconet import kernels, lp
from heconet.config import DEFAULT_TOLERANCES

from conftest import ECONOMY_M_MINUS, ECONOMY_M_PLUS


def run_simplex(dense, b, c, lower, upper, x, basis, max_iter=1000, refactor_every=50):
    """Run the kernel from ``basis``; returns (status, iterations, x, basis,
    duals)."""
    dense = np.asarray(dense, dtype=float)
    x = np.array(x, dtype=float)
    basis = np.array(basis, dtype=np.int64)
    binv = np.linalg.inv(dense[:, basis])
    status, iters, y, _ = kernels.simplex_iterate(
        kernels.SparseColumns.from_dense(dense), np.asarray(b, dtype=float), np.asarray(c, dtype=float),
        np.asarray(lower, dtype=float), np.asarray(upper, dtype=float),
        x, basis, binv, DEFAULT_TOLERANCES, refactor_every, max_iter, 0)
    return status, iters, x, basis, y


def slack_form(rng, m=4, n=6, boxed=0, free=0):
    """[G I] w = b with the slack basis feasible: the first n - boxed -
    free columns of G are >= 0 and start at 0, the next ``boxed`` lie in
    [0, u] and start at either bound, the last ``free`` are free and
    start at 0; the slacks are >= 0."""
    g = np.round(rng.standard_normal((m, n)), 3)
    a = np.hstack([g, np.eye(m)])
    b = np.abs(np.round(rng.standard_normal(m), 3)) + 0.5
    c = np.concatenate([np.round(rng.standard_normal(n), 3), np.zeros(m)])
    lower, upper = np.zeros(n + m), np.full(n + m, np.inf)
    x = np.zeros(n + m)
    box = slice(n - boxed - free, n - free)
    upper[box] = np.round(rng.uniform(0.5, 3.0, boxed), 3)
    x[box] = np.where(rng.random(boxed) < 0.5, 0.0, upper[box])
    lower[n - free:n], upper[n - free:n] = -np.inf, np.inf
    # The slacks start at the residuals drawn above.
    x[n:] = b
    b = b + g @ x[:n]
    return a, b, c, lower, upper, x, np.arange(n, n + m)


@pytest.mark.parametrize("refactor_every", [1, 3, 50])
def test_optimal_is_declared_on_fresh_duals(refactor_every, monkeypatch):
    # The last duals the kernel computes from its inverse are those of
    # the final basis and are the duals it returns, pricing afresh from
    # that basis finds nothing to enter, and the basic values solve the
    # rows: OPTIMAL is declared on duals and values computed from an
    # inverse, not on updated ones.
    priced_bases = []
    duals = kernels._duals

    def recorded(c, basis, binv):
        priced_bases.append(basis.copy())
        return duals(c, basis, binv)
    monkeypatch.setattr(kernels, "_duals", recorded)
    rng = np.random.default_rng(refactor_every)
    rc_tol = DEFAULT_TOLERANCES.lp_reduced_cost
    optimal = 0
    for _ in range(60):
        a, b, c, lower, upper, x, basis = slack_form(rng, m=8, n=14, boxed=10, free=2)
        status, _, x, basis, y = run_simplex(a, b, c, lower, upper, x, basis,
                                             refactor_every=refactor_every)
        if status != kernels.OPTIMAL:
            continue
        optimal += 1
        assert np.array_equal(priced_bases[-1], basis)
        binv = np.linalg.inv(a[:, basis])
        np.testing.assert_allclose(y, c[basis] @ binv, rtol=0, atol=1e-12)
        d = c - (c[basis] @ binv) @ a
        nonbasic = np.ones(c.size, dtype=bool)
        nonbasic[basis] = False
        eligible = ((d < -rc_tol) & (x < upper)) | ((d > rc_tol) & (x > lower))
        assert not np.any(eligible & nonbasic)
        x_n = np.where(nonbasic, x, 0.0)
        scale = 1.0 + np.max(np.abs(x))
        np.testing.assert_allclose(x[basis], binv @ (b - a @ x_n), rtol=0, atol=1e-12 * scale)
    assert optimal >= 40


def test_simplex_solves_a_known_problem():
    # min -w0 - 2 w1 over the unit box intersected with w0 + w1 <= 1.5
    a = np.array([[1.0, 0.0, 1.0, 0.0, 0.0],
                  [0.0, 1.0, 0.0, 1.0, 0.0],
                  [1.0, 1.0, 0.0, 0.0, 1.0]])
    b = np.array([1.0, 1.0, 1.5])
    c = np.array([-1.0, -2.0, 0.0, 0.0, 0.0])
    status, _, w, *_ = run_simplex(a, b, c, np.zeros(5), np.full(5, np.inf),
                                   [0.0, 0.0, 1.0, 1.0, 1.5], [2, 3, 4])
    assert status == kernels.OPTIMAL
    assert np.allclose(w[:2], [0.5, 1.0], atol=1e-9)
    assert c @ w == pytest.approx(-2.5, abs=1e-9)


def test_simplex_detects_unboundedness():
    # w0 - w1 = 0 with cost -w0: both can grow together
    status, *_ = run_simplex([[1.0, -1.0]], [0.0], [-1.0, 0.0], [0.0, 0.0],
                            [np.inf, np.inf], [0.0, 0.0], [1], max_iter=100)
    assert status == kernels.UNBOUNDED


def test_simplex_iteration_limit():
    a, b, c, lower, upper, x, basis = slack_form(np.random.default_rng(7))
    status, iters, *_ = run_simplex(a, b, c - 10.0, lower, upper, x, basis, max_iter=0)
    assert status == kernels.ITERATION_LIMIT
    assert iters == 0


def test_simplex_immediate_optimum_when_costs_nonnegative():
    a, b, c, lower, upper, x, basis = slack_form(np.random.default_rng(11))
    status, iters, *_ = run_simplex(a, b, np.abs(c), lower, upper, x, basis, max_iter=100)
    assert status == kernels.OPTIMAL
    assert iters == 0


def test_simplex_bound_flip_keeps_the_basis():
    # min w0 s.t. w0 + s = 10, 1.57 <= w0 <= 4.25, from w0 at its upper
    # bound: nothing blocks the decrease, so w0 flips to its lower bound
    # and s stays basic.  4.25 - (4.25 - 1.57) is not 1.57 in floating
    # point, so the flip must land on the bound itself.
    status, iters, w, basis, _ = run_simplex([[1.0, 1.0]], [10.0], [1.0, 0.0], [1.57, 0.0],
                                             [4.25, np.inf], [4.25, 5.75], [1])
    assert status == kernels.OPTIMAL
    assert iters == 1
    assert list(basis) == [1]
    assert w[0] == 1.57
    assert w[1] == pytest.approx(8.43, abs=1e-12)


def test_simplex_free_column_enters_downwards():
    # min w0 (free, nonbasic at 0) s.t. w0 - s = -3, s >= 0: w0 decreases
    # until s hits zero, then stays basic at -3.
    status, iters, w, basis, _ = run_simplex([[1.0, -1.0]], [-3.0], [1.0, 0.0],
                                             [-np.inf, 0.0], [np.inf, np.inf], [0.0, 3.0], [1])
    assert status == kernels.OPTIMAL
    assert iters == 1
    assert list(basis) == [0]
    assert w[0] == pytest.approx(-3.0, abs=1e-12)
    assert w[1] == 0.0


def planted_basis(rng, n_row, n_bump, n_col, extra=4):
    """(a, basis, dense): a random sparse nonsingular basis, hidden among
    ``extra`` other columns under random row and column permutations.

    Permuted back it is block lower triangular, [[L, 0, 0], [X, D, 0],
    [Y, Z, U]]: ``n_row`` rows of a lower triangle L that peel as row
    singletons, a dense ``n_bump`` x ``n_bump`` bump D, and an upper
    triangle U whose ``n_col`` columns peel as column singletons.
    """
    def sparse(shape):
        return rng.normal(size=shape) * (rng.random(shape) < 0.3)

    m = n_row + n_bump + n_col
    b = np.tril(sparse((m, m)), -1)
    tail = slice(n_row + n_bump, m)
    b[tail, tail] = np.triu(sparse((n_col, n_col)), 1)
    b[np.arange(m), np.arange(m)] = rng.uniform(0.5, 2.0, m) * rng.choice([-1.0, 1.0], m)
    bump = slice(n_row, n_row + n_bump)
    b[bump, bump] = rng.normal(size=(n_bump, n_bump)) + 3.0 * np.eye(n_bump)
    b = b[rng.permutation(m)][:, rng.permutation(m)]
    dense = np.hstack([b, sparse((m, extra))])
    order = rng.permutation(m + extra)
    dense = dense[:, order]
    return kernels.SparseColumns.from_dense(dense), np.argsort(order)[:m], dense


@pytest.mark.parametrize("seed", range(40))
def test_basis_inverse_matches_the_dense_inverse(seed, monkeypatch):
    rng = np.random.default_rng(seed)
    n_row, n_bump, n_col = rng.integers(0, 12, size=3)
    a, basis, dense = planted_basis(rng, n_row, n_bump, n_col)
    expected = np.linalg.inv(dense[:, basis])
    dense_inverse = np.linalg.inv
    sizes = []

    def recorded(matrix):
        sizes.append(matrix.shape[0])
        return dense_inverse(matrix)
    monkeypatch.setattr(np.linalg, "inv", recorded)
    binv = kernels.basis_inverse(a, basis)
    # Only the bump, or less of it when it peels further, is inverted.
    assert max(sizes, default=0) <= n_bump
    scale = 1.0 + np.max(np.abs(expected), initial=0.0)
    np.testing.assert_allclose(binv, expected, rtol=0, atol=1e-10 * scale)


def test_basis_inverse_of_an_empty_basis():
    a = kernels.SparseColumns.from_dense(np.zeros((0, 3)))
    assert kernels.basis_inverse(a, np.zeros(0, dtype=np.int64)).shape == (0, 0)


@pytest.mark.parametrize("dense, basis, message", [
    ([[1.0, 2.0, 0.0], [0.0, 0.0, 0.0], [0.0, 1.0, 3.0]], [0, 1, 2], "row 1 is empty"),
    # rows 0 and 2 meet only column 0
    ([[1.0, 0.0, 2.0], [0.0, 1.0, 0.0], [4.0, 0.0, 0.0]], [0, 1, 1], "row [02] is empty"),
    ([[1.0, 2.0, 0.0], [3.0, 4.0, 0.0], [5.0, 6.0, 0.0]], [0, 1, 2], "column 2 is empty"),
    # the rows of the 3 x 3 bump are r, s and r + s
    ([[1.0, 2.0, 3.0, 0.0], [2.0, 1.0, 1.0, 0.0], [3.0, 3.0, 4.0, 0.0],
      [1.0, 0.0, 0.0, 1.0]], [0, 1, 2, 3], "Singular matrix"),
], ids=["empty-row", "repeated-column", "empty-column", "singular-bump"])
def test_basis_inverse_rejects_a_singular_basis(dense, basis, message):
    a = kernels.SparseColumns.from_dense(np.array(dense))
    with pytest.raises(np.linalg.LinAlgError, match=message):
        kernels.basis_inverse(a, np.array(basis))


def test_basis_inverse_rejects_a_bump_singular_to_working_precision():
    # The reference rcot columns and the two factor slacks: the basis
    # repeats column 4, and rounding leaves the bump's LU a tiny pivot
    # rather than a zero one, so only its conditioning shows it singular.
    rows = np.vstack([ECONOMY_M_PLUS[:3] - ECONOMY_M_MINUS[:3], ECONOMY_M_MINUS[3:]])
    a, slacks = kernels.SparseColumns.from_dense(rows).with_units(np.array([3, 4]),
                                                                  np.ones(2))
    with pytest.raises(np.linalg.LinAlgError, match="singular bump"):
        kernels.basis_inverse(a, np.array([0, 4, 4, *slacks]))


def test_singular_refactorization_is_a_pivot_breakdown(monkeypatch):
    # The first inverse is the crash basis; every later one is a
    # refactorization by the kernel, here after each pivot, in a solve
    # and in the deletion filter alike.
    calls = []
    inverse = kernels.basis_inverse

    def singular_after_the_crash(a, basis):
        calls.append(len(basis))
        if len(calls) > 1:
            raise np.linalg.LinAlgError("Singular matrix")
        return inverse(a, basis)
    monkeypatch.setattr(kernels, "basis_inverse", singular_after_the_crash)
    program = lp.LinearProgram(cost=[1.0, 1.0], rows=[[1.0, 1.0], [1.0, -1.0]],
                               senses=(lp.EQUAL, lp.EQUAL), rhs=[4.0, 2.0])
    tol = DEFAULT_TOLERANCES.replace(lp_refactor_every=1)
    for run in (lp.solve_lp, lp.irreducible_infeasible_rows):
        calls.clear()
        with pytest.raises(lp.PivotBreakdownError,
                           match="singular basis during phase 1 refactorization") as caught:
            run(program, tol)
        assert len(calls) == 2
        assert len(caught.value.basis) == 2
        assert "basis columns: " in str(caught.value)


def test_trajectory_recurrence_by_hand():
    m_plus = np.array([[1.0], [0.0]])
    m_minus = np.array([[0.0], [1.0]])
    u_minus = np.array([[2.0], [4.0]])
    u_plus = np.array([[2.0], [4.0]])
    qb, qe = kernels.esn_trajectory(m_plus, m_minus, np.array([0.0, 10.0]),
                                       np.zeros(1), u_plus, u_minus, 0.5)
    assert np.allclose(qb, [[0.0, 10.0], [1.0, 9.0], [3.0, 7.0]])
    assert np.allclose(qe, [[0.0], [0.0], [0.0]])


def step_loop_trajectory(m_plus, m_minus, qb0, qe0, u_plus, u_minus, dt):
    """The recurrence one step at a time: the reference for the kernel."""
    qb, qe = [np.array(qb0)], [np.array(qe0)]
    for k in range(u_minus.shape[0]):
        qb.append(qb[-1] + dt * (m_plus @ u_plus[k] - m_minus @ u_minus[k]))
        qe.append(qe[-1] + dt * (u_minus[k] - u_plus[k]))
    return np.array(qb), np.array(qe)


@pytest.mark.parametrize("seed", range(5))
def test_trajectory_matches_step_loop(seed):
    rng = np.random.default_rng(100 + seed)
    n_p, n_t, k = 4, 3, 200
    args = (rng.random((n_p, n_t)), rng.random((n_p, n_t)),
            rng.standard_normal(n_p), rng.random(n_t),
            rng.random((k, n_t)), rng.random((k, n_t)), 0.25)
    qb, qe = kernels.esn_trajectory(*args)
    qb_ref, qe_ref = step_loop_trajectory(*args)
    # the same additions in the same order; only the matrix products
    # may round differently, by a few ulps per step
    assert np.allclose(qb, qb_ref, rtol=0, atol=1e-12 * k)
    assert np.allclose(qe, qe_ref, rtol=0, atol=1e-12 * k)
