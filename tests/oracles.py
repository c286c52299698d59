"""Independent reference computations the solver tests compare against.

These deliberately avoid the package's own algorithms: the LP oracle
enumerates basic solutions geometrically, the series oracle sums the
Neumann expansion, and the radius oracle calls the dense eigenvalue
routine on each irreducible block.
"""

import itertools

import numpy as np

FEAS_TOL = 1e-9


def vertex_minimum(cost, rows, senses, rhs, lower, upper):
    """Exhaustive vertex enumeration for small LPs with finite box bounds.

    Every vertex of the feasible region is the intersection of n active
    constraints drawn from the rows and the bounds.  Returns
    (status, objective, x) with status in {"optimal", "infeasible"}.
    Only valid when all bounds are finite (the region is bounded).
    """
    cost = np.asarray(cost, dtype=float)
    n_rows = len(senses)
    rows = np.asarray(rows, dtype=float).reshape(n_rows, cost.shape[0]) \
        if n_rows else np.zeros((0, cost.shape[0]))
    rhs = np.asarray(rhs, dtype=float)
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    n = cost.shape[0]
    if not (np.all(np.isfinite(lower)) and np.all(np.isfinite(upper))):
        raise ValueError("vertex oracle needs finite bounds")

    planes = []            # (normal, offset, is_equality)
    for a, sense, b in zip(rows, senses, rhs):
        planes.append((a, b, sense == "="))
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        planes.append((e.copy(), lower[i], False))
        planes.append((e, upper[i], False))

    eq_idx = [i for i, p in enumerate(planes) if p[2]]
    free_idx = [i for i, p in enumerate(planes) if not p[2]]
    if len(eq_idx) > n:
        raise ValueError("vertex oracle supports at most n equality rows")
    combos = [tuple(eq_idx) + extra
              for extra in itertools.combinations(free_idx, n - len(eq_idx))]

    def feasible(x):
        for (a, b, _), sense in zip(planes[:len(senses)], senses):
            lhs = a @ x
            if sense == "=" and abs(lhs - b) > FEAS_TOL * (1 + abs(b)):
                return False
            if sense == ">=" and lhs < b - FEAS_TOL * (1 + abs(b)):
                return False
            if sense == "<=" and lhs > b + FEAS_TOL * (1 + abs(b)):
                return False
        if np.any(x < lower - FEAS_TOL) or np.any(x > upper + FEAS_TOL):
            return False
        return True

    best = None
    best_x = None
    for combo in combos:
        a_mat = np.array([planes[i][0] for i in combo])
        b_vec = np.array([planes[i][1] for i in combo])
        if a_mat.shape[0] != n:
            continue
        if abs(np.linalg.det(a_mat)) < 1e-12:
            continue
        x = np.linalg.solve(a_mat, b_vec)
        if not feasible(x):
            continue
        value = cost @ x
        if best is None or value < best - 1e-15:
            best = value
            best_x = x
    if best is None:
        return "infeasible", np.nan, None
    return "optimal", float(best), best_x


def neumann_output(a, y, terms: int = 400) -> np.ndarray:
    """Total output by direct series summation x = sum_k a^k y."""
    a = np.asarray(a, dtype=float)
    y = np.asarray(y, dtype=float)
    x = y.copy()
    term = y.copy()
    for _ in range(terms):
        term = a @ term
        x = x + term
    return x


def eig_radius(a) -> float:
    """Spectral radius of nonnegative ``a``: the largest over the strongly
    connected components of its graph of the dense eigenvalue radius of
    that diagonal block (0 for an empty matrix).

    The eigenvalues of the whole matrix are not used: where blocks of
    nearly equal radius are coupled they are ill-conditioned, and on
    block-triangular matrices scaled to a radius of 1 +- 1e-6 they were
    off by up to 2.4e-7, while each block on its own is well conditioned.
    """
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    reach = (a > 0) | np.eye(n, dtype=bool)
    for _ in range(n.bit_length()):
        reach = reach @ reach
    radius = 0.0
    for component in np.unique(reach & reach.T, axis=0):
        block = np.ix_(component, component)
        radius = max(radius, float(np.max(np.abs(np.linalg.eigvals(a[block])))))
    return radius
