"""Hot numeric loops, in plain numpy.

The trajectory roll is one cumulative sum over the schedule, and the
simplex kernel works on sparse columns with numpy array operations.
"""

import numpy as np

# The kernels are never compiled; the benchmark's environment stamp
# records this flag.
USING_NUMBA = False

# Simplex iteration outcomes.
OPTIMAL = 0
UNBOUNDED = 1
ITERATION_LIMIT = 2

# Consecutive degenerate pivots after which pricing falls back from
# Dantzig's rule to Bland's, which cannot cycle; one non-degenerate
# pivot switches back.
_DEGENERATE_RUN = 25


class SparseColumns:
    """A constraint matrix held by columns in plain numpy index arrays.

    Entry ``k`` is ``data[k]`` at row ``indices[k]`` of column ``cols[k]``;
    entries are sorted by column, and column ``j`` occupies
    ``indptr[j]:indptr[j + 1]``.  Keeping ``cols`` next to ``indices``
    turns both matrix-vector products into one ``bincount`` each.
    """

    def __init__(self, shape, cols, indices, data):
        self.shape = (int(shape[0]), int(shape[1]))
        self.cols = np.asarray(cols, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int64)
        self.data = np.asarray(data, dtype=float)
        counts = np.bincount(self.cols, minlength=self.shape[1])
        self.indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)

    @classmethod
    def from_dense(cls, dense):
        """The nonzeros of a dense 2-d array."""
        flat = np.flatnonzero(dense != 0)
        rows, cols = np.divmod(flat, dense.shape[1])
        order = np.argsort(cols, kind="stable")
        return cls(dense.shape, cols[order], rows[order], dense.ravel()[flat[order]])

    @property
    def nbytes(self) -> int:
        return (self.cols.nbytes + self.indices.nbytes + self.data.nbytes
                + self.indptr.nbytes)

    def with_units(self, rows, signs):
        """This matrix with the columns ``signs[i] * e_{rows[i]}`` appended,
        and the indices of those columns."""
        m, k = self.shape
        cols = k + np.arange(len(rows))
        return SparseColumns((m, k + cols.size), np.concatenate([self.cols, cols]),
                             np.concatenate([self.indices, rows]),
                             np.concatenate([self.data, signs])), cols

    def column(self, j):
        """Rows and values of the nonzeros of column ``j``."""
        lo, hi = self.indptr[j], self.indptr[j + 1]
        return self.indices[lo:hi], self.data[lo:hi]

    def matvec(self, x):
        return np.bincount(self.indices, weights=self.data * x[self.cols],
                           minlength=self.shape[0])

    def rmatvec(self, y):
        return np.bincount(self.cols, weights=self.data * y[self.indices],
                           minlength=self.shape[1])


def basis_inverse(a, basis):
    """The explicit inverse of the basis ``a[:, basis]``; its row ``p``
    belongs to basis position ``p``.

    The pivots are preassigned (Hellerman & Rarick, "Reinversion with
    the preassigned pivot procedure", Math. Prog. 1971): row singletons
    are peeled first, then column singletons of what is left.  In that
    order the basis is block lower triangular around the remaining
    "bump", so the rows of the inverse are substituted forward through
    the row singletons, taken from a dense inverse of the bump alone,
    and substituted backward through the column singletons.  Raises
    ``np.linalg.LinAlgError`` when a row or column is left empty (the
    basis is structurally singular), when ``np.linalg.inv`` meets an
    exactly zero pivot of the bump, and when max|bump| max|bump^-1| eps
    >= 1 with eps the machine epsilon: that product is a lower bound on
    cond(bump), so the bump is singular to working precision.  A tiny
    pivot among the peeled singletons is not checked.
    """
    m = len(basis)
    # The entries of the basis columns, in basis order.
    starts, counts = a.indptr[basis], a.indptr[basis + 1] - a.indptr[basis]
    ends = np.cumsum(counts)
    take = np.repeat(starts - ends + counts, counts) + np.arange(counts.sum())
    rows, data = a.indices[take].tolist(), a.data[take].tolist()
    bounds = [0, *ends.tolist()]
    col_rows = [rows[bounds[p]:bounds[p + 1]] for p in range(m)]
    row_cols, row_vals = [[] for _ in range(m)], [[] for _ in range(m)]
    for p in range(m):
        for k in range(bounds[p], bounds[p + 1]):
            row_cols[rows[k]].append(p)
            row_vals[rows[k]].append(data[k])
    # Per side (rows, then columns): the lines crossing each line, how
    # many of them are left, and which lines are pivoted.
    crossing = (row_cols, col_rows)
    left = ([len(c) for c in row_cols], [len(r) for r in col_rows])
    done = ([False] * m, [False] * m)

    def peel(side):
        # Pivot on each line with one crossing line left, which then
        # leaves the lines it crosses; returns the (row, column) pivots.
        other = 1 - side
        empty = [i for i in range(m) if left[side][i] == 0 and not done[side][i]]
        stack = [i for i in range(m) if left[side][i] == 1 and not done[side][i]]
        pivots = []
        while stack and not empty:
            i = stack.pop()
            j = next(j for j in crossing[side][i] if not done[other][j])
            pivots.append((j, i) if side else (i, j))
            done[side][i] = done[other][j] = True
            for k in crossing[side][i]:
                left[other][k] -= 1
            for k in crossing[other][j]:
                if not done[side][k]:
                    left[side][k] -= 1
                    if left[side][k] < 2:
                        (stack if left[side][k] else empty).append(k)
        if empty:
            raise np.linalg.LinAlgError("structurally singular basis: "
                                        f"{('row', 'column')[side]} {empty[0]} is empty")
        return pivots

    forward, backward = peel(0), peel(1)
    binv = np.zeros((m, m))

    def substitute(r, p):
        # Row r of B B^-1 = I solved for row p of the inverse; the other
        # rows it names are known, and row p itself is still zero.
        cols, vals, row = row_cols[r], row_vals[r], binv[p]
        pivot = vals[cols.index(p)]
        for q, v in zip(cols, vals):
            if q != p:
                row -= binv[q] * (v / pivot)
        row[r] += 1.0 / pivot

    for r, p in forward:
        substitute(r, p)
    bump_rows = [r for r in range(m) if not done[0][r]]
    if bump_rows:
        # Bump rows meet only bump columns and row-singleton columns, and
        # the rows of the inverse at the bump columns are still zero.
        bump_cols = [p for p in range(m) if not done[1][p]]
        block = np.zeros((len(bump_rows), m))
        for i, r in enumerate(bump_rows):
            block[i, row_cols[r]] = row_vals[r]
        rhs = -(block @ binv)
        rhs[np.arange(len(bump_rows)), bump_rows] += 1.0
        bump = block[:, bump_cols]
        bump_inv = np.linalg.inv(bump)
        if np.max(np.abs(bump)) * np.max(np.abs(bump_inv)) * np.finfo(float).eps >= 1.0:
            raise np.linalg.LinAlgError("singular bump: condition beyond 1/eps")
        binv[bump_cols] = bump_inv @ rhs
    for r, p in reversed(backward):
        substitute(r, p)
    return binv


def _recompute_basics(a, b, x, basis, binv):
    """x_B = B^-1 (b - N x_N), which makes the row residuals exact."""
    nonbasic = x.copy()
    nonbasic[basis] = 0.0
    x[basis] = binv @ (b - a.matvec(nonbasic))


def _duals(c, basis, binv):
    """y = c_B B^-1, over the rows of the priced basic columns only."""
    cb = c[basis]
    priced = np.flatnonzero(cb)
    return cb[priced] @ binv[priced]


def simplex_iterate(a, b, c, lower, upper, x, basis, binv, tol,
                    refactor_every, max_iter, etas):
    """Bounded-variable revised simplex iterations.

    min c'x  s.t.  a x = b,  lower <= x <= upper, with ``a`` a
    :class:`SparseColumns`.  It starts from the basis ``basis`` (one
    column per row position) with inverse ``binv`` and the point ``x``,
    whose nonbasic entries sit at a finite bound, or at 0 when the
    column is free.  ``x``, ``basis`` and ``binv`` are updated in place;
    on OPTIMAL the basic values are recomputed from ``binv`` so the rows
    hold to round-off.

    ``tol`` supplies ``lp_reduced_cost`` (pricing), ``lp_pivot``
    (smallest usable pivot) and ``lp_ratio_tie`` (the bound relaxation
    of the two-pass Harris ratio test).

    * Pricing: Dantzig (largest |reduced cost|) among nonbasic columns
      that can move in their improving direction; after
      ``_DEGENERATE_RUN`` degenerate pivots in a row, Bland (smallest
      index) until a pivot makes progress.  The duals y = c_B B^-1 come
      from ``binv`` on entry, after each refactorization and before
      OPTIMAL (pivoting resumes if they price a column in); a basis
      change updates them by y += d_q rho (Chvatal 1983), rho the pivot row.
    * Ratio test: pass 1 takes the smallest step that keeps every basic
      variable within its bounds relaxed by ``lp_ratio_tie``; pass 2
      picks, among the rows that block within that step, the largest
      pivot (under Bland: the smallest basic column).  An entering
      column whose own bound range is shorter flips bound instead.
    * The basis inverse gets a rank-1 eta update on the rows where the
      pivot column is nonzero, so a pivot reads one row of ``binv`` and
      its columns at the entering column's rows.  ``etas`` counts the
      updates ``binv`` holds since its last inversion, from earlier calls
      too; at ``refactor_every`` it is refactorized here and nowhere else.

    Returns (status, iterations, y, etas): y the duals last priced with
    (on OPTIMAL the fresh c_B B^-1 of the final basis), etas the count
    for the next call.  Bound flips count as iterations but add no eta.
    """
    rc_tol, pivot_tol, harris = tol.lp_reduced_cost, tol.lp_pivot, tol.lp_ratio_tie
    is_basic = np.zeros(a.shape[1], dtype=bool)
    is_basic[basis] = True
    iters = 0
    degenerate = 0
    y, fresh = _duals(c, basis, binv), True
    while True:
        d = c - a.rmatvec(y)
        eligible = ((d < -rc_tol) & (x < upper)) | ((d > rc_tol) & (x > lower))
        eligible &= ~is_basic
        candidates = np.flatnonzero(eligible)
        if candidates.size == 0:
            if not fresh:  # declare optimality on fresh duals only
                y, fresh = _duals(c, basis, binv), True
                continue
            _recompute_basics(a, b, x, basis, binv)
            return OPTIMAL, iters, y, etas
        if iters >= max_iter:
            return ITERATION_LIMIT, iters, y, etas
        bland = degenerate >= _DEGENERATE_RUN
        q = candidates[0] if bland else candidates[np.argmax(np.abs(d[candidates]))]
        sigma = 1.0 if d[q] < 0.0 else -1.0

        rows, vals = a.column(q)
        alpha = binv[:, rows] @ vals
        # Basic values move as x_B - theta * delta for a step theta >= 0.
        delta = sigma * alpha
        xb = x[basis]
        room = np.full(basis.size, np.inf)
        falling = delta > pivot_tol
        rising = delta < -pivot_tol
        room[falling] = (xb[falling] - lower[basis[falling]]) / delta[falling]
        room[rising] = (upper[basis[rising]] - xb[rising]) / -delta[rising]
        blocking = np.flatnonzero(falling | rising)
        theta_max = np.min(room[blocking] + harris / np.abs(delta[blocking]),
                           initial=np.inf)
        span = upper[q] - lower[q]
        if span <= theta_max:
            if not np.isfinite(span):
                return UNBOUNDED, iters, y, etas
            theta, leave = span, -1
        else:
            tied = blocking[room[blocking] <= theta_max]
            leave = tied[np.argmin(basis[tied])] if bland \
                else tied[np.argmax(np.abs(delta[tied]))]
            theta = max(room[leave], 0.0)

        x[basis] = xb - theta * delta
        iters += 1
        degenerate = degenerate + 1 if theta <= harris else 0
        if leave < 0:
            # Land exactly on the far bound so the column stays nonbasic there.
            x[q] = upper[q] if sigma > 0.0 else lower[q]
            continue
        x[q] += sigma * theta

        out = basis[leave]
        x[out] = lower[out] if delta[leave] > 0.0 else upper[out]
        pivot_row = binv[leave] / alpha[leave]
        touched = np.flatnonzero(alpha)
        binv[touched] -= np.outer(alpha[touched], pivot_row)
        binv[leave] = pivot_row
        # The dual update: q's reduced cost drops to zero.
        y += d[q] * pivot_row
        fresh = False
        is_basic[out] = False
        is_basic[q] = True
        basis[leave] = q
        etas += 1
        if etas >= refactor_every:
            binv[:, :] = basis_inverse(a, basis)
            _recompute_basics(a, b, x, basis, binv)
            y, fresh, etas = _duals(c, basis, binv), True, 0


def esn_trajectory(m_plus, m_minus, qb0, qe0, u_plus, u_minus, dt):
    """Roll a timed-net state forward over a firing schedule.

    qb[k+1] = qb[k] + (m_plus u_plus[k] - m_minus u_minus[k]) dt
    qe[k+1] = qe[k] + (u_minus[k] - u_plus[k]) dt

    Returns the (K+1, n_places) and (K+1, n_transitions) trajectories
    including the initial state.  Each trajectory is the cumulative sum
    of its initial state and the per-step changes, added in step order.
    """
    horizon = u_minus.shape[0]
    qb = np.empty((horizon + 1, qb0.shape[0]))
    qe = np.empty((horizon + 1, qe0.shape[0]))
    qb[0] = qb0
    qe[0] = qe0
    # einsum rather than a BLAS matrix product: on a long schedule the
    # product starts BLAS's thread pool, whose buffers raise peak memory.
    np.einsum("kt,pt->kp", u_plus, m_plus, out=qb[1:])
    qb[1:] -= np.einsum("kt,pt->kp", u_minus, m_minus)
    qb[1:] *= dt
    np.subtract(u_minus, u_plus, out=qe[1:])
    qe[1:] *= dt
    np.cumsum(qb, axis=0, out=qb)
    np.cumsum(qe, axis=0, out=qe)
    return qb, qe
