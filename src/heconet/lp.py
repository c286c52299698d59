"""Two-phase bounded-variable revised simplex with solution certification.

An LP holds its constraint matrix by columns in sparse index arrays
(:class:`heconet.kernels.SparseColumns`) and is brought into the
computational form  A w = b,  lower <= w <= upper: each inequality row
gets one slack column, and variable bounds stay inside the simplex (free
columns are not split, boxed ones may flip bound).  Phase 1 starts from a
triangular crash basis of free columns, or from the ``start`` basis
given to :func:`solve_lp` when its basic values are within their bounds,
completed by slacks where their value is feasible and by artificials
elsewhere, and minimizes the artificials' sum; phase 2 fixes the
artificials at zero, which replaces the removal of redundant rows.
Pricing is Dantzig's rule with a fall-back to Bland's after a run of
degenerate pivots, the ratio test is a two-pass Harris test, and the
explicit basis inverse is eta-updated; only the kernel
(:func:`heconet.kernels.simplex_iterate`) inverts it afresh, on the eta
count :class:`_Simplex` carries across phases and filter trials.
Pivots update the duals (y += d_q rho); the kernel recomputes them from
the inverse on entry, after each fresh inversion and before optimality,
and returns them, so the reported duals are a fresh c_B B^-1.
The start basis and every later basis are inverted from the sparse
columns by :func:`heconet.kernels.basis_inverse`, which solves the
triangular part by substitution and inverts only the remaining bump; the
crash basis is triangular, so it has no bump.

:func:`solve_lp` runs the two phases on a presolved program (Andersen &
Andersen, "Presolving in linear programming", Math. Prog. 1995).  Three
reductions of "=" rows run once each: a singleton row fixes its column
when the value is within the column's bounds; zero-rhs doubleton rows
make each column of a spanning tree a multiple of the tree's root
column, when the root's bounds keep every column within its own; and
free, zero-cost columns with two entries, both in "=" rows, merge the
rows of each spanning tree into one.  "=" rows left empty with a zero
rhs go.  The postsolve maps the reduced answer back: x, and the duals or
the Farkas ray (each removed row takes the multiplier that leaves its
removed column a zero reduced cost, and a merged row's multiplier goes
to its rows times their weights), with the slacks from the original
rows.  A program with nothing to reduce is solved as it is.
:func:`feasible`, the deletion filter and :func:`_start` see the program
they are given.
Every optimal answer is re-checked against the KKT conditions, and every
infeasible answer against its Farkas ray, on the program given to
:func:`solve_lp`, before it is returned.

Sign conventions for a minimization problem: duals are >= 0 on ">="
rows, <= 0 on "<=" rows, free on "=" rows; slacks are reported so that
feasible rows have nonnegative slack (equality rows report their signed
residual).  An infeasible result carries a Farkas ray y in ``duals``
with the same signs per row sense, and y'rhs exceeds the largest value
of (y'rows) x over the variable bounds: every x within the bounds has
y'(rows x) <= max (y'rows) x < y'rhs, while the signs make
y'(rows x) >= y'rhs for any x that meets the rows.  The ray is the
phase-1 dual c1_B B^-1, where c1 prices the artificials at 1.
"""

from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from heconet import kernels
from heconet.checks import checked_array, checked_labels, distinct, read_only, set_fields
from heconet.config import DEFAULT_TOLERANCES, Tolerances

LESS_EQUAL = "<="
EQUAL = "="
GREATER_EQUAL = ">="
_SENSES = (LESS_EQUAL, EQUAL, GREATER_EQUAL)


class LpStatus(str, Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


class LpNumericError(RuntimeError):
    """Base class for numeric failures inside the solver."""


class PivotBreakdownError(LpNumericError):
    """A pivot fell below the breakdown threshold; carries a basis dump."""

    def __init__(self, message: str, basis=None):
        self.basis = None if basis is None else [int(v) for v in basis]
        if self.basis is not None:
            message = f"{message}; basis columns: {self.basis}"
        super().__init__(message)


class IterationLimitError(LpNumericError):
    pass


class CertificationError(LpNumericError):
    """An optimal or infeasible answer failed its own certificate."""


@dataclass(frozen=True, eq=False, init=False)
class LinearProgram:
    """min cost'x  s.t.  rows_i x (sense_i) rhs_i,  lower <= x <= upper.

    The matrix is held once, as read-only sparse columns ``matrix``: dense
    ``rows`` are converted (a signed zero is no entry), and handed-over
    ``SparseColumns`` in ``from_dense``'s order are checked, not copied.
    Reading ``rows`` builds a fresh read-only dense m x n array.
    """

    cost: np.ndarray
    matrix: kernels.SparseColumns
    senses: tuple[str, ...]
    rhs: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    var_labels: tuple[str, ...]
    row_labels: tuple[str, ...]

    def __init__(self, cost, rows, senses, rhs, lower=None, upper=None,
                 var_labels=(), row_labels=()):
        cost = checked_array(cost, "cost", (None,))
        n = cost.shape[0]
        if not isinstance(rows, kernels.SparseColumns):
            rows = kernels.SparseColumns.from_dense(
                checked_array(rows if np.size(rows) or np.ndim(rows) == 2 else np.zeros((0, n)),
                              "rows", (None, n)))
        elif rows.shape[1] != n:
            raise ValueError(f"rows must have shape (*, {n}), got {rows.shape}")
        elif not np.all(np.isfinite(rows.data) & (rows.data != 0.0)):
            raise ValueError("rows must be finite and hold no zero entries")
        elif not (rows.cols.shape == rows.indices.shape == rows.data.shape
                  and np.all((rows.indices >= 0) & (rows.indices < rows.shape[0]))
                  and rows.indptr.size == n + 1
                  and np.all(np.diff(rows.cols * rows.shape[0] + rows.indices) > 0)):
            raise ValueError(f"rows entries must lie in the {rows.shape} matrix, sorted by "
                             "column, then row, each (row, column) pair once")
        for arr in (rows.cols, rows.indices, rows.data, rows.indptr):
            read_only(arr)
        m = rows.shape[0]
        rhs = checked_array(rhs, "rhs", (m,))
        senses = tuple(senses)
        if len(senses) != m:
            raise ValueError(f"senses must have length {m}")
        for s in senses:
            if s not in _SENSES:
                raise ValueError(f"unknown sense {s!r}; expected one of {_SENSES}")
        lower = checked_array(np.zeros(n) if lower is None else lower,
                              "lower", (n,), inf_ok=True)
        upper = checked_array(np.full(n, np.inf) if upper is None else upper,
                              "upper", (n,), inf_ok=True)
        if np.any(lower == np.inf) or np.any(upper == -np.inf):
            raise ValueError("lower bounds must be < +inf and upper bounds > -inf")
        if np.any(lower > upper):
            bad = int(np.argmax(lower > upper))
            raise ValueError(f"lower bound exceeds upper bound for variable {bad}")
        set_fields(self, cost=cost, matrix=rows, senses=senses, rhs=rhs, lower=lower,
                   upper=upper, var_labels=checked_labels(var_labels, "var_labels", n, "x"),
                   # A label names one row: a witness reports rows by label.
                   row_labels=distinct(checked_labels(row_labels, "row_labels", m, "r"),
                                       "row_labels"))

    @property
    def rows(self) -> np.ndarray:
        dense = np.zeros(self.matrix.shape)
        dense[self.matrix.indices, self.matrix.cols] = self.matrix.data
        return read_only(dense)

    @cached_property
    def sense_masks(self) -> tuple:
        """Read-only boolean masks of the "=", the ">=" and the "<=" rows,
        derived from ``senses`` once."""
        senses = np.array(self.senses, dtype="<U2")
        return tuple(read_only(senses == s) for s in (EQUAL, GREATER_EQUAL, LESS_EQUAL))

    @property
    def n_vars(self) -> int:
        return self.cost.shape[0]

    @property
    def n_rows(self) -> int:
        return self.matrix.shape[0]


@dataclass
class LpResult:
    status: LpStatus
    x: np.ndarray
    objective: float
    duals: np.ndarray
    slacks: np.ndarray
    iterations: int


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    value: float
    bound: float


@dataclass(frozen=True)
class Certificate:
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list:
        return [c for c in self.checks if not c.passed]


@dataclass
class _Simplex:
    """Computational form  A w = b,  lower <= w <= upper  of an LP, and
    the one record of its simplex state.

    The columns of ``a`` are the structural variables, then unit columns
    (:meth:`append_units`): one slack per inequality row (bounds [0, inf)
    on "<=" rows, (-inf, 0] on ">=" rows), the artificials of the crash
    basis in the column range ``artificial``, and the deletion filter's
    two elastic columns per row.  ``c1`` is the phase-1 cost, 1 on the
    priced columns (the artificials) and 0 elsewhere.  The kernel updates
    ``w``, ``basis``, ``binv`` and ``etas``, the count of eta updates
    since ``binv`` was last inverted, across phases and filter trials.
    """

    a: kernels.SparseColumns
    b: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    artificial: slice
    c1: np.ndarray
    w: np.ndarray
    basis: np.ndarray
    binv: np.ndarray
    etas: int = 0

    def append_units(self, rows, signs, lower, upper, price) -> np.ndarray:
        """Append the columns ``signs[i] * e_{rows[i]}`` within [lower, upper]
        (scalars or one entry per column), at value 0 and with phase-1 price
        ``price``; returns their indices."""
        self.a, cols = self.a.with_units(rows, signs)
        self.lower, self.upper, self.w, self.c1 = (
            np.concatenate([old, new + np.zeros(cols.size)]) for old, new in
            ((self.lower, lower), (self.upper, upper), (self.w, 0.0), (self.c1, price)))
        return cols


def _crash(a: kernels.SparseColumns, free: np.ndarray, has_slack: np.ndarray) -> np.ndarray:
    """Row owners of a triangular crash basis built from free columns.

    Free columns are taken in index order; each one pivots on a row that
    no earlier accepted column touches, preferring rows without a slack
    and then the largest entry.  Ordered this way the accepted columns
    form a triangular block with a nonzero diagonal, and unit columns on
    the remaining rows complete it to a nonsingular basis (Bixby,
    "Implementing the simplex method: the initial basis", ORSA J.
    Computing 1992).  Returns the owning column of each row, or -1.
    """
    indptr, indices, data = a.indptr.tolist(), a.indices.tolist(), a.data.tolist()
    slackless = (~has_slack).tolist()
    owner = [-1] * a.shape[0]
    touched = [False] * a.shape[0]
    for j in np.flatnonzero(free).tolist():
        entries = range(indptr[j], indptr[j + 1])
        # The first entry of the largest |value| on the most preferred
        # untouched rows.
        best = max((k for k in entries if not touched[indices[k]]), default=-1,
                   key=lambda k: (slackless[indices[k]], abs(data[k])))
        if best >= 0:
            owner[indices[best]] = j
            for k in entries:
                touched[indices[k]] = True
    return np.array(owner, dtype=np.int64)


def _start(lp: LinearProgram, start=None) -> _Simplex:
    """Computational form of ``lp`` with its start basis.

    Nonbasic structural columns sit at their lower bound, else at their
    upper bound, else (free) at 0.  The basic structural columns are
    ``start`` when it is given: one structural column or -1 per row,
    the shape :func:`_crash` returns.  The crash columns are taken
    instead when there is no start, when the start's basis is singular
    (it repeats a column, or :func:`heconet.kernels.basis_inverse`
    raises) and when it puts a basic value outside its column's bounds
    (compared exactly, with no tolerance); free crash columns are
    feasible at any value.  A nearly singular start is not detected
    here: the caller vouches for its conditioning, as
    :func:`heconet.rcot.leontief_start` does with the Hawkins-Simon
    pivots.  A row the basis leaves uncovered takes its slack when the
    slack's value is within its bounds, and an artificial, signed to
    start >= 0, otherwise.  The basis (the basic structural columns and
    unit columns on the uncovered rows) is inverted from its sparse
    columns; the crash basis is triangular.
    """
    n, structural = lp.n_vars, lp.matrix
    equal, ge, le = lp.sense_masks
    has_slack = ~equal
    w = np.where(np.isfinite(lp.lower), lp.lower,
                 np.where(np.isfinite(lp.upper), lp.upper, 0.0))

    def inverted(owner):
        # The basis with unit columns on the uncovered rows, its inverse
        # and its basic values: on the uncovered rows, the row residuals
        # left by the other columns.
        uncovered = np.flatnonzero(owner < 0)
        a, units = structural.with_units(uncovered, np.ones(uncovered.size))
        basis = owner.copy()
        basis[uncovered] = units
        binv = kernels.basis_inverse(a, basis)
        nonbasic = w.copy()
        nonbasic[owner[owner >= 0]] = 0.0
        return basis, binv, binv @ (lp.rhs - structural.matvec(nonbasic))

    if start is not None:
        owner = np.array(start, dtype=np.int64)
        if owner.shape != (lp.n_rows,) or np.any((owner < -1) | (owner >= n)):
            raise ValueError(f"start must hold one column in -1..{n - 1} per row")
        cols = owner[owner >= 0]
        usable = np.unique(cols).size == cols.size     # a repeated column is singular
        if usable:
            try:
                basis, binv, basic = inverted(owner)
            except np.linalg.LinAlgError:
                usable = False
            else:
                values = basic[owner >= 0]
                usable = np.all((lp.lower[cols] <= values) & (values <= lp.upper[cols]))
        if not usable:
            start = None
    if start is None:
        owner = _crash(structural, np.isinf(lp.lower) & np.isinf(lp.upper), has_slack)
        basis, binv, basic = inverted(owner)
    covered = owner >= 0
    uncovered = np.flatnonzero(~covered)
    w[owner[covered]] = basic[covered]

    residual = basic[uncovered]
    slack_ok = (le[uncovered] & (residual >= 0.0)) | (ge[uncovered] & (residual <= 0.0))
    art_rows = uncovered[~slack_ok]
    art_sign = np.where(residual[~slack_ok] < 0.0, -1.0, 1.0)
    negative = art_rows[art_sign < 0.0]
    binv[negative] = -binv[negative]

    sx = _Simplex(a=structural, b=lp.rhs, lower=lp.lower, upper=lp.upper,
                  artificial=slice(0), c1=np.zeros(n), w=w, basis=basis, binv=binv)
    slack_rows = np.flatnonzero(has_slack)
    below = le[slack_rows]
    slack_cols = sx.append_units(slack_rows, np.ones(slack_rows.size),
                                 np.where(below, 0.0, -np.inf), np.where(below, np.inf, 0.0), 0.0)
    art_cols = sx.append_units(art_rows, art_sign, 0.0, np.inf, 1.0)
    sx.artificial = slice(n + slack_rows.size, sx.a.shape[1])
    by_slack = uncovered[slack_ok]
    basis[by_slack] = slack_cols[np.searchsorted(slack_rows, by_slack)]
    basis[art_rows] = art_cols
    sx.w[basis[by_slack]] = residual[slack_ok]
    sx.w[art_cols] = np.abs(residual[~slack_ok])
    return sx


def _run_kernel(sx: _Simplex, c, tol: Tolerances, phase: str):
    try:
        status, iters, y, sx.etas = kernels.simplex_iterate(
            sx.a, sx.b, c, sx.lower, sx.upper, sx.w, sx.basis, sx.binv, tol,
            tol.lp_refactor_every, tol.lp_max_iter, sx.etas)
    except np.linalg.LinAlgError as exc:
        raise PivotBreakdownError(
            f"singular basis during {phase} refactorization: {exc}", sx.basis) from exc
    if status == kernels.ITERATION_LIMIT:
        raise IterationLimitError(
            f"simplex exceeded {tol.lp_max_iter} iterations in {phase}")
    return status, iters, y


def _phase1(sx: _Simplex, tol: Tolerances):
    """Minimize the priced columns' sum c1'w from the current basis of ``sx``.

    Returns (iterations, infeasible, ray).  The LP is infeasible when the
    priced columns cannot reach zero, and the phase-1 duals c1_B B^-1
    are then a Farkas ray of the rows: the reduced costs -(y'A)_j of the
    unpriced columns have the signs their bounds allow, so y'b exceeds
    the largest y'A w over the bounds by exactly the load.  The kernel
    runs even when the crash needed no artificial (it then prices once
    and stops), so every solve makes one call per phase.
    """
    status, iters, ray = _run_kernel(sx, sx.c1, tol, "phase 1")
    if status != kernels.OPTIMAL:
        # The phase-1 objective is bounded below by 0: no ray exists.
        raise PivotBreakdownError("phase 1 did not reach an optimum", sx.basis)
    load = float(np.sum(sx.w[sx.c1 > 0.0]))
    scale = 1.0 + (float(np.max(np.abs(sx.b))) if sx.b.size else 0.0)
    return iters, load > tol.lp_feasibility * scale, ray


def _two_phase(lp: LinearProgram, tol: Tolerances, start):
    """(status, x, y, iterations) of the two phases on ``lp``: y is the
    duals when optimal and the Farkas ray when infeasible; x and y are
    None when unbounded, and x when infeasible."""
    sx = _start(lp, start)
    iters1, infeasible, ray = _phase1(sx, tol)
    if infeasible:
        return LpStatus.INFEASIBLE, None, ray, iters1

    # Artificials left in the basis stay there at zero; this replaces
    # the removal of redundant rows.
    sx.upper[sx.artificial] = 0.0
    c2 = np.zeros(sx.w.size)
    c2[:lp.n_vars] = lp.cost
    status, iters2, duals = _run_kernel(sx, c2, tol, "phase 2")
    if status == kernels.UNBOUNDED:
        return LpStatus.UNBOUNDED, None, None, iters1 + iters2
    return LpStatus.OPTIMAL, sx.w[:lp.n_vars].copy(), duals, iters1 + iters2


def solve_lp(lp: LinearProgram, tol: Tolerances = DEFAULT_TOLERANCES,
             start=None) -> LpResult:
    """Solve an LP; optimal and infeasible results are certified before
    being returned.

    The two phases run on what :func:`_presolve` leaves of ``lp``:
    singleton "=" rows fix their column (:class:`_Fixed`), zero-rhs
    doubleton "=" rows substitute columns out (:class:`_Substituted`),
    and "=" rows chained by free, zero-cost columns with two entries
    merge into one (:class:`_Merged`).  The postsolve maps that
    program's answer back to x and the duals, or the Farkas ray, of
    ``lp``; the slacks and the objective are computed on ``lp``, and the
    result is certified once, on ``lp``.  A program with nothing to
    reduce is solved as it is.

    ``start`` is an optional start basis: one structural column or -1
    per row (see :func:`_start`, which falls back to the crash basis
    when it is unusable).  Without it the solve starts from the crash.
    A start names columns of ``lp``, so it is dropped when the presolve
    reduces anything.  ``iterations`` counts the pivots of the solve.

    Raises :class:`PivotBreakdownError` / :class:`IterationLimitError`
    on numeric failure and :class:`CertificationError` when an optimal
    answer fails its own KKT certificate or an infeasible one its Farkas
    ray (see :func:`certify`).  Unbounded problems are reported through
    ``status``.
    """
    nan_vec = np.full(lp.n_vars, np.nan)
    nan_rows = np.full(lp.n_rows, np.nan)
    presolved = _presolve(lp)
    program, start = (lp, start) if presolved is None else (presolved.program, None)
    status, x, y, iters = _two_phase(program, tol, start)
    if status is LpStatus.UNBOUNDED:
        return LpResult(status, nan_vec, np.nan, nan_rows, nan_rows, iters)
    if presolved is not None:
        x, y = presolved.postsolve(lp, x, y)
    if status is LpStatus.INFEASIBLE:
        return _certified(lp, LpResult(status, nan_vec, np.nan, y, nan_rows, iters), tol)
    ax = lp.matrix.matvec(x)
    _, ge, _ = lp.sense_masks
    slacks = np.where(ge, ax - lp.rhs, lp.rhs - ax)
    objective = float(lp.cost @ x) if lp.n_vars else 0.0
    return _certified(lp, LpResult(status, x, objective, y, slacks, iters), tol)


# --------------------------------------------------------------------------
# Presolve and postsolve of "=" rows (Andersen & Andersen, "Presolving in
# linear programming", Math. Prog. 1995)


def _jumped(pointer: np.ndarray) -> np.ndarray:
    """``pointer`` followed to its fixed points (pointer jumping)."""
    while True:
        jumped = pointer[pointer]
        if (jumped == pointer).all():
            return pointer
        pointer = jumped


class _Forest:
    """A spanning forest of the graph whose edge e joins the lines (rows
    or columns) ``ends[0][e]`` and ``ends[1][e]`` of ``lines``, where the
    two entries of e are ``values[0][e]`` and ``values[1][e]``.

    Its nodes are the lines some edge joins, in order.  Each tree is
    rooted at its node of least ``key``, then least index.  The forest
    is grown by hooking (Shiloach & Vishkin, "An O(log n) parallel
    connectivity algorithm", J. Algorithms 1982): each round, the root
    of every tree that an edge joins to a tree with a lower ranked root
    hooks under that root by one such edge, and pointer jumping flattens
    the trees again.  The hooking edges are the forest; the other edges
    close cycles.  The forest is then oriented by its Euler tour (Tarjan
    & Vishkin, SIAM J. Comput. 1985), ranked by pointer jumping.  Each
    loop is rounds of array operations: O(log n) of them when pointers
    jump, and few when trees hook (1 on a path ranked along its length,
    11 on a randomly ranked path of 100,000 nodes).

    Per node: ``root``, ``up`` (the forest edge to its parent, -1 at a
    root), ``own`` (its entry on that edge) and ``scale``, the product
    of -other / own over the edges from it up to its root, which makes
    the node line ``scale`` times the root line where the edges are
    doubleton rows, and weighs the rows so that the edges cancel where
    they are columns.  ``child`` is the node of each forest edge away
    from the root, in edge order.
    """

    def __init__(self, lines: int, ends, values, key=None):
        met = np.zeros(lines, dtype=bool)
        met[ends[0]] = met[ends[1]] = True
        slot = np.cumsum(met) - 1
        u, v = slot[ends[0]], slot[ends[1]]
        self.nodes = nodes = np.flatnonzero(met)
        n = nodes.size
        rank = np.arange(n)
        if key is not None:
            rank[np.lexsort((nodes, key[nodes]))] = np.arange(n)
        root = np.arange(n)
        tree = np.zeros(u.size, dtype=bool)
        hook = np.full(n, -1)
        while True:
            ru, rv = root[u], root[v]
            cross = np.flatnonzero(ru != rv)
            if not cross.size:
                break
            ru, rv = ru[cross], rv[cross]
            under = rank[rv] < rank[ru]
            high = np.where(under, ru, rv)
            # One edge per hooked root: whichever of a repeated index's
            # writes the assignment keeps, only that edge reads itself back.
            hook[high] = np.arange(cross.size)
            pick = hook[high]
            pick = pick[pick == np.arange(cross.size)]
            root[high[pick]] = np.where(under, rv, ru)[pick]
            tree[cross[pick]] = True
            root = _jumped(root)
        self.root = root

        # The tour: arc i < t runs along forest edge i from its first
        # end, arc i + t is its twin, and the arc after an arc is the one
        # after its twin in the cyclic list of arcs out of its head.
        # Each tree's tour is cut where it would return to the first arc
        # out of its root.
        edges = np.flatnonzero(tree)
        t = edges.size
        src = np.concatenate([u[edges], v[edges]])
        arcs = np.arange(2 * t)
        by_src = np.argsort(src, kind="stable")
        s = src[by_src]
        head = np.concatenate([[True], s[1:] != s[:-1]])
        last = np.concatenate([head[1:], [True]])
        first = np.maximum.accumulate(np.where(head, arcs, 0))
        after = np.empty(2 * t, dtype=np.int64)
        after[by_src] = by_src[np.where(last, first, arcs + 1)]
        twin = np.concatenate([arcs[t:], arcs[:t]])
        succ = after[twin]
        end = twin[by_src[last & (s == root[s])]]
        succ[end] = end
        # Arcs left to the end of the tour, by pointer jumping.
        left = (succ != arcs).astype(np.int64)
        while True:
            jumped = succ[succ]
            if (jumped == succ).all():
                break
            left = left + left[succ]
            succ = jumped
        down = left[:t] > left[t:]             # edge i is first run from u to v
        self.child = np.where(down, v[edges], u[edges])
        self.up = np.full(n, -1)
        self.up[self.child] = edges
        parent = np.arange(n)
        parent[self.child] = np.where(down, u[edges], v[edges])
        # The tours in one sequence: a subtree's arcs lie between the
        # arc into it and the arc out of it.
        tour = root[src]
        length = np.bincount(tour, minlength=n)
        position = (np.cumsum(length) - 1)[tour] - left
        edge = np.arange(t)
        self._into = position[np.where(down, edge, edge + t)]
        self._out = position[np.where(down, edge + t, edge)]

        up = np.maximum(self.up, 0)
        at_first = u[up] == np.arange(n)
        self.own = np.where(at_first, values[0][up], values[1][up])
        other = np.where(at_first, values[1][up], values[0][up])
        scale = np.where(self.up >= 0, -other / self.own, 1.0)
        # Products up to the root, by pointer jumping.
        while True:
            jumped = parent[parent]
            if (jumped == parent).all():
                break
            scale = scale * scale[parent]
            parent = jumped
        self.scale = scale

    def subtree_sums(self, values: np.ndarray) -> np.ndarray:
        """Per node the sum of ``values`` over its subtree; 0 at roots."""
        along = np.zeros(2 * self.child.size)
        along[self._into] = values[self.child]
        running = np.concatenate([[0.0], np.cumsum(along)])
        sums = np.zeros(self.up.size)
        sums[self.child] = running[self._out + 1] - running[self._into]
        return sums


@dataclass
class _Reduced:
    """The program as the presolve reduces it, in the numbering of the
    original: its live entries (row r, column c, value v), sorted by
    column, then row; its rhs and cost; and masks of the live rows and
    columns."""

    r: np.ndarray
    c: np.ndarray
    v: np.ndarray
    rhs: np.ndarray
    cost: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    equal: np.ndarray
    rows: np.ndarray
    cols: np.ndarray

    def keep(self, entries: np.ndarray):
        self.r, self.c, self.v = self.r[entries], self.c[entries], self.v[entries]

    def regroup(self, r: np.ndarray, c: np.ndarray, scale: np.ndarray):
        """Move entry k to row r[k] and column c[k], times scale[k]:
        entries that meet add up, in entry order, and exact zeros go."""
        if not self.v.size:
            return
        m = self.rows.size
        key = c * m + r
        order = np.argsort(key, kind="stable")
        key = key[order]
        starts = np.flatnonzero(np.concatenate([[True], key[1:] != key[:-1]]))
        value = np.add.reduceat((self.v * scale)[order], starts)
        nonzero = value != 0.0
        self.c, self.r = np.divmod(key[starts][nonzero], m)
        self.v = value[nonzero]

    def pairs(self, lines: np.ndarray, by_row: bool) -> tuple:
        """(line, (index, index), (value, value)) of the two entries on
        each marked row (``by_row``) or column, the indices being of the
        other axis."""
        k = np.flatnonzero(lines[self.r if by_row else self.c])
        r, c, v = self.r[k], self.c[k], self.v[k]
        if by_row:
            order = np.argsort(r, kind="stable")
            r, c, v = r[order], c[order], v[order]
            return r[::2], (c[::2], c[1::2]), (v[::2], v[1::2])
        return c[::2], (r[::2], r[1::2]), (v[::2], v[1::2])

    def entries(self, lines: np.ndarray, by_row: bool) -> tuple:
        """(row, column, value, position in ``lines``) of the live entries
        on the rows (``by_row``) or columns ``lines``."""
        slot = np.full(self.rows.size if by_row else self.cols.size, -1)
        slot[lines] = np.arange(lines.size)
        at = slot[self.r if by_row else self.c]
        k = np.flatnonzero(at >= 0)
        return self.r[k], self.c[k], self.v[k], at[k]


class _Fixed:
    """Singleton "=" rows a x_j = b folded into x_j = b / a when that
    value is within x_j's bounds (else the row stays, and the solve
    certifies the infeasibility).  A column fixed by several rows is
    fixed by the first; the others stay."""

    def __init__(self, p: _Reduced):
        count = np.bincount(p.r, minlength=p.rows.size)
        k = np.flatnonzero((p.equal & (count == 1))[p.r])
        r, c, a = p.r[k], p.c[k], p.v[k]
        value = p.rhs[r] / a
        first = ((p.lower[c] <= value) & (value <= p.upper[c])
                 & np.concatenate([[True], c[1:] != c[:-1]]))
        self.rows, self.cols, self.coef, self.values = r[first], c[first], a[first], value[first]
        if not self.rows.size:
            return
        self.entries = p.entries(self.cols, by_row=False)
        rows, _, vals, at = self.entries
        p.rhs -= np.bincount(rows, weights=vals * self.values[at], minlength=p.rows.size)
        p.rows[self.rows] = False
        p.cols[self.cols] = False
        p.keep(p.cols[p.c])

    def __bool__(self):
        return bool(self.rows.size)

    def primal(self, x: np.ndarray):
        x[self.cols] = self.values

    def dual(self, y: np.ndarray, cost: np.ndarray):
        # Each fixed column's reduced cost drops to zero.
        rows, _, vals, at = self.entries
        priced = np.bincount(at, weights=vals * y[rows], minlength=self.cols.size)
        y[self.rows] = (cost[self.cols] - priced) / self.coef


class _Substituted:
    """Zero-rhs doubleton "=" rows a x_i + b x_j = 0 substituted out.

    The rows are the edges of a :class:`_Forest` on their columns: each
    column becomes ``scale`` times its tree's root column.  The root's
    bounds must keep every column of its tree within the column's own
    bounds; a tree that fails this keeps its rows.  The tightest bounds
    rank first as roots.  A row that closes a cycle stays, over the root
    column.
    """

    def __init__(self, p: _Reduced):
        count = np.bincount(p.r, minlength=p.rows.size)
        edge_rows, ends, values = p.pairs(p.equal & (count == 2) & (p.rhs == 0.0), by_row=True)
        self.gone = np.zeros(0, dtype=bool)
        if not edge_rows.size:
            return
        finite = np.isfinite(p.lower).astype(int) + np.isfinite(p.upper)
        forest = self.forest = _Forest(p.cols.size, ends, values, key=-finite)
        nodes, scale = forest.nodes, forest.scale
        root = nodes[forest.root]
        lo, hi = p.lower[nodes] / scale, p.upper[nodes] / scale
        lo, hi = np.where(scale < 0, hi, lo), np.where(scale < 0, lo, hi)
        fits = (lo <= p.lower[root]) & (hi >= p.upper[root]) & np.isfinite(scale) & (scale != 0)
        unfit = np.zeros(nodes.size, dtype=bool)
        unfit[forest.root[~fits]] = True
        gone = self.gone = (forest.up >= 0) & ~unfit[forest.root]
        if not gone.any():
            return
        self.cols, self.root = nodes[gone], root[gone]
        self.rows = edge_rows[forest.up[gone]]
        self.entries = p.entries(self.cols, by_row=False)
        p.cost += np.bincount(self.root, weights=scale[gone] * p.cost[self.cols],
                              minlength=p.cols.size)
        p.rows[self.rows] = False
        p.cols[self.cols] = False
        p.keep(p.rows[p.r])
        slot = np.zeros(p.cols.size, dtype=np.int64)
        slot[nodes] = np.arange(nodes.size)
        live = p.cols[p.c]
        p.regroup(p.r, np.where(live, p.c, root[slot[p.c]]),
                  np.where(live, 1.0, scale[slot[p.c]]))

    def __bool__(self):
        return bool(self.gone.any())

    def primal(self, x: np.ndarray):
        x[self.cols] = self.forest.scale[self.gone] * x[self.root]

    def dual(self, y: np.ndarray, cost: np.ndarray):
        # Each substituted column's reduced cost drops to zero: the row
        # to a node's parent carries the reduced cost of its subtree,
        # weighed by the scales.
        forest, gone = self.forest, self.gone
        rows, _, vals, at = self.entries
        reduced = np.zeros(gone.size)
        reduced[gone] = forest.scale[gone] * (
            cost[self.cols] - np.bincount(at, weights=vals * y[rows], minlength=self.cols.size))
        y[self.rows] = forest.subtree_sums(reduced)[gone] / (forest.scale * forest.own)[gone]


class _Merged:
    """Rows joined along free, zero-cost columns with two entries, both in
    "=" rows.

    The columns are the edges of a :class:`_Forest` on their rows: each
    tree becomes one row, the sum of its rows times the ``scale`` weights
    that cancel its tree columns, in the place of its first row.  A
    column that closes a cycle stays.
    """

    def __init__(self, p: _Reduced):
        count = np.bincount(p.c, minlength=p.cols.size)
        off_equal = np.bincount(p.c, weights=(~p.equal[p.r]).astype(float), minlength=p.cols.size)
        chain = (np.isinf(p.lower) & np.isinf(p.upper) & (p.cost == 0.0) & (count == 2)
                 & (off_equal == 0) & p.cols)
        edge_cols, ends, values = p.pairs(chain, by_row=False)
        self.joined = np.zeros(0, dtype=bool)
        if not edge_cols.size:
            return
        forest = self.forest = _Forest(p.rows.size, ends, values)
        nodes, weight = forest.nodes, forest.scale
        joined = self.joined = forest.up >= 0
        self.rows, self.root = nodes[joined], nodes[forest.root]
        self.cols = edge_cols[forest.up[joined]]
        p.cols[self.cols] = False
        p.keep(p.cols[p.c])
        self.entries = p.entries(nodes, by_row=True)
        self.rhs = p.rhs[nodes]
        p.rhs += np.bincount(self.root[joined], weights=weight[joined] * self.rhs[joined],
                             minlength=p.rows.size)
        p.rows[self.rows] = False
        slot = np.full(p.rows.size, -1)
        slot[nodes] = np.arange(nodes.size)
        at = slot[p.r]
        member = at >= 0
        p.regroup(np.where(member, self.root[at], p.r), p.c,
                  np.where(member, weight[at], 1.0))

    def __bool__(self):
        return bool(self.joined.any())

    def primal(self, x: np.ndarray):
        # A subtree's rows, weighed, leave only the column to its parent.
        forest, joined = self.forest, self.joined
        _, cols, vals, at = self.entries
        residual = self.rhs - np.bincount(at, weights=vals * x[cols], minlength=joined.size)
        sums = forest.subtree_sums(forest.scale * residual)
        x[self.cols] = sums[joined] / (forest.scale * forest.own)[joined]

    def dual(self, y: np.ndarray, cost: np.ndarray):
        joined = self.joined
        y[self.rows] = self.forest.scale[joined] * y[self.root[joined]]


@dataclass
class _Presolved:
    """A reduced program, the rows and columns of the original it keeps,
    and the steps that reduced it, in order."""

    program: LinearProgram
    rows: np.ndarray
    cols: np.ndarray
    steps: tuple

    def postsolve(self, lp: LinearProgram, x, y) -> tuple:
        """(x, y) of the program mapped back to ``lp`` through the steps
        in reverse: an optimal x and its duals, or no x and a Farkas ray,
        which maps as the duals of a zero cost.  Rows dropped empty keep
        a zero multiplier."""
        full_y = np.zeros(lp.n_rows)
        full_y[self.rows] = y
        if x is not None:
            full_x = np.zeros(lp.n_vars)
            full_x[self.cols] = x
            for step in reversed(self.steps):
                step.primal(full_x)
            x = full_x
        cost = lp.cost if x is not None else np.zeros(lp.n_vars)
        for step in reversed(self.steps):
            step.dual(full_y, cost)
        return x, full_y


def _presolve(lp: LinearProgram):
    """The :class:`_Presolved` form of ``lp``, or None when nothing
    reduces.

    Three reductions of "=" rows run once each, in this order:
    :class:`_Fixed`, :class:`_Substituted` and :class:`_Merged`.  "="
    rows they leave empty with a zero rhs are then dropped.  Each is
    vectorized and linear in the nonzeros, up to sorts and the rounds
    of :class:`_Forest`.
    """
    equal = lp.sense_masks[0]
    if not equal.any():
        return None
    m, n = lp.matrix.shape
    # Each reduction needs an "=" row of at most two entries or a free column.
    if not (np.any(equal & (np.bincount(lp.matrix.indices, minlength=m) <= 2))
            or np.any(np.isinf(lp.lower) & np.isinf(lp.upper))):
        return None
    p = _Reduced(r=lp.matrix.indices, c=lp.matrix.cols, v=lp.matrix.data, rhs=lp.rhs.copy(),
                 cost=lp.cost.copy(), lower=lp.lower, upper=lp.upper, equal=equal,
                 rows=np.ones(m, dtype=bool), cols=np.ones(n, dtype=bool))
    steps = tuple(step for step in (_Fixed(p), _Substituted(p), _Merged(p)) if step)
    empty = p.rows & p.equal & (p.rhs == 0.0) & (np.bincount(p.r, minlength=m) == 0)
    if not steps and not empty.any():
        return None
    p.rows &= ~empty
    rows, cols = np.flatnonzero(p.rows), np.flatnonzero(p.cols)
    slot_r, slot_c = np.cumsum(p.rows) - 1, np.cumsum(p.cols) - 1
    program = LinearProgram(
        cost=p.cost[cols], rows=kernels.SparseColumns((rows.size, cols.size), slot_c[p.c],
                                                      slot_r[p.r], p.v),
        senses=tuple(lp.senses[i] for i in rows.tolist()), rhs=p.rhs[rows],
        lower=lp.lower[cols], upper=lp.upper[cols],
        var_labels=tuple(lp.var_labels[j] for j in cols.tolist()),
        row_labels=tuple(lp.row_labels[i] for i in rows.tolist()))
    return _Presolved(program, rows, cols, steps)


def _certified(lp: LinearProgram, result: LpResult, tol: Tolerances) -> LpResult:
    _require_passed(certify(lp, result, tol), result.status)
    return result


def _require_passed(cert: Certificate, status: LpStatus):
    if not cert.passed:
        failed = ", ".join(f"{c.name} ({c.value:.3e} > {c.bound:.3e})" for c in cert.failures())
        raise CertificationError(f"{status.value} result failed certification: {failed}")


def _check(name: str, value, bound) -> CheckResult:
    value = float(value)
    bound = float(bound)
    return CheckResult(name, value <= bound, value, bound)


def certify(lp: LinearProgram, result: LpResult,
            tol: Tolerances = DEFAULT_TOLERANCES) -> Certificate:
    """Recompute the certificate of a claimed-optimal or claimed-infeasible
    result.

    Optimal results are checked against the KKT conditions: primal
    feasibility (rows and bounds), dual sign conditions, dual
    feasibility via reduced costs, complementary slackness, the duality
    gap, and objective consistency.  Infeasible results are checked
    through the Farkas ray in ``duals``; see :func:`_farkas_checks`.
    """
    if result.status is LpStatus.INFEASIBLE:
        return Certificate(_farkas_checks(lp, np.asarray(result.duals, dtype=float), tol))
    if result.status is not LpStatus.OPTIMAL:
        raise ValueError(f"can only certify optimal or infeasible results, got {result.status}")
    x = np.asarray(result.x, dtype=float)
    lam = np.asarray(result.duals, dtype=float)
    _, ge, le = lp.sense_masks
    feas = tol.lp_feasibility

    r = lp.matrix.matvec(x) - lp.rhs
    primal = np.max(np.where(le, r, np.where(ge, -r, np.abs(r))), initial=0.0)
    bound_viol = max(np.max(lp.lower - x, initial=0.0), np.max(x - lp.upper, initial=0.0))
    sign_viol = np.max(np.where(ge, -lam, np.where(le, lam, 0.0)), initial=0.0)

    reduced = lp.cost - lp.matrix.rmatvec(lam)
    lo_finite, hi_finite = np.isfinite(lp.lower), np.isfinite(lp.upper)
    at_lo = lo_finite & (x - lp.lower <= feas * (1.0 + np.abs(lp.lower)))
    at_hi = hi_finite & (lp.upper - x <= feas * (1.0 + np.abs(lp.upper)))
    dual = np.where(at_lo, -reduced, np.where(at_hi, reduced, np.abs(reduced)))
    dual[at_lo & at_hi] = 0.0
    dual_viol = np.max(dual, initial=0.0)

    comp = np.max(np.abs(lam * result.slacks), initial=0.0)

    obj = float(lp.cost @ x) if lp.n_vars else 0.0
    dual_obj = float(lam @ lp.rhs) if lp.n_rows else 0.0
    bound_terms = np.zeros(lp.n_vars)
    low = lo_finite & (reduced > 0)
    high = hi_finite & (reduced < 0)
    bound_terms[low] = reduced[low] * lp.lower[low]
    bound_terms[high] = reduced[high] * lp.upper[high]
    # A running total in index order: the gap does not depend on
    # numpy's pairwise summation.
    dual_obj = float(np.cumsum(np.concatenate([[dual_obj], bound_terms]))[-1])
    gap = abs(obj - dual_obj)
    obj_err = abs(result.objective - obj)

    return Certificate((
        _check("primal row feasibility", primal, feas),
        _check("bound feasibility", bound_viol, feas),
        _check("dual sign conditions", sign_viol, feas),
        _check("dual feasibility (reduced costs)", dual_viol, feas),
        _check("complementary slackness", comp, tol.lp_complementarity),
        _check("duality gap", gap, tol.lp_duality_gap * (1.0 + abs(obj))),
        _check("objective consistency", obj_err, tol.lp_duality_gap * (1.0 + abs(obj))),
    ))


def _farkas_checks(lp: LinearProgram, ray, tol: Tolerances) -> tuple:
    """Checks of a Farkas ray y of the rows of ``lp``, scaled to |y|_1 = 1.

    * ray sign conditions: y >= 0 on ">=" rows and y <= 0 on "<=" rows;
    * ray bound compatibility: g = y'rows is <= 0 on columns without an
      upper bound and >= 0 on columns without a lower bound (so 0 on
      free columns);
    * ray separation: the largest g x over the bounds, minus y'rhs, is
      at most -lp_feasibility.  Then no x within the bounds meets every
      row to within lp_feasibility, the bound of the primal row check of
      an optimal result.

    Every bound is ``lp_feasibility``.  A zero or non-finite ray fails.
    """
    norm = float(np.sum(np.abs(ray)))
    y = ray / norm if 0.0 < norm < np.inf else np.full(lp.n_rows, np.nan)
    _, ge, le = lp.sense_masks
    sign = np.max(np.where(ge, -y, np.where(le, y, 0.0)), initial=0.0)
    g = lp.matrix.rmatvec(y)
    compat = max(np.max(g[np.isinf(lp.upper)], initial=0.0),
                 np.max(-g[np.isinf(lp.lower)], initial=0.0))
    # Sides without a bound are left out: compatibility bounds g there.
    top = np.where(np.isfinite(lp.upper), lp.upper, 0.0)
    bottom = np.where(np.isfinite(lp.lower), lp.lower, 0.0)
    reach = np.maximum(g, 0.0) @ top + np.minimum(g, 0.0) @ bottom
    feas = tol.lp_feasibility
    return (_check("ray sign conditions", sign, feas),
            _check("ray bound compatibility", compat, feas),
            _check("ray separation", reach - y @ lp.rhs, -feas))


def feasible(lp: LinearProgram, tol: Tolerances = DEFAULT_TOLERANCES) -> bool:
    """Phase-1 feasibility test (no objective)."""
    return not _phase1(_start(lp), tol)[1]


def irreducible_infeasible_rows(lp: LinearProgram,
                                tol: Tolerances = DEFAULT_TOLERANCES) -> dict:
    """Deletion filter: an irreducible infeasible set of rows, as
    ``{row label: Farkas multiplier}`` in row order.

    The rows may have any sense.  The filter works on the elastic form
    of ``lp`` (Chinneck, "Feasibility and Infeasibility in Optimization",
    2008, ch. 6): every row r of its computational form gets elastic
    columns +e_r and -e_r in [0, inf), and c1 prices them at 1 while r
    is active.  Deleting r prices them at 0.  Only the cost changes, so
    the basis stays feasible, and each trial deletion, in row order,
    runs phase 1 from wherever the last one ended:

    * the trial stays infeasible: r is dropped, and so is every active
      row outside the support of the trial's Farkas ray (0 on deleted
      rows), once the ray passes :func:`_farkas_checks`;
    * the trial turns feasible: r is necessary and is priced again.

    One pass is enough, because a row found necessary stays necessary:
    the rows left without it are a subset of a feasible system.  So
    every returned row is necessary and together they are infeasible
    (Chinneck & Dravnieks, "Locating minimal infeasible constraint sets
    in linear programs", ORSA J. Computing 1991).

    The multipliers are the ray of the last trial that stayed infeasible,
    or of the first phase 1 when none did, cut to its support: no later
    trial drops a row, so that support is the returned rows.  The ray
    is checked once more by :func:`_farkas_checks` on ``lp``, and
    :class:`CertificationError` is raised when it fails, as
    :func:`solve_lp` does.  Returns {} when ``lp`` is feasible.
    """
    m = lp.n_rows
    sx = _start(lp)
    k = sx.a.shape[1]
    sx.append_units(np.tile(np.arange(m), 2), np.repeat([1.0, -1.0], m), 0.0, np.inf, 1.0)
    # A view of c1: row 0 prices the +e_r columns, row 1 the -e_r ones.
    # Row r is active while they are priced.
    elastic = sx.c1[k:].reshape(2, m)
    _, infeasible, ray = _phase1(sx, tol)
    if not infeasible:
        return {}

    def drop_outside_support(ray):
        active = elastic[0] > 0.0
        ray[~active] = 0.0
        support = np.abs(ray) > tol.lp_feasibility * np.max(np.abs(ray))
        ray[~support] = 0.0
        outside = np.flatnonzero(active & ~support)
        if outside.size and all(c.passed for c in _farkas_checks(lp, ray, tol)):
            elastic[:, outside] = 0.0

    drop_outside_support(ray)
    for r in range(m):
        if not elastic[0, r]:
            continue
        elastic[:, r] = 0.0
        _, infeasible, trial = _phase1(sx, tol)
        if infeasible:
            ray = trial
            drop_outside_support(ray)
        else:
            elastic[:, r] = 1.0
    _require_passed(Certificate(_farkas_checks(lp, ray, tol)), LpStatus.INFEASIBLE)
    return {lp.row_labels[i]: float(ray[i]) for i in np.flatnonzero(elastic[0])}
