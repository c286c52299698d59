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
Every optimal answer is re-checked against the KKT conditions, and every
infeasible answer against its Farkas ray, before it is returned.

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
    senses = np.asarray(lp.senses, dtype=object)
    has_slack = senses != EQUAL
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
    slack_ok = ((senses[uncovered] == LESS_EQUAL) & (residual >= 0.0)) | \
        ((senses[uncovered] == GREATER_EQUAL) & (residual <= 0.0))
    art_rows = uncovered[~slack_ok]
    art_sign = np.where(residual[~slack_ok] < 0.0, -1.0, 1.0)
    negative = art_rows[art_sign < 0.0]
    binv[negative] = -binv[negative]

    sx = _Simplex(a=structural, b=lp.rhs, lower=lp.lower, upper=lp.upper,
                  artificial=slice(0), c1=np.zeros(n), w=w, basis=basis, binv=binv)
    slack_rows = np.flatnonzero(has_slack)
    below = senses[slack_rows] == LESS_EQUAL
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


def solve_lp(lp: LinearProgram, tol: Tolerances = DEFAULT_TOLERANCES,
             start=None) -> LpResult:
    """Solve an LP; optimal and infeasible results are certified before
    being returned.

    ``start`` is an optional start basis: one structural column or -1
    per row (see :func:`_start`, which falls back to the crash basis
    when it is unusable).  Without it the solve starts from the crash.

    Raises :class:`PivotBreakdownError` / :class:`IterationLimitError`
    on numeric failure and :class:`CertificationError` when an optimal
    answer fails its own KKT certificate or an infeasible one its Farkas
    ray (see :func:`certify`).  Unbounded problems are reported through
    ``status``.
    """
    nan_vec = np.full(lp.n_vars, np.nan)
    nan_rows = np.full(lp.n_rows, np.nan)
    sx = _start(lp, start)
    iters1, infeasible, ray = _phase1(sx, tol)
    if infeasible:
        return _certified(lp, LpResult(LpStatus.INFEASIBLE, nan_vec, np.nan,
                                       ray, nan_rows, iters1), tol)

    # Artificials left in the basis stay there at zero; this replaces
    # the removal of redundant rows.
    sx.upper[sx.artificial] = 0.0
    c2 = np.zeros(sx.w.size)
    c2[:lp.n_vars] = lp.cost
    status, iters2, duals = _run_kernel(sx, c2, tol, "phase 2")
    if status == kernels.UNBOUNDED:
        return LpResult(LpStatus.UNBOUNDED, nan_vec, np.nan, nan_rows, nan_rows,
                        iters1 + iters2)
    x = sx.w[:lp.n_vars].copy()
    ax = lp.matrix.matvec(x)
    slacks = np.where(_sense_masks(lp)[0], ax - lp.rhs, lp.rhs - ax)
    objective = float(lp.cost @ x) if lp.n_vars else 0.0
    return _certified(lp, LpResult(LpStatus.OPTIMAL, x, objective, duals, slacks,
                                   iters1 + iters2), tol)


def _sense_masks(lp: LinearProgram):
    """Boolean masks of the ">=" and of the "<=" rows."""
    senses = np.array(lp.senses, dtype="<U2")
    return senses == GREATER_EQUAL, senses == LESS_EQUAL


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
    ge, le = _sense_masks(lp)
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
    ge, le = _sense_masks(lp)
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
