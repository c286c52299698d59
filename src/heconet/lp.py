"""Two-phase bounded-variable revised simplex with solution certification.

An LP is brought into the computational form  A w = b,  lower <= w <=
upper: the constraint matrix is held by columns in sparse index arrays
(:class:`heconet.kernels.SparseColumns`), each inequality row gets one
slack column, and variable bounds stay inside the simplex (free columns
are not split, boxed ones may flip bound).  Phase 1 starts from a
triangular crash basis of free columns, completed by slacks where their
value is feasible and by artificials elsewhere, and minimizes the
artificials' sum; phase 2 fixes the artificials at zero, which replaces
the removal of redundant rows.  Pricing is Dantzig's rule with a
fall-back to Bland's after a run of degenerate pivots, the ratio test
is a two-pass Harris test, and the explicit basis inverse is eta-updated
and periodically refactorized (see :func:`heconet.kernels.simplex_iterate`).
Every optimal answer is re-checked against the KKT conditions before it
is returned.

Sign conventions for a minimization problem: duals are >= 0 on ">="
rows, <= 0 on "<=" rows, free on "=" rows; slacks are reported so that
feasible rows have nonnegative slack (equality rows report their signed
residual).
"""

import io
from dataclasses import dataclass
from enum import Enum

import numpy as np

from heconet import kernels
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
    """An optimal answer failed its own KKT certificate."""


@dataclass(frozen=True, eq=False)
class LinearProgram:
    """min cost'x  s.t.  rows_i x (sense_i) rhs_i,  lower <= x <= upper."""

    cost: np.ndarray
    rows: np.ndarray
    senses: tuple[str, ...]
    rhs: np.ndarray
    lower: np.ndarray = None
    upper: np.ndarray = None
    var_labels: tuple[str, ...] = ()
    row_labels: tuple[str, ...] = ()

    def __post_init__(self):
        cost = np.atleast_1d(np.asarray(self.cost, dtype=float)).copy()
        rows = np.asarray(self.rows, dtype=float).copy()
        if rows.size == 0:
            rows = rows.reshape(0, cost.shape[0])
        if rows.ndim != 2 or rows.shape[1] != cost.shape[0]:
            raise ValueError(
                f"rows must be a matrix with {cost.shape[0]} columns, got shape {rows.shape}")
        rhs = np.atleast_1d(np.asarray(self.rhs, dtype=float)).copy()
        if rhs.shape != (rows.shape[0],):
            raise ValueError(f"rhs must have length {rows.shape[0]}")
        senses = tuple(self.senses)
        if len(senses) != rows.shape[0]:
            raise ValueError(f"senses must have length {rows.shape[0]}")
        for s in senses:
            if s not in _SENSES:
                raise ValueError(f"unknown sense {s!r}; expected one of {_SENSES}")
        n = cost.shape[0]
        lower = np.zeros(n) if self.lower is None else np.atleast_1d(np.asarray(self.lower, dtype=float)).copy()
        upper = np.full(n, np.inf) if self.upper is None else np.atleast_1d(np.asarray(self.upper, dtype=float)).copy()
        if lower.shape != (n,) or upper.shape != (n,):
            raise ValueError(f"bounds must have length {n}")
        for name, arr in (("cost", cost), ("rows", rows), ("rhs", rhs)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} must be finite")
        if np.any(np.isnan(lower)) or np.any(np.isnan(upper)):
            raise ValueError("bounds must not be NaN")
        if np.any(lower == np.inf) or np.any(upper == -np.inf):
            raise ValueError("lower bounds must be < +inf and upper bounds > -inf")
        if np.any(lower > upper):
            bad = int(np.argmax(lower > upper))
            raise ValueError(f"lower bound exceeds upper bound for variable {bad}")
        var_labels = tuple(self.var_labels) or tuple(f"x{j + 1}" for j in range(n))
        row_labels = tuple(self.row_labels) or tuple(f"r{i + 1}" for i in range(rows.shape[0]))
        if len(var_labels) != n:
            raise ValueError("var_labels must match the number of variables")
        if len(row_labels) != rows.shape[0]:
            raise ValueError("row_labels must match the number of rows")
        for arr in (cost, rows, rhs, lower, upper):
            arr.setflags(write=False)
        object.__setattr__(self, "cost", cost)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "senses", senses)
        object.__setattr__(self, "rhs", rhs)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        object.__setattr__(self, "var_labels", var_labels)
        object.__setattr__(self, "row_labels", row_labels)

    @property
    def n_vars(self) -> int:
        return self.cost.shape[0]

    @property
    def n_rows(self) -> int:
        return self.rows.shape[0]


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


def dump_lp(lp: LinearProgram) -> str:
    """Plain-text echo of an LP for debugging."""
    out = io.StringIO()
    out.write("minimize\n")
    terms = " + ".join(f"{c:g} {v}" for c, v in zip(lp.cost, lp.var_labels))
    out.write(f"  {terms or '0'}\n")
    out.write("subject to\n")
    width = max((len(r) for r in lp.row_labels), default=0)
    for label, row, sense, rhs in zip(lp.row_labels, lp.rows, lp.senses, lp.rhs):
        lhs = " + ".join(f"{a:g} {v}" for a, v in zip(row, lp.var_labels) if a != 0)
        out.write(f"  {label:<{width}}  {lhs or '0'} {sense} {rhs:g}\n")
    out.write("bounds\n")
    for v, lo, hi in zip(lp.var_labels, lp.lower, lp.upper):
        out.write(f"  {lo:g} <= {v} <= {hi:g}\n")
    return out.getvalue()


@dataclass
class _Simplex:
    """Computational form  A w = b,  lower <= w <= upper  of an LP.

    The columns of ``a`` are the structural variables, one slack per
    inequality row (bounds [0, inf) on "<=" rows, (-inf, 0] on ">="
    rows) and the artificials of the crash basis, which occupy the
    column range ``artificial``.  ``w``, ``basis`` and ``binv`` are the
    simplex state the kernel updates in place.
    """

    a: kernels.SparseColumns
    b: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    artificial: slice
    w: np.ndarray
    basis: np.ndarray
    binv: np.ndarray


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


def _start(lp: LinearProgram) -> _Simplex:
    """Computational form of ``lp`` with its crash basis.

    Nonbasic structural columns sit at their lower bound, else at their
    upper bound, else (free) at 0.  Free columns stay feasible at any
    value, so they are placed first; a row they leave uncovered takes
    its slack when the slack's value is within its bounds, and an
    artificial, signed to start >= 0, otherwise.
    """
    m, n = lp.n_rows, lp.n_vars
    structural = kernels.SparseColumns.from_dense(lp.rows)
    senses = np.asarray(lp.senses, dtype=object)
    has_slack = senses != EQUAL
    free = np.isinf(lp.lower) & np.isinf(lp.upper)
    owner = _crash(structural, free, has_slack)

    w = np.where(np.isfinite(lp.lower), lp.lower,
                 np.where(np.isfinite(lp.upper), lp.upper, 0.0))
    # Invert the basis with unit columns on the uncovered rows; their
    # values are then the row residuals left by the other columns.  In
    # row blocks (covered R, uncovered S) the basis is [[F_R, 0], [F_S, I]],
    # so only F_R needs a dense inverse.
    covered = owner >= 0
    owned, uncovered = np.flatnonzero(covered), np.flatnonzero(~covered)
    f = structural.dense(owner[owned])
    f_r_inv = np.linalg.inv(f[owned]) if owned.size else np.zeros((0, 0))
    binv = np.zeros((m, m))
    binv[np.ix_(owned, owned)] = f_r_inv
    binv[np.ix_(uncovered, owned)] = -f[uncovered] @ f_r_inv
    binv[uncovered, uncovered] = 1.0
    basic = binv @ (lp.rhs - structural.matvec(w))
    w[owner[covered]] = basic[covered]

    residual = basic[uncovered]
    slack_ok = ((senses[uncovered] == LESS_EQUAL) & (residual >= 0.0)) | \
        ((senses[uncovered] == GREATER_EQUAL) & (residual <= 0.0))
    art_rows = uncovered[~slack_ok]
    art_sign = np.where(residual[~slack_ok] < 0.0, -1.0, 1.0)
    binv[art_rows] *= art_sign[:, None]

    slack_rows = np.flatnonzero(has_slack)
    n_slack, n_art = slack_rows.size, art_rows.size
    slack_col = np.full(m, -1, dtype=np.int64)
    slack_col[slack_rows] = n + np.arange(n_slack)
    art_cols = n + n_slack + np.arange(n_art)
    a = kernels.SparseColumns(
        (m, n + n_slack + n_art),
        np.concatenate([structural.cols, slack_col[slack_rows], art_cols]),
        np.concatenate([structural.indices, slack_rows, art_rows]),
        np.concatenate([structural.data, np.ones(n_slack), art_sign]))

    below = senses[slack_rows] == LESS_EQUAL
    lower = np.concatenate([lp.lower, np.where(below, 0.0, -np.inf), np.zeros(n_art)])
    upper = np.concatenate([lp.upper, np.where(below, np.inf, 0.0), np.full(n_art, np.inf)])
    basis = owner.copy()
    basis[uncovered[slack_ok]] = slack_col[uncovered[slack_ok]]
    basis[art_rows] = art_cols
    w = np.concatenate([w, np.zeros(n_slack + n_art)])
    w[slack_col[uncovered[slack_ok]]] = residual[slack_ok]
    w[art_cols] = np.abs(residual[~slack_ok])
    return _Simplex(a=a, b=lp.rhs, lower=lower, upper=upper,
                    artificial=slice(n + n_slack, n + n_slack + n_art),
                    w=w, basis=basis, binv=binv)


def _run_kernel(sx: _Simplex, c, tol: Tolerances, phase: str):
    try:
        status, iters = kernels.simplex_iterate(
            sx.a, sx.b, c, sx.lower, sx.upper, sx.w, sx.basis, sx.binv, tol,
            tol.lp_refactor_every, tol.lp_max_iter)
    except np.linalg.LinAlgError as exc:
        raise PivotBreakdownError(
            f"singular basis during {phase} refactorization: {exc}", sx.basis) from exc
    if status == kernels.ITERATION_LIMIT:
        raise IterationLimitError(
            f"simplex exceeded {tol.lp_max_iter} iterations in {phase}")
    return status, iters


def _phase1(lp: LinearProgram, tol: Tolerances):
    """Minimize the artificials' sum from the crash basis.

    Returns (simplex state, iterations); the state is None when the
    artificials cannot reach zero, i.e. the LP is infeasible.  The
    kernel runs even when the crash needed no artificial (it then
    prices once and stops), so every solve makes one call per phase.
    """
    sx = _start(lp)
    c1 = np.zeros(sx.w.size)
    c1[sx.artificial] = 1.0
    status, iters = _run_kernel(sx, c1, tol, "phase 1")
    if status != kernels.OPTIMAL:
        # The phase-1 objective is bounded below by 0: no ray exists.
        raise PivotBreakdownError("phase 1 did not reach an optimum", sx.basis)
    load = float(np.sum(sx.w[sx.artificial]))
    scale = 1.0 + (float(np.max(np.abs(sx.b))) if sx.b.size else 0.0)
    if load > tol.lp_feasibility * scale:
        return None, iters
    return sx, iters


def solve_lp(lp: LinearProgram, tol: Tolerances = DEFAULT_TOLERANCES) -> LpResult:
    """Solve an LP; optimal results are certified before being returned.

    Raises :class:`PivotBreakdownError` / :class:`IterationLimitError`
    on numeric failure and :class:`CertificationError` when an optimal
    answer fails its own KKT certificate.  Infeasible and unbounded
    problems are reported through ``status``.
    """
    nan_vec = np.full(lp.n_vars, np.nan)
    nan_rows = np.full(lp.n_rows, np.nan)
    sx, iters1 = _phase1(lp, tol)
    if sx is None:
        return LpResult(LpStatus.INFEASIBLE, nan_vec, np.nan, nan_rows, nan_rows, iters1)

    # Artificials left in the basis stay there at zero; this replaces
    # the removal of redundant rows.
    sx.upper[sx.artificial] = 0.0
    c2 = np.zeros(sx.w.size)
    c2[:lp.n_vars] = lp.cost
    status, iters2 = _run_kernel(sx, c2, tol, "phase 2")
    if status == kernels.UNBOUNDED:
        return LpResult(LpStatus.UNBOUNDED, nan_vec, np.nan, nan_rows, nan_rows,
                        iters1 + iters2)
    duals = c2[sx.basis] @ sx.binv
    return _finish(lp, sx.w[:lp.n_vars].copy(), duals, iters1 + iters2, tol)


def _finish(lp: LinearProgram, x, duals, iterations, tol: Tolerances) -> LpResult:
    slacks = np.zeros(lp.n_rows)
    if lp.n_rows:
        ax = lp.rows @ x
        for i, sense in enumerate(lp.senses):
            if sense == GREATER_EQUAL:
                slacks[i] = ax[i] - lp.rhs[i]
            else:
                slacks[i] = lp.rhs[i] - ax[i]

    objective = float(lp.cost @ x) if lp.n_vars else 0.0
    result = LpResult(LpStatus.OPTIMAL, x, objective, duals, slacks, int(iterations))
    cert = certify(lp, result, tol)
    if not cert.passed:
        failed = ", ".join(f"{c.name} ({c.value:.3e} > {c.bound:.3e})" for c in cert.failures())
        raise CertificationError(f"optimal result failed certification: {failed}")
    return result


def _check(name: str, value, bound) -> CheckResult:
    value = float(value)
    bound = float(bound)
    return CheckResult(name, value <= bound, value, bound)


def certify(lp: LinearProgram, result: LpResult,
            tol: Tolerances = DEFAULT_TOLERANCES) -> Certificate:
    """Recompute the KKT conditions for a claimed-optimal result.

    Checks primal feasibility (rows and bounds), dual sign conditions,
    dual feasibility via reduced costs, complementary slackness, the
    duality gap, and objective consistency.
    """
    if result.status is not LpStatus.OPTIMAL:
        raise ValueError(f"can only certify optimal results, got {result.status}")
    x = np.asarray(result.x, dtype=float)
    lam = np.asarray(result.duals, dtype=float)
    checks = []

    ax = lp.rows @ x if lp.n_rows else np.zeros(0)
    primal = 0.0
    for i, sense in enumerate(lp.senses):
        r = ax[i] - lp.rhs[i]
        if sense == LESS_EQUAL:
            primal = max(primal, r)
        elif sense == GREATER_EQUAL:
            primal = max(primal, -r)
        else:
            primal = max(primal, abs(r))
    checks.append(_check("primal row feasibility", primal, tol.lp_feasibility))

    bound_viol = 0.0
    for j in range(lp.n_vars):
        if np.isfinite(lp.lower[j]):
            bound_viol = max(bound_viol, lp.lower[j] - x[j])
        if np.isfinite(lp.upper[j]):
            bound_viol = max(bound_viol, x[j] - lp.upper[j])
    checks.append(_check("bound feasibility", bound_viol, tol.lp_feasibility))

    sign_viol = 0.0
    for i, sense in enumerate(lp.senses):
        if sense == GREATER_EQUAL:
            sign_viol = max(sign_viol, -lam[i])
        elif sense == LESS_EQUAL:
            sign_viol = max(sign_viol, lam[i])
    checks.append(_check("dual sign conditions", sign_viol, tol.lp_feasibility))

    reduced = lp.cost - (lp.rows.T @ lam if lp.n_rows else 0.0)
    dual_viol = 0.0
    for j in range(lp.n_vars):
        lo, hi = lp.lower[j], lp.upper[j]
        at_lo = np.isfinite(lo) and x[j] - lo <= tol.lp_feasibility * (1.0 + abs(lo))
        at_hi = np.isfinite(hi) and hi - x[j] <= tol.lp_feasibility * (1.0 + abs(hi))
        if at_lo and at_hi:
            continue
        if at_lo:
            dual_viol = max(dual_viol, -reduced[j])
        elif at_hi:
            dual_viol = max(dual_viol, reduced[j])
        else:
            dual_viol = max(dual_viol, abs(reduced[j]))
    checks.append(_check("dual feasibility (reduced costs)", dual_viol, tol.lp_feasibility))

    comp = 0.0
    for i in range(lp.n_rows):
        comp = max(comp, abs(lam[i] * result.slacks[i]))
    checks.append(_check("complementary slackness", comp, tol.lp_complementarity))

    obj = float(lp.cost @ x) if lp.n_vars else 0.0
    dual_obj = float(lam @ lp.rhs) if lp.n_rows else 0.0
    for j in range(lp.n_vars):
        if np.isfinite(lp.lower[j]) and reduced[j] > 0:
            dual_obj += reduced[j] * lp.lower[j]
        elif np.isfinite(lp.upper[j]) and reduced[j] < 0:
            dual_obj += reduced[j] * lp.upper[j]
    gap = abs(obj - dual_obj)
    checks.append(_check("duality gap", gap, tol.lp_duality_gap * (1.0 + abs(obj))))

    obj_err = abs(result.objective - obj)
    checks.append(_check("objective consistency", obj_err,
                         tol.lp_duality_gap * (1.0 + abs(obj))))

    return Certificate(tuple(checks))


def feasible(lp: LinearProgram, tol: Tolerances = DEFAULT_TOLERANCES) -> bool:
    """Phase-1 feasibility test (no objective)."""
    return _phase1(lp, tol)[0] is not None


def irreducible_infeasible_rows(lp: LinearProgram,
                                tol: Tolerances = DEFAULT_TOLERANCES) -> list:
    """Greedy deletion filter: labels of an irreducible infeasible row set.

    Repeatedly drops any row whose removal keeps the system infeasible;
    the surviving rows form an irreducible witness.  Intended for small
    diagnostic problems; each trial is one phase-1 solve.
    """
    if feasible(lp, tol):
        return []
    active = list(range(lp.n_rows))
    changed = True
    while changed:
        changed = False
        for drop in list(active):
            trial = [i for i in active if i != drop]
            sub = LinearProgram(
                cost=lp.cost,
                rows=lp.rows[trial] if trial else np.zeros((0, lp.n_vars)),
                senses=tuple(lp.senses[i] for i in trial),
                rhs=lp.rhs[trial] if trial else np.zeros(0),
                lower=lp.lower, upper=lp.upper,
                var_labels=lp.var_labels,
                row_labels=tuple(lp.row_labels[i] for i in trial))
            if not feasible(sub, tol):
                active = trial
                changed = True
    return [lp.row_labels[i] for i in active]
