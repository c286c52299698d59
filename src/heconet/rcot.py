"""Rectangular choice-of-technology linear program.

Each sector may operate any number of alternative technologies; the
program picks activity levels x* >= 0 minimizing price-weighted factor
use pi' F* x* subject to net output covering final demand,
(I* - A*) x* >= y, and factor use staying within availability,
F* x* <= f.  It and the static reduction of :mod:`heconet.hfnmcf` share
one Leontief-started solve, :func:`solve_choice`.
"""

from dataclasses import dataclass

import numpy as np

from heconet import lp
from heconet.checks import checked_array, checked_labels, set_fields
from heconet.config import DEFAULT_TOLERANCES, Tolerances
from heconet.incidence import IncidenceMatrices
from heconet.leontief import SquareEio, is_productive
from heconet.lp import LinearProgram, LpStatus


@dataclass(frozen=True, eq=False)
class RcotInstance:
    """Data of one technology-choice problem.

    i_star is the n x t sector-technology incidence matrix: exactly one
    1 per column (each technology belongs to one sector), at least one
    per row (every sector has a technology), hence t >= n.
    """

    i_star: np.ndarray
    a_star: np.ndarray
    f_star: np.ndarray
    y: np.ndarray
    f: np.ndarray
    pi: np.ndarray
    tech_labels: tuple[str, ...] = ()
    sector_labels: tuple[str, ...] = ()
    factor_labels: tuple[str, ...] = ()

    def __post_init__(self):
        i_star = checked_array(self.i_star, "i_star", (None, None))
        n, t = i_star.shape
        if t < n:
            raise ValueError(f"need at least as many technologies as sectors, got {t} < {n}")
        if not np.all((i_star == 0.0) | (i_star == 1.0)):
            raise ValueError("i_star entries must be 0 or 1")
        col_sums = i_star.sum(axis=0)
        if np.any(col_sums != 1.0):
            bad = int(np.argmax(col_sums != 1.0))
            raise ValueError(f"technology column {bad} must belong to exactly one sector")
        row_sums = i_star.sum(axis=1)
        if np.any(row_sums < 1.0):
            bad = int(np.argmax(row_sums < 1.0))
            raise ValueError(f"sector row {bad} has no technology")

        a_star = checked_array(self.a_star, "a_star", (n, t), nonneg=True)
        f_star = checked_array(self.f_star, "f_star", (None, t), nonneg=True)
        k = f_star.shape[0]
        y = checked_array(self.y, "y", (n,), nonneg=True)
        f = checked_array(self.f, "f", (k,), nonneg=True)
        pi = checked_array(self.pi, "pi", (k,), nonneg=True)

        set_fields(self, i_star=i_star, a_star=a_star, f_star=f_star, y=y, f=f, pi=pi,
                   tech_labels=checked_labels(self.tech_labels, "tech_labels", t, "t"),
                   sector_labels=checked_labels(self.sector_labels, "sector_labels", n, "s"),
                   factor_labels=checked_labels(self.factor_labels, "factor_labels", k, "f"))

    @property
    def n_sectors(self) -> int:
        return self.i_star.shape[0]

    @property
    def n_technologies(self) -> int:
        return self.i_star.shape[1]

    @property
    def n_factors(self) -> int:
        return self.f_star.shape[0]

    @property
    def row_labels(self) -> tuple[str, ...]:
        return tuple(f"demand:{s}" for s in self.sector_labels) \
            + tuple(f"cap:{s}" for s in self.factor_labels)


@dataclass
class RcotSolution:
    x_star: np.ndarray
    z: float
    phi: np.ndarray
    status: LpStatus
    binding: np.ndarray          # per-row slack, demand rows then factor rows
    tech_labels: tuple[str, ...] = ()
    row_labels: tuple[str, ...] = ()
    factor_labels: tuple[str, ...] = ()
    iterations: int = 0


def build_rcot_lp(inst: RcotInstance) -> LinearProgram:
    """Assemble the LP: min pi'F*x*, (I*-A*)x* >= y, F*x* <= f, x* >= 0."""
    rows = np.vstack([inst.i_star - inst.a_star, inst.f_star])
    senses = (lp.GREATER_EQUAL,) * inst.n_sectors + (lp.LESS_EQUAL,) * inst.n_factors
    rhs = np.concatenate([inst.y, inst.f])
    return LinearProgram(cost=inst.pi @ inst.f_star, rows=rows, senses=senses,
                         rhs=rhs, var_labels=inst.tech_labels, row_labels=inst.row_labels)


def leontief_start(m, cost, n_rows: int, tol: Tolerances = DEFAULT_TOLERANCES):
    """Start basis of a technology-choice LP for :func:`heconet.lp.solve_lp`.

    ``m`` holds the LP's first rows, net output per unit of each
    technology (I* - A*, or M of the static reduction, whose factor rows
    -F* have no positive entry).  On each row where some technology has
    a positive net output, the start takes the one of least unit cost
    ``cost``, ties to the lowest index; the other rows of the
    ``n_rows`` get -1.  The chosen square m_S, scaled to a unit diagonal,
    is I - A_S; the start is None (the solve starts from the crash)
    unless A_S >= 0 (no chosen technology produces on another chosen
    row, so no column repeats) and A_S is productive by
    :func:`heconet.leontief.is_productive`.  Then x = (I - A_S)^-1 y >= 0
    meets every demand y >= 0, and by the non-substitution theorem
    (Samuelson 1951) the optimum is such a square whenever no factor
    binds.
    """
    m = np.asarray(m)
    produces = m > 0.0
    rows = np.flatnonzero(produces.any(axis=1))
    cols = np.argmin(np.where(produces[rows], cost, np.inf), axis=1)
    square = m[np.ix_(rows, cols)]
    a_s = np.eye(rows.size) - square / np.diag(square)
    if np.any(a_s < 0.0) or not is_productive(a_s, tol):
        return None
    owner = np.full(n_rows, -1, dtype=np.int64)
    owner[rows] = cols
    return owner


def solve_choice(program: LinearProgram, net_output, f_star, factor_labels,
                 tol: Tolerances = DEFAULT_TOLERANCES) -> RcotSolution:
    """Solve a technology-choice LP from :func:`leontief_start` on its
    net-output rows (I* - A*, or M of the static reduction): z is the
    certified objective and phi = F* x.  Off the optimum, x and the
    slacks are NaN, and so are z and phi; the status is never defaulted."""
    result = lp.solve_lp(program, tol,
                         leontief_start(net_output, program.cost, program.n_rows, tol))
    return RcotSolution(result.x, float(result.objective), f_star @ result.x, result.status,
                        result.slacks, program.var_labels, program.row_labels,
                        factor_labels, result.iterations)


def solve_rcot(inst: RcotInstance, tol: Tolerances = DEFAULT_TOLERANCES) -> RcotSolution:
    """Solve the technology-choice LP by :func:`solve_choice`."""
    return solve_choice(build_rcot_lp(inst), inst.i_star - inst.a_star, inst.f_star,
                        inst.factor_labels, tol)


def rcot_from_square(eio: SquareEio, y, f, pi) -> RcotInstance:
    """Embed a one-technology-per-sector economy: I* = I, A* = a, F* = f rows."""
    n = eio.n_sectors
    return RcotInstance(
        i_star=np.eye(n), a_star=eio.a, f_star=eio.f,
        y=y, f=f, pi=pi,
        tech_labels=eio.labels, sector_labels=eio.labels,
        factor_labels=eio.factor_labels)


def instance_from_incidence(inc: IncidenceMatrices, n_products: int,
                            y, f, pi,
                            sector_labels=(), factor_labels=(),
                            tech_labels=()) -> RcotInstance:
    """Recover a technology-choice instance from incidence matrices.

    The first ``n_products`` incidence rows are product rows: their
    positive part must be a 0/1 sector-technology incidence and their
    negative part the augmented transaction matrix.  The remaining rows
    are factor rows and must have no positive part (factors are only
    consumed).  The split is :meth:`IncidenceMatrices.split` (one buffer only).
    """
    (i_star, a_star, sectors), (f_plus, f_star, factors) = inc.split(n_products)
    if np.any(f_plus != 0):
        raise ValueError("factor rows must not be produced by any capability")
    return RcotInstance(
        i_star=i_star, a_star=a_star, f_star=f_star, y=y, f=f, pi=pi,
        tech_labels=tuple(tech_labels) or inc.capabilities,
        sector_labels=tuple(sector_labels) or sectors,
        factor_labels=tuple(factor_labels) or factors)
