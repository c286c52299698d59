"""Square input-output quantity model.

Given a nonnegative technical-coefficient matrix ``a`` with spectral
radius below one (a productive economy), gross output solves
``(I - a) x = y`` and factor use is ``phi = f x``.  Productivity is
decided exactly, by the Hawkins-Simon pivots of ``(1 - m) I - a`` with
``m`` the ``productive_margin``; linear systems are solved by LU
factorization with an explicit residual check rather than by forming
the inverse times the right-hand side, in one checked solve.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from heconet.checks import checked_array, checked_labels, set_fields
from heconet.config import DEFAULT_TOLERANCES, Tolerances


class NonProductiveEconomyError(ValueError):
    """Spectral radius of the coefficient matrix is not below ``threshold``,
    which is ``1 - productive_margin``.

    The verdict is exact; ``radius`` comes from the eigenvalues for the
    report, so a radius that rounds below the threshold is not claimed
    to reach it.
    """

    def __init__(self, radius: float, threshold: float):
        self.radius = radius
        self.threshold = threshold
        claim = f"spectral radius {radius:.12g} >= {threshold:.12g}" if radius >= threshold \
            else f"spectral radius is not below {threshold:.12g} (eigenvalues give {radius:.12g})"
        super().__init__(f"economy is not productive: {claim}")


class SingularSystemError(RuntimeError):
    """The Leontief system could not be solved to the required residual."""


@dataclass(frozen=True, eq=False)
class SquareEio:
    """One-technology-per-sector economy: coefficients plus factor rows."""

    a: np.ndarray
    f: np.ndarray
    labels: tuple[str, ...] = ()
    factor_labels: tuple[str, ...] = ()

    def __post_init__(self):
        a = checked_array(self.a, "coefficient matrix", ("n", "n"), nonneg=True)
        f = checked_array(self.f, "factor matrix", (None, a.shape[0]), nonneg=True)
        set_fields(self, a=a, f=f, labels=checked_labels(self.labels, "labels", a.shape[0], "s"),
                   factor_labels=checked_labels(self.factor_labels, "factor_labels",
                                                f.shape[0], "f"))

    @property
    def n_sectors(self) -> int:
        return self.a.shape[0]


def coefficients_from_flows(z, x) -> np.ndarray:
    """Technical coefficients a_ij = z_ij / x_j from a flow table.

    ``z`` is the inter-industry flow matrix, ``x`` the gross output
    vector; every sector must have strictly positive output.
    """
    z = checked_array(z, "flow matrix", ("n", "n"), nonneg=True)
    x = checked_array(x, "output vector", (z.shape[0],))
    for j, xj in enumerate(x):
        if xj <= 0:
            raise ValueError(
                f"gross output of sector {j} must be strictly positive, got {xj!r}")
    return z / x[np.newaxis, :]


def _strong_components(a) -> list:
    """Strongly connected components of the graph i -> j where a_ij > 0,
    by Tarjan's depth-first search (SIAM J. Comput. 1972), iterative, in
    O(n^2) on an n x n matrix."""
    successors = [np.flatnonzero(row).tolist() for row in a > 0]
    n = len(successors)
    index, low, on_stack = [-1] * n, [0] * n, [False] * n
    stack, components, visited = [], [], 0
    for root in range(n):
        if index[root] >= 0:
            continue
        path = [(root, iter(successors[root]))]
        index[root] = low[root] = visited
        visited += 1
        stack.append(root)
        on_stack[root] = True
        while path:
            v, children = path[-1]
            for w in children:
                if index[w] < 0:
                    path.append((w, iter(successors[w])))
                    index[w] = low[w] = visited
                    visited += 1
                    stack.append(w)
                    on_stack[w] = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            else:
                # v is done: close its component if it is the root of one
                path.pop()
                if path:
                    low[path[-1][0]] = min(low[path[-1][0]], low[v])
                if low[v] == index[v]:
                    component = []
                    while not component or component[-1] != v:
                        component.append(stack.pop())
                        on_stack[component[-1]] = False
                    components.append(component)
    return components


def spectral_radius(a) -> float:
    """Largest eigenvalue modulus of nonnegative a (0 for an empty matrix).

    The eigenvalues of a are those of its diagonal blocks on the strongly
    connected components of its graph, so the radius is taken block by
    block: where blocks of nearly equal radius are coupled, the
    eigenvalues of the whole matrix are ill-conditioned (off by 2.3e-7
    on a 30-sector block-triangular matrix), while each block on its own
    is not.  For reports only: productivity is decided without it.
    """
    a = checked_array(a, "coefficient matrix", ("n", "n"), nonneg=True)
    blocks = (a[np.ix_(c, c)] for c in _strong_components(a))
    return max((float(np.max(np.abs(np.linalg.eigvals(b)))) for b in blocks), default=0.0)


def is_productive(a, tol: Tolerances = DEFAULT_TOLERANCES) -> bool:
    """Whether rho(a) < s for nonnegative a, with s = 1 - productive_margin.

    For a >= 0, rho(a) < s exactly when s I - a is a nonsingular
    M-matrix, which holds exactly when Gaussian elimination of s I - a
    without pivoting meets only positive pivots (Hawkins & Simon,
    Econometrica 1949; Berman & Plemmons 1994, ch. 6).  Each Schur
    complement of an M-matrix is again one, so the elimination is stable
    up to the first pivot that is not > 0, where it stops.
    """
    m = (1.0 - tol.productive_margin) * np.eye(a.shape[0]) - a
    for k in range(a.shape[0]):
        pivot = m[k, k]
        if not pivot > 0:
            return False
        m[k + 1:, k + 1:] -= np.outer(m[k + 1:, k] / pivot, m[k, k + 1:])
    return True


def _require_productive(a, tol: Tolerances) -> None:
    """Raise :class:`NonProductiveEconomyError` unless :func:`is_productive`."""
    if not is_productive(a, tol):
        raise NonProductiveEconomyError(spectral_radius(a), 1.0 - tol.productive_margin)


def _solve(a, rhs, bound: float, what: str) -> np.ndarray:
    """(I - a)^-1 rhs by LU; :class:`SingularSystemError` when LU fails
    or max|(I - a) x - rhs| exceeds ``bound``."""
    i_minus_a = np.eye(a.shape[0]) - a
    try:
        x = np.linalg.solve(i_minus_a, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(f"I - a is numerically singular: {exc}") from exc
    residual = np.max(np.abs(i_minus_a @ x - rhs), initial=0.0)
    if residual > bound:
        raise SingularSystemError(f"{what} residual {residual:.3e} exceeds {bound:.3e}")
    return x


def leontief_inverse(a, tol: Tolerances = DEFAULT_TOLERANCES) -> np.ndarray:
    """Total-requirements matrix (I - a)^-1 for a productive economy."""
    a = checked_array(a, "coefficient matrix", ("n", "n"), nonneg=True)
    _require_productive(a, tol)
    return _solve(a, np.eye(a.shape[0]), tol.inverse_residual, "inverse")


def solve(eio: SquareEio, y, tol: Tolerances = DEFAULT_TOLERANCES):
    """Gross output and factor use for final demand y.

    Returns (x, phi) with (I - a) x = y, to a residual of at most
    ``inverse_residual * (1 + max|y|)``, and phi = f x.  Demand must be
    nonnegative; a negative computed output (possible only through
    numeric degeneracy) is reported as a warning, not silently clipped.
    """
    y = checked_array(y, "demand", (eio.n_sectors,), nonneg=True)
    _require_productive(eio.a, tol)
    bound = tol.inverse_residual * (1.0 + np.max(np.abs(y), initial=0.0))
    x = _solve(eio.a, y, bound, "solve")
    if np.any(x < -tol.demand_slack):
        warnings.warn("computed gross output has negative entries",
                      RuntimeWarning, stacklevel=2)
    return x, eio.f @ x
