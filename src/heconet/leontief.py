"""Square input-output quantity model.

Given a nonnegative technical-coefficient matrix ``a`` with spectral
radius below one (a productive economy), gross output solves
``(I - a) x = y`` and factor use is ``phi = f x``.  Productivity is
decided exactly, by the Hawkins-Simon pivots of ``(1 - m) I - a`` with
``m`` the ``productive_margin``; linear systems are solved by LU
factorization with an explicit residual check rather than by forming
the inverse times the right-hand side.
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


def spectral_radius(a) -> float:
    """Largest eigenvalue modulus of nonnegative a (0 for an empty matrix).

    For reports only: productivity is decided without it.
    """
    a = checked_array(a, "coefficient matrix", ("n", "n"), nonneg=True)
    return float(np.max(np.abs(np.linalg.eigvals(a)))) if a.size else 0.0


def _require_productive(a, tol: Tolerances) -> None:
    """Raise unless rho(a) < s, with s = 1 - productive_margin.

    For a >= 0, rho(a) < s exactly when s I - a is a nonsingular
    M-matrix, which holds exactly when Gaussian elimination of s I - a
    without pivoting meets only positive pivots (Hawkins & Simon,
    Econometrica 1949; Berman & Plemmons 1994, ch. 6).  Each Schur
    complement of an M-matrix is again one, so the elimination is stable
    up to the first pivot that is not > 0, where it stops.
    """
    threshold = 1.0 - tol.productive_margin
    m = threshold * np.eye(a.shape[0]) - a
    for k in range(a.shape[0]):
        pivot = m[k, k]
        if not pivot > 0:
            raise NonProductiveEconomyError(spectral_radius(a), threshold)
        m[k + 1:, k + 1:] -= np.outer(m[k + 1:, k] / pivot, m[k, k + 1:])


def leontief_inverse(a, tol: Tolerances = DEFAULT_TOLERANCES) -> np.ndarray:
    """Total-requirements matrix (I - a)^-1 for a productive economy."""
    a = checked_array(a, "coefficient matrix", ("n", "n"), nonneg=True)
    _require_productive(a, tol)
    n = a.shape[0]
    eye = np.eye(n)
    try:
        inverse = np.linalg.solve(eye - a, eye)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(f"I - a is numerically singular: {exc}") from exc
    residual = np.max(np.abs((eye - a) @ inverse - eye)) if n else 0.0
    if residual > tol.inverse_residual:
        raise SingularSystemError(
            f"inverse residual {residual:.3e} exceeds {tol.inverse_residual:.3e}")
    return inverse


def solve(eio: SquareEio, y, tol: Tolerances = DEFAULT_TOLERANCES):
    """Gross output and factor use for final demand y.

    Returns (x, phi) with (I - a) x = y and phi = f x.  Demand must be
    nonnegative; a negative computed output (possible only through
    numeric degeneracy) is reported as a warning, not silently clipped.
    """
    y = checked_array(y, "demand", (eio.n_sectors,), nonneg=True)
    _require_productive(eio.a, tol)
    eye = np.eye(eio.n_sectors)
    try:
        x = np.linalg.solve(eye - eio.a, y)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(f"I - a is numerically singular: {exc}") from exc
    residual = np.max(np.abs((eye - eio.a) @ x - y)) if eio.n_sectors else 0.0
    scale = 1.0 + (np.max(np.abs(y)) if y.size else 0.0)
    if residual > tol.inverse_residual * scale:
        raise SingularSystemError(
            f"solve residual {residual:.3e} exceeds tolerance")
    if np.any(x < -tol.demand_slack):
        warnings.warn("computed gross output has negative entries",
                      RuntimeWarning, stacklevel=2)
    return x, eio.f @ x
