"""Numeric tolerances shared across the package.

Every threshold used by the solvers lives in one frozen record so that
library calls, tests, and the command line agree on the same numbers.
The defaults are deliberately conservative for double precision at the
problem scales this package targets (tens to a few thousand variables).
"""

import dataclasses
from dataclasses import dataclass

from heconet.checks import as_given, counts, json_document, positive, set_fields


@dataclass(frozen=True)
class Tolerances:
    """Bundle of numeric thresholds.

    Attributes
    ----------
    productive_margin:
        An economy is rejected as non-productive unless its spectral
        radius is below ``1 - productive_margin``, decided exactly from
        the pivots of ``(1 - productive_margin) I - A``.
    inverse_residual:
        Max-norm bound on ``(I - A) B - I`` accepted for a computed
        Leontief inverse ``B``.
    lp_pivot:
        Pivot magnitudes at or below this value are treated as numeric
        breakdown inside the simplex.
    lp_reduced_cost:
        Reduced costs above ``-lp_reduced_cost`` count as optimal.
    lp_ratio_tie:
        Bound relaxation of the two-pass Harris ratio test: a basic
        variable may overshoot a bound by this much, and among the rows
        that block within the relaxed step the largest pivot leaves.
    lp_feasibility:
        Bound on primal and dual feasibility residuals during
        certification.
    lp_complementarity:
        Bound on per-row ``|dual * slack|`` during certification.
    lp_duality_gap:
        Relative duality-gap bound, scaled by ``1 + |objective|``.
    lp_refactor_every:
        Number of eta updates between explicit refactorizations of the
        basis inverse, counted across phases and deletion-filter trials;
        only the simplex kernel refactorizes.
    lp_max_iter:
        Simplex pivot cap per phase.
    demand_slack:
        Gross outputs of a Leontief solve (:func:`heconet.leontief.solve`)
        below ``-demand_slack`` raise a negative-output warning.

    Every float must be finite and > 0 and every integer cap a count
    >= 1 (:func:`heconet.checks.counts`); anything else raises
    ``ValueError`` at construction.
    """

    productive_margin: float = 1e-9
    inverse_residual: float = 1e-9
    lp_pivot: float = 1e-11
    lp_reduced_cost: float = 1e-9
    lp_ratio_tie: float = 1e-10
    lp_feasibility: float = 1e-7
    lp_complementarity: float = 1e-6
    lp_duality_gap: float = 1e-6
    lp_refactor_every: int = 50
    lp_max_iter: int = 50_000
    demand_slack: float = 1e-6

    def __post_init__(self):
        for f in dataclasses.fields(self):
            value, name = getattr(self, f.name), f"tolerance {f.name!r}"
            set_fields(self, **{f.name: counts(value, name, minimum=1) if f.type is int
                                else positive(value, name)})

    def replace(self, **changes) -> "Tolerances":
        return dataclasses.replace(self, **changes)

    @classmethod
    def from_json(cls, text: str | bytes) -> "Tolerances":
        """Build a record from a JSON object of overrides; a key that names
        no field is refused, so a typo does not fall back to a default."""
        fields = {f.name: (as_given, f.default) for f in dataclasses.fields(cls)}
        return cls(**json_document(text, "tolerance", fields, ValueError))


DEFAULT_TOLERANCES = Tolerances()
